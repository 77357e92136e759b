"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared host the same interpreter-bound code runs up to twice as
fast at some moments as at others, and the slow stretches last from
seconds to minutes, so two runs of the same code minutes apart differ by
more than the changes the benchmark is meant to show.  The benchmark
times this kernel, which is stdlib only, next to the work it measures and divides each measured time by `factor`: the
kernel's median time over REFERENCE_S.  The figures then read as times
at reference speed, the speed at which the kernel takes REFERENCE_S.
A change to the kernel or to REFERENCE_S shifts every time the benchmark
reports, so figures from before and after it do not compare.

The kernel mixes what the workloads spend their time on: Fraction
arithmetic, small-int arithmetic modulo a prime, method calls on small
objects, list and dict building.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the kernel's fastest time on a 2-vCPU x86-64 Xeon guest under
# CPython 3.11.7, so that figures read as times on that machine when
# nothing else slows it; busier stretches took 1.5 to 2 times as long.
REFERENCE_S = 1.0e-4

_FRACTIONS = tuple(Fraction(i, 2 * i + 1) for i in range(1, 17))
_P = 97


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def scaled(self, k):
        return _Cell(self.value * k % _P)


def kernel():
    """A fixed piece of pure-Python work, about REFERENCE_S long."""
    acc = Fraction(0)
    for f in _FRACTIONS:
        acc += f * f - f
    residues = [(i * 2654435761) % _P for i in range(48)]
    total = 0
    for a, b in zip(residues, residues[1:]):
        total = (total + a * b) % _P
    cells = [_Cell(r).scaled(3) for r in residues]
    index = {c.value: i for i, c in enumerate(cells)}
    return acc, total, len(index)


def time_kernel() -> float:
    """The time of one warm run of the kernel.  A first, untimed run
    brings its code and data back into the caches, so that the time does
    not depend on what ran before it."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(kernel_times) -> float:
    """How much slower than reference speed the machine ran while these
    kernel times were taken (above 1 is slower)."""
    return statistics.median(kernel_times) / REFERENCE_S
