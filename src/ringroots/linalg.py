"""Exact linear algebra over a field: rank, consistency, solutions.

There is one elimination, ``_fraction_free_rref``, a Gauss-Jordan on int
rows with the first nonzero entry of the leftmost unresolved column as
pivot: exact arithmetic needs no pivoting heuristics, and the fixed rule
keeps outputs reproducible.  The field supplies only the row reduction
that keeps the entries small.  ``_solve_blocks`` runs it on the augmented
int rows of a stacked system, which gives both ranks, and reads the
particular solution off the pivot rows, with no RREF matrix built, and
the rank of the first unknown block's columns; ``rank`` is a thin read
of it, the number of pivots of a matrix's rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from math import lcm
from typing import NamedTuple

from .matrices import Matrix, _raw, _trusted


class StackedSolveOutcome(NamedTuple):
    """Result of `_solve_blocks` for C*Y = R, C = [C_1 | ... | C_m]: one
    particular matrix per unknown block, the ranks of C and of [C | R],
    `nullspace_dim`, the free field parameters of the homogeneous system
    over all unknown rows, consistent or not, and `rank_first`, the rank
    of C_1 alone: the pivots are leftmost, so it counts those in C_1's
    columns."""

    consistent: bool
    particular: tuple[Matrix, ...] | None
    nullspace_dim: int
    rank: int
    rank_augmented: int
    rank_first: int


def _fraction_free_rref(work, reduce) -> tuple:
    """Division-free Gauss-Jordan on the int rows `work`, in place;
    returns the pivot columns.

    The pivot is the first nonzero entry of the leftmost unresolved
    column; every other row r with f = work[r][col] != 0 becomes
    reduce(pv * work[r] - f * pivot_row).  `reduce` keeps the entries
    small (a gcd over Q, mod p over F_p), so each row stays a nonzero
    multiple of the row element-wise Gauss-Jordan holds: same pivots,
    same reduced form once pivot row i is divided by work[i][pivots[i]].
    Rows below the rank end up zero.
    """
    nrows = len(work)
    pivots = []
    for col in range(len(work[0])):
        top = len(pivots)
        if top == nrows:
            break
        hit = next((r for r in range(top, nrows) if work[r][col]), None)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        pivot_row = work[top]
        pv = pivot_row[col]
        for r in range(nrows):
            f = work[r][col]
            if f and r != top:
                work[r] = reduce([pv * a - f * b for a, b in zip(work[r], pivot_row)])
        pivots.append(col)
    return tuple(pivots)


def rank(m: Matrix) -> int:
    return len(_fraction_free_rref([list(r) for r in m._rows], m.field.reduce_row))


def _solve_blocks(field, blocks, dens) -> StackedSolveOutcome:
    """Solve C*Y = R for C = [C_1 | ... | C_m], with blocks = (C_1, ...,
    C_m, R) each given as its k int rows, by one elimination of [C | R] on
    the ints; free variables are zero.  Block Y_j of the solution comes
    back as the matrix Y_j^T / dens[j]: a caller that scaled C_j by c_j and
    R by c, which moves no rank, pivot or free variable, passes c / c_j.
    An all-zero block is the canonical zero payload, with no ``normalize``.
    """
    # Each row mod p over F_p, where the elimination needs residues; over
    # Q divided by its content, which changes no solution.
    work = [field.reduce_row(list(chain.from_iterable(parts))) for parts in zip(*blocks)]
    k = len(work)
    pivots = _fraction_free_rref(work, field.reduce_row)
    split = len(work[0]) - k
    rk = bisect_left(pivots, split)
    dim = k * (split - rk)
    first = bisect_left(pivots, k)
    if rk < len(pivots):  # Kronecker-Capelli: a pivot in the R columns
        return StackedSolveOutcome(False, None, dim, rk, len(pivots), first)
    # Y is zero in the free rows, and row c of Y, c = pivots[i], is the
    # R part of pivot row i over its pivot, over the pivots' lcm: a unit
    # mod p over F_p, since each pivot is a nonzero residue.
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    y = [(0,) * k] * split
    for row, c in zip(work, pivots):
        y[c] = tuple(a * (den // row[c]) for a in row[split:])
    ys = [y[j * k : (j + 1) * k] for j in range(len(dens))]
    zero = ((0,) * k,) * k
    parts = tuple(_trusted(field, tuple(zip(*b)), den * d) if any(map(any, b))
                  else _raw(field, zero, 1) for b, d in zip(ys, dens))
    return StackedSolveOutcome(True, parts, dim, rk, len(pivots), first)
