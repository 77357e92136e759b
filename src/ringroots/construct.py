"""Recursive construction of a monic polynomial with prescribed right roots.

Starting from x - x_1, each further root x_m is folded in by evaluating
the current polynomial R at x_m.  If the value h = R(x_m) is invertible,
prepending the factor (x - h*x_m*h**-1) makes x_m a root of the product
while keeping the old roots (they already annihilate the right factor).
If h = 0 the root is already absorbed; padding with a left factor x
restores the exact degree when requested.  Over a division ring those two
cases are exhaustive, so the construction always succeeds there; over a
matrix ring a nonzero singular h obstructs the recursion and the trace
records where.

Over the quaternions R is held as int numerator 4-tuples over one common
denominator D, as `Matrix` holds its entries.  h comes from the
quaternion int core on those numerators, and the conjugated root
s = h*x_m*h**-1 from two int products.  With s = t/c, the new numerators
c*R_(j-1) - t*R_j over D*c are reduced by one gcd per step, and the
coefficients become `Quaternion`s once, at the end.  The matrix and
scalar rings fold on a list of ring elements.  Either fold returns
coefficients, made a `Polynomial` once the referee has passed them.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import NamedTuple

from . import quaternions
from .errors import DomainError
from .polynomials import Polynomial
from .rings import QuaternionRing, Ring, infer_ring

BRANCH_CONJUGATE = "conjugate"
BRANCH_ALREADY_ROOT = "already_root"
BRANCH_PAD_WITH_X = "pad_with_x"
BRANCH_FAILED = "failed"


class ConstructionStep(NamedTuple):
    """One step of the recursion.

    `index` is the position (0-based) of the root being folded in;
    `evaluation_value` is the current polynomial evaluated at that root;
    `conjugated_root` is present exactly on the conjugate branch.
    """

    index: int
    evaluation_value: object
    branch: str
    conjugated_root: object = None


class ConstructionTrace(NamedTuple):
    ring: Ring
    steps: tuple[ConstructionStep, ...]
    result: Polynomial | None

    @property
    def succeeded(self) -> bool:
        return self.result is not None

    @property
    def failed_step(self) -> ConstructionStep | None:
        for step in self.steps:
            if step.branch == BRANCH_FAILED:
                return step
        return None

    def to_json(self) -> dict:
        enc = self.ring.element_to_json
        return {
            "steps": [
                {
                    "index": s.index,
                    "evaluation_value": enc(s.evaluation_value),
                    "branch": s.branch,
                    "conjugated_root": (
                        enc(s.conjugated_root) if s.conjugated_root is not None else None
                    ),
                }
                for s in self.steps
            ],
            "result": self.result.to_json() if self.result is not None else None,
        }


def construct_with_roots(roots, exact_degree: bool = False) -> ConstructionTrace:
    """Build a monic polynomial annihilating every element of `roots`.

    The ring is that of the first root.  Roots are folded in left to
    right, in input order.  The result has degree at most len(roots),
    exactly len(roots) when `exact_degree`.  A nonzero, non-invertible
    evaluation value ends the construction with a failed step and result
    None (possible over matrix rings only).
    """
    roots = list(roots)
    if not roots:
        raise DomainError("at least one root is required")
    ring = infer_ring(roots[0])
    roots = [ring.check(r) for r in roots]
    fold = _fold_quaternions if isinstance(ring, QuaternionRing) else _fold
    steps, coeffs = fold(ring, roots, exact_degree)
    if coeffs is None:
        return ConstructionTrace(ring, steps, None)
    _assert_annihilates(ring, coeffs, roots)
    return ConstructionTrace(ring, steps, Polynomial(ring, coeffs))


def _fold(ring: Ring, roots, exact_degree: bool) -> tuple:
    """(steps, coefficients or None): the recursion on a coefficient list,
    for the matrix and scalar rings."""
    coeffs = [-roots[0], ring.one]
    steps = []
    for index in range(1, len(roots)):
        root = roots[index]
        h = ring._values(coeffs, (root,))[0]
        if not h:
            if exact_degree:
                coeffs.insert(0, ring.zero)
                steps.append(ConstructionStep(index, h, BRANCH_PAD_WITH_X))
            else:
                steps.append(ConstructionStep(index, h, BRANCH_ALREADY_ROOT))
            continue
        hinv = ring.invert(h)
        if hinv is None:
            steps.append(ConstructionStep(index, h, BRANCH_FAILED))
            return tuple(steps), None
        shifted = h * root * hinv
        steps.append(ConstructionStep(index, h, BRANCH_CONJUGATE, shifted))
        coeffs = _times_x_minus(shifted, coeffs)
    return tuple(steps), coeffs


def _times_x_minus(s, p: list) -> list:
    """The coefficients of (x - s) * P for P's coefficients p, built as
    x*P - s*P: -s*p_0, then p_(j-1) - s*p_j, then the leading p_d.  The
    variable is central, so this is the product the convolution gives."""
    return [-(s * p[0]), *(a - s * b for a, b in zip(p, p[1:])), p[-1]]


def _fold_quaternions(ring: Ring, roots, exact_degree: bool) -> tuple:
    """(steps, coefficients): the recursion over H with R held as int
    numerator 4-tuples over one common denominator.

    h = R(r) comes from ``quaternions._value_ints`` and one gcd, and the
    conjugated root s = h*r*h**-1 from ``_conjugated_root`` on the ints,
    so both are the canonical values the operators reach.  The
    coefficients become `Quaternion`s once, at the end.
    """
    first = roots[0]
    num, den = [tuple(-v for v in first._n), (first._den, 0, 0, 0)], first._den
    steps = []
    for index in range(1, len(roots)):
        root = roots[index]
        acc, scale = quaternions._value_ints(num, root)
        h = quaternions._trusted(*acc, den * scale)
        if not h:
            if exact_degree:
                num.insert(0, (0, 0, 0, 0))
                steps.append(ConstructionStep(index, h, BRANCH_PAD_WITH_X))
            else:
                steps.append(ConstructionStep(index, h, BRANCH_ALREADY_ROOT))
            continue
        shifted = _conjugated_root(h, root)
        steps.append(ConstructionStep(index, h, BRANCH_CONJUGATE, shifted))
        num, den = _times_x_minus_numerators(shifted, num, den)
    return tuple(steps), [quaternions._trusted(*q, den) for q in num]


def _conjugated_root(h, r):
    """h * r * h**-1 for quaternions h != 0 and r, reduced by one gcd.

    With h = H / h_d and r = R / r_d, h**-1 = h_d * conj(H) / N(H), so
    h_d cancels and the value is H * R * conj(H) / (r_d * N(H)): two
    products on the ints, with no `Quaternion` in between."""
    a, b, c, d = h._n
    r0, r1, r2, r3 = r._n
    # Quaternion.__mul__'s product H * R, inlined
    u0 = a * r0 - b * r1 - c * r2 - d * r3
    u1 = a * r1 + b * r0 + c * r3 - d * r2
    u2 = a * r2 - b * r3 + c * r0 + d * r1
    u3 = a * r3 + b * r2 - c * r1 + d * r0
    # and U * conj(H), conj(H) = (a, -b, -c, -d)
    return quaternions._trusted(
        u0 * a + u1 * b + u2 * c + u3 * d,
        u1 * a - u0 * b + u3 * c - u2 * d,
        u2 * a - u0 * c + u1 * d - u3 * b,
        u3 * a - u0 * d + u2 * b - u1 * c,
        r._den * (a * a + b * b + c * c + d * d),
    )


def _times_x_minus_numerators(s, num: list, den: int) -> tuple:
    """(x - s) * R for R = num / den, as (numerators, denominator) reduced
    by one gcd.  With s = t / c the coefficients are
    q_j = (c*R_(j-1) - t*R_j) / (den*c), R_(-1) = R_(d+1) = 0."""
    t0, t1, t2, t3 = s._n
    c = s._den
    out = []
    p0 = p1 = p2 = p3 = 0
    for n0, n1, n2, n3 in num:
        # Quaternion.__mul__'s product t*R_j, inlined
        out.append((
            c * p0 - (t0 * n0 - t1 * n1 - t2 * n2 - t3 * n3),
            c * p1 - (t0 * n1 + t1 * n0 + t2 * n3 - t3 * n2),
            c * p2 - (t0 * n2 - t1 * n3 + t2 * n0 + t3 * n1),
            c * p3 - (t0 * n3 + t1 * n2 - t2 * n1 + t3 * n0),
        ))
        p0, p1, p2, p3 = n0, n1, n2, n3
    out.append((c * p0, c * p1, c * p2, c * p3))
    den *= c
    g = gcd(den, *chain.from_iterable(out))
    if g == 1:
        return out, den
    return [(q0 // g, q1 // g, q2 // g, q3 // g) for q0, q1, q2, q3 in out], den // g


def verify_roots(p: Polynomial, roots) -> tuple:
    """p's value at each candidate root; all-zero means all are roots.
    A candidate outside p's ring raises MismatchError before anything is
    evaluated.  The ring's kernel takes all the roots in one call."""
    ring = p.ring
    roots = [ring.check(r) for r in roots]
    if p.is_zero():
        return (ring.zero,) * len(roots)
    return ring._values(p.coeffs, roots)


def _assert_annihilates(ring: Ring, coeffs, roots):
    """The referee every constructed polynomial passes before it leaves
    the package: RuntimeError unless its coefficients `coeffs` (constant
    term first) vanish at each of `roots` by the ring's evaluation kernel,
    since anything else can only be a bug."""
    if any(ring._values(coeffs, roots)):
        raise RuntimeError("internal error: a constructed polynomial does not annihilate its roots")
