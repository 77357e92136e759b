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

One shape takes no elimination: a system of k = 2 rows with one unknown
block, C*Y = R with C and R 2 x 2, is read off det(C) by
``_solve_2x2``.  ``_solve_blocks`` picks it from the blocks' shape
alone, with no option.  It is the paper's quadratic criterion over M_2
(n = 2), every j of the direct construction at k = 2, and the inverse in
M_2.  It gives the outcome the elimination gives, pivot rule and free
variables included; the brute-force oracle and the evaluation referee
share no code with it, so they still check every answer it returns.
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

    With k = 2 rows and one unknown block the outcome is read off det(C)
    by ``_solve_2x2`` instead; every other shape runs the elimination.
    """
    if len(blocks) == 2 and len(blocks[1]) == 2:
        return _solve_2x2(field, *blocks, dens[0])
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


def _solve_2x2(field, c, r, d: int) -> StackedSolveOutcome:
    """`_solve_blocks` for C*Y = R with C = [[c0, c1], [c2, c3]] and R =
    [[r0, r1], [r2, r3]] int rows, by the determinant: the same outcome
    as the elimination, Y coming back as the matrix Y^T / d.  Over F_p
    det(C) is taken mod p first, and in the singular cases every entry.

    - det(C) != 0: rank 2, and Y = adj(C) R / det(C).
    - det(C) = 0, C != 0: rank 1.  The pivot is the one Gauss-Jordan
      picks, the first nonzero entry pv of the leftmost nonzero column;
      with f the other row's entry there, the system is consistent when
      pv*R[other] - f*R[pivot] = 0.  Row col of Y, col the pivot's
      column, is then R[pivot] / pv, and the free row is zero.
    - C = 0: rank 0, the augmented rank is rank(R), and Y = 0 when R = 0.

    Over Q a negative det(C) or pv moves its sign to the numerators, as
    ``normalize`` takes a positive denominator."""
    (c0, c1), (c2, c3) = c
    (r0, r1), (r2, r3) = r
    p = field.p if field.kind == "prime" else 0
    det = c0 * c3 - c1 * c2
    if p:
        det %= p
    if det:
        if det < 0:  # over Q; adj(-C) = -adj(C)
            det, c0, c1, c2, c3 = -det, -c0, -c1, -c2, -c3
        rows = ((c3 * r0 - c1 * r2, c0 * r2 - c2 * r0), (c3 * r1 - c1 * r3, c0 * r3 - c2 * r1))
        return StackedSolveOutcome(True, (_trusted(field, rows, det * d),), 0, 2, 2, 2)
    if p:
        c0, c1, c2, c3, r0, r1, r2, r3 = [a % p for a in (c0, c1, c2, c3, r0, r1, r2, r3)]
    if c0 or c2:
        col, u, v = 0, c0, c2
    elif c1 or c3:
        col, u, v = 1, c1, c3
    else:
        det = r0 * r3 - r1 * r2
        if p:
            det %= p
        ra = 2 if det else 1 if r0 or r1 or r2 or r3 else 0
        if ra:
            return StackedSolveOutcome(False, None, 4, 0, ra, 0)
        return StackedSolveOutcome(True, (_raw(field, ((0, 0), (0, 0)), 1),), 4, 0, 0, 0)
    # The pivot row is the first with a nonzero entry in column col.
    pv, f, s0, s1, t0, t1 = (u, v, r0, r1, r2, r3) if u else (v, 0, r2, r3, r0, r1)
    e0, e1 = pv * t0 - f * s0, pv * t1 - f * s1
    if p:
        e0, e1 = e0 % p, e1 % p
    if e0 or e1:
        return StackedSolveOutcome(False, None, 2, 1, 2, 1)
    if pv < 0:
        pv, s0, s1 = -pv, -s0, -s1
    rows = ((s0, 0), (s1, 0)) if col == 0 else ((0, s0), (0, s1))
    return StackedSolveOutcome(True, (_trusted(field, rows, pv * d),), 2, 1, 1, 1)
