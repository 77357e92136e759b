"""Exact linear algebra over a field: RREF, rank, consistency, solutions.

The one elimination is ``_fraction_free_rref``, a Gauss-Jordan on int
rows with the first nonzero entry of the leftmost unresolved column as
pivot: exact arithmetic needs no pivoting
heuristics, and the fixed rule keeps outputs reproducible.  The field
supplies only the row reduction that keeps the entries small.  ``rref``
runs it on a matrix's payload and returns the canonical form.  A solve
runs it on the augmented int rows, which gives both ranks, and reads the
particular solution off the pivot rows, with no RREF matrix built.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import NamedTuple

from .errors import MismatchError
from .matrices import Matrix, _trusted


class RrefResult(NamedTuple):
    rref: Matrix
    rank: int
    pivot_columns: tuple[int, ...]


class StackedSolveOutcome(NamedTuple):
    """Result of solving sum_j X_j * A_j = B: one particular matrix per
    unknown block, the ranks of [A_1^T | ... | A_m^T] and of it with B^T
    appended, and `nullspace_dim`, the free field parameters of the
    homogeneous system over all unknown rows, consistent or not."""

    consistent: bool
    particular: tuple[Matrix, ...] | None
    nullspace_dim: int
    rank: int
    rank_augmented: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form: leading 1s, zeroed pivot columns,
    staircase shape, zero rows last."""
    field = m.field
    work = [list(row) for row in m._rows]  # m's den scales every row alike
    pivots = _fraction_free_rref(work, field.reduce_row)
    # Pivot row i over its pivot: every row over the lcm of the pivots,
    # a unit mod p over F_p, since each pivot is a nonzero residue.
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    rows = [tuple(a * (den // row[c]) for a in row) for row, c in zip(work, pivots)]
    rows += [(0,) * m.ncols] * (m.nrows - len(pivots))
    return RrefResult(_trusted(field, tuple(rows), den), len(pivots), pivots)


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
    return rref(m).rank


def matrix_inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None when rank < k: the
    unique X with X * m = 1, from `solve_stacked`."""
    if not m.is_square():
        raise MismatchError("only square matrices can be inverted")
    outcome = solve_stacked((m,), Matrix.identity(m.field, m.nrows))
    return outcome.particular[0] if outcome.rank == m.nrows else None


def solve_stacked(blocks, rhs: Matrix) -> StackedSolveOutcome:
    """Solve sum_j X_j * A_j = B jointly for the unknown matrices X_j.

    Row i of the equation constrains only the i-th rows of the X_j, so
    the whole thing is k independent systems sharing the coefficient
    matrix C = [A_1^T | ... | A_m^T]: one multi-column system C*Y = B^T,
    solved by one elimination of [C | B^T], whose int rows are the columns of
    the blocks' numerators over the lcm of their dens.  Free variables
    are set to zero.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise MismatchError("solve_stacked needs at least one coefficient block")
    k = rhs.nrows
    for blk in blocks:
        if not blk.is_square() or blk.nrows != k or blk.field != rhs.field:
            raise MismatchError("all blocks must be square, same size and field as rhs")
    if not rhs.is_square():
        raise MismatchError("solve_stacked expects a square right-hand side")
    den = lcm(*(m._den for m in (*blocks, rhs)))
    scaled = [(m, den // m._den) for m in (*blocks, rhs)]
    columns = [[[a * s for a in col] for col in zip(*m._rows)] for m, s in scaled]
    return _solve_blocks(rhs.field, columns, (1,) * len(blocks))


def _solve_blocks(field, blocks, dens) -> StackedSolveOutcome:
    """Solve C*Y = R for C = [C_1 | ... | C_m], with blocks = (C_1, ...,
    C_m, R) each given as its k int rows, by one elimination of [C | R] on
    the ints; free variables are zero.  Block Y_j of the solution comes
    back as the matrix Y_j^T / dens[j]: a caller that scaled C_j by c_j and
    R by c, which moves no rank, pivot or free variable, passes c / c_j.
    """
    # Each row mod p over F_p, where the elimination needs residues; over
    # Q divided by its content, which changes no solution.
    work = [field.reduce_row(list(chain.from_iterable(parts))) for parts in zip(*blocks)]
    k = len(work)
    pivots = _fraction_free_rref(work, field.reduce_row)
    split = len(work[0]) - k
    rk = sum(c < split for c in pivots)
    dim = k * (split - rk)
    if rk < len(pivots):  # Kronecker-Capelli: a pivot in the R columns
        return StackedSolveOutcome(False, None, dim, rk, len(pivots))
    # Y is zero in the free rows, and row c of Y, c = pivots[i], is the
    # R part of pivot row i over its pivot, over the pivots' lcm (as in rref).
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    y = [(0,) * k] * split
    for row, c in zip(work, pivots):
        y[c] = tuple(a * (den // row[c]) for a in row[split:])
    parts = tuple(_trusted(field, tuple(zip(*y[j * k : (j + 1) * k])), den * d)
                  for j, d in enumerate(dens))
    return StackedSolveOutcome(True, parts, dim, rk, len(pivots))
