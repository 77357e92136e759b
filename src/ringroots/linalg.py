"""Exact linear algebra over a field: RREF, rank, consistency, solutions.

Everything is Gauss-Jordan with the first nonzero entry of the leftmost
unresolved column as pivot.  Exact arithmetic needs no pivoting
heuristics, and the fixed rule keeps outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchError
from .matrices import Matrix, _trusted


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    rank: int
    pivot_columns: tuple[int, ...]


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a one-unknown-matrix linear solve.

    `nullspace_dim` is the number of free field parameters in the general
    solution of the associated homogeneous system, summed over all unknown
    rows; it is reported whether or not the system is consistent.
    """

    consistent: bool
    particular: Matrix | None
    nullspace_dim: int


@dataclass(frozen=True)
class StackedSolveOutcome:
    """Like SolveOutcome, with one particular matrix per unknown block."""

    consistent: bool
    particular: tuple[Matrix, ...] | None
    nullspace_dim: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form: leading 1s, zeroed pivot columns,
    staircase shape, zero rows last."""
    field = m.field
    work = [list(row) for row in m.entries]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        hit = None
        for r in range(pivot_row, nrows):
            if work[r][col]:
                hit = r
                break
        if hit is None:
            continue
        if hit != pivot_row:
            work[pivot_row], work[hit] = work[hit], work[pivot_row]
        inv = field.invert(work[pivot_row][col])
        work[pivot_row] = [e * inv for e in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return RrefResult(_trusted(field, tuple(map(tuple, work))), len(pivots), tuple(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def nullspace_basis(m: Matrix) -> tuple[Matrix, ...]:
    """Column vectors spanning {v : m * v = 0}; one per free column."""
    field = m.field
    rr = rref(m)
    pivot_of_col = {c: r for r, c in enumerate(rr.pivot_columns)}
    basis = []
    for free in range(m.ncols):
        if free in pivot_of_col:
            continue
        v = [field.zero] * m.ncols
        v[free] = field.one
        for col, row in pivot_of_col.items():
            v[col] = -rr.rref[row, free]
        basis.append(_trusted(field, tuple((e,) for e in v)))
    return tuple(basis)


def _solve_columns(a: Matrix, b: Matrix):
    """Solve a * Y = b for all columns of b at once.

    Returns (consistent, Y or None, rank of a).  Free variables are set
    to zero in Y.  Consistency is the Kronecker-Capelli condition: the
    augmented matrix gains no pivot beyond a's columns.
    """
    if a.field != b.field or a.nrows != b.nrows:
        raise MismatchError("coefficient matrix and right-hand side do not align")
    rr = rref(a.augment(b))
    split = a.ncols
    left_pivots = [c for c in rr.pivot_columns if c < split]
    if len(left_pivots) != len(rr.pivot_columns):
        return False, None, len(left_pivots)
    field = a.field
    solution = [(field.zero,) * b.ncols] * a.ncols
    for row_idx, col in enumerate(left_pivots):
        solution[col] = rr.rref.entries[row_idx][split:]
    return True, _trusted(field, tuple(solution)), len(left_pivots)


def matrix_inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None when rank < k."""
    if not m.is_square():
        raise MismatchError("only square matrices can be inverted")
    consistent, inv, rk = _solve_columns(m, Matrix.identity(m.field, m.nrows))
    if rk < m.nrows:
        return None
    assert consistent
    return inv


def solve_xa_eq_b(a: Matrix, b: Matrix) -> SolveOutcome:
    """Solve X * a = b for a square unknown X, both sides k x k.

    Each row of X solves an independent system: (row i of X) * a equals
    row i of b.  Transposing turns the k row systems into one
    multi-column solve of a^T * Y = b^T.  Free variables are set to zero
    in every row.
    """
    if not a.is_square() or not b.is_square():
        raise MismatchError("solve_xa_eq_b expects square matrices")
    if a.field != b.field or a.nrows != b.nrows:
        raise MismatchError("coefficient matrix and right-hand side do not align")
    k = a.nrows
    consistent, y, rk = _solve_columns(a.transpose(), b.transpose())
    dim = k * (k - rk)
    if not consistent:
        return SolveOutcome(False, None, dim)
    return SolveOutcome(True, y.transpose(), dim)


def solve_stacked(blocks, rhs: Matrix) -> StackedSolveOutcome:
    """Solve sum_j X_j * A_j = B jointly for the unknown matrices X_j.

    Row i of the equation constrains only the i-th rows of the X_j, so
    the whole thing is k independent systems sharing the coefficient
    matrix [A_1^T | ... | A_m^T].  Free variables are set to zero.
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
    coeff = blocks[0].transpose()
    for blk in blocks[1:]:
        coeff = coeff.augment(blk.transpose())
    consistent, y, rk = _solve_columns(coeff, rhs.transpose())
    dim = k * (k * len(blocks) - rk)
    if not consistent:
        return StackedSolveOutcome(False, None, dim)
    # y is (k*m) x k; rows j*k..(j+1)*k hold the transposed block X_j.
    parts = []
    for j in range(len(blocks)):
        part_rows = y.entries[j * k : (j + 1) * k]
        parts.append(_trusted(rhs.field, part_rows).transpose())
    return StackedSolveOutcome(True, tuple(parts), dim)
