"""Exact linear algebra over a field: RREF, rank, consistency, solutions.

The one elimination is the field descriptor's ``rref``, a fraction-free
Gauss-Jordan on ints with the first nonzero entry of the leftmost
unresolved column as pivot: exact arithmetic needs no pivoting
heuristics, and the fixed rule keeps outputs reproducible.  A solve is
one RREF of the augmented matrix, which gives both ranks and the
particular solution.
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
    """Like SolveOutcome, with one particular matrix per unknown block and
    the ranks of [A_1^T | ... | A_m^T] and of it with B^T appended."""

    consistent: bool
    particular: tuple[Matrix, ...] | None
    nullspace_dim: int
    rank: int
    rank_augmented: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form: leading 1s, zeroed pivot columns,
    staircase shape, zero rows last."""
    rows, pivots = m.field.rref(m.entries)
    return RrefResult(_trusted(m.field, rows), len(pivots), pivots)


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


def matrix_inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None when rank < k: the
    unique X with X * m = 1, from `solve_stacked`."""
    if not m.is_square():
        raise MismatchError("only square matrices can be inverted")
    outcome = solve_stacked((m,), Matrix.identity(m.field, m.nrows))
    return outcome.particular[0] if outcome.rank == m.nrows else None


def solve_xa_eq_b(a: Matrix, b: Matrix) -> SolveOutcome:
    """Solve X * a = b for a square unknown X, both sides k x k:
    `solve_stacked` with the single block a."""
    outcome = solve_stacked((a,), b)
    particular = outcome.particular[0] if outcome.consistent else None
    return SolveOutcome(outcome.consistent, particular, outcome.nullspace_dim)


def solve_stacked(blocks, rhs: Matrix) -> StackedSolveOutcome:
    """Solve sum_j X_j * A_j = B jointly for the unknown matrices X_j.

    Row i of the equation constrains only the i-th rows of the X_j, so
    the whole thing is k independent systems sharing the coefficient
    matrix C = [A_1^T | ... | A_m^T]: one multi-column system C*Y = B^T,
    solved by one RREF of [C | B^T].  Free variables are set to zero.
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
    rr = rref(coeff.augment(rhs.transpose()))
    split = coeff.ncols
    rk = sum(c < split for c in rr.pivot_columns)
    dim = k * (split - rk)
    if rk < rr.rank:  # Kronecker-Capelli: a pivot in the B^T columns
        return StackedSolveOutcome(False, None, dim, rk, rr.rank)
    # Y is (k*m) x k, zero in the free rows; rows j*k..(j+1)*k hold X_j^T.
    y = [(rhs.field.zero,) * k] * split
    for row_idx, col in enumerate(rr.pivot_columns):
        y[col] = rr.rref.entries[row_idx][split:]
    parts = tuple(_trusted(rhs.field, tuple(y[j * k : (j + 1) * k])).transpose()
                  for j in range(len(blocks)))
    return StackedSolveOutcome(True, parts, dim, rk, rr.rank)
