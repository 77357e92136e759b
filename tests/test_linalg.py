"""Exact RREF, rank, and the row-unknown linear solvers.

The solvers get cross-checked three independent ways: re-substitution of
every particular solution, the stacked-rows rank formulation, and (over
small prime fields) literal enumeration of all candidate solutions.
"""

import itertools
import random
from fractions import Fraction

import pytest

from ringroots import (
    Matrix,
    MismatchError,
    PrimeField,
    matrix_inverse,
    rank,
    rref,
    solve_stacked,
)

from helpers import (
    F2,
    F3,
    F7,
    QQ,
    involution_pair,
    rand_matrix,
    rank_gap_pair,
    reference_rref,
    zero_column_pair,
)


def enumerate_f2_matrices():
    ms = []
    for bits in itertools.product((0, 1), repeat=4):
        ms.append(Matrix.from_rows(F2, [bits[:2], bits[2:]]))
    return ms


def test_rref_rank_of_singular_difference():
    x1, x2 = involution_pair()
    assert rank(x1 - x2) == 1


def test_rref_identity_full_rank():
    for k in (1, 2, 3, 4):
        res = rref(Matrix.identity(QQ, k))
        assert res.rank == k
        assert res.pivot_columns == tuple(range(k))
        assert res.rref == Matrix.identity(QQ, k)


def test_rank_of_stacked_difference_and_square_difference():
    # difference rows stacked over square-difference rows for the
    # rank-gap pair: the stack has rank 2 while the difference has rank 1
    x1, x2 = rank_gap_pair()
    diff = x1 - x2
    assert rank(diff) == 1
    stacked = Matrix(QQ, diff.entries + (x2 * x2 - x1 * x1).entries)
    assert rank(stacked) == 2
    explicit = Matrix.from_rows(QQ, [[0, 0], [1, -2], [0, 0], [-1, 0]])
    assert rank(explicit) == 2


def test_rank_examples():
    assert rank(Matrix.zeros(QQ, 3, 3)) == 0
    assert rank(Matrix.from_rows(QQ, [[0, 0], [1, -2]])) == 1
    assert rank(Matrix.from_rows(QQ, [[0, -1], [0, 0]])) == 1


def _is_rref(m: Matrix, pivots) -> bool:
    # leading 1s, zeroed pivot columns, strictly right-moving staircase,
    # zero rows at the bottom
    field = m.field
    last = -1
    for row_idx, col in enumerate(pivots):
        if col <= last:
            return False
        last = col
        if m[row_idx, col] != field.one:
            return False
        for r in range(m.nrows):
            if r != row_idx and m[r, col]:
                return False
        for c in range(col):
            if m[row_idx, c]:
                return False
    for r in range(len(pivots), m.nrows):
        if any(m[r, c] for c in range(m.ncols)):
            return False
    return True


def test_rref_shape_conditions_hold_on_random_matrices():
    rng = random.Random(5)
    for _ in range(100):
        field = rng.choice([QQ, F2, F3])
        m = rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
        res = rref(m)
        assert res.rank == len(res.pivot_columns)
        assert _is_rref(res.rref, res.pivot_columns)


def _rref_case_entry(rng, field):
    if rng.random() < 0.3:
        return 0
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    if rng.random() < 0.3:
        return Fraction(rng.randrange(-10**40, 10**40), rng.randrange(1, 10**40))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _rref_case(rng, field):
    """A random matrix, square, tall or as wide as a stacked k x kn
    system, with zero rows and columns and dependent rows mixed in."""
    nrows = rng.randint(1, 4)
    ncols = nrows * rng.randint(2, 5) if rng.random() < 0.4 else rng.randint(1, 5)
    rows = [[_rref_case_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.3:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = 0
    if nrows > 1 and rng.random() < 0.4:
        src, dst = rng.sample(range(nrows), 2)
        scale = rng.randint(1, 6) if isinstance(field, PrimeField) else Fraction(-7, 3)
        rows[dst] = [scale * e for e in rows[src]]
    return Matrix.from_rows(field, rows)


@pytest.mark.parametrize("field", [QQ, F2, F3, F7], ids=["Q", "F2", "F3", "F7"])
def test_rref_matches_elementwise_reference(field):
    # The field-owned fraction-free kernel against a literal copy of the
    # element-wise Gauss-Jordan it replaced: same pivot rule, so the
    # reduced matrix, rank and pivot columns must be identical.
    rng = random.Random(f"rref/{field!r}")
    ranks = set()
    for _ in range(250):
        m = _rref_case(rng, field)
        got = rref(m)
        rows, rk, pivots = reference_rref(m)
        assert got.rref.entries == rows
        assert all(field.contains(e) for row in got.rref.entries for e in row)
        assert (got.rank, got.pivot_columns) == (rk, pivots)
        ranks.add(rk < min(m.nrows, m.ncols))
    assert ranks == {True, False}


def test_rank_equals_rank_of_transpose():
    rng = random.Random(6)
    for _ in range(200):
        field = rng.choice([QQ, F2, F3])
        m = rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(m) == rank(m.transpose())


def test_solve_xa_known_system():
    a = Matrix.from_rows(QQ, [[0, 0], [1, -2]])
    b = Matrix.from_rows(QQ, [[0, 0], [-1, 2]])
    outcome = solve_stacked((a,), b)
    assert outcome.consistent
    assert outcome.particular == (Matrix.from_rows(QQ, [[0, 0], [0, -1]]),)
    assert outcome.particular[0] * a == b
    assert outcome.nullspace_dim == 2


def test_solve_xa_identity_coefficient():
    rng = random.Random(8)
    b = rand_matrix(rng, QQ, 3)
    outcome = solve_stacked((Matrix.identity(QQ, 3),), b)
    assert outcome.consistent
    assert outcome.particular == (b,)
    assert outcome.nullspace_dim == 0


def test_solve_xa_inconsistent_system():
    a = Matrix.from_rows(QQ, [[0, 0], [1, -2]])
    b = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    outcome = solve_stacked((a,), b)
    assert not outcome.consistent
    assert outcome.particular is None
    # independent check: take the same system to F_3 and F_5 (where the
    # entries stay faithful) and enumerate every candidate X
    for p in (3, 5):
        fp = PrimeField(p)
        ap = Matrix.from_rows(fp, [[0, 0], [1, -2]])
        bp = Matrix.from_rows(fp, [[1, 0], [0, 0]])
        hits = 0
        for rows in itertools.product(range(p), repeat=4):
            x = Matrix.from_rows(fp, [rows[:2], rows[2:]])
            if x * ap == bp:
                hits += 1
        assert hits == 0


def test_solve_xa_mismatch_errors():
    with pytest.raises(MismatchError):
        solve_stacked((Matrix.identity(QQ, 2),), Matrix.identity(QQ, 3))
    with pytest.raises(MismatchError):
        solve_stacked((Matrix.from_rows(QQ, [[1, 2]]),), Matrix.from_rows(QQ, [[1, 2]]))


def test_consistency_matches_stacked_rank_formulation():
    # X*a = b is solvable iff stacking b's rows under a's leaves the rank
    rng = random.Random(9)
    seen = {True: 0, False: 0}
    for _ in range(300):
        field = rng.choice([QQ, F2, F3])
        k = rng.randint(1, 3)
        a = rand_matrix(rng, field, k)
        b = rand_matrix(rng, field, k)
        outcome = solve_stacked((a,), b)
        assert outcome.consistent == (rank(Matrix(field, a.entries + b.entries)) == rank(a))
        if outcome.consistent:
            assert outcome.particular[0] * a == b
        seen[outcome.consistent] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_solution_count_is_p_to_the_dim_over_f2():
    # exhaustive enumeration over M_2(F_2) pins the dimension bookkeeping
    all_ms = enumerate_f2_matrices()
    rng = random.Random(10)
    consistent_seen = 0
    for _ in range(60):
        a = rng.choice(all_ms)
        b = rng.choice(all_ms)
        outcome = solve_stacked((a,), b)
        count = sum(1 for x in all_ms if x * a == b)
        if outcome.consistent:
            consistent_seen += 1
            assert count == 2**outcome.nullspace_dim
        else:
            assert count == 0
    assert consistent_seen > 10


def test_solve_stacked_cubic_system():
    # the joint system behind the rank-gap pair's cubic annihilator
    x1, x2 = rank_gap_pair()
    blocks = [x1 - x2, x1**2 - x2**2]
    rhs = x2**3 - x1**3
    outcome = solve_stacked(blocks, rhs)
    assert outcome.consistent
    a1, a2 = outcome.particular
    assert a1 == Matrix.from_rows(QQ, [[0, 0], [0, -1]])
    assert not a2
    assert a1 * blocks[0] + a2 * blocks[1] == rhs
    assert outcome.nullspace_dim == 4


def test_solve_stacked_inconsistent_for_zero_column_pair():
    x1, x2 = zero_column_pair()
    blocks = [x1 - x2, x1**2 - x2**2]
    outcome = solve_stacked(blocks, x2**3 - x1**3)
    assert not outcome.consistent
    assert outcome.particular is None


def test_solve_stacked_single_identity_block():
    rng = random.Random(12)
    b = rand_matrix(rng, QQ, 2)
    outcome = solve_stacked([Matrix.identity(QQ, 2)], b)
    assert outcome.consistent
    assert outcome.particular == (b,)
    assert outcome.nullspace_dim == 0


def test_solve_stacked_resubstitution_on_random_inputs():
    rng = random.Random(13)
    consistent_seen = 0
    for _ in range(150):
        field = rng.choice([QQ, F2])
        k = rng.randint(1, 3)
        nblocks = rng.randint(1, 3)
        blocks = [rand_matrix(rng, field, k) for _ in range(nblocks)]
        rhs = rand_matrix(rng, field, k)
        outcome = solve_stacked(blocks, rhs)
        if not outcome.consistent:
            continue
        consistent_seen += 1
        total = Matrix.zeros(field, k, k)
        for x, blk in zip(outcome.particular, blocks):
            total = total + x * blk
        assert total == rhs
    assert consistent_seen > 30


def test_matrix_inverse():
    assert matrix_inverse(Matrix.from_rows(QQ, [[1, -1], [-1, 1]])) is None
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    inv = matrix_inverse(m)
    assert inv * m == Matrix.identity(QQ, 2)
    assert m * inv == Matrix.identity(QQ, 2)
    with pytest.raises(MismatchError):
        matrix_inverse(Matrix.from_rows(QQ, [[1, 2]]))
