"""The one elimination, `_fraction_free_rref`, rank, and the stacked
solver `_solve_blocks` that runs it.

The elimination is checked against the element-wise `reference_rref`.
The solver gets cross-checked four independent ways: re-substitution of
every particular solution, the stacked-rows rank formulation, (over
small prime fields) literal enumeration of all candidate solutions, and
the element-wise `_reference_stacked_solve`.  The last two cover every
input of the k = 2 closed form over F_2 and F_3, and 40-digit inputs of
each rank and sign over Q.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from ringroots import (
    Matrix,
    MatrixRing,
    MismatchError,
    PrimeField,
    rank,
)
from ringroots.linalg import _solve_blocks

from helpers import (
    F2,
    F3,
    F7,
    M2Q,
    M3Q,
    QQ,
    _reference_invert,
    _reference_stacked_solve,
    assert_kernel_matches_reference,
    involution_pair,
    rand_matrix,
    rank_gap_pair,
    zero_column_pair,
)


def _solve(blocks, rhs):
    """sum_j X_j * A_j = B through `_solve_blocks`: the blocks' numerator
    columns over one common denominator, so every unknown block has 1."""
    den = lcm(*(m._den for m in (*blocks, rhs)))
    columns = [[[a * (den // m._den) for a in col] for col in zip(*m._rows)]
               for m in (*blocks, rhs)]
    return _solve_blocks(rhs.field, columns, (1,) * len(blocks))


def enumerate_m2(field):
    """Every element of M_2(F_p), p = field.p."""
    return [Matrix.from_rows(field, [e[:2], e[2:]])
            for e in itertools.product(range(field.p), repeat=4)]


def assert_matches_reference(outcome, a, b):
    """The outcome of X*a = b against the element-wise
    `_reference_stacked_solve`: consistency, both ranks, the dimension
    and the particular matrix.  With one unknown block every pivot left
    of the bar is in it, so `rank_first` is the rank."""
    consistent, particular, dim, rk, rank_augmented = _reference_stacked_solve((a,), b)
    assert (outcome.consistent, outcome.rank, outcome.rank_augmented, outcome.nullspace_dim,
            outcome.rank_first) == (consistent, rk, rank_augmented, dim, rk)
    assert outcome.particular == particular


def _big(rng):
    return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))


def _m2q_case(rng, rank_a):
    """(a, b) in M_2(Q) with 40-digit entries and rank(a) = rank_a; b is
    consistent with a (X*a = b solvable) in about half the cases.  A
    rank-one a = u v^T has a zero in u or v a third of the time each, so
    the pivot (the first nonzero entry of a's first nonzero row, C being
    a^T) moves between rows and columns."""
    v = [_big(rng), _big(rng)]
    if rank_a == 0:
        a = [[0, 0], [0, 0]]
    elif rank_a == 1:
        u = [_big(rng), _big(rng)]
        zeroed = rng.choice([None, u, v])
        if zeroed is not None:
            zeroed[rng.randrange(2)] = 0
        a = [[x * y for y in v] for x in u]
    else:
        a = [[_big(rng), _big(rng)], [_big(rng), _big(rng)]]
    if rng.random() < 0.5:  # the rows of b in the row space of a
        x = [[_big(rng), _big(rng)], [_big(rng), _big(rng)]]
        b = [[sum(x[i][t] * a[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    else:
        b = [[_big(rng), _big(rng)], [_big(rng), _big(rng)]]
    return Matrix.from_rows(QQ, a), Matrix.from_rows(QQ, b)


def test_rref_rank_of_singular_difference():
    x1, x2 = involution_pair()
    assert rank(x1 - x2) == 1


def test_rref_identity_full_rank():
    for k in (1, 2, 3, 4):
        rows, rk, pivots = assert_kernel_matches_reference(Matrix.identity(QQ, k))
        assert rk == k
        assert pivots == tuple(range(k))
        assert rows == Matrix.identity(QQ, k).entries


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
    field, e = m.field, m.entries
    last = -1
    for row_idx, col in enumerate(pivots):
        if col <= last:
            return False
        last = col
        if e[row_idx][col] != field.one:
            return False
        for r in range(m.nrows):
            if r != row_idx and e[r][col]:
                return False
        for c in range(col):
            if e[row_idx][c]:
                return False
    for r in range(len(pivots), m.nrows):
        if any(e[r][c] for c in range(m.ncols)):
            return False
    return True


def test_rref_shape_conditions_hold_on_random_matrices():
    rng = random.Random(5)
    for _ in range(100):
        field = rng.choice([QQ, F2, F3])
        m = rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
        rows, _, pivots = assert_kernel_matches_reference(m)
        assert _is_rref(Matrix(m.field, rows), pivots)


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
    # element-wise Gauss-Jordan it replaced: same pivot rule, so the pivot
    # columns, and each pivot row over its pivot, must be identical.
    rng = random.Random(f"rref/{field!r}")
    ranks = set()
    for _ in range(250):
        m = _rref_case(rng, field)
        _, rk, _ = assert_kernel_matches_reference(m)
        assert rk == rank(m)
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
    outcome = _solve((a,), b)
    assert outcome.consistent
    assert outcome.particular == (Matrix.from_rows(QQ, [[0, 0], [0, -1]]),)
    assert outcome.particular[0] * a == b
    assert outcome.nullspace_dim == 2


def test_solve_xa_identity_coefficient():
    rng = random.Random(8)
    b = rand_matrix(rng, QQ, 3)
    outcome = _solve((Matrix.identity(QQ, 3),), b)
    assert outcome.consistent
    assert outcome.particular == (b,)
    assert outcome.nullspace_dim == 0


def test_solve_xa_inconsistent_system():
    a = Matrix.from_rows(QQ, [[0, 0], [1, -2]])
    b = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    outcome = _solve((a,), b)
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


def test_consistency_matches_stacked_rank_formulation():
    # X*a = b is solvable iff stacking b's rows under a's leaves the rank
    rng = random.Random(9)
    seen = {True: 0, False: 0}
    cases = [(rand_matrix(rng, field, k), rand_matrix(rng, field, k))
             for field, k in ((rng.choice([QQ, F2, F3]), rng.randint(1, 3)) for _ in range(300))]
    # M_2(Q) with 40-digit entries, a of rank 0, 1 and 2, checked against
    # the element-wise reference too: the k = 2 solve reads these off
    # det(a), and over Q a negative det(a) or rank-one pivot must leave
    # a positive denominator.
    kinds = set()
    for i in range(600):
        a, b = _m2q_case(rng, i % 3)
        e = a.entries
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        pivot = next((x for row in e for x in row if x), 0)
        outcome = _solve((a,), b)
        assert_matches_reference(outcome, a, b)
        kinds.add((i % 3, (det if i % 3 == 2 else pivot) < 0, outcome.consistent))
        cases.append((a, b))
    assert kinds == {(r, neg, ok) for r in (0, 1, 2) for neg in (r > 0, False)
                     for ok in (True, r == 2)}
    for a, b in cases:
        field = a.field
        outcome = _solve((a,), b)
        assert outcome.consistent == (rank(Matrix(field, a.entries + b.entries)) == rank(a))
        if outcome.consistent:
            assert outcome.particular[0] * a == b
        seen[outcome.consistent] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_solution_count_is_p_to_the_dim_over_f2():
    # every pair (a, b) of M_2(F_2), and of M_2(F_3): the count of X with
    # X*a = b pins the dimension bookkeeping, and the element-wise
    # reference every other part of the outcome.  These are all the
    # inputs of the k = 2 solve over these fields, ranks 0, 1 and 2.
    for field in (F2, F3):
        all_ms = enumerate_m2(field)
        products = {a: Counter(x * a for x in all_ms) for a in all_ms}
        consistent_seen = 0
        for a in all_ms:
            for b in all_ms:
                outcome = _solve((a,), b)
                assert_matches_reference(outcome, a, b)
                # the same system on ints off their residues by +-p: the
                # solver takes them mod p itself
                shifted = [[[e + (-1) ** (i + j) * field.p for j, e in enumerate(col)]
                            for i, col in enumerate(zip(*m._rows))] for m in (a, b)]
                assert _solve_blocks(field, shifted, (1,)) == outcome
                if outcome.consistent:
                    consistent_seen += 1
                    assert products[a][b] == field.p**outcome.nullspace_dim
                else:
                    assert products[a][b] == 0
        assert consistent_seen > 10


def test_solve_stacked_cubic_system():
    # the joint system behind the rank-gap pair's cubic annihilator
    x1, x2 = rank_gap_pair()
    p1, p2 = M2Q.powers(x1, 3), M2Q.powers(x2, 3)
    blocks = [x1 - x2, p1[2] - p2[2]]
    rhs = p2[3] - p1[3]
    outcome = _solve(blocks, rhs)
    assert outcome.consistent
    a1, a2 = outcome.particular
    assert a1 == Matrix.from_rows(QQ, [[0, 0], [0, -1]])
    assert not a2
    assert a1 * blocks[0] + a2 * blocks[1] == rhs
    assert outcome.nullspace_dim == 4


def test_solve_stacked_inconsistent_for_zero_column_pair():
    x1, x2 = zero_column_pair()
    p1, p2 = M3Q.powers(x1, 3), M3Q.powers(x2, 3)
    blocks = [x1 - x2, p1[2] - p2[2]]
    outcome = _solve(blocks, p2[3] - p1[3])
    assert not outcome.consistent
    assert outcome.particular is None


def test_solve_stacked_single_identity_block():
    rng = random.Random(12)
    b = rand_matrix(rng, QQ, 2)
    outcome = _solve([Matrix.identity(QQ, 2)], b)
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
        outcome = _solve(blocks, rhs)
        if not outcome.consistent:
            continue
        consistent_seen += 1
        total = Matrix.zeros(field, k, k)
        for x, blk in zip(outcome.particular, blocks):
            total = total + x * blk
        assert total == rhs
    assert consistent_seen > 30


def test_matrix_inverse():
    assert M2Q.invert(Matrix.from_rows(QQ, [[1, -1], [-1, 1]])) is None
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    inv = M2Q.invert(m)
    assert inv * m == Matrix.identity(QQ, 2)
    assert m * inv == Matrix.identity(QQ, 2)
    with pytest.raises(MismatchError):
        M2Q.invert(Matrix.from_rows(QQ, [[1, 2]]))
    # every element of M_2(F_2) and M_2(F_3), and 40-digit M_2(Q)
    # elements of rank 1 and 2, against the element-wise reference
    rng = random.Random(11)
    for ring, ms in ((MatrixRing(2, F2), enumerate_m2(F2)), (MatrixRing(2, F3), enumerate_m2(F3)),
                     (M2Q, [_m2q_case(rng, 1 + i % 2)[0] for i in range(100)])):
        for a in ms:
            assert ring.invert(a) == _reference_invert(ring, a)
