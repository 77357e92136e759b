"""Exact matrix arithmetic and shape discipline."""

import random
from fractions import Fraction

import pytest

from ringroots import (
    Matrix,
    MatrixRing,
    MismatchError,
    ParseError,
    Polynomial,
    PrimeField,
    PrimeFieldElement,
    Ring,
)

from helpers import (
    F2,
    F3,
    F7,
    M2Q,
    QQ,
    nilpotent_shift_pair,
    rand_matrix,
    rank_gap_pair,
    side_by_side,
)


def test_nilpotent_square_is_zero():
    x1, _ = nilpotent_shift_pair()
    assert not x1 * x1
    assert (x1 * x1) == Matrix.zeros(QQ, 2, 2)


def test_identity_and_additive_inverse():
    rng = random.Random(0)
    m = rand_matrix(rng, QQ, 3)
    eye = Matrix.identity(QQ, 3)
    assert eye * m == m
    assert m * eye == m
    assert not (m + (-m))


def test_cube_returns_to_base_for_rank_gap_root():
    x1, _ = rank_gap_pair()
    assert M2Q.powers(x1, 3)[3] == x1


def test_power_zero_is_identity():
    rng = random.Random(1)
    m = rand_matrix(rng, QQ, 2)
    assert M2Q.powers(m, 0)[0] == Matrix.identity(QQ, 2)


def test_shape_and_field_mismatches_are_hard_errors():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[1, 2, 3]])
    c = Matrix.from_rows(F2, [[1, 0], [0, 1]])
    with pytest.raises(MismatchError):
        a + b
    with pytest.raises(MismatchError):
        b * b
    with pytest.raises(MismatchError):
        a + c
    with pytest.raises(MismatchError):
        a * c
    with pytest.raises(MismatchError):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def test_transpose():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[5, 6], [7, 8]])
    assert a.transpose().transpose() == a
    assert a.transpose().entries[0] == a.entries[0][:1] + a.entries[1][:1]
    assert side_by_side(a, b).transpose().entries[3] == b.transpose().entries[1]
    wide = Matrix.from_rows(QQ, [[1, 2, 3]])
    assert wide.transpose().entries == ((1,), (2,), (3,))


def test_rectangular_product_shapes():
    a = Matrix.from_rows(QQ, [[1, 2, 3]])
    b = Matrix.from_rows(QQ, [[1], [1], [1]])
    assert (a * b).entries[0][0] == 6
    assert (b * a).nrows == 3


def test_json_round_trip_both_fields():
    m = Matrix.from_rows(QQ, [["1/2", -1], [0, "7/3"]])
    assert Matrix.from_json(QQ, m.to_json()) == m
    f = Matrix.from_rows(F2, [[1, 0], [1, 1]])
    assert f.to_json() == [[1, 0], [1, 1]]
    assert Matrix.from_json(F2, f.to_json()) == f
    with pytest.raises(ParseError):
        Matrix.from_json(QQ, [[1, 2], [3]])
    with pytest.raises(ParseError):
        Matrix.from_json(QQ, "nope")


def test_entry_access():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.entries[1][0] == 3
    assert m.entries[0] == (QQ.element(1), QQ.element(2))
    assert m.transpose().entries[1] == (QQ.element(2), QQ.element(4))


def _literal_product(a, b):
    """The product as a sum of PrimeFieldElement products, entry by entry."""
    ea, eb = a.entries, b.entries
    return [
        [sum((ea[i][l] * eb[l][j] for l in range(a.ncols)), PrimeFieldElement(0, a.field.p))
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def _assert_valid(field, m):
    assert all(field.contains(e) for row in m.entries for e in row)


def test_prime_field_products_match_elementwise_reference():
    rng = random.Random(20)
    for field in (F2, F3, F7):
        for k in range(1, 5):
            for shape in [(k, k, k), (k, rng.randint(1, 4), rng.randint(1, 4))]:
                rows, inner, cols = shape
                a = rand_matrix(rng, field, rows, inner)
                b = rand_matrix(rng, field, inner, cols)
                c = rand_matrix(rng, field, rows, inner)
                product = a * b
                assert [list(r) for r in product.entries] == _literal_product(a, b)
                internal = (product, a + c, a - c, -a, a.transpose(), side_by_side(a, c),
                            Matrix.identity(field, k))
                for m in internal:
                    _assert_valid(field, m)
                if rows != inner:
                    with pytest.raises(MismatchError):
                        a * c
    with pytest.raises(MismatchError):
        rand_matrix(rng, F3, 2) * rand_matrix(rng, F7, 2)
    with pytest.raises(MismatchError):
        rand_matrix(rng, F3, 2) + rand_matrix(rng, F7, 2)


def _fraction_dot(row, col):
    """Reference: a literal copy of the Fraction dot product that
    RationalField.matmul used before its common-denominator products."""
    acc = None
    for a, b in zip(row, col):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def test_rational_products_match_fraction_dot_reference():
    rng = random.Random(21)
    big = 10**39 + 7  # 40 digits
    pool = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 4),
            Fraction(5, 6), Fraction(-7, 6), Fraction(big), Fraction(-big, 3),
            Fraction(1, big), Fraction(-(10**40 - 3), big)]
    grids = [lambda r, c: [[Fraction(0)] * c for _ in range(r)],
             lambda r, c: [[Fraction(rng.randint(-9, 9), 6) for _ in range(c)] for _ in range(r)],
             lambda r, c: [[rng.choice(pool) for _ in range(c)] for _ in range(r)]]
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
        for make_a in grids:
            for make_b in grids:
                a = Matrix.from_rows(QQ, make_a(rows, inner))
                b = Matrix.from_rows(QQ, make_b(inner, cols))
                product = (a * b).entries
                expected = tuple(tuple(_fraction_dot(row, col) for col in zip(*b.entries))
                                 for row in a.entries)
                assert product == expected
                assert all(type(e) is Fraction for row in product for e in row)
                assert [[str(e) for e in row] for row in product] == \
                    [[str(e) for e in row] for row in expected]


def test_boundary_rejects_invalid_entries():
    with pytest.raises(MismatchError):
        Matrix(F2, [[1]])
    with pytest.raises(MismatchError):
        Matrix(F2, [[PrimeFieldElement(1, 3)]])
    with pytest.raises(MismatchError):
        Matrix(F2, [[F2.one, F2.zero], [F2.one]])
    with pytest.raises(MismatchError):
        Matrix(QQ, [])
    with pytest.raises(MismatchError):
        Matrix.zeros(QQ, 0, 2)
    with pytest.raises(MismatchError):
        Matrix.identity(F2, 0)
    with pytest.raises(MismatchError):
        Matrix.from_rows(F2, [[PrimeFieldElement(1, 3)]])
    with pytest.raises(ParseError):
        Matrix.from_json(QQ, [[1, 2], [3]])


@pytest.mark.parametrize("k, p", [
    *[pytest.param(6, p, id=str(p)) for p in (2, 65521, 3317044064679887385961813)],
    *[pytest.param(2, p, id=f"k2-{p}") for p in (3, 3317044064679887385961813)],
])
def test_prime_field_horner_matches_the_operator_loop_at_degree_64(k, p):
    # The int kernel reduces its accumulator mod p only every few steps
    # (at k = 6 every 16th at p = 2, every step at the 25-digit p, and the
    # last steps at 65521 stay unreduced before the final normalisation;
    # at k = 2, in its written-out step, every 21st at p = 3 and every
    # step at the 25-digit p); the value must be the operator loop's,
    # payload for payload.
    field = PrimeField(p)
    ring = MatrixRing(k, field)
    rng = random.Random(p)
    poly = Polynomial(ring, [rand_matrix(rng, field, k) for _ in range(64)] + [ring.one])
    for _ in range(3):
        x = rand_matrix(rng, field, k)
        value = poly.evaluate(x)
        assert value == Ring._values(ring, poly.coeffs, (x,))[0]
        assert value._den == 1 and all(0 <= a < p for row in value._rows for a in row)
