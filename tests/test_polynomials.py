"""Left-coefficient polynomial arithmetic, right evaluation, right division."""

import random

import pytest

from ringroots import (
    DomainError,
    MismatchError,
    Polynomial,
    Quaternion,
    ScalarRing,
)

from helpers import (
    F7,
    HH,
    M2Q,
    M3Q,
    QI,
    QJ,
    QK,
    QQ,
    RAT,
    nilpotent_shift_pair,
    rand_element,
    rand_polynomial,
)

RINGS = [HH, M2Q, ScalarRing(F7)]


def quad_plus_one(ring=HH):
    return Polynomial.from_coefficients(ring, [ring.one, ring.zero, ring.one])


def test_addition_cancels_and_renormalizes():
    p = Polynomial.from_coefficients(RAT, [1, 0, 1])  # x^2 + 1
    q = Polynomial.from_coefficients(RAT, [0, 0, -1])  # -x^2
    assert (p + q) == Polynomial.from_coefficients(RAT, [1])
    assert (p + q).degree() == 0


def test_additive_identity():
    rng = random.Random(0)
    for ring in RINGS:
        p = rand_polynomial(rng, ring)
        assert p + Polynomial.zero(ring) == p


def test_quaternion_linear_sum():
    p = Polynomial.x_minus(HH, QI) + Polynomial.x_minus(HH, QJ)
    assert p == Polynomial.from_coefficients(HH, [-(QI + QJ), Quaternion(2)])


def test_ordered_product_of_linear_factors():
    # (x - i)(x - j): the constant term is (-i)(-j) = ij = k
    p = Polynomial.x_minus(HH, QI) * Polynomial.x_minus(HH, QJ)
    assert p == Polynomial.from_coefficients(HH, [QK, -(QI + QJ), HH.one])
    # the opposite order gives the other mixed product
    q = Polynomial.x_minus(HH, QJ) * Polynomial.x_minus(HH, QI)
    assert q == Polynomial.from_coefficients(HH, [-QK, -(QI + QJ), HH.one])


def test_product_with_conjugate_factor():
    p = Polynomial.x_minus(HH, -QI) * Polynomial.x_minus(HH, QI)
    assert p == quad_plus_one()
    assert HH.is_zero(p.evaluate(QI))
    assert HH.is_zero(p.evaluate(QJ))


def test_multiplicative_identity():
    rng = random.Random(1)
    for ring in RINGS:
        p = rand_polynomial(rng, ring)
        one = Polynomial.from_coefficients(ring, [ring.one])
        assert p * one == p
        assert one * p == p


def test_evaluation_of_pure_units():
    p = quad_plus_one()
    assert HH.is_zero(p.evaluate(QI))
    assert HH.is_zero(p.evaluate(QJ))


def test_left_factor_root_is_not_automatically_a_root():
    # p = (x - i)(x - j) kills j (right factor) but not i: p(i) = 2k
    p = Polynomial.x_minus(HH, QI) * Polynomial.x_minus(HH, QJ)
    assert HH.is_zero(p.evaluate(QJ))
    assert p.evaluate(QI) == 2 * QK


def test_square_kills_nilpotent():
    x1, _ = nilpotent_shift_pair()
    p = Polynomial.from_coefficients(M2Q, [M2Q.zero, M2Q.zero, M2Q.one])
    assert M2Q.is_zero(p.evaluate(x1))


def test_horner_equals_literal_power_sum():
    # guards the one likely misplaced-side bug: coefficients go on the
    # LEFT of the powers of the point
    rng = random.Random(2)
    for ring in RINGS:
        for _ in range(200):
            p = rand_polynomial(rng, ring, max_degree=4, nonzero=False)
            a = rand_element(rng, ring)
            literal = ring.zero
            for c, power in zip(p.coeffs, ring.powers(a, len(p.coeffs))):
                literal = literal + c * power
            assert p.evaluate(a) == literal


def test_right_division_by_linear_factor():
    p = quad_plus_one()
    quotient, remainder = p.divmod_linear(QI)
    assert quotient == Polynomial.from_coefficients(HH, [QI, HH.one])
    assert HH.is_zero(remainder)


def test_division_of_factor_by_itself():
    rng = random.Random(3)
    for ring in RINGS:
        a = rand_element(rng, ring)
        quotient, remainder = Polynomial.x_minus(ring, a).divmod_linear(a)
        assert quotient == Polynomial.from_coefficients(ring, [ring.one])
        assert ring.is_zero(remainder)


def test_nilpotent_root_divides_square():
    x1, _ = nilpotent_shift_pair()
    p = Polynomial.from_coefficients(M2Q, [M2Q.zero, M2Q.zero, M2Q.one])
    quotient, remainder = p.divmod_linear(x1)
    assert M2Q.is_zero(remainder)
    assert quotient * Polynomial.x_minus(M2Q, x1) == p


def test_zero_polynomial_division_rejected():
    with pytest.raises(DomainError):
        Polynomial.zero(HH).divmod_linear(QI)


def test_constant_division():
    q, r = Polynomial.from_coefficients(RAT, [5]).divmod_linear(QQ.element(2))
    assert q.is_zero()
    assert r == QQ.element(5)


def test_roots_reconstruct_the_polynomial():
    rng = random.Random(5)
    rebuilt = 0
    for _ in range(400):
        p = rand_polynomial(rng, HH, max_degree=3)
        a = rand_element(rng, HH)
        if not HH.is_zero(p.evaluate(a)):
            continue
        quotient, remainder = p.divmod_linear(a)
        assert HH.is_zero(remainder)
        assert quotient * Polynomial.x_minus(HH, a) == p
        rebuilt += 1
    # random roots are rare; force a few by construction
    for _ in range(50):
        factor = rand_polynomial(rng, HH, max_degree=2)
        a = rand_element(rng, HH)
        p = factor * Polynomial.x_minus(HH, a)
        if p.is_zero():
            continue
        quotient, remainder = p.divmod_linear(a)
        assert HH.is_zero(remainder)
        assert quotient * Polynomial.x_minus(HH, a) == p
        rebuilt += 1
    assert rebuilt >= 50


def test_degree_rules():
    assert quad_plus_one().degree() == 2
    assert Polynomial.zero(HH).degree() is None
    assert Polynomial.from_coefficients(RAT, [5]).degree() == 0
    assert Polynomial(RAT, (RAT.zero, RAT.one)).degree() == 1


def test_degree_of_product_adds_when_leading_product_is_nonzero():
    rng = random.Random(6)
    for _ in range(200):
        p = rand_polynomial(rng, HH, max_degree=3)
        q = rand_polynomial(rng, HH, max_degree=3)
        # quaternions form a division ring: no degree drop, ever
        assert (p * q).degree() == p.degree() + q.degree()
    for _ in range(200):
        p = rand_polynomial(rng, M2Q, max_degree=3)
        q = rand_polynomial(rng, M2Q, max_degree=3)
        if M2Q.is_zero(p.coeffs[-1] * q.coeffs[-1]):
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_degree_can_drop_over_a_matrix_ring():
    # nilpotent leading coefficients: (e*x + 1)^2 = 2e*x + 1
    e = M2Q.element([[0, 1], [0, 0]])
    p = Polynomial.from_coefficients(M2Q, [M2Q.one, e])
    square = p * p
    assert square.degree() == 1
    assert square == Polynomial.from_coefficients(M2Q, [M2Q.one, e + e])


def test_polynomial_ring_mismatch_rejected():
    p = rand_polynomial(random.Random(8), HH)
    q = rand_polynomial(random.Random(8), M2Q)
    with pytest.raises(MismatchError):
        p + q
    with pytest.raises(MismatchError):
        p * q
    with pytest.raises(MismatchError):
        p.evaluate(M2Q.one)


def test_constructor_rejects_a_foreign_coefficient():
    # the constructor is the one boundary: every coefficient is checked
    # against the ring, whoever builds the polynomial
    for ring, foreign in ((HH, M2Q.one), (M2Q, M3Q.one), (M2Q, QI),
                          (ScalarRing(F7), QQ.one), (RAT, F7.one)):
        with pytest.raises(MismatchError):
            Polynomial(ring, [foreign])
        with pytest.raises(MismatchError):
            Polynomial(ring, [ring.zero, foreign, ring.one])


def test_mul_is_associative_and_distributive():
    rng = random.Random(9)
    for ring in RINGS:
        for _ in range(60):
            p = rand_polynomial(rng, ring, max_degree=2, nonzero=False)
            q = rand_polynomial(rng, ring, max_degree=2, nonzero=False)
            r = rand_polynomial(rng, ring, max_degree=2, nonzero=False)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) * r == p * r + q * r


def test_json_round_trip():
    rng = random.Random(10)
    for ring in RINGS:
        p = rand_polynomial(rng, ring, max_degree=3)
        again = Polynomial.from_json(p.to_json())
        assert again == p
        assert again.ring == ring
    obj = {"ring": {"kind": "quaternion"}, "coefficients": [["1", "0", "0", "0"], ["0", "0", "0", "0"]]}
    assert Polynomial.from_json(obj) == Polynomial.from_coefficients(HH, [HH.one])  # zero trimmed
