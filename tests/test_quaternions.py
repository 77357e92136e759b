"""Rational quaternion arithmetic."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from ringroots import ParseError, Quaternion

from helpers import HH, QI, QJ, QK, rand_quaternion


def test_defining_relations():
    minus_one = Quaternion(-1)
    assert QI * QI == minus_one
    assert QJ * QJ == minus_one
    assert QK * QK == minus_one
    assert QI * QJ == QK
    assert QJ * QI == -QK
    assert QJ * QK == QI
    assert QK * QJ == -QI
    assert QK * QI == QJ
    assert QI * QK == -QJ


def test_componentwise_addition():
    assert (Quaternion(1, 1) + Quaternion(1, 0, 1)) == Quaternion(2, 1, 1)


def test_inverse_is_conjugate_over_norm():
    q = Quaternion(1, 1, 1, 1)
    expected = Quaternion("1/4", "-1/4", "-1/4", "-1/4")
    assert q.norm() == 4
    assert q.inverse() == expected
    assert q * q.inverse() == Quaternion(1)
    assert q.inverse() * q == Quaternion(1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()
    assert not Quaternion()
    assert Quaternion(0, 0, "1/3", 0)


def test_norm_is_multiplicative():
    rng = random.Random(3)
    for _ in range(300):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        assert (p * q).norm() == p.norm() * q.norm()


def test_inverse_round_trip_on_random_units():
    rng = random.Random(4)
    checked = 0
    for _ in range(400):
        if checked == 200:
            break
        q = rand_quaternion(rng)
        if not q:
            continue
        assert q * q.inverse() == Quaternion(1)
        assert q.inverse() * q == Quaternion(1)
        checked += 1
    assert checked == 200


def test_power_and_scalar_interop():
    assert HH.powers(QI, 2)[2] == Quaternion(-1)
    assert HH.powers(QI, 0)[0] == Quaternion(1)
    assert 2 * QJ == Quaternion(0, 0, 2)
    assert QJ * Fraction(1, 2) == Quaternion(0, 0, "1/2")
    assert 1 + QI == Quaternion(1, 1)


def test_json_round_trip():
    q = Quaternion("1/2", -3, 0, "7/5")
    assert Quaternion.from_json(q.to_json()) == q
    assert q.to_json() == ["1/2", "-3", "0", "7/5"]
    with pytest.raises(ParseError):
        Quaternion.from_json(["1", "2", "3"])
    with pytest.raises(ParseError):
        Quaternion.from_json("1+i")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs an int/str digit limit below 5000")
def test_exponent_components_obey_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for literal in ("1e5000", "1e-5000"):
        with pytest.raises(ParseError, match=str(limit)):
            Quaternion(0, literal)
        with pytest.raises(ParseError, match=str(limit)):
            Quaternion.from_json(["1", "0", literal, "0"])
    assert Quaternion(f"1e-{limit - 1}").a == Fraction(1, 10 ** (limit - 1))


class _FractionQuaternion:
    """Reference kernel: a literal copy of the Fraction-component
    arithmetic the four-ints-over-one-denominator representation
    replaced (old __add__, __sub__, __mul__, conjugate, norm, inverse)."""

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    def __add__(self, other):
        return _FractionQuaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return _FractionQuaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return _FractionQuaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conjugate(self):
        return _FractionQuaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self):
        return self.a**2 + self.b**2 + self.c**2 + self.d**2

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 has no quaternion inverse")
        conj = self.conjugate()
        return _FractionQuaternion(conj.a / n, conj.b / n, conj.c / n, conj.d / n)

    def parts(self):
        return (self.a, self.b, self.c, self.d)


_BIG = 10**39 + 7  # 40 digits
_COMPONENTS = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-3, 4),
    Fraction(5, 6), Fraction(-7, 6), Fraction(1, 6),  # shared denominators
    Fraction(_BIG), Fraction(-_BIG, 3), Fraction(1, _BIG), Fraction(-(10**40 - 3), _BIG),
]


def _sweep_pairs():
    rng = random.Random(11)
    shared = [Fraction(n, 6) for n in (-5, 1, 0, 7)]
    fixed = [[0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0], shared, [-x for x in shared],
             [_BIG, -_BIG, Fraction(1, _BIG), 0]]
    pool = fixed + [[rng.choice(_COMPONENTS) for _ in range(4)] for _ in range(40)]
    for p in pool:
        for q in (rng.choice(pool) for _ in range(6)):
            yield p, q
    for p in fixed:
        for q in fixed:
            yield p, q


def _assert_canonical(q):
    assert all(type(v) is int for v in q._n) and type(q._den) is int
    assert q._den > 0
    assert gcd(*q._n, q._den) == 1


def _assert_matches(q, ref):
    _assert_canonical(q)
    assert (q.a, q.b, q.c, q.d) == ref.parts()
    assert q.to_json() == [str(v) for v in ref.parts()]


def test_int_kernel_matches_fraction_reference():
    for p_parts, q_parts in _sweep_pairs():
        p, q = Quaternion(*p_parts), Quaternion(*q_parts)
        rp, rq = _FractionQuaternion(*p_parts), _FractionQuaternion(*q_parts)
        _assert_matches(p, rp)
        _assert_matches(p + q, rp + rq)
        _assert_matches(p - q, rp - rq)
        _assert_matches(p * q, rp * rq)
        _assert_matches(-p, _FractionQuaternion() - rp)
        _assert_matches(p.conjugate(), rp.conjugate())
        assert p.norm() == rp.norm()
        if p:
            _assert_matches(p.inverse(), rp.inverse())
        for scalar in (q_parts[0], Fraction(q_parts[1]).numerator):
            rs = _FractionQuaternion(scalar)
            _assert_matches(p * scalar, rp * rs)
            _assert_matches(scalar * p, rs * rp)
            _assert_matches(p + scalar, rp + rs)
            _assert_matches(scalar - p, rs - rp)


def test_equal_values_have_one_representation():
    assert Quaternion("2/4") == Quaternion(Fraction(1, 2))
    assert hash(Quaternion("2/4")) == hash(Quaternion(Fraction(1, 2)))
    q = Quaternion("2/4", "-6/8", 0, 3)
    assert (q._n, q._den) == ((2, -3, 0, 12), 4)
    zero = Quaternion(0, "0/5")
    assert (zero._n, zero._den) == ((0, 0, 0, 0), 1)
    third = Quaternion("1/3", 0, "2/3")
    assert third + third + third == Quaternion(1, 0, 2)
    assert hash(third + third + third) == hash(Quaternion(1, 0, 2))
    assert {Quaternion("1/2"): 1}[Quaternion(1) * Fraction(1, 2)] == 1
    with pytest.raises(AttributeError):
        third.a = Fraction(1)
