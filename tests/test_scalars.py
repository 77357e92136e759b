"""Scalar fields: rationals and prime-field residues."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ringroots
from ringroots import (
    DomainError,
    MismatchError,
    ParseError,
    PrimeField,
    PrimeFieldElement,
    field_from_json,
)
from ringroots.scalars import MAX_MODULUS, is_prime

from helpers import F2, F7, QQ

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ringroots.__file__)))


def test_rational_addition_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rational_normalization_is_canonical():
    # any (p, q) with q != 0 reduces to the positive-denominator form
    assert Fraction(2, -4) == Fraction(-1, 2)
    assert Fraction(2, -4).denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)
    random.seed(7)
    for _ in range(200):
        p = random.randint(-50, 50)
        q = random.choice([n for n in range(-20, 21) if n])
        f = Fraction(p, q)
        assert f.denominator > 0
        assert Fraction(f.numerator, f.denominator) == f


def test_rational_field_element_coercions():
    assert QQ.element("3/5") == Fraction(3, 5)
    assert QQ.element(-2) == Fraction(-2)
    assert QQ.element(Fraction(1, 4)) == Fraction(1, 4)
    with pytest.raises(ParseError):
        QQ.element("not a number")
    with pytest.raises(ParseError):
        QQ.element("1/0")
    with pytest.raises(ParseError):
        QQ.element(0.5)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs an int/str digit limit below 5000")
def test_exponent_literals_obey_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for literal in ("1e5000", "1e-5000", "0e5000", f"1e{limit}", f"0.1e-{limit}"):
        with pytest.raises(ParseError, match=str(limit)):
            QQ.element(literal)
    assert QQ.element(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert QQ.element(f"-1e-{limit - 1}") == Fraction(-1, 10 ** (limit - 1))
    assert QQ.element(f"2.5e{limit - 2}") == 25 * 10 ** (limit - 3)


def test_rational_json_format():
    assert QQ.scalar_to_json(Fraction(5, 6)) == "5/6"
    assert QQ.scalar_to_json(Fraction(3)) == "3"
    assert QQ.element("5/6") == Fraction(5, 6)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(DomainError):
        PrimeField(4)
    with pytest.raises(DomainError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(65521)


def test_prime_field_arithmetic_closed():
    random.seed(11)
    for _ in range(300):
        a = PrimeFieldElement(random.randrange(100), 7)
        b = PrimeFieldElement(random.randrange(100), 7)
        for value in (a + b, a - b, a * b, -a, a * a * a):
            assert 0 <= value.residue < 7


def test_prime_field_inverse():
    for r in range(1, 7):
        x = PrimeFieldElement(r, 7)
        assert (x * x.inverse()).residue == 1
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(0, 7).inverse()
    assert F7.invert(F7.zero) is None
    assert F7.invert(F7.element(3)) == F7.element(5)


def test_prime_field_division():
    a = F7.element(3)
    b = F7.element(4)
    assert (a * b.inverse()) * b == a


def test_mixed_moduli_rejected():
    with pytest.raises(MismatchError):
        PrimeFieldElement(1, 7) + PrimeFieldElement(1, 5)
    with pytest.raises(MismatchError):
        F7.element(PrimeFieldElement(1, 5))


def test_prime_field_json_format():
    assert F2.scalar_to_json(F2.element(1)) == 1
    assert F2.element(5) == F2.element(1)


def test_field_descriptor_round_trip():
    for field in (QQ, F2, F7):
        assert field_from_json(field.to_json()) == field
    with pytest.raises(ParseError):
        field_from_json({"kind": "galois"})
    with pytest.raises(ParseError):
        field_from_json({"kind": "prime"})
    with pytest.raises(DomainError):
        field_from_json({"kind": "prime", "p": 6})


def _trial_division_is_prime(n):
    """Reference: the trial-division test Miller-Rabin replaced."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == \
        [n for n in range(-3, 10**5) if _trial_division_is_prime(n)]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to every prime base up to 7, 23 and 37
    strong = [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in carmichael + strong:
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    assert is_prime(3317044064679887385961813)  # the largest prime under the cap
    assert not is_prime((2**61 - 1) * (2**19 - 1))


def test_large_prime_modulus_is_decided_quickly():
    # trial division needs ~5*10^8 steps on this modulus; run it in a
    # child process so that a slow test fails instead of hanging
    code = "from ringroots import PrimeField; print(PrimeField(1000000000000000003).p)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1000000000000000003"


def test_modulus_limit():
    assert is_prime(MAX_MODULUS) is False  # 3317044064679887385961980 is even
    with pytest.raises(DomainError, match=str(MAX_MODULUS)):
        is_prime(MAX_MODULUS + 1)
    with pytest.raises(DomainError, match=str(MAX_MODULUS)):
        PrimeField(10**25 + 13)
