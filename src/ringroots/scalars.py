"""Exact scalar fields: arbitrary-precision rationals and prime fields F_p.

Rationals are plain ``fractions.Fraction`` values (already canonical:
reduced, positive denominator, zero is 0/1).  Prime-field residues get a
small wrapper class so that mixed-modulus arithmetic is rejected instead
of silently recombined.

A ``Matrix`` stores plain ints and its arithmetic is the same for both
fields; a field descriptor holds only what differs: ``encode`` turns
validated entries into an int payload, ``normalize`` makes a computed
payload canonical (a gcd over Q, mod p over F_p), ``reduce_row``
keeps the rows of the one elimination in ``linalg`` small, and
``scalar`` builds one element for a reader of the entries.
``parse_rational`` reads every rational literal from outside.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .errors import DomainError, MismatchError, ParseError, _echo

# Miller-Rabin with the first 13 primes as bases is exact below
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).  Prime-field moduli are capped there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961980


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n <= MAX_MODULUS."""
    if n > MAX_MODULUS:
        raise DomainError(f"primality is decided only for moduli up to {MAX_MODULUS}")
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_rational(value) -> Fraction:
    """The rational an int, a ``Fraction`` or a literal such as "-3/4",
    "0.25" or "1e-3" denotes; ParseError for anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError(f"cannot interpret {_echo(value)} as a rational")
    _check_exponent(value)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {_echo(value)}") from exc


def _check_exponent(text: str):
    """ParseError when `text`, read as a literal m.f e x, spells out a
    numerator or denominator over the int/str digit limit: Fraction builds
    int(m + f) * 10^max(x, 0) over 10^(len(f) + max(-x, 0)) before any
    limit applies.  Without an exponent, its own int() enforces it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    mantissa, e, exp = text.lower().partition("e")
    if not limit or not e:
        return
    try:
        x = int(exp)
    except ValueError:
        return  # not a literal Fraction accepts
    whole, _, frac = mantissa.strip().lstrip("+-").replace("_", "").partition(".")
    for part, digits in (("numerator", max(len((whole + frac).lstrip("0")), 1) + max(x, 0)),
                         ("denominator", len(frac) + max(-x, 0) + 1)):
        if digits > limit:
            raise ParseError(f"a rational literal's {part} would have more decimal digits "
                             f"than the int/str conversion limit of {limit} digits")


class PrimeFieldElement:
    """A residue mod a prime; arithmetic never leaves the field."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        self.residue = residue % modulus
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise MismatchError(
                    f"residues mod {self.modulus} and mod {other.modulus} do not mix"
                )
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.residue + other.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.residue - other.residue, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.residue * other.residue, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.modulus)

    def inverse(self) -> "PrimeFieldElement":
        if self.residue == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.modulus}")
        return PrimeFieldElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElement)
            and self.modulus == other.modulus
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.modulus})"

    def __str__(self):
        return str(self.residue)


class RationalField:
    """Descriptor for the rationals; elements are ``Fraction`` values."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def element(self, value) -> Fraction:
        return parse_rational(value)

    def invert(self, x: Fraction):
        return None if x == 0 else 1 / x

    def encode(self, rows) -> tuple[tuple, int]:
        """(numerator rows, den) of rows of ``Fraction``s, den their least
        common denominator.  Over the lcm of reduced denominators the
        numerators share no factor with den, so this is canonical."""
        den = lcm(*(e.denominator for row in rows for e in row))
        return tuple(tuple(e.numerator * (den // e.denominator) for e in row)
                     for row in rows), den

    def normalize(self, rows, den: int) -> tuple[tuple, int]:
        """(rows, den) divided by the gcd of den and every numerator."""
        g = gcd(den, *chain.from_iterable(rows))
        if g == 1:
            return rows, den
        return tuple(tuple(a // g for a in row) for row in rows), den // g

    def scalar(self, numerator: int, den: int) -> Fraction:
        return Fraction(numerator, den)

    def reduce_row(self, row: list) -> list:
        """An int row divided by the gcd of its entries."""
        g = gcd(*row)
        return row if g <= 1 else [a // g for a in row]

    def scalar_to_json(self, x: Fraction) -> str:
        return str(x)

    def to_json(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Descriptor for F_p, p prime."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"modulus {p} is not prime")
        self.p = p

    @cached_property
    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    @cached_property
    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(1, self.p)

    def contains(self, x) -> bool:
        return isinstance(x, PrimeFieldElement) and x.modulus == self.p

    def element(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            if value.modulus != self.p:
                raise MismatchError(
                    f"residue mod {value.modulus} is not an element of F_{self.p}"
                )
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return PrimeFieldElement(value, self.p)
        raise ParseError(f"cannot interpret {_echo(value)} as an element of F_{self.p}")

    def invert(self, x: PrimeFieldElement):
        return None if x.residue == 0 else x.inverse()

    def encode(self, rows) -> tuple[tuple, int]:
        """(residue rows, 1) of rows of elements."""
        return tuple(tuple(e.residue for e in row) for row in rows), 1

    def normalize(self, rows, den: int) -> tuple[tuple, int]:
        """(residue rows, 1) of int rows over den, a unit mod p."""
        p = self.p
        if den != 1:
            inv = pow(den, -1, p)
            rows = [[a * inv for a in row] for row in rows]
        return tuple(tuple(a % p for a in row) for row in rows), 1

    def scalar(self, residue: int, den: int) -> PrimeFieldElement:
        return PrimeFieldElement(residue, self.p)

    def reduce_row(self, row: list) -> list:
        p = self.p
        return [a % p for a in row]

    def scalar_to_json(self, x: PrimeFieldElement) -> int:
        return x.residue

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_json(obj) -> RationalField | PrimeField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad field descriptor: {_echo(obj)}")
    kind = obj["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        p = obj.get("p")
        if type(p) is not int:  # bool is an int subclass; JSON true is not
            raise ParseError(f"prime field descriptor needs an integer 'p': {_echo(obj)}")
        return PrimeField(p)
    raise ParseError(f"unknown field kind {_echo(kind)}")
