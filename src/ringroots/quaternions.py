"""Rational quaternions a + b*i + c*j + d*k.

The defining relations i^2 = j^2 = -1 and ij = -ji = k drive the product.
Over the rationals the norm a^2+b^2+c^2+d^2 vanishes only at zero, so
every nonzero element is invertible (a genuine division ring).

A quaternion is stored as four int numerators ``_n`` over one int
denominator ``_den``, kept canonical: ``_den > 0`` and
``gcd(*_n, _den) == 1`` (so zero is (0, 0, 0, 0) over 1).  Equal
quaternions therefore have equal representations, and ``==`` and
``hash`` work on the ints.  Arithmetic runs on the ints and normalises
each result by a single gcd.  The components ``.a .b .c .d`` are
read-only ``Fraction`` views, built on access.  Only the public
constructor and ``from_json`` accept outside values, decoded to ints
by ``scalars.decode_rational`` and put over one lcm and one gcd;
``to_json`` writes the ints back with ``scalars.encode_rational``.

Polynomial evaluation runs ``_values`` (see ``rings.Ring._values``): it
brings the coefficients over one common denominator once, then takes
each point's value on the ints with one gcd at the end.  Every
quaternion x is a root of its real quadratic t**2 - 2*Re(x)*t + N(x),
which is central, so P(x) is the value at x of P's linear remainder by
that quadratic; the int core ``_value_ints`` computes the remainder with
real multiples of quaternions and one quaternion product, and also
evaluates the numerators the construction keeps over one denominator
(see ``construct``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, _echo
from .scalars import decode_rational, encode_rational


def _raw(n, den) -> "Quaternion":
    """A quaternion from numerators and denominator already canonical."""
    q = object.__new__(Quaternion)
    q._n = n
    q._den = den
    return q


def _trusted(n0, n1, n2, n3, den) -> "Quaternion":
    """A quaternion from int numerators over an int den > 0, reduced by
    one gcd."""
    g = gcd(n0, n1, n2, n3, den)
    if g == 1:
        return _raw((n0, n1, n2, n3), den)
    return _raw((n0 // g, n1 // g, n2 // g, n3 // g), den // g)


class Quaternion:
    __slots__ = ("_n", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = [decode_rational(a), decode_rational(b), decode_rational(c), decode_rational(d)]
        den = lcm(*[e for _, e in parts])
        q = _trusted(*[n * (den // e) for n, e in parts], den)
        self._n, self._den = q._n, q._den

    @property
    def a(self) -> Fraction:
        return Fraction(self._n[0], self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._n[1], self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._n[2], self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._n[3], self._den)

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return _raw((other, 0, 0, 0), 1)
        if isinstance(other, Fraction):
            return _raw((other.numerator, 0, 0, 0), other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (a1, b1, c1, d1), e1 = self._n, self._den
        (a2, b2, c2, d2), e2 = other._n, other._den
        if e1 == e2:
            return _trusted(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _trusted(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1,
                        c1 * e2 + c2 * e1, d1 * e2 + d2 * e1, e1 * e2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (a1, b1, c1, d1), e1 = self._n, self._den
        (a2, b2, c2, d2), e2 = other._n, other._den
        if e1 == e2:
            return _trusted(a1 - a2, b1 - b2, c1 - c2, d1 - d2, e1)
        return _trusted(a1 * e2 - a2 * e1, b1 * e2 - b2 * e1,
                        c1 * e2 - c2 * e1, d1 * e2 - d2 * e1, e1 * e2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        a, b, c, d = self._n
        return _raw((-a, -b, -c, -d), self._den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, c1, d1 = self._n
        a2, b2, c2, d2 = other._n
        return _trusted(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            self._den * other._den,
        )

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def conjugate(self) -> "Quaternion":
        a, b, c, d = self._n
        return _raw((a, -b, -c, -d), self._den)

    def _norm_numerator(self) -> int:
        a, b, c, d = self._n
        return a * a + b * b + c * c + d * d

    def norm(self) -> Fraction:
        return Fraction(self._norm_numerator(), self._den * self._den)

    def inverse(self) -> "Quaternion":
        # conj(q) / (N / den^2) = den * conj(q)'s numerators over N
        norm = self._norm_numerator()
        if norm == 0:
            raise ZeroDivisionError("0 has no quaternion inverse")
        a, b, c, d = self._n
        den = self._den
        return _trusted(a * den, -b * den, -c * den, -d * den, norm)

    def __bool__(self):
        return self._n != (0, 0, 0, 0)

    def __eq__(self, other):
        return (
            isinstance(other, Quaternion)
            and self._den == other._den
            and self._n == other._n
        )

    def __hash__(self):
        return hash((self._n, self._den))

    def to_json(self):
        den = self._den
        return [encode_rational(n, den) for n in self._n]

    @classmethod
    def from_json(cls, obj) -> "Quaternion":
        if not isinstance(obj, list) or len(obj) != 4:
            raise ParseError(f"a quaternion encodes as [a, b, c, d], got {_echo(obj)}")
        return cls(*obj)

    def __repr__(self):
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        terms = []
        for value, unit in ((self.a, ""), (self.b, "i"), (self.c, "j"), (self.d, "k")):
            if value:
                terms.append(f"{value}{unit}")
        return " + ".join(terms) if terms else "0"


def _values(coeffs, points) -> tuple:
    """The values sum(coeffs[i] * x**i) at each x of `points`, for a
    non-empty coefficient sequence: ``_value_ints`` on the numerators of
    ``_numerators`` at each point, each value reduced by one gcd, so it
    is the canonical payload the operators reach step by step.
    """
    numerators, den = _numerators(coeffs)
    values = []
    for x in points:
        acc, scale = _value_ints(numerators, x)
        values.append(_trusted(*acc, den * scale))
    return tuple(values)


def _numerators(coeffs) -> tuple:
    """(numerators, L): the coefficients c_i = C_i / e_i over
    L = lcm(e_i), as the int 4-tuples C_i * (L / e_i)."""
    den = lcm(*[c._den for c in coeffs])
    numerators = []
    for c in coeffs:
        if c._den == den:
            numerators.append(c._n)
        else:
            s = den // c._den
            n0, n1, n2, n3 = c._n
            numerators.append((n0 * s, n1 * s, n2 * s, n3 * s))
    return numerators, den


def _value_ints(numerators, x) -> tuple:
    """(A, d**n) with sum(P_i * x**i) = A / (e * d**n), for int numerator
    4-tuples P_0..P_n over one common denominator e and x = X / d.

    x is a root of its real quadratic t**2 - (T/d)*t + M/d**2, with
    T = 2*X_0 and M = X_0**2 + X_1**2 + X_2**2 + X_3**2.  That quadratic
    is central, so the value is b_1*x + b_0 for the remainder
    b_1*t + b_0 of P by it.  On the ints, with B_(n+1) = B_(n+2) = 0 and
    B_k = d**(n-k) * b_k for k = n..1:
    B_k = P_k * d**(n-k) + T*B_(k+1) - M*B_(k+2), real multiples only,
    and A = B_1 * X + P_0 * d**n - M*B_2, one quaternion product with
    B_1 on the left.  No gcd is taken; the caller makes the value
    canonical once.
    """
    if len(numerators) == 1:
        return numerators[0], 1
    x0, x1, x2, x3 = x._n
    d = x._den
    t = 2 * x0
    m = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    b0, b1, b2, b3 = numerators[-1]
    c0 = c1 = c2 = c3 = 0
    s = 1
    for n0, n1, n2, n3 in reversed(numerators[1:-1]):
        s *= d
        b0, b1, b2, b3, c0, c1, c2, c3 = (
            n0 * s + t * b0 - m * c0,
            n1 * s + t * b1 - m * c1,
            n2 * s + t * b2 - m * c2,
            n3 * s + t * b3 - m * c3,
            b0, b1, b2, b3,
        )
    s *= d
    n0, n1, n2, n3 = numerators[0]
    # Quaternion.__mul__'s product B_1 * X, inlined
    return (
        b0 * x0 - b1 * x1 - b2 * x2 - b3 * x3 + n0 * s - m * c0,
        b0 * x1 + b1 * x0 + b2 * x3 - b3 * x2 + n1 * s - m * c1,
        b0 * x2 - b1 * x3 + b2 * x0 + b3 * x1 + n2 * s - m * c2,
        b0 * x3 + b1 * x2 - b2 * x1 + b3 * x0 + n3 * s - m * c3,
    ), s


ZERO = _raw((0, 0, 0, 0), 1)
ONE = _raw((1, 0, 0, 0), 1)
