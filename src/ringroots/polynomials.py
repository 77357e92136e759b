"""Polynomials with left coefficients and a central variable.

The variable commutes with every coefficient, the coefficients do not
commute with each other.  Products therefore convolve in a fixed order
(left factor's coefficients stay on the left), evaluation puts every
coefficient to the left of the power of the point, and "root" always
means right root: P(a) = 0, equivalently (x - a) right-divides P.
"""

from __future__ import annotations

from .errors import DomainError, MismatchError, ParseError, _echo
from .rings import Ring, ring_from_json


class Polynomial:
    """Dense coefficient sequence indexed by degree; index 0 is the
    constant term.  The zero polynomial has an empty sequence and an
    undefined degree (None, never -1)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coefficients):
        coeffs = [ring.check(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, ())

    @classmethod
    def x_minus(cls, ring: Ring, a) -> "Polynomial":
        """The monic linear factor x - a."""
        return cls(ring, (-ring.check(a), ring.one))

    @classmethod
    def from_coefficients(cls, ring: Ring, values) -> "Polynomial":
        return cls(ring, [ring.element(v) for v in values])

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coefficient(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.ring.zero

    def _check_ring(self, other):
        if not isinstance(other, Polynomial):
            raise MismatchError(f"expected a polynomial, got {other!r}")
        if self.ring != other.ring:
            raise MismatchError("polynomials over different rings do not mix")

    def __add__(self, other):
        self._check_ring(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.ring, [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.ring)
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.ring, out)

    def evaluate(self, point):
        """Right evaluation: sum of coefficient_i * point**i.

        The ring's kernel (`Ring._values`) computes it at this one point:
        Horner's rule acc -> acc*point + c_i over a matrix or scalar ring,
        and over the quaternions the remainder by the point's real
        quadratic.  Both give the power sum's value because the variable is
        central; tests check the equality against the literal power sum.
        """
        self.ring.check(point)
        if self.is_zero():
            return self.ring.zero
        return self.ring._values(self.coeffs, (point,))[0]

    def divmod_linear(self, a):
        """Right division by the monic linear factor x - a.

        Returns (quotient, remainder) with self = quotient*(x - a) + r,
        r a ring element.  By the factor theorem r equals self(a).
        """
        self.ring.check(a)
        if self.is_zero():
            raise DomainError("cannot divide the zero polynomial")
        n = self.degree()
        if n == 0:
            return Polynomial.zero(self.ring), self.coeffs[0]
        f = [self.ring.zero] * n
        f[n - 1] = self.coeffs[n]
        for i in range(n - 1, 0, -1):
            f[i - 1] = self.coeffs[i] + f[i] * a
        remainder = self.coeffs[0] + f[0] * a
        return Polynomial(self.ring, f), remainder

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "coefficients": [self.ring.element_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj, ring: Ring | None = None) -> "Polynomial":
        if not isinstance(obj, dict) or "coefficients" not in obj:
            raise ParseError(f"bad polynomial encoding: {_echo(obj)}")
        if ring is None:
            if "ring" not in obj:
                raise ParseError("polynomial encoding carries no ring descriptor")
            ring = ring_from_json(obj["ring"])
        elif "ring" in obj and ring_from_json(obj["ring"]) != ring:
            raise MismatchError("polynomial declares a different ring than expected")
        coeffs = obj["coefficients"]
        if not isinstance(coeffs, list):
            raise ParseError("polynomial coefficients must be an array")
        return cls(ring, [ring.element_from_json(c) for c in coeffs])

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if self.ring.is_zero(c):
                continue
            if i == 0:
                terms.append(f"({c})")
            elif i == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{i}")
        return " + ".join(terms)
