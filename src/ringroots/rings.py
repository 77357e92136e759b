"""Ring descriptors: scalar fields, square-matrix rings, rational quaternions.

A descriptor validates payloads, supplies the identities, answers
invertibility queries, and owns the JSON wire format of its elements.
Arithmetic is the payloads' own operators: `Matrix` rejects mixed
fields and shapes, `PrimeFieldElement` mixed moduli, each with a
`MismatchError`, so nothing is coerced across descriptors.  Quaternions
accept int and `Fraction` scalars by design, as rational quaternions
contain the rationals.  The referee ``_assert_annihilates`` sits here,
beside the evaluation kernels it runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg, matrices, quaternions
from .errors import DomainError, MismatchError, ParseError, _echo
from .matrices import Matrix
from .quaternions import ONE, ZERO, Quaternion
from .scalars import (
    PrimeField,
    PrimeFieldElement,
    RationalField,
    field_from_json,
)


class Ring:
    """Shared surface: identities, validation, invertibility, JSON."""

    kind = ""

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check(self, x):
        if not self.contains(x):
            raise MismatchError(f"{_echo(x)} is not an element of {self!r}")
        return x

    def element(self, value):
        raise NotImplementedError

    def powers(self, x, n: int) -> list:
        """[x^0, x^1, ..., x^n], each power one multiply from the last."""
        ladder = [self.one, self.check(x)]
        while len(ladder) <= n:
            ladder.append(ladder[-1] * x)
        return ladder[: n + 1]

    def _values(self, coeffs, points) -> tuple:
        """The values sum(coeffs[i] * x**i) at each x of `points`, for a
        non-empty coefficient sequence and points already checked, by
        Horner's rule acc -> acc*x + c_i on the payload operators.  The one
        evaluation kernel of a ring: `Polynomial.evaluate`, ``construct._fold``
        and ``existence._constant_term`` call it with one point, and
        `construct.verify_roots` with all the roots.  Matrix and quaternion
        rings run their payload's int kernel instead, which brings the
        coefficients over one denominator once per call; the referee below
        tests that kernel's int core."""
        values = []
        for x in points:
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = acc * x + c
            values.append(acc)
        return tuple(values)

    def invert(self, a):
        """Two-sided inverse of a, or None when a is not a unit."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return not self.check(a)

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj):
        return self.element(obj)

    def to_json(self) -> dict:
        raise NotImplementedError


def _assert_annihilates(ring: Ring, coeffs, roots):
    """The referee every constructed polynomial passes before it leaves
    the package: RuntimeError unless its coefficients `coeffs` (constant
    term first) vanish at each of `roots` by the ring's evaluation kernel,
    since anything else can only be a bug.  Over a matrix ring and H the
    kernel's int core is tested directly, with no value normalised: a
    value is zero when its int numerators are, over F_p once reduced mod p,
    as the core reduces them only every few steps."""
    if isinstance(ring, MatrixRing):
        rows = [row for acc, _ in matrices._value_rows(coeffs, roots) for row in acc]
        if ring.field.kind == "prime":
            rows = map(ring.field.reduce_row, rows)
        nonzero = any(map(any, rows))
    elif isinstance(ring, QuaternionRing):
        numerators = quaternions._numerators(coeffs)[0]
        nonzero = any(any(quaternions._value_ints(numerators, x)[0]) for x in roots)
    else:
        nonzero = any(ring._values(coeffs, roots))
    if nonzero:
        raise RuntimeError("internal error: a constructed polynomial does not annihilate its roots")


class ScalarRing(Ring):
    """A field viewed as a (commutative) ring."""

    kind = "field"

    def __init__(self, field):
        self.field = field

    @property
    def zero(self):
        return self.field.zero

    @property
    def one(self):
        return self.field.one

    def contains(self, x) -> bool:
        return self.field.contains(x)

    def element(self, value):
        return self.field.element(value)

    def invert(self, a):
        return self.field.invert(self.check(a))

    def element_to_json(self, a):
        return self.field.scalar_to_json(self.check(a))

    def to_json(self) -> dict:
        return {"kind": "field", "field": self.field.to_json()}

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and self.field == other.field

    def __hash__(self):
        return hash(("field", self.field))

    def __repr__(self):
        return f"ScalarRing({self.field!r})"


class MatrixRing(Ring):
    """Square k x k matrices over a field."""

    kind = "matrix"
    _values = staticmethod(matrices._values)

    def __init__(self, k: int, field):
        if k < 1:
            raise DomainError("matrix rings need k >= 1")
        self.k = k
        self.field = field

    @cached_property
    def zero(self):
        return Matrix.zeros(self.field, self.k, self.k)

    @cached_property
    def one(self):
        return Matrix.identity(self.field, self.k)

    def contains(self, x) -> bool:
        return (
            isinstance(x, Matrix)
            and x.field == self.field
            and x.nrows == self.k
            and x.ncols == self.k
        )

    def element(self, value):
        if not isinstance(value, Matrix):
            value = Matrix.from_json(self.field, value)
        return self.check(value)

    def invert(self, a):
        """The unique X with X * a = 1, or None when rank(a) < k: one
        solve of X * num = d * 1 for a = num / d, from num's columns."""
        a = self.check(a)
        k, d = self.k, a._den
        eye = [[d * (i == j) for j in range(k)] for i in range(k)]
        outcome = linalg._solve_blocks(self.field, (list(zip(*a._rows)), eye), (1,))
        return outcome.particular[0] if outcome.rank == k else None

    def element_to_json(self, a):
        return self.check(a).to_json()

    def to_json(self) -> dict:
        return {"kind": "matrix", "k": self.k, "field": self.field.to_json()}

    def __eq__(self, other):
        return (
            isinstance(other, MatrixRing)
            and self.k == other.k
            and self.field == other.field
        )

    def __hash__(self):
        return hash(("matrix", self.k, self.field))

    def __repr__(self):
        return f"MatrixRing({self.k}, {self.field!r})"


@lru_cache(maxsize=32)
def _matrix_ring(k: int, field) -> MatrixRing:
    """One MatrixRing per (k, field), so that its identities are built once
    rather than on every criterion call."""
    return MatrixRing(k, field)


class QuaternionRing(Ring):
    """Quaternions with rational components; every nonzero element is a unit."""

    kind = "quaternion"
    zero = ZERO
    one = ONE
    _values = staticmethod(quaternions._values)

    def contains(self, x) -> bool:
        return isinstance(x, Quaternion)

    def element(self, value):
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, (list, tuple)):
            return Quaternion.from_json(list(value))
        raise ParseError(f"cannot interpret {_echo(value)} as a quaternion")

    def invert(self, a):
        self.check(a)
        return a.inverse() if a else None

    def element_to_json(self, a):
        return self.check(a).to_json()

    def to_json(self) -> dict:
        return {"kind": "quaternion"}

    def __eq__(self, other):
        return isinstance(other, QuaternionRing)

    def __hash__(self):
        return hash("quaternion")

    def __repr__(self):
        return "QuaternionRing()"


def ring_from_json(obj) -> Ring:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad ring descriptor: {_echo(obj)}")
    kind = obj["kind"]
    if kind == "field":
        return ScalarRing(field_from_json(obj.get("field")))
    if kind == "matrix":
        k = obj.get("k")
        if type(k) is not int or k < 1:  # bool is an int subclass; JSON true is not
            raise ParseError(f"matrix ring descriptor needs an integer 'k' >= 1: {_echo(obj)}")
        return _matrix_ring(k, field_from_json(obj.get("field")))
    if kind == "quaternion":
        return QuaternionRing()
    raise ParseError(f"unknown ring kind {_echo(kind)}")


def infer_ring(payload) -> Ring:
    """The ring a payload naturally belongs to."""
    if isinstance(payload, Fraction):
        return ScalarRing(RationalField())
    if isinstance(payload, PrimeFieldElement):
        return ScalarRing(PrimeField(payload.modulus))
    if isinstance(payload, Quaternion):
        return QuaternionRing()
    if isinstance(payload, Matrix):
        if not payload.is_square():
            raise MismatchError("only square matrices are ring elements")
        return _matrix_ring(payload.nrows, payload.field)
    raise MismatchError(f"{_echo(payload)} is not an element of any supported ring")
