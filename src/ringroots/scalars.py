"""Exact scalar fields: arbitrary-precision rationals and prime fields F_p.

Rationals are plain ``fractions.Fraction`` values (already canonical:
reduced, positive denominator, zero is 0/1).  Prime-field residues get a
small wrapper class so that mixed-modulus arithmetic is rejected instead
of silently recombined.

The field descriptors own the matrix kernels, ``matmul`` and ``rref``,
which work on plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import DomainError, MismatchError, ParseError

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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(other.residue - self.residue, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.residue * other.residue, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.modulus)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return PrimeFieldElement(pow(self.residue, n, self.modulus), self.modulus)

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
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational literal {value!r}") from exc
        raise ParseError(f"cannot interpret {value!r} as a rational")

    def invert(self, x: Fraction):
        return None if x == 0 else 1 / x

    def matmul(self, rows, other_rows) -> tuple:
        """Entries of the product of two entry grids of matching shape.

        Each row of the left factor and each column of the right factor
        is scaled to int numerators over its least common denominator, so
        every output entry is one integer dot product over the product
        of a row and a column denominator, reduced once by ``Fraction``.
        """
        cols = [_over_common_denominator(col) for col in zip(*other_rows)]
        return tuple(
            tuple(Fraction(sum(map(mul, row, col)), den * col_den) for col, col_den in cols)
            for row, den in map(_over_common_denominator, rows)
        )

    def rref(self, rows) -> tuple[tuple, tuple]:
        """(reduced rows, pivot columns) of an entry grid: rows scaled to
        int numerators over their lcm, eliminated by `_fraction_free_rref`
        with gcd reduction, then one ``Fraction(a, pivot)`` per entry."""
        work = [_over_common_denominator(row)[0] for row in rows]
        pivots = _fraction_free_rref(work, _primitive)
        zero = self.zero
        reduced = [tuple(Fraction(a, row[c]) if a else zero for a in row)
                   for row, c in zip(work, pivots)]
        reduced += [(zero,) * len(work[0])] * (len(work) - len(pivots))
        return tuple(reduced), pivots

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
        raise ParseError(f"cannot interpret {value!r} as an element of F_{self.p}")

    def invert(self, x: PrimeFieldElement):
        return None if x.residue == 0 else x.inverse()

    def matmul(self, rows, other_rows) -> tuple:
        """Entries of the product of two entry grids of matching shape.

        Each dot product runs on the int residues and is reduced mod p
        once, when its single output element is built.
        """
        p = self.p
        cols = [[e.residue for e in col] for col in zip(*other_rows)]
        return tuple(
            tuple(PrimeFieldElement(sum(map(mul, row, col)), p) for col in cols)
            for row in ([e.residue for e in r] for r in rows)
        )

    def rref(self, rows) -> tuple[tuple, tuple]:
        """(reduced rows, pivot columns) of an entry grid: residues
        eliminated by `_fraction_free_rref` mod p, then each pivot row
        scaled once by the inverse of its pivot."""
        p = self.p
        work = [[e.residue for e in row] for row in rows]
        pivots = _fraction_free_rref(work, lambda row: [a % p for a in row])
        reduced = []
        for row, c in zip(work, pivots):
            inv = pow(row[c], -1, p)
            reduced.append(tuple(PrimeFieldElement(a * inv, p) for a in row))
        reduced += [(PrimeFieldElement(0, p),) * len(work[0])] * (len(work) - len(pivots))
        return tuple(reduced), pivots

    def elements(self):
        """All p field elements, in residue order."""
        return (PrimeFieldElement(r, self.p) for r in range(self.p))

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


def _over_common_denominator(fractions) -> tuple[list, int]:
    """(numerators, den) with fraction i equal to numerators[i] / den,
    den the least common denominator."""
    ratios = [f.as_integer_ratio() for f in fractions]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _fraction_free_rref(work, reduce) -> tuple:
    """Division-free Gauss-Jordan on the int rows `work`, in place;
    returns the pivot columns.

    The pivot is the first nonzero entry of the leftmost unresolved
    column; every other row r with f = work[r][col] != 0 becomes
    reduce(pv * work[r] - f * pivot_row).  `reduce` keeps the entries
    small (a gcd over Z, mod p over F_p), so each row stays a nonzero
    multiple of the row element-wise Gauss-Jordan holds: same pivots,
    same reduced form once pivot row i is divided by work[i][pivots[i]].
    Rows below the rank end up zero.
    """
    nrows = len(work)
    pivots = []
    for col in range(len(work[0])):
        top = len(pivots)
        if top == nrows:
            break
        hit = next((r for r in range(top, nrows) if work[r][col]), None)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        pivot_row = work[top]
        pv = pivot_row[col]
        for r in range(nrows):
            f = work[r][col]
            if f and r != top:
                work[r] = reduce([pv * a - f * b for a, b in zip(work[r], pivot_row)])
        pivots.append(col)
    return tuple(pivots)


def _primitive(row: list) -> list:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _square_and_multiply(x, n: int):
    """x**n for n >= 1 under any associative multiplication, in about
    2*log2(n) multiplies instead of n - 1."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def field_from_json(obj) -> RationalField | PrimeField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad field descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        p = obj.get("p")
        if type(p) is not int:  # bool is an int subclass; JSON true is not
            raise ParseError(f"prime field descriptor needs an integer 'p': {obj!r}")
        return PrimeField(p)
    raise ParseError(f"unknown field kind {kind!r}")
