"""Immutable exact matrices over a scalar field, stored as ints.

A matrix is int rows ``_rows`` over one int denominator ``_den``, kept
canonical: over F_p, residues in [0, p) over 1; over Q, numerators over
the least common denominator of the whole matrix, with ``_den > 0`` and
gcd(``_den``, all numerators) = 1.  So equal matrices have equal
payloads, and ``==``, ``hash`` and ``bool`` work on the ints, as for
``Quaternion``.  The arithmetic is the same for both fields; the field
descriptor supplies the rest (see ``scalars``).  Field elements are
built only by the ``entries`` view; JSON goes in and out on the ints,
through the field's ``decode`` and ``encode`` (over Q one lcm and one
gcd per matrix in, one gcd per entry out, no ``Fraction``).

Polynomial evaluation runs ``_values``: for each point, the int core
``_value_rows`` runs one Horner loop on the int rows over a common
denominator, for both fields (over F_p reducing mod p every few steps),
and ``_values`` gives each value one ``normalize`` instead of one per
step (see ``rings.Ring._values``); the referee tests the core's ints.
The existence criteria read their powers off the int ladder beside it,
``_power_rows``; the oracle builds its own int ladder mod p
(``oracle._ladder``, x * x^i), independent of that kernel, and sums the
witness's a0 from it by ``existence._ladder_constant_term``, so neither
kernel here computes the oracle's search.

At k = 2, the shape of the paper's matrix examples and of every census
the oracle runs above k = 1, each int kernel of the matrix-pair path
writes its 2 x 2 step out entry by entry in place of its k-general
comprehension, chosen by the payload's shape alone: ``_power_rows``
keeps N^i N, ``_value_rows`` A N + C s, ``_ladder_constant_term``
A - s C N^i, ``existence._difference_columns`` its scaled difference
blocks, and the oracle x x^i and v D_i mod p.  Each form is
written inside its own kernel, in that kernel's orientation, with no
shared 2 x 2 helper, so the criterion, the oracle and the referee still
share no product code and a slip in one form cannot pass a referee that
runs the same slip.  ``Matrix.__mul__`` keeps the general form and stays
the reference the tests multiply with.

Entries from outside are validated once, at the boundary:
``Matrix(...)`` checks every entry against the field, ``from_rows`` and
``from_json`` decode every entry through it, and ring descriptors check
membership of whole matrices.  Shapes are checked on every operation; a
mismatch raises instead of broadcasting.  Every matrix the package
builds itself is square; a non-square one comes only from a caller
(``rank`` takes any shape, and the ring descriptors reject them).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul, sub

from .errors import MismatchError, ParseError, _echo


class Matrix:
    __slots__ = ("field", "_rows", "_den")

    def __init__(self, field, entries):
        rows = tuple(tuple(row) for row in entries)
        _check_shape(rows)
        for row in rows:
            for e in row:
                if not field.contains(e):
                    raise MismatchError(f"entry {_echo(e)} is not an element of {field!r}")
        self.field = field
        self._rows, self._den = field.decode(rows)

    @classmethod
    def from_rows(cls, field, rows) -> "Matrix":
        """Build a matrix, decoding each entry through the field.  A bad
        entry raises before a bad shape, as entries are read first."""
        payload, den = field.decode(rows)
        _check_shape(payload)
        return _raw(field, payload, den)

    @classmethod
    def identity(cls, field, k: int) -> "Matrix":
        _check_size(k, k)
        return _raw(field, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)), 1)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        _check_size(nrows, ncols)
        return _raw(field, ((0,) * ncols,) * nrows, 1)

    @property
    def entries(self) -> tuple:
        """The entries as field elements, a tuple of row tuples."""
        scalar, den = self.field.scalar, self._den
        return tuple(tuple(scalar(a, den) for a in row) for row in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _entrywise(self, op, other) -> "Matrix":
        if not isinstance(other, Matrix):
            raise MismatchError(f"expected a matrix, got {other!r}")
        if self.field != other.field:
            raise MismatchError("matrices over different fields do not mix")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MismatchError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        rows_a, rows_b, den = _aligned(self, other)
        rows = tuple(tuple(map(op, x, y)) for x, y in zip(rows_a, rows_b))
        return _trusted(self.field, rows, den)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        rows = tuple(tuple(-a for a in row) for row in self._rows)
        return _trusted(self.field, rows, self._den)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MismatchError("matrices over different fields do not mix")
        if self.ncols != other.nrows:
            raise MismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = tuple(zip(*other._rows))
        return _trusted(
            self.field,
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self._rows),
            self._den * other._den,
        )

    def transpose(self) -> "Matrix":
        return _raw(self.field, tuple(zip(*self._rows)), self._den)

    def __bool__(self):
        return any(map(any, self._rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self._rows, self._den))

    def to_json(self):
        return self.field.encode(self._rows, self._den)

    @classmethod
    def from_json(cls, field, obj) -> "Matrix":
        if not isinstance(obj, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in obj
        ):
            raise ParseError(f"a matrix encodes as an array of row arrays, got {_echo(obj)}")
        try:
            return cls.from_rows(field, obj)
        except MismatchError as exc:
            raise ParseError(str(exc)) from exc

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"Matrix([{rows}] over {self.field!r})"


def _check_size(nrows: int, ncols: int):
    if nrows < 1 or ncols < 1:
        raise MismatchError("a matrix needs at least one row and one column")


def _check_shape(rows):
    _check_size(len(rows), len(rows[0]) if rows else 0)
    if any(len(row) != len(rows[0]) for row in rows):
        raise MismatchError("ragged rows; all rows must share one length")


def _raw(field, rows, den: int) -> Matrix:
    """A matrix over `field` from a payload already canonical: a
    non-empty tuple of equal-length, non-empty int tuples over den.

    Only for results the package computes from validated matrices and
    for payloads the field's ``decode`` built; input from outside goes
    through ``Matrix(...)`` or ``from_rows``.
    """
    m = object.__new__(Matrix)
    m.field = field
    m._rows = rows
    m._den = den
    return m


def _trusted(field, rows, den: int) -> Matrix:
    """A matrix from int rows over den > 0 that the field's
    ``normalize`` brings into canonical form."""
    return _raw(field, *field.normalize(rows, den))


def _power_rows(x: Matrix, n: int) -> list:
    """[N^1, ..., N^n] as int row tuples, for x = N / d a square matrix:
    x^i = N^i / d^i.  Over Q the powers are not normalised, so N^i may
    share a factor with d^i that the canonical x^i divides out; over F_p
    every power is reduced mod p.  At k = 2 each step N^i N is written out
    entry by entry, N^i = [[a0, a1], [a2, a3]] on the left of N = [[n0, n1],
    [n2, n3]]; any other k runs the general comprehension."""
    cols = tuple(zip(*x._rows))
    p = x.field.p if x.field.kind == "prime" else 0
    ladder = [x._rows]
    if len(cols) == 2:
        (n0, n1), (n2, n3) = x._rows
        while len(ladder) < n:
            (a0, a1), (a2, a3) = ladder[-1]
            power = ((a0 * n0 + a1 * n2, a0 * n1 + a1 * n3),
                     (a2 * n0 + a3 * n2, a2 * n1 + a3 * n3))
            ladder.append(tuple([(u % p, v % p) for u, v in power]) if p else power)
    while len(ladder) < n:
        if p:
            power = [tuple([sum(map(mul, row, col)) % p for col in cols]) for row in ladder[-1]]
        else:
            power = [tuple([sum(map(mul, row, col)) for col in cols]) for row in ladder[-1]]
        ladder.append(tuple(power))
    return ladder[:n]


def _values(coeffs, points) -> tuple:
    """The values sum(coeffs[i] * x**i) at each x of `points`, for a
    non-empty sequence of square matrices of the points' field and shape:
    ``_value_rows``'s ints, each normalised once into the canonical
    payload the operators reach step by step."""
    field = coeffs[-1].field
    return tuple([_trusted(field, tuple(map(tuple, acc)), den)
                  for acc, den in _value_rows(coeffs, points)])


def _value_rows(coeffs, points) -> list:
    """[(A, D) for each x of `points`]: the value at x is the int rows A
    over D, not normalised, so it is zero when A is over Q and when every
    entry of A is 0 mod p over F_p.

    With c_i = C_i / e_i, x = N / d and L = lcm(e_i), the accumulator
    after k steps is A_k / (L * d**k): A_0 = C_n * (L / e_n) and
    A_k = A_(k-1) N + C_(n-k) * (L / e_(n-k)) * d**k, the accumulator on
    the left.  L and A_0 are formed once for all the points; the scale
    L * d**k / e_(n-k) is taken per step, which measured faster than
    rescaling every coefficient up front.  Over F_p every den is 1, and as
    a step adds about log2(k*p) bits to the entries, the rows are reduced
    mod p only every ``every`` steps, keeping them under 64 + log2(p) bits.
    At k = 2 a step is written out entry by entry, A_(k-1) = [[a0, a1],
    [a2, a3]] on the left of N = [[n0, n1], [n2, n3]], plus C's c0..c3
    times the scale; any other k runs the general comprehension.
    """
    top = coeffs[-1]
    field = top.field
    lead = lcm(*[c._den for c in coeffs])
    s = lead // top._den
    start = [[v * s for v in row] for row in top._rows]
    every = max(1, 64 // (len(start) * field.p).bit_length()) if field.kind == "prime" else 0
    values = []
    for x in points:
        cols = tuple(zip(*x._rows))
        d = x._den
        acc, den = start, lead
        for step, c in enumerate(reversed(coeffs[:-1]), 1):
            den *= d
            s = den // c._den
            if len(cols) == 2:
                (a0, a1), (a2, a3) = acc
                (n0, n1), (n2, n3) = x._rows
                (c0, c1), (c2, c3) = c._rows
                acc = ((a0 * n0 + a1 * n2 + c0 * s, a0 * n1 + a1 * n3 + c1 * s),
                       (a2 * n0 + a3 * n2 + c2 * s, a2 * n1 + a3 * n3 + c3 * s))
            else:
                acc = [[sum(map(mul, row, col)) + v * s for col, v in zip(cols, c_row)]
                       for row, c_row in zip(acc, c._rows)]
            if every and step % every == 0:
                acc = [field.reduce_row(row) for row in acc]
        values.append((acc, den))
    return values


def _aligned(a: Matrix, b: Matrix) -> tuple:
    """(rows of a, rows of b, den): both payloads over their lcm den."""
    da, db = a._den, b._den
    if da == db:
        return a._rows, b._rows, da
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return (tuple(tuple(x * sa for x in row) for row in a._rows),
            tuple(tuple(x * sb for x in row) for row in b._rows), da * sa)
