"""Immutable exact matrices over a scalar field.

Shapes are checked on every operation; a mismatch raises instead of
broadcasting.  Non-square shapes appear only inside the linear-algebra
routines (augmented systems).

Entries are validated once, at the boundary.  ``Matrix(...)``,
``from_rows`` and ``from_json`` check every entry against the field, and
ring descriptors check membership of whole matrices.  Every matrix the
package computes itself (sums, products, transposes, augmentations,
the identity and zero matrices, eliminations, solutions, ring enumerations)
is built from entries already known to be valid, so it goes through
``_trusted``, which skips the per-entry check.  Products are delegated
to the field descriptor's ``matmul``; over F_p it works on raw residues.
"""

from __future__ import annotations

from .errors import MismatchError, ParseError
from .scalars import _square_and_multiply


class Matrix:
    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        rows = tuple(tuple(row) for row in entries)
        _check_size(len(rows), len(rows[0]) if rows else 0)
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise MismatchError("ragged rows; all rows must share one length")
            for e in row:
                if not field.contains(e):
                    raise MismatchError(f"entry {e!r} is not an element of {field!r}")
        self.field = field
        self.entries = rows

    @classmethod
    def from_rows(cls, field, rows) -> "Matrix":
        """Build a matrix, coercing each entry through the field."""
        return cls(field, [[field.element(e) for e in row] for row in rows])

    @classmethod
    def identity(cls, field, k: int) -> "Matrix":
        _check_size(k, k)
        one, zero = field.one, field.zero
        return _trusted(
            field, tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))
        )

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        _check_size(nrows, ncols)
        return _trusted(field, ((field.zero,) * ncols,) * nrows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _check_same_shape(self, other):
        if not isinstance(other, Matrix):
            raise MismatchError(f"expected a matrix, got {other!r}")
        if self.field != other.field:
            raise MismatchError("matrices over different fields do not mix")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MismatchError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        return _trusted(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return _trusted(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self):
        return _trusted(self.field, tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MismatchError("matrices over different fields do not mix")
        if self.ncols != other.nrows:
            raise MismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return _trusted(self.field, self.field.matmul(self.entries, other.entries))

    def __pow__(self, n: int):
        if not self.is_square():
            raise MismatchError("only square matrices have powers")
        if n < 0:
            raise MismatchError("negative matrix powers are not defined here")
        if n == 0:
            return Matrix.identity(self.field, self.nrows)
        return _square_and_multiply(self, n)

    def transpose(self) -> "Matrix":
        return _trusted(self.field, tuple(zip(*self.entries)))

    def augment(self, other: "Matrix") -> "Matrix":
        """Columns of `other` appended to the right of `self`."""
        if self.field != other.field or self.nrows != other.nrows:
            raise MismatchError("augmenting needs the same field and row count")
        return _trusted(
            self.field, tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        )

    def __bool__(self):
        return any(any(e for e in row) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def to_json(self):
        return [[self.field.scalar_to_json(e) for e in row] for row in self.entries]

    @classmethod
    def from_json(cls, field, obj) -> "Matrix":
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ParseError(f"a matrix encodes as an array of row arrays, got {obj!r}")
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


def _trusted(field, rows) -> Matrix:
    """A matrix over `field` whose rows are already valid: a non-empty
    tuple of equal-length, non-empty tuples of elements of `field`.

    Only for results the package computes from validated matrices; input
    from outside goes through ``Matrix(...)``, which checks every entry.
    """
    m = object.__new__(Matrix)
    m.field = field
    m.entries = rows
    return m
