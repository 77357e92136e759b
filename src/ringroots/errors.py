"""Exception hierarchy shared by the whole package, and the one bounded
`repr` that messages use to echo raw input."""

import reprlib
from itertools import islice

# Longest echo of a raw value a message carries.
MAX_ECHO = 200


class AlgebraError(Exception):
    """Base class for everything this package raises on purpose."""


class MismatchError(AlgebraError):
    """Operands live in different rings/fields or have incompatible shapes."""


class ParseError(AlgebraError):
    """A JSON document or element encoding does not match the wire format."""


class DomainError(AlgebraError):
    """Input is well-formed but violates a semantic precondition."""


class _EchoRepr(reprlib.Repr):
    """Limits high enough that a value whose `repr` is under about 80
    characters prints as `repr` prints it, and dicts in insertion order
    (reprlib sorts their keys)."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 40
        self.maxtuple = self.maxlist = self.maxset = self.maxfrozenset = self.maxdeque = 40
        self.maxdict = 20
        self.maxstring = self.maxlong = self.maxother = 80

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


_REPR = _EchoRepr()


def _echo(value) -> str:
    """`repr(value)` for a message, cut to MAX_ECHO characters and to
    `_EchoRepr`'s depth and width: a raw JSON value nested just short of
    the decoder's limit would overflow the stack in the full `repr`."""
    text = _REPR.repr(value)
    return text if len(text) <= MAX_ECHO else text[: MAX_ECHO - 3] + "..."
