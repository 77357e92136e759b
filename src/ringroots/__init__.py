"""Exact arithmetic for polynomials with prescribed right roots over
non-commutative rings: matrix rings over the rationals or a prime field,
and rational quaternions.

Importing the package loads only the error classes.  Every other public
name is listed in ``_SUBMODULES`` with the submodule that defines it,
and the first access of the name imports that submodule (PEP 562) and
keeps the value in the package's namespace.  So ``construct_with_roots``
loads the quaternion and matrix layers but neither the existence
criteria nor the brute-force oracle.  The result records
(``CriterionReport``, ``ConstructionTrace`` and the others) are
named tuples: fields by name or position, ``_replace`` and ``_asdict``.
"""

from fractions import Fraction

from .errors import AlgebraError, DomainError, MismatchError, ParseError

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULES = {
    "BRANCH_ALREADY_ROOT": "construct",
    "BRANCH_CONJUGATE": "construct",
    "BRANCH_FAILED": "construct",
    "BRANCH_PAD_WITH_X": "construct",
    "BruteForceResult": "oracle",
    "ConstructionStep": "construct",
    "ConstructionTrace": "construct",
    "CriterionReport": "existence",
    "CrossCheckReport": "oracle",
    "Matrix": "matrices",
    "MatrixRing": "rings",
    "Polynomial": "polynomials",
    "PrimeField": "scalars",
    "PrimeFieldElement": "scalars",
    "Quaternion": "quaternions",
    "QuaternionRing": "rings",
    "RationalField": "scalars",
    "Ring": "rings",
    "ScalarRing": "rings",
    "brute_force_exists": "oracle",
    "constant_term": "existence",
    "construct_with_roots": "construct",
    "cross_check_criterion": "oracle",
    "degree_n_existence": "existence",
    "enumerate_ring": "oracle",
    "field_from_json": "scalars",
    "infer_ring": "rings",
    "invertible_difference_construct": "existence",
    "quadratic_existence": "existence",
    "rank": "linalg",
    "ring_from_json": "rings",
    "verify_roots": "construct",
}

__all__ = sorted(["AlgebraError", "DomainError", "Fraction", "MismatchError", "ParseError",
                  *_SUBMODULES])


def __getattr__(name):
    try:
        submodule = _SUBMODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{submodule}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
