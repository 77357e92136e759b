"""Exact arithmetic for polynomials with prescribed right roots over
non-commutative rings: matrix rings over the rationals or a prime field,
and rational quaternions."""

from fractions import Fraction

from .construct import (
    BRANCH_ALREADY_ROOT,
    BRANCH_CONJUGATE,
    BRANCH_FAILED,
    BRANCH_PAD_WITH_X,
    ConstructionStep,
    ConstructionTrace,
    conjugate_shift,
    construct_with_roots,
    verify_roots,
)
from .errors import AlgebraError, DomainError, MismatchError, ParseError
from .existence import (
    CriterionReport,
    constant_term,
    degree_n_existence,
    invertible_difference_construct,
    quadratic_existence,
)
from .linalg import (
    RrefResult,
    StackedSolveOutcome,
    matrix_inverse,
    rank,
    rref,
    solve_stacked,
)
from .matrices import Matrix
from .oracle import (
    BruteForceResult,
    CrossCheckReport,
    brute_force_exists,
    cross_check_criterion,
    enumerate_ring,
)
from .polynomials import Polynomial
from .quaternions import Quaternion
from .rings import (
    MatrixRing,
    QuaternionRing,
    Ring,
    ScalarRing,
    infer_ring,
    ring_from_json,
)
from .scalars import PrimeField, PrimeFieldElement, RationalField, field_from_json

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BRANCH_ALREADY_ROOT",
    "BRANCH_CONJUGATE",
    "BRANCH_FAILED",
    "BRANCH_PAD_WITH_X",
    "BruteForceResult",
    "ConstructionStep",
    "ConstructionTrace",
    "CriterionReport",
    "CrossCheckReport",
    "DomainError",
    "Fraction",
    "Matrix",
    "MatrixRing",
    "MismatchError",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "PrimeFieldElement",
    "Quaternion",
    "QuaternionRing",
    "RationalField",
    "Ring",
    "RrefResult",
    "ScalarRing",
    "StackedSolveOutcome",
    "brute_force_exists",
    "conjugate_shift",
    "constant_term",
    "construct_with_roots",
    "cross_check_criterion",
    "degree_n_existence",
    "enumerate_ring",
    "field_from_json",
    "infer_ring",
    "invertible_difference_construct",
    "matrix_inverse",
    "quadratic_existence",
    "rank",
    "ring_from_json",
    "rref",
    "solve_stacked",
    "verify_roots",
]
