"""Existence criteria and constructors for monic polynomials with two
prescribed roots.

Substituting both roots x1 != x2 into x^n + sum_i a_i x^i + a0 and
subtracting eliminates a0, leaving one linear system in the unknown
coefficients, sum_{i<n} a_i*(x1^i - x2^i) = x2^n - x1^n.  For square
matrices over a field it is decided by one elimination: the RREF of
[A_1^T | ... | A_{n-1}^T | B^T], A_i = x1^i - x2^i, B = x2^n - x1^n,
gives the rank (pivots left of the bar), the augmented rank (all
pivots; a solution exists iff they agree, by Kronecker-Capelli), the
particular solution with free variables zero, and the dimension of the
solution space; solving for all a_i jointly, rather than pinning some at
zero first, keeps the criterion complete.  Over any ring with identity, an invertible power
difference x1^j - x2^j yields a direct construction.  Both read their
power differences off one ladder per root; the constant term
a0 = -(x1^n + sum a_i x1^i) comes from the ring's Horner kernel at x1,
and every returned polynomial is evaluated at both roots before it
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import _assert_annihilates
from .errors import DomainError, MismatchError
from .linalg import rank, solve_stacked  # noqa: F401  (bench/tests reads existence.rank)
from .matrices import Matrix
from .polynomials import Polynomial
from .rings import MatrixRing, Ring, infer_ring

# Largest degree the criteria and the direct construction accept: their
# work and, over Q, the height of every power grow with n.  A larger
# degree raises DomainError naming the limit (CLI exit 65).
MAX_DEGREE = 64


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of an existence test for a fixed degree n.

    `coefficients` holds (a1, ..., a_{n-1}) with free variables set to
    zero; `solution_space_dim` counts the free field parameters of the
    coefficient equation (positive dimension over an infinite field means
    infinitely many annihilating polynomials).
    """

    n: int
    rank_difference_matrix: int
    rank_augmented: int
    exists: bool
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    solution_space_dim: int
    ring: MatrixRing

    def polynomial(self) -> Polynomial | None:
        """The monic annihilator x^n + sum a_i x^i + a0, when it exists."""
        if not self.exists:
            return None
        return _monic_polynomial(self.ring, self.coefficients, self.a0)

    def to_json(self) -> dict:
        enc = self.ring.element_to_json
        return {
            "n": self.n,
            "exists": self.exists,
            "rank": self.rank_difference_matrix,
            "rank_augmented": self.rank_augmented,
            "coefficients": (
                [enc(c) for c in self.coefficients] if self.coefficients is not None else None
            ),
            "a0": enc(self.a0) if self.a0 is not None else None,
            "solution_space_dim": self.solution_space_dim,
        }


def _monic_polynomial(ring: Ring, coefficients, a0) -> Polynomial:
    return Polynomial(ring, [a0, *coefficients, ring.one])


def _matrix_pair_ring(x1, x2) -> MatrixRing:
    ring = infer_ring(x1)
    if not isinstance(ring, MatrixRing):
        raise MismatchError("existence criteria apply to square matrices over a field")
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    return ring


def _check_degree(n: int):
    if n < 2:
        raise DomainError("degree must be at least 2")
    if n > MAX_DEGREE:
        raise DomainError(f"degree {n} is above the limit of {MAX_DEGREE} (MAX_DEGREE)")


def quadratic_existence(x1: Matrix, x2: Matrix) -> CriterionReport:
    """Decide whether a monic quadratic with roots x1 and x2 exists: the
    n = 2 case, where rank(x1 - x2) must equal the rank of x1 - x2 with
    the rows of x2^2 - x1^2 stacked below."""
    return _criterion(x1, x2, 2)


def degree_n_existence(x1: Matrix, x2: Matrix, n: int) -> CriterionReport:
    """Decide whether a monic degree-n polynomial with roots x1, x2 exists,
    2 <= n <= MAX_DEGREE, by one elimination of the joint system
    sum_i a_i*(x1^i - x2^i) = x2^n - x1^n."""
    return _criterion(x1, x2, n)


def _criterion(x1: Matrix, x2: Matrix, n: int) -> CriterionReport:
    ring = _matrix_pair_ring(x1, x2)
    _check_degree(n)
    powers1, powers2 = ring.powers(x1, n), ring.powers(x2, n)
    outcome = solve_stacked(
        [powers1[i] - powers2[i] for i in range(1, n)], powers2[n] - powers1[n]
    )
    coefficients = a0 = None
    if outcome.consistent:
        coefficients = outcome.particular
        a0 = _constant_term(ring, coefficients, x1)
        _assert_annihilates(_monic_polynomial(ring, coefficients, a0), (x1, x2))
    return CriterionReport(
        n=n,
        rank_difference_matrix=outcome.rank,
        rank_augmented=outcome.rank_augmented,
        exists=outcome.consistent,
        coefficients=coefficients,
        a0=a0,
        solution_space_dim=outcome.nullspace_dim,
        ring=ring,
    )


def invertible_difference_construct(x1, x2, n: int) -> Polynomial | None:
    """Direct degree-n construction when some x1^j - x2^j is invertible.

    Scans j = 1, ..., n-1 in increasing order, takes the first invertible
    power difference, sets every other a_i to zero and solves for
    a_j = (x2^n - x1^n) * (x1^j - x2^j)^-1.  Returns None when every
    power difference is singular; the joint-system criterion may still
    succeed in that case.  Works over any supported ring, not just
    matrices, the ring of x1; n is at most MAX_DEGREE.
    """
    ring = infer_ring(x1)
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    _check_degree(n)

    powers1, powers2 = ring.powers(x1, n), ring.powers(x2, n)
    for j in range(1, n):
        inverse = ring.invert(powers1[j] - powers2[j])
        if inverse is not None:
            break
    else:
        return None

    coefficients = [ring.zero] * (n - 1)
    coefficients[j - 1] = (powers2[n] - powers1[n]) * inverse
    a0 = _constant_term(ring, coefficients, x1)
    return _assert_annihilates(_monic_polynomial(ring, coefficients, a0), (x1, x2))


def constant_term(coefficients, x1, x2, n: int):
    """Complete x^n + sum a_i x^i with the constant that kills both roots.

    Returns -(sum a_i x1^i) - x1^n and checks it agrees with the x2
    version; a disagreement means the given coefficients do not satisfy
    the subtracted two-root equation.  The ring is that of x1.
    """
    ring = infer_ring(x1)
    coefficients = [ring.check(c) for c in coefficients]
    if len(coefficients) != n - 1:
        raise DomainError(f"expected {n - 1} coefficients for degree {n}")
    from_x1 = _constant_term(ring, coefficients, x1)
    if from_x1 != _constant_term(ring, coefficients, ring.check(x2)):
        raise DomainError(
            "coefficients (a1, ..., a_{n-1}) do not satisfy the two-root difference equation; "
            "no single constant term works for both roots"
        )
    return from_x1


def _constant_term(ring: Ring, coefficients, x):
    """-(x^n + sum_i a_i x^i) for coefficients (a_1, ..., a_(n-1)): minus
    the value at x of x^n + ... + a_1 x, by the ring's Horner kernel."""
    return -ring._horner((ring.zero, *coefficients, ring.one), x)
