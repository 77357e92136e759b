"""Existence criteria and constructors for monic polynomials with two
prescribed roots.

For square matrices x1 != x2 over a field, a monic quadratic
x^2 + a1*x + a0 annihilating both exists if and only if the coefficient
equation a1*(x1 - x2) = x2^2 - x1^2 has a solution, which by
Kronecker-Capelli happens exactly when rank(x1 - x2) equals the rank of
(x1 - x2) with the rows of x2^2 - x1^2 stacked below.  The same
subtraction trick turns the degree-n case into one joint linear system in
the unknown coefficient matrices a_1..a_{n-1}, with the constant term
recovered afterwards.  Separately, over any ring with identity, an
invertible power difference x1^j - x2^j yields a direct construction with
the remaining coefficients chosen freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, MismatchError
from .linalg import rank, solve_stacked, solve_xa_eq_b
from .matrices import Matrix
from .polynomials import Polynomial
from .rings import MatrixRing, Ring, infer_ring


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
        return _monic_polynomial(self.ring, self.coefficients, self.a0, self.n)

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


def _monic_polynomial(ring: Ring, coefficients, a0, n: int) -> Polynomial:
    coeffs = [a0, *coefficients]
    coeffs += [ring.zero] * (n - len(coeffs))
    coeffs.append(ring.one)
    return Polynomial(ring, coeffs)


def _matrix_pair_ring(x1, x2) -> MatrixRing:
    ring = infer_ring(x1)
    if not isinstance(ring, MatrixRing):
        raise MismatchError("existence criteria apply to square matrices over a field")
    ring.check(x2)
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    return ring


def _assert_annihilates(ring, coefficients, a0, n, x1, x2):
    poly = _monic_polynomial(ring, coefficients, a0, n)
    for x in (x1, x2):
        if not ring.is_zero(poly.evaluate(x)):
            raise RuntimeError(
                "internal error: existence criterion produced a non-annihilating polynomial"
            )
    return poly


def quadratic_existence(x1: Matrix, x2: Matrix) -> CriterionReport:
    """Decide whether a monic quadratic with roots x1 and x2 exists.

    Verdict via the stacked-rank test; the particular a1 (free variables
    zero) via the row-wise solve of a1*(x1 - x2) = x2^2 - x1^2; a0 from
    either root, with the two expressions checked against each other.
    """
    ring = _matrix_pair_ring(x1, x2)
    diff = x1 - x2
    rhs = x2 * x2 - x1 * x1
    rank_diff = rank(diff)
    rank_aug = rank(diff.stack(rhs))
    exists = rank_diff == rank_aug
    outcome = solve_xa_eq_b(diff, rhs)
    if outcome.consistent != exists:
        raise RuntimeError("internal error: rank test and row solver disagree")
    coefficients = a0 = None
    if exists:
        a1 = outcome.particular
        a0 = constant_term((a1,), x1, x2, 2, ring=ring)
        coefficients = (a1,)
        _assert_annihilates(ring, coefficients, a0, 2, x1, x2)
    return CriterionReport(
        n=2,
        rank_difference_matrix=rank_diff,
        rank_augmented=rank_aug,
        exists=exists,
        coefficients=coefficients,
        a0=a0,
        solution_space_dim=outcome.nullspace_dim,
        ring=ring,
    )


def degree_n_existence(x1: Matrix, x2: Matrix, n: int) -> CriterionReport:
    """Decide whether a monic degree-n polynomial with roots x1, x2 exists.

    Substituting both roots into x^n + sum a_i x^i + a0 and subtracting
    eliminates a0, leaving sum_i a_i*(x1^i - x2^i) = x2^n - x1^n, solved
    jointly for all a_i.  Solving jointly (rather than pinning
    a_2..a_{n-1} at zero first) keeps the criterion complete.
    """
    ring = _matrix_pair_ring(x1, x2)
    if n < 2:
        raise DomainError("degree must be at least 2")
    blocks = [x1**i - x2**i for i in range(1, n)]
    rhs = x2**n - x1**n
    system = blocks[0].transpose()
    for blk in blocks[1:]:
        system = system.augment(blk.transpose())
    rank_sys = rank(system)
    rank_aug = rank(system.augment(rhs.transpose()))
    outcome = solve_stacked(blocks, rhs)
    if outcome.consistent != (rank_sys == rank_aug):
        raise RuntimeError("internal error: rank test and stacked solver disagree")
    coefficients = a0 = None
    if outcome.consistent:
        coefficients = outcome.particular
        a0 = constant_term(coefficients, x1, x2, n, ring=ring)
        _assert_annihilates(ring, coefficients, a0, n, x1, x2)
    return CriterionReport(
        n=n,
        rank_difference_matrix=rank_sys,
        rank_augmented=rank_aug,
        exists=outcome.consistent,
        coefficients=coefficients,
        a0=a0,
        solution_space_dim=outcome.nullspace_dim,
        ring=ring,
    )


def invertible_difference_construct(x1, x2, n: int, free_coefficients=None, *, ring: Ring | None = None) -> Polynomial | None:
    """Direct degree-n construction when some x1^j - x2^j is invertible.

    Scans j = 1, ..., n-1 in increasing order, takes the first invertible
    power difference, and solves for a_j with every other coefficient
    fixed (zero by default, or the entries of `free_coefficients`,
    assigned to the non-solved indices in increasing order).  Returns
    None when every power difference is singular; the joint-system
    criterion may still succeed in that case.  Works over any supported
    ring, not just matrices.
    """
    ring = infer_ring(x1) if ring is None else ring
    ring.check(x1)
    ring.check(x2)
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    if n < 2:
        raise DomainError("degree must be at least 2")

    diffs = {j: ring.sub(ring.pow(x1, j), ring.pow(x2, j)) for j in range(1, n)}
    solved_index = None
    inverse = None
    for j in range(1, n):
        inverse = ring.invert(diffs[j])
        if inverse is not None:
            solved_index = j
            break
    if solved_index is None:
        return None

    other_indices = [i for i in range(1, n) if i != solved_index]
    if free_coefficients is None:
        free_coefficients = [ring.zero] * len(other_indices)
    free_coefficients = [ring.element(c) for c in free_coefficients]
    if len(free_coefficients) != len(other_indices):
        raise DomainError(
            f"expected {len(other_indices)} free coefficients, got {len(free_coefficients)}"
        )

    a = dict(zip(other_indices, free_coefficients))
    target = ring.sub(ring.pow(x2, n), ring.pow(x1, n))
    for i in other_indices:
        target = target - a[i] * diffs[i]
    a[solved_index] = target * inverse

    coefficients = tuple(a[i] for i in range(1, n))
    a0 = constant_term(coefficients, x1, x2, n, ring=ring)
    return _assert_annihilates(ring, coefficients, a0, n, x1, x2)


def constant_term(coefficients, x1, x2, n: int, *, ring: Ring | None = None):
    """Complete x^n + sum a_i x^i with the constant that kills both roots.

    Returns -(sum a_i x1^i) - x1^n and checks it agrees with the x2
    version; a disagreement means the given coefficients do not satisfy
    the subtracted two-root equation.
    """
    ring = infer_ring(x1) if ring is None else ring
    coefficients = [ring.check(c) for c in coefficients]
    if len(coefficients) != n - 1:
        raise DomainError(f"expected {n - 1} coefficients for degree {n}")
    from_x1 = ring.neg(ring.pow(x1, n))
    from_x2 = ring.neg(ring.pow(x2, n))
    for i, c in enumerate(coefficients, start=1):
        from_x1 = from_x1 - c * ring.pow(x1, i)
        from_x2 = from_x2 - c * ring.pow(x2, i)
    if from_x1 != from_x2:
        raise DomainError(
            "coefficients do not satisfy the two-root difference equation; "
            "no single constant term works for both roots"
        )
    return from_x1
