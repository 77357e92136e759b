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
zero first, keeps the criterion complete.  The system is built as ints
from one power ladder per root (``_difference_columns``), block i scaled
by D^i, which moves no rank, pivot or free variable.  Over any ring with
identity, an invertible power difference x1^j - x2^j yields a direct
construction, ``invertible_difference_construct``, which dispatches on
the ring once: over a matrix ring it looks the pair up in the memo once
and, from that one ladder and block set, finds j by one elimination per
j it tries, with no inverse formed, skipping each j that the rank bound
rank(x1^j - x2^j) <= j*rank(x1 - x2) rules out; over H and the fields
j = 1.
``_difference_columns`` memoises its last pair, keyed on the exact
(x1, x2, n), so the criterion and the direct construction run on one
pair build the ladders and blocks once; only these immutable int tuples
are kept, never a verdict or a polynomial.  Over a matrix ring the
constant term a0 = -(x1^n + sum a_i x1^i) is summed from x1's ladder
over one denominator, one product per nonzero a_i; other rings, the
public ``constant_term`` and the oracle run the ring's evaluation kernel
at x1.  The referee ``rings._assert_annihilates`` evaluates every
returned polynomial at both roots by that kernel before it leaves, so a
ladder a0 is checked along a path that did not compute it.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import DomainError, MismatchError
from .linalg import _solve_blocks, rank  # noqa: F401  (bench/tests reads existence.rank)
from .matrices import Matrix, _power_rows, _trusted
from .polynomials import Polynomial
from .rings import MatrixRing, Ring, _assert_annihilates, infer_ring

# Largest degree the criteria and the direct construction accept: their
# work and, over Q, the height of every power grow with n.  A larger
# degree raises DomainError naming the limit (CLI exit 65).
MAX_DEGREE = 64


class CriterionReport(NamedTuple):
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
        return Polynomial(self.ring, [self.a0, *self.coefficients, self.ring.one])

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


def _pair_ring(x1, x2, n: int) -> Ring:
    """The ring of x1, once the roots are distinct, n is within
    [2, MAX_DEGREE] and x2 is in that ring, checked in that order."""
    ring = infer_ring(x1)
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    _check_degree(n)
    ring.check(x2)
    return ring


def _check_degree(n: int):
    if n < 2:
        raise DomainError("degree must be at least 2")
    if n > MAX_DEGREE:
        raise DomainError(f"degree {n} is above the limit of {MAX_DEGREE} (MAX_DEGREE)")


def quadratic_existence(x1: Matrix, x2: Matrix) -> CriterionReport:
    """Decide whether a monic quadratic with roots x1 and x2 exists: the
    report of ``degree_n_existence(x1, x2, 2)``, where rank(x1 - x2) must
    equal the rank of x1 - x2 with the rows of x2^2 - x1^2 stacked below."""
    return _criterion(x1, x2, 2)


def degree_n_existence(x1: Matrix, x2: Matrix, n: int) -> CriterionReport:
    """Decide whether a monic degree-n polynomial with roots x1, x2 exists,
    2 <= n <= MAX_DEGREE, by one elimination of the joint system
    sum_i a_i*(x1^i - x2^i) = x2^n - x1^n."""
    return _criterion(x1, x2, n)


def _criterion(x1: Matrix, x2: Matrix, n: int) -> CriterionReport:
    if not isinstance(infer_ring(x1), MatrixRing):
        raise MismatchError("existence criteria apply to square matrices over a field")
    ring = _pair_ring(x1, x2, n)
    ladder1, blocks, d = _difference_columns(x1, x2, n)
    outcome = _solve_blocks(ring.field, blocks, [d ** (n - i) for i in range(1, n)])
    coefficients = a0 = None
    if outcome.consistent:
        coefficients = outcome.particular
        a0 = _ladder_constant_term(coefficients, x1, ladder1)
        _assert_annihilates(ring, (a0, *coefficients, ring.one), (x1, x2))
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


@lru_cache(maxsize=1)
def _difference_columns(x1: Matrix, x2: Matrix, n: int) -> tuple:
    """(ladder1, blocks, D), all tuples: ladder1 = (N1^1, ..., N1^n) from
    ``matrices._power_rows``; blocks[i - 1] holds the columns of the int
    matrix E_i = N1^i d2^i - N2^i d1^i = D^i (x1^i - x2^i) for i < n, and
    blocks[n - 1] those of -E_n, where x1 = N1/d1, x2 = N2/d2 and
    D = d1*d2.  Over F_p, D = 1.

    The last pair is memoised on the exact (x1, x2, n), the matrices'
    fields included, so the criterion and the direct construction on one
    pair share its ladders and blocks; the result is tuples throughout,
    so no caller can change what the next one reads."""
    d1, d2 = x1._den, x2._den
    ladder1, ladder2 = _power_rows(x1, n), _power_rows(x2, n)
    blocks = []
    for i in range(1, n + 1):
        s1, s2 = (d2**i, d1**i) if i < n else (-(d2**i), -(d1**i))
        blocks.append(tuple([tuple([a * s1 - b * s2 for a, b in zip(c1, c2)])
                             for c1, c2 in zip(zip(*ladder1[i - 1]), zip(*ladder2[i - 1]))]))
    return tuple(ladder1), tuple(blocks), d1 * d2


def _ladder_constant_term(coefficients, x: Matrix, ladder) -> Matrix:
    """-(x^n + sum_i a_i x^i) for coefficients (a_1, ..., a_(n-1)) and
    ladder = (N^1, ..., N^n) of x = N/d, with one ``_trusted``: over
    L = lcm of the nonzero a_i's dens (a_i = A_i/e_i), it is
    -(L N^n + sum (L/e_i) d^(n-i) A_i N^i) / (L d^n), one int product
    per nonzero a_i and none for a zero one."""
    n, d = len(ladder), x._den
    terms = [(i, c) for i, c in enumerate(coefficients, 1) if c]
    lead = lcm(*[c._den for _, c in terms])
    acc = [[-lead * v for v in row] for row in ladder[-1]]
    for i, c in terms:
        s = lead // c._den * d ** (n - i)
        cols = tuple(zip(*ladder[i - 1]))
        acc = [[v - s * sum(map(mul, row, col)) for v, col in zip(acc_row, cols)]
               for acc_row, row in zip(acc, c._rows)]
    return _trusted(x.field, tuple(map(tuple, acc)), lead * d**n)


def invertible_difference_construct(x1, x2, n: int) -> Polynomial | None:
    """Direct degree-n construction when some x1^j - x2^j is invertible.

    Takes the first invertible power difference x1^j - x2^j, j < n, sets
    every other a_i to zero and solves for
    a_j = (x2^n - x1^n) * (x1^j - x2^j)^-1.  Returns None when every
    power difference is singular; the joint-system criterion may still
    succeed in that case.  Works over any supported ring, not just
    matrices, the ring of x1; over H and the fields, division rings,
    j = 1 always.  Over M_k, as x1^j - x2^j = sum_t x1^t (x1 - x2) x2^(j-1-t)
    has rank at most j*r, r = rank(x1 - x2), the scan goes on after j = 1
    at j = max(2, ceil(k/r)): one elimination for j = 1, then one per j
    until the first invertible one.  n is at most MAX_DEGREE.
    """
    ring = _pair_ring(x1, x2, n)
    coefficients = [ring.zero] * (n - 1)
    if isinstance(ring, MatrixRing):
        # a_j (x1^j - x2^j) = x2^n - x1^n is E_j^T (D^(n-j) a_j^T) = -E_n^T:
        # k pivots left of the bar mean x1^j - x2^j is invertible, and then
        # the one solution is a_j, without an inverse or a product.
        ladder1, blocks, d = _difference_columns(x1, x2, n)
        j = 1
        while j < n:
            outcome = _solve_blocks(ring.field, (blocks[j - 1], blocks[-1]), (d ** (n - j),))
            if outcome.rank == ring.k:
                break
            j = j + 1 if j > 1 else max(2, -(-ring.k // outcome.rank))
        else:
            return None
        coefficients[j - 1] = outcome.particular[0]
        a0 = _ladder_constant_term(coefficients, x1, ladder1)
    else:
        # H and the fields are division rings: x1 - x2 != 0 is a unit, so j = 1.
        powers1, powers2 = ring.powers(x1, n), ring.powers(x2, n)
        coefficients[0] = (powers2[n] - powers1[n]) * ring.invert(x1 - x2)
        a0 = _constant_term(ring, coefficients, x1)
    coeffs = (a0, *coefficients, ring.one)
    _assert_annihilates(ring, coeffs, (x1, x2))
    return Polynomial(ring, coeffs)


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
    the value at x of x^n + ... + a_1 x, by the ring's evaluation kernel."""
    return -ring._values((ring.zero, *coefficients, ring.one), (x,))[0]
