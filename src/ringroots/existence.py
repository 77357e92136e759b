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
zero first, keeps the criterion complete.  At n = 2 over M_2 this is the
paper's quadratic criterion, a determinant test: the system is the one
2 x 2 block a_1 (x1 - x2) = x2^2 - x1^2, which ``linalg._solve_blocks``
reads off det(x1 - x2) with no elimination, as x1 - x2 != 0.  A monic
quadratic exists when det(x1 - x2) != 0, and when x1 - x2 has rank one
exactly when the rows of x2^2 - x1^2 lie in the row space of x1 - x2.  The system
is built as ints from one power ladder per root (``_difference_columns``),
block i scaled by m^i, m = lcm of the roots' denominators, which moves
no rank, pivot or free variable.  Over any ring with identity, an
invertible power difference x1^j - x2^j yields a direct construction,
``invertible_difference_construct``, which dispatches on the ring once:
over a matrix ring it looks the pair up in the memo once and, from that
one ladder and block set, finds j by one solve per j it tries (at k = 2
a determinant, with no elimination unless x1^j = x2^j), with no inverse
formed, skipping each j that the rank bound rank(x1^j - x2^j) <=
j*rank(x1 - x2) rules out; over H and the fields j = 1.
``_difference_columns`` memoises its last pair, keyed on the exact
(x1, x2, n).  What a pair shares: the ladders and blocks, built once for
the criterion and the direct construction, and r1 = rank(x1 - x2) with,
when r1 = k, a1.  The criterion leaves those two beside the blocks at no
cost: its pivots are leftmost, so r1 counts those in the first block,
and when there are k of them every pivot is there and its particular
solution is (a1, 0, ..., 0).  The direct construction then runs no
j = 1 elimination of its own.  What stays per call: the a0, the report
or polynomial, and the referee pass; no verdict is kept.  Over a matrix
ring the constant term a0 = -(x1^n + sum a_i x1^i) is summed from x1's
ladder over one denominator, one product per nonzero a_i; over H and
the fields it is -(x1^n + a1 x1) from the powers the direct
construction already has (the oracle sums its witness's a0 by the same
``_ladder_constant_term`` from its own ladder mod p), and only the
public ``constant_term`` runs the ring's evaluation kernel.  The
referee ``rings._assert_annihilates`` evaluates every returned
polynomial at both roots by that kernel before it leaves, so every a0
is checked along a path that did not compute it, and so is a stored a1.
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


def _check_pair(ring: Ring, x1, x2, n: int):
    """Check that the roots are distinct, that n is within [2, MAX_DEGREE]
    and that x2 is in ring, the ring of x1, in that order."""
    if x1 == x2:
        raise DomainError("the two prescribed roots must be distinct")
    _check_degree(n)
    ring.check(x2)


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
    ring = infer_ring(x1)
    if not isinstance(ring, MatrixRing):
        raise MismatchError("existence criteria apply to square matrices over a field")
    _check_pair(ring, x1, x2, n)
    ladder1, blocks, d, first = _difference_columns(x1, x2, n)
    outcome = _solve_blocks(ring.field, blocks, [d ** (n - i) for i in range(1, n)])
    # Leftmost pivots: with k of them in the first block, all pivots are
    # there, and the particular a_1 is the direct construction's j = 1 one.
    r1 = outcome.rank_first
    first[:] = r1, outcome.particular[0] if r1 == ring.k else None
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
    """(ladder1, blocks, m, first): ladder1 = (N1^1, ..., N1^n) from
    ``matrices._power_rows``; blocks[i - 1] holds the columns of the int
    matrix E_i = N1^i (m/d1)^i - N2^i (m/d2)^i = m^i (x1^i - x2^i) for
    i < n, and blocks[n - 1] those of -E_n, where x1 = N1/d1, x2 = N2/d2
    and m = lcm(d1, d2).  Over F_p, m = 1.  At k = 2 each block's two
    columns are written out entry by entry from N1^i = [[a0, a1], [a2, a3]]
    and N2^i = [[b0, b1], [b2, b3]].

    The last pair is memoised on the exact (x1, x2, n), the matrices'
    fields included, so the criterion and the direct construction on one
    pair share its ladders and blocks, which are tuples throughout.  The
    one mutable part, the list `first`, is where the criterion leaves
    [r1, a1] from its own elimination: r1 = rank(x1 - x2), and a1 the
    unique solution of a1 (x1 - x2) = x2^n - x1^n when r1 = k, else None.
    It is empty until the criterion runs on the pair.  The direct
    construction reads it in place of its j = 1 elimination.  No a0,
    report, polynomial or referee pass is kept."""
    d1, d2 = x1._den, x2._den
    m = lcm(d1, d2)
    c1, c2 = m // d1, m // d2
    ladder1, ladder2 = _power_rows(x1, n), _power_rows(x2, n)
    blocks = []
    for i in range(1, n + 1):
        s1, s2 = (c1**i, c2**i) if i < n else (-(c1**i), -(c2**i))
        if len(ladder1[0]) == 2:
            (a0, a1), (a2, a3) = ladder1[i - 1]
            (b0, b1), (b2, b3) = ladder2[i - 1]
            blocks.append(((a0 * s1 - b0 * s2, a2 * s1 - b2 * s2),
                           (a1 * s1 - b1 * s2, a3 * s1 - b3 * s2)))
            continue
        blocks.append(tuple([tuple([a * s1 - b * s2 for a, b in zip(p1, p2)])
                             for p1, p2 in zip(zip(*ladder1[i - 1]), zip(*ladder2[i - 1]))]))
    return tuple(ladder1), tuple(blocks), m, []


def _ladder_constant_term(coefficients, x: Matrix, ladder) -> Matrix:
    """-(x^n + sum_i a_i x^i) for coefficients (a_1, ..., a_(n-1)) and
    ladder = (N^1, ..., N^n) of x = N/d, with one ``_trusted``: over
    L = lcm of the nonzero a_i's dens (a_i = A_i/e_i), it is
    -(L N^n + sum (L/e_i) d^(n-i) A_i N^i) / (L d^n), one int product
    per nonzero a_i and none for a zero one.  At k = 2 each product is
    written out entry by entry, A_i = [[c0, c1], [c2, c3]] on the left of
    N^i = [[m0, m1], [m2, m3]], subtracted from the accumulator's v0..v3;
    any other k runs the general comprehension."""
    n, d = len(ladder), x._den
    terms = [(i, c) for i, c in enumerate(coefficients, 1) if c]
    lead = lcm(*[c._den for _, c in terms])
    acc = [[-lead * v for v in row] for row in ladder[-1]]
    for i, c in terms:
        s = lead // c._den * d ** (n - i)
        if len(acc) == 2:
            (v0, v1), (v2, v3) = acc
            (c0, c1), (c2, c3) = c._rows
            (m0, m1), (m2, m3) = ladder[i - 1]
            acc = ((v0 - s * (c0 * m0 + c1 * m2), v1 - s * (c0 * m1 + c1 * m3)),
                   (v2 - s * (c2 * m0 + c3 * m2), v3 - s * (c2 * m1 + c3 * m3)))
            continue
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
    at j = max(2, ceil(k/r)): one elimination for j = 1, none when the
    criterion ran on the pair first, then one per j until the first
    invertible one.  n is at most MAX_DEGREE.
    """
    ring = infer_ring(x1)
    _check_pair(ring, x1, x2, n)
    coefficients = [ring.zero] * (n - 1)
    if isinstance(ring, MatrixRing):
        # After the criterion on this pair, j = 1 is read off its elimination.
        ladder1, blocks, d, first = _difference_columns(x1, x2, n)
        r1, a = first or _power_difference_solve(ring, blocks, d, 1)
        j = 1
        if a is None:
            for j in range(max(2, -(-ring.k // r1)), n):
                a = _power_difference_solve(ring, blocks, d, j)[1]
                if a is not None:
                    break
            else:
                return None
        coefficients[j - 1] = a
        a0 = _ladder_constant_term(coefficients, x1, ladder1)
    else:
        # H and the fields are division rings: x1 - x2 != 0 is a unit, so j = 1.
        powers1, powers2 = ring.powers(x1, n), ring.powers(x2, n)
        a1 = coefficients[0] = (powers2[n] - powers1[n]) * ring.invert(x1 - x2)
        a0 = -(powers1[n] + a1 * x1)
    coeffs = (a0, *coefficients, ring.one)
    _assert_annihilates(ring, coeffs, (x1, x2))
    return Polynomial(ring, coeffs)


def _power_difference_solve(ring: MatrixRing, blocks, d: int, j: int) -> tuple:
    """(rank(x1^j - x2^j), a_j or None) by one elimination:
    a_j (x1^j - x2^j) = x2^n - x1^n is E_j^T (d^(n-j) a_j^T) = -E_n^T, and
    k pivots left of the bar mean x1^j - x2^j is invertible, and then the
    one solution is a_j, without an inverse or a product."""
    n = len(blocks)
    outcome = _solve_blocks(ring.field, (blocks[j - 1], blocks[-1]), (d ** (n - j),))
    return outcome.rank, outcome.particular[0] if outcome.rank == ring.k else None


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
