"""Brute-force ground truth over small finite matrix rings.

The independent referee for the rank criteria: over M_k(F_p) every
coefficient tuple of a monic polynomial with two given right roots can
be tried, and `cross_check_criterion` compares that search with
`degree_n_existence` on every ordered pair of distinct elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .construct import _assert_annihilates
from .errors import DomainError
from .existence import _check_degree, _constant_term, _monic_polynomial, degree_n_existence
from .matrices import Matrix, _raw
from .rings import MatrixRing, Ring
from .scalars import PrimeField

# Most elements a ring, and most coefficient tuples a pair, the oracle
# enumerates; more raises DomainError (exit 65).
MAX_ENUMERATION = 65536

# Most ordered pairs times coefficient tuples one cross-check may try
# (M_2(F_3) at n = 2 needs 524,880); more raises DomainError (exit 65).
MAX_CROSS_CHECK_WORK = 2**20


def _ring_size(ring: Ring) -> int:
    """p^(k*k), the element count of ring = M_k(F_p), once it passes the cap."""
    if not isinstance(ring, MatrixRing) or not isinstance(ring.field, PrimeField):
        raise DomainError("only matrix rings over a prime field can be enumerated")
    p, e = ring.field.p, ring.k * ring.k
    # p >= 2, so p^e > MAX_ENUMERATION for every e >= its bit length: the
    # power decides the cap without building p^(k*k) for a large k.
    if p ** min(e, MAX_ENUMERATION.bit_length()) > MAX_ENUMERATION:
        raise DomainError(f"ring has {p}^{e} elements, above the cap of {MAX_ENUMERATION}")
    return p**e


def _checked_size(ring: Ring, n: int) -> int:
    """_ring_size(ring), once the degree n and the size^(n-1) coefficient
    tuples per pair also pass their caps."""
    _check_degree(n)
    size = _ring_size(ring)
    tuples = size ** (n - 1)
    if tuples > MAX_ENUMERATION:
        raise DomainError(f"{tuples} coefficient tuples, above the cap of {MAX_ENUMERATION}")
    return size


@lru_cache(maxsize=1)
def enumerate_ring(ring: Ring) -> tuple[Matrix, ...]:
    """All p^(k*k) elements of M_k(F_p): the row-major base-p digits of a
    counter, most significant first, so zero comes first.  Only the most
    recently enumerated ring is kept."""
    _ring_size(ring)
    field, k = ring.field, ring.k
    return tuple(
        _raw(field, tuple(digits[i * k : (i + 1) * k] for i in range(k)), 1)
        for digits in itertools.product(range(field.p), repeat=k * k)
    )


@dataclass(frozen=True)
class BruteForceResult:
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    count: int

    @property
    def exists(self) -> bool:
        return self.count > 0


def brute_force_exists(x1: Matrix, x2: Matrix, n: int, ring: MatrixRing) -> BruteForceResult:
    """Try every (a_1, ..., a_{n-1}) over `ring` for a monic degree-n
    polynomial with right roots x1 and x2.

    A tuple works exactly when x2^n - x1^n + sum_i a_i (x2^i - x1^i) is
    zero; a0 cancels from that difference and is then forced by x1, so
    `count` is the number of such polynomials.  The target and every
    product a * (x2^i - x1^i) are computed once, as row-major int lists
    left unreduced, and each tuple only adds them and tests every entry
    mod p.  The first witness in enumeration order is returned after
    evaluating the full polynomial at both roots.
    """
    _checked_size(ring, n)
    elements = enumerate_ring(ring)
    p = ring.field.p
    x1_powers = ring.powers(x1, n)
    x2_powers = ring.powers(x2, n)
    target = [e for row in (x2_powers[n] - x1_powers[n])._rows for e in row]
    diff_cols = (list(zip(*(x2_powers[i] - x1_powers[i])._rows)) for i in range(1, n))
    tables = [
        [[sum(map(mul, row, col)) for row in a._rows for col in cols] for a in elements]
        for cols in diff_cols
    ]

    tuples = zip(itertools.product(elements, repeat=n - 1), itertools.product(*tables))
    hits = (tup for tup, terms in tuples if not any(sum(e) % p for e in zip(target, *terms)))
    witness = next(hits, None)
    if witness is None:
        return BruteForceResult(None, None, 0)
    count = 1 + sum(1 for _ in hits)

    a0 = _constant_term(witness, x1_powers)
    _assert_annihilates(_monic_polynomial(ring, witness, a0), (x1, x2))
    return BruteForceResult(witness, a0, count)


@dataclass(frozen=True)
class PairRecord:
    x1: Matrix
    x2: Matrix
    criterion_exists: bool
    brute_exists: bool
    brute_count: int
    solution_space_dim: int

    def to_json(self, ring: MatrixRing) -> dict:
        """The fields in declaration order, with both roots encoded."""
        encoded = {"x1": ring.element_to_json(self.x1), "x2": ring.element_to_json(self.x2)}
        return {**vars(self), **encoded}


@dataclass(frozen=True)
class CrossCheckReport:
    ring: MatrixRing
    n: int
    records: tuple[PairRecord, ...]

    @property
    def pairs_checked(self) -> int:
        return len(self.records)

    @property
    def exists_count(self) -> int:
        return sum(r.criterion_exists for r in self.records)

    @property
    def disagreements(self) -> tuple[PairRecord, ...]:
        return tuple(r for r in self.records if r.criterion_exists != r.brute_exists)

    def to_json_lines(self):
        return [r.to_json(self.ring) for r in self.records]

    def summary(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "n": self.n,
            "pairs_checked": self.pairs_checked,
            "exists_count": self.exists_count,
            "disagreements": len(self.disagreements),
        }


def cross_check_criterion(ring: Ring, n: int) -> CrossCheckReport:
    """Compare `degree_n_existence` with `brute_force_exists` on every
    ordered pair of distinct elements of `ring`.  `disagreements` must
    come back empty; anything else is a bug in one of the two."""
    size = _checked_size(ring, n)
    work = size * (size - 1) * size ** (n - 1)
    if work > MAX_CROSS_CHECK_WORK:
        raise DomainError(
            f"cross-check needs {work} pair-tuple checks, above the limit of "
            f"{MAX_CROSS_CHECK_WORK} (MAX_CROSS_CHECK_WORK)"
        )
    records = []
    for x1, x2 in itertools.permutations(enumerate_ring(ring), 2):
        report = degree_n_existence(x1, x2, n)
        brute = brute_force_exists(x1, x2, n, ring)
        records.append(PairRecord(
            x1, x2, report.exists, brute.exists, brute.count, report.solution_space_dim
        ))
    return CrossCheckReport(ring, n, tuple(records))
