"""Brute-force ground truth over small finite matrix rings.

The independent referee for the rank criteria: over M_k(F_p) every
coefficient tuple of a monic polynomial with two given right roots can
be tried, and `cross_check_criterion` compares that search with
`degree_n_existence` on every ordered pair of distinct elements.  The
witness passes ``rings._assert_annihilates``, the package's referee.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .errors import DomainError
from .existence import _check_degree, _constant_term, degree_n_existence
from .matrices import Matrix, _raw
from .rings import MatrixRing, Ring, _assert_annihilates
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


def _digits(index: int, base: int, count: int) -> list[int]:
    """The `count` base-`base` digits of index, most significant first."""
    digits = [0] * count
    for i in reversed(range(count)):
        index, digits[i] = divmod(index, base)
    return digits


def _row_vectors(ring: MatrixRing) -> list[tuple[int, ...]]:
    """The p^k rows of M_k(F_p) in digit-counting order."""
    return list(itertools.product(range(ring.field.p), repeat=ring.k))


def _element(ring: MatrixRing, rows: list[tuple[int, ...]], index: int) -> Matrix:
    """Element `index` of the enumeration: row r is rows[d_r], where d_r
    is the r-th base-p^k digit of index, most significant first."""
    return _raw(ring.field, tuple(rows[d] for d in _digits(index, len(rows), ring.k)), 1)


def enumerate_ring(ring: Ring) -> tuple[Matrix, ...]:
    """All p^(k*k) elements of M_k(F_p): the row-major base-p digits of a
    counter, most significant first, so zero comes first."""
    size = _ring_size(ring)
    rows = _row_vectors(ring)
    return tuple(_element(ring, rows, index) for index in range(size))


class BruteForceResult(NamedTuple):
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    count: int

    @property
    def exists(self) -> bool:
        return self.count > 0


def brute_force_exists(x1: Matrix, x2: Matrix, n: int, ring: MatrixRing) -> BruteForceResult:
    """Try every (a_1, ..., a_{n-1}) over `ring` for a monic degree-n
    polynomial with right roots x1 and x2.

    A tuple works exactly when a_1 D_1 + ... + a_{n-1} D_{n-1} equals
    the target -(x2^n - x1^n), where D_i = x2^i - x1^i; a0 cancels from
    that difference and is then forced by x1, so `count` is the number of
    such polynomials.  Row r of a D_i is a[r] D_i, so the p^k row
    products v D_i mod p, concatenated k at a time in digit-counting
    order, give the table of all p^(k*k) products a D_i as reduced
    row-major tuples, in `enumerate_ring` order.  For each prefix
    (a_1, ..., a_{n-2}), in enumeration order, one reduced residual is
    compared with every product a_{n-1} D_{n-1} by one `list.count`,
    and `list.index` locates the first hit.  So every tuple is tested, in
    enumeration order, and matrices are built only for the first
    witness, which is checked by evaluating the full polynomial at both
    roots.
    """
    size = _checked_size(ring, n)
    p = ring.field.p
    rows = _row_vectors(ring)
    x1_powers = ring.powers(x1, n)
    x2_powers = ring.powers(x2, n)
    target = [-e % p for row in (x2_powers[n] - x1_powers[n])._rows for e in row]
    tables = []
    for i in range(1, n):
        cols = list(zip(*(x2_powers[i] - x1_powers[i])._rows))
        row_products = [tuple([sum(map(mul, v, col)) % p for col in cols]) for v in rows]
        table = [()]
        for _ in range(ring.k):
            table = [a + r for a in table for r in row_products]
        tables.append(table)
    last = tables.pop()

    count = 0
    first = None
    for prefix_index, terms in enumerate(itertools.product(*tables)):
        residual = tuple((t - sum(e)) % p for t, *e in zip(target, *terms))
        hits = last.count(residual)
        if hits and first is None:
            first = prefix_index * size + last.index(residual)
        count += hits
    if first is None:
        return BruteForceResult(None, None, 0)

    witness = tuple(_element(ring, rows, d) for d in _digits(first, size, n - 1))
    a0 = _constant_term(ring, witness, x1)
    _assert_annihilates(ring, (a0, *witness, ring.one), (x1, x2))
    return BruteForceResult(witness, a0, count)


class PairRecord(NamedTuple):
    x1: Matrix
    x2: Matrix
    criterion_exists: bool
    brute_exists: bool
    brute_count: int
    solution_space_dim: int

    def to_json(self, ring: MatrixRing) -> dict:
        """The fields in declaration order, with both roots encoded."""
        encoded = {"x1": ring.element_to_json(self.x1), "x2": ring.element_to_json(self.x2)}
        return {**self._asdict(), **encoded}


class CrossCheckReport(NamedTuple):
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
