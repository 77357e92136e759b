"""Brute-force ground truth over small finite matrix rings.

Exhaustive search is the independent referee for the rank criteria: over
a matrix ring M_k(F_p) every coefficient tuple can be tried.  Since the
constant term is forced once a_1..a_{n-1} are chosen (it must kill the
first root), the search enumerates only those tuples and keeps those for
which both roots give the polynomial the same value.  The first witness
is then checked by evaluating the full monic polynomial at both roots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .construct import _assert_annihilates
from .errors import DomainError
from .existence import _check_degree, _constant_term, _monic_polynomial, degree_n_existence
from .matrices import Matrix, _trusted
from .rings import MatrixRing, Ring
from .scalars import PrimeField

# Most elements a ring, and most coefficient tuples a pair, the oracle
# enumerates; more raises DomainError (exit 65).
MAX_ENUMERATION = 65536

# Most ordered pairs times coefficient tuples one cross-check may try
# (M_2(F_3) at n = 2 needs 524,880); more raises DomainError (exit 65).
MAX_CROSS_CHECK_WORK = 2**20


@dataclass(frozen=True)
class RingEnumeration:
    """All elements of a finite matrix ring, in a fixed order.

    Entries are produced row-major as base-p digits of a counter, most
    significant digit first, so the zero matrix comes first and the order
    is reproducible.  `size` is the element count, p^(k*k).
    """

    ring: MatrixRing
    size: int

    def __iter__(self):
        field, k = self.ring.field, self.ring.k
        for entries in itertools.product(field.elements(), repeat=k * k):
            yield _trusted(field, tuple(entries[i * k : (i + 1) * k] for i in range(k)))


def enumerate_ring(ring: Ring) -> RingEnumeration:
    if not isinstance(ring, MatrixRing) or not isinstance(ring.field, PrimeField):
        raise DomainError("only matrix rings over a prime field can be enumerated")
    # p >= 2, so p^e > MAX_ENUMERATION for every e >= its bit length: the
    # power decides the cap without building p^(k*k) for a large k.
    size = ring.field.p ** min(ring.k * ring.k, MAX_ENUMERATION.bit_length())
    if size > MAX_ENUMERATION:
        raise DomainError(
            f"ring has {ring.field.p}^{ring.k * ring.k} elements, "
            f"above the cap of {MAX_ENUMERATION}"
        )
    return RingEnumeration(ring, size)


@dataclass(frozen=True)
class BruteForceResult:
    exists: bool
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    count: int


def brute_force_exists(x1: Matrix, x2: Matrix, n: int, ring: MatrixRing) -> BruteForceResult:
    """Exhaustively search for monic degree-n annihilators of x1 and x2.

    `count` is the number of (a_1, ..., a_{n-1}) tuples that work (the
    constant term is determined by each tuple, so this equals the number
    of annihilating polynomials).  The first witness in enumeration order
    is returned and double-checked by full polynomial evaluation at both
    roots.
    """
    return _search(x1, x2, n, ring, _search_space(_bounded_enumeration(ring, n)))


def _bounded_enumeration(ring: Ring, n: int) -> RingEnumeration:
    """The enumeration of `ring`, once the degree, the ring size and the
    number of coefficient tuples pass their checks."""
    _check_degree(n)
    enumeration = enumerate_ring(ring)
    if enumeration.size ** (n - 1) > MAX_ENUMERATION:
        raise DomainError(
            f"{enumeration.size ** (n - 1)} coefficient tuples, "
            f"above the cap of {MAX_ENUMERATION}"
        )
    return enumeration


def _search_space(enumeration: RingEnumeration) -> tuple[list, list]:
    """All elements of the enumeration in order, and the residue rows of each."""
    elements = list(enumeration)
    return elements, [_residue_rows(a) for a in elements]


def _search(
    x1: Matrix, x2: Matrix, n: int, ring: MatrixRing, space: tuple[list, list]
) -> BruteForceResult:
    """The search of `brute_force_exists` over `space`, the ring's
    enumeration from `_search_space`.

    A tuple works exactly when x2^n - x1^n + sum_i a_i (x2^i - x1^i) is
    zero; a0 cancels from that difference.  Nothing in it but the a_i
    changes from tuple to tuple, so the target and every product
    a * (x2^i - x1^i) are computed once, as row-major lists of ints
    left unreduced, and each tuple only adds them and tests every entry
    mod p.
    """
    elements, element_rows = space
    p = ring.field.p
    x1_powers = ring.powers(x1, n)
    x2_powers = ring.powers(x2, n)
    target = [e.residue for row in (x2_powers[n] - x1_powers[n]).entries for e in row]
    tables = []
    for i in range(1, n):
        diff_cols = list(zip(*_residue_rows(x2_powers[i] - x1_powers[i])))
        tables.append([
            [sum(map(mul, row, col)) for row in rows for col in diff_cols]
            for rows in element_rows
        ])

    count = 0
    witness = None
    tuples = itertools.product(elements, repeat=n - 1)
    for tup, terms in zip(tuples, itertools.product(*tables)):
        if any(sum(entry) % p for entry in zip(target, *terms)):
            continue
        count += 1
        if witness is None:
            witness = tup
    if witness is None:
        return BruteForceResult(False, None, None, 0)

    a0 = _constant_term(witness, x1_powers)
    _assert_annihilates(_monic_polynomial(ring, witness, a0), (x1, x2))
    return BruteForceResult(True, witness, a0, count)


def _residue_rows(m: Matrix) -> list:
    return [[e.residue for e in row] for row in m.entries]


@dataclass(frozen=True)
class PairRecord:
    x1: Matrix
    x2: Matrix
    criterion_exists: bool
    brute_exists: bool
    brute_count: int
    solution_space_dim: int

    def to_json(self, ring: MatrixRing) -> dict:
        return {
            "x1": ring.element_to_json(self.x1),
            "x2": ring.element_to_json(self.x2),
            "criterion_exists": self.criterion_exists,
            "brute_exists": self.brute_exists,
            "brute_count": self.brute_count,
            "solution_space_dim": self.solution_space_dim,
        }


@dataclass(frozen=True)
class CrossCheckReport:
    ring: MatrixRing
    n: int
    pairs_checked: int
    exists_count: int
    records: tuple[PairRecord, ...]
    disagreements: tuple[PairRecord, ...]

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
    """Compare the rank criterion against exhaustive search on all ordered
    pairs of distinct elements, at most MAX_CROSS_CHECK_WORK tuples in all.
    The disagreement list must come back empty; anything else is a bug in
    one of the two paths."""
    enumeration = _bounded_enumeration(ring, n)
    work = enumeration.size * (enumeration.size - 1) * enumeration.size ** (n - 1)
    if work > MAX_CROSS_CHECK_WORK:
        raise DomainError(
            f"cross-check needs {work} pair-tuple checks, above the limit of "
            f"{MAX_CROSS_CHECK_WORK} (MAX_CROSS_CHECK_WORK)"
        )
    space = _search_space(enumeration)
    records = []
    disagreements = []
    exists_count = 0
    for x1, x2 in itertools.permutations(space[0], 2):
        report = degree_n_existence(x1, x2, n)
        brute = _search(x1, x2, n, ring, space)
        record = PairRecord(
            x1, x2, report.exists, brute.exists, brute.count, report.solution_space_dim
        )
        records.append(record)
        if report.exists:
            exists_count += 1
        if report.exists != brute.exists:
            disagreements.append(record)
    return CrossCheckReport(
        ring, n, len(records), exists_count, tuple(records), tuple(disagreements)
    )
