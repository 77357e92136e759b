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

from .errors import DomainError
from .existence import _constant_term, degree_n_existence, quadratic_existence
from .matrices import Matrix, _trusted
from .polynomials import Polynomial
from .rings import MatrixRing, Ring
from .scalars import PrimeField

DEFAULT_CAP = 65536


@dataclass(frozen=True)
class RingEnumeration:
    """All elements of a finite matrix ring, in a fixed order.

    Entries are produced row-major as base-p digits of a counter, most
    significant digit first, so the zero matrix comes first and the order
    is reproducible.
    """

    ring: MatrixRing
    size: int

    def __iter__(self):
        field = self.ring.field
        p = field.p
        k = self.ring.k
        cells = k * k
        scalars = tuple(field.elements())
        for counter in range(self.size):
            entries = []
            v = counter
            for _ in range(cells):
                entries.append(scalars[v % p])
                v //= p
            entries.reverse()
            yield _trusted(field, tuple(tuple(entries[i * k : (i + 1) * k]) for i in range(k)))


def enumerate_ring(ring: Ring, cap: int = DEFAULT_CAP) -> RingEnumeration:
    if not isinstance(ring, MatrixRing) or not isinstance(ring.field, PrimeField):
        raise DomainError("only matrix rings over a prime field can be enumerated")
    size = ring.field.p ** (ring.k * ring.k)
    if size > cap:
        raise DomainError(f"ring has {size} elements, above the cap of {cap}")
    return RingEnumeration(ring, size)


@dataclass(frozen=True)
class BruteForceResult:
    exists: bool
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    count: int


def brute_force_exists(
    x1: Matrix, x2: Matrix, n: int, ring: MatrixRing, cap: int = DEFAULT_CAP
) -> BruteForceResult:
    """Exhaustively search for monic degree-n annihilators of x1 and x2.

    `count` is the number of (a_1, ..., a_{n-1}) tuples that work (the
    constant term is determined by each tuple, so this equals the number
    of annihilating polynomials).  The first witness in enumeration order
    is returned and double-checked by full polynomial evaluation at both
    roots.
    """
    ring.check(x1)
    ring.check(x2)
    return _search(x1, x2, n, ring, _search_space(ring, n, cap))


def _search_space(ring: Ring, n: int, cap: int) -> tuple[list, list]:
    """All elements of `ring` in enumeration order, and the residue rows
    of each, once the degree and the number of coefficient tuples pass
    their checks."""
    if n < 2:
        raise DomainError("degree must be at least 2")
    enumeration = enumerate_ring(ring, cap)
    if enumeration.size ** (n - 1) > cap:
        raise DomainError(
            f"{enumeration.size ** (n - 1)} coefficient tuples, above the cap of {cap}"
        )
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
    poly = Polynomial(ring, [a0, *witness, ring.one])
    for x in (x1, x2):
        if not ring.is_zero(poly.evaluate(x)):
            raise RuntimeError("internal error: brute-force witness fails evaluation")
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


def cross_check_criterion(ring: Ring, n: int, cap: int = DEFAULT_CAP) -> CrossCheckReport:
    """Compare the rank criterion against exhaustive search on all ordered
    pairs of distinct elements.  The disagreement list must come back
    empty; anything else is a bug in one of the two paths."""
    space = _search_space(ring, n, cap)
    records = []
    disagreements = []
    exists_count = 0
    for x1, x2 in itertools.permutations(space[0], 2):
        if n == 2:
            report = quadratic_existence(x1, x2)
        else:
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
