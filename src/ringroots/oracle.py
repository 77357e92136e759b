"""Brute-force ground truth over small finite matrix rings.

The independent referee for the rank criteria: over M_k(F_p) every
coefficient tuple of a monic polynomial with two given right roots can
be tried, and `cross_check_criterion` compares that search with
`degree_n_existence` on every ordered pair of distinct elements.  The
search runs on int rows mod p, one row of the coefficient equation at a
time (row r of a * D depends only on row r of a): each root's powers
come from the oracle's own ladder ``_ladder`` (x * x^i, never the
criteria's ``_power_rows``), the differences and the target from those
rows, and the witness's a0 from x1's ladder by
``existence._ladder_constant_term``.  The witness passes
``rings._assert_annihilates``, the package's referee, which evaluates it
by the int Horner core, a path that computed none of the search.

Its limits count what the search walks, the row tuples per row, and a
cross-check's whole census of them; only `enumerate_ring` counts the
ring's elements, so a pair of a ring too large to list, M_5(F_2) say,
is searched all the same.

One rule orders all that the search walks: ``_extend`` appends a digit
to a counter of vectors whose last digit counts fastest, the order of
`enumerate_ring`.  A row table grows by one row of D_i at a time, a
target row's residuals by one prefix table at a time, and the prefix
rows that name those residuals come in the same order, so the first hit
is the first working tuple, carried as row vectors and never as an index.

At k = 2, the shape of every census the caps admit above k = 1,
the ladder's x * x^i and the row tables' v * D_i are written out entry
by entry in those two places, not taken from a helper the criterion or
the referee also runs (see ``matrices``), so the oracle stays an
independent check of the criterion's own 2 x 2 forms.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .errors import DomainError
from .existence import _check_degree, _ladder_constant_term, degree_n_existence
from .matrices import Matrix, _raw
from .rings import MatrixRing, Ring, _assert_annihilates
from .scalars import PrimeField

# Most elements `enumerate_ring` lists, p^(k*k), and most row tuples
# the search walks per row of a pair, p^(k*(n-1)); more raises
# DomainError (exit 65).  M_4(F_2) is listed whole, and searched up to
# n = 5 (exactly 2^16 row tuples per row).  The row tables add at most
# (n - 1) * p^k <= (n - 1) * p^(k*(n-1)) entries, each an earlier entry
# plus a multiple of one row of D_i, so the costliest pair admitted,
# M_16(F_2) at n = 2, takes about a third of a second.
MAX_ENUMERATION = 65536

# Most row tuples one cross-check may walk: ordered pairs times the k
# rows of p^(k*(n-1)) row tuples each.  M_2(F_2) is admitted up to n = 6
# (491,520) and M_2(F_3) at n = 2 (116,640); M_2(F_2) at n = 7
# (1,966,080) and M_2(F_3) at n = 3 (1,049,760) raise DomainError
# (exit 65).  As s(s - 1) <= 2^20, it also keeps the ring size s under
# MAX_ENUMERATION.
MAX_CROSS_CHECK_WORK = 2**20


def _prime_order(ring: Ring) -> int:
    """p, for ring = M_k(F_p); DomainError for any other ring."""
    if not isinstance(ring, MatrixRing) or not isinstance(ring.field, PrimeField):
        raise DomainError("only matrix rings over a prime field can be enumerated")
    return ring.field.p


def _capped_power(p: int, e: int, counted: str) -> int:
    """p^e, or DomainError when it is above MAX_ENUMERATION; `counted`
    says what p^e counts, with {} where the power goes."""
    # p >= 2, so p^e > MAX_ENUMERATION for every e >= its bit length: the
    # power decides the cap without building p^e for a large e.
    if p ** min(e, MAX_ENUMERATION.bit_length()) > MAX_ENUMERATION:
        raise DomainError(f"{counted.format(f'{p}^{e}')}, above the cap of {MAX_ENUMERATION}")
    return p**e


def _row_tuples(ring: Ring, n: int) -> int:
    """p^(k*(n-1)), the row tuples the search walks per row of a pair of
    ring = M_k(F_p) at degree n, once n and that count pass their caps."""
    _check_degree(n)
    return _capped_power(_prime_order(ring), ring.k * (n - 1), "{} row tuples per row")


def _extend(vectors: list, steps: list, p: int) -> list[tuple[int, ...]]:
    """Every v + s mod p, v from `vectors` outer and s from `steps`
    inner: one more digit of a counter that counts its last digit
    fastest, `enumerate_ring`'s order."""
    return [tuple([(a + b) % p for a, b in zip(v, s)]) for v in vectors for s in steps]


def _row_vectors(ring: MatrixRing) -> list[tuple[int, ...]]:
    """The p^k rows of M_k(F_p) in digit-counting order."""
    return list(itertools.product(range(ring.field.p), repeat=ring.k))


def _ladder(x: Matrix, n: int) -> list:
    """[x^1, ..., x^n] as int rows mod p, for x over F_p: the search's own
    ladder, each power x * x^i, apart from the criterion's kernel.  At
    k = 2 the product is written out entry by entry, x = [[x0, x1],
    [x2, x3]] on the left of x^i = [[y0, y1], [y2, y3]]."""
    p = x.field.p
    ladder = [x._rows]
    if len(ladder[0]) == 2:
        (x0, x1), (x2, x3) = x._rows
        while len(ladder) < n:
            (y0, y1), (y2, y3) = ladder[-1]
            ladder.append((((x0 * y0 + x1 * y2) % p, (x0 * y1 + x1 * y3) % p),
                           ((x2 * y0 + x3 * y2) % p, (x2 * y1 + x3 * y3) % p)))
    while len(ladder) < n:
        cols = tuple(zip(*ladder[-1]))
        ladder.append(tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                             for row in x._rows]))
    return ladder


def enumerate_ring(ring: Ring) -> tuple[Matrix, ...]:
    """All p^(k*k) elements of M_k(F_p): the row-major base-p digits of a
    counter, most significant first, so zero comes first."""
    _capped_power(_prime_order(ring), ring.k * ring.k, "ring has {} elements")
    row_tuples = itertools.product(_row_vectors(ring), repeat=ring.k)
    return tuple(_raw(ring.field, rows, 1) for rows in row_tuples)


class BruteForceResult(NamedTuple):
    coefficients: tuple[Matrix, ...] | None
    a0: Matrix | None
    count: int

    @property
    def exists(self) -> bool:
        return self.count > 0


def brute_force_exists(x1: Matrix, x2: Matrix, n: int, ring: MatrixRing) -> BruteForceResult:
    """Try every (a_1, ..., a_{n-1}) over `ring` for a monic degree-n
    polynomial with right roots x1 and x2, one row at a time.

    Both roots must be in `ring` (MismatchError otherwise).  A tuple
    works exactly when a_1 D_1 + ... + a_{n-1} D_{n-1} equals the target
    -(x2^n - x1^n), where D_i = x2^i - x1^i, read off the two `_ladder`s
    as int rows mod p; a0 cancels from that difference and is then forced
    by x1, so `count` is the number of such polynomials.  Row r of a D_i
    is a[r] D_i, so the k rows of the equation are searched apart and
    `count` is the product of their hit counts.  Each table lists the
    p^k row products v D_i, v in digit-counting order: at k = 2 written
    out entry by entry, D_i = [[d0, d1], [d2, d3]] read as rows, and
    otherwise grown by ``_extend``, one row d of D_i and its multiples
    c d at a time.  For row r, ``_extend`` subtracts the prefix tables
    from the target row, giving one residual per prefix (a_1[r], ...,
    a_{n-2}[r]) of row vectors in digit-counting order, and each residual
    is looked up in the last table, of the a_{n-1}[r] D_{n-1}; a row with
    no hit ends the search with count 0.  The rows being independent,
    row r of each a_i from row r's first hit gives the first working
    tuple in `enumerate_ring` order.  Matrices are built only for that
    witness and its a0, summed from x1's ladder, and the full polynomial
    is then checked at both roots.
    """
    _row_tuples(ring, n)
    ring.check(x1)
    ring.check(x2)
    p = ring.field.p
    rows = _row_vectors(ring)
    ladder1, ladder2 = _ladder(x1, n), _ladder(x2, n)
    tables = []
    for power1, power2 in zip(ladder1[:-1], ladder2[:-1]):
        diff = [[(b - a) % p for a, b in zip(r1, r2)] for r1, r2 in zip(power1, power2)]
        if len(diff) == 2:
            (d0, d1), (d2, d3) = diff
            tables.append([((v0 * d0 + v1 * d2) % p, (v0 * d1 + v1 * d3) % p) for v0, v1 in rows])
            continue
        table = [(0,) * ring.k]
        for d in diff:
            table = _extend(table, [[c * e for e in d] for c in range(p)], p)
        tables.append(table)
    last = tables.pop()
    negated = [[[-e for e in entry] for entry in table] for table in tables]

    count = 1
    firsts = []
    for row1, row2 in zip(ladder1[-1], ladder2[-1]):
        residuals = [tuple([(a - b) % p for a, b in zip(row1, row2)])]
        for steps in negated:
            residuals = _extend(residuals, steps, p)
        hits = 0
        for prefix, residual in zip(itertools.product(rows, repeat=n - 2), residuals):
            found = last.count(residual)
            if found and not hits:
                first = (*prefix, rows[last.index(residual)])
            hits += found
        if not hits:
            return BruteForceResult(None, None, 0)
        count *= hits
        firsts.append(first)

    witness = tuple(_raw(ring.field, vectors, 1) for vectors in zip(*firsts))
    a0 = _ladder_constant_term(witness, x1, ladder1)
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
    tuples = _row_tuples(ring, n)
    # p^k <= 2^16 once the row tuples pass, so size <= 2^256.
    size = ring.field.p ** (ring.k * ring.k)
    work = size * (size - 1) * ring.k * tuples
    if work > MAX_CROSS_CHECK_WORK:
        raise DomainError(
            f"cross-check walks {work} row tuples, above the limit of "
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
