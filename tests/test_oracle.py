"""Exhaustive enumeration and brute-force cross checks on finite rings."""

import itertools
import random

import pytest

from ringroots import (
    DomainError,
    Matrix,
    MatrixRing,
    MismatchError,
    PrimeField,
    brute_force_exists,
    cross_check_criterion,
    enumerate_ring,
    degree_n_existence,
    quadratic_existence,
)
from ringroots import matrices, oracle, rings
from ringroots.existence import MAX_DEGREE
from ringroots.oracle import MAX_CROSS_CHECK_WORK, MAX_ENUMERATION

from helpers import F2, F3, M2F2, M2Q, QI

M2F3 = MatrixRing(2, F3)


def test_enumeration_size_and_uniqueness():
    elems = list(enumerate_ring(M2F2))
    assert len(elems) == 16
    assert len(set(elems)) == 16


def test_enumeration_of_one_by_one_ring():
    ring = MatrixRing(1, F3)
    elems = list(enumerate_ring(ring))
    assert len(elems) == 3
    assert elems[0] == ring.zero


def test_enumeration_is_deterministic_digit_counting():
    elems = list(enumerate_ring(M2F2))
    assert elems[0] == M2F2.zero
    assert elems[1] == Matrix.from_rows(F2, [[0, 0], [0, 1]])
    assert elems[2] == Matrix.from_rows(F2, [[0, 0], [1, 0]])
    assert elems[15] == Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert list(enumerate_ring(M2F2)) == elems


def test_enumeration_rejects_infinite_and_oversized_rings():
    with pytest.raises(DomainError):
        enumerate_ring(M2Q)
    with pytest.raises(DomainError, match="ring has 3\\^16 elements, above the cap of 65536$"):
        enumerate_ring(MatrixRing(4, F3))
    assert len(enumerate_ring(MatrixRing(4, F2))) == MAX_ENUMERATION == 2**16
    with pytest.raises(DomainError):
        enumerate_ring(MatrixRing(5, F2))


def test_enumeration_closed_under_ring_operations():
    elems = set(enumerate_ring(M2F2))
    for a, b in itertools.islice(itertools.product(elems, repeat=2), 64):
        assert a + b in elems
        assert a * b in elems


def test_brute_force_nilpotent_and_zero():
    x1 = M2F2.element([[0, 1], [0, 0]])
    x2 = M2F2.zero
    result = brute_force_exists(x1, x2, 2, M2F2)
    assert result.exists
    # zero tuple comes first in enumeration order, and x^2 kills both
    assert not result.coefficients[0]
    assert not result.a0
    assert result.count >= 1


def test_brute_force_invertible_difference_always_exists():
    found = 0
    elems = list(enumerate_ring(M2F2))
    for x1, x2 in itertools.permutations(elems, 2):
        if M2F2.invert(x1 - x2) is None:
            continue
        assert brute_force_exists(x1, x2, 2, M2F2).exists
        found += 1
    assert found > 0


def test_brute_force_count_matches_solver_dimension():
    elems = list(enumerate_ring(M2F2))
    for x1, x2 in itertools.islice(itertools.permutations(elems, 2), 40):
        report = quadratic_existence(x1, x2)
        brute = brute_force_exists(x1, x2, 2, M2F2)
        assert report.exists == brute.exists
        if report.exists:
            assert brute.count == 2**report.solution_space_dim


def test_brute_force_cap():
    # The search walks p^(k(n-1)) row tuples per row: 4^5 for M_2(F_2) at
    # n = 6, under the cap, and 2^18 at n = 10, above it.
    assert brute_force_exists(M2F2.one, M2F2.zero, 6, M2F2).count == 2**16
    with pytest.raises(DomainError, match="^2\\^18 row tuples per row, above the cap of 65536$"):
        brute_force_exists(M2F2.one, M2F2.zero, 10, M2F2)


def test_cross_check_work_over_the_limit_is_rejected_before_the_first_pair():
    # ordered pairs x k x row tuples: 65521*65520*1*65521 over F_65521
    # and 625*624*2*25 over M_2(F_5); both pass the row-tuple cap
    for ring in (MatrixRing(1, PrimeField(65521)), MatrixRing(2, PrimeField(5))):
        with pytest.raises(DomainError, match="MAX_CROSS_CHECK_WORK"):
            cross_check_criterion(ring, 2)


def test_cross_check_caps_are_decided_before_anything_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("called before the caps were decided")

    # 2^17 row tuples per row fail the row-tuple cap; 2 * 1 * 2^17 would
    # pass the work cap
    monkeypatch.setattr(oracle, "degree_n_existence", fail)
    with pytest.raises(DomainError, match="^2\\^17 row tuples per row, above the cap of 65536$"):
        cross_check_criterion(MatrixRing(1, F2), 18)
    # F_65521 passes the row-tuple cap and fails the work cap; building
    # its elements would have to call _raw
    monkeypatch.setattr(oracle, "_raw", fail)
    with pytest.raises(DomainError, match="MAX_CROSS_CHECK_WORK"):
        cross_check_criterion(MatrixRing(1, PrimeField(65521)), 2)


def test_cross_check_work_limit_admits_the_small_censuses(monkeypatch):
    # The work is ordered pairs x k rows x p^(k(n-1)) row tuples:
    # 240 * 2 * 4^(n-1) over M_2(F_2) and 6480 * 2 * 9^(n-1) over M_2(F_3).
    class Admitted(Exception):
        pass

    def admitted(ring):
        raise Admitted

    monkeypatch.setattr(oracle, "enumerate_ring", admitted)
    for ring, n in ((M2F2, 2), (M2F2, 3), (M2F2, 4), (M2F2, 5), (M2F2, 6), (M2F3, 2)):
        with pytest.raises(Admitted):
            cross_check_criterion(ring, n)
    for ring, n, work in ((M2F2, 7, 1_966_080), (M2F3, 3, 1_049_760)):
        assert work > MAX_CROSS_CHECK_WORK
        with pytest.raises(DomainError, match=f"^cross-check walks {work} row tuples, above "
                                              f"the limit of {MAX_CROSS_CHECK_WORK} "):
            cross_check_criterion(ring, n)


def test_ring_size_is_decided_without_building_the_power():
    # |M_10000(F_3)| = 3^(10^8), a number of about 1.6e8 bits
    huge = MatrixRing(10000, F3)
    with pytest.raises(DomainError):
        enumerate_ring(huge)
    with pytest.raises(DomainError):
        cross_check_criterion(huge, 2)


def test_search_degree_follows_the_criteria_limit():
    ring = MatrixRing(2, F3)
    with pytest.raises(DomainError, match=str(MAX_DEGREE)):
        cross_check_criterion(ring, 30_000_000)
    with pytest.raises(DomainError, match=str(MAX_DEGREE)):
        brute_force_exists(ring.one, ring.zero, 30_000_000, ring)
    with pytest.raises(DomainError):
        cross_check_criterion(ring, 1)


def test_cross_check_commutative_one_by_one():
    ring = MatrixRing(1, F3)
    report = cross_check_criterion(ring, 2)
    assert report.pairs_checked == 6
    assert not report.disagreements
    # over a field every distinct pair has the classical quadratic
    assert report.exists_count == 6


def test_cross_check_record_shape():
    ring = MatrixRing(1, F2)
    report = cross_check_criterion(ring, 2)
    assert report.pairs_checked == 2
    lines = report.to_json_lines()
    # The key order is the CLI's output order.
    assert list(lines[0]) == [
        "x1",
        "x2",
        "criterion_exists",
        "brute_exists",
        "brute_count",
        "solution_space_dim",
    ]
    summary = report.summary()
    assert summary["pairs_checked"] == 2
    assert summary["disagreements"] == 0


def test_cross_check_quadratic_over_two_by_two_f2():
    report = cross_check_criterion(M2F2, 2)
    assert report.pairs_checked == 240
    assert not report.disagreements


def _reference_brute_force(x1, x2, n, ring):
    """The per-tuple search with nothing hoisted, over a literal
    digit-counting enumeration: (exists, count, witness, a0)."""
    k, p = ring.k, ring.field.p
    elements = [
        Matrix.from_rows(ring.field, [digits[i * k : (i + 1) * k] for i in range(k)])
        for digits in itertools.product(range(p), repeat=k * k)
    ]
    x1_powers, x2_powers = ring.powers(x1, n), ring.powers(x2, n)

    count = 0
    witness = None
    witness_a0 = None
    for tup in itertools.product(elements, repeat=n - 1):
        a0 = -x1_powers[n]
        residual = x2_powers[n] - x1_powers[n]
        for i, a in enumerate(tup, start=1):
            a0 = a0 - a * x1_powers[i]
            residual = residual + a * (x2_powers[i] - x1_powers[i])
        if residual:
            continue
        count += 1
        if witness is None:
            witness, witness_a0 = tup, a0
    return count > 0, count, witness, witness_a0


# The cases search with an empty prefix (n = 2) and with prefixes of one
# and two coefficients; each samples as many pairs as keep its reference
# search under about 1 s.  `counts` pins the distinct counts its pairs
# reach: M_3(F_2) has pairs with no polynomial and pairs with several,
# so a count or a witness that mixes up its three rows shows.
@pytest.mark.parametrize(
    "ring, n, pairs, counts",
    [
        (MatrixRing(2, F3), 2, 30, {0, 1, 9}),
        (M2F2, 3, 30, {16, 64}),
        (M2F2, 4, 1, {256}),
        (MatrixRing(1, PrimeField(7)), 4, 10, {49}),
        (MatrixRing(3, F2), 2, 20, {0, 1, 8, 64}),
    ],
    ids=["ring0-2", "ring1-3", "ring2-4", "ring3-4", "ring4-2"],
)
def test_brute_force_matches_unhoisted_reference(ring, n, pairs, counts):
    rng = random.Random(f"oracle-pin/{ring.field.p}/{n}")
    elements = list(enumerate_ring(ring))
    seen = set()
    for _ in range(pairs):
        x1, x2 = rng.sample(elements, 2)
        result = brute_force_exists(x1, x2, n, ring)
        got = (result.exists, result.count, result.coefficients, result.a0)
        assert got == _reference_brute_force(x1, x2, n, ring)
        seen.add(result.count)
    assert seen == counts


def test_brute_force_needs_every_row_of_the_target():
    # Row 0 of the target x1^2 - x2^2 = [[1, 0], [0, 1]] is a row of some
    # a (x2 - x1) and row 1 is none, so although row 0 alone has hits no
    # polynomial exists.
    x1, x2 = M2F2.element([[0, 1], [0, 0]]), M2F2.element([[0, 1], [1, 0]])
    products = [(a * (x2 - x1)).entries for a in enumerate_ring(M2F2)]
    target = (x1 * x1 - x2 * x2).entries
    assert any(rows[0] == target[0] for rows in products)
    assert not any(rows[1] == target[1] for rows in products)
    assert brute_force_exists(x1, x2, 2, M2F2) == (None, None, 0)
    assert _reference_brute_force(x1, x2, 2, M2F2) == (False, 0, None, None)


def _seeded_search_cases():
    """Ten seeded pairs of M_2(F_3) at n = 2 and ten of M_2(F_2) at n = 3."""
    rng = random.Random("oracle-ladders")
    cases = []
    for ring, n in ((MatrixRing(2, F3), 2), (M2F2, 3)):
        elements = list(enumerate_ring(ring))
        cases += [(*rng.sample(elements, 2), n, ring) for _ in range(10)]
    return cases


def test_brute_force_builds_no_power_from_the_criterion_kernel(monkeypatch):
    # The oracle referees the criterion, so its powers come from its own
    # int ladder (`oracle._ladder`, x * x^i mod p), never from the
    # criterion's ladder kernel: with that kernel broken the search
    # answers the same.
    cases = _seeded_search_cases()
    expected = [brute_force_exists(*case) for case in cases]

    def broken(*args):
        raise AssertionError("the oracle read matrices._power_rows")

    monkeypatch.setattr(matrices, "_power_rows", broken)
    assert [brute_force_exists(*case) for case in cases] == expected
    assert any(result.exists for result in expected)


def test_brute_force_computes_a0_without_the_evaluation_kernel(monkeypatch):
    # a0 is summed from x1's ladder, so the referee, which evaluates the
    # witness by the int Horner core, checks it along another path; with
    # the ring's evaluation kernel broken the search answers the same.
    cases = _seeded_search_cases()
    expected = [brute_force_exists(*case) for case in cases]

    def broken(*args):
        raise AssertionError("the oracle read MatrixRing._values")

    monkeypatch.setattr(rings.MatrixRing, "_values", staticmethod(broken))
    assert [brute_force_exists(*case) for case in cases] == expected
    assert any(result.exists for result in expected)


@pytest.mark.parametrize(
    "foreign",
    [Matrix.from_rows(F3, [[1, 0], [0, 1]]), Matrix.identity(F2, 3), QI],
    ids=["other-field", "other-size", "quaternion"],
)
def test_brute_force_rejects_a_root_outside_the_ring(monkeypatch, foreign):
    # Either root outside M_2(F_2) raises before any table is built: the
    # search takes no entry product at all.
    def fail(*args):
        raise AssertionError("a product was taken before both roots were checked")

    monkeypatch.setattr(oracle, "mul", fail)
    x = M2F2.element([[0, 1], [1, 1]])
    for x1, x2 in ((foreign, x), (x, foreign)):
        with pytest.raises(MismatchError):
            brute_force_exists(x1, x2, 2, M2F2)


# The first three rank-one pairs x2 = x1 + u v^T over F_2 of M_3(F_2) and
# of M_4(F_2) with no polynomial of degree k: from random.Random(7), one
# generator per ring, each draw takes x1 row by row, then u, then v, all
# by randrange(2), and skips x1 = x2 and pairs the criterion answers at
# degree k.  They came at draws 5, 6, 7 of M_3(F_2) and 1, 4, 6 of
# M_4(F_2).
RANK_ONE_PAIRS = [
    ([[0, 1, 1], [0, 0, 1], [1, 1, 1]], [[1, 0, 1], [0, 0, 1], [1, 1, 1]]),
    ([[0, 1, 1], [1, 1, 1], [0, 1, 1]], [[0, 1, 1], [1, 1, 1], [0, 1, 0]]),
    ([[0, 0, 1], [1, 1, 0], [0, 1, 1]], [[1, 1, 0], [1, 1, 0], [1, 0, 0]]),
    ([[1, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
     [[1, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]),
    ([[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 1, 0]],
     [[1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 1], [0, 0, 1, 0]]),
    ([[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 0, 0, 0]],
     [[1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 1], [1, 0, 0, 0]]),
]


@pytest.mark.parametrize("x1, x2", RANK_ONE_PAIRS, ids=[f"pair{i}" for i in range(6)])
def test_rank_one_pairs_first_have_a_polynomial_at_degree_k_plus_one(x1, x2):
    # The least degree is k + 1: the search finds nothing for n = 2..k and
    # 2^(k^2 (k-1)) polynomials at k + 1 (2^18 over M_3, 2^48 over M_4,
    # where the search walks 16^4 = MAX_ENUMERATION row tuples per row).
    k = len(x1)
    ring = MatrixRing(k, F2)
    x1, x2 = ring.element(x1), ring.element(x2)
    for n in range(2, k + 2):
        report = degree_n_existence(x1, x2, n)
        brute = brute_force_exists(x1, x2, n, ring)
        assert report.exists == brute.exists == (n == k + 1)
        assert brute.count == (2**report.solution_space_dim if report.exists else 0)
    assert brute.count == 2 ** (k * k * (k - 1))


def _element(ring, rng):
    return ring.element([[rng.randrange(ring.field.p) for _ in range(ring.k)]
                         for _ in range(ring.k)])


@pytest.mark.parametrize("k, p, degrees, pairs", [
    (3, 2, (2, 3, 4, 5), 40),
    (4, 2, (2, 3, 4), 40),
    (3, 3, (2, 3), 30),
    (2, 5, (2, 3), 30),
    (5, 2, (2, 3), 30),
], ids=["M3F2", "M4F2", "M3F3", "M2F5", "M5F2"])
def test_search_agrees_with_the_criterion_past_the_ring_size_cap(k, p, degrees, pairs):
    # Seeded pairs, each x2 uniform or x1 plus a rank-one u v^T, of rings
    # whose searches the old cap on p^(k^2 (n-1)) matrix tuples refused at
    # n >= 3 (at every n for M_5(F_2), whose 2^25 elements it also
    # refused); the search and the criterion agree on each, and the count
    # is p^solution_space_dim.
    ring = MatrixRing(k, PrimeField(p))
    rng = random.Random(f"oracle-reach/{k}/{p}")
    verdicts = set()
    for n in degrees:
        for _ in range(pairs):
            x1 = _element(ring, rng)
            if rng.randrange(2):
                x2 = _element(ring, rng)
            else:
                u, v = rng.choices(range(p), k=k), rng.choices(range(p), k=k)
                x2 = x1 + ring.element([[a * b for b in v] for a in u])
            if x1 == x2:
                continue
            report = degree_n_existence(x1, x2, n)
            brute = brute_force_exists(x1, x2, n, ring)
            assert report.exists == brute.exists
            assert brute.count == (p**report.solution_space_dim if report.exists else 0)
            verdicts.add(report.exists)
    assert verdicts == {False, True}


def test_costliest_admitted_pair_agrees_with_the_criterion():
    # M_16(F_2) at n = 2 walks 2^16 = MAX_ENUMERATION row tuples per row,
    # the most the cap admits, from a table of 2^16 sixteen-entry rows.
    # This seed draws an invertible x1 - x2, so all 16 rows have a hit and
    # the witness goes through the referee.
    ring = MatrixRing(16, F2)
    rng = random.Random("oracle-cost/2")
    x1, x2 = _element(ring, rng), _element(ring, rng)
    report = degree_n_existence(x1, x2, 2)
    brute = brute_force_exists(x1, x2, 2, ring)
    assert report.exists and brute.exists
    assert brute.count == 2**report.solution_space_dim


def test_row_tuple_cap_is_decided_before_any_table_is_built(monkeypatch):
    # M_17(F_2) at n = 2 would walk 2^17 row tuples per row.
    def fail(*args):
        raise AssertionError("built before the row-tuple cap was decided")

    ring = MatrixRing(17, F2)
    for name in ("_row_vectors", "_ladder"):
        monkeypatch.setattr(oracle, name, fail)
    monkeypatch.setattr(ring, "check", fail)
    with pytest.raises(DomainError, match="^2\\^17 row tuples per row, above the cap of 65536$"):
        brute_force_exists(ring.one, ring.zero, 2, ring)
