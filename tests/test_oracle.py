"""Exhaustive enumeration and brute-force cross checks on finite rings."""

import itertools
import random

import pytest

from ringroots import (
    DomainError,
    Matrix,
    MatrixRing,
    PrimeField,
    brute_force_exists,
    cross_check_criterion,
    enumerate_ring,
    quadratic_existence,
)
from ringroots import matrices, oracle
from ringroots.existence import MAX_DEGREE
from ringroots.oracle import MAX_CROSS_CHECK_WORK, MAX_ENUMERATION

from helpers import F2, F3, M2F2, M2Q


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
    with pytest.raises(DomainError):
        brute_force_exists(M2F2.one, M2F2.zero, 6, M2F2)


def test_cross_check_work_over_the_limit_is_rejected_before_the_first_pair():
    # ordered pairs x coefficient tuples: 65521*65520*65521 over F_65521
    # and 625*624*625 over M_2(F_5); both rings pass the size cap
    for ring in (MatrixRing(1, PrimeField(65521)), MatrixRing(2, PrimeField(5))):
        with pytest.raises(DomainError, match="MAX_CROSS_CHECK_WORK"):
            cross_check_criterion(ring, 2)


def test_cross_check_caps_are_decided_before_anything_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("called before the caps were decided")

    # 2^17 tuples per pair fail the tuple cap; 2 * 1 * 2^17 pass the work cap
    monkeypatch.setattr(oracle, "degree_n_existence", fail)
    with pytest.raises(DomainError, match="^131072 coefficient tuples, above the cap of 65536$"):
        cross_check_criterion(MatrixRing(1, F2), 18)
    # F_65521 passes the ring-size cap and fails the work cap; building
    # its elements would have to call _raw
    monkeypatch.setattr(oracle, "_raw", fail)
    with pytest.raises(DomainError, match="MAX_CROSS_CHECK_WORK"):
        cross_check_criterion(MatrixRing(1, PrimeField(65521)), 2)


def test_cross_check_work_limit_admits_the_small_censuses():
    # M_2(F_2) at n = 2, 3, 4 and M_2(F_3) at n = 2
    for size, n in ((16, 2), (16, 3), (16, 4), (81, 2)):
        assert size * (size - 1) * size ** (n - 1) <= MAX_CROSS_CHECK_WORK


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
# search under about 1 s.
@pytest.mark.parametrize(
    "ring, n, pairs",
    [(MatrixRing(2, F3), 2, 30), (M2F2, 3, 30), (M2F2, 4, 1), (MatrixRing(1, PrimeField(7)), 4, 10)],
    ids=["ring0-2", "ring1-3", "ring2-4", "ring3-4"],
)
def test_brute_force_matches_unhoisted_reference(ring, n, pairs):
    rng = random.Random(f"oracle-pin/{ring.field.p}/{n}")
    elements = list(enumerate_ring(ring))
    for _ in range(pairs):
        x1, x2 = rng.sample(elements, 2)
        result = brute_force_exists(x1, x2, n, ring)
        got = (result.exists, result.count, result.coefficients, result.a0)
        assert got == _reference_brute_force(x1, x2, n, ring)


def test_brute_force_builds_no_power_from_the_criterion_kernel(monkeypatch):
    # The oracle referees the criterion, so its powers come from
    # `Ring.powers` (Matrix products), never from the criterion's int
    # ladder kernel: with that kernel broken the search answers the same.
    rng = random.Random("oracle-ladders")
    cases = []
    for ring, n in ((MatrixRing(2, F3), 2), (M2F2, 3)):
        elements = list(enumerate_ring(ring))
        cases += [(*rng.sample(elements, 2), n, ring) for _ in range(10)]
    expected = [brute_force_exists(*case) for case in cases]

    def broken(*args):
        raise AssertionError("the oracle read matrices._power_rows")

    monkeypatch.setattr(matrices, "_power_rows", broken)
    assert [brute_force_exists(*case) for case in cases] == expected
    assert any(result.exists for result in expected)
