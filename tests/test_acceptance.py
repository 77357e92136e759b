"""Acceptance suite: one test per exit criterion, exact tolerances.

Every assertion is exact arithmetic (no tolerances to tune); the timed
criteria measure the best of several repeats to shut out scheduler
noise.  Criterion 6 is two Hypothesis properties, one per identity.  Run
with `pytest tests/test_acceptance.py -v -s` to see one pass line per
other criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from ringroots import (
    Matrix,
    Polynomial,
    ScalarRing,
    brute_force_exists,
    constant_term,
    construct_with_roots,
    cross_check_criterion,
    degree_n_existence,
    enumerate_ring,
    invertible_difference_construct,
    quadratic_existence,
    rank,
    verify_roots,
)

from helpers import (
    F7,
    HH,
    M2F2,
    M2Q,
    M3Q,
    QQ,
    elements,
    involution_pair,
    nilpotent_shift_pair,
    rand_quaternion,
    rank_gap_pair,
    rank_gap_cubic_coefficient,
    zero_column_pair,
)


def best_of(fn, repeats=20):
    result = None
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def report_pass(number, message):
    print(f"criterion {number}: PASS - {message}")


def test_criterion_1_nilpotent_pair_regression():
    x1, x2 = nilpotent_shift_pair()
    report, elapsed = best_of(lambda: quadratic_existence(x1, x2))
    assert report.exists
    assert report.rank_difference_matrix == 1
    assert report.rank_augmented == 1
    assert report.solution_space_dim >= 1
    # the returned solution annihilates exactly
    poly = report.polynomial()
    assert verify_roots(poly, [x1, x2]) == (M2Q.zero, M2Q.zero)
    # ... and so does every override from the two-parameter family
    rng = random.Random(1)
    for _ in range(10):
        a1 = Matrix.from_rows(QQ, [[0, rng.randint(-9, 9)], [0, rng.randint(-9, 9)]])
        assert a1 * (x1 - x2) == x2 * x2 - x1 * x1
        a0 = constant_term((a1,), x1, x2, 2)
        override = Polynomial(M2Q, [a0, a1, M2Q.one])
        assert verify_roots(override, [x1, x2]) == (M2Q.zero, M2Q.zero)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report_pass(1, f"ranks 1 = 1, dim {report.solution_space_dim}, {elapsed * 1e6:.0f} us")


def test_criterion_2_involution_pair_regression():
    x1, x2 = involution_pair()

    def run():
        report = quadratic_existence(x1, x2)
        a1 = M2Q.zero
        assert a1 * (x1 - x2) == x2 * x2 - x1 * x1
        return report, constant_term((a1,), x1, x2, 2)

    (report, a0), elapsed = best_of(run)
    assert report.exists
    assert report.rank_difference_matrix == 1
    assert a0 == -M2Q.one
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report_pass(2, f"rank 1, a0 = -identity under the zero override, {elapsed * 1e6:.0f} us")


def test_criterion_3_rank_gap_pair_regression():
    x1, x2 = rank_gap_pair()

    def run():
        quad = quadratic_existence(x1, x2)
        cubic = degree_n_existence(x1, x2, 3)
        direct = invertible_difference_construct(x1, x2, 3)
        return quad, cubic, direct

    (quad, cubic, direct), elapsed = best_of(run, repeats=10)
    assert not quad.exists
    assert quad.rank_difference_matrix == 1
    assert quad.rank_augmented == 2
    assert cubic.exists
    published = Polynomial(
        M2Q, [M2Q.zero, rank_gap_cubic_coefficient(), M2Q.zero, M2Q.one]
    )
    assert verify_roots(published, [x1, x2]) == (M2Q.zero, M2Q.zero)
    assert direct is None
    assert elapsed < 0.010, f"took {elapsed * 1000:.3f} ms"
    report_pass(3, f"no quadratic (1 vs 2), cubic exists, direct path absent, {elapsed * 1e3:.2f} ms")


def test_criterion_4_zero_column_pair_regression():
    x1, x2 = zero_column_pair()
    report, elapsed = best_of(lambda: degree_n_existence(x1, x2, 3), repeats=10)
    assert not report.exists
    assert report.rank_difference_matrix < report.rank_augmented
    assert elapsed < 0.010, f"took {elapsed * 1000:.3f} ms"
    report_pass(4, f"no cubic for the 3x3 pair, {elapsed * 1e3:.2f} ms")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    for n in (2, 3):
        report = cross_check_criterion(M2F2, n)
        assert report.pairs_checked == 240
        assert report.disagreements == ()
        for record in report.records:
            assert record.criterion_exists == record.brute_exists
            if record.criterion_exists:
                assert record.brute_count == 2**record.solution_space_dim
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f} s"
    report_pass(5, f"0 disagreements over 240 pairs at n=2 and n=3, counts match 2^dim, {elapsed:.1f} s")


def polynomials(ring, max_degree):
    """Nonzero polynomials over `ring` with 1..max_degree + 1 coefficients
    from `elements(ring)`, before trailing zeros drop."""
    coefficients = st.lists(elements(ring), min_size=1, max_size=max_degree + 1)
    return coefficients.map(lambda c: Polynomial(ring, c)).filter(lambda p: not p.is_zero())


@pytest.mark.parametrize("ring", [HH, M2Q, M3Q, ScalarRing(F7)], ids=repr)
@hypothesis.settings(max_examples=200)
@hypothesis.given(data=st.data())
def test_criterion_6_factor_theorem(ring, data):
    # P = Q * (x - a) + P(a): the remainder of right division by x - a
    # is the value at a, so x - a right-divides P exactly when P(a) = 0.
    p, a = data.draw(polynomials(ring, 4)), data.draw(elements(ring))
    quotient, remainder = p.divmod_linear(a)
    assert remainder == p.evaluate(a)
    constant = Polynomial.from_coefficients(ring, [remainder])
    assert quotient * Polynomial.x_minus(ring, a) + constant == p


@pytest.mark.parametrize("ring", [HH, M3Q], ids=repr)
@hypothesis.settings(max_examples=200)
@hypothesis.given(data=st.data())
def test_criterion_6_product_evaluation_identity(ring, data):
    # (l*q)(d) = l(h*d*h^-1) * q(d) for h = q(d) invertible.  A draw whose
    # h is not a unit is rejected, so an invert that never succeeds ends
    # in a Hypothesis health-check failure rather than a loop.
    left, right = data.draw(polynomials(ring, 2)), data.draw(polynomials(ring, 2))
    d = data.draw(elements(ring))
    h = right.evaluate(d)
    hinv = ring.invert(h)
    hypothesis.assume(hinv is not None)
    assert (left * right).evaluate(d) == left.evaluate(h * d * hinv) * h


def test_criterion_7_division_ring_construction_total():
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 6)
        roots = [rand_quaternion(rng, span=3, max_den=2) for _ in range(n)]
        trace = construct_with_roots(roots, exact_degree=True)
        assert trace.succeeded
        assert trace.result.degree() == n
        assert all(HH.is_zero(r) for r in verify_roots(trace.result, roots))
        loose = construct_with_roots(roots)
        assert loose.succeeded and loose.result.degree() <= n
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    report_pass(7, f"1000 root sets of size 2-6 constructed and verified, {elapsed:.1f} s")


def test_criterion_8_direct_path_inside_general_path():
    rng = random.Random(8)
    pairs = 0
    direct_hits = 0
    for _ in range(1000):
        if pairs == 500:
            break
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        x1 = Matrix.from_rows(
            QQ,
            [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(k)] for _ in range(k)],
        )
        x2 = Matrix.from_rows(
            QQ,
            [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(k)] for _ in range(k)],
        )
        if x1 == x2:
            continue
        pairs += 1
        direct = invertible_difference_construct(x1, x2, n)
        if direct is None:
            continue
        direct_hits += 1
        report = degree_n_existence(x1, x2, n)
        assert report.exists
        assert all(report.ring.is_zero(r) for r in verify_roots(direct, [x1, x2]))
    assert pairs == 500
    assert direct_hits > 100
    # fixed witness of the strict gap: joint criterion succeeds where the
    # invertible-difference path has nothing to invert
    g1, g2 = rank_gap_pair()
    assert degree_n_existence(g1, g2, 3).exists
    assert invertible_difference_construct(g1, g2, 3) is None
    report_pass(8, f"direct path implied the general one on {direct_hits}/500 pairs; gap witnessed")


def test_criterion_9_singular_difference_solution_families():
    # finite field: every solvable singular-difference pair has at least
    # p = 2 coefficient choices
    singular_exists = 0
    for x1, x2 in itertools.permutations(list(enumerate_ring(M2F2)), 2):
        report = quadratic_existence(x1, x2)
        if not report.exists or rank(x1 - x2) == 2:
            continue
        singular_exists += 1
        brute = brute_force_exists(x1, x2, 2, M2F2)
        assert brute.count >= 2
        assert report.solution_space_dim >= 1
    assert singular_exists > 0

    # rationals: positive solution-space dimension in every such case
    rng = random.Random(9)
    checked = [quadratic_existence(*nilpotent_shift_pair()), quadratic_existence(*involution_pair())]
    attempts = 0
    while len(checked) < 25 and attempts < 3000:
        attempts += 1
        k = rng.randint(2, 3)
        u = [QQ.element(rng.randint(-3, 3)) for _ in range(k)]
        v = [QQ.element(rng.randint(-3, 3)) for _ in range(k)]
        x1 = Matrix(QQ, [[a * b for b in v] for a in u])  # rank <= 1
        x2 = x1 + x1 * x1
        if x1 == x2 or rank(x1 - x2) == k:
            continue
        report = quadratic_existence(x1, x2)
        if report.exists:
            checked.append(report)
    assert len(checked) >= 25
    for report in checked:
        assert report.solution_space_dim >= 1
    report_pass(
        9,
        f"{singular_exists} finite singular pairs with >= 2 solutions; "
        f"{len(checked)} rational cases all with dim >= 1",
    )
