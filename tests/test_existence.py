"""Rank criteria for two prescribed roots and the direct constructors."""

import random

import pytest

from ringroots import (
    DomainError,
    Matrix,
    MatrixRing,
    MismatchError,
    Polynomial,
    constant_term,
    degree_n_existence,
    invertible_difference_construct,
    quadratic_existence,
    rank,
    rref,
    verify_roots,
)
from ringroots.existence import MAX_DEGREE

from helpers import (
    F2,
    F3,
    F7,
    HH,
    M2Q,
    QI,
    QJ,
    QQ,
    involution_pair,
    nilpotent_shift_pair,
    rand_matrix,
    rank_gap_pair,
    rank_gap_cubic_coefficient,
    reference_rref,
    zero_column_pair,
)


def assert_annihilates(report, x1, x2):
    poly = report.polynomial()
    residuals = verify_roots(poly, [x1, x2])
    assert all(report.ring.is_zero(r) for r in residuals)
    return poly


def test_nilpotent_pair_admits_a_quadratic():
    x1, x2 = nilpotent_shift_pair()
    report = quadratic_existence(x1, x2)
    assert report.exists
    assert report.rank_difference_matrix == 1
    assert report.rank_augmented == 1
    assert report.solution_space_dim == 2
    # free variables at zero: the annihilator degenerates to x^2
    assert not report.coefficients[0]
    assert not report.a0
    assert_annihilates(report, x1, x2)


def test_nilpotent_pair_coefficient_family():
    # every matrix with zero first column solves the coefficient
    # equation; each choice annihilates both roots with its own constant
    x1, x2 = nilpotent_shift_pair()
    rng = random.Random(0)
    for _ in range(20):
        a1 = Matrix.from_rows(
            QQ, [[0, rng.randint(-5, 5)], [0, rng.randint(-5, 5)]]
        )
        assert a1 * (x1 - x2) == x2 * x2 - x1 * x1
        a0 = constant_term((a1,), x1, x2, 2)
        poly = Polynomial(M2Q, [a0, a1, M2Q.one])
        assert all(M2Q.is_zero(r) for r in verify_roots(poly, [x1, x2]))


def test_involution_pair_constant_is_negative_identity():
    x1, x2 = involution_pair()
    report = quadratic_existence(x1, x2)
    assert report.exists
    assert report.rank_difference_matrix == 1
    assert report.rank_augmented == 1
    # the solver's particular choice is already a1 = 0
    assert not report.coefficients[0]
    assert report.a0 == -M2Q.one
    assert_annihilates(report, x1, x2)


def test_rank_gap_pair_has_no_quadratic():
    x1, x2 = rank_gap_pair()
    report = quadratic_existence(x1, x2)
    assert not report.exists
    assert report.rank_difference_matrix == 1
    assert report.rank_augmented == 2
    assert report.coefficients is None
    assert report.a0 is None
    assert report.polynomial() is None


def test_rank_gap_pair_admits_a_cubic():
    x1, x2 = rank_gap_pair()
    report = degree_n_existence(x1, x2, 3)
    assert report.exists
    a1, a2 = report.coefficients
    assert a1 == M2Q.element([[0, 0], [0, -1]])
    assert not a2
    assert not report.a0
    assert_annihilates(report, x1, x2)


def test_rank_gap_pair_published_cubic_verifies():
    # the alternative coefficient choice with a = 1, c = -1 also works
    x1, x2 = rank_gap_pair()
    a1 = rank_gap_cubic_coefficient()
    assert constant_term((a1, M2Q.zero), x1, x2, 3) == M2Q.zero
    poly = Polynomial(M2Q, [M2Q.zero, a1, M2Q.zero, M2Q.one])
    assert all(M2Q.is_zero(r) for r in verify_roots(poly, [x1, x2]))


def test_rank_gap_pair_direct_construction_is_absent():
    x1, x2 = rank_gap_pair()
    assert rank(x1 - x2) < 2
    assert rank(x1**2 - x2**2) < 2
    assert invertible_difference_construct(x1, x2, 3) is None


def test_zero_column_pair_has_no_cubic():
    x1, x2 = zero_column_pair()
    report = degree_n_existence(x1, x2, 3)
    assert not report.exists
    assert report.rank_difference_matrix < report.rank_augmented
    # the structural reason: both power differences have a zero first
    # column while the cube difference does not
    assert not any((x1 - x2).transpose().entries[0])
    assert not any((x1**2 - x2**2).transpose().entries[0])
    assert any((x2**3 - x1**3).transpose().entries[0])


def test_constant_term_examples():
    x1, x2 = involution_pair()
    assert constant_term((M2Q.zero,), x1, x2, 2) == -M2Q.one
    n1, n2 = nilpotent_shift_pair()
    assert constant_term((M2Q.zero,), n1, n2, 2) == M2Q.zero
    g1, g2 = rank_gap_pair()
    assert constant_term((rank_gap_cubic_coefficient(), M2Q.zero), g1, g2, 3) == M2Q.zero


def test_constant_term_rejects_non_solutions():
    x1, x2 = rank_gap_pair()
    with pytest.raises(DomainError):
        constant_term((M2Q.one,), x1, x2, 2)
    with pytest.raises(DomainError):
        constant_term((M2Q.one,), x1, x2, 3)


def test_direct_construction_over_quaternions():
    poly = invertible_difference_construct(QI, QJ, 3)
    assert poly == Polynomial.from_coefficients(
        HH, [HH.zero, HH.one, HH.zero, HH.one]
    )
    assert HH.is_zero(poly.evaluate(QI))
    assert HH.is_zero(poly.evaluate(QJ))


def test_direct_quadratic_matches_unique_solution():
    # with x1 - x2 invertible the coefficient is forced
    rng = random.Random(1)
    for _ in range(30):
        x1 = rand_matrix(rng, QQ, 2)
        x2 = rand_matrix(rng, QQ, 2)
        if x1 == x2 or M2Q.invert(x1 - x2) is None:
            continue
        report = quadratic_existence(x1, x2)
        assert report.exists
        assert report.solution_space_dim == 0
        direct = invertible_difference_construct(x1, x2, 2)
        assert direct == report.polynomial()
        expected_a1 = (x2 * x2 - x1 * x1) * M2Q.invert(x1 - x2)
        assert report.coefficients[0] == expected_a1


def test_degree_two_paths_agree():
    rng = random.Random(2)
    checked = 0
    while checked < 60:
        k = rng.randint(1, 3)
        x1 = rand_matrix(rng, QQ, k)
        x2 = rand_matrix(rng, QQ, k)
        if x1 == x2:
            continue
        quad = quadratic_existence(x1, x2)
        generic = degree_n_existence(x1, x2, 2)
        assert quad == generic
        checked += 1


def test_transposed_column_formulation_agrees():
    # the same criterion in transposed form: rank((x1-x2)^T) against the
    # rank of that matrix augmented with (x2^T)^2 - (x1^T)^2
    rng = random.Random(3)
    fixtures = [nilpotent_shift_pair(), involution_pair(), rank_gap_pair()]
    trials = list(fixtures)
    while len(trials) < 120:
        k = rng.randint(1, 3)
        x1 = rand_matrix(rng, QQ, k)
        x2 = rand_matrix(rng, QQ, k)
        if x1 != x2:
            trials.append((x1, x2))
    for x1, x2 in trials:
        report = quadratic_existence(x1, x2)
        dt = (x1 - x2).transpose()
        rhs_t = x2.transpose() ** 2 - x1.transpose() ** 2
        assert report.exists == (rank(dt) == rank(dt.augment(rhs_t)))


def test_singular_difference_with_solution_has_positive_dimension():
    # and perturbing the particular solution along the kernel gives a
    # second, distinct annihilator
    for x1, x2 in (nilpotent_shift_pair(), involution_pair()):
        report = quadratic_existence(x1, x2)
        assert report.exists
        assert rank(x1 - x2) < 2
        assert report.solution_space_dim >= 1
        # rref([d | 1]) = E [d | 1] with E invertible, so the last row,
        # zero left of the bar as rank(d) < 2, is a left-kernel row E_r of d
        d = x1 - x2
        last = rref(d.augment(Matrix.identity(QQ, 2))).rref.entries[-1]
        assert not any(last[:2])
        bump = Matrix(QQ, [last[2:], (QQ.zero,) * 2])
        assert bump and not bump * d
        a1 = report.coefficients[0] + bump
        assert a1 != report.coefficients[0]
        assert a1 * (x1 - x2) == x2 * x2 - x1 * x1
        a0 = constant_term((a1,), x1, x2, 2)
        poly = Polynomial(M2Q, [a0, a1, M2Q.one])
        assert all(M2Q.is_zero(r) for r in verify_roots(poly, [x1, x2]))


def test_direct_construction_success_implies_criterion_success():
    rng = random.Random(4)
    direct_hits = 0
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        x1 = rand_matrix(rng, QQ, k, span=3)
        x2 = rand_matrix(rng, QQ, k, span=3)
        if x1 == x2:
            continue
        direct = invertible_difference_construct(x1, x2, n)
        report = degree_n_existence(x1, x2, n)
        if direct is not None:
            direct_hits += 1
            assert all(report.ring.is_zero(r) for r in verify_roots(direct, [x1, x2]))
            assert report.exists
    assert direct_hits > 50
    # the converse fails: the rank-gap pair has a cubic but no invertible
    # power difference
    g1, g2 = rank_gap_pair()
    assert degree_n_existence(g1, g2, 3).exists
    assert invertible_difference_construct(g1, g2, 3) is None


def test_random_existing_reports_annihilate():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 3)
        x1 = rand_matrix(rng, QQ, k)
        x2 = rand_matrix(rng, QQ, k)
        if x1 == x2:
            continue
        n = rng.randint(2, 3)
        report = degree_n_existence(x1, x2, n)
        if report.exists:
            assert_annihilates(report, x1, x2)


def test_equal_roots_rejected():
    with pytest.raises(DomainError):
        quadratic_existence(M2Q.one, M2Q.one)
    with pytest.raises(DomainError):
        degree_n_existence(M2Q.one, M2Q.one, 3)
    with pytest.raises(DomainError):
        invertible_difference_construct(QI, QI, 2)


def test_shape_and_degree_preconditions():
    x1, _ = nilpotent_shift_pair()
    with pytest.raises(MismatchError):
        quadratic_existence(x1, Matrix.identity(QQ, 3))
    with pytest.raises(DomainError):
        degree_n_existence(*nilpotent_shift_pair(), 1)
    with pytest.raises(MismatchError):
        quadratic_existence(QQ.element(1), QQ.element(2))


def test_report_json_shape():
    x1, x2 = involution_pair()
    obj = quadratic_existence(x1, x2).to_json()
    assert set(obj) == {
        "n",
        "exists",
        "rank",
        "rank_augmented",
        "coefficients",
        "a0",
        "solution_space_dim",
    }
    assert obj["exists"] is True
    assert obj["a0"] == [["-1", "0"], ["0", "-1"]]

    g1, g2 = rank_gap_pair()
    missing = quadratic_existence(g1, g2).to_json()
    assert missing["exists"] is False
    assert missing["coefficients"] is None
    assert missing["a0"] is None


def test_degree_above_the_limit_is_rejected():
    x1, x2 = involution_pair()
    assert MAX_DEGREE == 64
    assert degree_n_existence(x1, x2, MAX_DEGREE).n == MAX_DEGREE
    for call in (degree_n_existence, invertible_difference_construct):
        with pytest.raises(DomainError, match=str(MAX_DEGREE)):
            call(x1, x2, MAX_DEGREE + 1)
    with pytest.raises(DomainError, match=str(MAX_DEGREE)):
        invertible_difference_construct(QI, QJ, 400)


def _reference_ranks(x1, x2, n):
    """Ranks of the stacked system [A_1^T | ... | A_{n-1}^T] and of it
    augmented with B^T, A_i = x1^i - x2^i and B = x2^n - x1^n, each from
    its own element-wise elimination."""
    system = (x1 - x2).transpose()
    for i in range(2, n):
        system = system.augment((x1**i - x2**i).transpose())
    augmented = system.augment((x2**n - x1**n).transpose())
    return reference_rref(system)[1], reference_rref(augmented)[1]


@pytest.mark.parametrize("field", [QQ, F2, F3, F7], ids=["Q", "F2", "F3", "F7"])
def test_reported_ranks_match_independent_eliminations(field):
    # The verdict, both ranks and the particular solution come from one
    # elimination of the augmented system; here each rank is recomputed
    # separately, so a solver that misreads its own elimination shows.
    rng = random.Random(f"ranks/{field!r}")
    verdicts = set()
    for _ in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        ring = MatrixRing(k, field)
        x1 = rand_matrix(rng, field, k)
        x2 = rand_matrix(rng, field, k)
        if rng.random() < 0.5:
            # a rank-one difference makes inconsistent systems common
            u = rand_matrix(rng, field, k, 1)
            v = rand_matrix(rng, field, 1, k)
            x2 = x1 + u * v
        if x1 == x2:
            continue
        report = quadratic_existence(x1, x2) if n == 2 else degree_n_existence(x1, x2, n)
        rank_sys, rank_aug = _reference_ranks(x1, x2, n)
        assert report.ring == ring
        assert report.rank_difference_matrix == rank_sys
        assert report.rank_augmented == rank_aug
        assert report.exists == (rank_sys == rank_aug)
        assert report.solution_space_dim == k * (k * (n - 1) - rank_sys)
        verdicts.add(report.exists)
    assert verdicts == {True, False}
