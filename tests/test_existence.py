"""Rank criteria for two prescribed roots and the direct constructors."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from ringroots import (
    DomainError,
    Matrix,
    MatrixRing,
    MismatchError,
    Polynomial,
    PrimeField,
    ScalarRing,
    constant_term,
    degree_n_existence,
    enumerate_ring,
    infer_ring,
    invertible_difference_construct,
    quadratic_existence,
    rank,
    verify_roots,
)
from ringroots import existence
from ringroots.existence import (MAX_DEGREE, _constant_term, _difference_columns,
                                 _ladder_constant_term)
from ringroots.matrices import _power_rows

from helpers import (
    F2,
    F3,
    F7,
    HH,
    M2Q,
    M3Q,
    QI,
    QJ,
    QQ,
    RAT,
    RATIONALS,
    involution_pair,
    nilpotent_shift_pair,
    rand_element,
    rand_matrix,
    rank_gap_pair,
    rank_gap_cubic_coefficient,
    reference_constant_term,
    reference_criterion,
    reference_direct,
    reference_rref,
    side_by_side,
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
    assert rank(M2Q.powers(x1, 2)[2] - M2Q.powers(x2, 2)[2]) < 2
    assert invertible_difference_construct(x1, x2, 3) is None


def test_zero_column_pair_has_no_cubic():
    x1, x2 = zero_column_pair()
    report = degree_n_existence(x1, x2, 3)
    assert not report.exists
    assert report.rank_difference_matrix < report.rank_augmented
    # the structural reason: both power differences have a zero first
    # column while the cube difference does not
    p1, p2 = M3Q.powers(x1, 3), M3Q.powers(x2, 3)
    assert not any((x1 - x2).transpose().entries[0])
    assert not any((p1[2] - p2[2]).transpose().entries[0])
    assert any((p2[3] - p1[3]).transpose().entries[0])


def test_constant_term_examples():
    x1, x2 = involution_pair()
    assert constant_term((M2Q.zero,), x1, x2, 2) == -M2Q.one
    n1, n2 = nilpotent_shift_pair()
    assert constant_term((M2Q.zero,), n1, n2, 2) == M2Q.zero
    g1, g2 = rank_gap_pair()
    assert constant_term((rank_gap_cubic_coefficient(), M2Q.zero), g1, g2, 3) == M2Q.zero


BIG_PRIME = 3317044064679887385961813


def _forty_digit_matrix(rng, nrows=2, ncols=None):
    return Matrix.from_rows(QQ, [[Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))
                                  for _ in range(nrows if ncols is None else ncols)]
                                 for _ in range(nrows)])


def _forty_digit_pair(rng, k, rank_one):
    """Two k x k matrices over Q with 40-digit entries: independent, or
    differing by a rank-one matrix, which makes "no" verdicts common."""
    x1 = _forty_digit_matrix(rng, k)
    if rank_one:
        return x1, x1 + _forty_digit_matrix(rng, k, 1) * _forty_digit_matrix(rng, 1, k)
    return x1, _forty_digit_matrix(rng, k)


@pytest.mark.parametrize("ring, draw", [
    pytest.param(M2Q, None, id=repr(M2Q)),
    pytest.param(MatrixRing(3, PrimeField(5)), None, id="MatrixRing(3, PrimeField(5))"),
    pytest.param(HH, None, id=repr(HH)),
    pytest.param(M2Q, _forty_digit_matrix, id="MatrixRing(2, RationalField()), 40 digits"),
    pytest.param(MatrixRing(2, PrimeField(BIG_PRIME)), None,
                 id=f"MatrixRing(2, PrimeField({BIG_PRIME}))"),
])
def test_constant_term_matches_the_ladder_sum(ring, draw):
    # Both constant-term routes, Horner at x and the sum over x's int
    # ladder, against the reference on random, all-zero and one-nonzero
    # coefficients; the ladder route payload for payload.
    rng = random.Random(12)
    draw = draw or (lambda rng: rand_element(rng, ring))
    for n in range(1, 9):
        x = draw(rng)
        one_nonzero = [ring.zero] * (n - 1)
        if n > 1:
            one_nonzero[rng.randrange(n - 1)] = draw(rng)
        for coefficients in ([draw(rng) for _ in range(n - 1)], [ring.zero] * (n - 1), one_nonzero):
            expected = reference_constant_term(ring, coefficients, x)
            assert _constant_term(ring, coefficients, x) == expected
            if isinstance(ring, MatrixRing):
                got = _ladder_constant_term(coefficients, x, _power_rows(x, n))
                assert (got.field, got._rows, got._den) == (ring.field, expected._rows, expected._den)


def test_constant_term_rejects_non_solutions():
    x1, x2 = rank_gap_pair()
    with pytest.raises(DomainError):
        constant_term((M2Q.one,), x1, x2, 2)
    with pytest.raises(DomainError):
        constant_term((M2Q.one,), x1, x2, 3)


def test_direct_construction_over_division_rings():
    # Over H and the fields x1 - x2 is a unit, so j = 1 and a_1 alone
    # carries the construction.
    poly = invertible_difference_construct(QI, QJ, 3)
    assert poly == Polynomial.from_coefficients(
        HH, [HH.zero, HH.one, HH.zero, HH.one]
    )
    assert HH.is_zero(poly.evaluate(QI))
    assert HH.is_zero(poly.evaluate(QJ))
    # (x - 2)(x - 5)(x + 7) over Q, and x^4 + x over F_7, which kills 3 and 5
    assert invertible_difference_construct(Fraction(2), Fraction(5), 3) == (
        Polynomial.from_coefficients(RAT, [70, -39, 0, 1]))
    assert invertible_difference_construct(F7.element(3), F7.element(5), 4) == (
        Polynomial.from_coefficients(ScalarRing(F7), [0, 1, 0, 0, 1]))
    rng = random.Random(29)
    for ring in (RAT, ScalarRing(F7), HH):
        for n in range(2, 6):
            x1, x2 = rand_element(rng, ring), rand_element(rng, ring)
            if x1 != x2:
                assert invertible_difference_construct(x1, x2, n) == reference_direct(x1, x2, n)


def _pair_with_difference_rank(rng, k, r):
    """A seeded M_k(Q) pair (x1, x1 + U V), U of k x r and V of r x k,
    drawn until rank(x2 - x1) = r, within 50 draws."""
    for _ in range(50):
        x1 = rand_matrix(rng, QQ, k)
        x2 = x1 + rand_matrix(rng, QQ, k, r) * rand_matrix(rng, QQ, r, k)
        if rank(x2 - x1) == r:
            return x1, x2
    raise AssertionError(f"no M_{k}(Q) pair with a difference of rank {r} in 50 draws")


def test_the_rank_bounded_direct_scan_matches_the_reference():
    # After j = 1 finds r = rank(x1 - x2) < k, the scan skips every
    # j < ceil(k/r), as rank(x1^j - x2^j) <= j*r; the answer must still be
    # the first invertible j's, as the loop over every j finds it.
    m2f2 = MatrixRing(2, F2)
    for x1, x2 in itertools.permutations(enumerate_ring(m2f2), 2):
        for n in range(2, 5):
            assert invertible_difference_construct(x1, x2, n) == reference_direct(x1, x2, n)
    rng = random.Random(23)
    m3f3 = MatrixRing(3, F3)
    for _ in range(40):
        x1, x2 = rand_element(rng, m3f3), rand_element(rng, m3f3)
        if x1 != x2:
            for n in range(2, 7):
                assert invertible_difference_construct(x1, x2, n) == reference_direct(x1, x2, n)
    for r in (1, 2, 3):
        for _ in range(3):
            x1, x2 = _pair_with_difference_rank(rng, 4, r)
            for n in range(2, 7):
                assert invertible_difference_construct(x1, x2, n) == reference_direct(x1, x2, n)


def test_a_rank_one_difference_costs_one_elimination_below_k(monkeypatch):
    # Over M_4(Q) with rank(x1 - x2) = 1, no j < 4 can be invertible: at
    # n = 4 the scan stops after j = 1, at n = 5 it tries j = 1 and j = 4.
    x1, x2 = _pair_with_difference_rank(random.Random(7), 4, 1)
    tried = []
    solve = existence._solve_blocks

    def spy(field, blocks, dens):
        all_blocks = _difference_columns(x1, x2, n)[1]
        tried.append(next(j for j, b in enumerate(all_blocks, 1) if b is blocks[0]))
        return solve(field, blocks, dens)

    monkeypatch.setattr(existence, "_solve_blocks", spy)
    n = 4
    assert invertible_difference_construct(x1, x2, n) is None
    assert tried == [1]
    n = 5
    tried.clear()
    assert invertible_difference_construct(x1, x2, n) == reference_direct(x1, x2, n)
    assert tried == [1, 4]


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
    for _ in range(200):
        if checked == 60:
            break
        k = rng.randint(1, 3)
        x1 = rand_matrix(rng, QQ, k)
        x2 = rand_matrix(rng, QQ, k)
        if x1 == x2:
            continue
        quad = quadratic_existence(x1, x2)
        generic = degree_n_existence(x1, x2, 2)
        assert quad == generic
        checked += 1
    assert checked == 60


def test_transposed_column_formulation_agrees():
    # the same criterion in transposed form: rank((x1-x2)^T) against the
    # rank of that matrix augmented with (x2^T)^2 - (x1^T)^2
    rng = random.Random(3)
    fixtures = [nilpotent_shift_pair(), involution_pair(), rank_gap_pair()]
    trials = list(fixtures)
    for _ in range(400):
        if len(trials) == 120:
            break
        k = rng.randint(1, 3)
        x1 = rand_matrix(rng, QQ, k)
        x2 = rand_matrix(rng, QQ, k)
        if x1 != x2:
            trials.append((x1, x2))
    assert len(trials) == 120
    for x1, x2 in trials:
        report = quadratic_existence(x1, x2)
        ring = MatrixRing(x1.nrows, QQ)
        dt = (x1 - x2).transpose()
        rhs_t = ring.powers(x2.transpose(), 2)[2] - ring.powers(x1.transpose(), 2)[2]
        assert report.exists == (rank(dt) == rank(side_by_side(dt, rhs_t)))


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
        last = reference_rref(side_by_side(d, Matrix.identity(QQ, 2)))[0][-1]
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
    # a second root of another shape or field is rejected even where no
    # polynomial exists, so that no referee would evaluate it
    g1, _ = rank_gap_pair()
    for other in (M3Q.element([[0, 0, 0], [0, 1, 0], [0, 0, 5]]),
                  Matrix.from_rows(F7, [[0, 0], [0, 1]])):
        for call in (lambda: quadratic_existence(g1, other),
                     lambda: degree_n_existence(other, g1, 3),
                     lambda: invertible_difference_construct(g1, other, 3)):
            with pytest.raises(MismatchError):
                call()
    with pytest.raises(DomainError):
        degree_n_existence(*nilpotent_shift_pair(), 1)
    with pytest.raises(MismatchError):
        quadratic_existence(QQ.element(1), QQ.element(2))


_A = M2Q.element([[1, 2], [3, 4]])
_I3 = Matrix.identity(QQ, 3)
_A_F3 = Matrix.from_rows(F3, [[1, 2], [0, 1]])
_DISTINCT = (DomainError, "the two prescribed roots must be distinct")
_MATRICES_ONLY = (MismatchError, "existence criteria apply to square matrices over a field")
_ABOVE_LIMIT = (DomainError, "degree 65 is above the limit of 64 (MAX_DEGREE)")
_BELOW_TWO = (DomainError, "degree must be at least 2")


def _not_in_m2q(x):
    return (MismatchError, f"{x!r} is not an element of MatrixRing(2, RationalField())")


# Inputs with more than one fault, and the one error each function raises:
# the checks run in a fixed order (ring kind for the criteria, then
# distinct roots, then the degree, then x2's ring), so the first fault wins.
@pytest.mark.parametrize("x1, x2, n, quadratic, degree_n, direct", [
    pytest.param(QI, QI, 2, _MATRICES_ONLY, _MATRICES_ONLY, _DISTINCT, id="equal quaternions"),
    pytest.param(_A, _A, 1, _DISTINCT, _DISTINCT, _DISTINCT, id="equal matrices, n=1"),
    pytest.param(_A, _A, 65, _DISTINCT, _DISTINCT, _DISTINCT, id="equal matrices, n=65"),
    pytest.param(_A, _I3, 65, _not_in_m2q(_I3), _ABOVE_LIMIT, _ABOVE_LIMIT,
                 id="other shape, n=65"),
    pytest.param(_A, _A_F3, 1, _not_in_m2q(_A_F3), _BELOW_TWO, _BELOW_TWO, id="other field, n=1"),
])
def test_preconditions_are_checked_in_a_fixed_order(x1, x2, n, quadratic, degree_n, direct):
    for call, (error, message) in ((lambda: quadratic_existence(x1, x2), quadratic),
                                   (lambda: degree_n_existence(x1, x2, n), degree_n),
                                   (lambda: invertible_difference_construct(x1, x2, n), direct)):
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == message


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
    ring = MatrixRing(x1.nrows, x1.field)
    p1, p2 = ring.powers(x1, n), ring.powers(x2, n)
    system = side_by_side(*((p1[i] - p2[i]).transpose() for i in range(1, n)))
    augmented = side_by_side(system, (p2[n] - p1[n]).transpose())
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("rank_one", [False, True], ids=["independent", "rank-one difference"])
def test_every_degree_from_2k_exists(k, rank_one):
    # Cayley-Hamilton: the product of the two characteristic polynomials is
    # monic of degree 2k with scalar coefficients, so it kills both roots,
    # and x*P kills every root of P, as (x*P)(a) = P(a)*a.  So every
    # n >= 2k has a "yes", on pairs far past the oracle's reach.
    rng = random.Random(f"cayley-hamilton/{k}/{rank_one}")
    for _ in range(3):
        x1, x2 = _forty_digit_pair(rng, k, rank_one)
        for n in (2 * k, 2 * k + 1):
            assert degree_n_existence(x1, x2, n).exists


def test_ranks_match_sympy_over_q():
    # A second elimination, sympy's, on powers sympy builds from the
    # entries: the stacked [(x1^i - x2^i)^T]_(i<n) and it with
    # (x2^n - x1^n)^T appended.  The runtime never imports sympy.  Systems
    # stop at 9 unknown columns, k (n - 1), which keeps the test short.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20)
    verdicts = []
    for k, n in [(k, n) for k in (2, 3, 4) for n in (2, 3, 4, 5) if k * (n - 1) <= 9]:
        x1, x2 = _forty_digit_pair(rng, k, rank_one=(k + n) % 2 == 1)
        report = degree_n_existence(x1, x2, n)
        s1, s2 = (sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                                for row in x.entries]) for x in (x1, x2))
        p1, p2 = [sympy.eye(k)], [sympy.eye(k)]
        for _ in range(n):
            p1.append(p1[-1] * s1)
            p2.append(p2[-1] * s2)
        system = sympy.Matrix.hstack(*((p1[i] - p2[i]).T for i in range(1, n)))
        augmented = system.row_join((p2[n] - p1[n]).T)
        assert report.rank_difference_matrix == system.rank()
        assert report.rank_augmented == augmented.rank()
        verdicts.append(report.exists)
    assert set(verdicts) == {True, False}


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PRIMES = (2, 3, 65521, BIG_PRIME)


@st.composite
def root_pairs(draw):
    """(x1, x2, n), k in 1..4 and n in 2..8, over Q or F_p.  Each root is
    generic, a multiple of J (all ones; J/2 is idempotent at k = 2, and its
    power numerators carry content the canonical form divides out) or
    strictly upper triangular (nilpotent); x2 may also be x1 + u v^T."""
    field = draw(st.one_of(st.just(QQ), st.sampled_from([PrimeField(p) for p in PRIMES])))
    scalars = RATIONALS if field is QQ else st.integers(0, field.p - 1)
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))

    def grid(nrows, ncols):
        return draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    def root():
        shape = draw(st.sampled_from(["generic", "ones", "nilpotent"]))
        if shape == "generic":
            return Matrix.from_rows(field, grid(k, k))
        if shape == "ones":
            c = Fraction(1, 2) if field is QQ and draw(st.booleans()) else draw(scalars)
            return Matrix.from_rows(field, [[c] * k for _ in range(k)])
        g = grid(k, k)
        return Matrix.from_rows(field, [[g[i][j] if j > i else 0 for j in range(k)]
                                        for i in range(k)])

    x1 = root()
    if draw(st.booleans()):
        x2 = x1 + Matrix.from_rows(field, grid(k, 1)) * Matrix.from_rows(field, grid(1, k))
    else:
        x2 = root()
    hypothesis.assume(x1 != x2)
    return x1, x2, n


def _dumps(obj):
    return json.dumps(None if obj is None else obj.to_json())


@hypothesis.settings(max_examples=200)
@hypothesis.given(root_pairs(), st.sampled_from(["criterion first", "direct first", "direct cold"]))
def test_criterion_and_direct_match_the_operator_route(case, order):
    # The integer system from the ladders' numerators must give the very
    # report and polynomial of the Matrix-operator route, whichever of the
    # two fills the pair memo and whether the direct construction finds it
    # filled or cleared.
    x1, x2, n = case
    if order == "direct first":
        direct = _dumps(invertible_difference_construct(x1, x2, n))
        criterion = _dumps(degree_n_existence(x1, x2, n))
    else:
        criterion = _dumps(degree_n_existence(x1, x2, n))
        if order == "direct cold":
            _difference_columns.cache_clear()
        direct = _dumps(invertible_difference_construct(x1, x2, n))
    assert criterion == _dumps(reference_criterion(x1, x2, n))
    assert direct == _dumps(reference_direct(x1, x2, n))


def _both_answers(x1, x2, n):
    return _dumps(degree_n_existence(x1, x2, n)), _dumps(invertible_difference_construct(x1, x2, n))


def test_pair_memo_serves_only_its_own_pair(monkeypatch):
    # Each case follows one that a memo keyed on less than the exact
    # (x1, x2, n) would mistake it for: the same pair at another n, another
    # x2 for the same x1 and n, the roots swapped, and equal payloads over
    # another field.  Run in a row, each must answer as it does cold.
    x1, x2 = zero_column_pair()
    x3 = x2 + M3Q.one
    rows, other = [[1, 1], [0, 1]], [[0, 1], [1, 0]]
    ints, other_ints = [[1, 2], [3, 4]], [[2, 0], [1, 1]]
    cases = [(x1, x2, 3), (x1, x2, 5), (x1, x3, 5), (x3, x1, 5)]
    for field, a, b in ((F2, rows, other), (F3, rows, other),
                        (QQ, ints, other_ints), (PrimeField(5), ints, other_ints)):
        cases.append((Matrix.from_rows(field, a), Matrix.from_rows(field, b), 3))
    cold = []
    for case in cases:
        _difference_columns.cache_clear()
        cold.append(_both_answers(*case))
    assert [_both_answers(*case) for case in cases] == cold
    # Only the swapped pair shares its answers (the same polynomial kills
    # both roots), so every other case tells its predecessor apart.
    assert cold[2] == cold[3] and len(set(cold)) == len(cold) - 1
    # The criterion's r1 and a1 serve its own case only: after the criterion
    # on the predecessor, the direct construction runs its own j = 1
    # elimination on its own blocks, even on the swapped pair, whose a1 is
    # the same.
    first_blocks = []
    solve = existence._solve_blocks

    def spy(field, blocks, dens):
        first_blocks.append(blocks[0])
        return solve(field, blocks, dens)

    monkeypatch.setattr(existence, "_solve_blocks", spy)
    for prev, case, answers in zip(cases, cases[1:], cold[1:]):
        degree_n_existence(*prev)
        first_blocks.clear()
        assert _dumps(invertible_difference_construct(*case)) == answers[1]
        assert first_blocks[0] == _difference_columns(*case)[1][0]


def test_criterion_then_direct_build_each_ladder_once(monkeypatch):
    calls = []

    def spy(x, n):
        calls.append(n)
        return _power_rows(x, n)

    monkeypatch.setattr(existence, "_power_rows", spy)
    _difference_columns.cache_clear()
    rng = random.Random(15)
    x1, x2 = rand_matrix(rng, QQ, 3), rand_matrix(rng, QQ, 3)
    assert degree_n_existence(x1, x2, 4).exists
    assert invertible_difference_construct(x1, x2, 4) is not None
    assert calls == [4, 4]


def test_each_two_root_question_infers_the_ring_once(monkeypatch):
    calls = []

    def spy(x):
        calls.append(x)
        return infer_ring(x)

    monkeypatch.setattr(existence, "infer_ring", spy)
    rng = random.Random(15)
    x1, x2 = rand_matrix(rng, QQ, 3), rand_matrix(rng, QQ, 3)
    assert degree_n_existence(x1, x2, 4).exists
    assert calls == [x1]
    assert invertible_difference_construct(x1, x2, 4) is not None
    assert calls == [x1, x1]


def test_direct_construction_reads_the_pair_memo_once(monkeypatch):
    # The scan over j and the constant term share one system lookup, on a
    # pair found at j = 1 and on one with no invertible power difference.
    calls = []

    def spy(x1, x2, n):
        calls.append(n)
        return _difference_columns(x1, x2, n)

    monkeypatch.setattr(existence, "_difference_columns", spy)
    rng = random.Random(15)
    x1, x2 = rand_matrix(rng, QQ, 3), rand_matrix(rng, QQ, 3)
    assert invertible_difference_construct(x1, x2, 4) is not None
    assert calls == [4]
    assert invertible_difference_construct(*rank_gap_pair(), 3) is None
    assert calls == [4, 3]


def _pairs_for_the_first_block_memo():
    """Seeded (x1, x2) over M_k(Q), M_k(F_3) and M_k(F_7), k = 2..4, one
    with a random x2 (mostly an invertible difference) and one with
    x2 = x1 + u v^T (a rank-one difference) per ring."""
    rng = random.Random(26)
    pairs = []
    for field in (QQ, F3, F7):
        for k in (2, 3, 4):
            x1 = rand_matrix(rng, field, k)
            pairs.append((x1, rand_matrix(rng, field, k)))
            uv = rand_matrix(rng, field, k, 1) * rand_matrix(rng, field, 1, k)
            pairs.append((x1, x1 + uv))
    return [(x1, x2) for x1, x2 in pairs if x1 != x2]


def test_direct_after_the_criterion_answers_as_on_a_cold_memo():
    ranks = set()
    for x1, x2 in _pairs_for_the_first_block_memo():
        ranks.add(rank(x1 - x2) == x1.nrows)
        for n in range(2, 7):
            _difference_columns.cache_clear()
            cold = _dumps(invertible_difference_construct(x1, x2, n))
            degree_n_existence(x1, x2, n)
            assert _dumps(invertible_difference_construct(x1, x2, n)) == cold
    assert ranks == {True, False}


def test_direct_after_the_criterion_runs_no_j1_elimination(monkeypatch):
    # An invertible x1 - x2 needs no elimination at all after the criterion;
    # a rank-one one starts at j = k, so below degree k + 1 it needs none.
    tried = []
    solve = existence._solve_blocks

    def spy(field, blocks, dens):
        tried.append(blocks[0])
        return solve(field, blocks, dens)

    monkeypatch.setattr(existence, "_solve_blocks", spy)
    for x1, x2 in _pairs_for_the_first_block_memo():
        for n in range(2, 7):
            degree_n_existence(x1, x2, n)
            tried.clear()
            invertible_difference_construct(x1, x2, n)
            e1 = _difference_columns(x1, x2, n)[1][0]
            assert e1 not in tried
            if rank(x1 - x2) == x1.nrows:
                assert tried == []


def test_a_corrupted_stored_a1_fails_the_referee():
    rng = random.Random(26)
    x1, x2 = rand_matrix(rng, QQ, 3), rand_matrix(rng, QQ, 3)
    assert rank(x1 - x2) == 3
    degree_n_existence(x1, x2, 4)
    first = _difference_columns(x1, x2, 4)[3]
    assert first[0] == 3
    first[1] = first[1] + M3Q.one
    with pytest.raises(RuntimeError, match="does not annihilate"):
        invertible_difference_construct(x1, x2, 4)
    _difference_columns.cache_clear()


def test_division_ring_direct_construction_evaluates_only_in_the_referee(monkeypatch):
    # Over H and the fields the a0 comes from the powers already built, so
    # the evaluation kernel runs only inside the referee, which then checks
    # x1 along a path that did not compute a0.
    from ringroots import quaternions
    from ringroots.rings import Ring

    inside, outside = [0], []
    referee, values, value_ints = (existence._assert_annihilates, Ring._values,
                                   quaternions._value_ints)

    def in_referee(*args):
        inside[0] += 1
        try:
            return referee(*args)
        finally:
            inside[0] -= 1

    def count(kernel):
        def spy(*args):
            outside.append(not inside[0])
            return kernel(*args)
        return spy

    monkeypatch.setattr(existence, "_assert_annihilates", in_referee)
    monkeypatch.setattr(Ring, "_values", count(values))
    monkeypatch.setattr(quaternions, "_value_ints", count(value_ints))
    assert invertible_difference_construct(QI, QJ, 3) is not None
    assert invertible_difference_construct(Fraction(2), Fraction(5), 3) is not None
    assert invertible_difference_construct(F7.element(3), F7.element(5), 4) is not None
    assert outside and not any(outside)
