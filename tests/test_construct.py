"""The recursive root-folding construction and its trace."""

import itertools
import random

import pytest

from ringroots import (
    BRANCH_ALREADY_ROOT,
    BRANCH_CONJUGATE,
    BRANCH_FAILED,
    BRANCH_PAD_WITH_X,
    DomainError,
    Matrix,
    MismatchError,
    Polynomial,
    Quaternion,
    conjugate_shift,
    construct_with_roots,
    enumerate_ring,
    verify_roots,
)

from helpers import (
    F2,
    HH,
    M2F2,
    M2Q,
    QI,
    QJ,
    QQ,
    RAT,
    rand_element,
    rand_fraction,
    rand_quaternion,
)


def test_conjugate_shift_quaternion_example():
    # folding j into (x - i): h = j - i, and h*j*h^-1 = -i
    h = QJ - QI
    assert conjugate_shift(QJ, h) == -QI


def test_conjugate_shift_identity_element():
    d = Quaternion(2, 3, 0, 1)
    assert conjugate_shift(d, HH.one) == d


def test_conjugate_shift_commutative_ring_is_trivial():
    rng = random.Random(0)
    for _ in range(20):
        d = rand_fraction(rng)
        h = rand_fraction(rng)
        if h == 0:
            continue
        assert conjugate_shift(d, h) == d


def test_conjugate_shift_requires_invertible():
    with pytest.raises(DomainError):
        conjugate_shift(QI, HH.zero)
    singular = M2Q.element([[1, -1], [-1, 1]])
    with pytest.raises(DomainError):
        conjugate_shift(M2Q.one, singular)


def test_two_pure_units_give_quad_plus_one():
    trace = construct_with_roots([QI, QJ])
    assert trace.succeeded
    assert trace.result == Polynomial.from_coefficients(HH, [HH.one, HH.zero, HH.one])
    assert trace.steps[0].branch == BRANCH_CONJUGATE
    assert trace.steps[0].conjugated_root == -QI
    assert all(HH.is_zero(r) for r in verify_roots(trace.result, [QI, QJ]))


def test_duplicate_root_keeps_polynomial_without_exact_degree():
    x1 = rand_quaternion(random.Random(1))
    trace = construct_with_roots([x1, x1])
    assert trace.result == Polynomial.x_minus(HH, x1)
    assert trace.steps[0].branch == BRANCH_ALREADY_ROOT


def test_duplicate_root_pads_with_x_under_exact_degree():
    x1 = rand_quaternion(random.Random(2))
    trace = construct_with_roots([x1, x1], exact_degree=True)
    assert trace.steps[0].branch == BRANCH_PAD_WITH_X
    assert trace.result.degree() == 2
    assert trace.result.is_monic()
    assert trace.result == Polynomial.x(HH) * Polynomial.x_minus(HH, x1)


def test_commutative_case_degenerates_to_classical_product():
    trace = construct_with_roots([QQ.element(2), QQ.element(5)])
    assert trace.result == Polynomial.from_coefficients(RAT, [10, -7, 1])


def test_commutative_product_matches_symmetric_functions():
    # independent oracle: coefficients of prod (x - x_m) are signed
    # elementary symmetric functions, computed here by enumeration
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        roots = []
        while len(roots) < n:
            c = rand_fraction(rng, span=9)
            if c not in roots:
                roots.append(c)
        trace = construct_with_roots(roots)
        assert trace.succeeded
        coeffs = []
        for m in range(n + 1):
            e = sum(
                (_prod(combo) for combo in itertools.combinations(roots, n - m)),
                start=QQ.zero,
            )
            sign = QQ.one if (n - m) % 2 == 0 else -QQ.one
            coeffs.append(sign * e)
        assert trace.result == Polynomial.from_coefficients(RAT, coeffs)


def _prod(values):
    out = QQ.one
    for v in values:
        out = out * v
    return out


def find_obstructed_pair():
    """Brute search over M_2(F_2) for a pair whose second step evaluates
    to a nonzero singular element."""
    for x1, x2 in itertools.permutations(list(enumerate_ring(M2F2)), 2):
        h = x2 - x1
        if h and M2F2.invert(h) is None:
            return x1, x2
    raise AssertionError("no obstructed pair found")


def test_failed_branch_returns_trace_not_exception():
    x1, x2 = find_obstructed_pair()
    trace = construct_with_roots([x1, x2])
    assert not trace.succeeded
    assert trace.result is None
    assert trace.steps[-1].branch == BRANCH_FAILED
    assert trace.failed_step.index == 1
    assert trace.failed_step.evaluation_value == x2 - x1


def test_success_always_verifies():
    rng = random.Random(4)
    for ring in (HH, M2Q):
        for _ in range(100):
            roots = [rand_element(rng, ring) for _ in range(rng.randint(1, 4))]
            trace = construct_with_roots(roots)
            if trace.succeeded:
                assert all(ring.is_zero(r) for r in verify_roots(trace.result, roots))


def test_prefix_roots_stay_roots_at_every_step():
    # mirror of the induction: after folding m roots, all m are roots
    rng = random.Random(5)
    for _ in range(50):
        roots = [rand_quaternion(rng) for _ in range(5)]
        for m in range(1, 6):
            trace = construct_with_roots(roots[:m])
            assert trace.succeeded
            assert all(HH.is_zero(r) for r in verify_roots(trace.result, roots[:m]))


def test_division_ring_never_fails():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 6)
        roots = [rand_quaternion(rng, span=3, max_den=2) for _ in range(n)]
        trace = construct_with_roots(roots)
        assert trace.succeeded
        assert trace.result.degree() <= n
        assert trace.result.is_monic()
        exact = construct_with_roots(roots, exact_degree=True)
        assert exact.succeeded
        assert exact.result.degree() == n
        assert exact.result.is_monic()


def test_results_are_monic():
    rng = random.Random(7)
    for _ in range(50):
        roots = [rand_quaternion(rng) for _ in range(rng.randint(1, 4))]
        trace = construct_with_roots(roots)
        assert trace.result.is_monic()


def test_empty_roots_rejected():
    with pytest.raises(DomainError):
        construct_with_roots([])


def test_mixed_ring_roots_rejected():
    with pytest.raises(MismatchError):
        construct_with_roots([QI, M2Q.one])
    with pytest.raises(MismatchError):
        construct_with_roots([M2Q.one, Matrix.identity(F2, 2)])


def test_verify_roots_reports_nonzero_residuals():
    p = Polynomial.x_minus(HH, QI)
    residuals = verify_roots(p, [QJ])
    assert residuals == (QJ - QI,)


def test_trace_serialization():
    x1, x2 = find_obstructed_pair()
    failed = construct_with_roots([x1, x2]).to_json()
    assert failed["result"] is None
    assert failed["steps"][-1]["branch"] == "failed"
    assert failed["steps"][-1]["conjugated_root"] is None

    ok = construct_with_roots([QI, QJ]).to_json()
    assert ok["steps"][0]["branch"] == "conjugate"
    assert ok["steps"][0]["index"] == 1
    assert ok["steps"][0]["conjugated_root"] == ["0", "-1", "0", "0"]
    assert Polynomial.from_json(ok["result"]) == Polynomial.from_coefficients(
        HH, [HH.one, HH.zero, HH.one]
    )

    padded = construct_with_roots([QI, QI], exact_degree=True).to_json()
    assert padded["steps"][0]["branch"] == "pad_with_x"
    kept = construct_with_roots([QI, QI]).to_json()
    assert kept["steps"][0]["branch"] == "already_root"
