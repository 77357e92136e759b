"""The recursive root-folding construction and its trace."""

import itertools
import random
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from ringroots import (
    BRANCH_ALREADY_ROOT,
    BRANCH_CONJUGATE,
    BRANCH_FAILED,
    BRANCH_PAD_WITH_X,
    DomainError,
    Matrix,
    MatrixRing,
    MismatchError,
    Polynomial,
    Quaternion,
    brute_force_exists,
    construct_with_roots,
    degree_n_existence,
    enumerate_ring,
    invertible_difference_construct,
    verify_roots,
)
from ringroots import construct, existence, matrices, oracle, quaternions
from ringroots.rings import _assert_annihilates

from helpers import (
    BIG,
    F2,
    F3,
    F7,
    HH,
    M2F2,
    M2Q,
    QI,
    QJ,
    QQ,
    RAT,
    involution_pair,
    rand_element,
    rand_fraction,
    rand_quaternion,
    reference_construct,
)

M2F3 = MatrixRing(2, F3)
M2F7 = MatrixRing(2, F7)


def test_conjugate_step_with_identity_value_keeps_the_root():
    # folding d into (x - (d - 1)): h = 1, so h*d*h^-1 = d
    d = Quaternion(2, 3, 0, 1)
    (step,) = construct_with_roots([d - 1, d]).steps
    assert step.branch == BRANCH_CONJUGATE
    assert step.evaluation_value == HH.one and step.conjugated_root == d


def test_conjugate_step_over_a_commutative_ring_is_trivial():
    rng = random.Random(0)
    for _ in range(20):
        roots = [rand_fraction(rng) for _ in range(3)]
        for step in construct_with_roots(roots).steps:
            if step.branch == BRANCH_CONJUGATE:
                assert step.conjugated_root == roots[step.index]


def test_two_pure_units_give_quad_plus_one():
    # folding j into (x - i): h = j - i, and h*j*h^-1 = -i
    trace = construct_with_roots([QI, QJ])
    assert trace.succeeded
    assert trace.result == Polynomial.from_coefficients(HH, [HH.one, HH.zero, HH.one])
    assert trace.steps[0].branch == BRANCH_CONJUGATE
    assert trace.steps[0].evaluation_value == QJ - QI
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
    assert trace.result == Polynomial(HH, (HH.zero, HH.one)) * Polynomial.x_minus(HH, x1)


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
        for _ in range(100):
            if len(roots) == n:
                break
            c = rand_fraction(rng, span=9)
            if c not in roots:
                roots.append(c)
        assert len(roots) == n
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


def test_every_root_is_checked_before_the_fold():
    # A foreign root after an obstructing step is still rejected: the
    # roots are checked once, up front, not as the fold reaches them.
    x1, x2 = find_obstructed_pair()
    with pytest.raises(MismatchError):
        construct_with_roots([x1, x2, QI])


# The pair of each matrix case has an invertible difference, so the
# construction, the criterion, the direct construction and the search all
# reach their referee.
_X1, _X2 = M2Q.element([[1, 2], [3, 4]]), M2Q.element([[0, 1], [1, 0]])
_B1, _B2 = M2F2.element([[0, 1], [0, 0]]), M2F2.element([[1, 0], [0, 1]])
_C1, _C2 = M2F3.element([[1, 1], [0, 1]]), M2F3.element([[0, 1], [1, 0]])
_D1, _D2 = M2F7.element([[3, 1], [0, 3]]), M2F7.element([[5, 6], [2, 0]])


@pytest.mark.parametrize(
    "module, producer, wrong, run",
    [
        (existence, "_ladder_constant_term", lambda a0: a0 + M2Q.one,
         lambda: degree_n_existence(_X1, _X2, 3)),
        (existence, "_ladder_constant_term", lambda a0: a0 + M2Q.one,
         lambda: invertible_difference_construct(_X1, _X2, 3)),
        (construct, "_conjugated_root", lambda s: s + Quaternion(1),
         lambda: construct_with_roots([QI, QJ])),
        (construct, "_times_x_minus", lambda c: [c[0] + M2Q.one, *c[1:]],
         lambda: construct_with_roots([_X1, _X2])),
        (oracle, "_ladder_constant_term", lambda a0: a0 + M2F2.one,
         lambda: brute_force_exists(_B1, _B2, 2, M2F2)),
        (existence, "_ladder_constant_term", lambda a0: a0 + M2F3.one,
         lambda: degree_n_existence(_C1, _C2, 3)),
        (existence, "_ladder_constant_term", lambda a0: a0 + M2F3.one,
         lambda: invertible_difference_construct(_C1, _C2, 3)),
        (construct, "_times_x_minus", lambda c: [c[0] + M2F2.one, *c[1:]],
         lambda: construct_with_roots([_B1, _B2])),
        (existence, "_ladder_constant_term", lambda a0: a0 + M2F7.one,
         lambda: invertible_difference_construct(_D1, _D2, 4)),
    ],
    ids=["criterion-a0", "direct-a0", "conjugated-root-over-H", "times-x-minus-over-M2Q",
         "oracle-a0", "criterion-a0-over-M2F3", "direct-a0-over-M2F3",
         "times-x-minus-over-M2F2", "direct-a0-over-M2F7"],
)
def test_the_referee_rejects_a_wrong_result(monkeypatch, module, producer, wrong, run):
    # Each producer, made to return a wrong value, must end in the
    # referee's RuntimeError rather than in a returned result.
    run()
    original = getattr(module, producer)
    monkeypatch.setattr(module, producer, lambda *args: wrong(original(*args)))
    with pytest.raises(RuntimeError, match="does not annihilate"):
        run()


def test_the_referee_reads_residues_over_f_p():
    # x - r at r over M_2(F_7): the core's unreduced accumulator is
    # r + (-r) on the residues, a nonzero multiple of 7, which is zero.
    coeffs, root = (-_D1, M2F7.one), _D1
    ((acc, den),) = matrices._value_rows(coeffs, (root,))
    assert den == 1 and any(map(any, acc))
    assert not any(a % 7 for row in acc for a in row)
    _assert_annihilates(M2F7, coeffs, (root,))


def test_a_passing_referee_normalises_no_value(monkeypatch):
    # The referee tests the int cores' values as they come; only a
    # normalised value would go through a `_trusted`.
    cases = [(degree_n_existence(_X1, _X2, 3).polynomial(), (_X1, _X2)),
             (invertible_difference_construct(_D1, _D2, 4), (_D1, _D2)),
             (construct_with_roots([QI, QJ]).result, (QI, QJ))]
    calls = []
    for module in (matrices, quaternions):
        trusted = module._trusted
        monkeypatch.setattr(module, "_trusted",
                            lambda *args, trusted=trusted: calls.append(args) or trusted(*args))
    for poly, roots in cases:
        _assert_annihilates(poly.ring, poly.coeffs, roots)
    assert calls == []
    for poly, roots in cases:
        assert not any(poly.ring._values(poly.coeffs, roots))
    assert len(calls) == 6


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


@pytest.mark.parametrize("ring", [HH, M2F2, M2F3, M2Q], ids=repr)
def test_construction_matches_the_convolution_loop(ring):
    # Roots drawn with replacement from a small pool, so repeated roots
    # take the already-root and pad branches; over the matrix rings
    # singular evaluation values obstruct, and the pool over Q holds the
    # involution pair, whose difference is singular.
    rng = random.Random(10)
    pool = [rand_element(rng, ring) for _ in range(5)]
    if ring == M2Q:
        pool.extend(involution_pair())
    branches = set()
    for _ in range(60):
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        for exact_degree in (False, True):
            trace = construct_with_roots(roots, exact_degree=exact_degree)
            assert trace.to_json() == reference_construct(roots, exact_degree).to_json()
            branches.update(step.branch for step in trace.steps)
    expected = {BRANCH_CONJUGATE, BRANCH_ALREADY_ROOT, BRANCH_PAD_WITH_X}
    assert branches == (expected if ring == HH else expected | {BRANCH_FAILED})


SMALL = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 6, 7, 11, 13]))
LARGE = st.builds(Fraction, st.integers(-(10**40), 10**40), st.sampled_from([1, 3, BIG]))


@st.composite
def quaternion_roots(draw):
    """1..10 roots: new ones with small components over mixed
    denominators, at most one with 40-digit components (two would take
    the conjugated roots past the int/str digit limit of ``to_json``),
    and copies of an earlier root or members of its class (same real
    part, imaginary components permuted and signed)."""
    roots = []
    large_at = draw(st.integers(-1, 9))
    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("new", "repeat", "same_class"))) if roots else "new"
        if kind == "new":
            parts = LARGE if i == large_at else SMALL
            roots.append(draw(st.builds(Quaternion, parts, parts, parts, parts)))
            continue
        q = draw(st.sampled_from(roots))
        if kind == "same_class":
            imaginary = draw(st.permutations([q.b, q.c, q.d]))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
            q = Quaternion(q.a, *(s * v for s, v in zip(signs, imaginary)))
        roots.append(q)
    return roots


@hypothesis.settings(max_examples=40)
@hypothesis.given(quaternion_roots())
def test_quaternion_construction_matches_the_convolution_loop(roots):
    # The construction over H keeps P as int numerators over one
    # denominator; the reference multiplies Quaternion polynomials.
    for exact_degree in (False, True):
        trace = construct_with_roots(roots, exact_degree=exact_degree)
        assert trace.to_json() == reference_construct(roots, exact_degree).to_json()
