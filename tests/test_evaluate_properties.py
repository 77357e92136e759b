"""Generated polynomials: `Polynomial.evaluate`, which runs the rings'
int evaluation kernels, against the literal operator loop, payload for
payload; the quaternion remainder kernel against the Horner int core it
replaced; and `verify_roots`, one multi-point kernel call, against
one-point evaluations."""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest

from ringroots import (
    Matrix,
    MatrixRing,
    MismatchError,
    Polynomial,
    PrimeField,
    Quaternion,
    verify_roots,
)
from ringroots.construct import _conjugated_root
from ringroots.quaternions import _value_ints

from helpers import (
    F2,
    F3,
    F7,
    HH,
    M2Q,
    QQ,
    RAT,
    RATIONALS,
    elements,
    reference_evaluate,
    reference_quaternion_horner,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# H, M_k(Q) and M_k(F_p), k = 1..3, drawn as separate families so
# that each gets its share of the examples.
FAMILIES = {
    "H": st.just(HH),
    "M_k(Q)": st.builds(MatrixRing, st.integers(1, 3), st.just(QQ)),
    "M_k(F_p)": st.builds(MatrixRing, st.integers(1, 3), st.sampled_from([F2, F3, F7])),
}


def _payload(x):
    if isinstance(x, Matrix):
        return type(x), x._rows, x._den
    if isinstance(x, Quaternion):
        return type(x), x._n, x._den
    return type(x), x


@pytest.mark.parametrize("family", FAMILIES)
@hypothesis.settings(max_examples=25)
@hypothesis.given(data=st.data())
def test_evaluate_matches_the_operator_loop(family, data):
    # p of degree 0..8 before trailing zeros drop (all-zero: the zero
    # polynomial), monic half the time, as the construction's are.
    ring = data.draw(FAMILIES[family])
    degree = data.draw(st.integers(0, 8))
    coeffs = data.draw(st.lists(elements(ring), min_size=degree + 1, max_size=degree + 1))
    if data.draw(st.booleans()):
        coeffs[-1] = ring.one
    p, point = Polynomial(ring, coeffs), data.draw(elements(ring))
    assert _payload(p.evaluate(point)) == _payload(reference_evaluate(p, point))


ZERO_Q = st.just(Fraction(0))

# General points, real points (X_1 = X_2 = X_3 = 0), pure imaginary
# points (T = 2*X_0 = 0) and the zero point (M = 0) of the remainder
# recurrence.
POINTS = st.one_of(
    st.builds(Quaternion, RATIONALS, RATIONALS, RATIONALS, RATIONALS),
    st.builds(Quaternion, RATIONALS, ZERO_Q, ZERO_Q, ZERO_Q),
    st.builds(Quaternion, ZERO_Q, RATIONALS, RATIONALS, RATIONALS),
    st.just(Quaternion()),
)


def _numerators(coeffs):
    """The coefficients' int numerators over their lcm denominator."""
    den = lcm(*(c._den for c in coeffs))
    return [tuple(v * (den // c._den) for v in c._n) for c in coeffs]


@hypothesis.settings(max_examples=80)
@hypothesis.given(data=st.data())
def test_quaternion_remainder_kernel_matches_the_horner_core(data):
    # Degree 0..12; half the time the point is a right root of the
    # polynomial, built as Q * (x - r), so that the value is zero.
    degree = data.draw(st.integers(0, 12))
    if degree and data.draw(st.booleans()):
        point = data.draw(POINTS)
        quotient = data.draw(st.lists(elements(HH), min_size=degree, max_size=degree))
        p = Polynomial(HH, quotient) * Polynomial.x_minus(HH, point)
        coeffs = list(p.coeffs) or [HH.zero]
    else:
        coeffs = data.draw(st.lists(elements(HH), min_size=degree + 1, max_size=degree + 1))
        point = data.draw(POINTS)
    numerators = _numerators(coeffs)
    assert _value_ints(numerators, point) == reference_quaternion_horner(numerators, point)


@hypothesis.settings(max_examples=60)
@hypothesis.given(h=elements(HH).filter(bool), r=POINTS)
def test_conjugated_root_matches_the_operators(h, r):
    s = _conjugated_root(h, r)
    expected = h * r * h.inverse()
    assert (s._n, s._den) == (expected._n, expected._den)


# The four ring kinds verify_roots serves: H, M_k(Q), M_k(F_p) and a field.
VERIFY_RINGS = {"H": HH, "M_2(Q)": M2Q, "M_3(F_5)": MatrixRing(3, PrimeField(5)), "Q": RAT}


@pytest.mark.parametrize("name", VERIFY_RINGS)
@hypothesis.settings(max_examples=25)
@hypothesis.given(data=st.data())
def test_verify_roots_matches_one_point_evaluations(name, data):
    # Degree 0..6 before trailing zeros drop (all-zero: the zero
    # polynomial), and 0..4 roots.
    ring = VERIFY_RINGS[name]
    degree = data.draw(st.integers(0, 6))
    coeffs = data.draw(st.lists(elements(ring), min_size=degree + 1, max_size=degree + 1))
    if data.draw(st.booleans()):
        coeffs = [ring.zero] * len(coeffs)
    p = Polynomial(ring, coeffs)
    roots = data.draw(st.lists(elements(ring), max_size=4))
    values = verify_roots(p, roots)
    assert type(values) is tuple
    assert list(map(_payload, values)) == [_payload(p.evaluate(r)) for r in roots]


@pytest.mark.parametrize("name", VERIFY_RINGS)
@hypothesis.settings(max_examples=10)
@hypothesis.given(data=st.data())
def test_verify_roots_rejects_a_foreign_root_before_evaluating(name, data):
    ring = VERIFY_RINGS[name]
    other = VERIFY_RINGS[data.draw(st.sampled_from(sorted(set(VERIFY_RINGS) - {name})))]
    coeffs = data.draw(st.lists(elements(ring), min_size=1, max_size=4))
    p = Polynomial(ring, coeffs)
    roots = data.draw(st.lists(elements(ring), max_size=3))
    roots.insert(data.draw(st.integers(0, len(roots))), data.draw(elements(other)))
    with mock.patch.object(ring, "_values") as spy:
        with pytest.raises(MismatchError):
            verify_roots(p, roots)
    spy.assert_not_called()
