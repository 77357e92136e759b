"""Generated polynomials: `Polynomial.evaluate`, which runs the payloads'
int Horner kernels, against the literal operator loop, payload for
payload."""

from fractions import Fraction

import pytest

from ringroots import Matrix, MatrixRing, Polynomial, Quaternion

from helpers import F2, F3, F7, HH, QQ, reference_evaluate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


BIG = 10**39 + 7  # 40 digits

# Zero, small and negative integers, a shared denominator, pairwise
# coprime denominators, and 40-digit numerators and denominators.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9)),
    st.builds(Fraction, st.integers(-30, 30), st.just(6)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([7, 11, 13])),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.sampled_from([1, 3, BIG])),
)

# H, M_k(Q) and M_k(F_p), k = 1..3, drawn as separate families so
# that each gets its share of the examples.
FAMILIES = {
    "H": st.just(HH),
    "M_k(Q)": st.builds(MatrixRing, st.integers(1, 3), st.just(QQ)),
    "M_k(F_p)": st.builds(MatrixRing, st.integers(1, 3), st.sampled_from([F2, F3, F7])),
}


def elements(ring):
    if ring == HH:
        return st.builds(Quaternion, RATIONALS, RATIONALS, RATIONALS, RATIONALS)
    scalars = RATIONALS if ring.field is QQ else st.integers(0, ring.field.p - 1)
    row = st.lists(scalars, min_size=ring.k, max_size=ring.k)
    grid = st.lists(row, min_size=ring.k, max_size=ring.k)
    return st.builds(Matrix.from_rows, st.just(ring.field), grid)


def _payload(x):
    return (type(x), x._rows, x._den) if isinstance(x, Matrix) else (type(x), x._n, x._den)


@pytest.mark.parametrize("family", FAMILIES)
@hypothesis.settings(max_examples=25, deadline=None, database=None, derandomize=True)
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
