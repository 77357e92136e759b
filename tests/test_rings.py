"""Ring descriptors: axioms, invertibility, JSON, mismatch rejection."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ringroots import (
    Matrix,
    MatrixRing,
    MismatchError,
    PrimeField,
    Quaternion,
    QuaternionRing,
    RationalField,
    ScalarRing,
    enumerate_ring,
    infer_ring,
    ring_from_json,
)

from helpers import (
    F2,
    F3,
    F7,
    HH,
    M2F2,
    M2Q,
    M3Q,
    QI,
    QQ,
    RAT,
    _reference_invert,
    elements,
    involution_pair,
    rand_element,
    rank_gap_pair,
    reference_rref,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

AXIOM_RINGS = [RAT, ScalarRing(F7), M2Q, M2F2, HH]


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@hypothesis.settings(max_examples=200)
@hypothesis.given(data=st.data())
def test_ring_axioms_on_random_triples(ring, data):
    a, b, c = data.draw(st.tuples(elements(ring), elements(ring), elements(ring)))
    one, zero = ring.one, ring.zero
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert a + zero == a
    assert a * one == a
    assert one * a == a
    assert ring.is_zero(a + (-a))


@pytest.mark.parametrize("ring", [*AXIOM_RINGS, MatrixRing(2, F3)], ids=repr)
def test_units_multiply_to_one_both_sides(ring):
    # 200 seeded elements, and over M_k(F_p) the whole ring as well
    rng = random.Random(17)
    cases = [rand_element(rng, ring) for _ in range(200)]
    if isinstance(ring, MatrixRing) and ring.field != QQ:
        cases += enumerate_ring(ring)
    found = 0
    for a in cases:
        inv = ring.invert(a)
        if isinstance(ring, MatrixRing):
            assert (inv is None) == (reference_rref(a)[1] < ring.k)
        else:
            assert (inv is None) == ring.is_zero(a)
        if inv is None:
            continue
        assert a * inv == ring.one
        assert inv * a == ring.one
        assert inv == _reference_invert(ring, a)
        found += 1
    assert found > 20


def test_quaternion_inverse_example():
    q = Quaternion(1, 1, 1, 1)
    assert HH.invert(q) == Quaternion("1/4", "-1/4", "-1/4", "-1/4")
    assert HH.invert(HH.zero) is None


def test_singular_matrix_not_invertible():
    x1, x2 = involution_pair()
    assert M2Q.invert(x1 - x2) is None
    assert M2Q.invert(M2Q.zero) is None
    assert M2Q.invert(M2Q.one) == M2Q.one


def test_scalar_invertibility():
    assert RAT.invert(RAT.zero) is None
    assert RAT.invert(QQ.element(3)) == QQ.element("1/3")


def test_ring_pow():
    assert HH.powers(QI, 2)[2] == Quaternion(-1)
    assert M2Q.powers(M2Q.element([[2, 0], [0, 2]]), 0)[0] == M2Q.one
    x1, _ = rank_gap_pair()
    assert M2Q.powers(x1, 3)[3] == x1


def _repeated_multiply(x, n, one):
    result = one
    for _ in range(n):
        result = result * x
    return result


def _forty_digits(rng):
    return Fraction(rng.randrange(-10**40, 10**40), rng.randrange(10**39, 10**40))


_POWER_BASES = [
    (M2Q, M2Q.element([[_forty_digits(random.Random(i)) for i in (1, 2)],
                       [_forty_digits(random.Random(i)) for i in (3, 4)]])),
    (M3Q, M3Q.element([[1, "-1/2", 0], [2, 3, "1/3"], [0, -1, 1]])),
    (MatrixRing(3, F7), MatrixRing(3, F7).element([[1, 2, 3], [4, 5, 6], [0, 1, 6]])),
    (M2F2, M2F2.element([[1, 1], [0, 1]])),
    (HH, Quaternion(*(_forty_digits(random.Random(i)) for i in (5, 6, 7, 8)))),
    (HH, Quaternion(1, -2, "1/3", 4)),
    (RAT, _forty_digits(random.Random(9))),
    (ScalarRing(F7), F7.element(3)),
]
_POWER_IDS = ["M2Q-40-digits", "M3Q", "M3F7", "M2F2", "H-40-digits", "H", "Q-40-digits", "F7"]


@pytest.mark.parametrize("ring, x", _POWER_BASES, ids=_POWER_IDS)
def test_powers_match_repeated_multiply(ring, x):
    # `Ring.powers` extends a ladder one multiply at a time: every rung
    # must be the literal product x*x*...*x.
    expected = [_repeated_multiply(x, n, ring.one) for n in range(34)]
    for n in (0, 1, 2, 7, 33):
        assert ring.powers(x, n) == expected[: n + 1]


def test_quaternion_identities_are_canonical_constants():
    for value, validated in ((HH.zero, Quaternion()), (HH.one, Quaternion(1))):
        assert value == validated and hash(value) == hash(validated)
        assert all(type(v) is int for v in value._n) and type(value._den) is int
        assert value._den == 1 and gcd(*value._n, value._den) == 1
    assert HH.zero is HH.zero and HH.one is HH.one
    assert not HH.zero and HH.one * QI == QI


def test_descriptor_mismatch_is_rejected():
    with pytest.raises(MismatchError):
        M2Q.check(M3Q.one)
    with pytest.raises(MismatchError):
        M2Q.check(M2F2.one)
    with pytest.raises(MismatchError):
        M2Q.one + M2F2.one
    with pytest.raises(MismatchError):
        HH.check(QQ.element(1))
    with pytest.raises(MismatchError):
        RAT.check(F2.element(1))


def test_descriptor_json_round_trip():
    for ring in (RAT, ScalarRing(F2), M2Q, M2F2, HH):
        assert ring_from_json(ring.to_json()) == ring
    assert ring_from_json({"kind": "matrix", "k": 2, "field": {"kind": "rational"}}) == M2Q
    assert ring_from_json({"kind": "quaternion"}) == HH
    assert ring_from_json({"kind": "field", "field": {"kind": "prime", "p": 2}}) == ScalarRing(F2)


def test_element_json_round_trip():
    rng = random.Random(23)
    for ring in AXIOM_RINGS:
        for _ in range(20):
            a = rand_element(rng, ring)
            assert ring.element_from_json(ring.element_to_json(a)) == a


def test_infer_ring():
    assert infer_ring(QQ.element(1)) == RAT
    assert infer_ring(F7.element(1)) == ScalarRing(F7)
    assert infer_ring(QI) == HH
    assert infer_ring(M2Q.one) == M2Q
    with pytest.raises(MismatchError):
        infer_ring(Matrix.from_rows(QQ, [[1, 2, 3]]))
    with pytest.raises(MismatchError):
        infer_ring("7")


def test_infer_ring_keeps_one_matrix_ring_per_shape_and_field():
    # a ring and its cached identities are built once per (k, field)
    a = Matrix.from_rows(PrimeField(3), [[1, 2], [0, 1]])
    ring = infer_ring(a)
    assert infer_ring(Matrix.from_rows(PrimeField(3), [[2, 2], [1, 0]])) is ring
    assert ring_from_json(ring.to_json()) is ring
    assert infer_ring(a).one is ring.one
    other = infer_ring(Matrix.from_rows(PrimeField(5), [[1, 2], [0, 1]]))
    assert other is not ring and other != ring
    assert infer_ring(Matrix.from_rows(PrimeField(3), [[1]])) != ring
    assert ring == MatrixRing(2, PrimeField(3)) and hash(ring) == hash(MatrixRing(2, PrimeField(3)))


def test_matrix_ring_element_coercion():
    m = M2Q.element([["1/2", 0], [1, -1]])
    assert m.entries[0][0] == QQ.element("1/2")
    with pytest.raises(MismatchError):
        M2Q.element([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def test_ring_equality_and_hash():
    assert MatrixRing(2, RationalField()) == M2Q
    assert MatrixRing(2, PrimeField(2)) != M2Q
    assert QuaternionRing() == HH
    assert len({M2Q, MatrixRing(2, QQ), HH, RAT}) == 3
