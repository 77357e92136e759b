"""Wire-format rationals on ints: `decode_rational` against `Fraction`
and `parse_rational`, `encode_rational` against `str(Fraction)`, and the
payloads and messages of the elements built from them."""

import sys
from fractions import Fraction

import pytest

from ringroots import ParseError, Quaternion
from ringroots.scalars import decode_rational, encode_rational, parse_rational

from helpers import M2Q, run_cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit

_DIGITS = st.text("0123456789", min_size=1, max_size=45)
# Pieces inserted into plain literals or strung together: digits, signs,
# whitespace, underscores, decimal points, exponents and Arabic-Indic
# digits (U+0660..U+0669), which Fraction also reads.
_PIECES = st.sampled_from(["0", "7", "00", "12", "-", "+", "/", " ", "\t", "\n", "_", ".",
                           "e", "E", "e-", "٣", "٠٤"])
_SPELLED = ["-0", "0/0", "5/00", "007/0003", "+3/4", " 3/4", "3/4 ", "1_000/3", "1/-3",
            "1.5", "-.5e1", "1e3", "1E-3", "٣/٤", "1e5000", "1e-5000", "0e5000"]
if LIMIT:
    _SPELLED += [f"1e{LIMIT}", f"1e{LIMIT - 1}", f"0.1e-{LIMIT}", f"-1e-{LIMIT - 1}",
                 f"2.5e{LIMIT - 2}"]


@st.composite
def _plain(draw):
    """"n" or "n/d" with leading zeros and a zero d among the draws."""
    num = draw(st.sampled_from(["", "-"])) + draw(_DIGITS)
    den = draw(st.none() | _DIGITS | st.sampled_from(["0", "00"]))
    return num if den is None else f"{num}/{den}"


@st.composite
def _at_the_limit(draw):
    """Digit strings of exactly the int/str limit and one over it, as a
    numerator and as a denominator."""
    digits = "9" * (LIMIT + draw(st.integers(0, 1)))
    return draw(st.sampled_from(["{}", "-{}", "1/{}", "{}/7", "+{}"])).format(digits)


_VALUES = st.one_of(
    _plain(),
    _plain().flatmap(lambda s: st.tuples(st.just(s), st.integers(0, len(s)), _PIECES)).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]),
    st.lists(_PIECES, max_size=8).map("".join),
    st.sampled_from(_SPELLED),
    _at_the_limit() if LIMIT else st.nothing(),
    st.integers(), st.fractions(), st.booleans(), st.floats(), st.none(),
)


@hypothesis.settings(max_examples=400)
@hypothesis.given(_VALUES)
def test_decode_rational_agrees_with_fraction(value):
    if not LIMIT and isinstance(value, str):  # 10**(10**6) would not finish without a limit
        hypothesis.assume(len(value.lower().partition("e")[2]) < 6)
    try:
        want = parse_rational(value)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            decode_rational(value)
        assert str(got.value) == str(exc)
        return
    num, den = decode_rational(value)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == want == Fraction(value)


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.integers(), st.integers(min_value=1), st.integers(1, 10**30))
def test_encode_rational_agrees_with_str_fraction(num, den, common):
    assert encode_rational(num, den) == str(Fraction(num, den))
    assert encode_rational(num * common, den * common) == str(Fraction(num, den))


def test_unreduced_literals_give_the_canonical_payload():
    q = Quaternion.from_json(["2/4", "3/6", "-0", "4/8"])
    assert (q._n, q._den) == ((1, 1, 0, 1), 2)
    assert q.to_json() == ["1/2", "1/2", "0", "1/2"]
    m = M2Q.element([["2/4", "3/6"], ["0/5", "6/3"]])
    assert (m._rows, m._den) == (((1, 1), (0, 4)), 2)
    assert m.to_json() == [["1/2", "1/2"], ["0", "2"]]
    assert m == M2Q.element([[Fraction(1, 2), Fraction(1, 2)], [0, 2]])
    assert hash(m) == hash(M2Q.element([["1/2", "1/2"], ["0", "2"]]))


@pytest.mark.parametrize("ring, elements, message", [
    ({"kind": "matrix", "k": 2, "field": {"kind": "rational"}},
     [[["1", "x"], ["1"]]], "bad rational literal 'x'"),
    ({"kind": "matrix", "k": 2, "field": {"kind": "rational"}},
     [[["1", "2"], ["1/0"]]], "bad rational literal '1/0'"),
    ({"kind": "matrix", "k": 2, "field": {"kind": "rational"}},
     [[["1", "2", "3"], [True, "4"]]], "cannot interpret True as a rational"),
    ({"kind": "matrix", "k": 2, "field": {"kind": "prime", "p": 2}},
     [[[1, "x"], [1]]], "cannot interpret 'x' as an element of F_2"),
], ids=["bad-then-short", "short-and-bad", "long-then-bool", "prime"])
def test_a_bad_literal_in_a_ragged_matrix_is_reported_first(monkeypatch, capsys, ring, elements,
                                                            message):
    doc = {"ring": ring, "elements": elements}
    assert run_cli(monkeypatch, capsys, ["construct"], doc) == (64, "", f"error: {message}\n")
