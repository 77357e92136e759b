"""Generated matrices: the int kernels of `Matrix` and the one
elimination against literal element-wise references, and one payload
per value."""

import pytest

from ringroots import Matrix

from helpers import F2, F3, F7, QQ, RATIONALS, assert_kernel_matches_reference, side_by_side

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def operands(draw):
    """(a, b, c): a and b of one shape, c with as many rows as a has columns."""
    field = draw(st.sampled_from([QQ, F2, F3, F7]))
    scalars = RATIONALS if field is QQ else st.integers(0, field.p - 1)
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(nrows, ncols):
        grid = st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows)
        return Matrix.from_rows(field, draw(grid))

    return matrix(rows, inner), matrix(rows, inner), matrix(inner, cols)


def _grid(m):
    return [list(row) for row in m.entries]


def _assert_entries(m, expected):
    assert [list(row) for row in m.entries] == expected
    assert all(m.field.contains(e) for row in m.entries for e in row)


@hypothesis.settings(max_examples=120)
@hypothesis.given(operands())
def test_int_kernels_match_elementwise_references(abc):
    a, b, c = abc
    ga, gb, gc = _grid(a), _grid(b), _grid(c)
    _assert_entries(a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)])
    _assert_entries(a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)])
    _assert_entries(-a, [[-x for x in row] for row in ga])
    _assert_entries(a * c, [[sum((x * y for x, y in zip(row, col)), a.field.zero)
                             for col in zip(*gc)] for row in ga])
    _assert_entries(a.transpose(), [list(col) for col in zip(*ga)])
    _assert_entries(side_by_side(a, b), [ra + rb for ra, rb in zip(ga, gb)])
    for m in (a, side_by_side(a, b), c.transpose()):
        assert_kernel_matches_reference(m)


@hypothesis.settings(max_examples=120)
@hypothesis.given(operands())
def test_equal_matrices_have_one_payload(abc):
    a, b, _ = abc
    zero = Matrix.zeros(a.field, a.nrows, a.ncols)
    rebuilt = Matrix.from_rows(a.field, _grid(a))
    for got, want in (((a + b) - b, a), (a - a, zero), (-(-a), a), (rebuilt, a)):
        assert got == want
        assert (got._rows, got._den) == (want._rows, want._den)
        assert hash(got) == hash(want)
    assert not (a - a)
