"""End-to-end CLI behaviour: JSON in, JSON out, exit-code contract."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

import ringroots
from ringroots import Polynomial, QuaternionRing, cli
from ringroots.rings import Ring
from ringroots.errors import _echo
from ringroots.scalars import MAX_MODULUS

from helpers import HH, run_cli

_SRC = str(Path(ringroots.__file__).resolve().parents[1])

QUAT_RING = {"kind": "quaternion"}
MAT2_RING = {"kind": "matrix", "k": 2, "field": {"kind": "rational"}}
MAT3_RING = {"kind": "matrix", "k": 3, "field": {"kind": "rational"}}


def test_construct_two_quaternions(monkeypatch, capsys):
    doc = {"ring": QUAT_RING, "elements": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "--verify"], doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coefficients"] == [
        ["1", "0", "0", "0"],
        ["0", "0", "0", "0"],
        ["1", "0", "0", "0"],
    ]
    assert payload["residuals"] == [["0", "0", "0", "0"], ["0", "0", "0", "0"]]


def test_construct_single_root(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[0, 1], [0, 0]]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coefficients"] == [
        [["0", "-1"], ["0", "0"]],
        [["1", "0"], ["0", "1"]],
    ]


def test_construct_obstructed_exits_2_with_trace(monkeypatch, capsys):
    # second evaluation is nonzero and singular: x - 0 evaluated at a
    # nilpotent element
    doc = {"ring": MAT2_RING, "elements": [[[0, 0], [0, 0]], [[0, 1], [0, 0]]]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 2
    payload = json.loads(out)
    assert payload["polynomial"] is None
    assert payload["trace"]["steps"][-1]["branch"] == "failed"
    assert payload["trace"]["steps"][-1]["index"] == 1
    assert "step 1" in err


def test_construct_exact_degree_flag(monkeypatch, capsys):
    doc = {"ring": QUAT_RING, "elements": [["0", "1", "0", "0"], ["0", "1", "0", "0"]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "--exact-degree", "--trace"], doc)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["polynomial"]["coefficients"]) == 3
    assert payload["trace"]["steps"][0]["branch"] == "pad_with_x"


def test_quadratic_involution_pair_with_override(monkeypatch, capsys, tmp_path):
    doc = {"ring": MAT2_RING, "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["quadratic", "--input", str(path), "--a1", "[[0,0],[0,0]]"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["rank"] == 1
    assert payload["coefficients"] == [[["0", "0"], ["0", "0"]]]
    assert payload["a0"] == [["-1", "0"], ["0", "-1"]]


def test_quadratic_override_must_solve_the_equation(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    code, _, err = run_cli(
        monkeypatch, capsys, ["quadratic", "--a1", "[[1,0],[0,0]]"], doc
    )
    assert code == 65
    assert "a1" in err


def test_quadratic_rank_gap_pair_exits_3(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[0, 0], [1, -1]], [[0, 0], [0, 1]]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["quadratic"], doc)
    assert code == 3
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["rank"] == 1
    assert payload["rank_augmented"] == 2


def test_degree_n_cubic_for_rank_gap_pair(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[0, 0], [1, -1]], [[0, 0], [0, 1]]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["degree-n", "--n", "3"], doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["n"] == 3


def test_degree_n_no_cubic_for_zero_column_pair(monkeypatch, capsys):
    doc = {
        "ring": MAT3_RING,
        "elements": [
            [[1, -1, 0], [-1, 1, 0], [1, 0, 0]],
            [[1, 1, 2], [-1, 1, 0], [1, 0, 0]],
        ],
        "n": 3,
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["degree-n"], doc)
    assert code == 3
    assert json.loads(out)["exists"] is False


def test_degree_over_the_limit_exits_65(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[0, 0], [1, -1]], [[0, 0], [0, 1]]]}
    code, out, err = run_cli(monkeypatch, capsys, ["degree-n", "--n", "400"], doc)
    assert code == 65
    assert out == ""
    assert "64" in err and "Traceback" not in err


def test_verify_cubic_annihilator(monkeypatch, capsys):
    poly = {
        "ring": MAT2_RING,
        "coefficients": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["-1", "-1"]],
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "1"]],
        ],
    }
    doc = {
        "ring": MAT2_RING,
        "polynomial": poly,
        "elements": [[[0, 0], [1, -1]], [[0, 0], [0, 1]]],
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_zero"] is True


def test_verify_unit_norm_pure_quaternions(monkeypatch, capsys):
    # any unit-norm pure quaternion squares to -1: (3/5)^2 + (4/5)^2 = 1
    poly = {
        "ring": QUAT_RING,
        "coefficients": [["1", "0", "0", "0"], ["0", "0", "0", "0"], ["1", "0", "0", "0"]],
    }
    doc = {
        "polynomial": poly,
        "elements": [
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "3/5", "4/5", "0"],
        ],
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 0
    assert json.loads(out)["all_zero"] is True


def test_verify_nonroot_exits_1(monkeypatch, capsys):
    poly = {
        "ring": QUAT_RING,
        "coefficients": [["0", "-1", "0", "0"], ["1", "0", "0", "0"]],
    }
    doc = {"polynomial": poly, "elements": [["0", "0", "1", "0"]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 1
    payload = json.loads(out)
    assert payload["all_zero"] is False
    assert payload["residuals"] == [["0", "-1", "1", "0"]]


def test_verify_degree_over_the_limit_exits_65(monkeypatch, capsys):
    # 66 coefficients: degree 65, one over MAX_DEGREE = 64; the limit is
    # decided before any evaluation, so nothing reaches stdout.
    coefficients = [[str(i % 3), "1", "0", "-1/2"] for i in range(65)] + [["1", "0", "0", "0"]]
    doc = {"polynomial": {"ring": QUAT_RING, "coefficients": coefficients},
           "elements": [["0", "1", "0", "0"], ["1/2", "0", "1", "0"]]}
    code, out, err = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 65
    assert out == ""
    assert "MAX_DEGREE" in err and "Traceback" not in err

    doc["polynomial"]["coefficients"] = coefficients[1:]  # degree 64 is still verified
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code in (0, 1)
    assert len(json.loads(out)["residuals"]) == 2


def test_verify_rejects_a_long_polynomial_after_decoding_its_top_coefficient(monkeypatch, capsys):
    # 100,000 coefficients with nonzero top entries: the limit is decided
    # at the first nonzero entry above MAX_DEGREE, from the top down.
    decoded = []
    element_from_json = QuaternionRing.element_from_json

    def spy(self, obj):
        decoded.append(obj)
        return element_from_json(self, obj)

    monkeypatch.setattr(QuaternionRing, "element_from_json", spy)
    doc = {"polynomial": {"ring": QUAT_RING, "coefficients": [["1", "2", "3", "4"]] * 100_000},
           "elements": [["0", "1", "0", "0"]]}
    code, out, err = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 65
    assert out == ""
    assert "degree 99999" in err and "MAX_DEGREE" in err and "Traceback" not in err
    assert len(decoded) == 1


def test_verify_accepts_trailing_zeros_above_the_limit(monkeypatch, capsys):
    # 66 entries, the last zero: degree 64, within MAX_DEGREE; x^64 - 1
    # kills 1 and -1.
    coefficients = ([["-1", "0", "0", "0"]] + [["0", "0", "0", "0"]] * 63
                    + [["1", "0", "0", "0"], ["0", "0", "0", "0"]])
    doc = {"polynomial": {"ring": QUAT_RING, "coefficients": coefficients},
           "elements": [["1", "0", "0", "0"], ["-1", "0", "0", "0"]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 0
    assert json.loads(out)["all_zero"] is True


@pytest.mark.parametrize("zero", ["0", "-0", "0/5", "0.0"])
@pytest.mark.parametrize("ring, coefficients, element, pad", [
    (QUAT_RING, [["1", "0", "0", "0"], ["0", "1/2", "0", "0"]], ["0", "0", "1", "0"],
     lambda z: [z] * 4),
    (MAT2_RING, [[["1", "0"], ["0", "1"]], [["0", "1/2"], ["0", "0"]]], [["0", "0"], ["1", "0"]],
     lambda z: [[z, z], [z, z]]),
], ids=["quaternion", "matrix"])
def test_verify_padded_above_the_limit_with_spelled_zeros(monkeypatch, capsys, zero, ring,
                                                         coefficients, element, pad):
    doc = {"polynomial": {"ring": ring, "coefficients": coefficients}, "elements": [element]}
    code, plain, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 1
    doc["polynomial"]["coefficients"] = coefficients + [pad(zero)] * (cli.MAX_DEGREE + 10)
    assert run_cli(monkeypatch, capsys, ["verify"], doc) == (1, plain, "")


@pytest.mark.parametrize("ring, coefficients, element, zero, misspelled", [
    (QUAT_RING, [["1", "0", "0", "0"], ["0", "1/2", "0", "0"]], ["0", "0", "1", "0"],
     ["0", "0", "0", "0"], None),
    (MAT2_RING, [[["1", "0"], ["0", "1"]], [["0", "1/2"], ["0", "0"]]], [["0", "0"], ["1", "0"]],
     [["0", "0"], ["0", "0"]], None),
    ({"kind": "matrix", "k": 2, "field": {"kind": "prime", "p": 3}},
     [[[1, 0], [0, 1]], [[0, 2], [0, 0]]], [[0, 0], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0.0, 0]]),
    ({"kind": "field", "field": {"kind": "prime", "p": 5}}, [1, 2], 2, 0, False),
], ids=["quaternion", "matrix", "matrix-f3", "f5"])
def test_verify_never_decodes_canonical_zero_padding(monkeypatch, capsys, ring, coefficients,
                                                     element, zero, misspelled):
    # Padding above MAX_DEGREE that is exactly the ring's canonical zero
    # encoding is skipped undecoded: only the padding up to MAX_DEGREE,
    # which becomes coefficients, reaches the decoder.  A spelling equal
    # to it in Python but of another JSON type (0.0, false) still does,
    # and fails there.
    decoded = []
    element_from_json = Ring.element_from_json

    def spy(self, obj):
        decoded.append(obj)
        return element_from_json(self, obj)

    monkeypatch.setattr(Ring, "element_from_json", spy)
    doc = {"polynomial": {"ring": ring, "coefficients": coefficients}, "elements": [element]}
    plain = run_cli(monkeypatch, capsys, ["verify"], doc)
    plain_decoded = len(decoded)
    doc["polynomial"]["coefficients"] = coefficients + [zero] * 20_000
    assert run_cli(monkeypatch, capsys, ["verify"], doc) == plain
    assert len(decoded) - 2 * plain_decoded == cli.MAX_DEGREE + 1 - len(coefficients)
    if misspelled is not None:
        doc["polynomial"]["coefficients"] = coefficients + [zero] * 100 + [misspelled]
        code, out, err = run_cli(monkeypatch, capsys, ["verify"], doc)
        assert (code, out) == (64, "")
        assert "cannot interpret" in err and "Traceback" not in err


def test_construct_over_max_roots_exits_65(monkeypatch, capsys):
    # one small root repeated: every step after the first takes the
    # already-root (or pad) branch, so 64 roots are quick.
    root = ["1", "1/2", "0", "-1"]
    doc = {"ring": QUAT_RING, "elements": [root] * (cli.MAX_ROOTS + 1)}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 65
    assert out == ""
    assert "MAX_ROOTS" in err and "Traceback" not in err

    doc["elements"] = [root] * cli.MAX_ROOTS
    code, out, _ = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 0
    assert len(json.loads(out)["polynomial"]["coefficients"]) == 2
    # the largest polynomial construct emits is one verify accepts
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "--exact-degree"], doc)
    assert code == 0
    polynomial = json.loads(out)["polynomial"]
    assert len(polynomial["coefficients"]) == cli.MAX_ROOTS + 1
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"],
                           {"polynomial": polynomial, "elements": [root]})
    assert code == 0


def test_verify_ring_mismatch_exits_65(monkeypatch, capsys):
    poly = {"ring": QUAT_RING, "coefficients": [["1", "0", "0", "0"]]}
    doc = {"ring": MAT2_RING, "polynomial": poly, "elements": [[[0, 0], [0, 0]]]}
    code, _, err = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 65
    assert "ring" in err


def test_malformed_json_exits_64(monkeypatch, capsys):
    code, _, _ = run_cli(monkeypatch, capsys, ["construct"], text="{not json")
    assert code == 64


def test_missing_fields_exit_64(monkeypatch, capsys):
    code, _, _ = run_cli(monkeypatch, capsys, ["construct"], document={"elements": []})
    assert code == 64
    code, _, _ = run_cli(monkeypatch, capsys, ["degree-n"], document={"ring": MAT2_RING})
    assert code == 64


@pytest.mark.parametrize("command, doc", [
    ("construct", {"ring": QUAT_RING, "elements": []}),
    ("construct", {"ring": QUAT_RING}),
    ("verify", {"polynomial": {"ring": QUAT_RING, "coefficients": [["1", "0", "0", "0"]]},
                "elements": []}),
])
def test_no_elements_exits_64_with_one_message(monkeypatch, capsys, command, doc):
    assert run_cli(monkeypatch, capsys, [command], doc) == (
        64, "", "error: 'elements' must be an array of at least 1 entries\n")


def test_unknown_flag_exits_64(monkeypatch, capsys):
    code, _, _ = run_cli(monkeypatch, capsys, ["construct", "--bogus"], document={})
    assert code == 64


def test_equal_roots_exit_65(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}
    code, _, _ = run_cli(monkeypatch, capsys, ["quadratic"], doc)
    assert code == 65


def test_non_matrix_ring_exits_65(monkeypatch, capsys):
    doc = {"ring": QUAT_RING, "elements": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}
    code, _, _ = run_cli(monkeypatch, capsys, ["quadratic"], doc)
    assert code == 65


_QUAT_PAIR = {"ring": QUAT_RING, "elements": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}
_EQUAL_PAIR = {"ring": MAT2_RING, "elements": [[[1, 2], [3, 4]], [[1, 2], [3, 4]]]}


# Documents and argv with more than one fault: the ring kind is checked
# before n and --a1, a missing ring before the elements, and equal roots
# before the degree and before --a1 is decoded.
@pytest.mark.parametrize("argv, doc, code, err", [
    (["degree-n"], _QUAT_PAIR, 65, "error: degree-n needs a matrix ring, got QuaternionRing()\n"),
    (["quadratic", "--a1", "[["], _QUAT_PAIR, 65,
     "error: quadratic needs a matrix ring, got QuaternionRing()\n"),
    (["cross-check"], _QUAT_PAIR, 65, "error: cross-check needs a matrix ring, got QuaternionRing()\n"),
    (["quadratic"], {"elements": _EQUAL_PAIR["elements"]}, 64,
     "error: quadratic needs a 'ring' entry\n"),
    (["degree-n", "--n", "1"], _EQUAL_PAIR, 65, "error: the two prescribed roots must be distinct\n"),
    (["degree-n", "--n", "65"], _EQUAL_PAIR, 65, "error: the two prescribed roots must be distinct\n"),
    (["quadratic", "--a1", "[[1,2]]"], _EQUAL_PAIR, 65,
     "error: the two prescribed roots must be distinct\n"),
], ids=["degree-n over H, no n", "quadratic over H, bad a1", "cross-check over H, no n",
        "quadratic, no ring", "degree-n, equal, n=1", "degree-n, equal, n=65",
        "quadratic, equal, a1 of another shape"])
def test_multi_fault_inputs_report_the_first_fault(monkeypatch, capsys, argv, doc, code, err):
    assert run_cli(monkeypatch, capsys, argv, doc) == (code, "", err)


def test_boolean_integers_exit_64(monkeypatch, capsys):
    # JSON true is not an integer, even though Python's bool is an int.
    pair = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    docs = [
        ("quadratic", {"ring": {"kind": "matrix", "k": True, "field": {"kind": "rational"}},
                       "elements": [[[1]], [[0]]]}),
        ("degree-n", {"ring": MAT2_RING, "elements": pair, "n": True}),
        ("quadratic", {"ring": {"kind": "matrix", "k": 2, "field": {"kind": "prime", "p": True}},
                       "elements": pair}),
    ]
    for command, doc in docs:
        code, out, err = run_cli(monkeypatch, capsys, [command], doc)
        assert code == 64, (doc, out, err)


def test_cross_check_emits_census_lines(monkeypatch, capsys):
    doc = {"ring": {"kind": "matrix", "k": 1, "field": {"kind": "prime", "p": 3}}, "n": 2}
    code, out, err = run_cli(monkeypatch, capsys, ["cross-check"], doc)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 6
    assert all(line["criterion_exists"] == line["brute_exists"] for line in lines)
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["disagreements"] == 0


def test_cross_check_ignores_pretty(monkeypatch, capsys):
    # One JSON line per pair: --pretty does not indent the census or its summary.
    doc = {"ring": {"kind": "matrix", "k": 1, "field": {"kind": "prime", "p": 3}}, "n": 2}
    plain = run_cli(monkeypatch, capsys, ["cross-check"], doc)
    assert run_cli(monkeypatch, capsys, ["cross-check", "--pretty"], doc) == plain


@pytest.mark.parametrize("k, p, n", [(1, 65521, 2), (2, 5, 2), (10000, 3, 2), (2, 3, 30000000),
                                     (2, 2, 7)])
def test_cross_check_over_a_work_limit_exits_65(monkeypatch, capsys, k, p, n):
    doc = {"ring": {"kind": "matrix", "k": k, "field": {"kind": "prime", "p": p}}, "n": n}
    code, out, err = run_cli(monkeypatch, capsys, ["cross-check"], doc)
    assert code == 65
    assert out == ""
    assert "Traceback" not in err


def test_emitted_polynomial_round_trips(monkeypatch, capsys):
    doc = {
        "ring": QUAT_RING,
        "elements": [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["1", "2", "0", "0"]],
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "--verify"], doc)
    assert code == 0
    payload = json.loads(out)
    reparsed = Polynomial.from_json(payload["polynomial"])
    doc2 = {"polynomial": payload["polynomial"], "elements": doc["elements"]}
    code2, out2, _ = run_cli(monkeypatch, capsys, ["verify"], doc2)
    assert code2 == 0
    assert json.loads(out2)["residuals"] == payload["residuals"]
    assert reparsed.ring == HH


def test_pretty_flag(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["quadratic", "--pretty"], doc)
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["exists"] is True


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ringroots", "verify"],
        input='{"polynomial": {"ring": {"kind": "quaternion"}, "coefficients": [["1","0","0","0"]]}, "elements": [["0","0","0","0"]]}',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["all_zero"] is False


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int/str digit limit in force")
def test_integer_literal_over_digit_limit_exits_64(monkeypatch, capsys):
    digits = "1" * (_DIGIT_LIMIT + 1)
    text = '{"ring": {"kind": "quaternion"}, "elements": [[' + digits + ', 0, 0, 0]]}'
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], text=text)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int/str digit limit in force")
def test_result_over_digit_limit_exits_65(monkeypatch, capsys):
    big = "1" * (_DIGIT_LIMIT * 30 // 43)  # 3000 at the default 4300: within the limit
    doc = {"ring": QUAT_RING, "elements": [[big, "1/" + big, "3", "0"], ["2", big, "0", "1"]]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 65
    assert out == ""
    assert str(_DIGIT_LIMIT) in err
    assert "Traceback" not in err


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int/str digit limit in force")
@pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/2"])
@pytest.mark.parametrize("ring, root", [
    (MAT2_RING, lambda s: [[s, "0"], ["0", "1"]]),
    (QUAT_RING, lambda s: [s, "0", "0", "0"]),
], ids=["matrix", "quaternion"])
def test_string_literal_over_digit_limit_exits_64(monkeypatch, capsys, form, ring, root):
    # a plain literal one digit over the limit is refused as input, never
    # taken for a result over it (65); at the limit it is read
    literal = form.format("7" * (_DIGIT_LIMIT + 1))
    doc = {"ring": ring, "elements": [root(literal)]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert (code, out) == (64, "")
    assert err == f"error: bad rational literal {_echo(literal)}\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["construct"],
                           {"ring": ring, "elements": [root(form.format("7" * _DIGIT_LIMIT))]})
    assert code == 0 and "7" * _DIGIT_LIMIT in out


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs an int/str digit limit below 5000")
@pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
@pytest.mark.parametrize("ring, root", [
    (MAT2_RING, lambda s: [[s, 0], [0, 1]]),
    (QUAT_RING, lambda s: [s, 0, 0, 0]),
], ids=["matrix", "quaternion"])
def test_exponent_literal_over_digit_limit_exits_64(monkeypatch, capsys, literal, ring, root):
    # 10^5000 would be built in full before any limit applied to it
    doc = {"ring": ring, "elements": [root(literal)]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 64
    assert out == ""
    assert str(sys.get_int_max_str_digits()) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, doc", [
    (["construct"], {"ring": MAT2_RING, "elements": [[1, 2], [3, 4]]}),
    (["verify"], {"polynomial": {"ring": MAT2_RING, "coefficients": [[1, 2], [[1, 0], [0, 1]]]},
                  "elements": [[[0, 1], [1, 0]]]}),
    (["quadratic", "--a1", "[1, 2]"], {"ring": MAT2_RING,
                                       "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
], ids=["construct", "verify-coefficient", "quadratic-a1"])
def test_matrix_rows_that_are_not_arrays_exit_64(monkeypatch, capsys, argv, doc):
    code, out, err = run_cli(monkeypatch, capsys, argv, doc)
    assert code == 64
    assert out == ""
    assert "internal error" not in err and "Traceback" not in err


def test_deeply_nested_document_exits_64(monkeypatch, capsys):
    text = "[" * 100000 + "]" * 100000
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], text=text)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err


def test_deeply_nested_a1_exits_64(monkeypatch, capsys):
    doc = {"ring": MAT2_RING, "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    argv = ["quadratic", "--a1", "[" * 5000 + "]" * 5000]
    code, out, err = run_cli(monkeypatch, capsys, argv, doc)
    assert code == 64
    assert out == ""
    assert "internal error" not in err and "Traceback" not in err


# Documents with one raw value nested `%s` lists deep, each at a site whose
# ParseError echoes that value.
NESTED_SITES = {
    "matrix-entry": (["construct"], '{"ring": {"kind": "matrix", "k": 1, "field": {"kind": "rational"}},'
                                    ' "elements": [[[%s]]]}'),
    "prime-entry": (["construct"], '{"ring": {"kind": "matrix", "k": 1, "field": {"kind": "prime", "p": 3}},'
                                   ' "elements": [[[%s]]]}'),
    "quaternion": (["construct"], '{"ring": {"kind": "quaternion"}, "elements": [%s]}'),
    "ring-kind": (["construct"], '{"ring": {"kind": %s}, "elements": [1]}'),
    "field": (["construct"], '{"ring": {"kind": "matrix", "k": 1, "field": %s}, "elements": [[[1]]]}'),
    "polynomial": (["verify"], '{"polynomial": %s, "elements": [1]}'),
}
# Longest stderr a rejected nested document may produce.
MAX_ECHO_STDERR = 400


def _nested(depth):
    return "[" * depth + "]" * depth


def _decoder_limit(template):
    """The least depth at which json.loads refuses `template` at this stack depth."""
    low, high = 1, 1
    while True:
        try:
            json.loads(template % _nested(high))
        except RecursionError:
            break
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        try:
            json.loads(template % _nested(mid))
            low = mid
        except RecursionError:
            high = mid
    return high


@pytest.mark.parametrize("site", sorted(NESTED_SITES))
def test_values_nested_near_the_decoder_limit_exit_64(monkeypatch, capsys, site):
    argv, template = NESTED_SITES[site]
    decoded = refused = 0
    # main() decodes a few frames deeper than the probe, so the depths just
    # short of its own limit lie below the probe's.
    limit = _decoder_limit(template)
    for depth in range(limit - 24, limit + 3):
        code, out, err = run_cli(monkeypatch, capsys, argv, text=template % _nested(depth))
        assert (code, out) == (64, ""), (depth, err[:200])
        assert len(err) < MAX_ECHO_STDERR, depth
        refused += "cannot read input" in err
        decoded += "cannot read input" not in err
    assert decoded and refused  # the window straddles the decoder's limit


# Raw values whose repr is under 80 characters: a message echoes each as
# repr prints it.
SHORT_VALUES = [
    None, True, -1.5e-300, "", "x" * 70, "it's", 10**70, [], {},
    [0] * 26, [[0] * 12, [1] * 12], eval("[" * 39 + "1" + "]" * 39),
    {"kind": "matrix", "k": 0, "field": {"kind": "rational"}},
    {"z": 1, "a": [None, "b"], "m": {"q": {}}}, {str(i): i for i in range(9)},
]


@pytest.mark.parametrize("value", SHORT_VALUES)
def test_messages_echo_short_values_as_repr_does(value):
    assert len(repr(value)) < 80
    assert _echo(value) == repr(value)


def test_values_nested_near_the_decoder_limit_exit_64_under_python_m():
    argv, template = NESTED_SITES["matrix-entry"]
    # the same probe, run at the top of a fresh interpreter's stack
    probe = "\n".join(["import json, sys", inspect.getsource(_nested), inspect.getsource(_decoder_limit),
                       "print(_decoder_limit(sys.argv[1]))"])
    limit = int(subprocess.run([sys.executable, "-c", probe, template], capture_output=True,
                               text=True, check=True, timeout=60).stdout)
    env = {**os.environ, "PYTHONPATH": _SRC}
    outcomes = set()
    for depth in range(limit - 16, limit + 2):
        proc = subprocess.run([sys.executable, "-m", "ringroots", *argv], input=template % _nested(depth),
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (64, ""), (depth, proc.stderr[:200])
        assert len(proc.stderr) < MAX_ECHO_STDERR, depth
        outcomes.add("cannot read input" in proc.stderr)
    assert outcomes == {True, False}


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def broken(job, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "construct", broken)
    doc = {"ring": QUAT_RING, "elements": [["1", "0", "0", "0"]]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 70
    assert out == ""
    assert "boom" in err and "Traceback" not in err


def test_large_prime_modulus_is_accepted(monkeypatch, capsys):
    field = {"kind": "prime", "p": 1000000000000000003}
    doc = {"polynomial": {"ring": {"kind": "field", "field": field}, "coefficients": [-5, 1]},
           "elements": [5, 6]}
    code, out, _ = run_cli(monkeypatch, capsys, ["verify"], doc)
    assert code == 1
    assert json.loads(out) == {"residuals": [0, 1], "all_zero": False}


def test_modulus_over_the_limit_exits_65(monkeypatch, capsys):
    field = {"kind": "prime", "p": MAX_MODULUS + 2}
    doc = {"ring": {"kind": "matrix", "k": 2, "field": field}, "n": 2}
    code, out, err = run_cli(monkeypatch, capsys, ["cross-check"], doc)
    assert code == 65
    assert out == ""
    assert str(MAX_MODULUS) in err


FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]
RATIONAL_LITERALS = st.one_of(st.integers(-5, 5), st.sampled_from(["1/2", "-3/4", "0.25", "1e-3"]))
BAD_SCALARS = st.sampled_from([True, None, 1.5, "1/0", "x", "1//2", "", "1e", "nan", [[1]], {}])
BAD_RINGS = st.sampled_from([
    "quaternion", {"kind": "quaternion"}, {"kind": "octonion"}, {"kind": "field"},
    {"kind": "matrix", "k": 0, "field": FIELDS[0]}, {"kind": "matrix", "k": True, "field": FIELDS[0]},
    {"kind": "field", "field": {"kind": "prime", "p": 4}},
    {"kind": "field", "field": {"kind": "prime", "p": True}},
    {"kind": "matrix", "k": 1, "field": {"kind": "prime", "p": MAX_MODULUS + 2}},
])
DEGREES = st.one_of(st.integers(-1, 4), st.sampled_from([65, True, "3", 2.0, None]))
DEEP = "[" * 5000 + "]" * 5000
# A scalar the "nested" fault replaces, in the document's text, by lists
# nested to a depth near the decoder's limit, on either side of it.
NESTED = "<nested>"
_LIMIT = _decoder_limit("[%s]")
NEAR_DECODER_LIMIT = st.integers(_LIMIT - 40, _LIMIT + 8)


@st.composite
def cli_inputs(draw):
    """(argv, stdin) for one of the five subcommands: a document of the
    command's shape over a random ring, with at most one fault of a kind the
    wire format rejects.  Cross-checks take M_1(F_p), whose censuses run in
    milliseconds; the M_2 censuses are pinned in test_pins."""
    command = draw(st.sampled_from(["construct", "quadratic", "degree-n", "verify", "cross-check"]))
    fault = draw(st.none() | st.sampled_from(["ring", "scalar", "ragged", "missing", "n", "nested"]))
    field = draw(st.sampled_from(FIELDS))
    ring = {"kind": "matrix", "k": draw(st.integers(1, 3)), "field": field}
    if command == "cross-check":
        ring = {"kind": "matrix", "k": 1, "field": draw(st.sampled_from(FIELDS[1:]))}
    elif command in ("construct", "verify"):
        ring = draw(st.sampled_from([{"kind": "quaternion"}, {"kind": "field", "field": field}, ring]))
    good = st.integers(-9, 9) if ring.get("field", FIELDS[0])["kind"] == "prime" else RATIONAL_LITERALS
    scalar = {"scalar": st.one_of(good, BAD_SCALARS), "nested": st.one_of(good, st.just(NESTED))}.get(fault, good)

    def element():
        if ring["kind"] == "quaternion":
            return [draw(scalar) for _ in range(4 if fault != "ragged" else draw(st.integers(0, 5)))]
        if ring["kind"] == "field":
            return draw(scalar)
        k = ring["k"]
        size = st.integers(0, k + 1) if fault == "ragged" else st.just(k)
        return [[draw(scalar) for _ in range(draw(size))] for _ in range(draw(size))]

    def payloads(low, high):
        return [element() for _ in range(draw(st.integers(low, high)))]

    argv = [command]
    if command == "verify":
        doc = {"polynomial": {"ring": ring, "coefficients": payloads(1, 4)}, "elements": payloads(1, 3)}
    elif command == "cross-check":
        doc = {"ring": ring}
    else:
        doc = {"ring": ring, "elements": payloads(1, 4) if command == "construct" else payloads(2, 2)}
    if command == "construct":
        argv += draw(st.sampled_from([[], ["--trace"], ["--verify"], ["--exact-degree", "--trace"]]))
    if command in ("degree-n", "cross-check"):
        n = draw(DEGREES if fault == "n" else st.integers(2, 3))
        if draw(st.booleans()):
            argv += ["--n", str(n)]
        else:
            doc["n"] = n
    if command == "quadratic":
        a1 = draw(st.sampled_from([None, json.dumps(element()), "{not json", DEEP]))
        argv += [] if a1 is None else ["--a1", a1]
    if fault == "ring":
        (doc["polynomial"] if command == "verify" else doc)["ring"] = draw(BAD_RINGS)
    if fault == "missing":
        target = doc["polynomial"] if command == "verify" and draw(st.booleans()) else doc
        del target[draw(st.sampled_from(sorted(target)))]
    text = json.dumps(doc)
    if fault == "nested":
        depth, marker = draw(NEAR_DECODER_LIMIT), json.dumps(NESTED)
        text = text.replace(marker, _nested(depth)) if marker in text else "[" * depth + text + "]" * depth
    return argv, text


@hypothesis.settings(max_examples=150,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(cli_inputs())
def test_generated_inputs_end_in_a_documented_exit_code(monkeypatch, capsys, inputs):
    # run_cli patches stdin afresh and drains the capture on every call, so
    # one instance of each fixture serves every example.
    argv, text = inputs
    code, _, err = run_cli(monkeypatch, capsys, argv, text=text)
    assert code in (0, 1, 2, 3, 64, 65), err
    assert "internal error" not in err and "Traceback" not in err
    assert len(err) < MAX_ECHO_STDERR
