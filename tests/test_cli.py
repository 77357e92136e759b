"""End-to-end CLI behaviour: JSON in, JSON out, exit-code contract."""

import io
import json
import subprocess
import sys

import pytest

from ringroots import Polynomial, QuaternionRing, cli
from ringroots.cli import main
from ringroots.scalars import MAX_MODULUS

from helpers import HH

QUAT_RING = {"kind": "quaternion"}
MAT2_RING = {"kind": "matrix", "k": 2, "field": {"kind": "rational"}}
MAT3_RING = {"kind": "matrix", "k": 3, "field": {"kind": "rational"}}


def run_cli(monkeypatch, capsys, argv, document=None, text=None):
    if document is not None:
        text = json.dumps(document)
    monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("k, p, n", [(1, 65521, 2), (2, 5, 2), (10000, 3, 2), (2, 3, 30000000)])
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


_HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


@pytest.mark.skipif(not _HAS_DIGIT_LIMIT, reason="no int/str digit limit in this Python")
def test_integer_literal_over_digit_limit_exits_64(monkeypatch, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    text = '{"ring": {"kind": "quaternion"}, "elements": [[' + digits + ', 0, 0, 0]]}'
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], text=text)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.skipif(not _HAS_DIGIT_LIMIT, reason="no int/str digit limit in this Python")
def test_result_over_digit_limit_exits_65(monkeypatch, capsys):
    big = "1" * 3000
    doc = {"ring": QUAT_RING, "elements": [[big, "1/" + big, "3", "0"], ["2", big, "0", "1"]]}
    code, out, err = run_cli(monkeypatch, capsys, ["construct"], doc)
    assert code == 65
    assert out == ""
    assert str(sys.get_int_max_str_digits()) in err
    assert "Traceback" not in err


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
