"""The import surface: public names load on first use, a call loads only
the submodules it runs, and the result records are named tuples that
print as the dataclasses they replace did."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ringroots
from ringroots import ConstructionStep, construct_with_roots, degree_n_existence

from helpers import M2Q, rand_element, rand_quaternion

_SRC = str(Path(ringroots.__file__).resolve().parents[1])

QUADRATIC_DOC = ('{"ring": {"kind": "matrix", "k": 2, "field": {"kind": "rational"}},'
                 ' "elements": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}')


def _modules_after(code):
    """The names in sys.modules once `code` has run in a fresh interpreter
    without the site module, so only the standard library's start-up and
    `code` itself load anything."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_construct_with_roots_loads_neither_the_criteria_the_oracle_nor_the_cli():
    loaded = _modules_after("import ringroots\nringroots.construct_with_roots")
    assert "ringroots.construct" in loaded
    assert not loaded & {"ringroots.existence", "ringroots.oracle", "ringroots.cli"}


def test_a_quadratic_run_loads_neither_dataclasses_inspect_nor_the_oracle():
    code = ("import io, sys\n"
            f"sys.stdin = io.StringIO({QUADRATIC_DOC!r})\n"
            "import ringroots.cli\n"
            "assert ringroots.cli.main(['quadratic']) == 0")
    loaded = _modules_after(code)
    assert "ringroots.existence" in loaded
    assert not loaded & {"dataclasses", "inspect", "ringroots.oracle"}


def test_a_lazy_name_is_the_defining_module_s_object():
    from ringroots import existence, oracle

    assert ringroots.degree_n_existence is existence.degree_n_existence
    assert ringroots.CrossCheckReport is oracle.CrossCheckReport


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'ringroots' has no attribute 'no_such_name'"):
        ringroots.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ringroots import no_such_name", {})


def _seeded_report():
    rng = random.Random(18)
    return degree_n_existence(rand_element(rng, M2Q), rand_element(rng, M2Q), 3)


def _seeded_step():
    rng = random.Random(18)
    return construct_with_roots([rand_quaternion(rng) for _ in range(2)]).steps[0]


def test_records_are_read_only():
    report, step = _seeded_report(), _seeded_step()
    with pytest.raises(AttributeError):
        report.exists = False
    with pytest.raises(AttributeError):
        step.branch = "failed"


def test_records_print_as_the_dataclasses_did():
    # the strings the frozen dataclasses printed for the same seeded values
    assert repr(_seeded_report()) == (
        "CriterionReport(n=3, rank_difference_matrix=2, rank_augmented=2, exists=True, "
        "coefficients=(Matrix([[-1, 0], [-1, 0]] over RationalField()), "
        "Matrix([[3/2, 0], [1/2, 0]] over RationalField())), "
        "a0=Matrix([[-3/2, 0], [-3/2, 0]] over RationalField()), solution_space_dim=4, "
        "ring=MatrixRing(2, RationalField()))"
    )
    assert repr(_seeded_step()) == (
        "ConstructionStep(index=1, evaluation_value=Quaternion(5, -2, 0, -1/4), "
        "branch='conjugate', conjugated_root=Quaternion(1, -499/465, -179/186, -193/465))"
    )


def test_records_copy_with_replace_and_read_as_dicts():
    report = _seeded_report()
    assert report._replace(a0=None).a0 is None and report.a0 is not None
    assert list(report._asdict()) == [
        "n", "rank_difference_matrix", "rank_augmented", "exists", "coefficients", "a0",
        "solution_space_dim", "ring",
    ]
    assert ConstructionStep(0, 0, "already_root").conjugated_root is None
