"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

SHORT = 6  # operations per pass in the in-process tests


def short_workload(name, seed):
    wl = workloads.WORKLOADS[name](seed)
    wl.items = wl.items[:SHORT]
    return wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_digest_is_stable_for_a_seed_and_changes_with_it(name):
    def digest(seed):
        _, failures, records = run.run_pass(short_workload(name, seed))
        assert failures == []
        return run.digest_of(records)

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_inputs_are_generated_from_the_seed_alone():
    a = workloads.WORKLOADS["matq-criterion"](7).items
    b = workloads.WORKLOADS["matq-criterion"](7).items
    assert [(x1, x2, n) for _, x1, x2, n in a] == [(x1, x2, n) for _, x1, x2, n in b]


def test_tracing_wraps_every_binding_and_leaves_no_wrapper_installed():
    short_workload("cli-json", 0)  # imports ringroots.cli as well
    import ringroots
    from ringroots import cli, existence, linalg, matrices

    before = (existence.rank, linalg.rank, matrices.Matrix.__mul__, cli._COMMANDS["verify"],
              ringroots.construct_with_roots)
    with Tracer(layers.PROBES):
        during = (existence.rank, linalg.rank, matrices.Matrix.__mul__,
                  cli._COMMANDS["verify"], ringroots.construct_with_roots)
        assert all(getattr(f, "bench_wrapper", False) for f in during)
        assert installed_wrappers()
    after = (existence.rank, linalg.rank, matrices.Matrix.__mul__, cli._COMMANDS["verify"],
             ringroots.construct_with_roots)
    assert all(a is b for a, b in zip(before, after))
    assert installed_wrappers() == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_reproduces_the_digest_and_emits_every_layer_metric(name):
    wl = short_workload(name, 1)
    _, _, plain = run.run_pass(wl)
    tracer = Tracer(layers.PROBES)
    with tracer:
        _, failures, traced = run.run_pass(wl, plain, tracer)
    assert failures == []
    assert traced == plain
    assert installed_wrappers() == []
    metrics = layers.layer_metrics(tracer, len(wl.items), 1.0)
    assert metrics.keys() == layers.METRICS.keys()


def test_times_are_per_operation_medians_at_reference_speed():
    assert speed.factor([speed.REFERENCE_S * 2] * 3) == 2.0
    figures, tail_info = run.summarize([[0.001, 0.004], [0.003, 0.002], [0.002, 0.003]])
    assert figures["op_p50_ms"] == 2.5
    assert figures["ops_per_s"] == 2 / 0.005
    assert tail_info["samples"] == 2


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_by_name(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-json", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = layers.METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in run.END_TO_END:
        assert name in proc.stdout


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-fp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
