"""ringroots benchmark: one workload per run, single process, closed loop.

    python3 bench/run.py --workload quat-construct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; the package is imported from ./src.
One caller issues each operation after the previous one completed.

A run repeats passes until the next one would end after `--seconds`
(at least MIN_PASSES passes), with a garbage collection before each.
SETUPS times, at evenly spaced moments of the run, a fresh set-up comes
before the pass: it imports ringroots afresh, generates the input pool
from the seed and warms up on its first inputs; `setup_s` is the median
of those set-ups.  A pass times each library call over the whole pool.
The first pass checks every output with the workload's own referee;
later passes must reproduce the first pass's canonical results byte for
byte.  Where `digests.json` records a digest for the workload and seed,
the first pass must match it.

Times are given at reference speed (speed.py).  On a shared host the
same code runs up to twice as fast at some moments as at others, in
stretches of seconds to minutes.  So a fixed reference kernel runs
before every operation, and each pass's times are divided by the speed
factor of that pass: the kernel's median time in it over the kernel's
time at reference speed.  Each set-up is scaled the same way, by kernel
runs on either side of it.  The result file keeps the raw times too.

Each operation's latency is its median over the passes.
`ops_per_s` is the pool size over the sum of those latencies, `op_p50_ms`
their median, `op_tail_ms` the highest percentile of TAIL_PERCENTILES
with at least TAIL_MIN_BEYOND operations above it.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
With `--trace 1` one more pass runs with span wrappers installed
(tracer.py) and the last line holds the per-layer metrics (layers.py).
A result file with the run's metadata, and with `--trace 1` the spans,
go to bench/out/.  The exit code is 0 when every check passed, 1 when
one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import speed
import workloads
from tracer import Tracer, installed_wrappers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3
SETUPS = 6
SETUP_KERNELS = 16
WARMUP_ITEMS = 8
# Candidate percentiles for the tail latency; the reported one is the
# highest that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_setup(name: str, seed: int):
    """Import ringroots from scratch, generate the inputs and warm up."""
    for mod in [m for m in sys.modules if m == "ringroots" or m.startswith("ringroots.")]:
        del sys.modules[mod]
    wl = workloads.WORKLOADS[name](seed)
    for item in wl.items[:WARMUP_ITEMS]:
        wl.run(item)
    return wl


def run_pass(wl, reference=None, tracer=None, kernel_times=None):
    """One pass over the input pool, traced when a tracer is given.

    Without a reference every output goes through the workload's check;
    with one (the canonical results of an earlier, checked pass) every
    output must equal its reference byte for byte.  With a list for
    `kernel_times`, the reference kernel runs before each operation and
    its times go to that list.  Returns (latencies, failures, canonical
    results)."""
    latencies, failures, records = [], [], []
    clock = time.perf_counter
    for index, item in enumerate(wl.items):
        if kernel_times is not None:
            kernel_times.append(speed.time_kernel())
        t0 = clock()
        try:
            result = wl.run(item) if tracer is None else tracer.run_op(index, wl.run, item)
        except Exception as exc:  # a raising operation is a counted failure
            latencies.append(clock() - t0)
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            records.append(workloads.canonical_json({"error": type(exc).__name__}))
            continue
        latencies.append(clock() - t0)
        record = workloads.canonical_json(wl.canonical(item, result))
        if reference is None:
            try:
                wl.check(item, result)
            except workloads.CheckFailed as exc:
                failures.append(f"op {index}: check: {exc}")
        elif record != reference[index]:
            failures.append(f"op {index}: result differs from the first pass")
        if tracer is not None:
            for key, value in wl.facts(item, result).items():
                tracer.add_fact(key, value)
        records.append(record)
    return latencies, failures, records


def digest_of(records) -> str:
    return hashlib.sha256(b"\n".join(records)).hexdigest()[:16]


def tail(samples):
    """(percentile, value, samples above it) for the highest percentile of
    TAIL_PERCENTILES, by nearest rank, with TAIL_MIN_BEYOND samples above."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (100.0, ordered[-1], 0)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1], n - rank)
    return best


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, wl):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "why": wl.why,
        "params": wl.params,
        "pool_size": len(wl.items),
        "warmup_items": WARMUP_ITEMS,
    }


def recorded_digest(name: str, seed: int):
    path = BENCH / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    return table.get(name, {}).get(str(seed))


def summarize(passes):
    """End-to-end latency figures from per-operation times of each pass:
    each operation's latency is its median over the passes."""
    per_op = [statistics.median(column) for column in zip(*passes)]
    pct, tail_s, beyond = tail(per_op)
    figures = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    return figures, {"percentile": pct, "samples": len(per_op), "beyond": beyond}


def measure(args):
    # SETUPS fresh set-ups at evenly spaced moments of the run, so that
    # set-up samples are spread over it like the passes are; every other
    # pass reuses the last set-up.  No pass starts that would end after
    # the deadline, by the longest set-up plus pass seen so far.  Every
    # time is divided by the speed factor of the machine at that moment:
    # for a pass from the kernel runs inside it, for a set-up from
    # SETUP_KERNELS runs on each side of it.
    setups, raw_setups, passes, raw_passes, factors, failures = [], [], [], [], [], []
    reference, wl, longest = None, None, 0.0
    clock = time.perf_counter
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start + longest <= args.seconds:
        t_begin = clock()
        if len(setups) < SETUPS and t_begin - start >= len(setups) * args.seconds / SETUPS:
            gc.collect()
            kernels = [speed.time_kernel() for _ in range(SETUP_KERNELS)]
            t0 = clock()
            wl = fresh_setup(args.workload, args.seed)
            raw_setups.append(clock() - t0)
            kernels += [speed.time_kernel() for _ in range(SETUP_KERNELS)]
            setups.append(raw_setups[-1] / speed.factor(kernels))
        gc.collect()
        kernels = []
        lat, fails, records = run_pass(wl, reference, kernel_times=kernels)
        longest = max(longest, clock() - t_begin)
        factors.append(speed.factor(kernels))
        reference = reference or records
        raw_passes.append(lat)
        passes.append([t / factors[-1] for t in lat])
        failures.extend(fails)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures, tail_info = summarize(passes)
    raw_figures, _ = summarize(raw_passes)
    attempted = sum(len(lat) for lat in passes)
    first_digest = digest_of(reference)
    expected = recorded_digest(args.workload, args.seed)
    problems = list(failures)
    if expected is not None and first_digest != expected:
        problems.append(f"digest {first_digest} differs from the recorded {expected}")

    report = {
        "meta": metadata(args, wl),
        "attempted": attempted,
        "failed": len(failures),
        "passes": len(passes),
        "digest": first_digest,
        "digest_recorded": expected,
        "tail": tail_info,
        "reference_kernel_s": speed.REFERENCE_S,
        "speed_factor_per_pass": factors,
        "setup_samples_s": setups,
        "setup_samples_raw_s": raw_setups,
        "ops_per_s_per_pass": [len(lat) / sum(lat) for lat in passes],
        "end_to_end_raw": {**raw_figures, "setup_s": statistics.median(raw_setups)},
    }
    report["end_to_end"] = {
        **figures,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }

    if args.trace:
        tracer = Tracer(layers.PROBES)
        kernels = []
        with tracer:
            lat, fails, records = run_pass(wl, reference, tracer, kernels)
        digest = digest_of(records)
        leftovers = installed_wrappers()
        for record in records:
            tracer.add_fact("scalars.fraction_bits_max", layers.fraction_bits(json.loads(record)))
        problems.extend(fails)
        if digest != first_digest:
            problems.append(f"traced digest {digest} differs from untraced {first_digest}")
        if leftovers:
            problems.append(f"wrappers left installed: {leftovers[:5]}")
        # Both sides are single passes at reference speed: the traced one
        # against the median untraced one.
        traced_ops_per_s = len(lat) / sum(lat) * speed.factor(kernels)
        overhead = traced_ops_per_s / statistics.median(report["ops_per_s_per_pass"])
        report["per_layer"] = layers.layer_metrics(tracer, len(wl.items), overhead)
        report["traced_digest"] = digest
        report["spans"] = len(tracer.span_name)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json.gz")
        report["attempted"] += len(lat)
        report["failed"] += len(fails)

    report["error_rate"] = report["failed"] / report["attempted"]
    report["problems"] = problems[:20]
    report["correct"] = not problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    return report


def print_report(args, report):
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    t = report["tail"]
    recorded = "recorded" if report["digest_recorded"] else "not recorded"
    print(f"workload {args.workload} seed {args.seed}: {report['attempted']} ops, "
          f"{report['passes']} passes of {report['meta']['pool_size']}, "
          f"digest {report['digest']} ({recorded})")
    print(f"  times at reference speed; the machine ran "
          f"{statistics.median(report['speed_factor_per_pass']):.3g} times slower (median "
          f"over passes), raw times in brackets")
    raw = report["end_to_end_raw"]
    rows = [(name, value, END_TO_END[name]) for name, value in report["end_to_end"].items()]
    rows.append(("error_rate", report["error_rate"], "ratio"))
    if args.trace:
        rows += [(name, value, layers.METRICS[name]) for name, value in report["per_layer"].items()]
    for name, value, unit in rows:
        extra = f"  [{raw[name]:.6g}]" if name in raw else ""
        if name == "op_tail_ms":
            extra += f"  (p{t['percentile']:g} of {t['samples']} operations, {t['beyond']} beyond)"
        print(f"  {name:<30} {value:>14.6g} {unit}{extra}")
    metrics, units = ((report["per_layer"], layers.METRICS) if args.trace
                      else (report["end_to_end"], END_TO_END))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload, each in its own interpreter, one after another."""
    ok = True
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        ok = ok and proc.returncode == 0 and result is not None and result["correct"]
        summary[name] = result
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringroots" / "__init__.py").is_file():
        print(f"error: no ringroots package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        report = measure(args)
    except Exception:
        traceback.print_exc()
        return 2
    print_report(args, report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
