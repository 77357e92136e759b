"""Per-layer metrics from one traced pass.

Every metric is reported on every workload, averaged per operation of
the traced pass (counts and times) or as a ratio over the pass.  A
layer that a workload does not reach reads 0.  `METRICS` is the single
list of names and units; `BENCHMARK.json` repeats it under `per_layer`.

Which end-to-end figures each group should move, on which workload:

    quaternions.*, scalars.fraction_bits_max   ops_per_s, op_tail_ms on quat-construct;
                                               not oracle-fp
    polynomials.*, construct.*                 quat-construct
    linalg.*, existence.*                      matq-criterion
    matrices.mul_calls, pow_calls, mul_s       op_tail_ms on matq-criterion,
                                               ops_per_s on oracle-fp
    matrices.init_calls, scalars.fp_element_allocs, rings.check_calls,
    oracle.*                                   ops_per_s on oracle-fp
    rings.invert_calls, invert_singular_ratio  matq-criterion and oracle-fp
    cli.*                                      ops_per_s, op_p50_ms on cli-json
"""

from __future__ import annotations

from fractions import Fraction

# name -> unit
METRICS = {
    "quaternions.mul_calls": "count/op",
    "quaternions.inverse_calls": "count/op",
    "quaternions.self_s": "s/op",
    "scalars.fraction_bits_max": "bits",
    "scalars.fp_element_allocs": "count/op",
    "polynomials.mul_calls": "count/op",
    "polynomials.evaluate_calls": "count/op",
    "polynomials.self_s": "s/op",
    "construct.self_s": "s/op",
    "construct.verify_s": "s/op",
    "construct.branch_conjugate": "count/op",
    "construct.branch_already_root": "count/op",
    "construct.branch_pad_with_x": "count/op",
    "construct.branch_failed": "count/op",
    "linalg.rref_calls": "count/op",
    "linalg.rref_cells": "count/op",
    "linalg.rref_s": "s/op",
    "linalg.inverse_calls": "count/op",
    "existence.self_s": "s/op",
    "existence.constant_term_s": "s/op",
    "existence.exists_ratio": "ratio",
    "existence.direct_hit_ratio": "ratio",
    "matrices.mul_calls": "count/op",
    "matrices.pow_calls": "count/op",
    "matrices.mul_s": "s/op",
    "matrices.init_calls": "count/op",
    "rings.check_calls": "count/op",
    "rings.invert_calls": "count/op",
    "rings.invert_singular_ratio": "ratio",
    "oracle.pairs": "count/op",
    "oracle.tuples_tried": "count/op",
    "oracle.brute_s": "s/op",
    "oracle.criterion_s": "s/op",
    "oracle.disagreements": "count/op",
    "cli.parse_s": "s/op",
    "cli.command_s": "s/op",
    "cli.requests": "count/op",
    "cli.bytes_in": "bytes/op",
    "cli.bytes_out": "bytes/op",
    "trace.overhead_ratio": "ratio",
}

CRITERIA = ("existence.quadratic_existence", "existence.degree_n_existence")
INVERTS = ("rings.ScalarRing.invert", "rings.MatrixRing.invert", "rings.QuaternionRing.invert")


def _branches(tracer, args, trace):
    for step in trace.steps:
        tracer.add_fact(f"construct.branch_{step.branch}", 1)


def _rref_cells(tracer, args, result):
    tracer.add_fact("linalg.rref_cells", args[0].nrows * args[0].ncols)


def _invert(tracer, args, result):
    tracer.add_fact("rings.invert_singular", result is None)


def _criterion(tracer, args, report):
    tracer.add_fact("existence.criteria", 1)
    tracer.add_fact("existence.exists", report.exists)


def _direct(tracer, args, poly):
    tracer.add_fact("existence.direct_calls", 1)
    tracer.add_fact("existence.direct_hits", poly is not None)


def _brute(tracer, args, result):
    n, ring = args[2], args[3]
    tracer.add_fact("oracle.tuples_tried", ring.field.p ** (ring.k * ring.k * (n - 1)))


PROBES = {
    "construct.construct_with_roots": _branches,
    "linalg.rref": _rref_cells,
    "existence.invertible_difference_construct": _direct,
    "oracle.brute_force_exists": _brute,
    **{name: _criterion for name in CRITERIA},
    **{name: _invert for name in INVERTS},
}


def fraction_bits(obj) -> int:
    """Largest numerator or denominator bit length among the rational
    strings of a canonical result (F_p residues encode as integers and
    are skipped)."""
    if isinstance(obj, str):
        try:
            f = Fraction(obj)
        except ValueError:
            return 0
        return max(f.numerator.bit_length(), f.denominator.bit_length())
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max((fraction_bits(v) for v in obj), default=0)
    return 0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops: int, overhead_ratio: float) -> dict:
    """Name -> value for every entry of METRICS."""
    s = tracer.summary()
    facts = tracer.facts

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names) / ops

    def total(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names) / ops

    def self_time(layer):
        return sum(r["self_s"] for n, r in s.items() if n.startswith(layer + ".")) / ops

    def fact(key):
        return facts.get(key, 0) / ops

    brute_ops = tracer.ops_with("oracle.brute_force_exists")
    inverts = sum(s.get(n, {}).get("calls", 0) for n in INVERTS)
    values = {
        "quaternions.mul_calls": calls("quaternions.Quaternion.__mul__",
                                       "quaternions.Quaternion.__rmul__"),
        "quaternions.inverse_calls": calls("quaternions.Quaternion.inverse"),
        "quaternions.self_s": self_time("quaternions"),
        "scalars.fraction_bits_max": facts.get("scalars.fraction_bits_max", 0),
        "scalars.fp_element_allocs": calls("scalars.PrimeFieldElement.__init__"),
        "polynomials.mul_calls": calls("polynomials.Polynomial.__mul__"),
        "polynomials.evaluate_calls": calls("polynomials.Polynomial.evaluate"),
        "polynomials.self_s": self_time("polynomials"),
        "construct.self_s": self_time("construct"),
        "construct.verify_s": total("construct.verify_roots"),
        "construct.branch_conjugate": fact("construct.branch_conjugate"),
        "construct.branch_already_root": fact("construct.branch_already_root"),
        "construct.branch_pad_with_x": fact("construct.branch_pad_with_x"),
        "construct.branch_failed": fact("construct.branch_failed"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_cells": fact("linalg.rref_cells"),
        "linalg.rref_s": total("linalg.rref"),
        "linalg.inverse_calls": calls("linalg.matrix_inverse"),
        "existence.self_s": self_time("existence"),
        "existence.constant_term_s": total("existence.constant_term"),
        "existence.exists_ratio": _ratio(facts.get("existence.exists", 0),
                                         facts.get("existence.criteria", 0)),
        "existence.direct_hit_ratio": _ratio(facts.get("existence.direct_hits", 0),
                                             facts.get("existence.direct_calls", 0)),
        "matrices.mul_calls": calls("matrices.Matrix.__mul__"),
        "matrices.pow_calls": calls("matrices.Matrix.__pow__"),
        "matrices.mul_s": total("matrices.Matrix.__mul__"),
        "matrices.init_calls": calls("matrices.Matrix.__init__"),
        "rings.check_calls": calls("rings.Ring.check"),
        "rings.invert_calls": inverts / ops,
        "rings.invert_singular_ratio": _ratio(facts.get("rings.invert_singular", 0), inverts),
        "oracle.pairs": calls("oracle.brute_force_exists"),
        "oracle.tuples_tried": fact("oracle.tuples_tried"),
        "oracle.brute_s": total("oracle.brute_force_exists"),
        "oracle.criterion_s": sum(tracer.total_in_ops(n, brute_ops) for n in CRITERIA) / ops,
        "oracle.disagreements": fact("oracle.disagreements"),
        "cli.parse_s": total("cli.parse_job"),
        "cli.command_s": total(*(n for n in s if n.startswith("cli.cmd_"))),
        "cli.requests": calls("cli.main"),
        "cli.bytes_in": fact("cli.bytes_in"),
        "cli.bytes_out": fact("cli.bytes_out"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
