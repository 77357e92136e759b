"""The four benchmark workloads: input generation, the operation, and the
output check.

Each workload draws its inputs from `random.Random(f"{name}/{seed}")`
before anything is timed; the shape of the input pool (sizes, degrees,
fields, command mix) is fixed by `PARAMS` and the seed only picks the
values, so every seed gives the same mix.  The library receives only
the generated inputs.

`run(item)` is the timed operation.  `check(item, result)` is the
independent referee: it re-evaluates every returned polynomial at its
roots as a literal power sum sum_i c_i * x**i, built from ring
multiplies here rather than with the library's Horner evaluation, and
raises `CheckFailed` on any mismatch.  `canonical(item, result)` is the
JSON form that goes into the run's digest.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from fractions import Fraction

PARAMS = {
    "quat-construct": {
        "op": "construct_with_roots(roots, exact_degree=True) and construct_with_roots(roots)",
        "root_counts": [2, 3, 4, 5, 6, 7, 8],
        "root_sets": ["independent", "independent", "repeated_root", "same_class"],
        "repeats": 4,
        "component_numerators": [-3, 3],
        "component_denominators": [1, 2],
    },
    "matq-criterion": {
        "op": "quadratic_existence (n=2) or degree_n_existence, plus invertible_difference_construct",
        "field": "Q",
        "k": [2, 3, 4],
        "n": [2, 3, 4, 5, 6],
        "pairs": ["independent", "rank_one_difference"],
        "repeats": 4,
        "entry_numerators": [-3, 3],
        "entry_denominators": [1, 2],
    },
    "oracle-fp": {
        "op": "criterion plus brute_force_exists on one ordered pair",
        "cases": [{"k": 2, "p": 3, "n": 2, "pairs": 60}, {"k": 2, "p": 2, "n": 3, "pairs": 40}],
    },
    "cli-json": {
        "op": "in-process ringroots.cli.main(argv) with in-memory stdin and stdout",
        "commands": [
            ["verify"],
            ["construct", "--trace", "--verify"],
            ["quadratic"],
            ["degree-n", "--n", "3"],
        ],
        "repeats": 25,
        "rational_digits": 40,
        "quaternion_roots": 2,
        "matrix_k": 2,
    },
}


class CheckFailed(Exception):
    """An operation's output failed the benchmark's own check."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def power_sum(coeffs, x, one):
    """sum_i coeffs[i] * x**i with the power built by repeated multiply."""
    acc, power = None, one
    for c in coeffs:
        term = c * power
        acc = term if acc is None else acc + term
        power = power * x
    return acc


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _small_rational(rng, nums, dens):
    return Fraction(rng.randint(*nums), rng.randint(*dens))


def _big_rational(rng, digits):
    lo, hi = 10 ** (digits - 1), 10**digits
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _same_class(rng, comps):
    """A quaternion with the same real part and imaginary norm: its
    imaginary components permuted and sign-flipped.  Both share one
    real minimal polynomial."""
    a, *imag = comps
    rng.shuffle(imag)
    return [a] + [rng.choice((-1, 1)) * v for v in imag]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.params = PARAMS[self.name]
        self.rr = importlib.import_module("ringroots")
        self.items = self.generate(random.Random(f"{self.name}/{seed}"))

    def generate(self, rng):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError

    def canonical(self, item, result):
        raise NotImplementedError

    def facts(self, item, result) -> dict:
        """Layer facts only the benchmark can see; summed over the traced pass."""
        return {}


class QuatConstruct(Workload):
    name = "quat-construct"
    why = ("Fraction, quaternion, polynomial and construct layers; coefficient "
           "height grows with the root count, so height-sensitive kernels show")

    def generate(self, rng):
        p = self.params
        Q = self.rr.Quaternion
        items = []
        for _ in range(p["repeats"]):
            for kind in p["root_sets"]:
                for count in p["root_counts"]:
                    comps = [[_small_rational(rng, p["component_numerators"],
                                              p["component_denominators"])
                              for _ in range(4)] for _ in range(count)]
                    if kind == "repeated_root":
                        i = rng.randrange(1, count)
                        comps[i] = comps[rng.randrange(i)]
                    elif kind == "same_class":
                        for i in range(1, min(count, 3)):
                            comps[i] = _same_class(rng, comps[0])
                    items.append(tuple(Q(*c) for c in comps))
        return items

    def run(self, roots):
        rr = self.rr
        return rr.construct_with_roots(roots, exact_degree=True), rr.construct_with_roots(roots)

    def check(self, roots, result):
        one = self.rr.Quaternion(1)
        for trace, exact in zip(result, (True, False)):
            expect(trace.result is not None, "construction over the quaternions failed")
            coeffs = trace.result.coeffs
            degree = len(coeffs) - 1
            expect(degree == len(roots) if exact else 1 <= degree <= len(roots),
                   f"degree {degree} for {len(roots)} roots (exact={exact})")
            expect(coeffs[-1] == one, "result is not monic")
            for r in roots:
                expect(not power_sum(coeffs, r, one), "result does not annihilate a root")
            forbidden = "already_root" if exact else "pad_with_x"
            expect(all(s.branch not in (forbidden, "failed") for s in trace.steps),
                   f"unexpected branch for exact={exact}")

    def canonical(self, roots, result):
        return [t.to_json() for t in result]


def _rank_one(rng, k, nums, dens):
    u = [_small_rational(rng, nums, dens) or Fraction(1) for _ in range(k)]
    v = [_small_rational(rng, nums, dens) or Fraction(1) for _ in range(k)]
    return [[u[r] * v[c] for c in range(k)] for r in range(k)]


class _PairCriterion(Workload):
    """Shared checks for workloads that run an existence criterion."""

    def criterion(self, x1, x2, n):
        rr = self.rr
        return rr.quadratic_existence(x1, x2) if n == 2 else rr.degree_n_existence(x1, x2, n)

    def check_report(self, ring, x1, x2, n, report):
        expect(report.n == n, "report degree differs from the requested one")
        expect(report.exists == (report.rank_difference_matrix == report.rank_augmented),
               "verdict disagrees with the reported ranks")
        if not report.exists:
            expect(report.coefficients is None and report.a0 is None,
                   "coefficients reported for a non-existent polynomial")
            return
        expect(len(report.coefficients) == n - 1, "wrong number of coefficients")
        self.check_annihilates(ring, [report.a0, *report.coefficients, ring.one], x1, x2)

    def check_annihilates(self, ring, coeffs, x1, x2):
        for x in (x1, x2):
            expect(not power_sum(coeffs, x, ring.one), "polynomial does not annihilate a root")


class MatqCriterion(_PairCriterion):
    name = "matq-criterion"
    why = ("linalg and existence layers: rref, power ladders and M_k(Q) multiplies; "
           "half the pairs have a rank-one difference, so verdicts are mixed")

    def generate(self, rng):
        p = self.params
        nums, dens = p["entry_numerators"], p["entry_denominators"]
        items = []
        for _ in range(p["repeats"]):
            for kind in p["pairs"]:
                for k in p["k"]:
                    ring = self.rr.MatrixRing(k, self.rr.RationalField())
                    for n in p["n"]:
                        rows = [[_small_rational(rng, nums, dens) for _ in range(k)]
                                for _ in range(k)]
                        x1 = ring.element(rows)
                        if kind == "rank_one_difference":
                            x2 = x1 + ring.element(_rank_one(rng, k, nums, dens))
                        else:
                            x2 = ring.element([[_small_rational(rng, nums, dens)
                                                for _ in range(k)] for _ in range(k)])
                            if x2 == x1:
                                x2 = x2 + ring.one
                        items.append((ring, x1, x2, n))
        return items

    def run(self, item):
        ring, x1, x2, n = item
        return self.criterion(x1, x2, n), self.rr.invertible_difference_construct(x1, x2, n)

    def check(self, item, result):
        ring, x1, x2, n = item
        report, direct = result
        self.check_report(ring, x1, x2, n, report)
        if direct is not None:
            expect(report.exists, "direct construction succeeded where the criterion says none exists")
            expect(direct.degree() == n and direct.is_monic(), "direct result is not monic of degree n")
            self.check_annihilates(ring, direct.coeffs, x1, x2)

    def canonical(self, item, result):
        report, direct = result
        return [report.to_json(), direct.to_json() if direct is not None else None]


class OracleFp(_PairCriterion):
    name = "oracle-fp"
    why = ("matrices and scalars layers over F_p: criterion plus exhaustive search per "
           "pair; the same matrix layer as matq-criterion over a different field")

    def generate(self, rng):
        p = self.params
        items = []
        # The two cases are interleaved in a fixed pattern; unequal counts
        # keep the median inside one case instead of between the two.
        cases = [(c, self.rr.MatrixRing(c["k"], self.rr.PrimeField(c["p"]))) for c in p["cases"]]
        order = sorted((i / case["pairs"], j) for j, (case, _) in enumerate(cases)
                       for i in range(case["pairs"]))
        for _, j in order:
            case, ring = cases[j]
            k, q = case["k"], case["p"]
            while True:
                x1, x2 = ([[rng.randrange(q) for _ in range(k)] for _ in range(k)]
                          for _ in range(2))
                if x1 != x2:
                    break
            items.append((ring, ring.element(x1), ring.element(x2), case["n"]))
        return items

    def run(self, item):
        ring, x1, x2, n = item
        return self.criterion(x1, x2, n), self.rr.brute_force_exists(x1, x2, n, ring)

    def check(self, item, result):
        ring, x1, x2, n = item
        report, brute = result
        self.check_report(ring, x1, x2, n, report)
        expect(report.exists == brute.exists, "criterion and brute force disagree")
        if brute.exists:
            expect(brute.count == ring.field.p ** report.solution_space_dim,
                   "brute-force count is not p ** solution_space_dim")
            self.check_annihilates(ring, [brute.a0, *brute.coefficients, ring.one], x1, x2)
        else:
            expect(brute.count == 0, "no witness but a nonzero count")

    def canonical(self, item, result):
        ring, _, _, _ = item
        report, brute = result
        enc = ring.element_to_json
        return [report.to_json(), {
            "exists": brute.exists,
            "count": brute.count,
            "coefficients": [enc(c) for c in brute.coefficients] if brute.exists else None,
            "a0": enc(brute.a0) if brute.exists else None,
        }]

    def facts(self, item, result):
        report, brute = result
        return {"oracle.disagreements": int(report.exists != brute.exists)}


def _real_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _q_json(comps):
    return [str(c) for c in comps]


class CliJson(Workload):
    name = "cli-json"
    why = ("cli layer: argparse, JSON decoding, wire-format parsing and str(Fraction) "
           "output on documents with 40-digit rationals, run in process")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli = importlib.import_module("ringroots.cli")

    def generate(self, rng):
        p = self.params
        makers = (self._verify_doc, self._construct_doc, self._quadratic_doc, self._degree_n_doc)
        return [make(rng, rep) for rep in range(p["repeats"]) for make in makers]

    # Each item: (argv, stdin text, expected exit codes, data for the check).

    def _verify_doc(self, rng, rep):
        digits = self.params["rational_digits"]
        classes = [[_big_rational(rng, digits) for _ in range(4)] for _ in range(1 + rep % 2)]
        poly = [Fraction(1)]
        for a, b, c, d in classes:
            poly = _real_poly_mul(poly, [a * a + b * b + c * c + d * d, -2 * a, Fraction(1)])
        elements = [_same_class(rng, cls) for cls in classes for _ in range(1 + rep % 2)]
        if rep % 4 == 3:
            a, b, c, d = classes[0]
            elements.append([a + 1, b, c, d])

        def signature(q):
            return q[0], sum(v * v for v in q[1:])

        roots = {signature(c) for c in classes}
        is_root = [signature(e) in roots for e in elements]
        doc = {
            "polynomial": {"ring": {"kind": "quaternion"},
                           "coefficients": [_q_json([c, 0, 0, 0]) for c in poly]},
            "elements": [_q_json(e) for e in elements],
        }
        return ["verify"], json.dumps(doc), {0 if all(is_root) else 1}, is_root

    def _construct_doc(self, rng, rep):
        digits = self.params["rational_digits"]
        count = self.params["quaternion_roots"]
        roots = [[_big_rational(rng, digits) for _ in range(4)] for _ in range(count)]
        if rep % 2:
            roots[1] = _same_class(rng, roots[0])
        doc = {"ring": {"kind": "quaternion"}, "elements": [_q_json(r) for r in roots]}
        Q = self.rr.Quaternion
        return (["construct", "--trace", "--verify"], json.dumps(doc), {0},
                [Q(*r) for r in roots])

    def _matrix_pair_doc(self, rng, rep):
        digits, k = self.params["rational_digits"], self.params["matrix_k"]
        ring = self.rr.MatrixRing(k, self.rr.RationalField())
        x1 = [[_big_rational(rng, digits) for _ in range(k)] for _ in range(k)]
        if rep % 2:
            u = [_big_rational(rng, digits) for _ in range(k)]
            v = [_big_rational(rng, digits) for _ in range(k)]
            x2 = [[x1[r][c] + u[r] * v[c] for c in range(k)] for r in range(k)]
        else:
            x2 = [[_big_rational(rng, digits) for _ in range(k)] for _ in range(k)]
        doc = {"ring": ring.to_json(),
               "elements": [[[str(e) for e in row] for row in m] for m in (x1, x2)]}
        return json.dumps(doc), (ring, ring.element(x1), ring.element(x2))

    def _quadratic_doc(self, rng, rep):
        text, data = self._matrix_pair_doc(rng, rep)
        return ["quadratic"], text, {0, 3}, data + (2,)

    def _degree_n_doc(self, rng, rep):
        n = 3
        text, data = self._matrix_pair_doc(rng, rep)
        return ["degree-n", "--n", str(n)], text, {0, 3}, data + (n,)

    def run(self, item):
        argv, text, _, _ = item
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
        try:
            code = self.cli.main(list(argv))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue()

    def check(self, item, result):
        argv, _, codes, data = item
        code, text = result
        expect(code in codes, f"{argv[0]} exited {code}, expected one of {sorted(codes)}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{argv[0]} printed invalid JSON: {exc}") from None
        rr = self.rr
        if argv[0] == "verify":
            expect(doc["all_zero"] == (code == 0), "all_zero disagrees with the exit code")
            zero = _q_json([0, 0, 0, 0])
            expect([r == zero for r in doc["residuals"]] == data, "wrong residual pattern")
        elif argv[0] == "construct":
            one = rr.Quaternion(1)
            coeffs = [rr.Quaternion.from_json(c) for c in doc["polynomial"]["coefficients"]]
            expect(coeffs[-1] == one and len(coeffs) - 1 <= len(data), "bad construct result")
            expect(all(r == _q_json([0, 0, 0, 0]) for r in doc["residuals"]), "nonzero residual")
            for r in data:
                expect(not power_sum(coeffs, r, one), "result does not annihilate a root")
        else:
            ring, x1, x2, n = data
            expect(doc["exists"] == (code == 0), "exists disagrees with the exit code")
            expect(doc["n"] == n, "wrong degree in the report")
            if doc["exists"]:
                coeffs = [ring.element_from_json(c) for c in [doc["a0"], *doc["coefficients"]]]
                for x in (x1, x2):
                    expect(not power_sum(coeffs + [ring.one], x, ring.one),
                           "reported polynomial does not annihilate a root")

    def canonical(self, item, result):
        code, text = result
        return {"exit": code, "stdout": text}

    def facts(self, item, result):
        from layers import fraction_bits

        return {
            "cli.bytes_in": len(item[1].encode()),
            "cli.bytes_out": len(result[1].encode()),
            "scalars.fraction_bits_max": fraction_bits(json.loads(result[1])),
        }


WORKLOADS = {w.name: w for w in (QuatConstruct, MatqCriterion, OracleFp, CliJson)}
