"""The mutation gate: each mutant in MUTANTS must make its test files fail.

    python3 tests/run_mutants.py

Run it from anywhere; it needs pytest and the test extra, not an
installed package.  For each mutant the runner copies src/ to a
temporary directory, replaces the mutant's exact old text, which must
occur exactly once in its file, checks that ringroots now imports from
the copy, and runs ``pytest -W error -x`` on the mutant's test files
with the copy first on PYTHONPATH, under TIMEOUT seconds.  A failing run
is "caught", and the first failing test is printed.  A run that times
out counts as caught but is reported as a hang.  A passing run is
"SURVIVED".  First the same test files run with no mutant applied, and
must pass.  The exit code is 0 when every mutant was caught, 1 when one
survived and 2 when the run could not start.

pytest does not collect this file, as its name does not start with
``test_``; ``tests/test_mutation_gate.py`` checks in tier-1 that every
old text still occurs exactly once, so the table cannot rot silently.
A mutant that survives stays in the table: the tests get stronger, the
table does not get weaker.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringroots"
TIMEOUT = 120

ACCEPTANCE = ("tests/test_acceptance.py",)
LINALG = ("tests/test_linalg.py",)
EXISTENCE = ("tests/test_existence.py",)
ORACLE = ("tests/test_oracle.py",)


class Mutant(NamedTuple):
    """One deliberate fault: in src/ringroots/`file`, the exact text `old`
    becomes `new`, and running the test files `tests` must then fail."""

    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # Index swaps in the k = 2 steps written out entry by entry in the six
    # int kernels of the matrix-pair path, one per off-diagonal entry.
    Mutant("power_rows_01", "matrices.py",
           "(a0 * n0 + a1 * n2, a0 * n1 + a1 * n3),",
           "(a0 * n0 + a1 * n2, a0 * n1 + a1 * n2),", ACCEPTANCE),
    Mutant("power_rows_10", "matrices.py",
           "(a2 * n0 + a3 * n2, a2 * n1 + a3 * n3))",
           "(a2 * n0 + a3 * n3, a2 * n1 + a3 * n3))", ACCEPTANCE),
    Mutant("value_rows_01", "matrices.py",
           "a0 * n1 + a1 * n3 + c1 * s", "a0 * n1 + a1 * n2 + c1 * s", ACCEPTANCE),
    Mutant("value_rows_10", "matrices.py",
           "a2 * n0 + a3 * n2 + c2 * s", "a2 * n0 + a3 * n3 + c2 * s", ACCEPTANCE),
    Mutant("ladder_constant_term_01", "existence.py",
           "v1 - s * (c0 * m1 + c1 * m3)", "v1 - s * (c0 * m1 + c1 * m2)", ACCEPTANCE),
    Mutant("ladder_constant_term_10", "existence.py",
           "v2 - s * (c2 * m0 + c3 * m2)", "v2 - s * (c2 * m0 + c3 * m3)", ACCEPTANCE),
    Mutant("difference_columns_first", "existence.py",
           "(a0 * s1 - b0 * s2, a2 * s1 - b2 * s2)",
           "(a0 * s1 - b0 * s2, a2 * s1 - b3 * s2)", ACCEPTANCE),
    Mutant("difference_columns_second", "existence.py",
           "(a1 * s1 - b1 * s2, a3 * s1 - b3 * s2)",
           "(a1 * s1 - b2 * s2, a3 * s1 - b3 * s2)", ACCEPTANCE),
    Mutant("oracle_ladder_01", "oracle.py",
           "(x0 * y1 + x1 * y3) % p", "(x0 * y1 + x1 * y2) % p", ACCEPTANCE),
    Mutant("oracle_ladder_10", "oracle.py",
           "(x2 * y0 + x3 * y2) % p", "(x2 * y0 + x3 * y3) % p", ACCEPTANCE),
    Mutant("oracle_tables_d3", "oracle.py",
           "(v0 * d1 + v1 * d3) % p", "(v0 * d1 + v1 * d2) % p", ACCEPTANCE),
    Mutant("oracle_tables_d2", "oracle.py",
           "(v0 * d0 + v1 * d2) % p", "(v0 * d0 + v1 * d3) % p", ACCEPTANCE),
    # The k = 2 one-block solve, linalg._solve_2x2.  Left out as
    # equivalent: taking the other row as the rank-one pivot when both
    # rows are nonzero in the pivot column (a consistent system gives the
    # same solution from either row).
    Mutant("solve_2x2_det_cross_term", "linalg.py",
           "det = c0 * c3 - c1 * c2", "det = c0 * c3 + c1 * c2", LINALG),
    Mutant("solve_2x2_adjugate_entry", "linalg.py",
           "c3 * r0 - c1 * r2,", "c3 * r0 - c1 * r3,", LINALG),
    Mutant("solve_2x2_det_sign_over_q", "linalg.py",
           "det, c0, c1, c2, c3 = -det, -c0, -c1, -c2, -c3", "pass", LINALG),
    Mutant("solve_2x2_pivot_sign_over_q", "linalg.py",
           "pv, s0, s1 = -pv, -s0, -s1", "pass", LINALG),
    Mutant("solve_2x2_det_mod_p", "linalg.py",
           "    if p:\n        det %= p\n    if det:\n", "    if det:\n", LINALG),
    Mutant("solve_2x2_entries_mod_p", "linalg.py",
           "c0, c1, c2, c3, r0, r1, r2, r3 = [a % p for a in",
           "c0, c1, c2, c3, r0, r1, r2, r3 = [a for a in", LINALG),
    Mutant("solve_2x2_consistency_entry", "linalg.py",
           "if e0 or e1:", "if e0:", LINALG),
    Mutant("solve_2x2_rank_first", "linalg.py",
           "StackedSolveOutcome(False, None, 2, 1, 2, 1)",
           "StackedSolveOutcome(False, None, 2, 1, 2, 2)", LINALG),
    Mutant("solve_2x2_transposed_particular", "linalg.py",
           "((s0, 0), (s1, 0)) if col == 0 else ((0, s0), (0, s1))",
           "((s0, s1), (0, 0)) if col == 0 else ((0, 0), (s0, s1))", LINALG),
    # The oracle's budget: the row tuples a search walks per row,
    # p^(k(n-1)), and a cross-check's ordered pairs x k x that count; the
    # ring-size cap belongs to enumerate_ring alone.
    Mutant("row_tuples_exponent", "oracle.py",
           'ring.k * (n - 1), "{} row tuples per row"', 'ring.k * n, "{} row tuples per row"',
           ORACLE),
    Mutant("cross_check_work_k_factor", "oracle.py",
           "work = size * (size - 1) * ring.k * tuples", "work = size * (size - 1) * tuples",
           ORACLE),
    Mutant("search_ring_size_cap", "oracle.py",
           "    _row_tuples(ring, n)\n    ring.check(x1)",
           '    _row_tuples(ring, n)\n    _capped_power(ring.field.p, ring.k * ring.k, '
           '"ring has {} elements")\n    ring.check(x1)', ORACLE),
    # The oracle's search and witness.
    Mutant("search_membership_checks", "oracle.py",
           "    ring.check(x1)\n    ring.check(x2)\n", "", ORACLE),
    Mutant("search_ladder_from_power_rows", "oracle.py",
           "    p = x.field.p\n    ladder = [x._rows]\n",
           "    from .matrices import _power_rows\n    return _power_rows(x, n)\n", ORACLE),
    Mutant("search_first_hit_of_row_0", "oracle.py",
           "firsts.append(first)", "firsts.append(firsts[0] if firsts else first)", ORACLE),
    Mutant("search_row_counts_summed", "oracle.py", "count *= hits", "count += hits", ORACLE),
    Mutant("witness_rows_reversed", "oracle.py",
           "for vectors in zip(*firsts))", "for vectors in zip(*firsts[::-1]))", ORACLE),
    # The one digit-counting rule, oracle._extend, behind the k != 2 row
    # tables and every prefix's residual.
    Mutant("extend_step_multiple_dropped", "oracle.py",
           "[[c * e for e in d] for c in range(p)]", "[[e for e in d] for c in range(p)]",
           ORACLE),
    Mutant("extend_digit_order_swapped", "oracle.py",
           "for v in vectors for s in steps]", "for s in steps for v in vectors]", ORACLE),
    Mutant("extend_residual_steps_not_negated", "oracle.py",
           "[[-e for e in entry]", "[[e for e in entry]", ORACLE),
    # The shared a0, the referee and the pair memo.
    Mutant("constant_term_x_n_negated", "existence.py",
           "acc = [[-lead * v for v in row]", "acc = [[lead * v for v in row]", ORACLE),
    Mutant("referee_unreduced_mod_p", "rings.py",
           '        if ring.field.kind == "prime":\n'
           "            rows = map(ring.field.reduce_row, rows)\n", "", EXISTENCE),
    Mutant("pair_memo_slot_shared", "existence.py",
           "return tuple(ladder1), tuple(blocks), m, []",
           'return tuple(ladder1), tuple(blocks), m, _difference_columns.__dict__.setdefault('
           '"slot", [])', EXISTENCE),
    Mutant("pair_memo_whole_rank", "existence.py",
           "r1 = outcome.rank_first", "r1 = outcome.rank", EXISTENCE),
    # The elimination and matrix equality.
    Mutant("rref_pivot_search_one_row_down", "linalg.py",
           "for r in range(top, nrows) if work[r][col]",
           "for r in range(top + 1, nrows) if work[r][col]", LINALG),
    Mutant("solve_pivot_scaling", "linalg.py",
           "y[c] = tuple(a * (den // row[c]) for a in row[split:])",
           "y[c] = tuple(a for a in row[split:])", LINALG),
    Mutant("matrix_eq_always_true", "matrices.py",
           "        return (\n            isinstance(other, Matrix)",
           "        return True or (\n            isinstance(other, Matrix)", LINALG),
)


def run(tests, mutant: Mutant | None = None) -> tuple[str, float, str]:
    """(verdict, seconds, first failing test) of `tests` on a copy of src/
    with `mutant` applied, or none: "caught", "caught (hang)" or
    "SURVIVED"."""
    with tempfile.TemporaryDirectory(prefix="ringroots-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "ringroots" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old text must occur exactly once "
                                 f"in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = "import ringroots; print(ringroots.__file__)"
        where = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                               text=True)
        if where.returncode == 0 and not Path(where.stdout.strip()).is_relative_to(src):
            raise SystemExit(f"ringroots imports from {where.stdout.strip()}, not the copy")
        command = [sys.executable, "-m", "pytest", "-q", "-W", "error", "-x",
                   "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "caught (hang)", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        verdict = "SURVIVED" if proc.returncode == 0 else "caught"
        return verdict, seconds, failed[0] if failed else ""


def main() -> int:
    # Without a mutant the same files must pass, or "caught" means nothing.
    tests = sorted({t for m in MUTANTS for t in m.tests})
    verdict, seconds, failed = run(tests)
    if verdict != "SURVIVED":
        print(f"the test files fail with no mutant applied ({verdict}: {failed})", file=sys.stderr)
        return 2
    print(f"{'baseline pass':14s} {seconds:6.1f} s  {', '.join(tests)}", flush=True)
    survived = []
    for mutant in MUTANTS:
        verdict, seconds, failed = run(mutant.tests, mutant)
        print(f"{verdict:14s} {seconds:6.1f} s  {mutant.name}  {failed or ', '.join(mutant.tests)}",
              flush=True)
        if verdict == "SURVIVED":
            survived.append(mutant.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants caught"
          + (f"; survived: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
