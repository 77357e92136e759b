"""Record the result digest of every workload for seeds 0..N-1 in digests.json.

    python3 bench/record_digests.py --seeds 100 [workload ...]

Each digest covers one checked pass over the seed's input pool.  Run it
only when a change is meant to alter results (a new workload, new input
generation, or a deliberate change of the library's output); otherwise
the recorded digests are what keeps results bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="workloads to record again (default: all); others keep their digests")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {unknown}")
    path = BENCH / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads or workloads.WORKLOADS:
        table[name] = {}
        for seed in range(args.seeds):
            _, failures, records = run.run_pass(workloads.WORKLOADS[name](seed))
            if failures:
                print(f"{name} seed {seed}: {failures[0]}", file=sys.stderr)
                return 1
            table[name][str(seed)] = run.digest_of(records)
        print(f"{name}: {args.seeds} seeds recorded", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
