"""Repeatability of the traced run, and the cost of tracing.

    python3 bench/repeat_check.py [--workloads W ...] [--seed N]

For each workload, runs `bench/run.py --trace 1` three times, under
PYTHONHASHSEED 0, 0 and 3, and requires every count metric (`.calls`,
`field.rref.entries`, `knitting.classes`) to be identical across the three.
It also runs the same jobs in one process without the wrappers and
reports the tracing overhead: the median traced wall time over the median
untraced one, from three passes of each, alternated.  Exits 1 if a count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def child(args: list[str], hashseed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_pass(workload: str, seed: int) -> None:
    import tracing
    import workloads

    workloads.write_dynkin_inputs(ROOT, workload)
    package = tracing.import_package(os.path.join(ROOT, "src"))
    wall, outcomes = tracing.run_in_process(workloads.jobs(workload, ROOT, seed), package.cli.main)
    print(json.dumps({"wall_s": wall, "codes": [code for _, code, _ in outcomes]}))


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--untraced-pass", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.untraced_pass:
        untraced_pass(args.untraced_pass, args.seed)
        return 0
    status = 0
    for workload in args.workloads:
        traced_args = [os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", "1", "--trace", "1"]
        untraced_args = [os.path.join(HERE, "repeat_check.py"), "--seed", str(args.seed),
                         "--untraced-pass", workload]
        # Alternate traced and untraced passes so that machine drift falls on both.
        traced, untraced = [], []
        for hs in (0, 0, 3):
            traced.append(child(traced_args, hs))
            untraced.append(child(untraced_args, hs)["wall_s"])
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"} for t in traced
        ]
        differing = sorted(k for k in counts[0] if len({c[k] for c in counts}) > 1)
        traced_wall = statistics.median(t["metrics"]["trace.wall_s"]["value"] for t in traced)
        plain_wall = statistics.median(untraced)
        print(
            f"{workload}: {len(counts[0])} counts, "
            f"{'all repeat' if not differing else 'DIFFER: ' + ', '.join(differing)}; "
            f"traced {traced_wall:.2f} s, untraced {plain_wall:.2f} s, "
            f"overhead {traced_wall / plain_wall - 1:+.1%}",
            flush=True,
        )
        status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main())
