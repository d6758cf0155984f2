"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads dynkin-knit rational-knit --seeds 1 2 3 4 5

Runs `bench/run.py --trace 0` once per workload and seed, one run at a
time, and prints for each metric the median and the distance between the
first and third quartiles as a share of the median (the spread that the
bounds in BENCHMARK.json are compared with).  All results are also written
to bench/results/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            values = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
            passes = proc.stderr.strip().splitlines()[-1:]
            print(
                f"{workload} seed {seed} ({elapsed:.1f} s): failed {result['failed']}/"
                f"{result['attempted']} {values} {passes}",
                flush=True,
            )
    for workload, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:18} {name:12} median {med:10.4f} spread {(q3 - q1) / med:6.1%} (bound {bound:.0%})")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
