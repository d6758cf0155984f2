"""Benchmark of the quivercover CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  `--trace 0` is the timed run: set-up, then whole passes over the
workload's jobs, each job a fresh `quivercover` process, until `--seconds`
would be exceeded by one more pass.  Times are scaled to reference seconds
by probes of the vCPU's speed (see Scaler).  `--trace 1` is the traced run:
one pass in this process with every layer wrapped (see tracing.py).  Every
job's output is checked against answers computed apart from the program
(checks.py).  The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "bench", "results")
WORK_DIR = os.path.join(ROOT, workloads.WORK_DIR)
JOB_TIMEOUT_S = 170

# Set-up is a fraction of a second, so it is repeated and its median taken.
SETUP_ROUNDS = 5

# Times are reported in reference seconds: the seconds the work would take
# on a vCPU where calibrate.sample() takes CAL_REF_S.
CAL_REF_S = 0.020
PROBE_INTERVAL_S = 0.5


def check_output(job: dict, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"{job['id']}: exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{job['id']}: output is not JSON ({exc})"]
    if job["kind"] == "suite":
        return checks.check_suite(doc, job["expect"])
    diagram = job["expect"]
    return checks.check_listing(
        doc, workloads.DYNKIN_EDGES[diagram], workloads.rank(diagram), diagram
    )


class Scaler:
    """Probes the speed of the vCPU the jobs run on.

    This process, and so every job it starts, is pinned to one vCPU.  A
    probe times calibrate.sample() there: before each job, and every
    PROBE_INTERVAL_S while a job runs, with the job stopped (SIGSTOP) for
    the probe.  take() returns the mean of CAL_REF_S / probe time over the
    probes since its last call: the factor that turns the seconds measured
    meanwhile into reference seconds.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.factors: list[float] = []

    def probe(self) -> None:
        self.factors.append(CAL_REF_S / calibrate.sample())

    def take(self) -> float:
        factor, self.factors = statistics.mean(self.factors), []
        return factor


def run_process(argv: list[str], env: dict, scaler: Scaler):
    """Run `quivercover argv` as a fresh process, with speed probes.

    Returns (exit code, stdout, stderr, wall s, user+system CPU s).  The
    wall time leaves out the time the job was stopped for probes.
    """
    scaler.probe()
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, "job.out"), "w+b") as out, \
            open(os.path.join(WORK_DIR, "job.err"), "w+b") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        paused = 0.0
        proc = subprocess.Popen(
            [sys.executable, "-m", "quivercover.cli", *argv],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        while True:
            try:
                proc.wait(timeout=PROBE_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                proc.kill()
                proc.wait()
                break
            t_stop = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the signal came
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            try:
                scaler.probe()
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            paused += time.perf_counter() - t_stop
        wall = time.perf_counter() - t0 - paused
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, stdout, stderr, wall, cpu


def setup(workload: str, seed: int, env: dict, scaler: Scaler) -> float:
    """Validate every input of the workload SETUP_ROUNDS times; the median
    round's wall time in reference seconds.  Exits without a result if an
    input does not load."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        total = 0.0
        for path in workloads.setup_inputs(workload, ROOT):
            code, out, err, wall, _ = run_process(
                ["validate", "--input", path, "--seed", str(seed)], env, scaler
            )
            if code != 0 or json.loads(out).get("ok") is not True:
                sys.exit(f"set-up failed: validate {path} exited {code}: {err.strip()[-400:]}")
            total += wall
        scaler.probe()
        rounds.append(total * scaler.take())
    return statistics.median(rounds)


def run_pass(job_list: list[dict], env: dict, scaler: Scaler) -> dict:
    """One pass: every job once, in order, each a fresh process."""
    result = {"wall": 0.0, "cpu": 0.0, "failed": 0}
    for job in job_list:
        code, out, err, wall, cpu = run_process(job["argv"], env, scaler)
        problems = check_output(job, code, out)
        if problems:
            result["failed"] += 1
            print(f"FAILED {job['id']}: {problems[:3]} {err.strip()[-400:]}", file=sys.stderr)
        result["wall"] += wall
        result["cpu"] += cpu
    scaler.probe()
    result["scale"] = scaler.take()
    return result


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    scaler = Scaler()
    setup_s = setup(workload, seed, env, scaler)
    job_list = workloads.jobs(workload, ROOT, seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(job_list, env, scaler))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    # The largest child: the set-up validate processes are far smaller.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(
        f"{workload}: {len(passes)} passes, measured walls {[round(p['wall'], 3) for p in passes]}, "
        f"scales {[round(p['scale'], 3) for p in passes]}",
        file=sys.stderr,
    )
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": len(passes) * len(job_list),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall"] * p["scale"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] * p["scale"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        },
    }


def traced_run(workload: str, seed: int) -> dict:
    package = tracing.import_package(SRC)
    tracer = tracing.Tracer()
    tracer.install(package)
    wall, outcomes = tracing.run_in_process(workloads.jobs(workload, ROOT, seed), package.cli.main, tracer)
    failed = 0
    for job, code, out in outcomes:
        problems = check_output(job, code, out)
        if problems:
            failed += 1
            print(f"FAILED {job['id']}: {problems[:3]}", file=sys.stderr)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "functions": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(tracer.stats.items()) if c},
                "spans": tracer.spans,
            },
            fh,
        )
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": tracer.metrics(wall),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quivercover", "cli.py")):
        print(f"no quivercover sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads.write_dynkin_inputs(ROOT, args.workload)
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
