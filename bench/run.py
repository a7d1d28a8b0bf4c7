"""Benchmark of the transita solvers.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs each workload in its own process (bench/worker.py), one process at a
time, with PYTHONHASHSEED fixed and the program imported from src/.  With
--trace 0 a workload reports its end-to-end metrics; set-up is timed in
SETUP_SAMPLES processes and the median is reported.  With --trace 1 it
reports the per-layer metrics of a traced run.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  With --workload
all, each workload's object is printed on its own line, and the last line
sums attempted and failed and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("route", "pchc-wheel", "vdp-search", "cli-mix")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(argv, deadline) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + argv
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv)} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(argv + ["--setup-only"], deadline)["setup_s"])
    result = _child(argv, deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "transita", "__init__.py")):
        print("bench: the program's source (src/transita) is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            print(f"== {name}", file=sys.stderr, flush=True)
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            if len(names) > 1:
                print(f"{name} {json.dumps(results[name])}", flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
