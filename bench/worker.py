"""One workload in one process: set-up, timed passes, checks, result.

Started by run.py, one process at a time, with PYTHONHASHSEED fixed.
Prints a summary on stderr and the result as one JSON object on the last
line of stdout.

Timing: every query runs once per pass, and passes repeat until the run's
seconds are used (at least MIN_PASSES).  A query's time is the upper
quartile of its times over the passes.  The machine the bounds were set on
runs most of the time at one speed and, for a few seconds at a time, about
a third faster; how much of a run falls in the fast spells varies from run
to run.  The upper quartile follows the usual speed, where the minimum
follows the luck of the fast spells and the median shifts when they cover
a third of a run (see README.md for the figures).  Garbage is collected
between queries, outside the timed calls.

With --trace 1, untraced and traced passes take turns, and the run reports
the per-layer metrics and the tracing overhead instead of the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
TRACED_PASSES = 3
TAIL_BEYOND = 10  # queries beyond the tail percentile
MIN_QUERIES_FOR_TAIL = 40
SIZES = re.compile(r"-(n|b|k|p|rim)\d+|-\d+x\d+")  # label parts dropped in the summary


def upper_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    """Per-query times and answers over the passes of one run."""

    def __init__(self, queries):
        self.queries = queries
        self.times = [[] for _ in queries]
        self.first = [None] * len(queries)
        self.keys = [None] * len(queries)
        self.errors = {}  # query index -> failure message
        self.changed = {}  # query index -> message when an answer changed
        self.attempted = 0
        self.failed = 0
        self.pass_seconds = []

    def one_pass(self, tracer=None):
        total = 0.0
        for i, q in enumerate(self.queries):
            span = tracer.open("query", q.label) if tracer else None
            start = time.perf_counter()
            try:
                res = q.run()
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                res, ok = f"{type(exc).__name__}: {exc}", False
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(span)
            gc.collect()
            self.attempted += 1
            total += elapsed
            if not ok:
                self.failed += 1
                self.errors.setdefault(i, res)
                self.times[i].append(None)
                continue
            self.times[i].append(elapsed)
            key = q.key(res)
            if self.first[i] is None:
                self.first[i], self.keys[i] = res, key
            elif key != self.keys[i]:
                self.changed.setdefault(i, f"answer changed between passes: {key!r}")
        self.pass_seconds.append(total)

    def check(self) -> list:
        """Check each first answer; later passes must have repeated it."""
        wrong = [f"{self.queries[i].label}: {msg}" for i, msg in sorted(self.changed.items())]
        for i, q in enumerate(self.queries):
            if self.first[i] is None:
                continue
            try:
                msg = q.check(self.first[i])
            except Exception as exc:  # a checker that cannot read the answer rejects it
                msg = f"checker raised {type(exc).__name__}: {exc}"
            if msg:
                wrong.append(f"{q.label}: {msg}")
        return wrong

    def typical(self, passes=None) -> list:
        """Per-query upper quartiles over the given passes (default all).

        Queries that failed in every one of those passes are left out.
        """
        out = []
        for t in self.times:
            picked = [t[p] for p in (passes if passes is not None else range(len(t)))]
            picked = [x for x in picked if x is not None]
            if picked:
                out.append(upper_quartile(picked))
        return out


def _passes(run, seconds, min_passes):
    """Run passes until `seconds` are used, at least `min_passes` of them."""
    begin = time.perf_counter()
    done = 0
    while True:
        run.one_pass()
        done += 1
        elapsed = time.perf_counter() - begin
        if done >= min_passes and elapsed * (1 + 1 / done) > seconds:
            return


def _end_to_end(run, setup_s, peak_rss_mb) -> dict:
    times = sorted(run.typical())
    n = len(times)
    if n < MIN_QUERIES_FOR_TAIL:
        raise SystemExit(f"only {n} queries answered; the tail needs {MIN_QUERIES_FOR_TAIL}")
    tail = times[n - TAIL_BEYOND - 1]
    _log(f"  solve_ms_tail is p{100 * (n - TAIL_BEYOND) / n:.1f} over {n} queries")
    return {
        "solve_ms_p50": {"value": 1000 * statistics.median(times), "unit": "ms"},
        "solve_ms_tail": {"value": 1000 * tail, "unit": "ms"},
        "instances_per_s": {"value": n / sum(times), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _summary(run):
    by_label = {}
    for q, t in zip(run.queries, run.times):
        t = [x for x in t if x is not None]
        if t:
            by_label.setdefault(SIZES.sub("", q.label), []).append(upper_quartile(t))
    for label, times in sorted(by_label.items()):
        _log(f"  {label:28s} {len(times):3d} queries, median {1000 * statistics.median(times):9.2f} ms,"
             f" sum {1000 * sum(times):9.1f} ms")
    _log(f"  {len(run.pass_seconds)} passes of {sum(run.pass_seconds) / len(run.pass_seconds):.2f} s")
    for i, msg in sorted(run.errors.items()):
        _log(f"  failed: {run.queries[i].label}: {msg}")


def _traced(run, tracer, setup_span, args) -> dict:
    """Untraced and traced passes in turn; the per-layer metrics.

    Alternating the two kinds of pass lets both meet the same changes in
    the machine's speed, so their difference is the tracing overhead.  A
    first untraced pass warms the caches (cli-mix builds hash families in
    its first CLI calls) and counts for neither side.
    """
    import tracing

    run.one_pass()
    traced_passes, pass_spans = [], []
    begin = time.perf_counter()
    while True:
        run.one_pass()
        tracer.install()
        pass_spans.append(tracer.open("pass"))
        run.one_pass(tracer)
        tracer.close(pass_spans[-1])
        tracer.uninstall()
        traced_passes.append(len(run.pass_seconds) - 1)
        done = len(pass_spans)
        elapsed = time.perf_counter() - begin
        if done >= TRACED_PASSES and elapsed * (1 + 1 / done) > args.seconds:
            break
    untraced = sum(run.typical([p - 1 for p in traced_passes]))
    traced = sum(run.typical(traced_passes))
    metrics = tracing.layer_metrics(tracer.spans, setup_span, pass_spans)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}.jsonl")
    tracer.write(path)
    _log(f"  tracing overhead: {100 * (traced / untraced - 1):+.1f}% on the sum of per-query "
         f"times ({untraced:.3f} s untraced, {traced:.3f} s traced); "
         f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and stop")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    import transita  # noqa: F401  (set-up time includes importing the program)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_span = tracer.open("setup")
    import corpus

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        queries = corpus.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gc.collect()
        gc.freeze()
        gc.disable()
        run = Run(queries)
        if tracer:
            tracer.close(setup_span)
            tracer.uninstall()
            metrics = _traced(run, tracer, setup_span, args)
        else:
            _passes(run, args.seconds, MIN_PASSES)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = _end_to_end(run, setup_s, peak_rss_mb)
        gc.enable()
        _summary(run)
        wrong = run.check()
        for msg in wrong:
            _log(f"  WRONG {msg}")
        print(json.dumps({
            "correct": not wrong,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
