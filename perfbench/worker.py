"""One workload process: set up, warm up, run the closed loop, report.

``run.py`` starts this file once per set-up probe (``--probe``: import
qilab, build the inputs, print the ready time, exit) and once for the
measured run, which prints one JSON line of raw samples.  One client
runs ops back to back; each op's output is checked after its clock has
stopped.  With ``--trace 1`` every other op runs with the wrappers of
``tracing.Tracer`` installed, so the traced and untraced medians come
from the same process and the same host conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import harness
import tracing


def _run(args, wl, tracer):
    env = harness.environment()
    attempted = failed = 0
    problems = {}

    def one(op_id, traced):
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.install(op_id)
        start = time.perf_counter()
        try:
            out = wl.op()
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            out = None
            found = ["op raised: " + traceback.format_exc(limit=3)]
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.restore()
        if out is not None:
            try:
                found = wl.check(out)
            except Exception:  # noqa: BLE001 - malformed output fails its check
                found = ["check raised: " + traceback.format_exc(limit=3)]
            wl.cleanup(out)
        if found:
            failed += 1
            for p in found:
                problems[p] = problems.get(p, 0) + 1
        return elapsed if out is not None else None

    one(0, False)   # warm-up: caches and lazy set-up, untimed
    untraced, traced, traced_ids = [], [], []
    min_ops = 2 if args.trace else 1
    op_id = 1
    deadline = time.perf_counter() + args.seconds
    while op_id <= min_ops or time.perf_counter() < deadline:
        is_traced = bool(args.trace) and op_id % 2 == 0
        elapsed = one(op_id, is_traced)
        if elapsed is not None:
            (traced if is_traced else untraced).append(elapsed)
            if is_traced:
                traced_ids.append(op_id)
        op_id += 1

    report = {
        "untraced_s": untraced,
        "traced_s": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if args.trace and traced and untraced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        report["layers"] = tracing.layer_metrics(
            tracer, traced_ids, wl.shots, wl.bytes_written, overhead)
        spans = os.path.join(
            harness.RUNS, f"{args.workload}-seed{args.seed}-{os.getpid()}.spans.jsonl.gz")
        tracer.write(spans)
        report["spans_file"] = os.path.relpath(spans, harness.ROOT)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    harness.import_qilab()
    import workloads

    with open(harness.FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    os.makedirs(harness.RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=harness.RUNS, prefix=f"tmp-{args.workload}-")
    try:
        tracer = tracing.Tracer()
        wl = workloads.WORKLOADS[args.workload](
            args.seed, args.size, frozen, tracer, scratch)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        report = {"ready": ready}
        if not args.probe:
            report.update(_run(args, wl, tracer))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
