"""qilab's benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload {arealaw,shots,figures} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout holding ``src/qilab``.  The workload runs in its own
process (``worker.py``) as a closed loop with one client: the next op
starts when the previous one finishes.  Set-up time is taken over
several fresh processes, before and after the measured one, and reported
as their median.  Every op's output is checked outside its timed
interval; an op that raises or fails its check counts in ``failed``.
Workers run with BLAS limited to one thread (see ``WORKER_ENV``).

Human-readable lines (each metric with its unit and sample count, the
environment block) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  ``op_s.p50`` and
``failed_ratio`` are printed but not bounded there: on a host whose
speed alternates between fast and slow phases the median flips between
them from run to run, and the failure ratio is 0 when the code is
right.  The full result, with the raw samples and the environment, is
also written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import harness

WORKLOADS = ("arealaw", "shots", "figures")
SETUP_PROBES = 3     # set-up-only processes before, and again after, the measured one
LIMIT_S = 170.0      # the whole command must end within 180 s
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# BLAS runs single-threaded: on a shared 2-core host OpenBLAS's thread
# pool made the <=60x60 eigh calls of arealaw up to 60% slower and far
# noisier, and qilab's outputs are bit-identical at 1 or 2 threads.
WORKER_ENV = dict(os.environ, **{var: "1" for var in harness.THREAD_VARS})


def _worker(args, extra, timeout):
    """Run worker.py; return (its JSON report, seconds from spawn to ready)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size] + extra
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks each op, for the benchmark's own tests")
    args = parser.parse_args(argv)
    harness.require_source()
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    begun = time.monotonic()

    setups = [_worker(args, ["--probe"], 20.0)[1] for _ in range(SETUP_PROBES)]
    report, setup = _worker(args, [], LIMIT_S - 60.0 - (time.monotonic() - begun))
    setups.append(setup)
    setups += [_worker(args, ["--probe"], 20.0)[1] for _ in range(SETUP_PROBES)]

    times = report["untraced_s"]
    if not times:
        sys.exit("perfbench: no op completed, so there is no timing to report")
    q1, q3 = _quartiles(times)
    e2e = {
        "op_s.p50": (statistics.median(times), "s", f"n={len(times)} q1={q1!r} q3={q3!r}"),
        "op_s.p90": (_p90(times), "s", f"n={len(times)}"),
        "setup_s": (statistics.median(setups), "s", f"n={len(setups)}"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", "n=1"),
    }
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}: closed loop, 1 client")
    for name, (value, unit, note) in e2e.items():
        print(f"{name} = {value!r} {unit} ({note})")
    print(f"failed_ratio = {failed / attempted!r} ratio (n={attempted}, failed={failed})")
    for problem, count in report["problems"].items():
        print(f"problem x{count}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {m["name"]: {"value": report["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']} (n={len(report['traced_s'])} traced ops)")
        print(f"spans: {report['spans_file']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print("env: " + json.dumps(report["env"], sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  setup_s_samples=setups, env=report.pop("env"), worker=report)
    os.makedirs(harness.RUNS, exist_ok=True)
    path = os.path.join(harness.RUNS, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
