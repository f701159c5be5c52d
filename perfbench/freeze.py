"""Regenerate ``perfbench/frozen.json``: the expected hashes of seeded output.

    python3 perfbench/freeze.py

Stores, with the environment they were made in, the sha256 of each
seeded ``shots`` record at the default seed (both sizes) and of every
data file the ``figures`` op writes.  Run it only at a commit whose
output is known to be right: the benchmark counts any op whose output
differs from these values as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import harness


def main():
    harness.import_qilab()
    import tracing
    import workloads

    os.makedirs(harness.RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=harness.RUNS, prefix="tmp-freeze-")
    stub = {"shots": {"full": None, "tiny": None}, "figures": {}}
    tracer = tracing.Tracer()
    try:
        shots = {size: workloads.Shots.digests(workloads.Shots(
            workloads.DEFAULT_SEED, size, stub, tracer, scratch).op())
            for size in ("full", "tiny")}
        figures = workloads.Figures(workloads.DEFAULT_SEED, "full", stub, tracer, scratch)
        files = figures.digests(figures.op())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    frozen = {
        "environment": harness.environment(reference=False),
        "shots_seed": workloads.DEFAULT_SEED,
        "shots": shots,
        "figures": files,
    }
    with open(harness.FROZEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(frozen, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
