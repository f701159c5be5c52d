"""Where the checkout's pieces live, and the environment block of a result."""

from __future__ import annotations

import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")   # results, spans, temp files
FROZEN = os.path.join(ROOT, "perfbench", "frozen.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def require_source():
    """Exit with a message unless the checkout holds qilab's source tree."""
    if not os.path.isfile(os.path.join(SRC, "qilab", "__init__.py")):
        sys.exit(f"perfbench: no qilab source under {SRC}")


def import_qilab():
    """Import qilab from this checkout's ``src``, never from elsewhere."""
    require_source()
    sys.path.insert(0, SRC)
    import qilab

    if not os.path.abspath(qilab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: qilab imported from {qilab.__file__}, not {SRC}")
    return qilab


def host_reference():
    """Fixed work that touches no qilab code, so host drift shows.

    Recorded next to every result; never used to correct a metric.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    python_loop_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((64, 64))
    a = a @ a.T
    start = time.perf_counter()
    for _ in range(200):
        np.linalg.eigh(a)
    eigh_loop_s = time.perf_counter() - start
    return {"python_loop_1e6_s": python_loop_s, "eigh_64x200_s": eigh_loop_s}


def environment(reference=True):
    """Python, numpy and BLAS versions, usable cores and thread variables."""
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "cores_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }
    if reference:
        env["host_reference"] = host_reference()
    return env
