"""The benchmark's own tests: metric names, output checks, repeatable traces.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace=0, root=ROOT, seconds="0.3", seed=1):
    """Run the benchmark at tiny size; return (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", seconds,
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def copy_checkout(dest, with_source=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)
    return str(dest)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric(workload, trace, key):
    code, lines = run_bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    text = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert f"{name} = " in text and f" {unit} (n=" in text
    assert "failed_ratio = 0.0 ratio (n=" in text
    assert "op_s.p50 = " in text and " s (n=" in text and " q1=" in text


def test_per_layer_metrics_match_benchmark_json():
    names = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert names == [m[:3] for m in tracing.per_layer_metrics()]


def _layer_counts(lines):
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k.endswith(".dim3")}


@pytest.mark.parametrize("workload", ["arealaw", "shots"])
def test_traced_counts_repeat_exactly(workload):
    first = _layer_counts(run_bench(workload, 1)[1])
    second = _layer_counts(run_bench(workload, 1)[1])
    assert first == second
    mapped = {"arealaw": "linalg.eigh", "shots": "qstate.measure"}[workload]
    assert first[f"{mapped}.calls"] > 0


@pytest.mark.parametrize("workload,section", [("shots", "shots"), ("figures", "figures")])
def test_tampered_frozen_hash_fails_every_op(tmp_path, workload, section):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "perfbench", "frozen.json")
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)
    table = frozen["shots"]["tiny"] if section == "shots" else frozen["figures"]
    first = sorted(table)[0]
    table[first] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh)
    code, lines = run_bench(workload, root=root)
    assert code == 0
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_refuses_to_run_without_source(tmp_path):
    code, lines = run_bench("shots", root=copy_checkout(tmp_path, with_source=False))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tracer_restores_every_original():
    qilab = harness.import_qilab()
    import numpy as np

    before = (qilab.bell.apply_gate, qilab.qstate.apply_gate, qilab.run_circuit,
              np.linalg.eigh, qilab.oscillators.correlators)
    tracer = tracing.Tracer()
    tracer.install(op=1)
    try:
        assert qilab.bell.apply_gate is not before[0]
        assert qilab.bell.apply_gate is qilab.qstate.apply_gate
        qilab.run_circuit(qilab.bell_pair_circuit(), 2, 1)
    finally:
        tracer.restore()
    after = (qilab.bell.apply_gate, qilab.qstate.apply_gate, qilab.run_circuit,
             np.linalg.eigh, qilab.oscillators.correlators)
    assert all(a is b for a, b in zip(before, after))
    counts = tracer.per_op()[1]
    assert counts["qstate.run_circuit"][0] == 1
    assert counts["qstate.execute"][0] == 2
