"""Frozen outputs of the sampled experiment commands and of sampled_chsh.

tests/golden/seed<N>/ holds the .txt transcript and .json record of
`qilab experiment1..5 --seed N` at default shots.  The files carry only
bitstrings and Bloch components rounded to 4 places, so they are
platform-stable; any change to a sampling path must reproduce them byte
for byte.  Regenerate (only after an intended output change) with

    for s in 1 2; do for e in 1 2 3 4 5; do
        qilab experiment$e --seed $s --out tests/golden/seed$s; done; done

tests/golden/seed<N>/sampled_chsh.json (N = 1, 2, 3) holds
sampled_chsh(optimal_settings(pi/4)[0], 5000, N) as
json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2); its
floats come from the shot counts by correctly rounded IEEE operations
alone, so they too are platform-stable.

tests/golden/seed<N>/run_circuit_<name>.json (N = 1, 2, 3) holds
run_circuit(circuit, shots, N).to_json() for the circuits in RUNS:
bitstrings only, so platform-stable.  Regenerate with

    for s in 1 2 3; do python tests/test_golden.py $s; done
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from qilab import bell, cli, qstate

GOLDEN = Path(__file__).parent / "golden"


def ghz_chain(n):
    """H on qubit 0, a CNOT chain, each qubit measured into its own register."""
    c = qstate.Circuit(n).add_gate("H", [0])
    for q in range(n - 1):
        c.add_gate("CNOT", [q, q + 1])
    for q in range(n):
        c.add_measure([q], f"q{q}")
    return c


# name -> (circuit factory, shots)
RUNS = {
    "ghz10": (lambda: ghz_chain(10), 200),
    "teleport": (lambda: qstate.teleport_circuit(0.103, 0.456, deferred=False), 1000),
    "exchange": (lambda: qstate.exchange_circuit(0.5), 500),
}


def _run_json(name, seed):
    make, shots = RUNS[name]
    return qstate.run_circuit(make(), shots, seed).to_json() + "\n"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", [f"experiment{k}" for k in range(1, 6)])
def test_experiment_matches_golden(tmp_path, capsys, name, seed):
    assert cli.main([name, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for ext in ("txt", "json"):
        want = (GOLDEN / f"seed{seed}" / f"{name}.{ext}").read_bytes()
        assert (tmp_path / f"{name}.{ext}").read_bytes() == want, f"{name}.{ext}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_chsh_matches_golden(seed):
    result = bell.sampled_chsh(bell.optimal_settings(math.pi / 4)[0], 5000, seed)
    got = json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"seed{seed}" / "sampled_chsh.json").read_text()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_circuit_matches_golden(name, seed):
    want = (GOLDEN / f"seed{seed}" / f"run_circuit_{name}.json").read_text()
    assert _run_json(name, seed) == want


if __name__ == "__main__":
    import sys

    seed = int(sys.argv[1])
    for name in RUNS:
        (GOLDEN / f"seed{seed}" / f"run_circuit_{name}.json").write_text(_run_json(name, seed))
