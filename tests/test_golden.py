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

tests/golden/sampled_chsh_grid.txt holds one line per case of the
CHSH_KINDS x CHSH_ALPHAS x CHSH_SEEDS x CHSH_SHOTS grid:
"kind alpha seed shots", a tab, and repr(dataclasses.astuple(result))
of sampled_chsh on optimal_settings(alpha)[0] or fixed_settings(alpha);
the repr keeps each field's type as well as its bits.  Regenerate with

    python tests/test_golden.py chsh
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qilab import bell, cli, qstate

GOLDEN = Path(__file__).parent / "golden"

# alpha = 0 puts Bob's optimal beta at 0, so both zero-angle skips of the
# rotations run; 1 to 3 shots leave pairs empty
CHSH_KINDS = ("optimal", "fixed")
CHSH_ALPHAS = (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)
CHSH_SEEDS = (1, 2, 3)
CHSH_SHOTS = (1, 2, 3, 17, 5000)


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


def _chsh_settings(kind, alpha):
    return bell.optimal_settings(alpha)[0] if kind == "optimal" else bell.fixed_settings(alpha)


def _chsh_key(kind, alpha, seed, shots):
    return f"{kind} {alpha!r} {seed} {shots}"


def _chsh_line(kind, alpha, seed, shots):
    result = bell.sampled_chsh(_chsh_settings(kind, alpha), shots, seed)
    return f"{_chsh_key(kind, alpha, seed, shots)}\t{dataclasses.astuple(result)!r}"


def _chsh_golden():
    lines = (GOLDEN / "sampled_chsh_grid.txt").read_text().splitlines()
    return dict(line.split("\t") for line in lines)


@pytest.mark.parametrize("seed", CHSH_SEEDS)
@pytest.mark.parametrize("alpha", CHSH_ALPHAS)
@pytest.mark.parametrize("kind", CHSH_KINDS)
def test_sampled_chsh_grid_matches_golden(kind, alpha, seed):
    golden = _chsh_golden()
    for shots in CHSH_SHOTS:
        key = _chsh_key(kind, alpha, seed, shots)
        assert _chsh_line(kind, alpha, seed, shots) == f"{key}\t{golden[key]}"


def _per_shot_chsh(settings, shots, seed):
    """sampled_chsh's fields by a route of its own: each basis rotation a
    checked Gate through the public apply_gate, even at angle 0, and one
    qstate.measure per shot after all the basis picks."""
    rng = qstate._rng(seed)
    rotated = []
    for gamma_a in (0.0, math.pi / 2):
        for gamma_b in (settings.beta, settings.beta_prime):
            state = bell.entangled_state(settings.alpha)
            for qubit, gamma in ((0, gamma_a), (1, gamma_b)):
                # Ry(-gamma) takes the axis cos(g) Z + sin(g) X to Z
                c, s = math.cos(-gamma / 2), math.sin(-gamma / 2)
                ry = qstate.Gate("Ry*", (gamma,), np.array([[c, -s], [s, c]]))
                state = qstate.apply_gate(state, ry, [qubit])
            rotated.append(state)
    sums, counts = [0] * 4, [0] * 4
    for k in rng.integers(0, 4, size=shots):
        bits, _ = qstate.measure(rotated[k], [0, 1], rng)
        sums[k] += (1 - 2 * bits[0]) * (1 - 2 * bits[1])
        counts[k] += 1
    estimates = [s / n if n else 0.0 for s, n in zip(sums, counts)]
    errors = [math.sqrt(max(1.0 - e * e, 0.0) / n) if n else math.inf
              for e, n in zip(estimates, counts)]
    e_qs, e_qt, e_rs, e_rt = estimates
    e_bell = e_qs + e_rs + e_rt - e_qt
    # numpy's order of addition, as in sampled_chsh: from Python 3.12 the
    # builtin sum() of floats is compensated and can differ in the last bit
    se_bell = math.sqrt(float(np.sum(np.square(errors))))
    return (e_qs, e_qt, e_rs, e_rt, e_bell, e_bell - 2.0, *errors, se_bell, tuple(counts))


@pytest.mark.parametrize("seed", CHSH_SEEDS)
@pytest.mark.parametrize("alpha", CHSH_ALPHAS)
@pytest.mark.parametrize("kind", CHSH_KINDS)
def test_sampled_chsh_grid_matches_per_shot_route(kind, alpha, seed):
    settings = _chsh_settings(kind, alpha)
    for shots in (s for s in CHSH_SHOTS if s <= 300):
        got = dataclasses.astuple(bell.sampled_chsh(settings, shots, seed))
        assert got == _per_shot_chsh(settings, shots, seed), shots


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_circuit_matches_golden(name, seed):
    want = (GOLDEN / f"seed{seed}" / f"run_circuit_{name}.json").read_text()
    got = _run_json(name, seed)
    if got != want:
        # not pytest's diff of the two records, which takes minutes a case
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"run_circuit_{name}.json: sha256 {_sha256(got)}, want {_sha256(want)}; "
                    f"first difference at offset {at}:\n got  {got[lo:at + 40]!r}\n want "
                    f"{want[lo:at + 40]!r}", pytrace=False)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    import sys

    if sys.argv[1] == "chsh":
        lines = [_chsh_line(kind, alpha, seed, shots) for kind in CHSH_KINDS
                 for alpha in CHSH_ALPHAS for seed in CHSH_SEEDS for shots in CHSH_SHOTS]
        (GOLDEN / "sampled_chsh_grid.txt").write_text("\n".join(lines) + "\n")
        sys.exit()
    seed = int(sys.argv[1])
    for name in RUNS:
        (GOLDEN / f"seed{seed}" / f"run_circuit_{name}.json").write_text(_run_json(name, seed))
