"""Seeded random differential tests of the two sampling engines.

Each case is drawn from one generator with a fixed seed, so the cases
are the same on every run.  The circuit engine (`run_circuit` and
`_run_shots`) is compared with the shot-by-shot loop of measure and
apply_gate, registers and every shot's final amplitudes bit for bit;
`sampled_chsh` is compared with the per-shot CHSH route, every field.

tests/golden/render_random.txt holds the sha256 of render_circuit's
diagram of each random circuit without a conditioned two-qubit gate,
bare and then with the names of _wire_names, one per line.  Regenerate
(only after an intended change to the diagrams) with

    python tests/test_random_differential.py render
"""

import dataclasses
import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from qilab import bell, qstate
from test_golden import _per_shot_chsh
from test_qstate import _ghz_chain, _per_shot_reference

SEED = 2111
N_RANDOM = 200
GHZ_SIZES = range(2, 10)
FLIP_LENGTHS = range(1, 7)
N_CHSH = 100

ONE_QUBIT = ("X", "Y", "Z", "H")
PARAMETRIC = ("XPow", "YPow", "ZPow", "RPhi")
TWO_QUBIT = ("CNOT", "CX", "CY", "CZ", "SWAP")
RENDER_GOLDEN = Path(__file__).parent / "golden" / "render_random.txt"


def _random_circuit(rng):
    """1-9 qubits and 2-13 steps: every gate of the library, conditions on
    registers of up to 3 bits, measurements of up to 3 qubits in any order."""
    n = int(rng.integers(1, 10))
    c = qstate.Circuit(n)
    names = ONE_QUBIT + PARAMETRIC + (TWO_QUBIT if n >= 2 else ())
    for _ in range(int(rng.integers(2, 14))):
        widths = c.register_widths()
        if rng.random() < 0.25:
            m = int(rng.integers(1, min(3, n) + 1))
            c.add_measure(rng.permutation(n)[:m].tolist(), f"m{len(widths)}")
            continue
        name = names[int(rng.integers(len(names)))]
        params = (float(rng.uniform(-2.0, 2.0)),) if name in PARAMETRIC else ()
        targets = rng.permutation(n)[:2 if name in TWO_QUBIT else 1].tolist()
        condition = None
        if widths and rng.random() < 0.4:
            reg = sorted(widths)[int(rng.integers(len(widths)))]
            condition = (reg, int(rng.integers(2 ** widths[reg])))
        c.add_gate(name, targets, params, condition=condition)
    return c


def _wire_names(n):
    """Names of three widths, so the prefixes are right-aligned."""
    return ["w" * (q % 3 + 1) + str(q) for q in range(n)]


def _render_digests(circuit):
    renders = (qstate.render_circuit(circuit),
               qstate.render_circuit(circuit, _wire_names(circuit.n_qubits)))
    return [hashlib.sha256(art.encode()).hexdigest() for art in renders]


def _rendered_circuits():
    """The random circuits whose diagrams are frozen: those without a
    conditioned two-qubit gate."""
    circuits = [c for c, _, _ in _circuit_cases()[:N_RANDOM]]
    return [c for c in circuits
            if not any(isinstance(s, qstate.GateStep) and s.condition and s.gate.arity == 2
                       for s in c.steps)]


def _flip_chain(k):
    """X then a measurement, k times: every draw has one outcome."""
    c = qstate.Circuit(1)
    for i in range(k):
        c.add_gate("X", [0]).add_measure([0], f"f{i}")
    return c


@functools.cache
def _circuit_cases():
    """(circuit, shots, seed) of each case: the random circuits, then GHZ
    chains and flip chains, where all draws after the first (GHZ) or all
    draws (flip) have one outcome."""
    rng = np.random.Generator(np.random.PCG64(SEED))
    circuits = [_random_circuit(rng) for _ in range(N_RANDOM)]
    circuits += [_ghz_chain(n) for n in GHZ_SIZES] + [_flip_chain(k) for k in FLIP_LENGTHS]
    return [(c, int(rng.integers(1, 20)), int(rng.integers(2**32))) for c in circuits]


@functools.cache
def _chsh_cases():
    """(settings, shots, seed): alpha in [0, pi/2], beta and beta' in [-7, 7]."""
    rng = np.random.Generator(np.random.PCG64([SEED, 1]))
    return [(bell.ChshSettings(float(rng.uniform(0.0, math.pi / 2)),
                               float(rng.uniform(-7.0, 7.0)), float(rng.uniform(-7.0, 7.0))),
             int(rng.integers(1, 301)), int(rng.integers(2**32)))
            for _ in range(N_CHSH)]


@pytest.mark.parametrize("case", range(N_RANDOM + len(GHZ_SIZES) + len(FLIP_LENGTHS)))
def test_circuit_engine_matches_per_shot_loop(case):
    circuit, shots, seed = _circuit_cases()[case]
    registers, finals = _per_shot_reference(circuit, shots, seed)
    assert qstate.run_circuit(circuit, shots, seed).registers == registers
    got = {}

    def emit(idx, _registers, amps):
        got.update((int(s), amps.tobytes()) for s in idx)

    qstate._run_shots(circuit, shots, qstate._rng(seed), emit)
    # the shots that differ, not the states: a diff of kilobytes of
    # amplitude bytes would take pytest minutes to print
    wrong = [s for s, final in enumerate(finals) if got.get(s) != final.amplitudes.tobytes()]
    assert wrong == [] and len(got) == shots


def test_render_random_circuits_match_golden():
    want = RENDER_GOLDEN.read_text().split()
    circuits = _rendered_circuits()
    assert len(want) == 2 * len(circuits)
    wrong = [c.to_ops() for i, c in enumerate(circuits)
             if _render_digests(c) != want[2 * i:2 * i + 2]]
    assert wrong == []


@pytest.mark.parametrize("case", range(N_CHSH))
def test_sampled_chsh_matches_per_shot_route(case):
    settings, shots, seed = _chsh_cases()[case]
    got = dataclasses.astuple(bell.sampled_chsh(settings, shots, seed))
    assert got == _per_shot_chsh(settings, shots, seed)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["render"]:
        lines = [d for c in _rendered_circuits() for d in _render_digests(c)]
        RENDER_GOLDEN.write_text("\n".join(lines) + "\n")
