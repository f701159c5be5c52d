"""Dense state-vector simulation of small qubit registers.

Qubit 0 is the most significant bit of the basis index: |q0 q1 ... qn-1>
with basis index sum(q_i * 2^(n-1-i)). Global phase is not tracked as
physical; comparisons go through Bloch vectors or overlap magnitudes.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "SimulationFault",
    "Gate",
    "standard_gate",
    "StateVector",
    "apply_gate",
    "bell_basis_rotation",
    "measure",
    "BlochVector",
    "bloch_vector",
    "Circuit",
    "execute",
    "ExperimentRecord",
    "run_circuit",
    "flip_circuit",
    "bell_pair_circuit",
    "exchange_circuit",
    "teleport_circuit",
    "TeleportResult",
    "teleport",
    "render_circuit",
]

_ATOL_UNITARY = 1e-12
_MIN_BRANCH_PROB = 1e-15
# Limits that stop a run at the boundary instead of in a MemoryError: a
# 24-qubit state is 256 MiB, and a run holds 30-70 bytes per shot.
_MAX_QUBITS = 24
_MAX_SHOTS = 10**7


class SimulationFault(RuntimeError):
    """Internal numerical fault (not a user-input error)."""


def _rng(seed: int) -> np.random.Generator:
    # PCG64 draws are platform-stable, which the output contracts rely on
    if _is_int(seed) and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(_check_int("seed", seed, 0)))


# ---------------------------------------------------------------------------
# gates

# The single-qubit symbols {1, x, y, z, +, -}: the Pauli matrices and
# the ladder operators sigma+ = |0><1|, sigma- = |1><0|.  Shared by the
# gate library, dynamics' operator strings and lattice's gauge model.
PAULI = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}
_I2, _X, _Y, _Z = (PAULI[k] for k in "1xyz")
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _controlled(u: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


@dataclass(frozen=True)
class Gate:
    """A 1- or 2-qubit unitary with a display name."""

    name: str
    params: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate matrix must be 2x2 or 4x4, got {m.shape}")
        # a NaN or inf entry leaves a NaN residual, so this test catches it too
        if not np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= _ATOL_UNITARY:
            if not np.isfinite(m).all():
                raise ValueError(f"gate {self.name!r} matrix has a non-finite entry")
            raise ValueError(f"gate {self.name!r} is not unitary within {_ATOL_UNITARY}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2

    def label(self) -> str:
        if not self.params:
            return self.name
        if self.name == "RPhi":
            return "R(%g)" % self.params[0]
        return "%s^%g" % (self.name[0], self.params[0])


def _pow_gate(pauli: np.ndarray, name: str, t: float) -> Gate:
    # exp(i * pauli * pi * t / 2); t=1 gives i*pauli, a global phase away
    # from the bare Pauli
    a = math.pi * float(t) / 2.0
    return Gate(name, (float(t),), math.cos(a) * _I2 + 1j * math.sin(a) * pauli)


_FIXED_GATES = {
    "X": _X, "Y": _Y, "Z": _Z, "H": _H,
    "CNOT": _CNOT, "CX": _CNOT,
    "CY": _controlled(_Y), "CZ": _controlled(_Z),
    "SWAP": _SWAP,
}


@functools.cache
def _fixed_gate(name: str) -> Gate:
    # Built and checked once per name: a Gate is frozen with a read-only
    # matrix, so every caller can share the instance.
    return Gate(name, (), _FIXED_GATES[name])


def standard_gate(name: str, *params: float) -> Gate:
    """Look up a gate from the standard library by name and parameters.

    A parametric gate's parameter must be finite."""
    if name in _FIXED_GATES:
        if params:
            raise ValueError(f"gate {name} takes no parameters")
        return _fixed_gate(name)
    if name not in ("XPow", "YPow", "ZPow", "RPhi"):
        raise ValueError(f"unknown gate {name!r}")
    if len(params) != 1:
        raise ValueError(f"gate {name} takes exactly one parameter")
    t = _check_finite(f"gate {name} parameter", float(params[0]))
    if name == "RPhi":
        return Gate("RPhi", (t,), np.array([[1, 0], [0, np.exp(1j * t)]]))
    pauli = {"XPow": _X, "YPow": _Y, "ZPow": _Z}[name]
    return _pow_gate(pauli, name, t)


# ---------------------------------------------------------------------------
# states

@dataclass(frozen=True, eq=False, slots=True)
class StateVector:
    """Immutable n-qubit pure state."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _check_int("n_qubits", self.n_qubits, 1)
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if a.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes, got {a.size}")
        norm = float(np.linalg.norm(a))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails the test too
            if not np.isfinite(a).all():
                raise ValueError("state has a non-finite amplitude")
            raise ValueError(f"state not normalized: |psi| = {norm}")
        a.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        return cls.computational([0] * _check_int("n_qubits", n_qubits, 1, _MAX_QUBITS))

    @classmethod
    def computational(cls, bits: Sequence[int]) -> "StateVector":
        """The basis state |bits>: 1 to _MAX_QUBITS bits, each 0 or 1."""
        n = _check_int("n_qubits", len(bits), 1, _MAX_QUBITS)
        idx = 0
        for b in bits:
            idx = idx * 2 + _check_int("bit", b, 0, 1)
        a = np.zeros(2**n, dtype=complex)
        a[idx] = 1.0
        return cls(n, a)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "StateVector") -> float:
        """|<self|other>|, insensitive to global phase."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)))


def _is_int(v) -> bool:
    # bool is an Integral too, but True is a bug, not the number 1
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The scalar-argument rules of every module: each returns the value it
# accepts and raises a ValueError that names the argument.

def _check_int(name: str, value, lo: int, hi: Optional[int] = None) -> int:
    """`value` as an int: an integer, not a bool, in lo..hi (hi None: no bound)."""
    if not (_is_int(value) and lo <= value and (hi is None or value <= hi)):
        rule = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {rule}, got {value!r}")
    return int(value)


def _check_dim(name: str, m: np.ndarray, lo: int) -> int:
    """The qubit count n of the matrix `name`: square, 2^n x 2^n, n >= lo."""
    dim = m.shape[0] if m.ndim == 2 else 0
    if not (m.shape == (dim, dim) and dim >= 2**lo and dim & (dim - 1) == 0):
        got = " x ".join(map(str, m.shape)) or "a scalar"
        raise ValueError(f"{name} must be 2^n x 2^n with n >= {lo}, got {got}")
    return dim.bit_length() - 1


def _check_finite(name: str, value):
    """A real or complex number; NaN and +-inf fail."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value):
    """A number above 0: NaN fails (NaN > 0 is False) and inf passes."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _check_times(t_grid) -> np.ndarray:
    """`t_grid` as a one-dimensional float array of finite times."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or not np.isfinite(ts).all():
        raise ValueError("t_grid must be a one-dimensional sequence of finite times")
    return ts


def _check_indices(indices: Sequence[int], n: int, what: str) -> tuple:
    """`indices` as a tuple of ints: nonempty, each an integer in range(n).

    `what` names them in the error, e.g. "target qubit" or "site".
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError(f"no {what}s given")
    for q in indices:
        if not _is_int(q):
            raise ValueError(f"{what} must be an integer, got {q!r}")
        if not 0 <= q < n:
            raise ValueError(f"{what} {q} not in range({n})")
    return tuple(int(q) for q in indices)


def _check_qubits(qubits: Sequence[int], n: int, what: str) -> tuple:
    """`qubits` as checked by _check_indices, and distinct."""
    qubits = _check_indices(qubits, n, what)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate {what}s")
    return qubits


def _check_targets(gate: Gate, targets: Sequence[int], n: int) -> tuple:
    """`targets` as checked by _check_qubits, one per qubit of `gate`."""
    targets = _check_qubits(targets, n, "target qubit")
    if len(targets) != gate.arity:
        raise ValueError(f"gate {gate.name} wants {gate.arity} targets, got {len(targets)}")
    return targets


def apply_gate(state: StateVector, gate: Gate, targets: Sequence[int]) -> StateVector:
    """Apply a gate to the listed target qubits.

    For 2-qubit gates targets[0] supplies the most significant bit of the
    gate's own basis index (the control for CNOT/CY/CZ).
    """
    n = state.n_qubits
    targets = _check_targets(gate, targets, n)
    u = gate.matrix.reshape([2] * (2 * gate.arity))
    new = _apply_local(u, state.amplitudes.reshape([2] * n), targets)
    return StateVector(n, new.reshape(-1))


def _apply_local(op: np.ndarray, tensor: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply `op`, shaped (out axes..., in axes...), to `axes` of a tensor
    whose axes may have any sizes; the other axes pass through."""
    n = tensor.ndim
    new = list(range(n, n + len(axes)))
    out = list(range(n))
    for a, b in zip(axes, new):
        out[a] = b
    return np.einsum(op, new + list(axes), tensor, list(range(n)), out)


def bell_basis_rotation(state: StateVector, q0: int, q1: int, inverse: bool = False) -> StateVector:
    """Map the computational basis of (q0, q1) onto the Bell basis.

    Forward: H on q0 then CNOT(q0 -> q1), so |00> -> (|00>+|11>)/sqrt2.
    inverse=True applies the adjoint (the Bell measurement rotation).
    """
    h = standard_gate("H")
    cnot = standard_gate("CNOT")
    if inverse:
        state = apply_gate(state, cnot, [q0, q1])
        return apply_gate(state, h, [q0])
    state = apply_gate(state, h, [q0])
    return apply_gate(state, cnot, [q0, q1])


def _sample_branches(state: StateVector, qubits: Sequence[int], u):
    """Outcome probabilities of measuring `qubits`, and the branch each uniform draws.

    `flat` lists the outcomes with the bits ordered like `qubits` (the
    first qubit most significant).  A uniform u (a scalar or an array)
    draws the branch k where u * cum[-1] falls in the cumulative sum,
    clipped to the last branch; drawing a branch below _MIN_BRANCH_PROB
    is a SimulationFault.  Returns (flat, k).
    """
    n = state.n_qubits
    probs = np.abs(state.amplitudes.reshape([2] * n)) ** 2
    others = tuple(q for q in range(n) if q not in qubits)
    pm = probs.sum(axis=others) if others else probs
    # pm axes are the measured qubits in ascending order; put them in
    # caller order before flattening
    srt = sorted(qubits)
    pm = np.transpose(pm, [srt.index(q) for q in qubits])
    flat = pm.reshape(-1)
    cum = np.cumsum(flat)
    k = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), flat.size - 1)
    p = flat[k]
    if np.any(p < _MIN_BRANCH_PROB):
        raise SimulationFault(f"collapse onto branch with probability {float(np.min(p))}")
    return flat, k


def _collapse(state: StateVector, qubits: Sequence[int], k: int, p: float):
    """Project `qubits` onto outcome k, of probability p, and renormalise.

    Returns (bits, collapsed_state) with bits ordered like `qubits`.
    """
    n = state.n_qubits
    m = len(qubits)
    bits = tuple((k >> (m - 1 - i)) & 1 for i in range(m))
    idx: list = [slice(None)] * n
    for q, b in zip(qubits, bits):
        idx[q] = b
    view = state.amplitudes.reshape([2] * n)
    new = np.zeros_like(view)
    new[tuple(idx)] = view[tuple(idx)] / math.sqrt(p)
    return bits, StateVector(n, new.reshape(-1))


def measure(state: StateVector, qubits: Sequence[int], rng: np.random.Generator):
    """Projectively measure the listed qubits.

    Returns (bits, collapsed_state) with bits ordered like `qubits`.
    Sampling draws one uniform variate and inverts the cumulative
    distribution, so a fixed generator state gives a fixed outcome.
    """
    qubits = _check_qubits(qubits, state.n_qubits, "measured qubit")
    flat, k = _sample_branches(state, qubits, rng.random())
    return _collapse(state, qubits, int(k), float(flat[k]))


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


# DensityMatrix admits eigenvalues down to -1e-10, so single-qubit radii up
# to 1 + 2e-10; beyond this bound a 2x2 matrix is not a state.
_BLOCH_RADIUS_TOL = 1e-9


def _bloch(red: np.ndarray) -> BlochVector:
    """Bloch vector (2 Re r01, -2 Im r01, r00 - r11) of a 2x2 matrix; a
    radius above 1 + 1e-9 is a ValueError."""
    r01 = complex(red[0, 1])
    v = BlochVector(2 * r01.real, -2 * r01.imag, float((red[0, 0] - red[1, 1]).real))
    if v.r > 1 + _BLOCH_RADIUS_TOL:
        raise ValueError(f"Bloch radius {v.r} outside the ball")
    return v


def _trace_out(matrix: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace each 2^n x 2^n matrix of a stack (shape (..., 2^n, 2^n)) over
    the qubits not in `keep` (sorted, distinct) by index arithmetic on its
    2n-axis tensor; the kept qubits stay in ascending order."""
    *batch, dim, _ = matrix.shape
    n, b = dim.bit_length() - 1, len(batch)
    traced = [q for q in range(n) if q not in keep]
    t = matrix.reshape(batch + [2] * (2 * n))
    # pair up the row/col axes of each traced qubit, one pair at a time
    for i, q in enumerate(traced):
        t = np.trace(t, axis1=b + q - i, axis2=b + q - i + n - i)
    d = 2 ** (n - len(traced))
    return t.reshape(*batch, d, d)


def bloch_vector(state, qubit: int) -> BlochVector:
    """Bloch vector of one qubit of a StateVector, a DensityMatrix, or a
    raw density-matrix array, which is validated as a DensityMatrix
    (a bad one raises DensityMatrix's ValueError).  A radius above
    1 + 1e-9 is a ValueError, as in density.bloch_ball_analysis."""
    if isinstance(state, StateVector):
        n = state.n_qubits
        (qubit,) = _check_qubits([qubit], n, "qubit")
        a = np.moveaxis(state.amplitudes.reshape([2] * n), qubit, 0).reshape(2, -1)
        red = a @ a.conj().T
    else:
        from . import density

        rho = state if isinstance(state, density.DensityMatrix) else density.DensityMatrix(state)
        (qubit,) = _check_qubits([qubit], rho.n_qubits, "qubit")
        red = _trace_out(rho.matrix, [qubit])
    return _bloch(red)


# ---------------------------------------------------------------------------
# circuits

@dataclass(frozen=True)
class GateStep:
    gate: Gate
    targets: tuple
    condition: Optional[tuple] = None  # (register, required int value)


@dataclass(frozen=True)
class MeasureStep:
    qubits: tuple
    key: str


class Circuit:
    """An ordered list of gate and measurement steps on n qubits.

    Build with add_gate/add_measure or from_ops; running a circuit never
    mutates it, so one instance may be shared across shots and threads.
    """

    def __init__(self, n_qubits: int):
        self.n_qubits = _check_int("n_qubits", n_qubits, 1)
        self.steps: list = []
        self._registers: dict = {}

    def add_gate(self, name: str, targets: Sequence[int], params: Iterable[float] = (),
                 condition: Optional[tuple] = None) -> "Circuit":
        gate = standard_gate(name, *params)
        targets = _check_targets(gate, targets, self.n_qubits)
        if condition is not None:
            reg, val = condition
            if reg not in self._registers:
                raise ValueError(f"condition register {reg!r} not measured earlier")
            width = self._registers[reg]
            if not (_is_int(val) and 0 <= val < 2**width):
                raise ValueError(f"condition value {val!r} can never match "
                                 f"the {width}-bit register {reg!r}")
            condition = (str(reg), int(val))
        self.steps.append(GateStep(gate, targets, condition))
        return self

    def add_measure(self, qubits: Sequence[int], key: str) -> "Circuit":
        qubits = _check_qubits(qubits, self.n_qubits, "measured qubit")
        if key in self._registers:
            raise ValueError(f"register {key!r} already used")
        self._registers[key] = len(qubits)
        self.steps.append(MeasureStep(qubits, str(key)))
        return self

    def register_widths(self) -> dict:
        return dict(self._registers)

    def to_ops(self) -> list:
        ops = []
        for s in self.steps:
            if isinstance(s, MeasureStep):
                ops.append({"measure": list(s.qubits), "key": s.key})
            else:
                d = {"gate": s.gate.name, "targets": list(s.targets)}
                if s.gate.params:
                    d["params"] = list(s.gate.params)
                if s.condition is not None:
                    d["condition"] = [s.condition[0], s.condition[1]]
                ops.append(d)
        return ops

    @classmethod
    def from_ops(cls, n_qubits: int, ops: Sequence[dict]) -> "Circuit":
        c = cls(n_qubits)
        for op in ops:
            if "measure" in op:
                c.add_measure(op["measure"], op["key"])
            elif "gate" in op:
                cond = op.get("condition")
                c.add_gate(op["gate"], op["targets"], op.get("params", ()),
                           condition=tuple(cond) if cond else None)
            else:
                raise ValueError(f"unrecognized op {op!r}")
        return c

    def digest(self) -> str:
        blob = json.dumps({"n": self.n_qubits, "ops": self.to_ops()},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_shots(circuit: Circuit, shots: int, rng: np.random.Generator, emit) -> None:
    """Run `shots` shots of `circuit` as one tree of measurement branches.

    The generator gives one uniform per MeasureStep per shot, shot-major:
    rng.random(shots * K) reshaped (shots, K), which equals the scalar
    draws of `shots` sequential executions (PCG64 fills an array with
    the scalar stream).  The circuit is walked once per distinct outcome
    history: at each MeasureStep the shots on that history are routed
    together through _sample_branches, and each drawn branch is
    collapsed once, when it is taken off the stack, so pending branches
    share their parent's state and at most one collapsed state per
    MeasureStep is alive.  Conditions skip gates only, never draws, and
    are evaluated from the branch's own registers.  Each leaf calls
    emit(shot indices, registers, final state).
    """
    steps = circuit.steps
    n_draws = sum(isinstance(s, MeasureStep) for s in steps)
    u = rng.random(shots * n_draws).reshape(shots, n_draws)
    # (step, state, registers, shot indices, draw column, pending branch):
    # the pending (k, p) is the outcome of MeasureStep `step` to collapse
    # `state` onto before walking on from step + 1
    stack = [(0, StateVector.zeros(circuit.n_qubits), {}, np.arange(shots), 0, None)]
    while stack:
        start, state, registers, idx, j, pending = stack.pop()
        if pending is not None:
            step = steps[start]
            bits, state = _collapse(state, step.qubits, *pending)
            registers = {**registers, step.key: "".join(str(b) for b in bits)}
            start += 1
        for i in range(start, len(steps)):
            step = steps[i]
            if isinstance(step, MeasureStep):
                flat, ks = _sample_branches(state, step.qubits, u[idx, j])
                for k in np.flatnonzero(np.bincount(ks, minlength=flat.size)):
                    stack.append((i, state, registers, idx[ks == k], j + 1,
                                  (int(k), float(flat[k]))))
                break
            if step.condition is not None:
                reg, want = step.condition
                if int(registers[reg], 2) != want:
                    continue
            state = apply_gate(state, step.gate, step.targets)
        else:
            emit(idx, registers, state)


def execute(circuit: Circuit, rng: np.random.Generator):
    """Run one shot. Returns (final StateVector, register map of bitstrings).

    Draws one uniform per MeasureStep from `rng`, in circuit order.
    """
    leaves = []
    _run_shots(circuit, 1, rng, lambda idx, registers, state: leaves.append((state, registers)))
    return leaves[0]


@dataclass
class ExperimentRecord:
    """Outcome record of a repeated-shot run."""

    shots: int
    seed: int
    circuit_digest: str
    registers: dict  # register name -> list of per-shot bitstrings

    def qubit_stream(self, key: str, position: int) -> str:
        """All shots of one bit position of a register, as a 0/1 string."""
        return "".join(s[position] for s in self.registers[key])

    def to_json(self) -> str:
        # the JSON object is the record's fields, whatever they are
        return json.dumps(vars(self), sort_keys=True, indent=2)


def run_circuit(circuit: Circuit, shots: int, seed: int) -> ExperimentRecord:
    """Run `shots` independent shots from |0...0> with a seeded generator.

    RNG contract: each shot consumes one uniform per MeasureStep, shots
    in order (shot-major), so the record equals `shots` sequential
    `execute` calls on one generator.  A circuit without measurements
    draws nothing.
    """
    shots = _check_int("shots", shots, 1, _MAX_SHOTS)
    names = list(circuit.register_widths())
    out = {k: np.empty(shots, dtype=object) for k in names}

    def emit(idx, registers, _state):
        for k in names:
            out[k][idx] = registers[k]

    _run_shots(circuit, shots, _rng(seed), emit)
    # _rng has checked the seed; the record keeps it as a plain int
    return ExperimentRecord(shots, int(seed), circuit.digest(),
                            {k: v.tolist() for k, v in out.items()})


# ---------------------------------------------------------------------------
# circuit catalog

def flip_circuit() -> Circuit:
    """Flip one qubit and measure it."""
    return Circuit(1).add_gate("X", [0]).add_measure([0], "Final state")


def bell_pair_circuit() -> Circuit:
    """Prepare (|00>+|11>)/sqrt2 and measure both qubits together."""
    c = Circuit(2).add_gate("H", [0]).add_gate("CNOT", [0, 1])
    return c.add_measure([0, 1], "Final state")


def exchange_circuit(t: float) -> Circuit:
    """Swap |+> and XPow(t)|0> between two wires with three CNOTs, then
    measure each wire into its own register."""
    c = Circuit(2)
    c.add_gate("H", [0]).add_gate("XPow", [1], (t,))
    c.add_gate("CNOT", [0, 1]).add_gate("CNOT", [1, 0]).add_gate("CNOT", [0, 1])
    c.add_measure([1], "q1").add_measure([0], "q0")
    return c


def teleport_circuit(a: float, b: float, deferred: bool) -> Circuit:
    """Teleport XPow(a), YPow(b) applied to |0> from wire 0 to wire 2.

    deferred=False measures the message and ancilla and applies classically
    controlled X/Z on wire 2; deferred=True keeps the controls quantum.
    """
    c = Circuit(3)
    c.add_gate("XPow", [0], (a,)).add_gate("YPow", [0], (b,))
    c.add_gate("H", [1]).add_gate("CNOT", [1, 2])
    # Bell measurement rotation on (message, ancilla)
    c.add_gate("CNOT", [0, 1]).add_gate("H", [0])
    if deferred:
        c.add_gate("CNOT", [1, 2]).add_gate("CZ", [0, 2])
    else:
        c.add_measure([1], "alice").add_measure([0], "msg")
        c.add_gate("X", [2], condition=("alice", 1))
        c.add_gate("Z", [2], condition=("msg", 1))
    return c


@dataclass
class TeleportResult:
    message_initial: BlochVector
    bob: BlochVector
    message_final: BlochVector


def teleport(message_prep: tuple, deferred: bool, seed: int) -> TeleportResult:
    """Teleport the state XPow(a), YPow(b)|0> and report Bloch vectors."""
    a, b = message_prep
    msg = StateVector.zeros(1)
    msg = apply_gate(msg, standard_gate("XPow", a), [0])
    msg = apply_gate(msg, standard_gate("YPow", b), [0])
    initial = bloch_vector(msg, 0)
    state, _ = execute(teleport_circuit(a, b, deferred), _rng(seed))
    return TeleportResult(initial, bloch_vector(state, 2), bloch_vector(state, 0))


# ---------------------------------------------------------------------------
# text rendering

def render_circuit(circuit: Circuit, wire_names: Optional[Sequence[str]] = None) -> str:
    """Wire-diagram listing of a circuit (informational only)."""
    n = circuit.n_qubits
    rows = 2 * n - 1  # wire rows interleaved with connector rows
    grid: list = [[] for _ in range(rows)]
    for step in circuit.steps:
        col = [""] * rows
        if isinstance(step, MeasureStep):
            top = min(step.qubits)
            for q in step.qubits:
                col[2 * q] = f"M({step.key!r})" if q == top else "M"
            qs = step.qubits
        else:
            g = step.gate
            labels = {
                "CNOT": ("@", "X"), "CX": ("@", "X"), "CY": ("@", "Y"),
                "CZ": ("@", "@"), "SWAP": ("×", "×"),
            }
            if g.arity == 2:
                l0, l1 = labels.get(g.name, (g.label(), g.label()))
                col[2 * step.targets[0]] = l0
                col[2 * step.targets[1]] = l1
            else:
                lab = g.label()
                if step.condition is not None:
                    lab += "?%s" % step.condition[0]
                col[2 * step.targets[0]] = lab
            qs = step.targets
        if len(qs) >= 2:
            lo, hi = min(qs) * 2, max(qs) * 2
            for r in range(lo + 1, hi):
                col[r] = col[r] or ("┼" if r % 2 == 0 else "│")
        width = max(len(s) for s in col)
        for r in range(rows):
            s = col[r]
            if r % 2 == 0:
                grid[r].append(s.ljust(width, "─") if s else "─" * width)
            else:
                grid[r].append(s.ljust(width) if s else " " * width)
    lines = []
    if wire_names is None:
        prefix = [f"{q}: " for q in range(n)]
    else:
        if len(wire_names) != n:
            raise ValueError("need one wire name per qubit")
        prefix = [f"{name}: " for name in wire_names]
    pw = max(len(p) for p in prefix)
    for r in range(rows):
        if r % 2 == 0:
            head = prefix[r // 2].rjust(pw)
            lines.append(head + "───" + "───".join(grid[r]) + "───")
        else:
            body = "   ".join(grid[r])
            if body.strip():
                lines.append(" " * pw + "   " + body + "   ")
    return "\n".join(line.rstrip() for line in lines)
