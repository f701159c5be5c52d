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

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _controlled(u: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


_CNOT = _controlled(_X)


def _pauli_sums(m: np.ndarray) -> np.ndarray:
    """tr(P M) for every n-qubit Pauli string P, qubit 0 most significant, one
    qubit per step (Hantzko, Binkowski & Gupta, arXiv:2310.13421): a 2^n x 2^n
    matrix's block [[a, b], [c, d]] goes to a+d, b+c, i(b-c), a-d (1, x, y, z);
    a diagonal's 2^n entries, pair (a, d), go to a+d, a-d (1, z), which is the
    Walsh-Hadamard transform, exact on integers and its own inverse up to 2^n.
    """
    n, k = m.shape[0].bit_length() - 1, m.ndim
    # axes (row 0, column 0, row 1, column 1, ...), one block per qubit
    t = m.reshape((2,) * k * n).transpose(np.arange(k * n).reshape(k, n).T.ravel())
    for _ in range(n):
        if k == 2:
            a, b, c, d = t.reshape(4, -1)
            t = np.stack([a + d, b + c, 1j * (b - c), a - d], axis=-1)
        else:
            a, d = t.reshape(2, -1)
            t = np.stack([a + d, a - d], axis=-1)
    return t.ravel()


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
    t = float(_check_real(f"gate {name} parameter", params[0]))
    if name == "RPhi":
        return Gate("RPhi", (t,), np.array([[1, 0], [0, np.exp(1j * t)]]))
    # exp(i * pauli * pi * t / 2); t=1 gives i*pauli, a global phase away
    # from the bare Pauli
    pauli = {"XPow": _X, "YPow": _Y, "ZPow": _Z}[name]
    a = math.pi * t / 2.0
    return Gate(name, (t,), math.cos(a) * _I2 + 1j * math.sin(a) * pauli)


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


def _is_real(v) -> bool:
    # likewise a real number: not a bool, and not text such as "0.5";
    # float first, as the ABC check alone costs about 0.4 us a call
    return isinstance(v, (float, numbers.Real)) and not isinstance(v, bool)


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


def _check_real(name: str, value):
    """A real number: not a bool, a string or a complex; NaN and +-inf fail."""
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_finite(name: str, value):
    """A real or complex number, not a bool; NaN and +-inf fail (for
    Hamiltonian coefficients: every real argument takes _check_real)."""
    if isinstance(value, bool) or not (isinstance(value, (float, numbers.Complex))
                                       and cmath.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value):
    """A real number above 0: NaN fails (NaN > 0 is False) and inf passes."""
    if not (_is_real(value) and value > 0.0):
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
    whose axes may have any sizes; the other axes pass through.

    The result is in C order.  einsum may return a permuted layout, and
    a later sum over a permuted layout, such as a measurement marginal,
    adds in another order and moves last bits."""
    n = tensor.ndim
    new = list(range(n, n + len(axes)))
    out = list(range(n))
    for a, b in zip(axes, new):
        out[a] = b
    return np.ascontiguousarray(np.einsum(op, new + list(axes), tensor, list(range(n)), out))


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


def _sample_branches(amps: np.ndarray, qubits: Sequence[int], u):
    """Outcome probabilities of measuring `qubits` of `amps`, and the branch each uniform draws.

    `flat` lists the outcomes with the bits ordered like `qubits` (the
    first qubit most significant).  A uniform u (a scalar or an array)
    draws the branch k where u * cum[-1] falls in the cumulative sum,
    clipped to the last branch; drawing a branch below _MIN_BRANCH_PROB,
    or of NaN probability, or a total that is not finite is a
    SimulationFault.  Returns (flat, k).
    """
    others = tuple(q for q in range(amps.ndim) if q not in qubits)
    pm = (np.abs(amps) ** 2).sum(axis=others)
    # pm's axes are the measured qubits in ascending order; flat's follow `qubits`
    srt = sorted(qubits)
    flat = np.transpose(pm, [srt.index(q) for q in qubits]).reshape(-1)
    cum = flat.cumsum()
    k = np.minimum(cum.searchsorted(u * cum[-1], side="right"), flat.size - 1)
    p = flat[k]
    # an empty draw (a CHSH pair without shots) has no floor to check; NaN fails it
    if p.size and not p.min() >= _MIN_BRANCH_PROB:
        raise SimulationFault(f"collapse onto branch with probability {float(p.min())}")
    # a NaN before the last branch makes the total NaN, and every u then
    # draws the last branch, whose own probability may pass the floor
    if not math.isfinite(cum[-1]):
        raise SimulationFault(f"branch probabilities sum to {float(cum[-1])}")
    return flat, k


def _collapse(amps: np.ndarray, qubits: Sequence[int], k: int, p: float):
    """Project `qubits` of `amps` onto outcome k, of probability p, and renormalise.

    Returns (bits, collapsed tensor) with bits ordered like `qubits`.
    """
    m = len(qubits)
    bits = tuple((k >> (m - 1 - i)) & 1 for i in range(m))
    idx: list = [slice(None)] * amps.ndim
    for q, b in zip(qubits, bits):
        idx[q] = b
    new = np.zeros(amps.shape, amps.dtype)
    new[tuple(idx)] = amps[tuple(idx)] / math.sqrt(p)
    return bits, new


def measure(state: StateVector, qubits: Sequence[int], rng: np.random.Generator):
    """Projectively measure the listed qubits.

    Returns (bits, collapsed_state) with bits ordered like `qubits`.
    Sampling draws one uniform variate and inverts the cumulative
    distribution, so a fixed generator state gives a fixed outcome.
    """
    qubits = _check_qubits(qubits, state.n_qubits, "measured qubit")
    amps = state.amplitudes.reshape((2,) * state.n_qubits)
    flat, k = _sample_branches(amps, qubits, rng.random())
    bits, new = _collapse(amps, qubits, int(k), float(flat[k]))
    return bits, StateVector(amps.ndim, new)


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
            if not (isinstance(condition, (tuple, list)) and len(condition) == 2
                    and isinstance(condition[0], str)):
                raise ValueError(f"condition must be a (register, value) pair, "
                                 f"got {condition!r}")
            reg, val = condition
            if reg not in self._registers:
                raise ValueError(f"condition register {reg!r} not measured earlier")
            width = self._registers[reg]
            if not (_is_int(val) and 0 <= val < 2**width):
                raise ValueError(f"condition value {val!r} can never match "
                                 f"the {width}-bit register {reg!r}")
            condition = (reg, int(val))
        self.steps.append(GateStep(gate, targets, condition))
        return self

    def add_measure(self, qubits: Sequence[int], key: str) -> "Circuit":
        qubits = _check_qubits(qubits, self.n_qubits, "measured qubit")
        if not isinstance(key, str):
            raise ValueError(f"register key must be a string, got {key!r}")
        if key in self._registers:
            raise ValueError(f"register {key!r} already used")
        self._registers[key] = len(qubits)
        self.steps.append(MeasureStep(qubits, key))
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
                c.add_gate(op["gate"], op["targets"], op.get("params", ()),
                           condition=op.get("condition"))
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
    together through _sample_branches.  Where they all draw one branch,
    the walk collapses onto it and goes on in place with the same shot
    indices; only a real split pushes one stack entry per drawn branch,
    and each is collapsed when it is taken off the stack, so pending
    branches share their parent's state and at most one collapsed state
    per MeasureStep is alive.  A single shot, as in `execute`, never
    splits.  Conditions skip gates only, never draws, and are evaluated
    from the branch's own registers.  A state is a (2,) * n amplitude
    tensor checked with the circuit, not per node, and kept in C order
    by _apply_local.  Each leaf calls emit(shot indices, registers,
    amplitudes).
    """
    steps, n = circuit.steps, circuit.n_qubits
    ops = [s.gate.matrix.reshape((2,) * (2 * s.gate.arity)) if isinstance(s, GateStep)
           else None for s in steps]
    n_draws = sum(isinstance(s, MeasureStep) for s in steps)
    u = rng.random(shots * n_draws).reshape(shots, n_draws)
    # (step, amplitudes, registers, shot indices, draw column, pending (k, p)):
    # the outcome of MeasureStep `step` to collapse onto before step + 1
    stack = [(0, StateVector.zeros(n).amplitudes.reshape((2,) * n), {}, np.arange(shots), 0, None)]
    while stack:
        start, amps, registers, idx, j, pending = stack.pop()
        for i in range(start, len(steps)):
            step = steps[i]
            if isinstance(step, MeasureStep):
                if pending is None:
                    flat, ks = _sample_branches(amps, step.qubits, u[idx, j])
                    drawn = np.bincount(ks, minlength=flat.size).nonzero()[0]
                    if drawn.size != 1:
                        for k in drawn:
                            stack.append((i, amps, registers, idx[ks == k], j,
                                          (int(k), float(flat[k]))))
                        break
                    pending = int(drawn[0]), float(flat[drawn[0]])
                bits, amps = _collapse(amps, step.qubits, *pending)
                registers = {**registers, step.key: "".join(str(b) for b in bits)}
                j, pending = j + 1, None
                continue
            if step.condition is not None:
                reg, want = step.condition
                if int(registers[reg], 2) != want:
                    continue
            amps = _apply_local(ops[i], amps, step.targets)
        else:
            emit(idx, registers, amps)


def execute(circuit: Circuit, rng: np.random.Generator):
    """Run one shot. Returns (final StateVector, register map of bitstrings).

    Draws one uniform per MeasureStep from `rng`, in circuit order.
    """
    leaves = []
    _run_shots(circuit, 1, rng, lambda *leaf: leaves.append(leaf))
    _, registers, amps = leaves[0]
    return StateVector(circuit.n_qubits, amps), registers


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

# the labels of a two-qubit gate's wires, in target order
_PAIR_LABELS = {
    "CNOT": ("@", "X"), "CX": ("@", "X"), "CY": ("@", "Y"),
    "CZ": ("@", "@"), "SWAP": ("×", "×"),
}


def render_circuit(circuit: Circuit, wire_names: Optional[Sequence[str]] = None) -> str:
    """Wire-diagram listing of a circuit (informational only).  A condition
    marks every wire of its gate: each of its labels gains "?register"."""
    n = circuit.n_qubits
    wire_names = range(n) if wire_names is None else wire_names
    if len(wire_names) != n:
        raise ValueError("need one wire name per qubit")
    rows = 2 * n - 1  # wire rows interleaved with connector rows
    grid: list = [[] for _ in range(rows)]
    for step in circuit.steps:
        if isinstance(step, MeasureStep):
            qs = step.qubits
            labels = [f"M({step.key!r})" if q == min(qs) else "M" for q in qs]
        else:
            qs, g = step.targets, step.gate
            labels = _PAIR_LABELS.get(g.name, [g.label()] * g.arity)
            if step.condition is not None:
                labels = [f"{lab}?{step.condition[0]}" for lab in labels]
        col = [""] * rows
        for q, lab in zip(qs, labels):
            col[2 * q] = lab
        for r in range(2 * min(qs) + 1, 2 * max(qs)):
            col[r] = col[r] or ("┼" if r % 2 == 0 else "│")
        width = max(map(len, col))
        for r, s in enumerate(col):
            grid[r].append(s.ljust(width, "─" if r % 2 == 0 else " "))
    prefix = [f"{name}: " for name in wire_names]
    pw = max(map(len, prefix))
    lines = []
    for r in range(rows):
        if r % 2 == 0:
            lines.append(prefix[r // 2].rjust(pw) + "───" + "───".join(grid[r]) + "───")
        elif "".join(grid[r]).strip():
            lines.append(" " * pw + "   " + "   ".join(grid[r]) + "   ")
    return "\n".join(line.rstrip() for line in lines)
