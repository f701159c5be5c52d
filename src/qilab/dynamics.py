"""Hamiltonians as weighted operator strings and exact time evolution.

Hamiltonians are sums of tensor-product strings over the single-qubit
symbols {1, x, y, z, +, -}.  Evolution uses the Hermitian
eigendecomposition U(t) = V exp(-i L t) V', which keeps U exactly
unitary at these dimensions and doubles as the spectrum oracle.  The
module also houses the named interaction models (Rabi exchange, the
two-splitting measurement model, the three-qubit decoherence model),
Kraus-operator extraction from the joint unitary, and the swap-based
measurement demonstration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import density, qstate
from .density import DensityMatrix
from .qstate import StateVector

__all__ = [
    "OperatorString",
    "HamiltonianSpec",
    "KrausSet",
    "build_hamiltonian",
    "dense",
    "from_dense",
    "propagator",
    "evolve",
    "ReducedSample",
    "reduced_evolution",
    "rabi_hamiltonian",
    "measurement_hamiltonian",
    "decoherence_hamiltonian",
    "kraus_extract",
    "swap_measurement_demo",
]


@dataclass(frozen=True)
class OperatorString:
    """One weighted tensor-product term, e.g. 0.5 * (z 1 1)."""

    coefficient: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f not in qstate.PAULI:
                raise ValueError(f"unknown factor symbol {f!r}; use one of {sorted(qstate.PAULI)}")
        if not self.factors:
            raise ValueError("factors must be nonempty")

    def dense(self) -> np.ndarray:
        """coefficient * (f0 kron f1 kron ...): one broadcast product per
        factor, the products np.kron forms, in the same order."""
        out = np.array([[self.coefficient]], dtype=complex)
        for f in self.factors:
            d = 2 * out.shape[0]
            out = (out[:, None, :, None] * qstate.PAULI[f][None, :, None, :]).reshape(d, d)
        return out


@dataclass(frozen=True)
class HamiltonianSpec:
    """Sum of operator strings on n_qubits qubits, with its dense matrix.

    The terms must be OperatorStrings on n_qubits qubits with finite
    coefficients, and their sum must be Hermitian within 1e-12.  The
    sum is formed once, here, and kept read-only as `matrix`.
    """

    n_qubits: int
    terms: tuple
    matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        for term in self.terms:
            if len(term.factors) != self.n_qubits:
                raise ValueError("all operator strings must share one qubit count")
            qstate._check_finite("coefficient", term.coefficient)
        dim = 2**self.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            m += term.dense()
        if not np.abs(m - m.conj().T).max() <= 1e-12:
            raise ValueError("operator-string sum is not Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def build_hamiltonian(terms) -> HamiltonianSpec:
    """Assemble operator strings into a Hamiltonian, enforcing Hermiticity.

    Each term is an OperatorString or a (coefficient, factors) pair.
    All strings must act on the same number of qubits, their
    coefficients must be finite and the dense sum must be Hermitian
    within 1e-12 (HamiltonianSpec's rules).
    """
    strings = []
    for term in terms:
        if not isinstance(term, OperatorString):
            coeff, factors = term
            term = OperatorString(complex(coeff), tuple(factors))
        strings.append(term)
    if not strings:
        raise ValueError("a Hamiltonian needs at least one term")
    return HamiltonianSpec(len(strings[0].factors), tuple(strings))


def dense(h: HamiltonianSpec) -> np.ndarray:
    """The dense matrix sum of the operator strings: the read-only array
    the HamiltonianSpec formed and checked when it was built."""
    return h.matrix


def from_dense(matrix) -> HamiltonianSpec:
    """Decompose a Hermitian 2^n x 2^n matrix into Pauli strings.

    Coefficients are trace inner products tr(P H)/2^n; terms below
    1e-12 are dropped.  The result round-trips through dense().
    """
    m = np.asarray(matrix, dtype=complex)
    n = qstate._check_dim("matrix", m, 1)
    if not np.max(np.abs(m - m.conj().T)) <= 1e-12:  # NaN fails too
        raise ValueError("matrix must be Hermitian")
    dim = m.shape[0]
    terms = []
    for factors in itertools.product("1xyz", repeat=n):
        p = OperatorString(1.0, factors).dense()
        coeff = np.trace(p @ m) / dim
        if abs(coeff) > 1e-12:
            # Hermitian input guarantees a real coefficient on Pauli strings.
            terms.append(OperatorString(complex(coeff.real), factors))
    return build_hamiltonian(terms)


def propagator(h: HamiltonianSpec, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) through the Hermitian eigendecomposition."""
    qstate._check_finite("time", t)
    if t == 0.0:
        return np.eye(2**h.n_qubits, dtype=complex)
    evals, vecs = np.linalg.eigh(dense(h))
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def evolve(h: HamiltonianSpec, t: float, initial):
    """Evolve a StateVector or DensityMatrix by exp(-i H t).

    Returns the same kind as the input; t = 0 returns the input
    unchanged once it has passed the same checks as any other t.
    """
    if not isinstance(initial, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot evolve {type(initial).__name__}")
    if initial.n_qubits != h.n_qubits:
        raise ValueError("state and Hamiltonian qubit counts differ")
    if t == 0.0:
        return initial
    u = propagator(h, t)
    if isinstance(initial, StateVector):
        return StateVector(h.n_qubits, u @ initial.amplitudes)
    return DensityMatrix(u @ initial.matrix @ u.conj().T, check_psd=False)


@dataclass(frozen=True)
class ReducedSample:
    """One time point of a reduced-dynamics run."""

    t: float
    rho: DensityMatrix
    entropy_bits: float
    purity: float
    offdiag_abs: float


def reduced_evolution(h: HamiltonianSpec, t_grid, rho_se0: DensityMatrix, keep) -> list:
    """Reduced system dynamics: rho_S(t) = tr_E(U rho_SE(0) U') on a grid.

    t_grid is a one-dimensional sequence of finite times and keep lists
    the system qubit indices.  Each sample carries rho_S(t) as a
    DensityMatrix, its entropy in bits, its purity, and its largest
    off-diagonal magnitude.  The samples wrap the arrays of
    _reduced_stack, each reduced matrix built into its own DensityMatrix.
    A sample is the same, bit for bit, whatever grid it comes in.
    """
    ts, rho_s, entropy, purity, offdiag = _reduced_stack(h, t_grid, rho_se0, keep)
    return [ReducedSample(t, rho, e, p, o) for t, rho, e, p, o in zip(
        ts.tolist(), density._density_stack(rho_s), entropy.tolist(),
        purity.tolist(), offdiag.tolist())]


def _reduced_stack(h: HamiltonianSpec, t_grid, rho_se0: DensityMatrix, keep):
    """reduced_evolution's arrays: (times, rho_S stack, entropies in bits,
    purities, largest off-diagonal magnitudes), one entry per time.

    One eigendecomposition serves the whole grid, which is evolved as
    one (T, d, d) stack: the joint states are held to DensityMatrix's
    rules, the environment is traced out, the reduced stack is held to
    the same rules once, and one eigvalsh gives every reduced spectrum.
    """
    ts = qstate._check_times(t_grid)
    if rho_se0.n_qubits != h.n_qubits:
        raise ValueError("state and Hamiltonian qubit counts differ")
    keep = sorted(set(qstate._check_indices(keep, h.n_qubits, "qubit")))
    evals, vecs = np.linalg.eigh(dense(h))
    rho0 = vecs.conj().T @ rho_se0.matrix @ vecs
    u = vecs * np.exp(-1j * evals * ts[:, None])[:, None, :]
    rho_s, entropy = density._reduce(u @ rho0 @ u.conj().swapaxes(-1, -2), keep)
    purity = density._purities(rho_s)
    off = np.abs(rho_s)
    diag = np.arange(rho_s.shape[-1])
    off[:, diag, diag] = 0.0
    offdiag = off.max(axis=(-2, -1))
    return ts, rho_s, entropy, purity, offdiag


def rabi_hamiltonian(c1: float = 1.0, c2: float = 1.0) -> HamiltonianSpec:
    """Exchange model behind the Rabi-oscillation run.

    H = -(c1 z1 + c2 (+- + -+)): a level splitting on the system qubit
    plus excitation exchange with one environment qubit.
    """
    return build_hamiltonian([
        (-c1, "z1"),
        (-c2, "+-"),
        (-c2, "-+"),
    ])


def measurement_hamiltonian(c11: float = 1.0, c22: float = 1.0,
                            c12: float = 1.0) -> HamiltonianSpec:
    """Two-splitting exchange model used for Kraus extraction.

    H = -(c11 z1 + c22 1z + c12 (+- + -+)); both qubits carry level
    splittings, which makes the extracted Kraus pairs act like
    approximate pointer-basis projectors.
    """
    return build_hamiltonian([
        (-c11, "z1"),
        (-c22, "1z"),
        (-c12, "+-"),
        (-c12, "-+"),
    ])


def decoherence_hamiltonian(c11: float = 0.9, c22: float = 0.3, c33: float = 0.4,
                            c12: float = 0.5, c13: float = 0.4) -> HamiltonianSpec:
    """Three-qubit model: one system qubit exchanging with two environment qubits.

    H = -(c11 z11 + c22 1z1 + c33 11z + c12 (+-1 + -+1) + c13 (+1- + -1+)).
    """
    return build_hamiltonian([
        (-c11, "z11"),
        (-c22, "1z1"),
        (-c33, "11z"),
        (-c12, "+-1"),
        (-c12, "-+1"),
        (-c13, "+1-"),
        (-c13, "-1+"),
    ])


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators from the 2x2 sub-blocks of a two-qubit unitary.

    With basis order |se> (system bit first), e_ij maps the
    environment-j input sector to the environment-i output sector.
    """

    e11: np.ndarray
    e12: np.ndarray
    e21: np.ndarray
    e22: np.ndarray
    time: float

    def apply(self, rho_s: np.ndarray, env_bit: int) -> np.ndarray:
        """Reduced evolution of a system matrix for environment |0> or |1>."""
        pair = (self.e11, self.e21) if env_bit == 0 else (self.e12, self.e22)
        return sum(e @ rho_s @ e.conj().T for e in pair)

    def p_matrices(self):
        """The bilinear combinations P_ij = E_ij E_ij'.

        Each row pair sums to the identity: P11 + P12 = P21 + P22 = 1.
        """
        return tuple(e @ e.conj().T for e in (self.e11, self.e12, self.e21, self.e22))

    def completeness_defect(self) -> float:
        """Max deviation of the two trace-preservation sums from identity."""
        eye = np.eye(2)
        d0 = self.e11.conj().T @ self.e11 + self.e21.conj().T @ self.e21 - eye
        d1 = self.e12.conj().T @ self.e12 + self.e22.conj().T @ self.e22 - eye
        return float(max(np.max(np.abs(d0)), np.max(np.abs(d1))))


def kraus_extract(h: HamiltonianSpec, t: float) -> KrausSet:
    """Kraus operators of a two-qubit model at time t.

    E11 = U[(0,2),(0,2)], E12 = U[(0,2),(1,3)], E21 = U[(1,3),(0,2)],
    E22 = U[(1,3),(1,3)]: the environment-bit sectors of the joint
    unitary, read in the |se> basis.
    """
    if h.n_qubits != 2:
        raise ValueError("Kraus extraction expects a two-qubit Hamiltonian")
    u = propagator(h, t)
    env0, env1 = [0, 2], [1, 3]
    return KrausSet(
        u[np.ix_(env0, env0)], u[np.ix_(env0, env1)],
        u[np.ix_(env1, env0)], u[np.ix_(env1, env1)],
        float(t),
    )


def swap_measurement_demo(t: float, shots: int, seed: int):
    """Swap-then-measure circuit run: returns (record, correlation).

    The prepared qubit state X^t is swapped onto qubit 0 and both
    qubits are measured.  The sample correlation between the q0 and q1
    registers is 0.0 by convention when either register is constant.
    """
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"t must lie in [0, 2], got {t}")
    record = qstate.run_circuit(qstate.exchange_circuit(t), shots, seed)
    q0 = np.array([int(b) for b in record.registers["q0"]], dtype=float)
    q1 = np.array([int(b) for b in record.registers["q1"]], dtype=float)
    if np.std(q0) == 0.0 or np.std(q1) == 0.0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(q0, q1)[0, 1])
    return record, corr
