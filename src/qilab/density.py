"""Density matrices: partial trace, purity, von Neumann entropy (base 2),
mutual information, Bloch-ball geometry."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .qstate import SimulationFault, StateVector, _bloch, _check_dim, _check_indices, _trace_out

__all__ = [
    "DensityMatrix",
    "from_statevector",
    "partial_trace",
    "purity",
    "entropy_bits",
    "EntropyReport",
    "von_neumann_entropy",
    "mutual_information",
    "bloch_ball_analysis",
]

_HERM_ATOL = 1e-12
_EIG_CLAMP = 1e-10


@dataclass(frozen=True, eq=False, slots=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix on n qubits."""

    matrix: np.ndarray = field(repr=False)
    check_psd: InitVar[bool] = True
    n_qubits: int = field(init=False)

    def __post_init__(self, check_psd: bool):
        m = np.asarray(self.matrix, dtype=complex)
        n = _check_dim("matrix", m, 0)
        _check_density(m)
        if check_psd and float(np.linalg.eigvalsh(m)[0]) < -_EIG_CLAMP:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", m)


def _check_density(m: np.ndarray) -> None:
    """DensityMatrix's rules for each matrix of a stack m (shape
    (..., d, d)): finite, Hermitian within 1e-12, unit trace.  A broken
    rule raises DensityMatrix's ValueError, naming the first bad trace."""
    # a NaN or inf entry leaves a NaN or inf residual (inf - inf is NaN,
    # so numpy's warning is silenced), and this one test catches it too;
    # isfinite only picks the message
    with np.errstate(invalid="ignore"):
        residual = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not residual <= _HERM_ATOL:
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        raise ValueError("matrix is not Hermitian within 1e-12")
    tr = m.trace(0, -2, -1).real
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > _HERM_ATOL:
        raise ValueError(f"trace is {tr[off > _HERM_ATOL][0]}, not 1")


def _density_stack(m: np.ndarray) -> list:
    """One DensityMatrix (check_psd=False) per matrix of a (T, 2^n, 2^n) stack."""
    return [DensityMatrix(matrix, check_psd=False) for matrix in m]


def _reduce(stack: np.ndarray, keep: Sequence[int]) -> tuple:
    """Trace each matrix of a stack (shape (..., d, d)) down to the qubits
    `keep` (sorted, distinct), both stacks held to DensityMatrix's rules:
    (reduced stack, entropy in bits of each reduced matrix)."""
    _check_density(stack)
    reduced = _trace_out(stack, keep)
    _check_density(reduced)
    return reduced, entropy_bits(_clamped_eigenvalues(reduced))


def from_statevector(state: StateVector) -> DensityMatrix:
    """The projector |psi><psi|."""
    a = state.amplitudes
    return DensityMatrix(np.outer(a, a.conj()), check_psd=False)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not in `keep`.

    Kept qubits appear in the result in ascending original order, and a
    qubit listed twice is kept once.
    """
    keep = sorted(set(_check_indices(keep, rho.n_qubits, "qubit")))
    if len(keep) == rho.n_qubits:
        return rho
    return DensityMatrix(_trace_out(rho.matrix, keep), check_psd=False)


def _clamped_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a stack of density matrices (shape (..., d, d)),
    clipped to [0, 1]; an eigenvalue below -1e-10 is a ValueError."""
    lam = np.linalg.eigvalsh(m)
    low = lam[..., 0]
    below = low < -_EIG_CLAMP
    if below.any():
        raise ValueError(f"eigenvalue {low[below][0]} below the -1e-10 PSD window")
    # unit trace bounds the top excess by the same roundoff window
    return np.clip(lam, 0.0, 1.0)


def _purities(m: np.ndarray) -> np.ndarray:
    """tr(m^2) of each matrix of a stack (shape (..., d, d))."""
    return np.einsum("...ij,...ji->...", m, m).real


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states."""
    return float(_purities(rho.matrix))


def entropy_bits(eigenvalues: np.ndarray):
    """-sum(p log2 p) over the last axis, entries <= 0 contributing 0: a
    float for one spectrum, an array for a stack of them."""
    lam = np.asarray(eigenvalues, dtype=float)
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    s = -(lam * logs).sum(axis=-1) + 0.0  # fold -0.0 from a pure spectrum
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class EntropyReport:
    entropy_bits: float
    purity: float
    eigenvalues: tuple


def von_neumann_entropy(rho: DensityMatrix) -> EntropyReport:
    """S(rho) = -tr(rho log2 rho) via Hermitian eigendecomposition."""
    lam = _clamped_eigenvalues(rho.matrix)
    return EntropyReport(entropy_bits(lam), purity(rho), tuple(float(v) for v in lam))


def mutual_information(rho_ab: DensityMatrix, partition: Sequence[int]) -> float:
    """MI = S_A + S_B - S_AB for the bipartition (partition, complement)."""
    n = rho_ab.n_qubits
    part_a = sorted(set(_check_indices(partition, n, "qubit")))
    part_b = [q for q in range(n) if q not in part_a]
    if not part_b:
        raise ValueError("partition must be a nonempty proper subset")
    s_a = von_neumann_entropy(partial_trace(rho_ab, part_a)).entropy_bits
    s_b = von_neumann_entropy(partial_trace(rho_ab, part_b)).entropy_bits
    s_ab = von_neumann_entropy(rho_ab).entropy_bits
    return s_a + s_b - s_ab


def bloch_ball_analysis(rho: DensityMatrix):
    """Bloch vector, radius and entropy of a single-qubit state.

    The entropy comes from the closed form in r; det(rho) = (1-r^2)/4 is
    checked against the matrix as a consistency guard.  A radius above
    1 + 1e-9 is a ValueError, as in qstate.bloch_vector.
    """
    if rho.matrix.shape != (2, 2):
        raise ValueError("bloch_ball_analysis takes a single-qubit state")
    m = rho.matrix
    v = _bloch(m)
    r = v.r
    det = float(np.linalg.det(m).real)
    if abs(det - (1 - r * r) / 4.0) > 1e-12:
        raise SimulationFault("det(rho) != (1-r^2)/4; inconsistent state")
    p = np.array([(1 + r) / 2.0, (1 - r) / 2.0])
    s = entropy_bits(p)
    return v, r, s
