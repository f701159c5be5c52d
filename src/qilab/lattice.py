"""Qubit digitization of a scalar field and the truncated two-site Schwinger model.

Field digitization maps 2^{n_q} field values onto the odd-integer
ladder, with exact sigma-z string decompositions obtained by an
integer Walsh-Hadamard transform.  Harmonic-oscillator eigenfunctions
sampled on the Nyquist window quantify how much information the
digitization keeps.  The Schwinger-model half builds the truncated
4x4 Hamiltonian, its ground state and real-time evolution, and
rederives the matrix from first principles: each gauge-invariant state
is a tensor over four fermion sites and four flux links, and the
Hamiltonian reaches it term by term through its local operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import PAULI, StateVector, _apply_local, _check_finite, _check_int, _check_times

__all__ = [
    "PauliDecomposition",
    "DigitizedField",
    "SchwingerParams",
    "FidelityReport",
    "GroundState",
    "EvolutionSeries",
    "digitize",
    "nyquist_L",
    "hermite_eigenfunction",
    "sampling_grid",
    "sampling_fidelity",
    "schwinger_h4",
    "schwinger_ground_state",
    "schwinger_evolve",
    "schwinger_project",
    "gauss_report",
]


@dataclass(frozen=True)
class PauliDecomposition:
    """Diagonal operator as integer-weighted sigma-z strings.

    Each term is (coefficient, factors) with factors a per-qubit tuple
    over {"1", "z"}, leftmost factor acting on the most significant
    qubit.  Coefficients are exact integers.
    """

    terms: tuple

    def n_qubits(self) -> int:
        return len(self.terms[0][1])

    def diagonal(self) -> list:
        """Eigenvalue ladder reconstructed with integer arithmetic."""
        n = self.n_qubits()
        diag = [0] * (2**n)
        for coeff, factors in self.terms:
            mask = 0
            for q, f in enumerate(factors):
                if f == "z":
                    mask |= 1 << (n - 1 - q)
            for k in range(2**n):
                sign = -1 if bin(k & mask).count("1") % 2 else 1
                diag[k] += coeff * sign
        return diag


def _walsh_decompose(values) -> PauliDecomposition:
    # Exact integer Walsh-Hadamard transform of a diagonal: the
    # coefficient of the z-string with support mask s is
    # (1/N) sum_k values[k] (-1)^{popcount(k & s)}.
    vals = [int(v) for v in values]
    size = len(vals)
    n = size.bit_length() - 1
    coeffs = list(vals)
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                a, b = coeffs[j], coeffs[j + h]
                coeffs[j], coeffs[j + h] = a + b, a - b
        h *= 2
    terms = []
    for mask in range(size):
        if coeffs[mask] == 0:
            continue
        if coeffs[mask] % size != 0:
            raise ArithmeticError("ladder is not an integer sigma-z combination")
        factors = tuple(
            "z" if mask & (1 << (n - 1 - q)) else "1" for q in range(n)
        )
        terms.append((coeffs[mask] // size, factors))
    return PauliDecomposition(tuple(terms))


@dataclass(frozen=True)
class DigitizedField:
    """Field digitized to N_phi = 2^{n_q} values per site.

    The integer eigenvalues are the odd ladder N_phi - 1 - 2k ordered
    by basis index (the rescaled field 2 phi/delta + 1); delta is the
    field spacing implied by the Nyquist window.
    """

    n_q: int
    delta: float
    eigenvalues: tuple
    phi_q: PauliDecomposition
    phi_q_squared: PauliDecomposition


def digitize(n_q: int) -> DigitizedField:
    """Digitize one field onto n_q qubits, with exact string decompositions.

    phi_q comes out as sum_k 2^k sigma-z (most significant qubit at
    weight 2^{n_q - 1}); phi_q^2 is decomposed by squaring the ladder
    and transforming, not by symbolic multiplication.
    """
    n_q = _check_int("n_q", n_q, 1, 10)
    size = 2**n_q
    ladder = [size - 1 - 2 * k for k in range(size)]
    length = nyquist_L(size)
    return DigitizedField(
        n_q=n_q,
        delta=2.0 * length / size,
        eigenvalues=tuple(ladder),
        phi_q=_walsh_decompose(ladder),
        phi_q_squared=_walsh_decompose([v * v for v in ladder]),
    )


def nyquist_L(n_phi: int) -> float:
    """Optimal field-space truncation L = sqrt(N_phi pi / 2)."""
    return math.sqrt(_check_int("N_phi", n_phi, 2) * math.pi / 2.0)


def hermite_eigenfunction(n: int, x):
    """Normalized oscillator eigenfunction Psi_n(x).

    Evaluated by the stable three-term recurrence on Psi directly,
    which avoids Hermite-polynomial overflow; n is capped at 60, the
    verified stable range.
    """
    n = _check_int("level", n, 0, 60)
    return next(itertools.islice(_hermite_levels(x), n, None))


def _hermite_levels(x):
    # Psi_0(x), Psi_1(x), ... without end: the recurrence itself, shared by
    # hermite_eigenfunction and sampling_fidelity's one pass over its levels.
    x = np.asarray(x, dtype=float)
    p0 = np.pi**-0.25 * np.exp(-x * x / 2.0)
    p1 = math.sqrt(2.0) * x * p0
    yield p0
    for k in itertools.count(2):
        yield p1
        p0, p1 = p1, math.sqrt(2.0 / k) * x * p1 - math.sqrt((k - 1) / k) * p0


def sampling_grid(n_q: int):
    """The N_phi uniform sample points in [-L, L].

    Symmetric half-integer grid x_j = (2j - N + 1) L / N: the odd
    eigenvalue ladder rescaled by L/N.
    """
    size = 2**_check_int("n_q", n_q, 1, 10)  # digitize's range
    length = nyquist_L(size)
    return (2.0 * np.arange(size) - size + 1) * (length / size)


def _dirichlet(u: np.ndarray, period: float, n_samples: int) -> np.ndarray:
    # Band-limited interpolation kernel for an even number of uniform
    # samples; the removable singularity at u = 0 (mod period) is 1.
    a = np.pi * u / period
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(n_samples * a) / (n_samples * np.tan(a))
    return np.where(np.abs(np.sin(a)) >= 1e-12, ratio, 1.0)


class FidelityReport(NamedTuple):
    """Reconstruction quality of one eigenfunction from its samples."""

    level: int
    max_error: float
    infidelity: float


_FINE_POINTS = 4001  # sampling_fidelity's comparison grid


def sampling_fidelity(n_q: int, n_levels: int) -> list:
    """Reconstruct Psi_n from its N_phi samples and measure the error.

    Samples on the [-L, L] grid are interpolated through the discrete
    Fourier (Dirichlet kernel) interpolant and compared against the
    exact eigenfunction on a fine grid of 4001 points.  Both the max
    pointwise error and the overlap infidelity 1 - |<exact|recon>| are
    reported; the pointwise number is meaningful near the window edge
    where the eigenfunction has not fully decayed, the overlap number
    measures the retained state information.
    """
    n_q = _check_int("n_q", n_q, 1, 8)
    n_levels = _check_int("n_levels", n_levels, 1, 61)
    size = 2**n_q
    length = nyquist_L(size)
    xs = sampling_grid(n_q)
    xf = np.linspace(-length, length, _FINE_POINTS)
    kernel = _dirichlet(xf[:, None] - xs[None, :], 2.0 * length, size)
    levels = np.stack(list(itertools.islice(_hermite_levels(np.concatenate([xf, xs])),
                                            n_levels)))
    exact, samples = levels[:, :_FINE_POINTS], levels[:, _FINE_POINTS:]
    # one matrix-vector product per level: a matrix product sums in
    # another order and changes the last bits
    recon = np.stack([kernel @ row for row in samples])
    overlap = np.trapezoid(exact * recon, xf)
    norm = np.sqrt(np.trapezoid(exact * exact, xf) * np.trapezoid(recon * recon, xf))
    max_error = np.abs(exact - recon).max(axis=1)
    infidelity = 1.0 - np.abs(overlap) / norm
    return [FidelityReport(n, e, i) for n, e, i in
            zip(range(n_levels), max_error.tolist(), infidelity.tolist())]


@dataclass(frozen=True)
class SchwingerParams:
    """Dimensionless couplings x = 1/(ag)^2 and mu = 2m/(ag^2)."""

    x: float
    mu: float

    def __post_init__(self):
        _check_finite("x", self.x)
        _check_finite("mu", self.mu)


def schwinger_h4(params: SchwingerParams) -> np.ndarray:
    """The Hamiltonian on the 4-dimensional gauge-invariant subspace."""
    x, mu = params.x, params.mu
    r2x = math.sqrt(2.0) * x
    return np.array([
        [-2.0 * mu, 2.0 * x, 0.0, 0.0],
        [2.0 * x, 1.0, r2x, 0.0],
        [0.0, r2x, 2.0 + 2.0 * mu, r2x],
        [0.0, 0.0, r2x, 3.0],
    ])


class GroundState(NamedTuple):
    """Lowest eigenpair over the states |s1>..|s4>."""

    energy: float
    amplitudes: np.ndarray


def schwinger_ground_state(params: SchwingerParams) -> GroundState:
    """Ground state of the truncated model: a condensate of fermion pairs for x > 0."""
    evals, vecs = np.linalg.eigh(schwinger_h4(params))
    amps = vecs[:, 0]
    # fix the overall sign so the leading component is nonnegative
    lead = np.argmax(np.abs(amps))
    if amps[lead] < 0:
        amps = -amps
    return GroundState(float(evals[0]), amps)


class EvolutionSeries(NamedTuple):
    """Occupation probabilities of |s1>..|s4> along a time grid."""

    t: np.ndarray
    probabilities: np.ndarray


def schwinger_evolve(params: SchwingerParams, t_grid, initial=None) -> EvolutionSeries:
    """p_i(t) = |<s_i| exp(-i H4 t) |initial>|^2 via the eigen propagator;
    initial (|s1> when omitted) is held to StateVector's rules."""
    t = _check_times(t_grid)
    psi0 = np.asarray([1, 0, 0, 0] if initial is None else initial, dtype=complex)
    if psi0.shape != (4,):
        raise ValueError("initial state must be a 4-vector")
    psi0 = StateVector(2, psi0).amplitudes
    evals, vecs = np.linalg.eigh(schwinger_h4(params))
    coeffs = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(t, evals))
    amplitudes = phases * coeffs @ vecs.T.astype(complex)
    return EvolutionSeries(t, np.abs(amplitudes) ** 2)


# First-principles construction on the fermion-flux space: four
# staggered sites (dim 2 each, sites 0,2 occupied = (10), sites 1,3
# occupied = (01)) and four links with flux in {-1, 0, +1} (dim 3,
# ordered by flux value).  A state is a (2,2,2,2,3,3,3,3) tensor whose
# axis n is site n and axis 4 + n is link n.

# real parts keep the state tensors in float64
_SP, _SM, _SZ = (PAULI[k].real for k in "+-z")
_FLUX = np.diag([-1.0, 0.0, 1.0])
_RAISE = np.diag([1.0, 1.0], -1)   # |l> -> |l+1>
_LOWER = _RAISE.T

# The four gauge-invariant states as (occupation per site, flux per link)
# component lists with a common normalization.
_S_COMPONENTS = (
    ((((0, 0, 0, 0), (0, 0, 0, 0)),), 1.0),
    ((((1, 1, 0, 0), (-1, 0, 0, 0)),
      ((0, 0, 1, 1), (0, 0, -1, 0)),
      ((1, 0, 0, 1), (0, 0, 0, 1)),
      ((0, 1, 1, 0), (0, 1, 0, 0))), 0.5),
    ((((1, 1, 1, 1), (-1, 0, -1, 0)),
      ((1, 1, 1, 1), (0, 1, 0, 1))), 1.0 / math.sqrt(2.0)),
    ((((1, 1, 0, 0), (0, 1, 1, 1)),
      ((0, 0, 1, 1), (1, 1, 0, 1)),
      ((1, 0, 0, 1), (-1, -1, -1, 0)),
      ((0, 1, 1, 0), (-1, 0, -1, -1))), 0.5),
)


def _occupation_bits(occupations) -> list:
    # (10) is the occupied state on even sites, (01) on odd sites.
    bits = []
    for site, occ in enumerate(occupations):
        if site % 2 == 0:
            bits.append(0 if occ else 1)
        else:
            bits.append(1 if occ else 0)
    return bits


def _schwinger_states() -> np.ndarray:
    # the four state tensors, stacked on a leading axis
    states = np.zeros((4,) + (2,) * 4 + (3,) * 4)
    for s, (components, weight) in zip(states, _S_COMPONENTS):
        for occupations, fluxes in components:
            s[tuple(_occupation_bits(occupations)) + tuple(f + 1 for f in fluxes)] += weight
    return states


def _schwinger_terms(params: SchwingerParams) -> list:
    # H as (coefficient, {axis: local operator}) terms
    x, mu = params.x, params.mu
    terms = []
    for n in range(4):
        m = (n + 1) % 4
        # The sigma+_n sigma-_{n+1} hop moves the fermion pattern across
        # link n; under the staggered occupation convention the flux
        # change that keeps Gauss's law satisfied is -1 for every n.
        terms.append((x, {n: _SP, m: _SM, 4 + n: _LOWER}))
        terms.append((x, {n: _SM, m: _SP, 4 + n: _RAISE}))
        terms.append((1.0, {4 + n: _FLUX @ _FLUX}))
        terms.append(((mu / 2.0) * (-1) ** n, {n: _SZ}))
    return terms


def gauss_report() -> list:
    """Check every printed state component against Gauss's law.

    Moving past an occupied site changes the flux by the site's charge
    (+1 for a positron site, -1 for an electron site); links are
    periodic.  Also checks the flux truncation |l| <= 1 and
    sum l^2 < 4.  Returns a list of violation descriptions; empty
    means all components are consistent.
    """
    problems = []
    for si, (components, _) in enumerate(_S_COMPONENTS, start=1):
        for occupations, fluxes in components:
            for n in range(4):
                charge = 0
                if occupations[n]:
                    charge = -1 if n % 2 == 0 else 1
                expected = fluxes[n - 1] + charge  # link n-1 wraps to link 3
                if fluxes[n] != expected:
                    problems.append(
                        f"s{si} component {occupations}/{fluxes}: link {n} "
                        f"is {fluxes[n]}, Gauss's law needs {expected}")
            if any(abs(f) > 1 for f in fluxes):
                problems.append(
                    f"s{si} component {occupations}/{fluxes}: flux outside -1..1")
            if sum(f * f for f in fluxes) >= 4:
                problems.append(
                    f"s{si} component {occupations}/{fluxes}: sum l^2 >= 4")
    return problems


def schwinger_project(params: SchwingerParams) -> np.ndarray:
    """<s_i| H |s_j> from the first-principles Hamiltonian.

    Applies H term by term, each term a product of local operators on
    the site and link axes, to the four explicit state tensors at once
    and takes the overlaps.  A Gauss-law violation or a loss of
    orthonormality in the constructed states is a ValueError; a result
    that differs from schwinger_h4 by more than 1e-10 (scaled by its
    largest entry once that exceeds 1) is an ArithmeticError.
    """
    problems = gauss_report()
    if problems:
        raise ValueError("state construction violates Gauss's law: "
                         + "; ".join(problems))
    states = _schwinger_states()
    flat = states.reshape(4, -1)
    if not np.abs(flat @ flat.T - np.eye(4)).max() <= 1e-12:
        raise ValueError("constructed states are not orthonormal")
    h_states = np.zeros_like(states)
    for coeff, ops in _schwinger_terms(params):
        t = states
        for axis, op in ops.items():
            t = _apply_local(op, t, [1 + axis])  # axis 0 holds the four states
        h_states += coeff * t
    h = flat @ h_states.reshape(4, -1).T
    h4 = schwinger_h4(params)
    err = np.max(np.abs(h - h4))
    if not err <= 1e-10 * max(1.0, np.max(np.abs(h4))):
        raise ArithmeticError(f"projection differs from schwinger_h4 by {err:.3g}")
    return h
