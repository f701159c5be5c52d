"""Gaussian-state entanglement for coupled harmonic oscillators.

Thermal oscillator entropy, the two-oscillator thermofield double, the
correlator-matrix method for subsystem entropy of N coupled
oscillators, the radial coupling matrix of a massless field on a
spherical lattice, and the area-law scan S(r) = lambda r^2.

All entropies in this module are in natural units (nats): the two
printed closed forms for the thermal entropy, the thermofield-double
approximation -log(eps) + 1 - eps/2, and the fitted area-law constant
0.27 hold verbatim only with natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CouplingMatrix",
    "CorrelatorPair",
    "EntropyCurve",
    "TfdPair",
    "thermal_entropy",
    "partition_function",
    "tfd_pair",
    "tfd_coupling",
    "correlators",
    "subsystem_entropy",
    "radial_K",
    "area_law_scan",
    "fit_area_coefficient",
]


@dataclass(frozen=True, eq=False, slots=True)
class CouplingMatrix:
    """Real symmetric positive-definite coupling matrix (frequency-squared units)."""

    K: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        K = np.asarray(self.K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K must be square")
        if np.max(np.abs(K - K.T)) > 1e-12:
            raise ValueError("K must be symmetric within 1e-12")
        if np.linalg.eigvalsh(K)[0] <= 0.0:
            raise ValueError("K must be positive-definite")
        K = 0.5 * (K + K.T)
        K.setflags(write=False)
        object.__setattr__(self, "n", K.shape[0])
        object.__setattr__(self, "K", K)


class CorrelatorPair(NamedTuple):
    """Ground-state correlators X = <phi phi>, P = <pi pi>."""

    X: np.ndarray
    P: np.ndarray


def _entropy_from_c(c: float) -> float:
    # (c+1/2)ln(c+1/2) - (c-1/2)ln(c-1/2), the c-form; c within 1e-9 of
    # 1/2 contributes 0, smaller c signals a matrix-function error.
    lo = c - 0.5
    if lo < -1e-9:
        raise ValueError(f"symplectic eigenvalue {c} below 1/2 beyond tolerance")
    if lo <= 0.0:
        return 0.0
    return (c + 0.5) * math.log(c + 0.5) - lo * math.log(lo)


def thermal_entropy(beta_omega: float) -> float:
    """Entropy of one thermal oscillator in nats.

    Computed from both printed closed forms, the Boltzmann-sum form
    -log(1 - e^{-bw}) + bw e^{-bw}/(1 - e^{-bw}) and the c-form with
    c = (1/2) coth(bw/2); they must agree within 1e-10 and the common
    value is returned.
    """
    bw = float(beta_omega)
    if bw <= 0.0:
        raise ValueError(f"beta*omega must be positive, got {bw}")
    x = math.exp(-bw)
    boltzmann = -math.log1p(-x) + bw * x / (1.0 - x) if x > 0.0 else 0.0
    c_form = _entropy_from_c(0.5 / math.tanh(bw / 2.0))
    if abs(boltzmann - c_form) > 1e-10:
        raise ArithmeticError(
            f"closed forms disagree at beta*omega={bw}: {boltzmann} vs {c_form}")
    return c_form


def partition_function(beta_omega: float) -> float:
    """Z = 1/(2 sinh(bw/2)), the closed form of the geometric series."""
    bw = float(beta_omega)
    if bw <= 0.0:
        raise ValueError(f"beta*omega must be positive, got {bw}")
    return 1.0 / (2.0 * math.sinh(bw / 2.0))


class TfdPair(NamedTuple):
    """Thermofield-double summary for mixing angle theta."""

    omega_plus: float
    omega_minus: float
    a: float
    t_effective: float
    s_exact: float
    s_approx: float


def tfd_pair(theta: float, omega: float = 1.0) -> TfdPair:
    """Two coupled oscillators whose one-sided reduction is exactly thermal.

    omega_pm = omega (1 +- sin theta)/cos theta are the normal modes,
    A = -tan(theta/2) the pairing coefficient, and tan^2(theta/2) =
    e^{-beta omega} fixes the effective temperature.  S_approx is the
    small-(1 - tan^2(theta/2)) expansion -log(eps) + 1 - eps/2, which
    captures the logarithmic divergence as theta -> pi/2.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta}")
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    sin, cos = math.sin(theta), math.cos(theta)
    omega_plus = omega * (1.0 + sin) / cos
    omega_minus = omega * (1.0 - sin) / cos
    half_tan = math.tan(theta / 2.0)
    beta_omega = -2.0 * math.log(half_tan)
    eps = 1.0 - half_tan**2
    return TfdPair(
        omega_plus,
        omega_minus,
        -half_tan,
        omega / beta_omega,
        thermal_entropy(beta_omega),
        -math.log(eps) + 1.0 - eps / 2.0,
    )


def tfd_coupling(theta: float, omega: float = 1.0) -> CouplingMatrix:
    """The 2x2 coupling matrix whose normal modes are the TFD pair.

    K = omega^2 [[1 + 2 tan^2 t, 2 tan t / cos t], [sym, same]]; its
    eigenvalues are omega_pm^2.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta}")
    tan, cos = math.tan(theta), math.cos(theta)
    diag = 1.0 + 2.0 * tan**2
    off = 2.0 * tan / cos
    return CouplingMatrix(omega**2 * np.array([[diag, off], [off, diag]]))


def correlators(K: CouplingMatrix) -> CorrelatorPair:
    """X = K^{-1/2}/2 and P = K^{1/2}/2 via the symmetric eigendecomposition."""
    evals, vecs = np.linalg.eigh(K.K)
    if evals[0] <= 0.0:
        raise ValueError("K must be positive-definite")
    root = np.sqrt(evals)
    X = (vecs / root) @ vecs.T / 2.0
    P = (vecs * root) @ vecs.T / 2.0
    return CorrelatorPair(X, P)


def _subsystem_entropy_from_correlators(X: np.ndarray, P: np.ndarray, keep) -> float:
    keep = list(keep)
    x_sub = X[np.ix_(keep, keep)]
    p_sub = P[np.ix_(keep, keep)]
    evals, vecs = np.linalg.eigh(x_sub)
    if evals[-1] <= 0.0:
        raise ValueError("X sub-block lost positive-definiteness")
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T
    mu = np.linalg.eigvalsh(root @ p_sub @ root)
    if mu[0] < -1e-9:
        raise ValueError(f"negative symplectic spectrum {mu[0]} beyond tolerance")
    total = 0.0
    for m in mu:
        total += _entropy_from_c(math.sqrt(max(float(m), 0.0)))
    return total


def subsystem_entropy(K: CouplingMatrix, keep) -> float:
    """Ground-state entanglement entropy (nats) of the oscillators in keep.

    The eigenvalues mu_k of X_sub P_sub are taken from the similar
    symmetric problem X_sub^{1/2} P_sub X_sub^{1/2}; the symplectic
    values c_k = sqrt(mu_k) then feed the c-form entropy.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= K.n:
        raise ValueError(f"keep indices out of range for n={K.n}")
    pair = correlators(K)
    return _subsystem_entropy_from_correlators(pair.X, pair.P, keep)


def radial_K(l: int, N: int) -> CouplingMatrix:
    """Radial coupling matrix of one angular-momentum channel, lattice units.

    Sites j = 1..N; diagonal [(j+1/2)^2 + (j-1/2)^2 + l(l+1)]/j^2 and
    adjacent coupling -(j+1/2)^2/(j(j+1)), applied verbatim with no
    special boundary rows.
    """
    if l < 0 or N < 2:
        raise ValueError("need l >= 0 and N >= 2")
    j = np.arange(1, N + 1, dtype=float)
    diag = ((j + 0.5) ** 2 + (j - 0.5) ** 2 + l * (l + 1)) / j**2
    off = -((j[:-1] + 0.5) ** 2) / (j[:-1] * (j[:-1] + 1.0))
    K = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return CouplingMatrix(K)


@dataclass(frozen=True)
class EntropyCurve:
    """Entropy-vs-radius samples and the area-law fit (nats).

    samples holds (r, S) with r = j_max + 1/2 in lattice units;
    fit_lambda solves S = lambda r^2 by zero-intercept least squares
    over r < fit_fraction * R.
    """

    n: int
    l_max: int
    samples: tuple
    fit_fraction: float
    fit_lambda: float


def fit_area_coefficient(samples, r_max: float) -> float:
    """Zero-intercept least squares for S = lambda r^2 over r < r_max."""
    pts = [(r, s) for r, s in samples if r < r_max]
    if not pts:
        raise ValueError("no samples inside the fit range")
    r = np.array([p[0] for p in pts])
    s = np.array([p[1] for p in pts])
    denom = float(np.sum(r**4))
    if denom == 0.0:
        raise ValueError("degenerate fit range")
    return float(np.sum(r**2 * s) / denom)


def area_law_scan(N: int, l_max: int, fit_fraction: float = 0.975,
                  tail: float = 1e-3) -> EntropyCurve:
    """Entanglement entropy of the outer shell versus inner radius.

    S(r) = sum_l (2l+1) S_l(r) with S_l from subsystem_entropy of
    radial_K(l, N) keeping sites j > j_max, sampled at r = j_max + 1/2
    for j_max = 0..N.  The l-sum for each radius stops once the
    geometric tail estimate term * rho/(1 - rho) (rho the consecutive
    term ratio) falls below `tail` of the running sum, or at the hard
    cap l_max; terms are accumulated in ascending l for determinism.
    The endpoints r = 1/2 (keep everything, pure state) and r = R
    (keep nothing) are exactly 0.
    """
    if N < 10:
        raise ValueError("need N >= 10 for a meaningful scan")
    if l_max < 1:
        raise ValueError("need l_max >= 1")
    if not 0.0 < fit_fraction <= 1.0:
        raise ValueError("fit_fraction must lie in (0, 1]")
    j_maxes = np.arange(0, N + 1)
    S = np.zeros(N + 1)
    prev = np.zeros(N + 1)
    active = np.ones(N + 1, dtype=bool)
    active[0] = active[N] = False  # exact zeros at both endpoints
    for l in range(l_max + 1):
        if not active.any():
            break
        X, P = correlators(radial_K(l, N))
        for idx in np.nonzero(active)[0]:
            keep = list(range(int(j_maxes[idx]), N))
            term = (2 * l + 1) * _subsystem_entropy_from_correlators(X, P, keep)
            S[idx] += term
            if l >= 2:
                if term == 0.0:
                    active[idx] = False
                elif prev[idx] > 0.0:
                    rho = term / prev[idx]
                    if rho < 1.0 and term * rho / (1.0 - rho) < tail * S[idx]:
                        active[idx] = False
            prev[idx] = term
    r = j_maxes + 0.5
    samples = tuple((float(rv), float(sv)) for rv, sv in zip(r, S))
    lam = fit_area_coefficient(samples, fit_fraction * (N + 0.5))
    return EntropyCurve(N, l_max, samples, fit_fraction, lam)
