"""CHSH inequality on a one-parameter family of entangled two-qubit states.

The state cos(a)|00> + sin(a)|11> is measured in rotated bases: Alice
uses Q = Z or R = X, Bob uses S and T lying in the x-z plane at angles
beta and beta_prime.  The module provides the analytic expectation
values, the settings that maximize the Bell combination, an exhaustive
classical-bound check, and a seeded Monte Carlo realization of the
measurement protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density, qstate
from .qstate import StateVector, apply_gate  # noqa: F401, perfbench's tests read bell.apply_gate

__all__ = [
    "ChshSettings",
    "ChshResult",
    "SampledChshResult",
    "entangled_state",
    "chsh_expectations",
    "optimal_settings",
    "fixed_settings",
    "classical_bound_check",
    "sampled_chsh",
    "violation_curve",
]


@dataclass(frozen=True)
class ChshSettings:
    """Measurement angles: alpha prepares the state, beta/beta_prime set Bob's axes."""

    alpha: float
    beta: float
    beta_prime: float

    def __post_init__(self):
        for name in ("alpha", "beta", "beta_prime"):
            qstate._check_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ChshResult:
    """Pairwise expectation values and the Bell combination.

    e_bell = e_qs + e_rs + e_rt - e_qt; violation = e_bell - 2.
    """

    e_qs: float
    e_qt: float
    e_rs: float
    e_rt: float
    e_bell: float
    violation: float

    @classmethod
    def from_expectations(cls, e_qs, e_qt, e_rs, e_rt) -> "ChshResult":
        e_bell = e_qs + e_rs + e_rt - e_qt
        return cls(e_qs, e_qt, e_rs, e_rt, e_bell, e_bell - 2.0)


@dataclass(frozen=True)
class SampledChshResult(ChshResult):
    """Monte Carlo estimate with per-pair standard errors.

    se_bell combines the four per-pair errors in quadrature; counts
    records how many shots landed on each of (QS, QT, RS, RT).
    """

    se_qs: float = 0.0
    se_qt: float = 0.0
    se_rs: float = 0.0
    se_rt: float = 0.0
    se_bell: float = 0.0
    counts: tuple = (0, 0, 0, 0)


def entangled_state(alpha: float) -> StateVector:
    """Two-qubit state cos(alpha)|00> + sin(alpha)|11>."""
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    return StateVector(2, [math.cos(alpha), 0.0, 0.0, math.sin(alpha)])


def chsh_expectations(settings: ChshSettings) -> ChshResult:
    """Analytic expectation values on the entangled state.

    <QS> = cos(beta), <QT> = cos(beta_prime), <RS> = sin(2 alpha) sin(beta),
    <RT> = sin(2 alpha) sin(beta_prime).
    """
    s2a = math.sin(2.0 * settings.alpha)
    return ChshResult.from_expectations(
        math.cos(settings.beta),
        math.cos(settings.beta_prime),
        s2a * math.sin(settings.beta),
        s2a * math.sin(settings.beta_prime),
    )


def optimal_settings(alpha: float):
    """Settings maximizing e_bell, and the maximum 2 sqrt(1 + sin^2 2 alpha).

    cos(beta) = 1/sqrt(1+sin^2 2a), sin(beta) = sin 2a / sqrt(1+sin^2 2a);
    beta_prime mirrors beta with the cosine negated.  At alpha on the
    boundary the maximum degenerates to 2 (no violation) and is still
    returned.
    """
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    s2a = math.sin(2.0 * alpha)
    norm = math.sqrt(1.0 + s2a * s2a)
    beta = math.atan2(s2a / norm, 1.0 / norm)
    beta_prime = math.atan2(s2a / norm, -1.0 / norm)
    return ChshSettings(alpha, beta, beta_prime), 2.0 * norm


def fixed_settings(alpha: float) -> ChshSettings:
    """Fixed-axis convention beta = pi/4, beta_prime = 3 pi/4.

    Gives e_bell = sqrt(2) (1 + sin 2 alpha), which crosses the classical
    bound 2 near alpha = 12 degrees.
    """
    return ChshSettings(alpha, math.pi / 4, 3 * math.pi / 4)


def classical_bound_check() -> list:
    """All 16 deterministic hidden-variable values of qs + rs + rt - qt.

    Each assignment (q, r, s, t) in {-1, +1}^4 yields exactly +/-2, so
    any convex mixture obeys |E_Bell| <= 2.
    """
    values = []
    for q in (-1, 1):
        for r in (-1, 1):
            for s in (-1, 1):
                for t in (-1, 1):
                    values.append(q * s + r * s + r * t - q * t)
    return values


def _rotated_for_measurement(state: StateVector, gamma_a: float, gamma_b: float) -> StateVector:
    # Measuring cos(g) Z + sin(g) X equals a computational measurement after
    # undoing the observable's eigenbasis rotation exp(-i g Y / 2).  undo is
    # unitary for any finite angle, which ChshSettings checks, so it needs no
    # Gate; each step is apply_gate's einsum, kept in C order as its copy was.
    amps = state.amplitudes.reshape(2, 2)
    for qubit, gamma in ((0, gamma_a), (1, gamma_b)):
        if gamma != 0.0:
            c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
            undo = np.array([[c, s], [-s, c]], dtype=complex)
            amps = np.ascontiguousarray(qstate._apply_local(undo, amps, [qubit]))
    return StateVector(2, amps.reshape(-1))


# value of the product of the two outcomes (+1/-1) for branches 00, 01, 10, 11
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


def sampled_chsh(settings: ChshSettings, shots: int, seed: int) -> SampledChshResult:
    """Monte Carlo CHSH: random basis choice each shot, one pair measured.

    Alice picks Q (gamma=0) or R (gamma=pi/2) with probability 1/2, Bob
    independently picks S (gamma=beta) or T (gamma=beta_prime).  Each
    estimate carries the binomial standard error sqrt((1 - E^2)/n); a
    pair that received no shots reports estimate 0 with infinite error.

    RNG contract: all basis picks first (rng.integers(0, 4, size=shots)),
    then one uniform per shot in shot order (rng.random(shots)) that
    draws the shot's outcome as qstate.measure would.
    """
    shots = qstate._check_int("shots", shots, 1, qstate._MAX_SHOTS)
    rng = qstate._rng(seed)
    base = entangled_state(settings.alpha)
    gammas_a = (0.0, math.pi / 2)            # Q, R
    gammas_b = (settings.beta, settings.beta_prime)  # S, T
    # Pair order: QS, QT, RS, RT.
    rotated = [
        _rotated_for_measurement(base, ga, gb) for ga in gammas_a for gb in gammas_b
    ]
    picks = rng.integers(0, 4, size=shots)
    u = rng.random(shots)
    # A stable sort groups the shots by pair, each group in shot order, so
    # pair k's uniforms are the slice lo:hi of u[order], in the order a mask
    # picks == k would give them.
    order = np.argsort(picks.astype(np.uint8), kind="stable")
    counts = np.bincount(picks, minlength=4)
    u = u[order]
    sums = np.empty(4)
    lo = 0
    for k, state in enumerate(rotated):
        hi = lo + counts[k]
        _, branch = qstate._sample_branches(state.amplitudes.reshape(2, 2), (0, 1), u[lo:hi])
        # the values are +-1, so the float sum is exact whatever the order
        sums[k] = _PARITY[branch].sum()
        lo = hi

    estimates = np.zeros(4)
    errors = np.zeros(4)
    for k in range(4):
        if counts[k] == 0:
            errors[k] = math.inf
            continue
        estimates[k] = sums[k] / counts[k]
        errors[k] = math.sqrt(max(1.0 - estimates[k] ** 2, 0.0) / counts[k])
    e_qs, e_qt, e_rs, e_rt = estimates
    e_bell = e_qs + e_rs + e_rt - e_qt
    se_bell = math.sqrt(float(np.sum(errors**2)))
    return SampledChshResult(
        e_qs, e_qt, e_rs, e_rt, e_bell, e_bell - 2.0,
        errors[0], errors[1], errors[2], errors[3], se_bell,
        tuple(int(c) for c in counts),
    )


def violation_curve(alphas) -> list:
    """(alpha, reduced entropy in bits, optimal violation) for each alpha.

    Entropy is computed through the density-matrix path on the prepared
    states, not from the closed form, so the curve exercises the full
    simulation pipeline: every alpha's projector is held in one (A, 4, 4)
    stack, which density._reduce checks as DensityMatrix checks one
    matrix, traces down to qubit 0 and diagonalises by one eigvalsh.
    Each row is the same, bit for bit, as the per-state route through
    from_statevector, partial_trace and von_neumann_entropy.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"alphas must be a one-dimensional sequence of angles, "
                         f"got shape {alphas.shape}")
    alphas = alphas.tolist()
    amps = np.array([entangled_state(a).amplitudes for a in alphas],
                    dtype=complex).reshape(len(alphas), 4)
    _, entropy = density._reduce(amps[:, :, None] * amps.conj()[:, None, :], [0])
    return [(a, s, optimal_settings(a)[1] - 2.0)
            for a, s in zip(alphas, entropy.tolist())]
