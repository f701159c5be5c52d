"""Classical information theory for single-bit readout.

Shannon entropy of a discrete distribution, the symmetric bit-flip
readout channel, and the Bayesian posterior over the true bit given a
noisy readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import entropy_bits
from .qstate import _check_array, _check_int, _check_interval, _is_int

__all__ = [
    "Distribution",
    "BitFlipNoise",
    "shannon_entropy",
    "readout_distribution",
    "bayes_posterior",
    "biased_coin_curve",
]


@dataclass(frozen=True, eq=False, slots=True)
class Distribution:
    """Probability distribution over a finite outcome set.

    Entries must be nonnegative and sum to 1 within 1e-12.
    """

    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = _check_array("probabilities", self.probabilities, "real numbers")
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probabilities must be a nonempty 1-d array")
        if np.any(p < -1e-15):
            raise ValueError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-12:  # NaN fails the test too
            if not np.isfinite(p).all():
                raise ValueError("probabilities must be finite")
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return int(self.probabilities.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probabilities[i])

    def __repr__(self) -> str:
        entries = ", ".join(f"{x:g}" for x in self.probabilities)
        return f"Distribution([{entries}])"


@dataclass(frozen=True, eq=False, slots=True)
class BitFlipNoise:
    """Symmetric readout channel: the reported bit is correct with probability mu.

    mu < 1/2 describes the same physical channel with relabeled outputs,
    so it is rejected rather than silently flipped.
    """

    mu: float

    def __post_init__(self) -> None:
        mu = _check_interval("mu", self.mu, 0.5, 1.0, "in [1/2, 1]")
        object.__setattr__(self, "mu", float(mu))


def shannon_entropy(dist: Distribution) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    return entropy_bits(dist.probabilities)


def _require_binary(dist: Distribution) -> None:
    if len(dist) != 2:
        raise ValueError("expected a binary distribution over {0, 1}")


def readout_distribution(prior: Distribution, noise: BitFlipNoise) -> Distribution:
    """Distribution of the noisy readout bit y given a prior over the true bit x.

    P(y=0) = mu P(x=0) + (1-mu) P(x=1) and symmetrically for y=1.
    """
    _require_binary(prior)
    mu = noise.mu
    p0, p1 = prior.probabilities
    return Distribution([mu * p0 + (1.0 - mu) * p1, (1.0 - mu) * p0 + mu * p1])


def bayes_posterior(prior: Distribution, noise: BitFlipNoise, y: int) -> Distribution:
    """Posterior over the true bit x after observing readout y.

    P(x|y) = P(y|x) P(x) / P(y) with P(y|x) = mu if y == x else 1-mu.
    Zero-probability evidence (P(y) = 0) is an error.
    """
    _require_binary(prior)
    if not (_is_int(y) and y in (0, 1)):
        raise ValueError(f"y must be 0 or 1, got {y!r}")
    mu = noise.mu
    likelihood = np.array([mu, 1.0 - mu]) if y == 0 else np.array([1.0 - mu, mu])
    joint = likelihood * prior.probabilities
    evidence = joint.sum()
    if evidence <= 0.0:
        raise ValueError(f"readout y={y} has zero probability under this prior")
    return Distribution(joint / evidence)


def biased_coin_curve(points: int = 101):
    """Entropy of a biased coin across p in [0, 1].

    Returns (p, entropy) arrays of the given length; the endpoints
    contribute 0 via the 0 log 0 convention.  The entropies come from one
    entropy_bits of the (points, 2) stack of distributions (p, 1 - p).
    """
    p = np.linspace(0.0, 1.0, _check_int("points", points, 2))
    return p, entropy_bits(np.column_stack([p, 1.0 - p]))
