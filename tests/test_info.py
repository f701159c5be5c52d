"""Classical information tests: entropy, noisy readout, Bayes update."""

import numpy as np
import pytest

from qilab import info


def test_distribution_validation():
    with pytest.raises(ValueError):
        info.Distribution([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        info.Distribution([1.5, -0.5])  # negative mass


def test_shannon_entropy_reference_points():
    assert info.shannon_entropy(info.Distribution([0.5, 0.5])) == \
        pytest.approx(1.0, abs=1e-12)
    assert info.shannon_entropy(info.Distribution([1.0, 0.0])) == 0.0
    # four equally likely outcomes carry two bits
    assert info.shannon_entropy(info.Distribution([0.25] * 4)) == \
        pytest.approx(2.0, abs=1e-12)


def test_biased_coin_curve_shape():
    p, s = info.biased_coin_curve(101)
    assert len(p) == len(s) == 101
    assert s[0] == 0.0 and s[-1] == 0.0
    assert s[50] == pytest.approx(1.0, abs=1e-12)
    # symmetric and concave
    assert np.allclose(s, s[::-1], atol=1e-12)
    assert np.max(s) <= 1.0 + 1e-12


def test_noise_parameter_range():
    with pytest.raises(ValueError):
        info.BitFlipNoise(0.4)
    with pytest.raises(ValueError):
        info.BitFlipNoise(1.1)
    info.BitFlipNoise(0.5)
    info.BitFlipNoise(1.0)


def test_readout_distribution_reference():
    # prior (0.3, 0.7) through a mu=0.8 readout
    y = info.readout_distribution(info.Distribution([0.3, 0.7]),
                                  info.BitFlipNoise(0.8))
    assert y[0] == pytest.approx(0.38, abs=1e-12)
    assert y[1] == pytest.approx(0.62, abs=1e-12)


def test_bayes_posterior_reference():
    post = info.bayes_posterior(info.Distribution([0.3, 0.7]),
                                info.BitFlipNoise(0.8), 1)
    assert post[0] == pytest.approx(0.06 / 0.62, abs=1e-12)
    assert post[1] == pytest.approx(0.56 / 0.62, abs=1e-12)
    # published rounding: (0.0968, 0.9032)
    assert round(post[0], 4) == 0.0968
    assert round(post[1], 4) == 0.9032


def test_bayes_posterior_total_probability():
    # averaging the posteriors over the readout recovers the prior
    prior = info.Distribution([0.3, 0.7])
    noise = info.BitFlipNoise(0.8)
    y = info.readout_distribution(prior, noise)
    for x in (0, 1):
        total = sum(y[b] * info.bayes_posterior(prior, noise, b)[x]
                    for b in (0, 1))
        assert total == pytest.approx(prior[x], abs=1e-12)


def test_bayes_zero_evidence_rejected():
    prior = info.Distribution([1.0, 0.0])
    noise = info.BitFlipNoise(1.0)  # perfect readout never shows y=1
    with pytest.raises(ValueError):
        info.bayes_posterior(prior, noise, 1)


def test_information_never_hurts_on_average():
    # expected posterior entropy <= prior entropy across a parameter grid
    for p0 in np.linspace(0.05, 0.95, 10):
        prior = info.Distribution([float(p0), float(1 - p0)])
        s_prior = info.shannon_entropy(prior)
        for mu in np.linspace(0.5, 1.0, 6):
            noise = info.BitFlipNoise(float(mu))
            y = info.readout_distribution(prior, noise)
            s_post = sum(
                y[b] * info.shannon_entropy(
                    info.bayes_posterior(prior, noise, b))
                for b in (0, 1) if y[b] > 0.0)
            assert s_post <= s_prior + 1e-12


def test_useless_readout_preserves_prior():
    # mu = 1/2 carries no evidence, so the posterior equals the prior
    prior = info.Distribution([0.3, 0.7])
    noise = info.BitFlipNoise(0.5)
    for b in (0, 1):
        post = info.bayes_posterior(prior, noise, b)
        assert post[0] == pytest.approx(0.3, abs=1e-12)
        assert post[1] == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("points", [2, 3, 101, 1000])
def test_biased_coin_curve_is_the_per_point_route_bit_for_bit(points):
    p, s = info.biased_coin_curve(points)
    want = np.array([info.shannon_entropy(info.Distribution([x, 1.0 - x])) for x in p])
    assert s.shape == p.shape == (points,)
    assert s.tobytes() == want.tobytes()


@pytest.mark.parametrize("points", [2.5, True, 1, 0, -3, "101", None])
def test_biased_coin_curve_names_a_bad_point_count(points):
    with pytest.raises(ValueError, match="points must be an integer >= 2"):
        info.biased_coin_curve(points)


@pytest.mark.parametrize("probs", [[0.5, np.nan], [np.nan, np.nan], [np.inf, 0.0],
                                   [1.0, np.nan, 0.0]])
def test_distribution_rejects_non_finite_entries(probs):
    with pytest.raises(ValueError, match="probabilities must be finite"):
        info.Distribution(probs)
