"""CHSH tests: analytic correlations, classical bound, Monte Carlo."""

import math

import numpy as np
import pytest

from qilab import bell


_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _expect_oracle(alpha, op_a, op_b):
    """Oracle: dense two-qubit expectation on cos a |00> + sin a |11>."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(alpha)
    psi[3] = math.sin(alpha)
    return float((psi.conj() @ np.kron(op_a, op_b) @ psi).real)


def _bob_axis(gamma):
    return math.cos(gamma) * _Z + math.sin(gamma) * _X


def test_chsh_expectations_match_dense_oracle():
    for alpha in np.linspace(0.0, math.pi / 2, 13):
        for beta in (0.3, math.pi / 4, 1.2):
            beta_prime = math.pi - beta
            res = bell.chsh_expectations(
                bell.ChshSettings(alpha, beta, beta_prime))
            assert res.e_qs == pytest.approx(
                _expect_oracle(alpha, _Z, _bob_axis(beta)), abs=1e-12)
            assert res.e_qt == pytest.approx(
                _expect_oracle(alpha, _Z, _bob_axis(beta_prime)), abs=1e-12)
            assert res.e_rs == pytest.approx(
                _expect_oracle(alpha, _X, _bob_axis(beta)), abs=1e-12)
            assert res.e_rt == pytest.approx(
                _expect_oracle(alpha, _X, _bob_axis(beta_prime)), abs=1e-12)
            want = res.e_qs + res.e_rs + res.e_rt - res.e_qt
            assert res.e_bell == pytest.approx(want, abs=1e-12)


def test_optimal_settings_closed_form():
    for alpha in np.linspace(0.01, math.pi / 2 - 0.01, 20):
        settings, emax = bell.optimal_settings(float(alpha))
        assert emax == pytest.approx(
            2.0 * math.sqrt(1.0 + math.sin(2 * alpha) ** 2), abs=1e-12)
        got = bell.chsh_expectations(settings).e_bell
        assert got == pytest.approx(emax, abs=1e-12)


def test_optimal_settings_beat_grid_search():
    # oracle: brute-force over the two analyzer angles
    betas = np.linspace(0.0, math.pi, 720)
    for alpha in (0.2, math.pi / 4, 1.1):
        _, emax = bell.optimal_settings(alpha)
        grid_best = max(
            bell.chsh_expectations(bell.ChshSettings(alpha, b, bp)).e_bell
            for b in betas for bp in (math.pi - b,))
        assert emax >= grid_best - 1e-9
        assert emax == pytest.approx(grid_best, abs=1e-4)


def test_maximal_violation_at_singlet_angle():
    _, emax = bell.optimal_settings(math.pi / 4)
    assert emax == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_fixed_settings_curve_and_crossing():
    # fixed analyzers give sqrt2 (1 + sin 2a); the classical bound is
    # crossed near alpha = 12.2 degrees
    for alpha in np.linspace(0.0, math.pi / 4, 10):
        res = bell.chsh_expectations(bell.fixed_settings(float(alpha)))
        assert res.e_bell == pytest.approx(
            math.sqrt(2.0) * (1.0 + math.sin(2 * alpha)), abs=1e-12)
    lo, hi = 0.0, math.pi / 4
    for _ in range(60):
        mid = (lo + hi) / 2
        if bell.chsh_expectations(bell.fixed_settings(mid)).e_bell < 2.0:
            lo = mid
        else:
            hi = mid
    crossing_deg = math.degrees((lo + hi) / 2)
    assert crossing_deg == pytest.approx(12.0, abs=0.5)


def test_classical_bound_enumeration():
    values = bell.classical_bound_check()
    assert len(values) == 16
    assert all(abs(v) <= 2.0 + 1e-12 for v in values)
    assert max(values) == pytest.approx(2.0, abs=1e-12)
    assert min(values) == pytest.approx(-2.0, abs=1e-12)


def test_violation_only_with_entanglement():
    # a product preparation (alpha = 0) cannot beat the classical bound
    _, emax = bell.optimal_settings(0.0)
    assert emax == pytest.approx(2.0, abs=1e-12)
    res = bell.chsh_expectations(bell.fixed_settings(0.0))
    assert res.e_bell < 2.0


def test_entangled_state_amplitudes():
    st = bell.entangled_state(0.3)
    assert st.amplitudes[0] == pytest.approx(math.cos(0.3), abs=1e-12)
    assert st.amplitudes[3] == pytest.approx(math.sin(0.3), abs=1e-12)
    assert abs(st.amplitudes[1]) == 0.0 and abs(st.amplitudes[2]) == 0.0


def test_settings_validation():
    with pytest.raises(ValueError):
        bell.ChshSettings(float("nan"), 0.0, 0.0)


def test_sampled_chsh_converges_to_analytic():
    settings, emax = bell.optimal_settings(math.pi / 4)
    shots = 100_000
    res = bell.sampled_chsh(settings, shots, seed=7)
    assert res.se_bell > 0.0
    assert abs(res.e_bell - emax) < 5.0 * res.se_bell
    assert sum(res.counts) == shots
    # each basis pair is picked with probability 1/4
    for c in res.counts:
        assert abs(c - shots / 4) < 5 * math.sqrt(shots * 0.25 * 0.75)


def test_sampled_chsh_pair_estimates_track_analytic():
    settings, _ = bell.optimal_settings(0.6)
    exact = bell.chsh_expectations(settings)
    res = bell.sampled_chsh(settings, 80_000, seed=3)
    for name in ("e_qs", "e_qt", "e_rs", "e_rt"):
        se = getattr(res, "s" + name)
        assert abs(getattr(res, name) - getattr(exact, name)) < 5 * se


def test_sampled_chsh_matches_per_shot_loop():
    # reference: one qstate.measure per shot, after all the basis picks
    settings, _ = bell.optimal_settings(0.6)
    rng = bell.qstate._rng(5)
    base = bell.entangled_state(settings.alpha)
    rotated = [bell._rotated_for_measurement(base, ga, gb)
               for ga in (0.0, math.pi / 2) for gb in (settings.beta, settings.beta_prime)]
    sums, counts = [0] * 4, [0] * 4
    for k in rng.integers(0, 4, size=3000):
        bits, _ = bell.qstate.measure(rotated[k], [0, 1], rng)
        sums[k] += (1 - 2 * bits[0]) * (1 - 2 * bits[1])
        counts[k] += 1
    res = bell.sampled_chsh(settings, 3000, seed=5)
    assert res.counts == tuple(counts)
    assert (res.e_qs, res.e_qt, res.e_rs, res.e_rt) == tuple(s / n for s, n in zip(sums, counts))


def test_sampled_chsh_deterministic_for_seed():
    settings, _ = bell.optimal_settings(0.9)
    a = bell.sampled_chsh(settings, 2000, seed=12)
    b = bell.sampled_chsh(settings, 2000, seed=12)
    assert a == b


def test_sampled_chsh_empty_pair():
    settings, _ = bell.optimal_settings(math.pi / 4)
    res = bell.sampled_chsh(settings, 1, seed=0)
    empties = [c for c in res.counts if c == 0]
    assert len(empties) == 3
    ses = [res.se_qs, res.se_qt, res.se_rs, res.se_rt]
    assert sum(math.isinf(se) for se in ses) == 3


def test_sampled_chsh_rejects_bad_shots():
    settings, _ = bell.optimal_settings(0.5)
    for shots in (0, 2.5, True):
        with pytest.raises(ValueError, match="shots"):
            bell.sampled_chsh(settings, shots, seed=1)


def test_sampled_chsh_zero_branch_faults(monkeypatch):
    class OnesRng:
        """Picks pair QS; every uniform 1.0 draws the last branch, |11>."""

        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.int64)

        def random(self, size=None):
            return np.ones(size)

    monkeypatch.setattr(bell.qstate, "_rng", lambda seed: OnesRng())
    # on |00> measured in Z x Z, |11> has probability exactly 0
    settings = bell.ChshSettings(0.0, 0.0, 0.0)
    with pytest.raises(bell.qstate.SimulationFault,
                       match="collapse onto branch with probability 0.0"):
        bell.sampled_chsh(settings, 10, seed=1)


def test_violation_curve_rows():
    # the violation column is the excess over the classical bound of 2
    rows = bell.violation_curve([0.0, math.pi / 4])
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)  # product state
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    assert rows[1][1] == pytest.approx(1.0, abs=1e-12)  # maximally entangled
    assert rows[1][2] == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-12)


def _violation_row_per_state(alpha):
    """Reference: one alpha at a time through the public density-matrix
    route, as violation_curve computed its rows before they were stacked."""
    from qilab import density

    rho = density.partial_trace(
        density.from_statevector(bell.entangled_state(alpha)), [0])
    entropy = density.von_neumann_entropy(rho).entropy_bits
    _, e_max = bell.optimal_settings(alpha)
    return (alpha, float(entropy), float(e_max - 2.0))


def test_violation_curve_equals_the_per_state_route_bit_for_bit():
    alphas = np.linspace(0.0, math.pi / 2, 101)
    assert alphas[0] == 0.0 and alphas[-1] == math.pi / 2  # endpoints included
    rows = bell.violation_curve(alphas)
    assert rows == [_violation_row_per_state(float(a)) for a in alphas]
    assert all(type(v) is float for row in rows for v in row)


def test_violation_curve_empty_and_out_of_range():
    assert bell.violation_curve([]) == []
    for bad in (-1e-12, math.pi / 2 + 1e-12, math.nan):
        with pytest.raises(ValueError) as single:
            bell.entangled_state(bad)
        with pytest.raises(ValueError) as stacked:
            bell.violation_curve([0.3, bad, 0.5])
        assert str(stacked.value) == str(single.value)
        assert "alpha must lie in [0, pi/2]" in str(stacked.value)
