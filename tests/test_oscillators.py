"""Oscillator-chain tests: thermal entropy, two-mode pairs, area law."""

import math

import numpy as np
import pytest

from qilab import oscillators as osc


def _thermal_entropy_oracle(bw, n_terms=400):
    """Oracle: direct -sum p_n ln p_n over the Boltzmann ladder."""
    n = np.arange(n_terms)
    p = (1.0 - math.exp(-bw)) * np.exp(-bw * n)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def test_thermal_entropy_matches_boltzmann_oracle():
    for bw in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert osc.thermal_entropy(bw) == pytest.approx(
            _thermal_entropy_oracle(bw), abs=1e-10)


def test_thermal_entropy_limits():
    # deep cold: entropy vanishes; high temperature: S ~ 1 - ln(bw)
    assert osc.thermal_entropy(40.0) == pytest.approx(0.0, abs=1e-12)
    bw = 1e-4
    assert osc.thermal_entropy(bw) == pytest.approx(
        1.0 - math.log(bw), rel=1e-3)


def test_thermal_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        osc.thermal_entropy(0.0)
    with pytest.raises(ValueError):
        osc.thermal_entropy(-1.0)


def test_partition_function_matches_ladder_sum():
    for bw in (0.3, 1.0, 3.0):
        n = np.arange(2000)
        want = float(np.exp(-bw * (n + 0.5)).sum())
        assert osc.partition_function(bw) == pytest.approx(want, rel=1e-12)
        assert osc.partition_function(bw) == pytest.approx(
            1.0 / (2.0 * math.sinh(bw / 2.0)), rel=1e-12)


def test_tfd_pair_identities():
    for theta in (0.2, 0.7, 1.2):
        pair = osc.tfd_pair(theta)
        # the split frequencies multiply back to omega^2
        assert pair.omega_plus * pair.omega_minus == pytest.approx(1.0, abs=1e-12)
        assert pair.a == pytest.approx(-math.tan(theta / 2.0), abs=1e-12)
        bw = -2.0 * math.log(math.tan(theta / 2.0))
        # beta = 1/T, so with omega = 1 the product is bw itself
        assert 1.0 / pair.t_effective == pytest.approx(bw, abs=1e-10)
        assert pair.s_exact == pytest.approx(osc.thermal_entropy(bw), abs=1e-12)
        eps = 1.0 - math.tan(theta / 2.0) ** 2
        assert pair.s_approx == pytest.approx(
            -math.log(eps) + 1.0 - eps / 2.0, abs=1e-12)


def test_tfd_pair_high_entanglement_limit():
    # near theta = pi/2 the approximation converges on the exact entropy
    close = osc.tfd_pair(1.55)
    assert close.s_exact > 2.0
    assert close.s_approx == pytest.approx(close.s_exact, rel=2e-2)
    far = osc.tfd_pair(0.2)
    assert far.s_exact < 0.2


def test_tfd_pair_domain():
    with pytest.raises(ValueError):
        osc.tfd_pair(0.0)
    with pytest.raises(ValueError):
        osc.tfd_pair(math.pi / 2)


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        osc.CouplingMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        osc.CouplingMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_coupling_matrix_rejects_non_finite_entries(entry):
    # NaN slips past every "> tolerance" comparison
    with pytest.raises(ValueError, match="K must be finite"):
        osc.CouplingMatrix(np.full((2, 2), entry))
    with pytest.raises(ValueError, match="K must be finite"):
        osc.CouplingMatrix(np.array([[2.0, entry], [entry, 2.0]]))


def test_correlators_uncertainty_product():
    K = osc.tfd_coupling(0.8)
    X, P = osc.correlators(K)
    # ground-state correlators satisfy X P = 1/4 exactly
    assert np.allclose(X @ P, np.eye(2) / 4.0, atol=1e-12)
    assert np.allclose(X, X.T, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-12)


def test_two_mode_pipeline_matches_closed_form():
    # correlator-method entropy of one mode == thermal closed form
    for theta in np.linspace(0.05, 1.5, 30):
        pair = osc.tfd_pair(float(theta))
        K = osc.tfd_coupling(float(theta))
        got = osc.subsystem_entropy(K, [0])
        assert got == pytest.approx(pair.s_exact, abs=1e-8)


def test_subsystem_entropy_pure_state_is_zero():
    K = osc.tfd_coupling(0.9)
    assert osc.subsystem_entropy(K, [0, 1]) == pytest.approx(0.0, abs=1e-10)


def test_subsystem_entropy_complement_symmetry():
    # the ground state is pure, so both sides of any cut agree
    for l in (0, 1, 5):
        K = osc.radial_K(l, 10)
        a = osc.subsystem_entropy(K, list(range(0, 4)))
        b = osc.subsystem_entropy(K, list(range(4, 10)))
        assert a == pytest.approx(b, abs=1e-10)


def test_subsystem_entropy_validation():
    K = osc.tfd_coupling(0.5)
    with pytest.raises(ValueError):
        osc.subsystem_entropy(K, [])
    with pytest.raises(ValueError):
        osc.subsystem_entropy(K, [2])


def test_radial_coupling_reference_matrix():
    K = osc.radial_K(0, 2).K
    want = np.array([[2.5, -1.125], [-1.125, 2.125]])
    assert np.allclose(K, want, atol=1e-12)


def test_radial_coupling_properties():
    K = osc.radial_K(3, 12).K
    assert np.allclose(K, K.T, atol=1e-12)
    assert np.linalg.eigvalsh(K)[0] > 0.0
    # tridiagonal bands only
    assert np.allclose(np.triu(K, 2), 0.0, atol=1e-15)


def test_fit_area_coefficient_matches_lstsq_oracle():
    rng = np.random.Generator(np.random.PCG64(8))
    r = np.linspace(0.5, 20.0, 40)
    s = 0.27 * r**2 + rng.normal(0.0, 0.05, size=r.size)
    samples = list(zip(r, s))
    got = osc.fit_area_coefficient(samples, r_max=15.0)
    mask = r < 15.0
    want = float(np.linalg.lstsq(
        (r[mask] ** 2)[:, None], s[mask], rcond=None)[0][0])
    assert got == pytest.approx(want, abs=1e-12)


def test_area_law_scan_small_lattice_regression():
    curve = osc.area_law_scan(12, 150)
    samples = dict(curve.samples)
    assert samples[0.5] == 0.0
    assert samples[12.5] == 0.0  # R = N + 1/2 traces everything
    pins = {
        1.5: 0.5963386774181203,
        4.5: 5.857947104608070,  # 50-digit mpmath sum over l = 0..150
        8.5: 20.61772834152986,
        11.5: 32.726753621806694,
    }
    for r, want in pins.items():
        assert samples[r] == pytest.approx(want, abs=1e-9)
    assert curve.fit_lambda == pytest.approx(0.2687834003180999, abs=1e-9)


def test_area_law_scan_tracks_area_scaling():
    curve = osc.area_law_scan(12, 150)
    for r, s in curve.samples:
        if 1.0 < r < 11.0:
            # interior samples scale like lambda r^2 within a few percent
            assert s / r**2 == pytest.approx(0.27, abs=0.02)


def test_area_law_scan_validation():
    with pytest.raises(ValueError):
        osc.area_law_scan(4, 100)
    with pytest.raises(ValueError):
        osc.area_law_scan(12, 0)


@pytest.mark.parametrize("l0", [0, 143])
def test_stacked_engine_matches_subsystem_entropy(l0):
    # one stack of 8 channels against one subsystem_entropy call per
    # (l, radius), which keeps the outer side of every cut
    ls = np.arange(l0, l0 + 8)
    radii = list(range(1, 12))
    got = osc._shell_entropies(ls, 12, radii)
    for row, j in enumerate(radii):
        for col, l in enumerate(ls):
            want = osc.subsystem_entropy(osc.radial_K(int(l), 12), range(j, 12))
            assert got[row, col] == pytest.approx(want, abs=1e-10), (l, j)


def test_area_law_scan_reports_where_each_sum_stopped():
    l_max = 150
    curve = osc.area_law_scan(12, l_max)
    assert curve.l_stop[0] is None and curve.l_stop[-1] is None
    assert not curve.capped[0] and not curve.capped[-1]
    for (r, s), stop, capped in zip(curve.samples[1:-1], curve.l_stop[1:-1],
                                    curve.capped[1:-1]):
        assert 2 <= stop <= l_max
        assert not capped or stop == l_max
        # the sample is exactly the l-sum up to l_stop: terms that a stack
        # computed past the stop are dropped
        j = int(r - 0.5)
        want = sum((2 * l + 1) * osc.subsystem_entropy(osc.radial_K(l, 12),
                                                       range(j, 12))
                   for l in range(stop + 1))
        assert s == pytest.approx(want, abs=1e-10)
    # at this cap some radii run into it and some stop on the tail test
    assert any(curve.capped) and not all(curve.capped[1:-1])


def test_spectrum_entropy_keeps_tiny_symplectic_gaps():
    # c^2 - 1/4 = delta gives c - 1/2 = eps = delta - delta^2 + O(delta^3)
    # and S = eps (1 - ln eps) + eps^2/2 + O(eps^3); c formed as
    # sqrt(1/4 + delta) would round eps to a multiple of 2^-56
    for delta in (3e-12, 7.3e-15):
        eps = delta - delta**2
        want = eps * (1.0 - math.log(eps)) + eps**2 / 2.0
        got = float(osc._spectrum_entropy(np.array([delta, 0.0])))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_corner_engine_matches_subsystem_entropy_at_n60():
    # the engine diagonalises only a certified corner of each cut's D;
    # subsystem_entropy diagonalises all of it, on the outer side
    N, js, ls = 60, [5, 17, 30, 43, 55], np.array([0, 7, 50, 150, 300])
    got = osc._shell_entropies(ls, N, js)
    for row, j in enumerate(js):
        for col, l in enumerate(ls):
            want = osc.subsystem_entropy(osc.radial_K(int(l), N), range(j, N))
            assert got[row, col] == pytest.approx(want, rel=1e-13, abs=0.0), (l, j)


def _entropy(D):
    return float(osc._spectrum_entropy(np.linalg.eigvalsh(D)))


@pytest.mark.parametrize("family", ["decaying spectrum", "graded"])
def test_corner_truncation_bound_holds(family):
    # for every corner size k: 0 <= S(D) - S(D_k) <= sum over the sites
    # left out of g(D_ii), and S(D_k) >= g(D_{m-1,m-1}), up to the
    # rounding of the entropies themselves (a few ulps of S(D))
    rng = np.random.Generator(np.random.PCG64(9))
    m = 12
    for _ in range(20):
        if family == "decaying spectrum":
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            D = (q * 10.0 ** -np.linspace(0.0, 12.0, m)) @ q.T
        else:  # rows fall off geometrically away from the trailing corner
            G = rng.normal(size=(m, m)) * 0.3 ** np.arange(m - 1, -1, -1)[:, None]
            D = 0.1 * G @ G.T
        D = 0.5 * (D + D.T)
        full = _entropy(D)
        g = osc._c_form(np.maximum(np.diag(D), 0.0))
        slack = 1e-13 * full
        for k in range(1, m + 1):
            corner = _entropy(D[m - k:, m - k:])
            assert -slack <= full - corner <= g[: m - k].sum() + slack, k
            assert corner >= g[-1] - slack


@pytest.mark.parametrize("reverse", [False, True], ids=["inner", "outer"])
def test_diagonal_bounds_dominate_the_diagonal_of_d(reverse):
    N, h, ls = 60, 30, np.array([0, 50, 300])
    X, P = osc._correlator_stack(osc._radial_stack(ls, N))
    if reverse:
        X, P = X[:, ::-1, ::-1], P[:, ::-1, ::-1]
    chol = osc._cholesky(X)
    ms = np.arange(1, h + 1)
    diag, last = osc._diagonal_bounds(chol, P, ms, h)
    for row, m in enumerate(ms):
        exact = np.diagonal(osc._delta_matrix(chol, P, int(m)), axis1=-2, axis2=-1)
        assert np.all(diag[row, :, : h - m] == 0.0)
        # entries far below the largest are rounding noise of the matmul
        floor = 1e-16 * exact.max(axis=-1, keepdims=True)
        assert np.all(exact <= diag[row, :, h - m:] * (1 + 1e-12) + floor), m
        assert last[row] == pytest.approx(exact[:, -1], rel=1e-12, abs=0.0), m


def test_corner_engine_diagonalises_small_corners(monkeypatch):
    # at l near 300 the channels are gapped: the corners it forms are far
    # smaller than the smaller side m of most cuts
    sizes = []
    delta_matrix = osc._delta_matrix

    def spy(chol, P, m, s=0):
        sizes.append((m, m - s))
        return delta_matrix(chol, P, m, s)

    monkeypatch.setattr(osc, "_delta_matrix", spy)
    osc._shell_entropies(np.arange(293, 301), 60, range(1, 60))
    assert len(sizes) == 59
    assert all(1 <= k <= m for m, k in sizes)
    assert sum(k < m for m, k in sizes) >= 40
    assert max(k for _, k in sizes) <= 10


def test_area_law_scan_reports_its_corner_bound():
    curve = osc.area_law_scan(60, 300)
    assert 0.0 < curve.corner_bound <= osc._CORNER_TOL
    assert osc._CORNER_TOL <= 1e-14


def _area_law_scan_loop(N, l_max):
    """Reference: area_law_scan with the term-by-term l-sum loop it had
    before the accumulation was vectorised, on the same stacked terms."""
    def tail_below(term, prev, bound):
        if term == 0.0:
            return True
        rho = term / prev if prev > 0.0 else 1.0
        return rho < 1.0 and term * rho / (1.0 - rho) < bound

    S = np.zeros(N + 1)
    prev = np.zeros(N + 1)
    l_stop = np.full(N + 1, -1)
    corner_bound = 0.0
    active = np.ones(N + 1, dtype=bool)
    active[0] = active[N] = False
    for l0 in range(0, l_max + 1, osc._L_STACK):
        radii = np.nonzero(active)[0]
        if radii.size == 0:
            break
        ls = np.arange(l0, min(l0 + osc._L_STACK, l_max + 1))
        entropies, bounds = osc._shell_terms(ls, N, radii)
        terms = (2 * ls + 1) * entropies
        for idx, row in zip(radii, terms):
            for l, term in zip(ls, row):
                S[idx] += term
                l_stop[idx] = l
                if l >= 2 and tail_below(term, prev[idx], osc._TAIL * S[idx]):
                    active[idx] = False
                    break
                prev[idx] = term
        summed = ls <= l_stop[radii, None]
        corner_bound = max(corner_bound, float(bounds[summed].max()))
    r = np.arange(N + 1) + 0.5
    samples = tuple((float(rv), float(sv)) for rv, sv in zip(r, S))
    lam = osc.fit_area_coefficient(samples, osc._FIT_FRACTION * (N + 0.5))
    return osc.EntropyCurve(N, l_max, samples, osc._FIT_FRACTION, lam,
                            tuple(int(l) if l >= 0 else None for l in l_stop),
                            tuple(bool(a) for a in active), float(corner_bound))


@pytest.mark.parametrize("N, l_max", [(12, 40), (30, 120), (12, 400)])
def test_vectorised_l_sums_equal_the_term_by_term_loop(N, l_max):
    got = osc.area_law_scan(N, l_max)
    want = _area_law_scan_loop(N, l_max)
    for name in ("samples", "l_stop", "capped", "corner_bound", "fit_lambda"):
        assert getattr(got, name) == getattr(want, name), name
    assert got == want
    if l_max == 400:
        # the tail test stops several radii before the cap here
        assert sum(not c for c in got.capped[1:-1]) >= 3


@pytest.mark.parametrize("delta", [[math.nan, 0.1], [0.1, math.inf], [-math.inf]])
def test_spectrum_entropy_rejects_non_finite_values(delta):
    with pytest.raises(ValueError, match="non-finite symplectic value"):
        osc._spectrum_entropy(np.array(delta))


@pytest.mark.parametrize("func, args, kwargs, name", [
    (osc.thermal_entropy, (math.nan,), {}, "beta_omega"),
    (osc.partition_function, (math.nan,), {}, "beta_omega"),
    (osc.tfd_pair, (0.5,), {"omega": math.nan}, "omega"),
    (osc.radial_K, (2.5, 10), {}, "l"),
    (osc.radial_K, (True, 10), {}, "l"),
    (osc.radial_K, (3, 10.0), {}, "N"),
    (osc.area_law_scan, (12, 2.5), {}, "l_max"),
    (osc.area_law_scan, (12.5, 20), {}, "N"),
], ids=["thermal_entropy-nan", "partition_function-nan", "tfd_pair-omega-nan",
        "radial_K-float-l", "radial_K-bool-l", "radial_K-float-N",
        "area_law_scan-float-l_max", "area_law_scan-float-N"])
def test_oscillator_arguments_are_rejected_by_name(func, args, kwargs, name):
    # NaN <= 0 is False, so the positivity guards are written "not x > 0"
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        func(*args, **kwargs)


def test_numpy_ints_and_the_zero_temperature_limit_are_accepted():
    assert np.array_equal(osc.radial_K(np.int64(3), np.int32(12)).K,
                          osc.radial_K(3, 12).K)
    assert osc.area_law_scan(np.int64(12), np.int64(20)) == osc.area_law_scan(12, 20)
    # beta_omega = inf is the zero-temperature limit, not an error
    assert osc.thermal_entropy(math.inf) == 0.0


def test_correlator_stack_satisfies_the_uncertainty_product():
    # X = K^{-1/2}/2 and P = K^{1/2}/2 give X P = I/4 for every channel
    # of the stack; measured: at most 1.2e-15 (l = 150) on OpenBLAS's
    # SkylakeX, Haswell and Sandybridge kernels
    N = 60
    X, P = osc._correlator_stack(osc._radial_stack([0, 150, 300], N))
    assert np.abs(X @ P - np.eye(N) / 4.0).max() <= 4e-15


def test_corner_sizes_reject_a_nan_bound():
    # the zero padding is skipped by "!= 0", which a NaN bound passes, so
    # it reaches the c-form's finiteness check instead of counting as 0
    diag = np.full((2, 3, 4), 1e-3)
    diag[:, :, 0] = 0.0
    diag[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite symplectic value"):
        osc._corner_sizes(diag, np.full((2, 3), 1e-3))


def test_accumulate_stops_only_when_the_tail_is_strictly_below():
    # at l = 2 the remainder 0.5 * 0.5 / 0.5 equals _TAIL * 500.0 exactly,
    # which does not stop the sum; at l = 3 it is below and does
    S, last, l_stop, stopped = osc._accumulate(
        np.array([499.5]), np.array([1.0]), np.array([2, 3]), np.array([[0.5, 0.25]]))
    assert osc._TAIL * 500.0 == 0.5
    assert S.tolist() == [500.25] and last.tolist() == [0.25]
    assert l_stop.tolist() == [3] and stopped.tolist() == [True]


def test_accumulate_never_stops_before_l_2():
    # the tail after l = 1 is already negligible, but l = 2 is the first
    # l a sum may stop at
    S, last, l_stop, stopped = osc._accumulate(
        np.zeros(1), np.zeros(1), np.arange(4), np.array([[1.0, 1e-9, 1e-10, 1e-11]]))
    assert l_stop.tolist() == [2] and stopped.tolist() == [True]
    assert S.tolist() == [1.0 + 1e-9 + 1e-10] and last.tolist() == [1e-10]
