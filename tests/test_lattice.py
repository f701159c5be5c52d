"""Field-digitization and truncated gauge-model tests."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import hermite as npherm

from qilab import dynamics, lattice, qstate


def test_digitize_three_qubit_tables():
    field = lattice.digitize(3)
    assert field.eigenvalues == tuple(range(7, -9, -2))
    assert field.delta == pytest.approx(2 * lattice.nyquist_L(8) / 8, abs=1e-12)
    phi = {"".join(f): c for c, f in field.phi_q.terms}
    assert phi == {"z11": 4.0, "1z1": 2.0, "11z": 1.0}
    phi2 = {"".join(f): c for c, f in field.phi_q_squared.terms}
    assert phi2 == {"zz1": 16.0, "z1z": 8.0, "1zz": 4.0, "111": 21.0}


def test_digitize_diagonal_reconstruction():
    for n_q in (1, 2, 3, 4, 6):
        field = lattice.digitize(n_q)
        assert np.array_equal(field.phi_q.diagonal(),
                              np.array(field.eigenvalues, dtype=float))
        assert np.array_equal(field.phi_q_squared.diagonal(),
                              np.array(field.eigenvalues, dtype=float) ** 2)


def test_digitize_term_count_stays_linear():
    # phi_q is n_q strings; phi_q^2 is n_q(n_q-1)/2 pair strings + identity
    for n_q in (2, 3, 5, 8):
        field = lattice.digitize(n_q)
        assert len(field.phi_q.terms) == n_q
        assert len(field.phi_q_squared.terms) == n_q * (n_q - 1) // 2 + 1


def test_digitize_validation():
    with pytest.raises(ValueError):
        lattice.digitize(0)
    with pytest.raises(ValueError):
        lattice.digitize(11)


def test_walsh_decompose_rejects_non_integer_structure():
    # a diagonal whose transform does not divide evenly is not a valid
    # integer sigma-z combination
    with pytest.raises(ArithmeticError):
        lattice._walsh_decompose([1, 2, 3, 5])
    # round trip on a valid diagonal
    dec = lattice._walsh_decompose([3, 1, -1, -3])
    assert np.array_equal(dec.diagonal(), np.array([3.0, 1.0, -1.0, -3.0]))


def _walsh_oracle(values):
    """Oracle: the Walsh-Hadamard transform as an in-place triple loop
    over Python ints, as (coefficient, factors) pairs."""
    coeffs = [int(v) for v in values]
    size = len(coeffs)
    n = size.bit_length() - 1
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                coeffs[j], coeffs[j + h] = coeffs[j] + coeffs[j + h], coeffs[j] - coeffs[j + h]
        h *= 2
    terms = []
    for mask in range(size):
        if coeffs[mask] != 0:
            assert coeffs[mask] % size == 0
            factors = tuple("z" if mask & (1 << (n - 1 - q)) else "1" for q in range(n))
            terms.append((coeffs[mask] // size, factors))
    return terms


def _diagonal_oracle(terms):
    """Oracle: each string's sign (-1)^popcount(k & support) summed per entry k."""
    n = len(terms[0][1])
    diag = [0] * 2**n
    for coeff, factors in terms:
        mask = sum(1 << (n - 1 - q) for q, f in enumerate(factors) if f == "z")
        for k in range(2**n):
            diag[k] += -coeff if bin(k & mask).count("1") % 2 else coeff
    return diag


@pytest.mark.parametrize("n_q", range(1, 11))
def test_digitize_matches_the_triple_loop(n_q):
    field = lattice.digitize(n_q)
    ladder = list(field.eigenvalues)
    for dec, values in ((field.phi_q, ladder), (field.phi_q_squared, [v * v for v in ladder])):
        assert list(dec.terms) == _walsh_oracle(values)
        assert all(type(c) is int for c, _ in dec.terms)
        diag = dec.diagonal()
        assert diag == _diagonal_oracle(dec.terms) == values
        assert all(type(v) is int for v in diag)


def test_nyquist_window_reference_values():
    assert lattice.nyquist_L(8) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-12)
    assert round(lattice.nyquist_L(8), 2) == 3.54
    assert round(lattice.nyquist_L(32), 2) == 7.09
    # doubling the basis size scales the window by sqrt 2
    assert lattice.nyquist_L(32) == pytest.approx(
        2 * lattice.nyquist_L(8), abs=1e-12)


def test_hermite_matches_polynomial_oracle():
    xs = np.linspace(-6.0, 6.0, 41)
    for n in (0, 1, 2, 3, 7, 15, 40, 60):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        want = npherm.hermval(xs, coef) * np.exp(-xs**2 / 2.0) / norm
        got = lattice.hermite_eigenfunction(n, xs)
        assert np.allclose(got, want, atol=1e-12)


def test_hermite_orthonormal():
    xs = np.linspace(-12.0, 12.0, 4001)
    psis = [lattice.hermite_eigenfunction(n, xs) for n in range(6)]
    for i in range(6):
        for j in range(6):
            ip = np.trapezoid(psis[i] * psis[j], xs)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_hermite_degree_cap():
    with pytest.raises(ValueError):
        lattice.hermite_eigenfunction(61, np.array([0.0]))


def test_sampling_grid_symmetry():
    for n_q in (2, 3, 5):
        xs = lattice.sampling_grid(n_q)
        n = 2**n_q
        length = lattice.nyquist_L(n)
        assert len(xs) == n
        assert np.allclose(xs, -xs[::-1], atol=1e-12)
        assert np.allclose(np.diff(xs), 2 * length / n, atol=1e-12)
        assert xs[-1] == pytest.approx(length * (n - 1) / n, abs=1e-12)


def test_sampling_fidelity_three_qubit_regression():
    pins = [
        (0, 0.0010382135355517796, 1.4707748163811374e-06),
        (1, 0.007032014441787566, 6.370903614327794e-06),
        (2, 0.032151462448212716, 0.0006509428718977084),
        (3, 0.06353884780095226, 0.00047998842375507333),
    ]
    reports = lattice.sampling_fidelity(3, 4)
    for report, (level, max_err, infid) in zip(reports, pins):
        assert report.level == level
        assert report.max_error == pytest.approx(max_err, rel=1e-9)
        assert report.infidelity == pytest.approx(infid, rel=1e-6, abs=1e-12)


def test_sampling_fidelity_five_qubits_high_fidelity():
    reports = lattice.sampling_fidelity(5, 16)
    assert [r.level for r in reports] == list(range(16))
    for r in reports:
        assert r.infidelity < 1e-5
    # the hardest level is still reconstructed to a few parts in 1e3
    assert reports[15].max_error == pytest.approx(0.0024369110481889736,
                                                  rel=1e-9)
    assert reports[15].infidelity == pytest.approx(4.438026449671284e-07,
                                                   rel=1e-6)


def test_sampling_fidelity_validation():
    with pytest.raises(ValueError):
        lattice.sampling_fidelity(9, 4)
    with pytest.raises(ValueError):
        lattice.sampling_fidelity(3, 0)


def test_schwinger_h4_reference_matrix():
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    r2 = math.sqrt(2.0) * 0.5
    want = np.array([
        [-0.2, 1.0, 0.0, 0.0],
        [1.0, 1.0, r2, 0.0],
        [0.0, r2, 2.2, r2],
        [0.0, 0.0, r2, 3.0],
    ])
    assert np.allclose(lattice.schwinger_h4(p), want, atol=1e-12)


def test_schwinger_params_validation():
    with pytest.raises(ValueError):
        lattice.SchwingerParams(x=float("nan"), mu=0.0)


def test_gauss_law_clean_on_state_table():
    assert lattice.gauss_report() == []


def test_projection_matches_reference_hamiltonian():
    for x, mu in ((0.5, 0.1), (1.0, 0.0), (2.0, 1.0)):
        p = lattice.SchwingerParams(x=x, mu=mu)
        got = lattice.schwinger_project(p)
        assert np.allclose(got, lattice.schwinger_h4(p), atol=1e-10)


def test_projection_mismatch_with_closed_form_is_an_error(monkeypatch):
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    perturbed = lattice.schwinger_h4(p) + 1e-6 * np.eye(4)
    monkeypatch.setattr(lattice, "schwinger_h4", lambda params: perturbed)
    with pytest.raises(ArithmeticError, match="schwinger_h4"):
        lattice.schwinger_project(p)


def test_gauss_violation_is_reported_and_rejected(monkeypatch):
    _, *rest = lattice._S_COMPONENTS
    bad = ((((0, 0, 0, 0), (0, 0, 0, 2)),), 1.0)
    monkeypatch.setattr(lattice, "_S_COMPONENTS", (bad, *rest))
    head = "s1 component (0, 0, 0, 0)/(0, 0, 0, 2): "
    assert lattice.gauss_report() == [
        head + "link 0 is 0, Gauss's law needs 2",
        head + "link 3 is 2, Gauss's law needs 0",
        head + "flux outside -1..1",
        head + "sum l^2 >= 4",
    ]
    with pytest.raises(ValueError, match="^state construction violates Gauss's law: s1 "):
        lattice.schwinger_project(lattice.SchwingerParams(0.5, 0.1))


def test_repeated_state_is_not_orthonormal(monkeypatch):
    s1, _, s3, s4 = lattice._S_COMPONENTS
    monkeypatch.setattr(lattice, "_S_COMPONENTS", (s1, s1, s3, s4))
    assert lattice.gauss_report() == []
    with pytest.raises(ValueError, match="constructed states are not orthonormal"):
        lattice.schwinger_project(lattice.SchwingerParams(0.5, 0.1))


def test_projection_never_builds_the_full_space_operator():
    # one dense operator on the 16 x 81 fermion-flux space is 13 MB
    p = lattice.SchwingerParams(0.5, 0.1)
    lattice.schwinger_project(p)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        lattice.schwinger_project(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_spectrum_invariant_under_coupling_sign():
    for mu in (0.0, 0.3):
        a = np.linalg.eigvalsh(
            lattice.schwinger_h4(lattice.SchwingerParams(x=0.7, mu=mu)))
        b = np.linalg.eigvalsh(
            lattice.schwinger_h4(lattice.SchwingerParams(x=-0.7, mu=mu)))
        assert np.allclose(a, b, atol=1e-10)


def _power_iteration_ground(h, iters=4000):
    """Oracle: shifted power iteration for the lowest eigenpair."""
    shift = float(np.linalg.norm(h, 1)) + 1.0
    m = shift * np.eye(4) - h
    v = np.ones(4) / 2.0
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    energy = float(v @ h @ v)
    return energy, v


def test_ground_state_matches_power_iteration_oracle():
    for x, mu in ((0.5, 0.1), (1.5, 0.4)):
        p = lattice.SchwingerParams(x=x, mu=mu)
        gs = lattice.schwinger_ground_state(p)
        want_e, want_v = _power_iteration_ground(lattice.schwinger_h4(p))
        assert gs.energy == pytest.approx(want_e, abs=1e-9)
        amps = np.asarray(gs.amplitudes)
        overlap = abs(float(amps @ want_v))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        # sign convention: the dominant component is nonnegative
        assert amps[np.argmax(np.abs(amps))] >= 0.0


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("mu", [-1.0, 0.1, 1.0])
def test_ground_state_leading_amplitude_is_nonnegative(x, mu):
    # eigh's eigenvector sign depends on the LAPACK kernel, so this asserts
    # the convention's postcondition, whichever sign eigh returned
    amps = lattice.schwinger_ground_state(lattice.SchwingerParams(x, mu)).amplitudes
    assert amps[np.argmax(np.abs(amps))] >= 0.0


def test_schwinger_evolution_conserves_probability():
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    series = lattice.schwinger_evolve(p, np.linspace(0.0, 10.0, 200))
    totals = series.probabilities.sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-10)
    assert series.probabilities[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_schwinger_evolution_matches_spin_model_dual_route():
    # re-encode H4 as a two-qubit operator-string model and evolve there
    p = lattice.SchwingerParams(x=0.8, mu=0.25)
    h4 = lattice.schwinger_h4(p)
    spec = dynamics.from_dense(h4)
    grid = np.linspace(0.0, 6.0, 25)
    series = lattice.schwinger_evolve(p, grid)
    psi0 = qstate.StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    for k, t in enumerate(grid):
        st = dynamics.evolve(spec, float(t), psi0)
        assert np.allclose(series.probabilities[k], st.probabilities(),
                           atol=1e-9)


def test_schwinger_evolve_initial_validation():
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    with pytest.raises(ValueError):
        lattice.schwinger_evolve(p, [0.0], initial=[1.0, 0.0])


def _dirichlet_masked(u, period, n_samples):
    # the kernel route _dirichlet replaced: a masked scatter into ones
    a = np.pi * u / period
    out = np.ones_like(u)
    open_angle = np.abs(np.sin(a)) >= 1e-12
    out[open_angle] = np.sin(n_samples * a[open_angle]) / (
        n_samples * np.tan(a[open_angle]))
    return out


def _fidelity_per_level(n_q, n_levels):
    # the route sampling_fidelity replaced: one hermite_eigenfunction pair
    # and one set of integrals per level
    size = 2**n_q
    length = lattice.nyquist_L(size)
    xs = lattice.sampling_grid(n_q)
    xf = np.linspace(-length, length, 4001)
    kernel = _dirichlet_masked(xf[:, None] - xs[None, :], 2.0 * length, size)
    reports = []
    for n in range(n_levels):
        exact = lattice.hermite_eigenfunction(n, xf)
        recon = kernel @ lattice.hermite_eigenfunction(n, xs)
        overlap = np.trapezoid(exact * recon, xf)
        norm = math.sqrt(np.trapezoid(exact * exact, xf) *
                         np.trapezoid(recon * recon, xf))
        reports.append(lattice.FidelityReport(
            n, float(np.max(np.abs(exact - recon))), float(1.0 - abs(overlap) / norm)))
    return reports


@pytest.mark.parametrize("n_q", range(1, 9))
def test_dirichlet_kernel_is_the_masked_route_bit_for_bit(n_q):
    size = 2**n_q
    length = lattice.nyquist_L(size)
    xs = lattice.sampling_grid(n_q)
    # the fine grid, the sample points themselves (u = 0) and a whole period
    for x in (np.linspace(-length, length, 4001), xs, xs + 2.0 * length):
        u = x[:, None] - xs[None, :]
        got = lattice._dirichlet(u, 2.0 * length, size)
        assert got.tobytes() == _dirichlet_masked(u, 2.0 * length, size).tobytes()


@pytest.mark.parametrize("n_q, n_levels", [(1, 1), (2, 2), (3, 4), (3, 61), (5, 16), (8, 16)])
def test_sampling_fidelity_is_the_per_level_route_bit_for_bit(n_q, n_levels):
    got = lattice.sampling_fidelity(n_q, n_levels)
    want = _fidelity_per_level(n_q, n_levels)
    assert [type(v) for r in got for v in r] == [int, float, float] * n_levels
    assert got == want


@pytest.mark.parametrize("n_levels", [2.5, True, 0, 62, "4"])
def test_sampling_fidelity_names_a_bad_level_count(n_levels):
    with pytest.raises(ValueError, match="n_levels must be an integer in 1..61"):
        lattice.sampling_fidelity(3, n_levels)


def _hermite_two_term(n, x):
    # hermite_eigenfunction's recurrence as it was written before the
    # levels were shared with sampling_fidelity
    x = np.asarray(x, dtype=float)
    p0 = np.pi**-0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return p0
    p1 = math.sqrt(2.0) * x * p0
    for k in range(2, n + 1):
        p0, p1 = p1, math.sqrt(2.0 / k) * x * p1 - math.sqrt((k - 1) / k) * p0
    return p1


def test_hermite_eigenfunction_is_the_two_term_loop_bit_for_bit():
    x = np.linspace(-12.0, 12.0, 301)
    for n in range(61):
        assert lattice.hermite_eigenfunction(n, x).tobytes() == _hermite_two_term(n, x).tobytes()
    assert lattice.hermite_eigenfunction(0, 0.0).shape == ()
    assert lattice.hermite_eigenfunction(5, np.zeros((2, 3))).shape == (2, 3)


def _project_per_state(params):
    # the route schwinger_project replaced: each term applied to each state
    states = list(lattice._schwinger_states())
    h_states = [np.zeros_like(s) for s in states]
    for coeff, ops in lattice._schwinger_terms(params):
        for s, hs in zip(states, h_states):
            t = s
            for axis, op in ops.items():
                t = qstate._apply_local(op, t, [axis])
            hs += coeff * t
    return np.array([[np.vdot(si, hs) for hs in h_states] for si in states])


def test_projection_matches_the_per_state_route():
    for x, mu in ((0.5, 0.1), (1.0, 0.0), (2.0, 1.0), (-0.7, 3.5)):
        p = lattice.SchwingerParams(x=x, mu=mu)
        got = lattice.schwinger_project(p)
        assert got.shape == (4, 4)
        assert np.max(np.abs(got - _project_per_state(p))) <= 1e-12


@pytest.mark.parametrize("n", [2.5, True, -1, 61])
def test_hermite_eigenfunction_names_a_bad_level(n):
    with pytest.raises(ValueError, match="level must be an integer in 0..60"):
        lattice.hermite_eigenfunction(n, 0.3)


@pytest.mark.parametrize("n_q", [2.5, True, 0, 11])
def test_sampling_grid_names_a_bad_n_q(n_q):
    with pytest.raises(ValueError, match=r"^n_q must be an integer in 1\.\.10"):
        lattice.sampling_grid(n_q)
