"""Acceptance gate: the ten shipping criteria, one test and one line each.

Run with -v to get a pass/fail line per criterion.  Criterion 8 runs
the full production-scale lattice scan and dominates the wall time
(14.6-16.3 s as a pytest process under OpenBLAS's default threads,
6.9-7.5 s with OPENBLAS_NUM_THREADS=1, on a 2-core VM); everything else
finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from qilab import bell, density, dynamics, lattice, oscillators, qstate


def _report(num, label):
    print(f"PASS criterion {num}: {label}")


def test_criterion_01_gate_algebra():
    t0 = time.monotonic()
    eye2, eye4 = np.eye(2), np.eye(4)
    for name in ("H", "X"):
        m = qstate.standard_gate(name).matrix
        assert np.allclose(m @ m, eye2, atol=1e-12)
    cnot = qstate.standard_gate("CNOT").matrix
    assert np.allclose(cnot @ cnot, eye4, atol=1e-12)
    # SWAP via three alternating CNOTs; the middle one has its control
    # on the second qubit, built here by explicit index arithmetic
    flipped = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        a, b = (col >> 1) & 1, col & 1
        row = ((a ^ b) << 1) | b
        flipped[row, col] = 1.0
    swap = qstate.standard_gate("SWAP").matrix
    assert np.allclose(cnot @ flipped @ cnot, swap, atol=1e-12)
    assert time.monotonic() - t0 < 1.0
    _report(1, "gate algebra identities at 1e-12 in under 1 s")


def test_criterion_02_flip_and_bell_experiments():
    t0 = time.monotonic()
    for seed in (0, 1, 7, 123, 99991):
        rec = qstate.run_circuit(qstate.flip_circuit(), 10, seed)
        assert rec.qubit_stream("Final state", 0) == "1" * 10
    rec = qstate.run_circuit(qstate.bell_pair_circuit(), 10_000, 5)
    streams = rec.registers["Final state"]
    assert len(streams) == 10_000
    assert all(s[0] == s[1] for s in streams)
    assert time.monotonic() - t0 < 5.0
    _report(2, "experiment 1 all-ones, experiment 2 fully correlated")


def test_criterion_03_teleportation():
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(2024))
    for k in range(100):
        a, b = (float(v) for v in rng.uniform(0.0, 2.0, size=2))
        for deferred in (False, True):
            res = qstate.teleport((a, b), deferred, seed=k)
            assert np.allclose(np.array(res.bob),
                               np.array(res.message_initial), atol=1e-9)
            if not deferred:
                assert abs(res.message_final.z) == pytest.approx(1.0, abs=1e-9)
    assert time.monotonic() - t0 < 10.0
    _report(3, "100 random teleports faithful in both variants")


def test_criterion_04_entropy_core():
    bell00 = density.from_statevector(qstate.StateVector(
        2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)))
    reduced = density.partial_trace(bell00, [0])
    assert density.purity(reduced) == pytest.approx(0.5, abs=1e-10)
    assert density.von_neumann_entropy(reduced).entropy_bits == \
        pytest.approx(1.0, abs=1e-10)
    assert density.mutual_information(bell00, [0]) == \
        pytest.approx(2.0, abs=1e-9)
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(100):
        n = int(rng.integers(2, 5))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        rho = density.from_statevector(qstate.StateVector(n, amps))
        cut = [0] if n == 2 else list(rng.choice(n, size=n // 2, replace=False))
        rest = [q for q in range(n) if q not in cut]
        s_a = density.von_neumann_entropy(density.partial_trace(rho, cut))
        s_b = density.von_neumann_entropy(density.partial_trace(rho, rest))
        assert s_a.entropy_bits == pytest.approx(s_b.entropy_bits, abs=1e-9)
    _report(4, "bell-pair entropy core and S_A = S_B on 100 random states")


def test_criterion_05_exchange_decoherence():
    h = dynamics.rabi_hamiltonian()
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    t_star = math.sqrt(2.0) * math.pi / 4.0
    peak = dynamics.reduced_evolution(h, [t_star], rho0, [0])[0]
    assert peak.entropy_bits == pytest.approx(1.0, abs=1e-6)
    grid = np.linspace(0.0, 2.0 * math.pi, 400)
    root2 = math.sqrt(2.0)
    for s in dynamics.reduced_evolution(h, grid, rho0, [0]):
        m = s.rho.matrix
        assert m[0, 0].real == pytest.approx(
            (1.0 + math.cos(root2 * s.t) ** 2) / 2.0, abs=1e-9)
        assert m[1, 1].real == pytest.approx(
            math.sin(root2 * s.t) ** 2 / 2.0, abs=1e-9)
    _report(5, "exchange-model entropy peak and closed-form diagonal")


def test_criterion_06_kraus_maps():
    h = dynamics.measurement_hamiltonian()
    ks = dynamics.kraus_extract(h, 1.0)
    p11, p12, p21, p22 = ks.p_matrices()
    assert np.allclose(np.round(p11.real, 2), np.diag([1.0, 0.29]))
    assert np.allclose(np.round(p12.real, 2), np.diag([0.0, 0.71]))
    assert np.allclose(np.round(p21.real, 2), np.diag([0.71, 0.0]))
    assert np.allclose(np.round(p22.real, 2), np.diag([0.29, 1.0]))
    rng = np.random.Generator(np.random.PCG64(6))
    for t in rng.uniform(0.0, 10.0, size=50):
        q11, q12, q21, q22 = dynamics.kraus_extract(h, float(t)).p_matrices()
        assert np.allclose(q11 + q12, np.eye(2), atol=1e-10)
        assert np.allclose(q21 + q22, np.eye(2), atol=1e-10)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(plus, [1.0, 0.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(2, amps))
    s1 = dynamics.reduced_evolution(h, [1.0], rho0, [0])[0].entropy_bits
    assert s1 == pytest.approx(0.3, abs=0.05)
    _report(6, "Kraus P-matrices, trace preservation and t=1 entropy")


def test_criterion_07_chsh():
    for alpha in np.linspace(0.0, math.pi / 2, 37):
        settings, emax = bell.optimal_settings(float(alpha))
        assert emax == pytest.approx(
            2.0 * math.sqrt(1.0 + math.sin(2 * alpha) ** 2), abs=1e-12)
        assert bell.chsh_expectations(settings).e_bell == \
            pytest.approx(emax, abs=1e-12)
    values = bell.classical_bound_check()
    assert len(values) == 16 and max(abs(v) for v in values) <= 2.0 + 1e-12
    settings, emax = bell.optimal_settings(math.pi / 4)
    mc = bell.sampled_chsh(settings, 100_000, seed=42)
    assert abs(mc.e_bell - emax) < 5.0 * mc.se_bell
    lo, hi = 0.0, math.pi / 4
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if bell.chsh_expectations(bell.fixed_settings(mid)).e_bell < 2.0:
            lo = mid
        else:
            hi = mid
    assert math.degrees((lo + hi) / 2.0) == pytest.approx(12.0, abs=0.5)
    _report(7, "CHSH analytic, classical bound, Monte Carlo and crossing")


def test_criterion_08_area_law():
    t0 = time.monotonic()
    desk = oscillators.area_law_scan(60, 300)
    desk_time = time.monotonic() - t0
    assert desk_time < 120.0
    assert abs(desk.fit_lambda - 0.27) / 0.27 < 0.15
    for theta in np.linspace(0.05, 1.5, 30):
        pair = oscillators.tfd_pair(float(theta))
        got = oscillators.subsystem_entropy(
            oscillators.tfd_coupling(float(theta)), [0])
        assert got == pytest.approx(pair.s_exact, abs=1e-8)
    t1 = time.monotonic()
    full = oscillators.area_law_scan(200, 1000)
    full_time = time.monotonic() - t1
    assert full_time < 1800.0
    assert full.fit_lambda == pytest.approx(0.27, abs=0.02)
    assert abs(desk.fit_lambda - full.fit_lambda) / full.fit_lambda < 0.15
    _report(8, f"area law lambda full={full.fit_lambda:.4f} "
               f"desk={desk.fit_lambda:.4f} ({full_time:.0f} s)")


def test_criterion_09_digitization():
    field = lattice.digitize(3)
    assert field.eigenvalues == tuple(range(7, -9, -2))
    assert {"".join(f): c for c, f in field.phi_q.terms} == \
        {"z11": 4.0, "1z1": 2.0, "11z": 1.0}
    assert {"".join(f): c for c, f in field.phi_q_squared.terms} == \
        {"zz1": 16.0, "z1z": 8.0, "1zz": 4.0, "111": 21.0}
    assert round(lattice.nyquist_L(8), 2) == 3.54
    assert round(lattice.nyquist_L(32), 2) == 7.09
    for report in lattice.sampling_fidelity(5, 16):
        assert report.infidelity < 1e-5
    _report(9, "digitization tables, windows and 16-level fidelity")


def test_criterion_10_schwinger():
    for x, mu in ((0.5, 0.1), (1.0, 0.0), (2.0, 1.0)):
        p = lattice.SchwingerParams(x=x, mu=mu)
        assert np.allclose(lattice.schwinger_project(p),
                           lattice.schwinger_h4(p), atol=1e-10)
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    grid = np.linspace(0.0, 10.0, 100)
    series = lattice.schwinger_evolve(p, grid)
    assert np.allclose(series.probabilities.sum(axis=1), 1.0, atol=1e-10)
    spec = dynamics.from_dense(lattice.schwinger_h4(p))
    psi0 = qstate.StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    for k in range(0, 100, 7):
        st = dynamics.evolve(spec, float(grid[k]), psi0)
        assert np.allclose(series.probabilities[k], st.probabilities(),
                           atol=1e-9)
    _report(10, "gauge-sector projection and dual-route evolution")
