"""Density-matrix tests: partial trace, entropy, mutual information."""

import math

import numpy as np
import pytest

from qilab import density, oscillators, qstate


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _random_pure(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return qstate.StateVector(n, amps)


def _trace_oracle(matrix, n, keep):
    """Oracle: partial trace via explicit computational projectors."""
    drop = [q for q in range(n) if q not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)
    for env in range(2 ** len(drop)):
        bra = np.zeros((2**k, 2**n), dtype=complex)
        for row in range(2**k):
            bits = [0] * n
            for i, q in enumerate(keep):
                bits[q] = (row >> (k - 1 - i)) & 1
            for i, q in enumerate(drop):
                bits[q] = (env >> (len(drop) - 1 - i)) & 1
            col = 0
            for b in bits:
                col = (col << 1) | b
            bra[row, col] = 1.0
        out += bra @ matrix @ bra.conj().T
    return out


def _bell_rho():
    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return density.from_statevector(qstate.StateVector(2, amps))


def test_from_statevector_is_projector():
    st = _random_pure(2, _rng(1))
    rho = density.from_statevector(st)
    m = rho.matrix
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m @ m, m, atol=1e-12)


def test_density_validation():
    with pytest.raises(ValueError):
        density.DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        density.DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        density.DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("check_psd", [True, False], ids=["psd", "no-psd"])
@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_density_matrix_rejects_non_finite_entries(entry, check_psd):
    # NaN slips past every "> tolerance" comparison
    for m in (np.full((2, 2), entry), np.array([[0.5, entry], [entry, 0.5]])):
        with pytest.raises(ValueError, match="non-finite entry"):
            density.DensityMatrix(m, check_psd=check_psd)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check_psd", [True, False], ids=["psd", "no-psd"])
@pytest.mark.parametrize("entry", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_infinite_entries_are_rejected_without_a_warning(entry, check_psd):
    for m in (np.full((2, 2), entry), np.array([[0.5, entry], [entry, 0.5]])):
        with pytest.raises(ValueError, match="non-finite entry"):
            density.DensityMatrix(m, check_psd=check_psd)


def test_partial_trace_matches_projector_oracle():
    rng = _rng(2)
    for n in (2, 3, 4):
        for _ in range(4):
            rho = density.from_statevector(_random_pure(n, rng))
            keeps = [[0], [n - 1], list(range(n - 1))]
            for keep in keeps:
                got = density.partial_trace(rho, keep).matrix
                want = _trace_oracle(rho.matrix, n, keep)
                assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    red = density.partial_trace(_bell_rho(), [0])
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    assert density.purity(red) == pytest.approx(0.5, abs=1e-12)
    assert density.von_neumann_entropy(red).entropy_bits == \
        pytest.approx(1.0, abs=1e-12)


def test_entropy_vs_bloch_radius_closed_form():
    # dual route: single-qubit entropy from the bloch radius
    rng = _rng(3)
    for _ in range(20):
        rho_ab = density.from_statevector(_random_pure(2, rng))
        red = density.partial_trace(rho_ab, [0])
        report = density.von_neumann_entropy(red)
        r = np.linalg.norm([
            2 * red.matrix[0, 1].real,
            -2 * red.matrix[0, 1].imag,
            (red.matrix[0, 0] - red.matrix[1, 1]).real,
        ])
        lam = np.array([(1 + r) / 2, (1 - r) / 2])
        lam = lam[lam > 0]
        want = float(-(lam * np.log2(lam)).sum())
        assert report.entropy_bits == pytest.approx(want, abs=1e-10)


def test_pure_state_entropy_zero():
    rho = density.from_statevector(qstate.StateVector.computational([0, 1]))
    assert density.von_neumann_entropy(rho).entropy_bits == 0.0


def test_pure_spectrum_entropy_is_positive_zero():
    # -(1 log2 1 + 0) is -0.0 before the fold
    assert math.copysign(1.0, density.entropy_bits([1.0, 0.0])) == 1.0


def test_entropy_clamp_window():
    ok = density.DensityMatrix(np.diag([1 + 5e-11, -5e-11]), check_psd=False)
    assert density.von_neumann_entropy(ok).entropy_bits == 0.0
    bad = density.DensityMatrix(np.diag([1 + 1e-9, -1e-9]), check_psd=False)
    with pytest.raises(ValueError):
        density.von_neumann_entropy(bad)


def test_subsystem_entropies_match_for_pure_states():
    rng = _rng(4)
    for n, cut in ((2, [0]), (3, [0, 2]), (4, [1, 3])):
        for _ in range(5):
            rho = density.from_statevector(_random_pure(n, rng))
            rest = [q for q in range(n) if q not in cut]
            s_a = density.von_neumann_entropy(density.partial_trace(rho, cut))
            s_b = density.von_neumann_entropy(density.partial_trace(rho, rest))
            assert s_a.entropy_bits == pytest.approx(
                s_b.entropy_bits, abs=1e-9)


def test_mutual_information_bell_pair():
    assert density.mutual_information(_bell_rho(), [0]) == \
        pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_state_zero():
    rho = density.from_statevector(qstate.StateVector.computational([1, 0]))
    assert density.mutual_information(rho, [0]) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_nonnegative_random():
    rng = _rng(5)
    for _ in range(10):
        rho = density.from_statevector(_random_pure(3, rng))
        assert density.mutual_information(rho, [0]) >= -1e-10


def test_bloch_ball_analysis_hits_determinant_identity():
    rng = _rng(6)
    for _ in range(10):
        rho = density.partial_trace(
            density.from_statevector(_random_pure(2, rng)), [0])
        vec, rad, s = density.bloch_ball_analysis(rho)
        # the ball geometry ties the determinant to the radius
        det = float(np.linalg.det(rho.matrix).real)
        assert det == pytest.approx((1 - rad**2) / 4, abs=1e-12)
        assert 0.0 <= rad <= 1.0 + 1e-12
        # closed-form entropy agrees with the eigenvalue route
        assert s == pytest.approx(
            density.von_neumann_entropy(rho).entropy_bits, abs=1e-10)
        assert rad == pytest.approx(np.linalg.norm(vec), abs=1e-12)


@pytest.mark.parametrize("indices", [[0.7], [1.5], [True]], ids=["0.7", "1.5", "True"])
@pytest.mark.parametrize("entry", [
    lambda keep: density.partial_trace(_bell_rho(), keep),
    lambda keep: density.mutual_information(_bell_rho(), keep),
    lambda keep: oscillators.subsystem_entropy(oscillators.tfd_coupling(0.5), keep),
], ids=["partial_trace", "mutual_information", "subsystem_entropy"])
def test_index_lists_must_hold_integers(entry, indices):
    with pytest.raises(ValueError, match="integer"):
        entry(indices)


@pytest.mark.parametrize("entry", [
    lambda keep: density.partial_trace(_bell_rho(), keep).matrix,
    lambda keep: density.mutual_information(_bell_rho(), keep),
    lambda keep: oscillators.subsystem_entropy(oscillators.tfd_coupling(0.5), keep),
], ids=["partial_trace", "mutual_information", "subsystem_entropy"])
def test_index_lists_are_checked_before_deduplication(entry):
    # set() would fold True into an equal 1 before any type check saw it
    with pytest.raises(ValueError, match="integer"):
        entry([1, True])
    # a repeated index is kept once, by design
    assert np.array_equal(entry([1, 1]), entry([1]))


def _bloch_formula(m):
    return (2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real)


def test_bloch_routes_agree_on_random_pure_states():
    rng = _rng(7)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            psi = _random_pure(n, rng)
            rho = density.from_statevector(psi)
            for q in range(n):
                want = qstate.bloch_vector(psi, q)
                routes = {
                    "DensityMatrix": qstate.bloch_vector(rho, q),
                    "raw matrix": qstate.bloch_vector(rho.matrix, q),
                    "bloch_ball_analysis": density.bloch_ball_analysis(
                        density.partial_trace(rho, [q]))[0],
                    "projector oracle": _bloch_formula(
                        _trace_oracle(rho.matrix, n, [q])),
                }
                for name, got in routes.items():
                    assert np.allclose(got, want, rtol=0, atol=1e-12), (n, q, name)


def test_bloch_routes_share_one_radius_bound():
    # DensityMatrix admits this matrix (eigenvalue -1e-11 > -1e-10), so
    # both Bloch routes give the same vector with r slightly above 1
    m = np.diag([1 + 1e-11, -1e-11])
    rho = density.DensityMatrix(m)
    vec, r, _ = density.bloch_ball_analysis(rho)
    assert r > 1.0
    assert qstate.bloch_vector(m, 0) == vec
    assert qstate.bloch_vector(rho, 0) == vec
    # past the 1e-9 bound neither route returns a vector
    far = density.DensityMatrix(np.diag([1 + 1e-8, -1e-8]), check_psd=False)
    for route in (lambda: qstate.bloch_vector(far, 0),
                  lambda: density.bloch_ball_analysis(far)):
        with pytest.raises(ValueError, match="outside the ball"):
            route()


def test_mutual_information_of_a_product_with_unequal_entropies():
    # |0><0| (x) I/2: S_A = 0 and S_B = 1 differ, so a B that repeated A
    # would give -1 or 1 instead of 0
    rho = density.DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
    assert density.mutual_information(rho, [0]) == pytest.approx(0.0, abs=1e-12)
    assert density.mutual_information(rho, [1]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("shift, consistent", [(3.6e-12, True), (4.4e-12, False)])
def test_bloch_ball_determinant_guard_at_its_tolerance(monkeypatch, shift, consistent):
    # diag(3/4, 1/4) has r = 1/2 and det = 3/16; a radius off by `shift`
    # moves (1 - r^2)/4 by shift/4, just inside or just past 1e-12
    bloch = density._bloch
    monkeypatch.setattr(density, "_bloch",
                        lambda m: bloch(m)._replace(z=bloch(m).z + shift))
    rho = density.DensityMatrix(np.diag([0.75, 0.25]))
    if consistent:
        assert density.bloch_ball_analysis(rho)[1] == 0.5 + shift
        return
    with pytest.raises(qstate.SimulationFault, match=r"^det\(rho\) != \(1-r\^2\)/4; inconsistent state$"):
        density.bloch_ball_analysis(rho)
