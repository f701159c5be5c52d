"""Spin-exchange dynamics tests: Hamiltonians, evolution, Kraus maps."""

import functools
import itertools
import math

import numpy as np
import pytest

from qilab import density, dynamics, lattice, qstate

_I2 = np.eye(2, dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)
_SM = _SP.conj().T


def _kron(*ms):
    out = np.array([[1.0 + 0j]])
    for m in ms:
        out = np.kron(out, m)
    return out


def _expm_oracle(a):
    """Oracle: Taylor series with scaling and squaring."""
    n = max(0, int(np.ceil(np.log2(max(1e-16, np.linalg.norm(a, 1))))) + 4)
    b = a / (2**n)
    total = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ b / k
        total = total + term
    for _ in range(n):
        total = total @ total
    return total


def _rabi_dense(c1=1.0, c2=1.0):
    return -(c1 * _kron(_SZ, _I2)
             + c2 * (_kron(_SP, _SM) + _kron(_SM, _SP)))


def test_operator_string_dense_matches_kron_oracle():
    cases = {
        "z1": _kron(_SZ, _I2),
        "+-": _kron(_SP, _SM),
        "x" : np.array([[0, 1], [1, 0]], dtype=complex),
        "1z1": _kron(_I2, _SZ, _I2),
        "-1+": _kron(_SM, _I2, _SP),
    }
    for factors, want in cases.items():
        op = dynamics.OperatorString(2.5, tuple(factors))
        assert np.allclose(op.dense(), 2.5 * want, atol=1e-15)


def test_operator_string_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        dynamics.OperatorString(1.0, ("q",))


def test_build_hamiltonian_requires_hermitian_sum():
    with pytest.raises(ValueError):
        dynamics.build_hamiltonian([(1.0, "+-")])  # lone raising term
    h = dynamics.build_hamiltonian([(1.0, "+-"), (1.0, "-+")])
    m = dynamics.dense(h)
    assert np.allclose(m, m.conj().T, atol=1e-12)


def test_build_hamiltonian_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        dynamics.build_hamiltonian([(1.0, "z"), (1.0, "zz")])


def test_rabi_hamiltonian_dense():
    h = dynamics.rabi_hamiltonian()
    assert np.allclose(dynamics.dense(h), _rabi_dense(), atol=1e-15)


def test_measurement_hamiltonian_dense():
    h = dynamics.measurement_hamiltonian(0.9, 0.3, 0.5)
    want = _rabi_dense(0.9, 0.5) - 0.3 * _kron(_I2, _SZ)
    assert np.allclose(dynamics.dense(h), want, atol=1e-15)


def test_propagator_matches_expm_oracle():
    h = dynamics.measurement_hamiltonian()
    for t in (0.0, 0.3, 1.0, 4.5):
        want = _expm_oracle(-1j * dynamics.dense(h) * t)
        got = dynamics.propagator(h, t)
        assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(got @ got.conj().T, np.eye(4), atol=1e-12)


def test_propagator_time_zero_is_exact_identity():
    h = dynamics.rabi_hamiltonian()
    assert np.array_equal(dynamics.propagator(h, 0.0), np.eye(4, dtype=complex))


def test_evolve_statevector_and_density_agree():
    h = dynamics.rabi_hamiltonian()
    st0 = qstate.StateVector.computational([0, 1])
    for t in (0.4, 1.3):
        st = dynamics.evolve(h, t, st0)
        rho = dynamics.evolve(h, t, density.from_statevector(st0))
        assert np.allclose(
            rho.matrix, np.outer(st.amplitudes, st.amplitudes.conj()),
            atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_evolve_checks_input_at_every_time(t):
    # t = 0 takes a shortcut, but only after the checks every t gets
    h = dynamics.rabi_hamiltonian()
    with pytest.raises(ValueError, match="qubit counts differ"):
        dynamics.evolve(h, t, qstate.StateVector.zeros(3))
    with pytest.raises(ValueError, match="qubit counts differ"):
        dynamics.evolve(h, t, density.from_statevector(qstate.StateVector.zeros(1)))
    with pytest.raises(TypeError, match="cannot evolve"):
        dynamics.evolve(h, t, np.eye(4))


def test_exchange_model_closed_form_diagonal():
    # from |01>: diag rho_S(t) = ((1+cos^2 rt)/2, sin^2 rt / 2), r = sqrt2,
    # and the off-diagonal stays exactly zero
    h = dynamics.rabi_hamiltonian()
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    grid = np.linspace(0.0, 4.0 * math.pi, 100)
    root2 = math.sqrt(2.0)
    for s in dynamics.reduced_evolution(h, grid, rho0, [0]):
        m = s.rho.matrix
        assert m[0, 0].real == pytest.approx(
            (1 + math.cos(root2 * s.t) ** 2) / 2, abs=1e-9)
        assert m[1, 1].real == pytest.approx(
            math.sin(root2 * s.t) ** 2 / 2, abs=1e-9)
        assert abs(m[0, 1]) < 1e-12
        assert s.offdiag_abs < 1e-12


def test_exchange_model_entropy_peak():
    h = dynamics.rabi_hamiltonian()
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    t_star = math.sqrt(2.0) * math.pi / 4.0
    sample = dynamics.reduced_evolution(h, [t_star], rho0, [0])[0]
    assert sample.entropy_bits == pytest.approx(1.0, abs=1e-9)
    assert sample.purity == pytest.approx(0.5, abs=1e-9)


def test_reduced_evolution_matches_expm_oracle():
    # independent route for the three-qubit model at frozen times
    h = dynamics.decoherence_hamiltonian()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(np.kron(plus, [1.0, 0.0]), [0.0, 1.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(3, amps))
    goldens = {
        1.0: (0.40344663380198886, 0.4184107783002428),
        2.5: (0.797599109836865, 0.25842434042289236),
        5.0: (0.8642636490497393, 0.16474951535873555),
        10.0: (0.9690214914553669, 0.01471854221753961),
        20.0: (0.7949608021828773, 0.24758841010485844),
    }
    samples = dynamics.reduced_evolution(h, sorted(goldens), rho0, [0])
    for s in samples:
        want_s, want_off = goldens[s.t]
        assert s.entropy_bits == pytest.approx(want_s, abs=1e-9)
        assert s.offdiag_abs == pytest.approx(want_off, abs=1e-9)


def test_decoherence_trends():
    h = dynamics.decoherence_hamiltonian()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(np.kron(plus, [1.0, 0.0]), [0.0, 1.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(3, amps))
    samples = dynamics.reduced_evolution(h, np.linspace(0, 20, 81), rho0, [0])
    assert samples[0].entropy_bits == pytest.approx(0.0, abs=1e-9)
    assert samples[0].offdiag_abs == pytest.approx(0.5, abs=1e-9)
    assert max(s.entropy_bits for s in samples) > 0.9
    for s in samples:
        assert -1e-9 <= s.entropy_bits <= 1.0 + 1e-9
        assert 0.5 - 1e-9 <= s.purity <= 1.0 + 1e-9


def _random_model(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = qstate.StateVector(n, amps / np.linalg.norm(amps))
    return dynamics.from_dense((a + a.conj().T) / 2), density.from_statevector(psi)


_GRID_CASES = [(2, [0]), (2, [1]), (3, [0]), (3, [1]), (3, [0, 2])]


@pytest.mark.parametrize("n, keep", _GRID_CASES,
                         ids=[f"n{n}-keep{''.join(map(str, k))}" for n, k in _GRID_CASES])
def test_batched_grid_equals_single_times_and_the_evolve_route(n, keep):
    h, rho0 = _random_model(n, seed=40 + n + sum(keep))
    grid = np.linspace(0.0, 7.0, 23)
    samples = dynamics.reduced_evolution(h, grid, rho0, keep)
    assert [s.t for s in samples] == list(grid)
    for s in samples:
        # a sample does not depend on the grid it came in, bit for bit
        (one,) = dynamics.reduced_evolution(h, [s.t], rho0, keep)
        assert np.array_equal(s.rho.matrix, one.rho.matrix)
        assert (s.t, s.entropy_bits, s.purity, s.offdiag_abs) == (
            one.t, one.entropy_bits, one.purity, one.offdiag_abs)
        # independent route: evolve the joint state, then partial_trace
        want = density.partial_trace(dynamics.evolve(h, s.t, rho0), keep)
        report = density.von_neumann_entropy(want)
        off = want.matrix - np.diag(np.diag(want.matrix))
        assert np.allclose(s.rho.matrix, want.matrix, rtol=0, atol=1e-12)
        assert s.entropy_bits == pytest.approx(report.entropy_bits, abs=1e-12)
        assert s.purity == pytest.approx(report.purity, abs=1e-12)
        assert s.offdiag_abs == pytest.approx(np.max(np.abs(off)), abs=1e-12)


def test_empty_grid_gives_no_samples():
    h, rho0 = _random_model(2, seed=1)
    assert dynamics.reduced_evolution(h, [], rho0, [0]) == []


@pytest.mark.parametrize("grid", [[0.0, math.nan], [math.inf], [[0.0, 1.0]], 1.0],
                         ids=["nan", "inf", "2-D", "scalar"])
def test_reduced_evolution_rejects_bad_grids(grid):
    h = dynamics.rabi_hamiltonian()
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    with pytest.raises(ValueError, match="one-dimensional sequence of finite times"):
        dynamics.reduced_evolution(h, grid, rho0, [0])


def test_reduced_evolution_checks_its_state_and_qubits():
    h = dynamics.rabi_hamiltonian()
    with pytest.raises(ValueError, match="qubit counts differ"):
        dynamics.reduced_evolution(
            h, [1.0], density.from_statevector(qstate.StateVector.zeros(3)), [0])
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    with pytest.raises(ValueError, match="not in range"):
        dynamics.reduced_evolution(h, [1.0], rho0, [2])


def test_stack_check_raises_density_matrix_messages():
    # the joint-state stack of reduced_evolution is held to DensityMatrix's
    # rules by one helper; a bad matrix in a stack raises DensityMatrix's
    # message for it, and a trace message names the first bad trace
    good = np.diag([0.25, 0.75]).astype(complex)
    bad = {
        "non-Hermitian": np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex),
        "trace": np.diag([0.7, 0.7]).astype(complex),
        "non-finite": np.full((2, 2), np.nan, dtype=complex),
    }
    for name, m in bad.items():
        with pytest.raises(ValueError) as single:
            density.DensityMatrix(m)
        stack = np.stack([good, m, good, np.diag([0.1, 0.1]).astype(complex)])
        with pytest.raises(ValueError) as batch:
            density._check_density(stack)
        assert str(batch.value) == str(single.value), name
    density._check_density(np.stack([good, good]))


def test_from_dense_round_trip():
    h = dynamics.decoherence_hamiltonian()
    m = dynamics.dense(h)
    again = dynamics.from_dense(m)
    assert np.allclose(dynamics.dense(again), m, atol=1e-12)


def test_from_dense_random_hermitian():
    rng = np.random.Generator(np.random.PCG64(17))
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = (a + a.conj().T) / 2
    spec = dynamics.from_dense(m)
    assert np.allclose(dynamics.dense(spec), m, atol=1e-10)


def _from_dense_oracle(matrix):
    """Oracle: the trace route, tr(P H)/2^n with every string P formed as
    a dense matrix (32^n work), as (coefficient, factors) pairs with
    from_dense's 1e-12 drop rule."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0].bit_length() - 1
    terms = []
    for factors in itertools.product("1xyz", repeat=n):
        p = dynamics.OperatorString(1.0, factors).dense()
        coeff = np.trace(p @ m) / m.shape[0]
        if abs(coeff) > 1e-12:
            terms.append((complex(coeff.real), factors))
    return terms


def _random_hermitian(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("matrix", [
    *[pytest.param(functools.partial(_random_hermitian, n, seed), id=f"random-n{n}-s{seed}")
      for n in range(1, 6) for seed in (3, 29)],
    pytest.param(lambda: dynamics.dense(dynamics.decoherence_hamiltonian()), id="decoherence"),
    pytest.param(lambda: lattice.schwinger_h4(lattice.SchwingerParams(0.5, 0.1)),
                 id="schwinger_h4"),
])
def test_from_dense_matches_the_trace_route(matrix):
    m = matrix()
    got = [(t.coefficient, t.factors) for t in dynamics.from_dense(m).terms]
    want = _from_dense_oracle(m)
    assert [f for _, f in got] == [f for _, f in want]
    assert max(abs(c - w) for (c, _), (w, _) in zip(got, want)) <= 1e-15


def test_from_dense_keeps_its_drop_rule_and_hermiticity_check():
    # a term of 2e-12 stays and one of 5e-13 goes, as in the trace route
    m = dynamics.dense(dynamics.build_hamiltonian([(1.0, "zz"), (2e-12, "xy"), (5e-13, "1x")]))
    assert [t.factors for t in dynamics.from_dense(m).terms] == [("x", "y"), ("z", "z")]
    with pytest.raises(ValueError, match="^matrix must be Hermitian$"):
        dynamics.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_from_dense_takes_the_largest_qubit_count():
    n = dynamics._MAX_DENSE_QUBITS
    spec = dynamics.from_dense(np.eye(2**n))
    assert [(t.coefficient, t.factors) for t in spec.terms] == [(1.0, ("1",) * n)]


def test_kraus_reference_point():
    # published two-decimal values of the P matrices at t=1
    ks = dynamics.kraus_extract(dynamics.measurement_hamiltonian(), 1.0)
    p11, p12, p21, p22 = ks.p_matrices()
    assert np.allclose(np.round(p11.real, 2), np.diag([1.0, 0.29]), atol=1e-12)
    assert np.allclose(np.round(p12.real, 2), np.diag([0.0, 0.71]), atol=1e-12)
    assert np.allclose(np.round(p21.real, 2), np.diag([0.71, 0.0]), atol=1e-12)
    assert np.allclose(np.round(p22.real, 2), np.diag([0.29, 1.0]), atol=1e-12)
    for p in (p11, p12, p21, p22):
        assert np.max(np.abs(p.imag)) < 1e-12


def test_kraus_product_anchors():
    # published products: P11^2, P12^2 and P11 P12 at two decimals
    ks = dynamics.kraus_extract(dynamics.measurement_hamiltonian(), 1.0)
    p11, p12, _, _ = ks.p_matrices()
    assert np.allclose(np.round((p11 @ p11).real, 2),
                       np.diag([1.0, 0.09]), atol=1e-12)
    assert np.allclose(np.round((p12 @ p12).real, 2),
                       np.diag([0.0, 0.50]), atol=1e-12)
    assert np.allclose(np.round((p11 @ p12).real, 2),
                       np.diag([0.0, 0.21]), atol=1e-12)


def test_kraus_row_sums_identity_for_random_times():
    rng = np.random.Generator(np.random.PCG64(23))
    h = dynamics.measurement_hamiltonian()
    for t in rng.uniform(0.0, 8.0, size=50):
        ks = dynamics.kraus_extract(h, float(t))
        p11, p12, p21, p22 = ks.p_matrices()
        assert np.allclose(p11 + p12, np.eye(2), atol=1e-10)
        assert np.allclose(p21 + p22, np.eye(2), atol=1e-10)
        assert ks.completeness_defect() < 1e-10


def test_kraus_apply_matches_reduced_evolution():
    # dual route: operator-sum action vs trace over the environment
    h = dynamics.measurement_hamiltonian()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho_s0 = np.outer(plus, plus).astype(complex)
    amps = np.kron(plus, [1.0, 0.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(2, amps))
    for t in (0.5, 1.0, 2.0):
        ks = dynamics.kraus_extract(h, t)
        got = ks.apply(rho_s0, env_bit=0)
        want = dynamics.reduced_evolution(h, [t], rho0, [0])[0].rho.matrix
        assert np.allclose(got, want, atol=1e-10)


def test_kraus_entropy_reference():
    h = dynamics.measurement_hamiltonian()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(plus, [1.0, 0.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(2, amps))
    s = dynamics.reduced_evolution(h, [1.0], rho0, [0])[0].entropy_bits
    assert s == pytest.approx(0.30589062811241774, abs=1e-9)
    assert s == pytest.approx(0.3, abs=0.05)  # published rounding


def test_kraus_requires_two_qubits():
    with pytest.raises(ValueError):
        dynamics.kraus_extract(dynamics.decoherence_hamiltonian(), 1.0)


def test_swap_demo_extremes():
    rec0, corr0 = dynamics.swap_measurement_demo(0.0, 30, 5)
    assert rec0.qubit_stream("q0", 0) == "0" * 30
    assert corr0 == 0.0  # constant register, correlation defined as 0
    rec1, corr1 = dynamics.swap_measurement_demo(1.0, 30, 5)
    assert rec1.qubit_stream("q0", 0) == "1" * 30
    assert corr1 == 0.0


def test_swap_demo_midpoint():
    rec, corr = dynamics.swap_measurement_demo(0.5, 200, 11)
    assert len(rec.registers["q0"]) == 200
    assert -1.0 <= corr <= 1.0
    stream = rec.qubit_stream("q0", 0)
    assert set(stream) == {"0", "1"}  # genuinely mixed outcomes


def test_swap_demo_range_check():
    with pytest.raises(ValueError):
        dynamics.swap_measurement_demo(2.5, 10, 0)


def test_swap_demo_interval_is_closed_at_2():
    # X^2 is the identity, so the swapped qubit reads 0 on every shot
    rec, corr = dynamics.swap_measurement_demo(2.0, 10, 0)
    assert rec.qubit_stream("q0", 0) == "0" * 10 and corr == 0.0
    with pytest.raises(ValueError, match=r"^t must lie in \[0, 2\], got 2\.0000000000000004$"):
        dynamics.swap_measurement_demo(math.nextafter(2.0, 3.0), 10, 0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_times_are_rejected(t):
    h = dynamics.measurement_hamiltonian()
    calls = {
        "propagator": lambda: dynamics.propagator(h, t),
        "evolve state": lambda: dynamics.evolve(h, t, qstate.StateVector.zeros(2)),
        "evolve density": lambda: dynamics.evolve(
            h, t, density.from_statevector(qstate.StateVector.zeros(2))),
        "kraus_extract": lambda: dynamics.kraus_extract(h, t),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="time must be finite"):
            call()


@pytest.mark.parametrize("n, keep", _GRID_CASES,
                         ids=[f"n{n}-keep{''.join(map(str, k))}" for n, k in _GRID_CASES])
def test_reduced_samples_hold_read_only_density_matrices(n, keep):
    h, rho0 = _random_model(n, seed=60 + n + sum(keep))
    for s in dynamics.reduced_evolution(h, np.linspace(0.0, 3.0, 7), rho0, keep):
        assert isinstance(s.rho, density.DensityMatrix)
        assert s.rho.n_qubits == len(keep)
        assert s.rho.matrix.shape == (2 ** len(keep),) * 2
        assert not s.rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            s.rho.matrix[0, 0] = 0.0
        # the matrix is one DensityMatrix itself accepts, unchanged
        again = density.DensityMatrix(s.rho.matrix)
        assert np.array_equal(again.matrix, s.rho.matrix)


def test_density_stack_checks_the_stack_and_copies_it():
    good = np.diag([0.25, 0.75]).astype(complex)
    stack = np.stack([good, good])
    rhos = density._density_stack(stack)
    stack[0, 0, 0] = 7.0  # the samples hold their own copy
    assert [r.n_qubits for r in rhos] == [1, 1]
    assert all(np.array_equal(r.matrix, good) for r in rhos)
    bad = np.diag([0.7, 0.7]).astype(complex)
    with pytest.raises(ValueError) as single:
        density.DensityMatrix(bad, check_psd=False)
    with pytest.raises(ValueError) as batch:
        density._density_stack(np.stack([good, bad]))
    assert str(batch.value) == str(single.value)


def _kron_reduce(op):
    # the route OperatorString.dense replaced
    return functools.reduce(np.kron, (qstate.PAULI[f] for f in op.factors),
                            np.array([[op.coefficient]], dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_string_dense_is_the_kron_reduce_bit_for_bit(n):
    # signed zeros in the coefficient and in every factor's zero entries
    coeffs = (1.0, -0.5, 2.5j, complex(-0.0, 1.0), complex(0.3, -0.0), -1e-300)
    for factors in itertools.product("1xyz+-", repeat=n):
        for c in coeffs:
            op = dynamics.OperatorString(c, factors)
            got, want = op.dense(), _kron_reduce(op)
            assert got.shape == want.shape == (2**n, 2**n)
            assert got.tobytes() == want.tobytes(), (c, factors)


def test_dense_is_the_read_only_term_sum():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    specs = (dynamics.rabi_hamiltonian(), dynamics.measurement_hamiltonian(),
             dynamics.decoherence_hamiltonian(), dynamics.from_dense((a + a.conj().T) / 2))
    for h in specs:
        m = dynamics.dense(h)
        assert m is h.matrix and m.dtype == complex
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
        want = np.zeros((2**h.n_qubits,) * 2, dtype=complex)
        for term in h.terms:
            want += term.dense()
        assert m.tobytes() == want.tobytes()


def test_hamiltonian_spec_keeps_its_matrix_out_of_eq_and_repr():
    h = dynamics.rabi_hamiltonian()
    assert h == dynamics.rabi_hamiltonian()
    assert hash(h) == hash(dynamics.rabi_hamiltonian())
    assert "matrix" not in repr(h)


def test_hamiltonian_spec_built_directly_is_checked():
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics.HamiltonianSpec(1, (dynamics.OperatorString(1j, "z"),))
    with pytest.raises(ValueError, match="one qubit count"):
        dynamics.HamiltonianSpec(2, (dynamics.OperatorString(1.0, "z"),))
    with pytest.raises(ValueError, match="at least one term"):
        dynamics.HamiltonianSpec(1, ())
    h = dynamics.HamiltonianSpec(1, [dynamics.OperatorString(0.5, "x")])
    assert h.terms == (dynamics.OperatorString(0.5, "x"),)
    assert h.matrix.tobytes() == dynamics.OperatorString(0.5, "x").dense().tobytes()


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_hamiltonian_rejects_a_non_finite_coefficient(coeff):
    with pytest.raises(ValueError, match="coefficient must be finite"):
        dynamics.build_hamiltonian([(coeff, "z")])
    with pytest.raises(ValueError, match="coefficient must be finite"):
        dynamics.HamiltonianSpec(2, (dynamics.OperatorString(1.0, "zz"),
                                     dynamics.OperatorString(coeff, "1z")))


def test_evolution_reuses_the_kept_matrix(monkeypatch):
    h = dynamics.measurement_hamiltonian()
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))

    def no_rebuild(self):
        raise AssertionError("operator string rebuilt after the spec was made")

    monkeypatch.setattr(dynamics.OperatorString, "dense", no_rebuild)
    dynamics.propagator(h, 0.7)
    dynamics.reduced_evolution(h, [0.0, 0.7], rho0, [0])
    dynamics.kraus_extract(h, 0.7)


def test_schwinger_evolve_from_a_given_initial_state():
    p = lattice.SchwingerParams(x=0.5, mu=0.1)
    ts = [0.0, 0.4, 1.7, 6.0]
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5])  # normalized, not the default |s1>
    series = lattice.schwinger_evolve(p, ts, initial=psi0)
    h4 = lattice.schwinger_h4(p)
    for t, probs in zip(ts, series.probabilities):
        want = np.abs(_expm_oracle(-1j * h4 * t) @ psi0) ** 2
        assert np.max(np.abs(probs - want)) <= 1e-12
    with pytest.raises(ValueError, match="state not normalized"):
        lattice.schwinger_evolve(p, ts, initial=[1, 1, 0, 0])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        lattice.schwinger_evolve(p, ts, initial=[math.nan, 0, 0, 0])


def test_swap_demo_correlation_of_varying_registers():
    # at t = 0.5 both registers vary, so the correlation is the sample
    # Pearson coefficient, not the constant-register 0.0
    rec, corr = dynamics.swap_measurement_demo(0.5, 200, 11)
    q0, q1 = (np.array([int(b) for b in rec.registers[k]], dtype=float)
              for k in ("q0", "q1"))
    assert 0.0 < q0.mean() < 1.0 and 0.0 < q1.mean() < 1.0
    d0, d1 = q0 - q0.mean(), q1 - q1.mean()
    want = float(d0 @ d1 / math.sqrt((d0 @ d0) * (d1 @ d1)))
    assert want != 0.0
    assert corr == pytest.approx(want, rel=1e-12, abs=0.0)
