"""Scalar arguments and time grids go through qstate's four argument rules.

Each bad value must be a ValueError whose message starts with the
argument's name.  Integer arguments refuse NaN, inf, True and 2.5;
finite ones NaN and both infinities; positive ones NaN and -inf (inf is
the zero-temperature limit of beta_omega, so it passes); time grids
refuse a NaN or infinite time.  The rejection table holds every other
rejection in src/, each with its whole message.  Every real argument,
the interval-checked ones included, also refuses True and "0.5", and
every positive one 0.0.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qilab import bell, cli, density, dynamics, info, lattice, qstate
from qilab import oscillators as osc

NON_INTEGERS = [math.nan, math.inf, True, 2.5]
NON_FINITE = [math.nan, math.inf, -math.inf]
NON_POSITIVE = [math.nan, -math.inf]
BAD_GRIDS = [[0.0, math.nan], [math.inf], [-math.inf, 0.0]]

_FLIP = qstate.flip_circuit()
_SETTINGS = bell.ChshSettings(0.1, 0.2, 0.3)
_PARAMS = lattice.SchwingerParams(0.5, 0.1)
_RABI = dynamics.rabi_hamiltonian()
_RHO = density.DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))

# (case, argument name as the message gives it, bad values, call)
_ARGUMENTS = [
    ("Circuit", "n_qubits", NON_INTEGERS, lambda v: qstate.Circuit(v)),
    ("run_circuit-shots", "shots", NON_INTEGERS, lambda v: qstate.run_circuit(_FLIP, v, 1)),
    ("run_circuit-seed", "seed", NON_INTEGERS, lambda v: qstate.run_circuit(_FLIP, 2, v)),
    ("teleport-seed", "seed", NON_INTEGERS, lambda v: qstate.teleport((0.3, 0.4), False, v)),
    ("sampled_chsh-shots", "shots", NON_INTEGERS, lambda v: bell.sampled_chsh(_SETTINGS, v, 1)),
    ("sampled_chsh-seed", "seed", NON_INTEGERS, lambda v: bell.sampled_chsh(_SETTINGS, 4, v)),
    ("biased_coin_curve", "points", NON_INTEGERS, lambda v: info.biased_coin_curve(v)),
    ("digitize", "n_q", NON_INTEGERS, lambda v: lattice.digitize(v)),
    ("nyquist_L", "N_phi", NON_INTEGERS, lambda v: lattice.nyquist_L(v)),
    ("hermite_eigenfunction", "level", NON_INTEGERS,
     lambda v: lattice.hermite_eigenfunction(v, 0.3)),
    ("sampling_fidelity-n_q", "n_q", NON_INTEGERS, lambda v: lattice.sampling_fidelity(v, 3)),
    ("sampling_fidelity-n_levels", "n_levels", NON_INTEGERS,
     lambda v: lattice.sampling_fidelity(3, v)),
    ("radial_K-l", "l", NON_INTEGERS, lambda v: osc.radial_K(v, 10)),
    ("radial_K-N", "N", NON_INTEGERS, lambda v: osc.radial_K(3, v)),
    ("area_law_scan-N", "N", NON_INTEGERS, lambda v: osc.area_law_scan(v, 20)),
    ("area_law_scan-l_max", "l_max", NON_INTEGERS, lambda v: osc.area_law_scan(12, v)),
    ("standard_gate", "gate XPow parameter", NON_FINITE,
     lambda v: qstate.standard_gate("XPow", v)),
    ("ChshSettings-alpha", "alpha", NON_FINITE, lambda v: bell.ChshSettings(v, 0.2, 0.3)),
    ("ChshSettings-beta", "beta", NON_FINITE, lambda v: bell.ChshSettings(0.1, v, 0.3)),
    ("ChshSettings-beta_prime", "beta_prime", NON_FINITE,
     lambda v: bell.ChshSettings(0.1, 0.2, v)),
    ("SchwingerParams-x", "x", NON_FINITE, lambda v: lattice.SchwingerParams(v, 0.1)),
    ("SchwingerParams-mu", "mu", NON_FINITE, lambda v: lattice.SchwingerParams(0.5, v)),
    ("propagator", "time", NON_FINITE, lambda v: dynamics.propagator(_RABI, v)),
    ("HamiltonianSpec", "coefficient", NON_FINITE,
     lambda v: dynamics.build_hamiltonian([(v, "zz")])),
    ("time_grid", "t_max", NON_FINITE, lambda v: cli._time_grid(v)),
    ("thermal_entropy", "beta_omega", NON_POSITIVE, lambda v: osc.thermal_entropy(v)),
    ("partition_function", "beta_omega", NON_POSITIVE, lambda v: osc.partition_function(v)),
    ("tfd_pair", "omega", NON_POSITIVE, lambda v: osc.tfd_pair(0.5, omega=v)),
    ("tfd_coupling", "omega", NON_POSITIVE, lambda v: osc.tfd_coupling(0.5, omega=v)),
    ("reduced_evolution", "t_grid", BAD_GRIDS,
     lambda v: dynamics.reduced_evolution(_RABI, v, _RHO, [0])),
    ("schwinger_evolve", "t_grid", BAD_GRIDS, lambda v: lattice.schwinger_evolve(_PARAMS, v)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{case}-{value!r}")
    for case, name, values, call in _ARGUMENTS for value in values])
def test_bad_arguments_are_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call(value)


# (case, argument name as the message gives it, call) for array arguments
# whose shape no qubit count or coupling matrix fits
_SHAPES = [
    ("DensityMatrix-0x0", "matrix", lambda: density.DensityMatrix(np.zeros((0, 0)))),
    ("from_dense-0x0", "matrix", lambda: dynamics.from_dense(np.zeros((0, 0)))),
    ("from_dense-1x1", "matrix", lambda: dynamics.from_dense(np.ones((1, 1)))),
    ("CouplingMatrix-0x0", "K", lambda: osc.CouplingMatrix(np.zeros((0, 0)))),
    ("StateVector-True", "n_qubits", lambda: qstate.StateVector(True, [1, 0])),
    ("StateVector-2.5", "n_qubits", lambda: qstate.StateVector(2.5, [1, 0])),
    ("DensityMatrix-2x3", "matrix", lambda: density.DensityMatrix(np.ones((2, 3)) / 2)),
    ("from_dense-2x3", "matrix", lambda: dynamics.from_dense(np.ones((2, 3)))),
    ("DensityMatrix-scalar", "matrix", lambda: density.DensityMatrix(1.0)),
    ("computational-2", "bit", lambda: qstate.StateVector.computational([0, 2])),
    ("computational--1", "bit", lambda: qstate.StateVector.computational([1, -1])),
    ("computational-0.5", "bit", lambda: qstate.StateVector.computational([0.5])),
    ("computational-True", "bit", lambda: qstate.StateVector.computational([True])),
    ("computational-empty", "n_qubits", lambda: qstate.StateVector.computational([])),
    ("zeros-2.5", "n_qubits", lambda: qstate.StateVector.zeros(2.5)),
]


@pytest.mark.parametrize("name, call", [
    pytest.param(name, call, id=case) for case, name, call in _SHAPES])
def test_bad_shapes_are_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


# one qubit past from_dense's limit, allocated here, outside the traced
# call: real, so a conversion to complex before the check would copy it
_DENSE_PAST_LIMIT = np.eye(2 ** (dynamics._MAX_DENSE_QUBITS + 1))

# (case, argument name, call) one past each size limit; each must be
# refused before anything of that size is allocated
_LIMITS = [
    ("from_dense", "n_qubits", lambda: dynamics.from_dense(_DENSE_PAST_LIMIT)),
    ("zeros", "n_qubits", lambda: qstate.StateVector.zeros(qstate._MAX_QUBITS + 1)),
    ("computational", "n_qubits",
     lambda: qstate.StateVector.computational([0] * (qstate._MAX_QUBITS + 1))),
    ("run_circuit", "shots", lambda: qstate.run_circuit(_FLIP, qstate._MAX_SHOTS + 1, 1)),
    ("sampled_chsh", "shots", lambda: bell.sampled_chsh(_SETTINGS, qstate._MAX_SHOTS + 1, 1)),
]


@pytest.mark.parametrize("name, call", [
    pytest.param(name, call, id=case) for case, name, call in _LIMITS])
def test_size_limits_are_checked_before_allocating(name, call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in 1\.\.\d+, got"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_MIXED = density.DensityMatrix(np.eye(4, dtype=complex) / 4)
_COIN = info.Distribution([0.5, 0.5])
_NOISE = info.BitFlipNoise(0.9)

# (case, the whole message, call) for the rejections that no table above
# reaches: each is a ValueError raised at the boundary it names
_REJECTIONS = [
    ("optimal_settings-alpha", "alpha must lie in [0, pi/2], got 2.0",
     lambda: bell.optimal_settings(2.0)),
    ("pure_state-condition", "cannot strip measurements feeding a condition",
     lambda: cli._pure_state(qstate.teleport_circuit(0.1, 0.2, False))),
    ("mutual_information-whole", "partition must be a nonempty proper subset",
     lambda: density.mutual_information(_MIXED, [0, 1])),
    ("bloch_ball_analysis-2-qubit", "bloch_ball_analysis takes a single-qubit state",
     lambda: density.bloch_ball_analysis(_MIXED)),
    ("OperatorString-empty", "factors must be nonempty",
     lambda: dynamics.OperatorString(1.0, ())),
    ("build_hamiltonian-empty", "a Hamiltonian needs at least one term",
     lambda: dynamics.build_hamiltonian([])),
    ("Distribution-empty", "probabilities must be a nonempty 1-d array",
     lambda: info.Distribution([])),
    ("Distribution-2-d", "probabilities must be a nonempty 1-d array",
     lambda: info.Distribution([[1.0]])),
    ("readout_distribution-1-outcome", "expected a binary distribution over {0, 1}",
     lambda: info.readout_distribution(info.Distribution([1.0]), _NOISE)),
    ("bayes_posterior-y", "y must be 0 or 1, got 2",
     lambda: info.bayes_posterior(_COIN, _NOISE, y=2)),
    ("cholesky-indefinite", "X sub-block lost positive-definiteness",
     lambda: osc._cholesky(np.array([[-1.0]]))),
    ("fit_area_coefficient-empty", "no samples inside the fit range",
     lambda: osc.fit_area_coefficient([(1.0, 0.1)], 0.5)),
    ("fit_area_coefficient-degenerate", "degenerate fit range",
     lambda: osc.fit_area_coefficient([(0.0, 0.0)], 1.0)),
    ("Gate-3x3", "gate matrix must be 2x2 or 4x4, got (3, 3)",
     lambda: qstate.Gate("G", (), np.eye(3))),
    ("standard_gate-X-param", "gate X takes no parameters",
     lambda: qstate.standard_gate("X", 0.5)),
    ("standard_gate-unknown", "unknown gate 'T'", lambda: qstate.standard_gate("T")),
    ("standard_gate-XPow-bare", "gate XPow takes exactly one parameter",
     lambda: qstate.standard_gate("XPow")),
    ("apply_gate-arity", "gate CNOT wants 2 targets, got 1",
     lambda: qstate.apply_gate(qstate.StateVector.zeros(2), qstate.standard_gate("CNOT"), [0])),
    ("add_measure-repeated-key", "register 'm' already used",
     lambda: qstate.Circuit(2).add_measure([0], "m").add_measure([1], "m")),
    ("from_ops-unknown-op", "unrecognized op {'reset': [0]}",
     lambda: qstate.Circuit.from_ops(1, [{"reset": [0]}])),
    ("render_circuit-wire-names", "need one wire name per qubit",
     lambda: qstate.render_circuit(_FLIP, ["a", "b"])),
]


@pytest.mark.parametrize("message, call", [
    pytest.param(message, call, id=case) for case, message, call in _REJECTIONS])
def test_bad_inputs_are_rejected_with_their_message(message, call):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


# (case, argument name, call) for each real argument: the finite and
# positive rows of _ARGUMENTS, a gate parameter read from JSON, and the
# six interval guards, whose message names the interval
_REALS = [(case, name, call) for case, name, values, call in _ARGUMENTS
          if values is NON_FINITE or values is NON_POSITIVE] + [
    ("standard_gate-RPhi", "gate RPhi parameter", lambda v: qstate.standard_gate("RPhi", v)),
    ("from_ops", "gate XPow parameter",
     lambda v: qstate.Circuit.from_ops(1, [{"gate": "XPow", "targets": [0], "params": [v]}])),
    ("entangled_state", "alpha", lambda v: bell.entangled_state(v)),
    ("optimal_settings", "alpha", lambda v: bell.optimal_settings(v)),
    ("tfd_pair-theta", "theta", lambda v: osc.tfd_pair(v)),
    ("tfd_coupling-theta", "theta", lambda v: osc.tfd_coupling(v)),
    ("swap_measurement_demo", "t", lambda v: dynamics.swap_measurement_demo(v, 2, 1)),
    ("BitFlipNoise", "mu", lambda v: info.BitFlipNoise(v)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{case}-{value!r}")
    for case, name, call in _REALS for value in (True, "0.5")] + [
    pytest.param(name, call, 0.0, id=f"{case}-0.0")
    for case, name, values, call in _ARGUMENTS if values is NON_POSITIVE] + [
    pytest.param("t_max", cli._time_grid, 0.0, id="time_grid-0.0")])
def test_a_bool_or_a_string_is_not_a_real_number(name, call, value):
    # True would pass as 1.0 and "0.5" as 0.5 if read through float();
    # 0.0 is the edge of the positive rule
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(value)


@pytest.mark.parametrize("name, call", [
    pytest.param(name, call, id=case) for case, name, call in _REALS if name != "coefficient"])
def test_a_complex_number_is_not_a_real_number(name, call):
    # only a Hamiltonian coefficient may be complex: 1j as a time would
    # make exp(-iHt) non-unitary
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(1j)


@pytest.mark.parametrize("message, call", [
    ("alpha must lie in [0, pi/2], got '0.5'", lambda: bell.entangled_state("0.5")),
    ("alpha must lie in [0, pi/2], got '0.5'", lambda: bell.optimal_settings("0.5")),
    ("theta must lie strictly inside (0, pi/2), got '0.5'", lambda: osc.tfd_pair("0.5")),
    ("theta must lie strictly inside (0, pi/2), got '0.5'", lambda: osc.tfd_coupling("0.5")),
    ("t must lie in [0, 2], got '0.5'", lambda: dynamics.swap_measurement_demo("0.5", 2, 1)),
    ("mu must lie in [1/2, 1], got '0.7'", lambda: info.BitFlipNoise("0.7")),
], ids=["entangled_state", "optimal_settings", "tfd_pair", "tfd_coupling",
        "swap_measurement_demo", "BitFlipNoise"])
def test_an_interval_message_quotes_a_string(message, call):
    # unquoted, "0.7" would read as a value inside the interval
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message
