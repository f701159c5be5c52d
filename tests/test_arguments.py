"""Scalar arguments and time grids go through qstate's four argument rules.

Each bad value must be a ValueError whose message starts with the
argument's name.  Integer arguments refuse NaN, inf, True and 2.5;
finite ones NaN and both infinities; positive ones NaN and -inf (inf is
the zero-temperature limit of beta_omega, so it passes); time grids
refuse a NaN or infinite time.
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


# (case, argument name, call) one past each size limit; each must be
# refused before anything of that size is allocated
_LIMITS = [
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
