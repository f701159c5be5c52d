"""Public API: the package exports exactly the union of its modules' __all__."""

import importlib
import os
import subprocess
import sys

import pytest

import qilab

# Every name the package exported before each module's __all__ became the
# one list, by defining module; each must stay the module's own object.
_FROZEN = {
    "bell": [
        "ChshResult", "ChshSettings", "SampledChshResult", "chsh_expectations",
        "classical_bound_check", "entangled_state", "fixed_settings",
        "optimal_settings", "sampled_chsh",
    ],
    "density": [
        "DensityMatrix", "EntropyReport", "bloch_ball_analysis", "entropy_bits",
        "from_statevector", "mutual_information", "partial_trace", "purity",
        "von_neumann_entropy",
    ],
    "dynamics": [
        "HamiltonianSpec", "KrausSet", "OperatorString", "ReducedSample",
        "build_hamiltonian", "decoherence_hamiltonian", "evolve", "from_dense",
        "kraus_extract", "measurement_hamiltonian", "propagator",
        "rabi_hamiltonian", "reduced_evolution", "swap_measurement_demo",
    ],
    "info": [
        "BitFlipNoise", "Distribution", "bayes_posterior", "biased_coin_curve",
        "readout_distribution", "shannon_entropy",
    ],
    "lattice": [
        "DigitizedField", "FidelityReport", "GroundState", "PauliDecomposition",
        "SchwingerParams", "digitize", "gauss_report", "hermite_eigenfunction",
        "nyquist_L", "sampling_fidelity", "sampling_grid", "schwinger_evolve",
        "schwinger_ground_state", "schwinger_h4", "schwinger_project",
    ],
    "oscillators": [
        "CouplingMatrix", "EntropyCurve", "TfdPair", "area_law_scan",
        "correlators", "fit_area_coefficient", "partition_function", "radial_K",
        "subsystem_entropy", "tfd_coupling", "tfd_pair", "thermal_entropy",
    ],
    "qstate": [
        "BlochVector", "Circuit", "ExperimentRecord", "Gate", "SimulationFault",
        "StateVector", "TeleportResult", "apply_gate", "bell_basis_rotation",
        "bell_pair_circuit", "bloch_vector", "execute", "exchange_circuit",
        "flip_circuit", "measure", "render_circuit", "run_circuit",
        "standard_gate", "teleport", "teleport_circuit",
    ],
}
# listed in their module's __all__ but once missing from the package's
_ADDED = {"violation_curve", "dense", "EvolutionSeries", "CorrelatorPair"}
_MODULES = sorted(_FROZEN)


def test_frozen_api_has_85_names():
    names = [n for names in _FROZEN.values() for n in names]
    assert len(names) == len(set(names)) == 85


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from qilab import *", ns)
    ns.pop("__builtins__")
    assert set(ns) == set(qilab.__all__)
    assert len(qilab.__all__) == len(set(qilab.__all__))


def test_all_is_frozen_names_plus_drifted_ones():
    frozen = {n for names in _FROZEN.values() for n in names}
    assert set(qilab.__all__) == frozen | _ADDED


@pytest.mark.parametrize("modname", _MODULES)
def test_frozen_names_keep_their_objects(modname):
    module = importlib.import_module(f"qilab.{modname}")
    for name in _FROZEN[modname]:
        assert getattr(qilab, name) is getattr(module, name)


@pytest.mark.parametrize("modname", _MODULES)
def test_module_all_resolves_and_is_exported(modname):
    module = importlib.import_module(f"qilab.{modname}")
    for name in module.__all__:
        assert getattr(qilab, name) is getattr(module, name)
    assert set(module.__all__) <= set(qilab.__all__)


def test_import_qilab_loads_no_thread_pool_or_queue():
    # area_law_scan imports concurrent.futures inside the call, so that
    # importing the package, which every CLI run and benchmark set-up
    # pays, does not load it (nor queue, which it pulls in)
    src = os.path.dirname(os.path.dirname(qilab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, qilab; "
            "print(sorted({'concurrent.futures', 'queue'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert out.stdout == "[]\n"
