"""Circuit engine tests: gate algebra, measurement, catalog circuits."""

import math
import tracemalloc

import numpy as np
import pytest

from qilab import density, qstate


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_unitary(gate, targets, n):
    """Oracle: embed a gate into the full 2^n space with explicit krons."""
    eye = np.eye(2, dtype=complex)
    if gate.arity == 1:
        mats = [eye] * n
        mats[targets[0]] = gate.matrix
        out = np.array([[1.0 + 0j]])
        for m in mats:
            out = np.kron(out, m)
        return out
    # two-qubit gate: permute (control, target) to the front, apply, undo
    dim = 2**n
    perm = list(targets) + [q for q in range(n) if q not in targets]
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub = (bits[targets[0]] << 1) | bits[targets[1]]
        amp = gate.matrix[:, sub]
        for srow, a in enumerate(amp):
            newbits = list(bits)
            newbits[targets[0]] = (srow >> 1) & 1
            newbits[targets[1]] = srow & 1
            row = 0
            for b in newbits:
                row = (row << 1) | b
            u[row, col] += a
    del perm
    return u


def test_standard_gate_algebra():
    eye = np.eye(2)
    for name in ("X", "Y", "Z", "H"):
        g = qstate.standard_gate(name)
        assert np.allclose(g.matrix @ g.matrix, eye, atol=1e-12)
    cnot = qstate.standard_gate("CNOT")
    assert np.allclose(cnot.matrix @ cnot.matrix, np.eye(4), atol=1e-12)


def test_hzh_equals_x():
    h = qstate.standard_gate("H").matrix
    x = qstate.standard_gate("X").matrix
    z = qstate.standard_gate("Z").matrix
    assert np.allclose(h @ z @ h, x, atol=1e-12)


def test_phase_gate_diagonal():
    g = qstate.standard_gate("RPhi", 0.7)
    assert np.allclose(g.matrix, np.diag([1.0, np.exp(0.7j)]), atol=1e-12)


def test_xpow_matches_exponential_oracle():
    # independent route: diagonalize X and exponentiate the spectrum
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = np.linalg.eigh(x)
    for t in (0.0, 0.25, 0.5, 1.0, 1.7, -0.3):
        expected = (v * np.exp(1j * math.pi * t / 2 * w)) @ v.conj().T
        got = qstate.standard_gate("XPow", t).matrix
        assert np.allclose(got, expected, atol=1e-12)


def test_ypow_matches_exponential_oracle():
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    w, v = np.linalg.eigh(y)
    for t in (0.1, 0.456, 0.9):
        expected = (v * np.exp(1j * math.pi * t / 2 * w)) @ v.conj().T
        got = qstate.standard_gate("YPow", t).matrix
        assert np.allclose(got, expected, atol=1e-12)


def test_gate_rejects_nonunitary():
    with pytest.raises(ValueError):
        qstate.Gate("bad", (), np.array([[1, 0], [0, 2]], dtype=complex))


def test_swap_is_three_cnots():
    cnot = qstate.standard_gate("CNOT").matrix
    flipped = _dense_unitary(qstate.standard_gate("CNOT"), (1, 0), 2)
    swap = qstate.standard_gate("SWAP").matrix
    assert np.allclose(cnot @ flipped @ cnot, swap, atol=1e-12)


def test_apply_gate_matches_dense_oracle():
    rng = _rng(11)
    for n in (1, 2, 3, 4):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = qstate.StateVector(n, amps)
        for name in ("X", "H", "RPhi"):
            params = (0.3,) if name == "RPhi" else ()
            g = qstate.standard_gate(name, *params)
            q = int(rng.integers(0, n))
            got = qstate.apply_gate(state, g, [q]).amplitudes
            want = _dense_unitary(g, (q,), n) @ amps
            assert np.allclose(got, want, atol=1e-12)
        if n >= 2:
            for name in ("CNOT", "CZ", "SWAP", "CY"):
                g = qstate.standard_gate(name)
                a, b = rng.permutation(n)[:2]
                got = qstate.apply_gate(state, g, [int(a), int(b)]).amplitudes
                want = _dense_unitary(g, (int(a), int(b)), n) @ amps
                assert np.allclose(got, want, atol=1e-12)


def test_qubit_zero_is_most_significant():
    state = qstate.StateVector.zeros(2)
    state = qstate.apply_gate(state, qstate.standard_gate("X"), [0])
    # |10> in the register maps to basis index 2
    assert np.allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_computational_state():
    st = qstate.StateVector.computational([1, 0, 1])
    idx = int(np.argmax(np.abs(st.amplitudes)))
    assert idx == 0b101
    assert st.probabilities()[idx] == pytest.approx(1.0, abs=1e-15)


def test_measure_deterministic_states():
    rng = _rng(3)
    st = qstate.StateVector.computational([1])
    for _ in range(20):
        bits, post = qstate.measure(st, [0], rng)
        assert bits == (1,)
        assert np.allclose(post.amplitudes, st.amplitudes, atol=1e-15)


def test_measure_collapse_consistency():
    rng = _rng(5)
    st = qstate.StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    for _ in range(50):
        bits, post = qstate.measure(st, [0], rng)
        # the two bell branches collapse onto matching computational states
        want = qstate.StateVector.computational([bits[0], bits[0]])
        assert abs(post.overlap(want)) == pytest.approx(1.0, abs=1e-12)


def test_measure_frequency_sanity():
    rng = _rng(7)
    st = qstate.apply_gate(
        qstate.StateVector.zeros(1), qstate.standard_gate("H"), [0])
    n = 4000
    ones = sum(qstate.measure(st, [0], rng)[0][0] for _ in range(n))
    # 5 sigma around p = 1/2
    assert abs(ones / n - 0.5) < 5 * 0.5 / math.sqrt(n)


def test_measure_order_matches_request():
    rng = _rng(9)
    st = qstate.StateVector.computational([1, 0])
    assert qstate.measure(st, [0, 1], rng)[0] == (1, 0)
    assert qstate.measure(st, [1, 0], rng)[0] == (0, 1)


def test_measure_zero_branch_faults():
    class OneRng:
        def random(self):
            return 1.0

    st = qstate.StateVector.computational([0])
    with pytest.raises(qstate.SimulationFault):
        qstate.measure(st, [0], OneRng())


def test_measure_branch_at_the_floor_is_drawn(monkeypatch):
    # a drawn branch faults below _MIN_BRANCH_PROB, not at it: every branch
    # of |++> has probability 0.25 exactly, and u = 1 draws the last one
    class OneRng:
        def random(self):
            return 1.0

    st = qstate.StateVector(2, np.full(4, 0.5))
    monkeypatch.setattr(qstate, "_MIN_BRANCH_PROB", 0.25)
    assert qstate.measure(st, [0, 1], OneRng())[0] == (1, 1)
    monkeypatch.setattr(qstate, "_MIN_BRANCH_PROB", math.nextafter(0.25, 1.0))
    with pytest.raises(qstate.SimulationFault, match="probability 0.25"):
        qstate.measure(st, [0, 1], OneRng())


class _OnesRng:
    """Generator stub whose uniforms are all 1.0, the top of the last branch."""

    def random(self, size=None):
        return np.ones(size)


def test_run_circuit_zero_branch_faults(monkeypatch):
    # measuring |0> with u = 1 draws the last branch, |1>, of probability 0
    # (flip_circuit cannot fault: its drawn branch always has probability 1)
    monkeypatch.setattr(qstate, "_rng", lambda seed: _OnesRng())
    circuit = qstate.Circuit(1).add_measure([0], "m")
    with pytest.raises(qstate.SimulationFault, match="collapse onto branch with probability 0.0"):
        qstate.run_circuit(circuit, 5, 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", [
    qstate.flip_circuit,
    qstate.bell_pair_circuit,
    lambda: qstate.exchange_circuit(0.5),
    lambda: qstate.teleport_circuit(0.103, 0.456, deferred=False),
])
def test_execute_is_shot_zero_of_run_circuit(make, seed):
    circuit = make()
    _, registers = qstate.execute(circuit, qstate._rng(seed))
    record = qstate.run_circuit(circuit, 1, seed)
    assert registers == {k: v[0] for k, v in record.registers.items()}


def _per_shot_reference(circuit, shots, seed):
    """Registers and final states of the shot-by-shot loop: measure and
    apply_gate, one shot at a time.  Returns (registers, final states)."""
    rng = _rng(seed)
    out = {k: [] for k in circuit.register_widths()}
    finals = []
    for _ in range(shots):
        state = qstate.StateVector.zeros(circuit.n_qubits)
        regs = {}
        for step in circuit.steps:
            if isinstance(step, qstate.MeasureStep):
                bits, state = qstate.measure(state, step.qubits, rng)
                regs[step.key] = "".join(str(b) for b in bits)
            elif step.condition is None or int(regs[step.condition[0]], 2) == step.condition[1]:
                state = qstate.apply_gate(state, step.gate, step.targets)
        for k in out:
            out[k].append(regs[k])
        finals.append(state)
    return out, finals


def _mixed_circuit():
    """Multi-qubit registers read out of qubit order, conditions on 2-bit values."""
    c = qstate.Circuit(3)
    c.add_gate("H", [0]).add_gate("XPow", [1], (0.3,)).add_gate("CNOT", [0, 2])
    c.add_gate("YPow", [2], (0.4,))
    c.add_measure([2, 0], "a")
    c.add_gate("YPow", [1], (0.7,), condition=("a", 2))
    c.add_gate("H", [2], condition=("a", 3))
    c.add_measure([1], "b")
    c.add_gate("X", [0], condition=("b", 1)).add_gate("H", [0])
    return c.add_measure([0, 1, 2], "c")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", [
    _mixed_circuit,
    lambda: qstate.teleport_circuit(0.3, 1.1, deferred=False),
])
def test_run_circuit_matches_per_shot_loop(make, seed):
    circuit = make()
    assert qstate.run_circuit(circuit, 300, seed).registers == \
        _per_shot_reference(circuit, 300, seed)[0]


def _ghz_chain(n):
    """H on qubit 0, a CNOT chain, each qubit measured into its own register."""
    c = qstate.Circuit(n).add_gate("H", [0])
    for q in range(n - 1):
        c.add_gate("CNOT", [q, q + 1])
    for q in range(n):
        c.add_measure([q], f"q{q}")
    return c


def _layout_circuit():
    """CNOT(3, 0) leaves its einsum result in a permuted memory layout; summing
    the marginal of qubit 3 over that layout, not over C order, moves the last
    bits of the collapsed state (found by comparing random circuits)."""
    c = qstate.Circuit(5).add_gate("YPow", [1], (0.145,)).add_gate("H", [3])
    c.add_gate("CNOT", [3, 0]).add_gate("H", [0])
    return c.add_measure([3], "m")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", [
    qstate.flip_circuit,
    qstate.bell_pair_circuit,
    lambda: qstate.exchange_circuit(0.5),
    lambda: qstate.teleport_circuit(0.103, 0.456, deferred=False),
    lambda: qstate.teleport_circuit(0.103, 0.456, deferred=True),
    _mixed_circuit,
    lambda: _ghz_chain(10),
    _layout_circuit,
], ids=["flip", "bell_pair", "exchange", "teleport", "teleport_deferred", "mixed", "ghz10",
        "layout"])
def test_execute_final_state_matches_per_shot_loop(make, seed):
    # bit for bit, not within a tolerance: the engine and the public
    # measure/apply_gate route do the same float operations
    circuit = make()
    state, registers = qstate.execute(circuit, _rng(seed))
    regs, finals = _per_shot_reference(circuit, 1, seed)
    assert registers == {k: v[0] for k, v in regs.items()}
    assert np.array_equal(state.amplitudes, finals[0].amplitudes)


def test_run_circuit_wide_register_keeps_few_states():
    # one MeasureStep on 10 qubits of |+...+> draws ~400 distinct branches
    # in 500 shots; collapsing them all before walking on would hold ~400
    # states of 16 KiB (6 MiB) at once
    c = qstate.Circuit(10)
    for q in range(10):
        c.add_gate("H", [q])
    c.add_measure(list(range(10)), "m")
    c.add_gate("X", [0], condition=("m", 5)).add_measure([0], "b")
    qstate.run_circuit(c, 5, 7)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        record = qstate.run_circuit(c, 500, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert record.registers == _per_shot_reference(c, 500, 7)[0]


def test_run_circuit_without_measurement_draws_nothing(monkeypatch):
    real_rng = qstate._rng
    made = []

    def spy(seed):
        made.append(real_rng(seed))
        return made[-1]

    monkeypatch.setattr(qstate, "_rng", spy)
    circuit = qstate.Circuit(2).add_gate("H", [0]).add_gate("CNOT", [0, 1])
    record = qstate.run_circuit(circuit, 7, 4)
    assert record.registers == {}
    assert made[0].bit_generator.state == _rng(4).bit_generator.state


@pytest.mark.parametrize("shots", [2.5, True, "3"])
def test_run_circuit_rejects_non_integral_shots(shots):
    with pytest.raises(ValueError, match="shots"):
        qstate.run_circuit(qstate.flip_circuit(), shots, 1)


def test_bloch_vector_basics():
    st = qstate.StateVector.computational([1])
    assert qstate.bloch_vector(st, 0).z == pytest.approx(-1.0, abs=1e-12)
    plus = qstate.apply_gate(
        qstate.StateVector.zeros(1), qstate.standard_gate("H"), [0])
    v = qstate.bloch_vector(plus, 0)
    assert v.x == pytest.approx(1.0, abs=1e-12)
    assert v.r == pytest.approx(1.0, abs=1e-12)


def test_bloch_vector_of_entangled_qubit_is_zero():
    st = qstate.StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    for q in (0, 1):
        assert qstate.bloch_vector(st, q).r == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("qubit", [-1, 2, True, 0.7], ids=["negative", "n", "True", "0.7"])
@pytest.mark.parametrize("as_matrix", [False, True], ids=["statevector", "density"])
def test_bloch_vector_checks_its_qubit(as_matrix, qubit):
    state = qstate.StateVector.computational([0, 1])
    if as_matrix:
        state = np.outer(state.amplitudes, state.amplitudes.conj())
    with pytest.raises(ValueError, match="qubit"):
        qstate.bloch_vector(state, qubit)


@pytest.mark.parametrize("matrix", [
    np.eye(3) / 3,
    np.array([[1.0, 1.0], [0.0, 0.0]]),
    np.eye(2),
], ids=["3x3", "non-Hermitian", "trace 2"])
def test_bloch_vector_validates_raw_matrices(matrix):
    # a raw array is checked as a density matrix, with DensityMatrix's message
    with pytest.raises(ValueError) as want:
        density.DensityMatrix(matrix)
    with pytest.raises(ValueError) as got:
        qstate.bloch_vector(matrix, 0)
    assert str(got.value) == str(want.value)


def test_circuit_condition_requires_prior_measurement():
    c = qstate.Circuit(2)
    with pytest.raises(ValueError):
        c.add_gate("X", [1], condition=("m", 1))


def test_circuit_roundtrip_ops():
    c = qstate.teleport_circuit(0.103, 0.456, deferred=False)
    again = qstate.Circuit.from_ops(c.n_qubits, c.to_ops())
    assert again.digest() == c.digest()
    assert qstate.render_circuit(again) == qstate.render_circuit(c)


def test_run_circuit_record_roundtrip():
    rec = qstate.run_circuit(qstate.bell_pair_circuit(), 12, 42)
    assert rec.shots == 12 and rec.seed == 42
    streams = rec.registers["Final state"]
    assert len(streams) == 12
    assert all(s[0] == s[1] for s in streams)  # bell pair correlates bits
    js = rec.to_json()
    assert "Final state" in js


def test_flip_circuit_always_one():
    for seed in (0, 1, 2, 99):
        rec = qstate.run_circuit(qstate.flip_circuit(), 10, seed)
        assert rec.qubit_stream("Final state", 0) == "1" * 10


def test_exchange_circuit_endpoints():
    # t=0: q0 register stays 0; t=1: the prepared |+> fully swaps onto q0
    rec0 = qstate.run_circuit(qstate.exchange_circuit(0.0), 40, 3)
    assert rec0.qubit_stream("q0", 0) == "0" * 40
    rec1 = qstate.run_circuit(qstate.exchange_circuit(1.0), 40, 3)
    assert rec1.qubit_stream("q0", 0) == "1" * 40


def test_teleport_bob_matches_message():
    rng = _rng(21)
    for k in range(25):
        a, b = rng.uniform(0, 2, size=2)
        for deferred in (False, True):
            res = qstate.teleport((float(a), float(b)), deferred, seed=int(k))
            assert np.allclose(res.bob, res.message_initial, atol=1e-9)
            if not deferred:
                assert abs(res.message_final.z) == pytest.approx(1.0, abs=1e-9)


def test_teleport_reference_point():
    # published component magnitudes for the (0.103, 0.456) preparation;
    # the rotation sense differs, so compare absolute values
    res = qstate.teleport((0.103, 0.456), deferred=False, seed=1)
    got = np.abs(np.array(res.bob))
    assert np.allclose(got, [0.9396, 0.3169, 0.1295], atol=2e-3)
    assert np.array(res.message_initial).dot(np.array(res.message_initial)) == \
        pytest.approx(1.0, abs=1e-9)


def test_render_flip_circuit_golden():
    art = qstate.render_circuit(qstate.flip_circuit())
    assert art == "0: ───X───M('Final state')───"


def test_render_bell_circuit_golden():
    art = qstate.render_circuit(qstate.bell_pair_circuit())
    assert art.splitlines() == [
        "0: ───H───@───M('Final state')───",
        "          │   │",
        "1: ───────X───M──────────────────",
    ]


def test_render_conditioned_cnot_marks_both_wires():
    c = qstate.Circuit(3).add_measure([2], "m").add_gate("CNOT", [0, 1], condition=("m", 1))
    assert qstate.render_circuit(c).splitlines() == [
        "0: ────────────@?m───",
        "               │",
        "1: ────────────X?m───",
        "2: ───M('m')─────────",
    ]


def test_render_wire_names():
    art = qstate.render_circuit(
        qstate.teleport_circuit(0.1, 0.2, deferred=True),
        wire_names=["msg", "qalice", "qbob"])
    lines = art.splitlines()
    assert lines[0].startswith("   msg: ")
    assert lines[2].startswith("qalice: ")
    assert lines[4].startswith("  qbob: ")


def test_bell_basis_rotation_roundtrip():
    # forward builds a bell state from |00>, inverse disentangles it
    forward = qstate.bell_basis_rotation(qstate.StateVector.zeros(2), 0, 1)
    bell = qstate.StateVector(
        2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    assert abs(forward.overlap(bell)) == pytest.approx(1.0, abs=1e-12)
    back = qstate.bell_basis_rotation(bell, 0, 1, inverse=True)
    assert back.probabilities()[0] == pytest.approx(1.0, abs=1e-12)


def test_statevector_validation():
    with pytest.raises(ValueError):
        qstate.StateVector(1, np.array([1.0, 1.0], dtype=complex))  # not normalized
    with pytest.raises(ValueError):
        qstate.StateVector(2, np.array([1.0, 0.0], dtype=complex))  # wrong size


def _apply_gate(qubits):
    gate = qstate.standard_gate("CNOT" if len(qubits) == 2 else "X")
    return qstate.apply_gate(qstate.StateVector.zeros(2), gate, qubits)


def _measure(qubits):
    return qstate.measure(qstate.StateVector.zeros(2), qubits, _rng())


def _add_gate(qubits):
    return qstate.Circuit(2).add_gate("CNOT" if len(qubits) == 2 else "X", qubits)


def _add_measure(qubits):
    return qstate.Circuit(2).add_measure(qubits, "m")


@pytest.mark.parametrize("qubits", [[0, 0], [2], [-1], [0.7], [True], []],
                         ids=["duplicate", "out-of-range", "negative", "0.7", "True", "empty"])
@pytest.mark.parametrize("entry", [_apply_gate, _measure, _add_gate, _add_measure],
                         ids=["apply_gate", "measure", "add_gate", "add_measure"])
def test_qubit_lists_are_checked(entry, qubits):
    with pytest.raises(ValueError, match="qubit"):
        entry(qubits)


def test_circuit_stores_qubits_as_python_ints():
    c = qstate.Circuit(2).add_gate("CNOT", np.array([1, 0])).add_measure(np.arange(2), "m")
    gate, meas = c.steps
    assert gate.targets == (1, 0) and meas.qubits == (0, 1)
    assert all(type(q) is int for q in gate.targets + meas.qubits)


@pytest.mark.parametrize("width,value", [(1, -1), (1, 2), (1, 5), (2, 4), (1, 0.7), (1, True)])
def test_add_gate_rejects_condition_that_cannot_match(width, value):
    c = qstate.Circuit(2).add_measure(list(range(width)), "m")
    with pytest.raises(ValueError, match="condition"):
        c.add_gate("X", [1], condition=("m", value))
    c.add_gate("X", [1], condition=("m", 2**width - 1))  # the largest value is fine


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_statevector_rejects_non_finite_amplitudes(bad):
    # a NaN norm fails every comparison, so the normalisation test alone
    # would let it through
    with pytest.raises(ValueError, match="non-finite amplitude"):
        qstate.StateVector(1, np.array([bad, 0.0], dtype=complex))


@pytest.mark.parametrize("name, param", [("XPow", math.nan), ("XPow", math.inf),
                                         ("YPow", -math.inf), ("ZPow", math.nan),
                                         ("RPhi", math.inf), ("RPhi", math.nan)])
def test_parametric_gate_rejects_a_non_finite_parameter(name, param):
    with pytest.raises(ValueError, match=f"gate {name} parameter must be finite"):
        qstate.standard_gate(name, param)
    circuit = qstate.Circuit(1)
    with pytest.raises(ValueError, match="parameter must be finite"):
        circuit.add_gate(name, [0], [param])
    assert circuit.steps == []


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_gate_rejects_a_non_finite_matrix():
    for bad in (np.array([[np.nan, 0], [0, 1]]), np.diag([1.0, np.inf]),
                np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="'bad' matrix has a non-finite entry"):
            qstate.Gate("bad", (), bad)


def test_fixed_gates_are_built_once_and_shared():
    for name in ("X", "Y", "Z", "H", "CNOT", "CX", "CY", "CZ", "SWAP"):
        g = qstate.standard_gate(name)
        assert qstate.standard_gate(name) is g
        assert g.name == name and g.params == ()
        assert not g.matrix.flags.writeable
    assert qstate.standard_gate("CX").matrix.tobytes() == qstate.standard_gate("CNOT").matrix.tobytes()
    # parametric gates are built per call
    assert qstate.standard_gate("XPow", 0.5) is not qstate.standard_gate("XPow", 0.5)


def test_numpy_integer_seed_gives_the_plain_int_record():
    got = qstate.run_circuit(qstate.flip_circuit(), 2, np.int64(3))
    assert type(got.seed) is int
    assert got.to_json() == qstate.run_circuit(qstate.flip_circuit(), 2, 3).to_json()


def test_state_vector_keeps_its_qubit_count_as_an_int():
    assert type(qstate.StateVector(np.int64(1), [1, 0]).n_qubits) is int


@pytest.mark.parametrize("width", [1, 2])
def test_condition_values_span_exactly_the_register(width):
    c = qstate.Circuit(2).add_measure(list(range(width)), "m")
    c.add_gate("X", [1], condition=("m", 0))  # the smallest value is fine
    with pytest.raises(ValueError, match=rf"^condition value {2**width} can never match "
                                         rf"the {width}-bit register 'm'$"):
        c.add_gate("X", [1], condition=("m", 2**width))


@pytest.mark.parametrize("lo", [0, 1, 2])
def test_check_dim_accepts_exactly_2_to_the_lo(lo):
    assert qstate._check_dim("m", np.eye(2**lo), lo) == lo
    below = np.eye(2 ** (lo - 1)) if lo else np.zeros((0, 0))
    with pytest.raises(ValueError, match=rf"^m must be 2\^n x 2\^n with n >= {lo}, got "):
        qstate._check_dim("m", below, lo)


def test_sample_branches_faults_on_a_nan_drawn_branch():
    # NaN < floor is False, so only a test written `not p >= floor` stops the
    # NaN branch that u = 1 draws here
    amps = np.array([1.0, np.nan], dtype=complex)
    with pytest.raises(qstate.SimulationFault, match="probability nan"):
        qstate._sample_branches(amps, (0,), np.ones(3))
    with pytest.raises(qstate.SimulationFault, match="probability nan"):
        qstate._sample_branches(amps, (0,), 1.0)


def test_sample_branches_faults_on_a_nan_total():
    # a NaN branch before a finite last one makes cum[-1] NaN, so every u
    # draws the last branch, of probability 1, which passes the floor
    amps = np.array([np.nan, 1.0], dtype=complex)
    for u in (0.1, 0.9, np.array([0.1, 0.9])):
        with pytest.raises(qstate.SimulationFault, match="^branch probabilities sum to nan$"):
            qstate._sample_branches(amps, (0,), u)


@pytest.mark.parametrize("condition", [[], 0, "", ["m"], ["m", 1, 2]],
                         ids=["empty-list", "zero", "empty-string", "one-item", "three-items"])
def test_from_ops_rejects_a_condition_that_is_not_a_pair(condition):
    # a falsy condition is malformed too, not a missing one: the gate must
    # not be built unconditioned
    ops = [{"measure": [0], "key": "m"}, {"gate": "X", "targets": [1], "condition": condition}]
    with pytest.raises(ValueError, match=r"^condition must be "):
        qstate.Circuit.from_ops(2, ops)
    with pytest.raises(ValueError, match=r"^condition must be "):
        qstate.Circuit(2).add_measure([0], "m").add_gate("X", [1], condition=condition)


@pytest.mark.parametrize("key", [5, None], ids=["int", "none"])
def test_add_measure_rejects_a_register_key_that_is_not_a_string(key):
    # str(5) and "5" would name one register at run time
    with pytest.raises(ValueError, match=rf"^register key must be a string, got {key!r}$"):
        qstate.Circuit(2).add_measure([0], key)
    with pytest.raises(ValueError, match=rf"^register key must be a string, got {key!r}$"):
        qstate.Circuit.from_ops(2, [{"measure": [0], "key": key}])


@pytest.mark.parametrize("condition, shown", [
    ([["m"], 1], r"\[\['m'\], 1\]"), ("m1", "'m1'"), ((5, 1), r"\(5, 1\)")],
    ids=["list-register", "string", "int-register"])
def test_a_condition_register_must_be_a_string(condition, shown):
    ops = [{"measure": [0], "key": "m"}, {"gate": "X", "targets": [1], "condition": condition}]
    message = rf"^condition must be a \(register, value\) pair, got {shown}$"
    with pytest.raises(ValueError, match=message):
        qstate.Circuit.from_ops(2, ops)
    with pytest.raises(ValueError, match=message):
        qstate.Circuit(2).add_measure([0], "m").add_gate("X", [1], condition=condition)
