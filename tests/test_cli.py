"""CLI tests: file outputs, transcripts, determinism, error reporting."""

import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qilab import cli, density, dynamics, qstate
from qilab import oscillators as osc


def _run(tmp_path, *argv):
    rc = cli.main(list(argv) + ["--out", str(tmp_path)])
    assert rc == 0
    return tmp_path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_experiment1_transcript(tmp_path, capsys):
    _run(tmp_path, "experiment1")
    text = (tmp_path / "experiment1.txt").read_text()
    assert "Final state=1111111111" in text
    assert "z:  -1.0" in text
    assert "0: ───X───M('Final state')───" in text
    assert capsys.readouterr().out == text  # transcript mirrors stdout
    record = json.loads((tmp_path / "experiment1.json").read_text())
    assert record["registers"]["Final state"] == ["1"] * 10


def test_experiment1_all_ones_for_any_seed(tmp_path):
    for seed in (0, 3, 1234):
        _run(tmp_path, "experiment1", "--seed", str(seed))
        text = (tmp_path / "experiment1.txt").read_text()
        assert "Final state=1111111111" in text


def test_experiment2_registers_identical(tmp_path):
    _run(tmp_path, "experiment2", "--shots", "200", "--seed", "9")
    record = json.loads((tmp_path / "experiment2.json").read_text())
    streams = record["registers"]["Final state"]
    assert len(streams) == 200
    assert all(s[0] == s[1] for s in streams)
    text = (tmp_path / "experiment2.txt").read_text()
    first, second = text.split("Final state=")[1].strip().split(", ")
    assert first == second


def test_experiment3_blocks(tmp_path):
    _run(tmp_path, "experiment3")
    text = (tmp_path / "experiment3.txt").read_text()
    for t in ("0", "1", "0.5"):
        assert f"Results for t = {t}:" in text
    assert "X^t" in text
    blocks = json.loads((tmp_path / "experiment3.json").read_text())["runs"]
    assert [b["t"] for b in blocks] == [0.0, 1.0, 0.5]
    # q0 mirrors the preparation exactly at the swap endpoints
    assert set(blocks[0]["registers"]["q0"]) == {"0"}
    assert set(blocks[1]["registers"]["q0"]) == {"1"}


def test_teleport_transcripts(tmp_path):
    for name in ("experiment4", "experiment5"):
        _run(tmp_path, name)
        text = (tmp_path / f"{name}.txt").read_text()
        assert "Bloch Sphere of the Message qubit in the initial state:" in text
        assert "Bloch Sphere of Bob's qubit in the final state:" in text
        assert "msg: ───" in text and "qbob: ───" in text
        # bob's final vector equals the prepared one, line for line
        lines = [ln for ln in text.splitlines() if ln.startswith("x:")]
        assert lines[0] == lines[1]
    # the measured variant pins the message qubit onto a pole
    text4 = (tmp_path / "experiment4.txt").read_text()
    final = [ln for ln in text4.splitlines() if ln.startswith("x:")][2]
    assert final.endswith(("z:  1.0", "z:  -1.0"))


def test_coinflip_table(tmp_path):
    _run(tmp_path, "coinflip")
    header, rows = _read_csv(tmp_path / "coinflip.csv")
    assert header == ["p", "entropy"]
    assert len(rows) == 101
    assert rows[0][1] == 0.0 and rows[-1][1] == 0.0
    assert rows[50][1] == pytest.approx(1.0, abs=1e-12)


def test_rabi_table(tmp_path):
    _run(tmp_path, "rabi")
    header, rows = _read_csv(tmp_path / "rabi.csv")
    assert header[:4] == ["t", "entropy_bits", "purity", "offdiag_abs"]
    assert len(header) == 12 and len(rows) == 400
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert max(r[1] for r in rows) == pytest.approx(1.0, abs=1e-6)
    # off-diagonals stay zero throughout this model
    assert max(r[3] for r in rows) < 1e-12


def test_decohere_table(tmp_path):
    _run(tmp_path, "decohere")
    header, rows = _read_csv(tmp_path / "decohere.csv")
    assert len(rows) == 400
    assert rows[0][3] == pytest.approx(0.5, abs=1e-9)  # |+> coherence
    assert max(r[1] for r in rows) > 0.9


def test_kraus_report(tmp_path):
    _run(tmp_path, "kraus")
    payload = json.loads((tmp_path / "kraus.json").read_text())
    assert payload["completeness_defect"] < 1e-10
    p11 = payload["p11"]["re"]
    assert round(p11[0][0], 2) == 1.0 and round(p11[1][1], 2) == 0.29
    assert payload["entropy_bits"] == pytest.approx(0.3059, abs=1e-4)


def test_chsh_single_alpha(tmp_path):
    _run(tmp_path, "chsh", "--alpha", repr(math.pi / 4))
    header, rows = _read_csv(tmp_path / "chsh.csv")
    assert header == ["alpha", "entropy", "violation"]
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(1.0, abs=1e-9)
    assert rows[0][2] == pytest.approx(2 * math.sqrt(2.0) - 2.0, abs=1e-9)


def test_chsh_curve_default_grid(tmp_path):
    _run(tmp_path, "chsh")
    _, rows = _read_csv(tmp_path / "chsh.csv")
    assert len(rows) == 101
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    assert max(r[2] for r in rows) == pytest.approx(
        2 * math.sqrt(2.0) - 2.0, abs=1e-9)


def test_tfd_single_theta(tmp_path):
    _run(tmp_path, "tfd", "--theta", "0.8")
    header, rows = _read_csv(tmp_path / "tfd.csv")
    assert header == ["theta", "s_exact", "s_approx"]
    assert len(rows) == 1 and rows[0][0] == 0.8


def test_arealaw_outputs(tmp_path):
    _run(tmp_path, "arealaw", "--n", "12", "--lmax", "150")
    header, rows = _read_csv(tmp_path / "arealaw.csv")
    assert header == ["r", "S"]
    assert len(rows) == 13
    sidecar = json.loads((tmp_path / "arealaw.json").read_text())
    assert sidecar["N"] == 12 and sidecar["l_max"] == 150
    assert sidecar["lambda"] == pytest.approx(0.2688, abs=1e-3)
    assert sidecar["fit_range"][1] == pytest.approx(0.975 * 12.5, abs=1e-12)


def test_arealaw_sidecar_reports_truncation(tmp_path):
    _run(tmp_path, "arealaw", "--n", "12", "--lmax", "20")
    sidecar = json.loads((tmp_path / "arealaw.json").read_text())
    curve = osc.area_law_scan(12, 20)
    assert sidecar["l_stop"] == list(curve.l_stop)
    assert sidecar["capped"] == list(curve.capped)
    assert len(sidecar["l_stop"]) == len(sidecar["capped"]) == 13
    header, rows = _read_csv(tmp_path / "arealaw.csv")
    assert header == ["r", "S"] and all(len(row) == 2 for row in rows)


def test_arealaw_sidecar_keys_are_unchanged(tmp_path):
    # EntropyCurve.corner_bound stays out of the default files
    _run(tmp_path, "arealaw", "--n", "12", "--lmax", "20")
    sidecar = json.loads((tmp_path / "arealaw.json").read_text())
    assert set(sidecar) == {"N", "l_max", "lambda", "fit_range", "l_stop", "capped"}


def test_arealaw_json_format_single_file(tmp_path):
    _run(tmp_path, "arealaw", "--n", "12", "--lmax", "150", "--format", "json")
    payload = json.loads((tmp_path / "arealaw.json").read_text())
    assert not (tmp_path / "arealaw.csv").exists()
    assert len(payload["rows"]) == 13
    assert payload["lambda"] == pytest.approx(0.2688, abs=1e-3)


def test_hermite_outputs(tmp_path):
    _run(tmp_path, "hermite")
    header, rows = _read_csv(tmp_path / "hermite.csv")
    assert header == ["x", "psi0", "psi1", "psi2", "psi3"]
    payload = json.loads((tmp_path / "hermite.json").read_text())
    assert payload["n_q"] == 3
    assert payload["eigenvalues"] == [7, 5, 3, 1, -1, -3, -5, -7]
    assert {f: c for c, f in payload["pauli_terms"]["phi_q"]} == \
        {"z11": 4, "1z1": 2, "11z": 1}
    assert len(payload["fidelity"]) == 4
    assert payload["fidelity"][0]["max_error"] < 2e-3


def test_hermite_json_pins_the_pauli_terms(tmp_path):
    # the digitized field's strings at the default --nq 3: exact JSON
    # integers (json.loads gives 4.0 for a float), in the transform's order
    _run(tmp_path, "hermite")
    terms = json.loads((tmp_path / "hermite.json").read_text())["pauli_terms"]
    assert terms == {
        "phi_q": [[1, "11z"], [2, "1z1"], [4, "z11"]],
        "phi_q_squared": [[21, "111"], [4, "1zz"], [8, "z1z"], [16, "zz1"]],
    }
    assert all(type(c) is int for pairs in terms.values() for c, _ in pairs)


def test_schwinger_outputs(tmp_path):
    _run(tmp_path, "schwinger")
    header, rows = _read_csv(tmp_path / "schwinger.csv")
    assert header == ["t", "p1", "p2", "p3", "p4"]
    assert len(rows) == 400
    for row in rows[::50]:
        assert sum(row[1:]) == pytest.approx(1.0, abs=1e-10)
    payload = json.loads((tmp_path / "schwinger.json").read_text())
    assert payload["x"] == 0.5 and payload["mu"] == 0.1
    assert len(payload["ground_amplitudes"]) == 4


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmds = [
        ["experiment1"], ["experiment3"], ["chsh"], ["coinflip"],
        ["rabi"], ["kraus"], ["schwinger"], ["hermite"],
        ["arealaw", "--n", "12", "--lmax", "60"],
    ]
    for out in (a, b):
        for cmd in cmds:
            assert cli.main(cmd + ["--out", str(out)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_changes_sampled_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["experiment3", "--seed", "1", "--out", str(a)])
    cli.main(["experiment3", "--seed", "2", "--out", str(b)])
    assert (a / "experiment3.txt").read_text() != \
        (b / "experiment3.txt").read_text()


def test_error_reporting_json_on_stderr(tmp_path, capsys):
    rc = cli.main(["hermite", "--nq", "9", "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "n_q" in err["message"]


_BAD_VALUES = [
    (["arealaw", "--n", "0", "--lmax", "0"], "N >= 10"),
    (["arealaw", "--n", "12", "--lmax", "0"], "l_max"),
    (["hermite", "--nq", "0"], "n_q"),
    (["experiment1", "--shots", "0"], "shots"),
    (["experiment4", "--shots", "0"], "shots"),
    (["rabi", "--t-max", "0"], "t_max"),
    (["decohere", "--t-max", "-1"], "t_max"),
    (["schwinger", "--t-max", "0"], "t_max"),
    (["rabi", "--t-max", "nan"], "t_max"),
    (["schwinger", "--t-max", "inf"], "t_max"),
    (["experiment1", "--shots", "100000000000"], "shots must be an integer in 1.."),
]


@pytest.mark.parametrize("argv, needle", _BAD_VALUES,
                         ids=["".join(argv) for argv, _ in _BAD_VALUES])
def test_bad_values_are_rejected_not_defaulted(tmp_path, capsys, argv, needle):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert needle in err["message"]
    assert not list(out.glob("*"))


_PARSE_ERRORS = [
    (["arealaw", "--n", "abc"], "invalid int value: 'abc'"),
    (["rabi", "--t-max", "soon"], "invalid float value: 'soon'"),
    (["arealaw", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
]


@pytest.mark.parametrize("argv, needle", _PARSE_ERRORS,
                         ids=["".join(argv) for argv, _ in _PARSE_ERRORS])
def test_parse_errors_give_the_json_error(tmp_path, capsys, argv, needle):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ArgumentError"
    assert needle in err["message"]
    assert not out.exists()


def test_negative_seed_is_rejected_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["experiment2", "--seed", "-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "ValueError",
                   "message": "seed must be non-negative, got -1"}
    assert not out.exists()


def test_entry_point_subprocess(tmp_path):
    # exercise the installed console script end to end
    proc = subprocess.run(
        [sys.executable, "-m", "qilab.cli", "experiment1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "Final state=1111111111" in proc.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "qilab.cli", "hermite", "--nq", "9",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert bad.returncode == 1
    assert json.loads(bad.stderr)["error"] == "ValueError"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; an earlier call's options
    # and a parse error must leave nothing behind for the next call
    assert cli.main(["rabi", "--t-max", "1", "--format", "json",
                     "--out", str(tmp_path / "short")]) == 0
    assert cli.main(["rabi", "--bogus", "--out", str(tmp_path / "bad")]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "ArgumentError"
    assert "unrecognized arguments: --bogus" in err["message"]
    assert cli.main(["rabi", "--out", str(tmp_path / "warm")]) == 0
    warm_out = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "qilab.cli", "rabi", "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0
    assert sorted(p.name for p in (tmp_path / "warm").iterdir()) == ["rabi.csv"]
    assert ((tmp_path / "warm" / "rabi.csv").read_bytes()
            == (tmp_path / "fresh" / "rabi.csv").read_bytes())
    assert warm_out.replace("warm", "fresh") == fresh.stdout



@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_table_writes_each_value_as_repr_of_float(tmp_path, fmt):
    columns = ["a", "b", "c", "d", "e"]
    rows = [
        [1, 2.5, np.float64(0.1), -0.0, np.int64(-3)],
        [2**53 + 1, np.float32(0.1), 1e-300, np.float64(-0.0), -7.323027740996917e-18],
    ]
    args = argparse.Namespace(subcommand="table", format=fmt, out=str(tmp_path))
    out = cli._emit_table(args, columns, rows)
    assert out["rows"] == 2
    text = (tmp_path / f"table.{fmt}").read_text()
    if fmt == "csv":
        want = "\n".join([",".join(columns)] + [
            ",".join(repr(float(v)) for v in row) for row in rows]) + "\n"
    else:
        want = json.dumps({"columns": columns,
                           "rows": [[float(v) for v in row] for row in rows]},
                          sort_keys=True, indent=2) + "\n"
    assert text == want
    assert "-0.0" in text


def _sample_route_csv(h, t_max, rho0):
    # the route the rabi and decohere tables came from before they were
    # built from arrays: one ReducedSample per time, unpacked row by row
    samples = dynamics.reduced_evolution(h, np.linspace(0.0, t_max, 400), rho0, [0])
    lines = [",".join(cli._RHO_COLUMNS)]
    for s in samples:
        row = [s.t, s.entropy_bits, s.purity, s.offdiag_abs]
        for v in s.rho.matrix.ravel():
            row += [v.real, v.imag]
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("t_max", [None, "3.5", "1e-3"])
def test_rabi_and_decohere_tables_are_the_sample_route_bit_for_bit(tmp_path, t_max):
    flag = [] if t_max is None else ["--t-max", t_max]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    models = {
        "rabi": (dynamics.rabi_hamiltonian(), 2.0 * math.pi,
                 qstate.StateVector.computational([0, 1])),
        "decohere": (dynamics.decoherence_hamiltonian(), 20.0, qstate.StateVector(
            3, np.kron(np.kron(plus, [1.0, 0.0]), [0.0, 1.0]).astype(complex))),
    }
    for sub, (h, default, psi0) in models.items():
        _run(tmp_path, sub, *flag)
        want = _sample_route_csv(h, default if t_max is None else float(t_max),
                                 density.from_statevector(psi0))
        assert (tmp_path / f"{sub}.csv").read_text() == want


def test_kraus_entropy_comes_from_the_kron_chain_state(tmp_path):
    # the |+0> amplitudes are the ones np.kron formed, bit for bit
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi0 = qstate.StateVector(2, np.kron(plus, [1.0, 0.0]).astype(complex))
    want = dynamics.reduced_evolution(dynamics.measurement_hamiltonian(), [1.0],
                                      density.from_statevector(psi0), [0])[0]
    _run(tmp_path, "kraus")
    payload = json.loads((tmp_path / "kraus.json").read_text())
    assert payload["entropy_bits"] == want.entropy_bits


@pytest.mark.parametrize("argv, kind", [
    (["chsh", "--alpha", "0.3"], dict), (["schwinger"], dict),
    (["kraus"], dict), (["experiment3"], str)])
def test_handlers_return_their_data_and_main_prints_it(tmp_path, capsys, argv, kind):
    argv = argv + ["--out", str(tmp_path)]
    args = cli._build_parser().parse_args(argv)
    returned = args.handler(args)
    assert isinstance(returned, kind)
    assert capsys.readouterr().out == ""  # a handler prints nothing itself
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    if kind is str:
        assert printed == returned
    else:
        assert printed == json.dumps(returned, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_chsh_alpha_summary_reports_the_violation(tmp_path, capsys, alpha):
    # the summary's violation is 2 sqrt(1 + sin^2 2a) - 2 for --alpha a
    assert cli.main(["chsh", "--alpha", repr(alpha), "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    want = 2.0 * math.sqrt(1.0 + math.sin(2.0 * alpha) ** 2) - 2.0
    assert summary["violation"] == pytest.approx(want, abs=1e-12)


# each subcommand's options, -h excluded: --format only where the handler
# writes its table through _emit_table
_OPTIONS = {
    **{f"experiment{k}": {"--out", "--seed", "--shots"} for k in range(1, 6)},
    "coinflip": {"--out", "--format"},
    "rabi": {"--out", "--format", "--t-max"},
    "decohere": {"--out", "--format", "--t-max"},
    "kraus": {"--out"},
    "chsh": {"--out", "--format", "--alpha"},
    "tfd": {"--out", "--format", "--theta"},
    "arealaw": {"--out", "--format", "--n", "--lmax"},
    "hermite": {"--out", "--format", "--nq"},
    "schwinger": {"--out", "--format", "--x", "--mu", "--t-max"},
}


def test_each_subcommand_takes_only_the_options_its_handler_reads():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {flag: action for action in p._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert {name: set(flags) for name, flags in got.items()} == _OPTIONS
    assert sum(map(len, _OPTIONS.values())) == 42
    for flags in got.values():
        if "--format" in flags:
            assert flags["--format"].choices == ["csv", "json"]
            assert flags["--format"].default == "csv"


@pytest.mark.parametrize("name", ["kraus"] + [f"experiment{k}" for k in range(1, 6)])
def test_format_is_refused_where_no_table_is_written(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert cli.main([name, "--format", "json", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ArgumentError", "message": "unrecognized arguments: --format json"}
    assert not out.exists()
