"""Command-line front end: rerun every experiment and emit figure data.

Each subcommand writes its data files (CSV/JSON) into --out and prints
either a text transcript (the experiment commands) or a short JSON
summary to stdout.  All numeric output uses full round-trip decimal
precision, so identical configurations produce byte-identical files.
Module errors and unreadable arguments surface as machine-readable
JSON on stderr with exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import bell, density, dynamics, info, lattice, oscillators, qstate

__all__ = ["main"]


def _write(args: argparse.Namespace, name: str, text: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_table(args: argparse.Namespace, columns, rows,
                extra: dict | None = None) -> dict:
    """Write the table for this subcommand as <name>.csv or <name>.json.

    rows is a 2-D array or a sequence of equal-length rows; every value
    is written as a float in its shortest round-trip form, repr(float(v)).
    extra merges into a JSON table, or goes beside a CSV table as the
    sidecar <name>.json.
    """
    name = args.subcommand
    rows = np.asarray(rows, dtype=float).tolist()  # one conversion per table
    if args.format == "json":
        payload = {**(extra or {}), "columns": list(columns), "rows": rows}
        return {"file": _write(args, f"{name}.json", _json_text(payload)),
                "rows": len(rows)}
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
    out = {"file": _write(args, f"{name}.csv", "\n".join(lines) + "\n"),
           "rows": len(rows)}
    if extra is not None:
        out["sidecar"] = _write(args, f"{name}.json", _json_text(extra))
    return out


def _transcript(args: argparse.Namespace, record_json: str, lines) -> str:
    """Write <name>.json (the shot records) and <name>.txt; return the transcript."""
    _write(args, f"{args.subcommand}.json", record_json)
    transcript = "\n".join(lines) + "\n"
    _write(args, f"{args.subcommand}.txt", transcript)
    return transcript


def _bloch_text(bv) -> str:
    parts = []
    for axis, v in zip("xyz", bv):
        v = round(float(v), 4)
        if v == 0.0:
            v = 0.0  # normalize -0.0
        parts.append(f"{axis}:  {v!r}")
    return "  ".join(parts)


def _pure_state(circuit) -> qstate.StateVector:
    # Final state with the measurements stripped; only valid for
    # circuits without classically conditioned gates.
    state = qstate.StateVector.zeros(circuit.n_qubits)
    for step in circuit.steps:
        if isinstance(step, qstate.MeasureStep):
            continue
        if step.condition is not None:
            raise ValueError("cannot strip measurements feeding a condition")
        state = qstate.apply_gate(state, step.gate, step.targets)
    return state


# ---------------------------------------------------------------------------
# experiment transcripts


def _experiment1(args: argparse.Namespace) -> str:
    circuit = qstate.flip_circuit()
    record = qstate.run_circuit(circuit, args.shots, args.seed)
    bv = qstate.bloch_vector(_pure_state(circuit), 0)
    lines = [
        "Bloch Sphere of the qubit in the final state:", "",
        _bloch_text(bv), "",
        "Circuit:", "",
        qstate.render_circuit(circuit), "",
        f"Results of {args.shots} trials:", "",
        "Final state=" + record.qubit_stream("Final state", 0),
    ]
    return _transcript(args, record.to_json() + "\n", lines)


def _experiment2(args: argparse.Namespace) -> str:
    circuit = qstate.bell_pair_circuit()
    record = qstate.run_circuit(circuit, args.shots, args.seed)
    final = _pure_state(circuit)
    lines = []
    for q in range(2):
        lines += [f"Bloch Sphere of the qubit {q} in the final state:", "",
                  _bloch_text(qstate.bloch_vector(final, q)), ""]
    streams = ", ".join(
        record.qubit_stream("Final state", pos) for pos in range(2))
    lines += [
        "Circuit:", "",
        qstate.render_circuit(circuit), "",
        "Results:", "",
        "Final state=" + streams,
    ]
    return _transcript(args, record.to_json() + "\n", lines)


def _experiment3(args: argparse.Namespace) -> str:
    # The printed header shows the preparation symbolically as X^t, which
    # has the width of the X^1 label it replaces.
    header = qstate.render_circuit(qstate.exchange_circuit(1.0))
    lines = ["Circuit:", "", header.replace("X^1", "X^t")]
    records = []
    for k, t in enumerate((0.0, 1.0, 0.5)):
        record = qstate.run_circuit(qstate.exchange_circuit(t), args.shots,
                                    args.seed + k)
        # to_json writes the record's fields, so this is its JSON object
        records.append({"t": t} | vars(record))
        lines += ["", f"Results for t = {t:g}:", ""]
        for key in ("q0", "q1"):
            lines.append(f"{key}=" + record.qubit_stream(key, 0))
    return _transcript(args, _json_text({"runs": records}), lines)


def _teleport_transcript(args: argparse.Namespace, deferred: bool) -> str:
    a, b = 0.103, 0.456
    circuit = qstate.teleport_circuit(a, b, deferred)
    result = qstate.teleport((a, b), deferred, args.seed)
    record = qstate.run_circuit(circuit, args.shots, args.seed)
    lines = [
        "Circuit:", "",
        qstate.render_circuit(circuit, wire_names=["msg", "qalice", "qbob"]), "",
        "Bloch Sphere of the Message qubit in the initial state:", "",
        _bloch_text(result.message_initial), "",
        "Bloch Sphere of Bob's qubit in the final state:", "",
        _bloch_text(result.bob), "",
        "Bloch Sphere of the Message qubit in the final state:", "",
        _bloch_text(result.message_final),
    ]
    return _transcript(args, record.to_json() + "\n", lines)


# ---------------------------------------------------------------------------
# figure data


def _coinflip(args: argparse.Namespace) -> str:
    out = _emit_table(args, ["p", "entropy"],
                      np.column_stack(info.biased_coin_curve(101)))
    return _json_text(out)


def _reduced_rows(h, t_grid, rho0, keep) -> np.ndarray:
    # one row per time: t, entropy, purity, offdiag, then the 2x2 rho_S
    # as (re, im) pairs in row-major order, which is the complex stack
    # read as floats
    ts, rho, entropy, purity, offdiag = dynamics._reduced_stack(h, t_grid, rho0, keep)
    return np.column_stack([ts, entropy, purity, offdiag,
                            rho.reshape(len(ts), -1).view(float)])


def _time_grid(t_max: float) -> np.ndarray:
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    return np.linspace(0.0, t_max, 400)


_RHO_COLUMNS = [
    "t", "entropy_bits", "purity", "offdiag_abs",
    "rho00_re", "rho00_im", "rho01_re", "rho01_im",
    "rho10_re", "rho10_im", "rho11_re", "rho11_im",
]


def _rabi(args: argparse.Namespace) -> str:
    grid = _time_grid(args.t_max)
    rho0 = density.from_statevector(qstate.StateVector.computational([0, 1]))
    rows = _reduced_rows(dynamics.rabi_hamiltonian(), grid, rho0, [0])
    out = _emit_table(args, _RHO_COLUMNS, rows)
    return _json_text(out)


def _decohere(args: argparse.Namespace) -> str:
    grid = _time_grid(args.t_max)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(np.kron(plus, [1.0, 0.0]), [0.0, 1.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(3, amps))
    rows = _reduced_rows(dynamics.decoherence_hamiltonian(), grid, rho0, [0])
    out = _emit_table(args, _RHO_COLUMNS, rows)
    return _json_text(out)


def _matrix_payload(m: np.ndarray) -> dict:
    return {"re": [[float(v.real) for v in row] for row in m],
            "im": [[float(v.imag) for v in row] for row in m]}


def _kraus(args: argparse.Namespace) -> str:
    h = dynamics.measurement_hamiltonian()
    ks = dynamics.kraus_extract(h, 1.0)
    p11, p12, p21, p22 = ks.p_matrices()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.kron(plus, [1.0, 0.0]).astype(complex)
    rho0 = density.from_statevector(qstate.StateVector(2, amps))
    sample = dynamics.reduced_evolution(h, [1.0], rho0, [0])[0]
    payload = {
        "t": 1.0,
        "p11": _matrix_payload(p11), "p12": _matrix_payload(p12),
        "p21": _matrix_payload(p21), "p22": _matrix_payload(p22),
        "completeness_defect": ks.completeness_defect(),
        "entropy_bits": sample.entropy_bits,
    }
    path = _write(args, "kraus.json", _json_text(payload))
    return _json_text({"file": path, "entropy_bits": sample.entropy_bits})


def _chsh(args: argparse.Namespace) -> str:
    alpha = args.alpha
    alphas = [alpha] if alpha is not None else np.linspace(0.0, math.pi / 2, 101)
    rows = bell.violation_curve(alphas)
    out = _emit_table(args, ["alpha", "entropy", "violation"], rows)
    if alpha is not None:
        out["violation"] = rows[0][2]
    return _json_text(out)


def _tfd(args: argparse.Namespace) -> str:
    theta = args.theta
    thetas = [theta] if theta is not None else np.linspace(0.05, 1.55, 151)
    rows = []
    for th in thetas:
        pair = oscillators.tfd_pair(float(th))
        rows.append([float(th), pair.s_exact, pair.s_approx])
    out = _emit_table(args, ["theta", "s_exact", "s_approx"], rows)
    return _json_text(out)


def _arealaw(args: argparse.Namespace) -> str:
    curve = oscillators.area_law_scan(args.n, args.lmax)
    sidecar = {
        "N": curve.n,
        "l_max": curve.l_max,
        "lambda": curve.fit_lambda,
        "fit_range": [0.0, curve.fit_fraction * (curve.n + 0.5)],
        "l_stop": list(curve.l_stop),
        "capped": list(curve.capped),
    }
    out = _emit_table(args, ["r", "S"], curve.samples, extra=sidecar)
    out["lambda"] = curve.fit_lambda
    return _json_text(out)


def _hermite(args: argparse.Namespace) -> str:
    n_q = args.nq
    fieldinfo = lattice.digitize(n_q)
    size = 2**n_q
    length = lattice.nyquist_L(size)
    levels = min(size // 2, 16)
    reports = lattice.sampling_fidelity(n_q, levels)
    xs = np.linspace(-length, length, 401)
    columns = ["x"] + [f"psi{n}" for n in range(4)]
    table = np.column_stack([xs] + list(itertools.islice(lattice._hermite_levels(xs), 4)))
    payload = {
        "n_q": n_q,
        "L": length,
        "delta": fieldinfo.delta,
        "eigenvalues": list(fieldinfo.eigenvalues),
        "pauli_terms": {
            "phi_q": [[c, "".join(f)] for c, f in fieldinfo.phi_q.terms],
            "phi_q_squared": [[c, "".join(f)]
                              for c, f in fieldinfo.phi_q_squared.terms],
        },
        "fidelity": [{"level": r.level, "max_error": r.max_error,
                      "infidelity": r.infidelity} for r in reports],
    }
    out = _emit_table(args, columns, table, extra=payload)
    return _json_text(out)


def _schwinger(args: argparse.Namespace) -> str:
    params = lattice.SchwingerParams(x=args.x, mu=args.mu)
    series = lattice.schwinger_evolve(params, _time_grid(args.t_max))
    ground = lattice.schwinger_ground_state(params)
    rows = np.column_stack([series.t, series.probabilities])
    sidecar = {
        "x": params.x,
        "mu": params.mu,
        "ground_energy": ground.energy,
        "ground_amplitudes": [float(a) for a in ground.amplitudes],
    }
    out = _emit_table(args, ["t", "p1", "p2", "p3", "p4"], rows, extra=sidecar)
    out["ground_energy"] = ground.energy
    return _json_text(out)


# ---------------------------------------------------------------------------
# argument plumbing

def _sampling(shots: int) -> tuple:
    return (("--seed", int, 1, "random-number seed"),
            ("--shots", int, shots, "measurement repetitions"))


def _t_max(default: float) -> tuple:
    return (("--t-max", float, default, "end of the time grid"),)


# name -> (help, handler, flags as (flag, type, default, help))
_COMMANDS = {
    "experiment1": ("flip one qubit and measure it repeatedly",
                    _experiment1, _sampling(10)),
    "experiment2": ("prepare and sample a Bell pair",
                    _experiment2, _sampling(10)),
    "experiment3": ("swap two prepared qubits and measure both",
                    _experiment3, _sampling(50)),
    "experiment4": ("teleport a state using measured corrections",
                    functools.partial(_teleport_transcript, deferred=False),
                    _sampling(1)),
    "experiment5": ("teleport a state with deferred measurement",
                    functools.partial(_teleport_transcript, deferred=True),
                    _sampling(1)),
    "coinflip": ("biased-coin entropy curve (CSV)", _coinflip, ()),
    "rabi": ("two-qubit exchange-model time series (CSV)",
             _rabi, _t_max(2.0 * math.pi)),
    "decohere": ("three-qubit decoherence time series (CSV)",
                 _decohere, _t_max(20.0)),
    "kraus": ("Kraus P-matrices and entropy at t=1 (JSON)", _kraus, ()),
    "chsh": ("Bell-violation and entropy curve over alpha (CSV)", _chsh, (
        ("--alpha", float, None,
         "single preparation angle (radians); omit for the full curve"),)),
    "tfd": ("thermofield-double entropy versus theta (CSV)", _tfd, (
        ("--theta", float, None,
         "single mixing angle (radians); omit for the full curve"),)),
    "arealaw": ("oscillator-lattice entropy scan and area fit", _arealaw, (
        ("--n", int, 60, "lattice sites"),
        ("--lmax", int, 300, "angular-momentum cutoff"))),
    "hermite": ("eigenfunction table and sampling-fidelity report", _hermite, (
        ("--nq", int, 3, "qubits per field site"),)),
    "schwinger": ("truncated gauge-model evolution and ground state",
                  _schwinger, (
                      ("--x", float, 0.5, "hopping coupling 1/(ag)^2"),
                      ("--mu", float, 0.1, "mass coupling 2m/(ag^2)"),
                  ) + _t_max(10.0)),
}


class _Parser(argparse.ArgumentParser):
    # A parse error raises, so main reports it as the JSON error.
    def error(self, message):
        raise argparse.ArgumentError(None, message)


# Built once per process: in-process callers of main (tests, benchmarks,
# library code) would otherwise rebuild all fourteen subparsers per call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qilab",
        description="Rerun the experiments and emit every figure's data.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (blurb, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(
            name, help=blurb,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"),
                       default="csv", help="table file format")
        for flag, kind, default, text in flags:
            p.add_argument(flag, type=kind, default=default, help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        sys.stdout.write(args.handler(args))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
