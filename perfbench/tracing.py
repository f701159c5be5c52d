"""Spans around qilab's public functions, recorded from outside the package.

A traced op replaces each function named in LAYERS with a timing
wrapper in every module that binds that name (``bell`` imports
``apply_gate`` by name; qilab calls ``np.linalg.eigh`` through the
``numpy.linalg`` module at call time), runs, and puts the originals
back.  Each wrapper appends one span (name, start, end, parent span, op
id, error flag, work count) to an in-memory list that is written out
when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time

# layer, home module, traced functions, and the end-to-end metric each
# should move (on which workload), written down before any change is
# measured so that later changes can cite these names.
LAYERS = (
    ("oscillators", "qilab.oscillators",
     ("area_law_scan", "radial_K", "correlators", "thermal_entropy"),
     "arealaw op_s.p50; thermal_entropy moves figures op_s.p50"),
    ("linalg", "numpy.linalg", ("eigh", "eigvalsh"), "arealaw op_s.p50"),
    ("qstate", "qilab.qstate",
     ("run_circuit", "execute", "apply_gate", "measure", "render_circuit"),
     "shots op_s.p50 and op_s.p90; figures: no change"),
    ("bell", "qilab.bell", ("sampled_chsh", "violation_curve"),
     "shots op_s.p50 (sampling); figures op_s.p50 (the curve)"),
    ("density", "qilab.density", ("partial_trace", "von_neumann_entropy"),
     "figures op_s.p50"),
    ("dynamics", "qilab.dynamics",
     ("reduced_evolution", "propagator", "kraus_extract", "build_hamiltonian"),
     "figures op_s.p50"),
    ("lattice", "qilab.lattice",
     ("schwinger_project", "schwinger_evolve", "sampling_fidelity", "digitize"),
     "figures op_s.p50"),
    ("info", "qilab.info", ("biased_coin_curve",), "figures op_s.p50"),
)

# The figures op runs every subcommand but ``arealaw`` at its defaults.
CLI_SUBCOMMANDS = (
    "experiment1", "experiment2", "experiment3", "experiment4", "experiment5",
    "coinflip", "rabi", "decohere", "kraus", "chsh", "tfd", "hermite",
    "schwinger",
)

# derived metric -> (the workload span ``shots.<key>`` it divides by its
# shot count, what it should move)
PER_SHOT = {
    "qstate.us_per_shot.teleport": ("teleport", "shots op_s.p50 and op_s.p90"),
    "qstate.us_per_shot.ghz10": ("ghz10", "shots op_s.p50 and op_s.p90"),
    "bell.us_per_shot.chsh": ("chsh", "shots op_s.p50"),
}


def per_layer_metrics():
    """(name, unit, better, moves) of every metric a traced run reports."""
    out = []
    for layer, _, fns, moves in LAYERS:
        for fn in fns:
            base = f"{layer}.{fn}"
            out += [(f"{base}.calls", "count", "lower", moves),
                    (f"{base}.self_s", "s", "lower", moves),
                    (f"{base}.errors", "count", "lower", moves)]
            if layer == "linalg":
                out.append((f"{base}.dim3", "n3_computed", "lower", moves))
    for name, (_, moves) in PER_SHOT.items():
        out.append((name, "us", "lower", moves))
    for sub in CLI_SUBCOMMANDS:
        out.append((f"cli.{sub}.s", "s", "lower", "figures op_s.p50"))
    out.append(("cli.bytes_written", "bytes", "lower", "figures op_s.p50"))
    out.append(("trace.overhead_s", "s", "lower",
                "none: traced minus untraced op_s.p50 of this workload"))
    return out


def _dim3(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return a.shape[-1] ** 3


class Tracer:
    """Span recorder; ``install``/``restore`` swap the wrappers in and out."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, op, error, work)
        self.active = False
        self.op = None
        self._stack = []
        self._patched = []   # (module, attribute, original)
        self._wrappers = {}  # span name -> (original, wrapper)
        for layer, modname, fns, _ in LAYERS:
            module = importlib.import_module(modname)
            for fn in fns:
                orig = getattr(module, fn)
                work = _dim3 if layer == "linalg" else None
                self._wrappers[f"{layer}.{fn}"] = (
                    orig, self._wrap(f"{layer}.{fn}", orig, work))

    def _record(self, name, fn, args, kwargs, work):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        error = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            count = work(args, kwargs) if work is not None else 0
            self.spans[sid] = (name, start, end, parent, self.op, error, count)

    def _wrap(self, name, fn, work):
        record = self._record

        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs, work)

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """``fn(*args)``, as a benchmark-level span when an op is traced."""
        if not self.active:
            return fn(*args)
        return self._record(name, fn, args, {}, None)

    def install(self, op):
        """Swap every wrapper in for the original, wherever it is bound."""
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qilab" or n.startswith("qilab.")
                                         or n == "numpy.linalg")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self.op = op
        self.active = True

    def restore(self):
        """Put every original function back."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self.active = False
        self.op = None

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, error, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "error": error,
                    "work": work}) + "\n")

    def per_op(self):
        """{op id: {span name: [calls, self_s, errors, work, wall_s]}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        ops = {}
        for sid, (name, start, end, _, op, error, work) in enumerate(self.spans):
            row = ops.setdefault(op, {}).setdefault(name, [0, 0.0, 0, 0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child[sid]
            row[2] += int(error)
            row[3] += work
            row[4] += end - start
        return ops


_NO_SPANS = (0, 0.0, 0, 0, 0.0)


def layer_metrics(tracer, op_ids, shots_per_span, bytes_written, overhead_s):
    """Median over the traced ops of every per-layer metric, by name."""
    ops = tracer.per_op()
    samples = {}
    for op in op_ids:
        spans = ops.get(op, {})
        for layer, _, fns, _ in LAYERS:
            for fn in fns:
                base = f"{layer}.{fn}"
                calls, self_s, errors, work, _ = spans.get(base, _NO_SPANS)
                samples.setdefault(f"{base}.calls", []).append(calls)
                samples.setdefault(f"{base}.self_s", []).append(self_s)
                samples.setdefault(f"{base}.errors", []).append(errors)
                if layer == "linalg":
                    samples.setdefault(f"{base}.dim3", []).append(work)
        for name, (key, _) in PER_SHOT.items():
            wall = spans.get(f"shots.{key}", _NO_SPANS)[4]
            shots = shots_per_span.get(key, 0)
            samples.setdefault(name, []).append(1e6 * wall / shots if shots else 0.0)
        for sub in CLI_SUBCOMMANDS:
            samples.setdefault(f"cli.{sub}.s", []).append(
                spans.get(f"cli.{sub}", _NO_SPANS)[4])
    # counts repeat exactly, so take an observed one; times take the median
    values = {name: statistics.median_low(v) if isinstance(v[0], int)
              else statistics.median(v) for name, v in samples.items()}
    values["cli.bytes_written"] = bytes_written
    values["trace.overhead_s"] = overhead_s
    return values
