"""The three workloads: inputs, one op, and the check of its output.

Each workload is built from the seed and a size; ``op`` is the timed
call into qilab and ``check`` (run outside the timed interval) returns
the list of problems with one op's output, empty when it is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import astuple

import numpy as np

import qilab
from qilab import cli

from tracing import CLI_SUBCOMMANDS

DEFAULT_SEED = 1


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _within_sigma(count, n, p, k=5.0) -> bool:
    return abs(count / n - p) <= k * math.sqrt(p * (1.0 - p) / n)


class Workload:
    """Defaults for the per-layer figures a workload does not produce."""

    shots: dict = {}       # shots per benchmark span, for the us_per_shot metrics
    bytes_written = 0      # data-file bytes of the last checked op

    def cleanup(self, out):
        """Drop what one op left behind (after its check)."""


class Arealaw(Workload):
    """``area_law_scan(60, 300)``, the default of ``qilab arealaw``."""

    SIZES = {"full": (60, 300), "tiny": (12, 10)}
    LAMBDA_DESK = 0.27   # acceptance criterion 8: |lambda - 0.27| / 0.27 < 0.15

    def __init__(self, seed, size, frozen, tracer, scratch):
        self.size = size
        self.n, self.l_max = self.SIZES[size]
        self.first_lambda = None

    def op(self):
        return qilab.area_law_scan(self.n, self.l_max)

    def check(self, curve):
        problems = []
        if curve.samples[0][1] != 0.0 or curve.samples[-1][1] != 0.0:
            problems.append("area-law endpoints are not exactly 0")
        lam = curve.fit_lambda
        if self.size == "full" and not abs(lam - self.LAMBDA_DESK) / self.LAMBDA_DESK < 0.15:
            problems.append(f"lambda {lam!r} outside criterion 8's window")
        if self.first_lambda is None:
            self.first_lambda = lam
        elif lam != self.first_lambda:
            problems.append(f"lambda {lam!r} differs from {self.first_lambda!r}")
        return problems


def ghz_chain(n):
    """H on qubit 0, then a CNOT chain, each qubit measured into its own register."""
    c = qilab.Circuit(n).add_gate("H", [0])
    for q in range(n - 1):
        c.add_gate("CNOT", [q, q + 1])
    for q in range(n):
        c.add_measure([q], f"q{q}")
    return c


class Shots(Workload):
    """Seeded teleport, CHSH and 10-qubit GHZ sampling in one batch."""

    SIZES = {"full": {"teleport": 1000, "chsh": 5000, "ghz10": 200},
             "tiny": {"teleport": 40, "chsh": 200, "ghz10": 20}}

    def __init__(self, seed, size, frozen, tracer, scratch):
        self.seed = seed
        self.shots = self.SIZES[size]
        self.tracer = tracer
        self.teleport = qilab.teleport_circuit(0.103, 0.456, deferred=False)
        self.settings = qilab.optimal_settings(math.pi / 4)[0]
        self.ghz = ghz_chain(10)
        self.frozen = frozen["shots"][size] if seed == DEFAULT_SEED else None
        self.first = None

    def op(self):
        call = self.tracer.call
        return (call("shots.teleport", qilab.run_circuit, self.teleport,
                     self.shots["teleport"], self.seed),
                call("shots.chsh", qilab.sampled_chsh, self.settings,
                     self.shots["chsh"], self.seed),
                call("shots.ghz10", qilab.run_circuit, self.ghz,
                     self.shots["ghz10"], self.seed))

    @staticmethod
    def digests(out):
        """sha256 of each seeded record, for the bit-for-bit checks."""
        tele, chsh, ghz = out
        return {"teleport": sha256(tele.to_json()),
                "chsh": sha256(repr(astuple(chsh))),
                "ghz10": sha256(ghz.to_json())}

    def check(self, out):
        tele, chsh, ghz = out
        problems = []
        n = self.shots["teleport"]
        pairs = list(zip(tele.registers["alice"], tele.registers["msg"]))
        for outcome in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")):
            if not _within_sigma(pairs.count(outcome), n, 0.25):
                problems.append(f"teleport outcome {outcome} off 1/4")
        n = self.shots["ghz10"]
        rows = list(zip(*(ghz.registers[f"q{q}"] for q in range(10))))
        if any(len(set(row)) != 1 for row in rows):
            problems.append("a GHZ shot has unequal bits")
        if not _within_sigma(sum(row[0] == "0" for row in rows), n, 0.5):
            problems.append("GHZ all-zero fraction off 1/2")
        if not abs(chsh.e_bell - 2.0 * math.sqrt(2.0)) <= 5.0 * chsh.se_bell:
            problems.append(f"E_bell {chsh.e_bell!r} off 2 sqrt 2")
        digests = self.digests(out)
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems.append("seeded output differs between ops of one run")
        if self.frozen is not None and digests != self.frozen:
            problems.append("seeded output differs from the frozen digests")
        return problems


class Figures(Workload):
    """Every subcommand but ``arealaw`` in-process, then the Schwinger projection."""

    def __init__(self, seed, size, frozen, tracer, scratch):
        self.tracer = tracer
        self.scratch = scratch
        self.params = qilab.SchwingerParams(0.5, 0.1)
        self.h4 = qilab.schwinger_h4(self.params)
        self.frozen = frozen["figures"]

    def op(self):
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for sub in CLI_SUBCOMMANDS:
                codes[sub] = self.tracer.call(f"cli.{sub}", cli.main,
                                              [sub, "--out", out_dir])
        projected = qilab.schwinger_project(self.params)
        return out_dir, codes, projected

    @staticmethod
    def digests(out):
        """sha256 of each written data file, by file name."""
        out_dir = out[0]
        digests = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = sha256(fh.read())
        return digests

    def check(self, out):
        out_dir, codes, projected = out
        problems = [f"qilab {sub} exited {code}"
                    for sub, code in codes.items() if code != 0]
        digests = self.digests(out)
        self.bytes_written = sum(os.path.getsize(os.path.join(out_dir, name))
                                 for name in digests)
        if sorted(digests) != sorted(self.frozen):
            problems.append(f"written files {sorted(digests)} differ from the frozen set")
        problems += [f"{name} differs from its frozen hash"
                     for name, d in digests.items() if self.frozen.get(name, d) != d]
        if not np.max(np.abs(projected - self.h4)) <= 1e-10:
            problems.append("schwinger_project differs from schwinger_h4")
        return problems

    def cleanup(self, out):
        shutil.rmtree(out[0], ignore_errors=True)


WORKLOADS = {"arealaw": Arealaw, "shots": Shots, "figures": Figures}
