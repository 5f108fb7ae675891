"""The three benchmark workloads.

Each workload turns the workload seed into inputs (``prepare``, the
set-up), runs them once through the public entry points of
``transferchain`` (``execute``, the timed section), and then gates the
outputs (``gates``).  Inputs are built only from the seed and the size, so
the same seed gives the same inputs.

* ``verify-all``: ``transferchain verify --suite all`` -- the paper's full
  reproduction, many small operator applies and most of the sampling work.
* ``stationary-large``: what ``transferchain invariant`` does at grid
  n = 4096 for every system, plus the apply-side identities at that n --
  a few large applies and flows, dense Ulam matrices, no sampling.
* ``paths-large``: ``transferchain simulate`` with 10^6 paths x 10 steps for
  one system of each sampler kind -- samplers, histograms and KS, no
  operator apply and no Ulam matrix.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from transferchain import cli, grids, invariant, operators

WORKLOADS = ("verify-all", "stationary-large", "paths-large")

# the one check that is red by design (README, "Known red check")
EXPECTED_RED = {"operators/logistic-uniform-weight-separation"}

# verify's thresholds for the apply-side identities (operators suite)
RESIDUAL_TOL = 5e-4

SIZES = {
    "full": {"suite": "all", "grid_n": 4096, "paths": 1_000_000, "steps": 10},
    "tiny": {"suite": "schur", "grid_n": 256, "paths": 20_000, "steps": 3},
}

INVARIANT_SYSTEMS = ("gauss", "random-control", "logistic", "doubling", "halving")
SIMULATE_SYSTEMS = ("doubling", "random-control", "gauss", "haar")


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Prepared:
    workload: str
    argvs: list  # one transferchain command line per CLI call
    residual_inputs: list = field(default_factory=list)  # (name, measure, op, test fns)
    residuals: dict = field(default_factory=dict)  # filled by execute


def prepare(workload: str, seed: int, size: str, out_dir: str) -> Prepared:
    sz = SIZES[size]
    common = ["--master-seed", str(seed)]
    if workload == "verify-all":
        argvs = [["verify", "--suite", sz["suite"], *common,
                  "--out", os.path.join(out_dir, "verify")]]
        return Prepared(workload, argvs)
    if workload == "stationary-large":
        n = sz["grid_n"]
        argvs = [["invariant", "--system", s, "--grid-n", str(n), *common,
                  "--out", os.path.join(out_dir, s)] for s in INVARIANT_SYSTEMS]
        # the invariant command draws no random numbers: the seed only
        # reaches the report's config, and the identities below are the
        # fixed ones of the operators suite, taken to this grid size
        g = grids.Grid(0.0, 1.0, n)
        ident = grids.GridFunction.from_callable(g, lambda x: x)
        arcsine_fns = [grids.GridFunction.constant(g, 1.0), ident,
                       grids.GridFunction.from_callable(g, lambda x: x**2),
                       grids.GridFunction.from_callable(g, lambda x: np.cos(2 * np.pi * x))]
        residual_inputs = [
            ("gauss-lebesgue-invariance", grids.uniform_measure(g),
             operators.gauss_operator(K=10_000), [ident]),
            ("arcsine-invariance-residuals", grids.arcsine_measure(g),
             operators.random_control_system(g), arcsine_fns),
        ]
        return Prepared(workload, argvs, residual_inputs)
    if workload == "paths-large":
        argvs = [["simulate", "--system", s, "--paths", str(sz["paths"]),
                  "--steps", str(sz["steps"]), *common,
                  "--out", os.path.join(out_dir, s)] for s in SIMULATE_SYSTEMS]
        return Prepared(workload, argvs)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def execute(p: Prepared) -> None:
    """The timed section: every CLI call, then the apply-side identities."""
    with redirect_stdout(io.StringIO()):
        for argv in p.argvs:
            cli.main(argv)  # its exit status is gated through the report
    for name, mu, op, fns in p.residual_inputs:
        p.residuals[name] = invariant.verify_invariance(mu, op, fns)


def _report_dirs(p: Prepared) -> list:
    return [argv[argv.index("--out") + 1] for argv in p.argvs]


def _load_report(out: str) -> dict:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gates(p: Prepared) -> list:
    """One gate per check in each report, plus the identity residuals.

    Every check must pass except those in ``EXPECTED_RED``, which must stay
    red as documented.
    """
    out = []
    for d in _report_dirs(p):
        report = _load_report(d)
        for c in report["checks"]:
            name = c["name"] if p.workload == "verify-all" \
                else f"{os.path.basename(d)}/{c['name']}"
            want = "fail" if name in EXPECTED_RED else "pass"
            out.append(Gate(name, c["status"] == want,
                            f"{c['statistic']} {c['direction']} {c['threshold']}"))
    for name, values in p.residuals.items():
        worst = max(values)
        out.append(Gate(name, worst <= RESIDUAL_TOL, f"{worst!r} <= {RESIDUAL_TOL}"))
    return out


def digests(p: Prepared) -> dict:
    """sha256 of each report.json, and of the identity residuals' bits."""
    out = {}
    for d in _report_dirs(p):
        with open(os.path.join(d, "report.json"), "rb") as fh:
            out[os.path.basename(d)] = hashlib.sha256(fh.read()).hexdigest()
    if p.residuals:
        blob = np.array([v for k in sorted(p.residuals) for v in p.residuals[k]]).tobytes()
        out["residuals"] = hashlib.sha256(blob).hexdigest()
    return out


def suite_seconds(p: Prepared) -> dict:
    """Per-suite sums of the checks' own runtimes (``timings.csv``)."""
    totals = {}
    if p.workload != "verify-all":
        return totals
    with open(os.path.join(_report_dirs(p)[0], "timings.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            suite = row["check"].split("/", 1)[0]
            totals[suite] = totals.get(suite, 0.0) + float(row["runtime_ms"]) / 1000.0
    return totals


def w1_error(p: Prepared) -> float:
    """Largest Wasserstein-1 distance from a computed stationary law to its
    reference law, recomputed from the ``density.csv`` the CLI writes."""
    if p.workload != "stationary-large":
        return 0.0
    worst = 0.0
    for d in _report_dirs(p):
        data = np.loadtxt(os.path.join(d, "density.csv"), delimiter=",", skiprows=1)
        dx = 1.0 / data.shape[0]
        diff = np.cumsum(data[:, 1] * dx) - np.cumsum(data[:, 2] * dx)
        worst = max(worst, float(dx * np.abs(diff).sum()))
    return worst
