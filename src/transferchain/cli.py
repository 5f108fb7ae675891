"""Command-line front door.

Four subcommands: ``invariant`` (stationary densities via the discretized
operator), ``simulate`` (path ensembles with per-step marginals),
``verify`` (named check suites), and ``schur`` (parameter extraction and
roundtrips), each taking only the flags and ``--config`` keys it reads.
Every run writes diff-friendly CSV artifacts plus a ``report.json`` with
stable key order; all randomness flows from ``--master-seed`` (default
9001), so reports are byte-identical across runs and worker counts.
Wall-clock timings go to a separate ``timings.csv`` so they never
perturb the report bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, chains, schur, verify
from .grids import Grid, ks_distance, wasserstein1
from .verify import SYSTEMS, CheckResult

SUITE_CHOICES = (*verify.SUITES, "all")
SCHUR_GRAMMAR = "constant:C, blaschke:Z1[,Z2..] or random:R[,DEPTH]"
# random:R,DEPTH draws all DEPTH parameters up front; at 64, R = 0.5 still
# round-trips within the 1e-8 check (README, "Schur round-trip accuracy")
MAX_SCHUR_DEPTH = 64


@dataclass
class RunConfig:
    command: str
    system: str = ""
    params: dict = field(default_factory=dict)
    grid_n: int = 512
    n_paths: int = 100_000
    n_steps: int = 10
    master_seed: int = 9001
    threads: int = 1
    suite: str = "all"
    schur_spec: str = ""
    out_dir: str = "transferchain-out"
    inject_fault: str = ""

    def as_dict(self) -> dict:
        """The settings the command reads, under their report names.  threads
        is an execution hint, not an input to any statistic, and is left out
        so reports stay byte-identical at any worker count."""
        names = {"param": "params", "paths": "n_paths", "steps": "n_steps"}
        keys = ["command", *COMMANDS[self.command][2], "master_seed"]
        return {names.get(k, k): getattr(self, names.get(k, k))
                for k in keys if k != "threads"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(out_dir: str, name: str, header: list, rows) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _emit(config: RunConfig, checks: list, manifest: list) -> int:
    _write_csv(config.out_dir, "timings.csv", ["check", "runtime_ms"],
               [(c.label, float(c.runtime_ms)) for c in checks])
    report = {
        "version": __version__,
        "config": config.as_dict(),
        "checks": [
            {
                "name": c.label,
                "status": "pass" if c.passed else "fail",
                "statistic": _fmt(c.statistic),
                "threshold": _fmt(c.threshold),
                "direction": c.direction,
                "detail": c.detail,
            }
            for c in checks
        ],
        "manifest": sorted(manifest + ["timings.csv"]),
    }
    with open(os.path.join(config.out_dir, "report.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.label}: statistic={c.statistic:.6g} "
              f"{c.direction} {c.threshold:.6g}")
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed; "
          f"artifacts in {config.out_dir}/")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# built-in systems (declared in ``verify.SYSTEMS``)
# ---------------------------------------------------------------------------

def _build(config: RunConfig, serves: str, make):
    """``make(system, params)`` for the run's system, with the given
    parameters over its defaults.  A command serves the systems that set the field
    ``serves`` names.  A ValueError anywhere in the build, grids included,
    is the one --param error."""
    served = tuple(name for name, s in SYSTEMS.items() if getattr(s, serves) is not None)
    if config.system not in served:
        raise SystemExit(f"{config.command} supports systems {served}")
    system = SYSTEMS[config.system]
    try:
        return make(system, {**system.params, **config.params})
    except ValueError as err:
        given = ", ".join(f"{k}={v}" for k, v in sorted(config.params.items()))
        raise SystemExit(f"--param {given}: {err}") from None


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

def cmd_invariant(config: RunConfig) -> int:
    def make(system, params):
        return verify._ulam_stationary(config.system, config.grid_n,
                                       dict(tol=1e-12, max_iters=3000), **params)

    t0 = time.perf_counter()
    l1, res, ref = _build(config, "gate", make)
    ms = (time.perf_counter() - t0) * 1000.0
    w1 = wasserstein1(res.measure, ref)
    rows = zip(ref.grid.nodes, res.measure.density, ref.density,
               np.abs(res.measure.density - ref.density))
    _write_csv(config.out_dir, "density.csv", ["x_mid", "density", "reference_density", "abs_err"],
               ([float(a), float(b), float(c), float(d)] for a, b, c, d in rows))
    metric, tol = SYSTEMS[config.system].gate
    checks = [
        CheckResult(name=f"{config.system}-stationary-{metric}",
                    statistic=l1 if metric == "l1" else w1, threshold=tol,
                    direction="<=", runtime_ms=ms,
                    detail=f"L1 {l1:.6g}, W1 {w1:.6g}, residual {res.residual:.3g}, "
                           f"iterations {res.iterations}"),
        CheckResult(name=f"{config.system}-converged",
                    statistic=0.0 if res.converged else 1.0, threshold=0.0,
                    direction="<=", runtime_ms=ms, detail=f"residual {res.residual:.3g}"),
    ]
    return _emit(config, checks, ["density.csv"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig) -> int:
    def make(system, params):
        ref = system.stationary(Grid(0.0, 1.0, 2048)) if system.stationary else None
        return verify._sampler(config.system, config.master_seed, config.grid_n,
                               **params), ref

    t0 = time.perf_counter()
    sampler, ref = _build(config, "t0", make)
    pe = chains.simulate_paths(sampler, config.n_paths, config.n_steps, config.threads)
    ms = (time.perf_counter() - t0) * 1000.0

    head = pe.paths[:, : min(100, pe.n_paths)].T
    _write_csv(config.out_dir, "paths_head.csv",
               ["path"] + [f"step_{k}" for k in range(pe.n_steps + 1)],
               ([int(i)] + [float(v) for v in row] for i, row in enumerate(head)))

    lo, hi = pe.extent()
    span = (hi - lo) or 1.0
    hist_grid = Grid(lo - 1e-9 * span, hi + 1e-9 * span, 128)
    rows = []
    for k, mu in enumerate(pe.marginals(hist_grid)):
        for x, w, d in zip(hist_grid.nodes, mu.weights, mu.density):
            rows.append([int(k), float(x), float(w * pe.n_paths), float(d)])
    _write_csv(config.out_dir, "marginals.csv", ["step", "x_mid", "count", "density"], rows)

    # the checks read transitions and step marginals, which zero steps lack
    checks = []
    if pe.n_steps and getattr(sampler.system, "sigma", None) is not None:
        # the chain undoes an endomorphism
        checks.append(CheckResult(name="solenoid-constraint",
                                  statistic=pe.solenoid_violation(), threshold=1e-10,
                                  direction="<=", runtime_ms=ms))
    if pe.n_steps and ref is not None:
        ks_thresh = max(0.02, 3.0 / np.sqrt(config.n_paths))
        worst = max(ks_distance(pe.paths[k], ref) for k in {1, pe.n_steps})
        checks.append(CheckResult(name="marginal-ks-vs-stationary", statistic=worst,
                                  threshold=ks_thresh, direction="<=", runtime_ms=ms,
                                  detail="KS of step marginals against the stationary law"))
    if not checks:
        checks.append(CheckResult(name="simulation-completed", statistic=0.0,
                                  threshold=0.0, direction="<=", runtime_ms=ms))
    return _emit(config, checks, ["paths_head.csv", "marginals.csv"])


# ---------------------------------------------------------------------------
# verify / schur
# ---------------------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    results = verify.run_suite(config.suite, master_seed=config.master_seed,
                               inject_fault=config.inject_fault or None,
                               threads=config.threads)
    return _emit(config, results, [])


def _parse_schur_spec(spec: str):
    """(form, argument) of a --schur-spec.  A spec that does not parse, or
    whose values leave a Schur function's domain (|C| <= 1, zeros |Z| < 1,
    radius 0 <= R < 1, 1 <= DEPTH <= MAX_SCHUR_DEPTH), is an error."""
    form, _, arg = spec.partition(":")
    toks = arg.split(",") if arg else []
    try:
        if form == "constant" and abs(c := complex(arg or "0")) <= 1.0:
            return "constant", [c]
        if form == "blaschke":
            zeros = [complex(tok) for tok in toks if tok]
            if not zeros:
                raise SystemExit("blaschke spec needs at least one zero")
            if max(map(abs, zeros)) < 1.0:
                return "blaschke", zeros
        if form == "random" and len(toks) <= 2:
            radius = float(toks[0]) if toks else 0.5
            depth = int(toks[1]) if len(toks) > 1 else 8
            if 0.0 <= radius < 1.0 and 1 <= depth <= MAX_SCHUR_DEPTH:
                return "random", (radius, depth)
    except ValueError:
        pass
    raise SystemExit(f"--schur-spec {spec!r}: schur spec must be {SCHUR_GRAMMAR}, "
                     f"with |C| <= 1, |Z| < 1, 0 <= R < 1 and 1 <= DEPTH <= {MAX_SCHUR_DEPTH}")


def cmd_schur(config: RunConfig) -> int:
    form, arg = _parse_schur_spec(config.schur_spec)
    t0 = time.perf_counter()
    if form == "random":
        radius, depth = arg
        params = schur.sample_random_schur(schur.uniform_disk_sampler(radius),
                                           depth, config.master_seed)
        rec = schur.extract_params(schur.SchurEval.from_params(params), depth)
        # a parameter the recursion stopped before has no finite residual
        resid = np.full(depth, np.inf)
        resid[: len(rec)] = np.abs(rec.params - params.params[: len(rec)])
        rows = [[int(i), float(p.real), float(p.imag), float(r)]
                for i, (p, r) in enumerate(zip(params.params, resid))]
        header = ["index", "rho_re", "rho_im", "roundtrip_residual"]
        check = CheckResult(name="roundtrip-residual", statistic=float(resid.max()),
                            threshold=1e-8, direction="<=",
                            detail="" if len(rec) == depth else
                            f"recursion stopped after {len(rec)} of {depth} parameters")
    else:
        # a degree-d Blaschke product terminates at step d + 1
        depth = 8 if form == "constant" else max(8, len(arg) + 1)
        s = (schur.SchurEval.constant(arg[0]) if form == "constant"
             else schur.blaschke_product(arg))
        params = schur.extract_params(s, depth)
        padded = np.zeros(depth, dtype=complex)
        padded[: len(params)] = params.params
        rows = [[int(i), float(p.real), float(p.imag)]
                for i, p in enumerate(padded)]
        header = ["index", "rho_re", "rho_im"]
        if form == "blaschke":
            check = CheckResult(name="blaschke-terminated",
                                statistic=1.0 if params.terminated else 0.0,
                                threshold=1.0, direction=">=",
                                detail=f"stopped after {len(params)} parameters")
        else:
            check = CheckResult(name="constant-extraction",
                                statistic=float(abs(params.params[0] - arg[0])),
                                threshold=1e-12, direction="<=")
    check.runtime_ms = (time.perf_counter() - t0) * 1000.0
    _write_csv(config.out_dir, "schur_params.csv", header, rows)
    return _emit(config, [check], ["schur_params.csv"])


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# command -> (runner, help, the settings it reads); each setting is its
# config-file key, its argparse dest and, with "_" as "-", its --flag
COMMANDS = {
    "invariant": (cmd_invariant, "stationary density of a built-in system",
                  ("system", "grid_n", "param")),
    "simulate": (cmd_simulate, "sample a path ensemble",
                 ("system", "grid_n", "paths", "steps", "threads", "param")),
    "verify": (cmd_verify, "run a verification suite", ("suite", "inject_fault", "threads")),
    "schur": (cmd_schur, "Schur parameter extraction", ("schur_spec",)),
}
SHARED = ("master_seed", "out")  # read by every command, as is --config

_FLAG_OPTIONS = {  # argparse keywords of a flag; _resolve_config checks every value
    "threads": {"help": "worker count (>= 1, at most the CPU count is used): simulate "
                        "samples and reduces blocks of paths on these threads, verify runs "
                        "its checks on them; results do not depend on this value"},
    "param": {"action": "append", "metavar": "KEY=VALUE",
              "help": "system parameter (u, a, m, K)"},
    "suite": {"choices": SUITE_CHOICES},
    "inject_fault": {"choices": verify.FAULTS,
                     "help": "diagnostic fault injection for testing the harness"},
    "schur_spec": {"help": SCHUR_GRAMMAR},
    "out": {"help": "artifact directory"},
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="transferchain",
        description="Markov chains from transfer operators: invariant measures, "
                    "path sampling and identity verification.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_, settings) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        for key in settings + SHARED:
            flags = [f"--{key.replace('_', '-')}"] + (["-s"] if key == "system" else [])
            sp.add_argument(*flags, **_FLAG_OPTIONS.get(key, {}))
        sp.add_argument("--config", help="JSON config file; flags override")
    return p


# numpy's size limit in grid cells (8 floats each) and in floats: a path holds steps + 1
MAX_GRID_N = np.iinfo(np.intp).max // (8 * np.dtype(float).itemsize)
MAX_PATH_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _size(given: dict, key: str, default: int, least: int, most: Optional[int] = None) -> int:
    """An integer setting as given by its flag or the config file, else the
    default; a value below ``least`` or above ``most`` is an error, never a
    silent fallback."""
    value = given.get(key, default)
    flag = key.replace("_", "-")
    try:  # through str, so that a config float is no silent int
        value = int(str(value))
    except ValueError:
        raise SystemExit(f"--{flag} / {key} must be an integer, got {value!r}") from None
    if value < least:
        raise SystemExit(f"--{flag} / {key} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise SystemExit(f"--{flag} / {key} must be <= {most}, got {value}")
    return value


def _text(given: dict, key: str, default: str, choices=None) -> str:
    """A string setting as given, else the default; any other value must be
    one of ``choices``, or without ``choices`` a non-empty string."""
    value = given.get(key, default)
    valid = value in choices if choices else isinstance(value, str) and value != ""
    if value != default and not valid:
        expected = f"one of {list(choices)}" if choices else "a non-empty string"
        raise SystemExit(f"--{key.replace('_', '-')} / {key} must be {expected}, "
                         f"got {value!r}")
    return value


def _settings(command: str, given: dict) -> RunConfig:
    """The settings in ``given``, each checked, else their defaults."""
    cfg = RunConfig(command=command)
    cfg.system = _text(given, "system", cfg.system)
    cfg.grid_n = _size(given, "grid_n", cfg.grid_n, 2, MAX_GRID_N)
    cfg.n_paths = _size(given, "paths", cfg.n_paths, 1, MAX_PATH_FLOATS)
    cfg.n_steps = _size(given, "steps", cfg.n_steps, 0, MAX_PATH_FLOATS // cfg.n_paths - 1)
    cfg.master_seed = _size(given, "master_seed", cfg.master_seed, 0)
    cfg.threads = _size(given, "threads", os.cpu_count() or 1, 1)
    cfg.out_dir = _text(given, "out", cfg.out_dir)
    cfg.suite = _text(given, "suite", cfg.suite, SUITE_CHOICES)
    cfg.inject_fault = _text(given, "inject_fault", cfg.inject_fault, verify.FAULTS)
    cfg.schur_spec = _text(given, "schur_spec", cfg.schur_spec)
    return cfg


def _typed_params(system: str, params: dict) -> dict:
    """``params`` typed like the system's defaults; a key it does not take is
    an error.  An unknown system is left to its command to refuse."""
    if system not in SYSTEMS:
        return params
    allowed = SYSTEMS[system].params
    unknown = set(params) - set(allowed)
    if unknown:
        raise SystemExit(f"system {system!r} takes parameters {sorted(allowed)}; "
                         f"got unknown {sorted(unknown)}")
    typed = {}
    for key, value in params.items():
        typ = type(allowed[key])
        try:  # through str, so that a config float is no silent int
            typed[key] = typ(str(value))
        except ValueError:
            raise SystemExit(f"--param {key} must be {typ.__name__}, got {value!r}") from None
    return typed


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings: each flag, else its key in the ``--config`` file,
    else the ``RunConfig`` default.  A file that cannot be read, is not a
    JSON object, sets a key the command does not read, or holds a bad value
    is an error, even where a flag overrides that value."""
    keys = COMMANDS[args.command][2] + SHARED
    given = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, ValueError) as err:  # unreadable, or not JSON
            raise SystemExit(f"--config {args.config}: {err}") from None
        if not isinstance(given, dict):
            raise SystemExit(f"--config {args.config}: must hold a JSON object, "
                             f"got {type(given).__name__}")
        unknown = set(given) - set(keys)
        if unknown:
            raise SystemExit(f"--config {args.config}: {args.command} takes no keys "
                             f"{sorted(unknown)}; it reads {sorted(keys)}")
    params = given.pop("param", {})
    if not isinstance(params, dict):
        raise SystemExit(f"--config {args.config}: param must be an object of "
                         f"KEY: VALUE, got {params!r}")
    flags = {key: value for key in keys if (value := getattr(args, key)) is not None}
    flag_params = {}
    for item in flags.pop("param", []):
        key, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"--param needs KEY=VALUE, got {item!r}")
        flag_params[key] = value
    _settings(args.command, given)  # each file value, also one a flag overrides
    cfg = _settings(args.command, {**given, **flags})
    cfg.params = {**_typed_params(cfg.system, params),
                  **_typed_params(cfg.system, flag_params)}
    return cfg


def main(argv=None) -> int:
    cfg = _resolve_config(_build_parser().parse_args(argv))
    return COMMANDS[cfg.command][0](cfg)


if __name__ == "__main__":
    sys.exit(main())
