"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``transferchain`` from outside: it
replaces every module attribute (and, for methods, the class attribute)
that names a target with a timing wrapper, and restores the originals on
``uninstall``.  Spans stay in memory as ``Span`` records and are written
out by the caller when the run ends.

Per-layer metrics are named ``<module>.<function>.<kind>``: ``self_s`` is
the summed span duration minus the time covered by child spans, ``calls``
the call count, and the other kinds count work read from the arguments.
"""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

PACKAGE = "transferchain"
MODULES = ("grids", "operators", "invariant", "chains", "wavelets", "solenoid",
           "schur", "verify", "cli")
SAMPLER_KINDS = ("branch", "controlled", "gauss-backward", "finite")
SUITES = ("operators", "chains", "solenoid", "wavelet", "schur")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    self_s: float


# --- work counters: (counts, args, kwargs, result, duration) -> None --------

def _count_points(counts, args, kwargs, result, dur):
    counts["grids.eval.points"] += np.size(args[1])


def _count_m0_points(counts, args, kwargs, result, dur):
    counts["wavelets.m0_sq.points"] += np.size(args[1])


def _count_branch_evals(counts, args, kwargs, result, dur):
    op, f = args[0], args[1]
    counts["operators.apply_gauss.branch_evals"] += op.truncation_K * f.grid.n


def _count_ulam_bytes(counts, args, kwargs, result, dur):
    n = result.grid.n
    counts["invariant.ulam_bytes"] = max(counts["invariant.ulam_bytes"], 8 * n * n)


def _count_iters(counts, args, kwargs, result, dur):
    counts["invariant.power_iterate.iters"] += result.iterations


def _count_transitions(counts, args, kwargs, result, dur):
    kind, n = args[0].kind, np.size(args[1])
    counts["chains.step_batch.transitions"] += n
    counts[f"transitions.{kind}"] += n
    counts[f"step_batch_s.{kind}"] += dur


@dataclass(frozen=True)
class Target:
    """A traced callable: ``attr`` is ``func`` or ``Class.method`` in ``module``."""

    metric: str  # "<module>.<function>"
    module: str
    attr: str
    kinds: tuple = ("self_s",)
    counter: Optional[Callable] = None


_ESTIMATORS = ("martingale_check", "conditional_expectation_check",
               "markov_property_check", "quasi_invariance_check",
               "estimate_conditional", "path_moment_mc", "nested_operator_expectation")

TARGETS = (
    Target("grids.eval", "grids", "GridFunction.eval", ("calls", "points", "self_s"),
           _count_points),
    Target("grids.histogram", "grids", "histogram"),
    Target("grids.ks_distance", "grids", "ks_distance"),
    Target("grids.wasserstein1", "grids", "wasserstein1"),
    Target("operators.apply_gauss", "operators", "apply_gauss",
           ("calls", "self_s", "branch_evals"), _count_branch_evals),
    Target("operators.apply_integral", "operators", "apply_integral", ("calls", "self_s")),
    Target("operators.cell_flow_matrix", "operators", "cell_flow_matrix"),
    Target("operators.weight_matrix", "operators", "BranchSystem.weight_matrix"),
    Target("operators.branch_values", "operators", "BranchSystem.branch_values"),
    Target("invariant.build_ulam", "invariant", "build_ulam", ("self_s",), _count_ulam_bytes),
    Target("invariant.power_iterate", "invariant", "power_iterate", ("self_s", "iters"),
           _count_iters),
    Target("invariant.hutchinson_iterate", "invariant", "hutchinson_iterate"),
    Target("chains.step_batch", "chains", "step_batch", ("self_s", "transitions"),
           _count_transitions),
    Target("chains.simulate_paths", "chains", "simulate_paths"),
    Target("chains.chain_apply", "chains", "chain_apply"),
    *(Target(f"chains.{name}", "chains", name) for name in _ESTIMATORS),
    Target("wavelets.m0_sq", "wavelets", "WaveletFilter.m0_sq", ("self_s", "points"),
           _count_m0_points),
    Target("wavelets.cascade", "wavelets", "cascade"),
    Target("wavelets.verify_ruelle_fixed", "wavelets", "verify_ruelle_fixed"),
    Target("solenoid.pd_gram", "solenoid", "pd_gram"),
    Target("solenoid.pi_k_distribution", "solenoid", "pi_k_distribution"),
    Target("solenoid.filter_product", "solenoid", "filter_product"),
    Target("schur.extract_params", "schur", "extract_params"),
    Target("schur.eval", "schur", "SchurEval.eval", ("calls", "self_s")),
    # traced for its span and error count only; suite times come from the report
    Target("verify.run_suite", "verify", "run_suite", ()),
    Target("cli.main", "cli", "main"),
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, in order, with its unit."""
    units = {}
    for t in TARGETS:
        for kind in t.kinds:
            units[f"{t.metric}.{kind}"] = "s" if kind == "self_s" else "count"
        if t.metric == "invariant.build_ulam":
            units["invariant.ulam_bytes"] = "bytes"
        if t.metric == "chains.step_batch":
            for kind in SAMPLER_KINDS:
                units[f"chains.transitions_per_s.{kind}"] = "1/s"
    units["invariant.w1_err"] = "1"
    for suite in SUITES:
        units[f"verify.suite.{suite}.s"] = "s"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.unseen_refs"] = "count"
    return units


def _package_modules(package: str) -> list:
    """The package and all its submodules, imported."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Wraps the ``TARGETS`` of a package and records one span per call."""

    def __init__(self, targets=TARGETS, clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: list = []  # targets whose attribute no longer exists
        self._stack: list = []
        self._patches: list = []  # (owner, attribute name, original)
        self._originals: dict = {}  # metric -> original function
        self._wrappers: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()

    def wrap(self, metric: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        module = metric.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]  # own index, time covered by children
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(metric, start, end, parent,
                                         (end - start) - frame[1])
                if self._stack:
                    self._stack[-1][1] += end - start
            if counter is not None:
                counter(self.counts, args, kwargs, result, end - start)
            return result

        del traced.__wrapped__  # keep the original reachable only through the closure
        return traced

    def install(self) -> "Tracer":
        modules = _package_modules(PACKAGE)
        by_name = {m.__name__: m for m in modules}
        for t in self.targets:
            home = by_name.get(f"{PACKAGE}.{t.module}")
            owner_name, _, method = t.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = (owner.__dict__.get(method) if isinstance(owner, type)
                        else getattr(owner, method, None))
            if not callable(original):
                self.missing.append(t.metric)
                continue
            wrapper = self.wrap(t.metric, original, t.counter)
            self._originals[t.metric] = original
            self._wrappers.append(wrapper)
            if isinstance(owner, type):
                self._patch(owner, method, wrapper)
                continue
            # every module attribute naming the function, so that names bound
            # by ``from .x import y`` are traced too
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        return self

    def _patch(self, owner, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._originals.clear()
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def unseen(self) -> list:
        """Targets still reachable without their wrapper, e.g. a bound method
        or a function reference captured before ``install``: calls through
        them are not traced.  Returns (metric, referrer type) pairs."""
        own = {id(self._originals)} | {id(p) for p in self._patches}
        own |= {id(cell) for w in self._wrappers for cell in w.__closure__}
        out = []
        for metric in list(self._originals):
            for ref in gc.get_referrers(self._originals[metric]):
                if id(ref) not in own:
                    out.append((metric, type(ref).__name__))
        return out

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer values from the recorded spans and counters; the names
        of ``per_layer_units`` that need more than the trace are left out."""
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        for span in self.spans:
            if span is None:
                continue
            self_s[span.name] += span.self_s
            calls[span.name] += 1
            if span.parent < 0:
                top_level += span.end - span.start
        values = {}
        for t in self.targets:
            for kind in t.kinds:
                key = f"{t.metric}.{kind}"
                if kind == "self_s":
                    values[key] = self_s[t.metric]
                elif kind == "calls":
                    values[key] = calls[t.metric]
                else:
                    values[key] = self.counts[key]
        values["invariant.ulam_bytes"] = self.counts["invariant.ulam_bytes"]
        for kind in SAMPLER_KINDS:
            busy = self.counts[f"step_batch_s.{kind}"]
            values[f"chains.transitions_per_s.{kind}"] = (
                self.counts[f"transitions.{kind}"] / busy if busy > 0 else 0.0)
        for module in MODULES:
            values[f"{module}.errors"] = self.errors[module]
        values["trace.coverage"] = top_level / wall_s if wall_s > 0 else 0.0
        return values
