import ast
import csv
import importlib
import os
import pkgutil
import threading
from pathlib import Path

import numpy as np
import pytest

import transferchain
from transferchain import chains, cli, operators, verify
from transferchain.grids import Grid, arcsine_ppf


@pytest.mark.parametrize("seed", [41, 161, 205, 222, 240, 280])
def test_closed_form_check_passes_at_formerly_red_seeds(seed):
    # these seeds pushed the bin-centre comparison past 5 under the arcsine law
    (thresh, direction), = [(t, d) for _, name, t, d, _ in verify._REGISTRY
                            if name == "conditional-expectation-closed-form"]
    stat, _ = verify._conditional_closed(seed, None)
    assert direction == "<=" and thresh == 5.0
    assert stat <= thresh


def test_closed_form_check_flags_shifted_closed_form():
    g = Grid(0.0, 1.0, 512)
    s = chains.MarkovSampler(operators.random_control_system(g), arcsine_ppf,
                             master_seed=47)
    pe = chains.simulate_paths(s, 1_000_000, 1)
    assert verify._closed_form_z(pe, lambda x: (1 + 2 * x) / 4) <= 5.0
    assert verify._closed_form_z(pe, lambda x: (1 + 2 * x) / 4 + 0.02) > 5.0


def _markov_sampler_builders(path: Path) -> list:
    """The names of the functions in ``path`` that call MarkovSampler, one
    entry per call ("<module>" for a call outside any function)."""
    builders = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "MarkovSampler":
                    builders.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return builders


def test_built_in_chains_are_built_in_one_place():
    # every built-in chain comes from verify.SYSTEMS through verify._sampler
    src = Path(transferchain.__file__).parent
    assert _markov_sampler_builders(src / "verify.py") == ["_sampler"]
    assert _markov_sampler_builders(src / "cli.py") == []


def test_every_chain_kernel_lives_in_operators_with_all_four_operations():
    # a class whose ``kind`` is a label is a chain kernel, which MarkovSampler
    # takes; the sampler's own ``kind`` is a property that reads the kernel's
    kernels = {}
    for info in pkgutil.iter_modules(transferchain.__path__):
        module = importlib.import_module(f"transferchain.{info.name}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and isinstance(vars(cls).get("kind"), str):
                kernels[f"{info.name}.{name}"] = cls
    assert sorted(kernels) == ["operators.BranchSystem", "operators.ControlledSystem",
                               "operators.GaussOperator"]
    for name, cls in kernels.items():
        missing = [op for op in ("apply", "chain_apply", "flow", "step")
                   if not callable(vars(cls).get(op))]
        assert missing == [], f"{name} lacks {missing}"


def test_cli_choices_come_from_verify():
    assert cli.SUITE_CHOICES == ("operators", "chains", "solenoid", "wavelet", "schur", "all")
    assert verify.FAULTS == ("mis-normalized-filter",)
    assert cli.SYSTEMS is verify.SYSTEMS


class _CheckFailed(Exception):
    pass


def test_run_suite_raises_the_registry_first_error(monkeypatch):
    # the later check fails first; the earlier one fails once it has
    later_failed = threading.Event()

    def early(seed, fault):
        later_failed.wait(timeout=10)
        raise _CheckFailed("early")

    def late(seed, fault):
        later_failed.set()
        raise _CheckFailed("late")

    def fine(seed, fault):
        return 0.0, ""

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_REGISTRY", [("t", "fine", 0.0, "<=", fine),
                                              ("t", "early", 0.0, "<=", early),
                                              ("t", "late", 0.0, "<=", late),
                                              ("t", "after", 0.0, "<=", fine)])
    with pytest.raises(_CheckFailed, match="early"):
        verify.run_suite("t", threads=2)
    assert later_failed.is_set()


def test_run_suite_refuses_an_unknown_fault(monkeypatch):
    # an unknown fault reached no check, so the run reported all green
    ran = []
    monkeypatch.setattr(verify, "_REGISTRY", [
        ("t", "fine", 1.0, "<=", lambda seed, fault: ran.append(fault) or (0.0, ""))])
    with pytest.raises(ValueError, match=r"unknown fault 'bogus'; choose from "
                                         r"\['mis-normalized-filter'\]"):
        verify.run_suite("t", inject_fault="bogus")
    assert ran == []
    verify.run_suite("t", inject_fault=verify.FAULTS[0])
    assert ran == [verify.FAULTS[0]]


def test_run_suite_compares_each_statistic_with_its_declaration(monkeypatch):
    monkeypatch.setattr(verify, "_REGISTRY", [
        ("t", "low", 1.0, "<=", lambda seed, fault: (2.0, "above")),
        ("t", "high", 8.0, ">=", lambda seed, fault: (np.float64(9.0), f"seed {seed}"))])
    low, high = verify.run_suite("t", master_seed=3)
    assert (low.label, low.statistic, low.threshold, low.direction, low.detail, low.passed) \
        == ("t/low", 2.0, 1.0, "<=", "above", False)
    assert (high.label, high.statistic, high.threshold, high.direction, high.detail,
            high.passed) == ("t/high", 9.0, 8.0, ">=", "seed 3", True)
    assert type(high.statistic) is float


def test_declared_checks_match_the_pinned_table():
    # the thresholds and directions are the contract: changing one, or
    # adding, removing or moving a check, must change tests/checks.csv too
    with open(Path(__file__).with_name("checks.csv"), newline="", encoding="utf-8") as fh:
        pinned = [(r["suite"], r["name"], float(r["threshold"]), r["direction"])
                  for r in csv.DictReader(fh)]
    declared = [(s, name, float(t), d) for s, name, t, d, _ in verify._REGISTRY]
    assert declared == pinned


def test_public_names_resolve():
    modules = [transferchain] + [importlib.import_module(f"transferchain.{m.name}")
                                 for m in pkgutil.iter_modules(transferchain.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}"


# public names that no library code reads, each kept for a reason outside src/
UNREAD_PUBLIC_NAMES = {
    "chains.estimate_conditional": "a target of the benchmark's tracer (benchmarks/spans.py)",
    "schur.eval_from_params": "the pointwise reference the Schur tests compare against",
}


def _names_read(stem: str, tree: ast.Module) -> set:
    """The ``module.name``s that the module ``stem`` reads: a bare name of
    its own or one it imports by ``from .m import name``, and ``alias.name``
    on a module it imports by ``from . import m``.  A bare attribute read
    such as ``x.step`` names no module, so it counts for none."""
    bare = {}  # local name -> qualified name
    modules = {}  # local alias -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    bare[local] = f"{node.module}.{alias.name}"
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(bare.get(node.id, f"{stem}.{node.id}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            read.add(f"{modules[node.value.id]}.{node.attr}")
    return read


def test_every_public_name_is_read_in_src():
    src = Path(transferchain.__file__).parent
    stems = [p.stem for p in sorted(src.glob("*.py")) if p.stem != "__init__"]
    read = set()
    for stem in stems:
        read |= _names_read(stem, ast.parse((src / f"{stem}.py").read_text(encoding="utf-8")))
    public = [f"{stem}.{name}" for stem in stems
              for name in getattr(importlib.import_module(f"transferchain.{stem}"), "__all__", [])]
    unread = [name for name in public if name not in read and name not in UNREAD_PUBLIC_NAMES]
    assert unread == [], f"public names that nothing in src/ reads: {unread}"
