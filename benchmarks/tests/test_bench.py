"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_every_metric_the_code_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == ["verify-all", "stationary-large",
                                                      "paths-large"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verify-all", "stationary-large", "paths-large"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.unseen_refs"]["value"] == 0
        assert result["metrics"]["cli.main.self_s"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    targets = (spans.Target("cli.main", "cli", "main"),
               spans.Target("grids.eval", "grids", "GridFunction.eval", ("calls", "self_s")))
    # outer runs 0..10, its two children 2..5 and 6..7
    tracer = spans.Tracer(targets=targets, clock=_fake_clock([0, 2, 5, 6, 7, 10]))
    leaf = tracer.wrap("grids.eval", lambda: None)

    def outer():
        leaf()
        leaf()

    tracer.wrap("cli.main", outer)()
    top, first, second = tracer.spans
    assert (top.parent, first.parent, second.parent) == (-1, 0, 0)
    assert top.self_s == 10 - 3 - 1
    values = tracer.layer_metrics(wall_s=20.0)
    assert values["cli.main.self_s"] == 6
    assert values["grids.eval.self_s"] == 4
    assert values["grids.eval.calls"] == 2
    assert values["trace.coverage"] == 0.5


def test_exception_closes_spans_and_counts_per_module():
    tracer = spans.Tracer(targets=(), clock=_fake_clock(range(10)))

    def boom():
        raise ValueError("bad input")

    inner = tracer.wrap("grids.eval", boom)
    outer = tracer.wrap("cli.main", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    assert [s.name for s in tracer.spans] == ["cli.main", "grids.eval"]
    assert tracer.errors == {"grids": 1, "cli": 1}
    assert tracer._stack == []


def test_wrappers_reach_every_alias_and_report_escaped_references():
    from transferchain import cli, grids, verify

    original_ks, original_eval = grids.ks_distance, grids.GridFunction.eval
    escaped = grids.GridFunction.constant(grids.Grid(0.0, 1.0, 4), 1.0).eval
    with spans.Tracer() as tracer:
        # ``from .grids import ks_distance`` bindings in cli and verify
        assert cli.ks_distance is grids.ks_distance is verify.ks_distance
        assert grids.ks_distance is not original_ks
        assert grids.GridFunction.eval is not original_eval
        assert ("grids.eval", "method") in tracer.unseen()
        assert tracer.missing == []
    del escaped
    assert cli.ks_distance is original_ks and grids.GridFunction.eval is original_eval


def test_a_report_that_differs_between_repeats_counts_as_failed():
    gates = [["a", True, ""], ["b", True, ""]]
    first = {"gates": gates, "digests": {"verify": "x"}}
    same = {"gates": gates, "digests": {"verify": "x"}}
    differs = {"gates": gates, "digests": {"verify": "y"}}
    assert run.tally([first, same]) == (5, 0)
    assert run.tally([first, differs]) == (5, 1)
    assert run.tally([first, {"error": "exit 1"}]) == (3, 1)
    assert run.tally([{"gates": [["a", False, ""]], "digests": {}}]) == (1, 1)
