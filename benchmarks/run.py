"""Benchmark of the transferchain CLI and library.

    python3 benchmarks/run.py --workload <verify-all|stationary-large|paths-large>
                              --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client: each repeat is a fresh Python process
(``worker.py``) that builds the workload's inputs from the seed and runs
the workload once.  Repeats continue until the next one would end after
``--seconds``; at least two run, so that every repeat's ``report.json``
can be compared byte for byte with the first one of the same seed.

``--trace 0`` reports the end-to-end metrics (medians over the repeats):
``wall_s``, ``setup_s`` (also sampled by set-up-only processes) and
``peak_rss_mb``.  ``--trace 1`` alternates an untraced and a traced
repeat and reports the per-layer metrics of ``spans.per_layer_units``.
Every gate of every repeat is an attempted operation; a failed gate, a
report that differs from the first repeat's, or a repeat that crashed
counts as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; details and
spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from stamp import machine_stamp

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # set-up-only processes before each untraced repeat, for setup_s
TIME_LIMIT_S = 170.0  # a run must end well inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(args, out: Path, tag: str, traced: bool = False, setup_only: bool = False,
          timeout: float = TIME_LIMIT_S) -> dict:
    """Run one worker process to completion and return its record."""
    result = out / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--out", str(out / tag),
           "--result", str(result)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "process_s": time.monotonic() - t0}
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail), "process_s": elapsed}
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["process_s"] = elapsed
    return record


def tally(repeats: list) -> tuple:
    """(attempted, failed) over every gate of every repeat, plus one
    operation per report of each repeat after the first, failed when its
    digest differs from the first repeat's."""
    attempted = failed = 0
    first = None
    for rep in repeats:
        if "error" in rep:
            attempted += 1
            failed += 1
            continue
        attempted += len(rep["gates"])
        failed += sum(not ok for _, ok, _ in rep["gates"])
        if first is None:
            first = rep["digests"]
            continue
        for name, digest in first.items():
            attempted += 1
            failed += rep["digests"].get(name) != digest
    return attempted, failed


def median_of(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def measure(args, out: Path) -> tuple:
    """Run the repeats; returns (all records, untraced, traced, set-up samples).

    Untraced runs also start set-up-only processes before every repeat, so
    that setup_s is sampled across the whole run, not in one burst."""
    start = time.monotonic()
    records, setups = [], []

    def left() -> float:
        return TIME_LIMIT_S - (time.monotonic() - start)

    group = (False, True) if args.trace else (False,)
    probes = 0 if args.trace else SETUP_PROBES
    min_groups = 1 if args.trace else 2
    groups = 0
    while True:
        t0 = time.monotonic()
        for i in range(probes):
            probe = spawn(args, out, f"setup{groups}-{i}", setup_only=True, timeout=left())
            if "error" in probe:
                records.append(probe)
                break
            setups.append(probe["setup_s"])
        for traced in group:
            records.append(spawn(args, out, f"rep{len(records)}", traced=traced,
                                 timeout=left()))
        groups += 1
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if any("error" in r for r in records) or left() < took:
            break
        if groups >= min_groups and elapsed + took > args.seconds:
            break
    ok = [r for r in records if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    setups += [r["setup_s"] for r in untraced]
    return records, untraced, traced, setups


def end_to_end(untraced: list, setups: list) -> dict:
    values = {"wall_s": median_of(untraced, "wall_s"), "setup_s": statistics.median(setups),
              "peak_rss_mb": median_of(untraced, "peak_rss_mb")}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced: list, traced: list) -> dict:
    units = spans.per_layer_units()
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in units if k in traced[0]["layers"]}
    for suite in spans.SUITES:
        values[f"verify.suite.{suite}.s"] = statistics.median(
            r["suite_s"].get(suite, 0.0) for r in untraced)
    values["invariant.w1_err"] = traced[0]["w1_err"]
    values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    if not (ROOT / "src" / "transferchain" / "__init__.py").is_file():
        print(f"benchmark: no transferchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="tiny runs the same code paths on small inputs, for tests")
    args = ap.parse_args(argv)

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    records, untraced, traced, setups = measure(args, out)
    for r in records:
        if "error" in r:
            print(f"benchmark: repeat failed: {r['error']}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("benchmark: no repeat completed", file=sys.stderr)
        return 1
    attempted, failed = tally(records)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    stamp = machine_stamp(ROOT)
    unseen = sorted({tuple(u) for r in traced for u in r["unseen"]})
    for metric, referrer in unseen:
        print(f"benchmark: {metric} is also reachable through a {referrer} "
              "that the tracer cannot wrap", file=sys.stderr)
    for r in records:
        for name, ok, detail in r.get("gates", []):
            if not ok:
                print(f"benchmark: gate failed: {name}: {detail}", file=sys.stderr)
    samples = {"repeats": len(untraced), "traced_repeats": len(traced),
               "setup_samples": len(setups)}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "stamp": stamp, "samples": samples, "attempted": attempted,
                   "failed": failed, "metrics": metrics, "repeats": records}, fh, indent=1)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("samples " + json.dumps(samples) + f" fail_rate {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
