"""One repeat of a workload, in a fresh process.

Started by ``run.py``; writes its measurements to ``--result`` as JSON.
Set-up runs from process start (``--spawned-at``, a ``time.monotonic``
reading taken by the parent just before it started this process) until the
workload's inputs are ready.  With ``--trace`` the public functions named in
``spans.TARGETS`` are wrapped before the inputs are built, and the spans of
the timed section are written next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time

import spans
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = spans.Tracer().install() if args.trace else None
    prepared = workloads.prepare(args.workload, args.seed, args.size, args.out)
    record = {"setup_s": time.monotonic() - args.spawned_at, "traced": args.trace}
    if not args.setup_only:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        workloads.execute(prepared)
        wall = time.perf_counter() - t0
        record["wall_s"] = wall
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["gates"] = [[g.name, g.ok, g.detail] for g in workloads.gates(prepared)]
        record["digests"] = workloads.digests(prepared)
        record["suite_s"] = workloads.suite_seconds(prepared)
        record["w1_err"] = workloads.w1_error(prepared)
        if tracer is not None:
            record["unseen"] = tracer.unseen() + [(m, "missing") for m in tracer.missing]
            record["layers"] = tracer.layer_metrics(wall)
            record["layers"]["trace.unseen_refs"] = len(record["unseen"])
            with open(args.result + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": list(spans.Span._fields),
                           "spans": [list(s) for s in tracer.spans]}, fh)
    shutil.rmtree(args.out, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
