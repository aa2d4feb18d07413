"""One repetition of a workload, in a fresh interpreter.

Run by run.py, never by hand.  Prints ``READY`` once the inputs are built,
so the parent can time interpreter start, import and setup together, then
one JSON line with the repetition's samples, counts and failures.

A fresh interpreter per repetition matters: ``harness._cached_gadget`` and
the global ``rvckit.search_stats`` would otherwise carry over.

With ``--gauge`` (the end-to-end runs) a repetition scales every time it
reports to the machine speed the gauge (workloads.Gauge) measured around
it: a time t becomes t * REFERENCE_S / (gauge sample time nearby).  The
worker stays on one CPU so that the gauge and the work it scales share it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# Gauge sample time that reported times are scaled to: a typical sample on
# the 2-core machine the benchmark was defined on.
REFERENCE_S = 0.0055


def import_rvckit():
    """Import rvckit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rvckit

    if Path(rvckit.__file__).resolve().parent != src / "rvckit":
        raise SystemExit(f"rvckit imported from {rvckit.__file__}, not from {src}")
    return rvckit


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--full-check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gauge", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rk = import_rvckit()
    import tracing
    import workloads

    tracer = tracing.install() if args.trace else None
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(rk, args.seed)
    print("READY", flush=True)
    gauge = workloads.Gauge() if args.gauge else None
    setup_scale = 1.0
    if gauge is not None:
        for _ in range(workloads.Gauge.NEAREST):
            gauge.sample()
        setup_scale = REFERENCE_S / statistics.median(s for _, s in gauge.samples)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    gauge_before = gauge.spent if gauge is not None else 0.0
    start = perf_counter()
    records = workload.run(rk, gauge)
    timed_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [r[0] for r in records]
    between_s = timed_s - sum(latencies)
    gauge_s = None
    if gauge is not None:
        gauge_s = statistics.median(s for _, s in gauge.samples)
        between_s = (between_s - (gauge.spent - gauge_before)) * REFERENCE_S / gauge_s
        latencies = [r[0] * REFERENCE_S / gauge.around(r[4]) for r in records]

    with open(HERE / "expected" / f"{args.workload}.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    failed, notes, counts = workload.check(rk, records, expected, args.full_check, args.inject)
    counts["rainbow.max_expansions"] = rk.search_stats.max_expansions
    result = {
        "timed_s": timed_s,
        "between_s": between_s,
        "setup_scale": setup_scale,
        "gauge_s": gauge_s,
        "latencies": latencies,
        "failed": failed,
        "notes": notes,
        "counts": counts,
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        tail = workload.tail_layers(records) if args.workload == "tail" else {}
        result["layers"] = tracing.layer_metrics(tracer.spans, tail)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
