"""Run the benchmark in alternating pairs on two checkouts and write the record.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr N \\
        --workload verify --workload catalog --pairs 10

For each workload and each seed 1..pairs it runs ``perfbench/run.py`` once
in each checkout, the parent first for odd seeds and the change first for
even seeds, then one ``--trace 1`` run per side and workload at seed 0.
Each run lasts the benchmark's ``run_seconds`` unless ``--seconds`` is
given.  Runs are sequential, so the two sides never share the machine.  It
writes ``BENCH_<pr>.json`` (or ``--out``) after every run, and at the end
adds:

- ``summary``: per workload and end-to-end metric of BENCHMARK.json, the
  parent's median and quartiles, the change's median, its relative move and
  in how many seed pairs the change was better;
- ``traced_counts``: the machine-independent counts of the traced runs.

It stops with an error on the first run that exits non-zero or prints no
result line.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_COUNTS = (
    "rainbow.search_calls",
    "rainbow.expansions",
    "rainbow.max_expansions",
    "solver.nodes",
    "chromatic.nodes",
)
NO_CLAIM = "none: no gain is claimed; every end-to-end metric must stay within its BENCHMARK.json bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One run of the benchmark; returns its record line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(runs: list, end_to_end: list) -> dict:
    """Parent median and quartiles, change median and wins, per workload and metric."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                by_side[r["side"]][r["seed"]] = r["last_line"]["metrics"]
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        summary[workload] = {}
        for metric in end_to_end:
            name = metric["name"]
            parent = [by_side["parent"][s][name]["value"] for s in seeds]
            change = [by_side["change"][s][name]["value"] for s in seeds]
            quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            sign = 1 if metric["better"] == "higher" else -1
            p_med, c_med = statistics.median(parent), statistics.median(change)
            summary[workload][name] = {
                "parent_median": round(p_med, 6),
                "parent_quartiles": [round(quartiles[0], 6), round(quartiles[2], 6)],
                "change_median": round(c_med, 6),
                "change_over_parent": round(c_med / p_med - 1, 4) if p_med else None,
                "pairs": len(seeds),
                "change_better_in": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
    return summary


def traced_counts(runs: list) -> dict:
    out = {}
    for r in runs:
        if r["trace"]:
            metrics = r["last_line"]["metrics"]
            counts = {name: metrics[name]["value"] for name in TRACED_COUNTS if name in metrics}
            out.setdefault(r["workload"], {})[r["side"]] = counts
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--pairs", type=int, default=10, help="untraced seed pairs per workload")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--claim", default=NO_CLAIM)
    parser.add_argument("--note", default="", help="what else ran on the machine")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json")
    args = parser.parse_args()
    out = args.out or Path(f"BENCH_{args.pr}.json")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    plan = []
    for workload in args.workload:
        for seed in range(1, args.pairs + 1):
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            plan += [(side, workload, seed, 0) for side in sides]
    plan += [(side, workload, 0, 1) for workload in args.workload for side in ("parent", "change")]

    bench = {
        "pr": args.pr,
        "claim": args.claim,
        "parent_commit": None,
        "command": (
            "python3 perfbench/run.py --workload <workload> --seed <seed> "
            f"--seconds {seconds:g} --trace <0|1>"
        ),
        "machine": None,
        "order": (
            f"untraced pairs seed 1-{args.pairs} per workload; the parent runs first for odd seeds "
            "and the change first for even seeds; the traced runs (seed 0) come last"
        ),
        "runs": [],
    }
    for order, (side, workload, seed, trace) in enumerate(plan, 1):
        record, last_line = run_once(checkouts[side], workload, seed, seconds, trace)
        if side == "parent":
            bench["parent_commit"] = record["commit"]
        bench["machine"] = {"cpus": record["nproc"], "python": record["python"], "note": args.note}
        run = {"order": order, "side": side, "workload": workload, "seed": seed, "trace": trace}
        bench["runs"].append(run | {"last_line": last_line})
        step = f"{order}/{len(plan)} {side} {workload} seed {seed} trace {trace}"
        print(f"{step}: correct {last_line['correct']}", flush=True)
        out.write_text(json.dumps(bench, indent=1) + "\n")

    runs = bench.pop("runs")
    bench |= {"summary": summarize(runs, spec["end_to_end"]), "traced_counts": traced_counts(runs), "runs": runs}
    out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
