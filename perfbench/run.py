"""The rvckit benchmark.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(perfbench/worker.py), until their timed phases add up to ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics plus the tracing overhead.
Times are scaled to a reference machine speed (see worker.py), and each
figure is a median over the repetitions.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a record of the run
(Python version, nproc, seed, commit, per-repetition samples), and the raw
per-operation latencies go to .perfbench_out/ in the checkout.

``--inject`` plants a wrong expected answer and a corrupted witness, for
perfbench/selftest.py; the run must then count failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

DEADLINE_S = 170
MIN_SETUP_SAMPLES = 5
# Medians need a few repetitions; a traced run needs one of each kind.
MIN_REPS = 3
# Tail percentiles to choose from: the reported one is the highest with at
# least ten samples beyond it in one repetition; with fewer samples than
# that (the four tail decisions) the maximum stands in.
LADDER = (50, 90, 95, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)


def tail_percentile(n: int):
    fitting = [p for p in LADDER if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else 100


def percentile(samples: list, p) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, *flags) -> dict:
    """Start one repetition; returns its result with the measured setup time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *flags]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", PERFBENCH_OUT=str(OUT))
    errlog = OUT / f"worker-{os.getpid()}.err"
    with open(errlog, "w+", encoding="utf-8") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        killer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    os.remove(errlog)
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited {code}: {stderr.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
    result["setup_s"] = setup_s
    return result


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rvckit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(reps: list, setups: list) -> tuple:
    """Latencies are each operation's median over the repetitions.

    Every repetition runs the same operations in the same order, and the
    workers have already scaled each time to the reference machine speed.
    The timed phase is rebuilt the same way: the median time of every
    operation plus the median time spent between operations (for sweep,
    the CLI's own work around the checks).
    """
    per_op = [statistics.median(times) for times in zip(*(r["latencies"] for r in reps))]
    between_ops = statistics.median(r["between_s"] for r in reps)
    p = tail_percentile(len(per_op))
    correct = len(per_op) - max(r["failed"] for r in reps)
    return {
        "ops_per_s": correct / (sum(per_op) + between_ops),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * percentile(per_op, p),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }, {"tail_percentile": p, "samples_per_rep": len(per_op)}


def per_layer(reps: list) -> dict:
    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    counts = traced[0]["counts"]
    for name in ("rainbow.search_calls", "rainbow.expansions", "rainbow.max_expansions"):
        out[name] = counts.get(name, 0)
    out["trace.overhead_ratio"] = statistics.median(r["timed_s"] for r in traced) / statistics.median(
        r["timed_s"] for r in plain
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rvckit" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: no rvckit sources (src/rvckit) or BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = perf_counter() + DEADLINE_S

    reps = []
    measured = 0.0
    try:
        while measured < args.seconds or len(reps) < MIN_REPS:
            flags = [] if args.trace else ["--gauge"]
            if args.trace and len(reps) % 2:
                flags += ["--trace", "--spans", str(OUT / f"spans-{args.workload}.csv")]
            if not reps:
                flags.append("--full-check")
            if args.inject:
                flags.append("--inject")
            reps.append(run_worker(args, deadline, *flags))
            measured += reps[-1]["timed_s"]
        setup_runs = [r for r in reps if "layers" not in r]
        while not args.trace and len(setup_runs) < MIN_SETUP_SAMPLES:
            setup_runs.append(run_worker(args, deadline, "--setup-only", "--gauge"))
        setups = [r["setup_s"] * r["setup_scale"] for r in setup_runs]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Counts that do not depend on the machine must repeat exactly, traced or not.
    failed = sum(r["failed"] for r in reps)
    notes = [note for r in reps for note in r["notes"]]
    for i, r in enumerate(reps[1:], 1):
        if r["counts"] != reps[0]["counts"]:
            failed += len(r["latencies"])
            notes.append(f"repetition {i} counts {r['counts']} differ from {reps[0]['counts']}")
    attempted = sum(len(r["latencies"]) for r in reps)

    if args.trace:
        values = per_layer(reps)
        extra = {"layers": values}
        names = spec["per_layer"]
    else:
        values, extra = end_to_end(reps, setups)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "failed_ratio": failed / attempted,
        "counts": reps[0]["counts"],
        "notes": notes[:50],
        "setup_samples_s": setups,
        "reps": [
            {k: r[k] for k in ("timed_s", "gauge_s", "setup_s", "failed", "rss_mb")}
            | {"ops": len(r["latencies"]), "traced": "layers" in r}
            for r in reps
        ],
        **extra,
    }
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps(record | {"latencies_s": [r["latencies"] for r in reps]}), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
