"""Check that the benchmark can fail.

    python3 perfbench/selftest.py

1. A catalog run with a planted wrong expected answer and a corrupted
   witness must report itself incorrect and count both faults.
2. In a directory holding only BENCHMARK.json and perfbench/ (no rvckit
   sources), the benchmark must exit non-zero without printing a result.

Exits 0 when both hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["--workload", "catalog", "--seed", "0", "--seconds", "1", "--trace", "0"]


def main() -> int:
    ok = True
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGS, "--inject"], cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    notes = " | ".join(record["notes"])
    caught = {
        "wrong expected answer": "graph 0 " in notes and "expected 1" in notes,
        "corrupted witness": "witness rejected" in notes,
        "failed_ratio > 0": record["failed_ratio"] > 0 and not result["correct"],
    }
    for what, seen in caught.items():
        print(f"{'ok  ' if seen else 'FAIL'} injected run: {what}")
        ok &= seen

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGS], cwd=bare, capture_output=True, text=True, timeout=180
    )
    shutil.rmtree(bare)
    refused = done.returncode != 0 and '"correct"' not in done.stdout
    print(f"{'ok  ' if refused else 'FAIL'} bare directory: exit {done.returncode}, no result line")
    ok &= refused
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
