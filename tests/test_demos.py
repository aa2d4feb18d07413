import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd, tmpdir):
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmpdir)},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "name",
    [
        "01_rainbow_basics.py",
        "02_requested_pairs.py",
        "03_pendant_reduction.py",
        "05_construction_checks.py",
    ],
)
def test_demo_runs_cleanly(name, tmp_path, tmp_path_factory):
    run = run_demo(name, tmp_path, tmp_path_factory.mktemp("tmpdir"))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
    assert list(tmp_path.iterdir()) == []


def test_gadget_tour_leaves_the_working_directory_clean(tmp_path, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("tmpdir")
    run = run_demo("04_gadget_tour.py", tmp_path, scratch)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert list(tmp_path.iterdir()) == []
    [out_dir] = scratch.iterdir()
    assert sorted(p.name for p in out_dir.iterdir()) == ["gadget_p3_k2.dot", "gadget_p3_k2.json"]
    assert str(out_dir) in run.stdout
