import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gadget_tour_leaves_the_working_directory_clean(tmp_path, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("tmpdir")
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_gadget_tour.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(scratch)},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert list(tmp_path.iterdir()) == []
    [out_dir] = scratch.iterdir()
    assert sorted(p.name for p in out_dir.iterdir()) == ["gadget_p3_k2.dot", "gadget_p3_k2.json"]
    assert str(out_dir) in run.stdout
