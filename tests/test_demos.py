import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from test_golden import GOLDEN, _mismatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo -> the golden file of its stdout; demo 03 prints its own path
PINNED = {"01_stable_basics.py": "demo_01.txt",
          "02_geometric_power.py": "demo_02.txt"}


def run_demo(demo: pathlib.Path, cwd: pathlib.Path) -> subprocess.CompletedProcess:
    # run a copy in cwd: demos write their figures next to the script
    script = cwd / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo.name in PINNED:
        want = (GOLDEN / PINNED[demo.name]).read_text()
        assert _mismatch(proc.stdout, want) is None, _mismatch(proc.stdout, want)
