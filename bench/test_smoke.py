"""Smoke test of the benchmark harness at reduced size.

Run from the repository root (about two minutes on two CPUs):

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    detail = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed1-trace{trace}.json").read_text())
    assert detail["checks_attempted"] > 0
    assert set(detail["machine"]) >= {"nproc", "cpu_model", "python", "numpy",
                                      "scipy", "commit"}
    if trace:
        assert detail["independence_mismatches"] == 0
        names = {s["name"] for s in detail["spans"]}
        assert {"workload", "systems.ml_threshold", "plotting.write_ber_svg",
                "stable.std_pdf"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_balance_limits():
    assert checks.tail_limit("A", 1.0) == 1.0
    assert abs(checks.tail_limit("B", 0.0) - 0.59425) < 5e-6
    assert abs(checks.tail_limit("C", 0.5) - 0.3507) < 5e-5
    assert checks.tail_limit("C", 0.0) == 0.0


def _csv(rows):
    lines = [",".join(checks.CSV_HEADER)]
    lines += [f"{db},C,0.5,1.0,1.0,{th},{ber},,," for db, th, ber in rows]
    return "\n".join(lines) + "\n"


def test_sweep_checks_flag_a_threshold_that_turns_back():
    # C at beta = 0.5 converges to 0.3507 from above; the last point overshoots
    good = [(30.0, 0.39, 0.04), (60.0, 0.36, 0.01), (90.0, 0.352, 0.002)]
    bad = good[:2] + [(90.0, 0.23, 0.002)]
    curves, dbs = [("C", 0.5)], [30.0, 60.0, 90.0]
    assert all(c.passed for c in checks.check_sweep(_csv(good), 0, dbs, 0, curves))
    failed = [c for c in checks.check_sweep(_csv(bad), 0, dbs, 0, curves)
              if not c.passed]
    assert [c.kind for c in failed] == ["accuracy"]
    assert "threshold/delta" in failed[0].name
