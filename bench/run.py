"""mtchan benchmark: the `mtchan` CLI end to end, and its layers traced.

Run from the repository root:

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's CLI command as a subprocess, with
``--workers`` set to the number of usable CPUs, again and again for
``--seconds`` seconds (at least three times), checks every output and reports
the end-to-end metrics as medians over those runs. ``--trace 1`` runs the
command once, then runs the workload again in this process, single-process,
with spans around the calls into each module (see traced.py), and reports the
per-layer metrics. The seed reaches the program only as the CLI's ``--seed``;
grids are fixed by the workload. The last line of standard output is one JSON
object; the run's details, machine facts and trace go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.

Exit status: 0 with a result; 1 if no CLI run completed; 2 if the program is
not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: CLI runs per measurement, at the least, whatever --seconds says
MIN_REPEATS = 3
#: wall-clock budget of one benchmark run; no CLI run starts past it
BUDGET_S = 150.0

# Starts the CLI the way its console script does, and stamps (on the
# machine-wide monotonic clock) when `import mtchan.cli` is done.
LAUNCH = """\
import sys, time
import mtchan.cli
sys.stderr.write("bench-import-done %r\\n" % time.monotonic())
sys.stderr.flush()
sys.exit(mtchan.cli.main(sys.argv[1:]))
"""
IMPORT_MARK = "bench-import-done "


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "sweep" or "validate"
    args: tuple[str, ...]        # CLI arguments; "{plot}" is the SVG path
    grid: tuple[float, float, int] = (0.0, 0.0, 0)  # dB start, stop, points
    mc_samples: int = 0          # MC bits per sweep point, or validate's samples

    def gsnr_dbs(self) -> list[float]:
        start, stop, n = self.grid
        return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _workloads(smoke: bool) -> dict[str, Workload]:
    # Smoke size runs the same commands on tiny grids, to test the harness.
    n_default, n_mc, n_high = (3, 2, 3) if smoke else (31, 4, 25)
    mc_bits = 20_000 if smoke else 4_000_000
    validate_mc = 10_000 if smoke else 1_000_000
    grid_args = ("--points", str(n_default)) if smoke else ()
    return {w.name: w for w in [
        # the default sweep users run; ml_threshold -> std_pdf inversion is
        # >95% of its compute, so density and solver changes show here
        Workload("sweep-default", "sweep", ("sweep",) + grid_args + ("--plot", "{plot}"),
                 (-10.0, 20.0, n_default)),
        # Monte Carlo dominates: threshold speed-ups barely move it, chunked
        # simulation shows in peak_rss_mb
        Workload("sweep-mc", "sweep",
                 ("sweep", "--points", str(n_mc), "--mc-samples", str(mc_bits)),
                 (-10.0, 20.0, n_mc), mc_samples=mc_bits),
        # densities deep in the tails (|x| up to ~5e4): another quadrature
        # branch, and thresholds that are wrong today (error_rate > 0)
        Workload("sweep-high-gsnr", "sweep",
                 ("sweep", "--gsnr-db", "30", "90", "--points", str(n_high)),
                 (30.0, 90.0, n_high)),
        # the oracle suite no sweep touches: numeric inversion, PCHIP CDF
        # tables, KS sampling and geometric-power MC
        Workload("validate", "validate",
                 ("validate",) + (("--mc-samples", str(validate_mc)) if smoke else ()),
                 mc_samples=validate_mc),
    ]}


@dataclass
class CliRun:
    returncode: int
    stdout: str
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    checks: list[checks.Check] = field(default_factory=list)
    same_as_first: bool = True  # stdout byte-identical to the first repeat's

    @property
    def completed(self) -> bool:
        return self.same_as_first and all(
            c.passed for c in self.checks if c.kind == "integrity")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(w: Workload, seed: int, workers: int, timeout: float) -> CliRun:
    """One CLI run, timed from spawn to exit, with its own resource usage.

    os.wait4 returns the usage of this child and the workers it reaped, so
    one run's peak RSS never carries into the next the way
    RUSAGE_CHILDREN's high-water mark does.
    """
    plot = OUT / f"{w.name}.svg"
    args = [a.replace("{plot}", str(plot)) for a in w.args]
    cmd = [sys.executable, "-c", LAUNCH] + args + [
        "--workers", str(workers), "--seed", str(seed)]
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            tempfile.TemporaryFile("w+", dir=OUT) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        # the session holds the pool workers too: a timeout kills them all
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    marks = [ln for ln in stderr.splitlines() if ln.startswith(IMPORT_MARK)]
    setup = float(marks[0][len(IMPORT_MARK):]) - t0 if marks else None
    run = CliRun(proc.returncode, stdout, wall, setup,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    run.checks.append(checks.Check("import finished", setup is not None, "integrity"))
    if w.kind == "sweep":
        run.checks += checks.check_sweep(stdout, proc.returncode, w.gsnr_dbs(),
                                         w.mc_samples)
        if "{plot}" in w.args:
            svg = plot.read_text() if plot.exists() else ""
            run.checks.append(checks.Check(
                "svg has one polyline per curve",
                svg.count("<polyline") == len(checks.CURVES), "integrity"))
    else:
        run.checks += checks.check_validate(stdout, proc.returncode)
    return run


def run_metrics(w: Workload, run: CliRun) -> dict[str, float]:
    n_checks = len(run.checks)
    n_failed = sum(not c.passed for c in run.checks)
    points = checks.ber_points(w.kind, run.stdout)
    return {
        "wall_s": run.wall_s,
        "setup_s": run.setup_s,
        "points_per_s": points / run.wall_s,
        "cpu_s": run.cpu_s,
        "peak_rss_mb": run.peak_rss_mb,
        "check_pass_rate": (n_checks - n_failed) / n_checks,
        "error_rate": n_failed / n_checks,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "points_per_s": "points/s", "cpu_s": "s",
         "peak_rss_mb": "MB", "check_pass_rate": "ratio", "error_rate": "ratio"}
# printed, but left out of the result: the points per run are fixed, so
# points_per_s restates wall_s, and error_rate (1 - check_pass_rate) reads 0
# on a clean workload
UNBOUNDED = ("points_per_s", "error_rate")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_facts(workers: int) -> dict:
    import importlib.metadata as md
    facts = {"nproc": workers, "python": platform.python_version(),
             "numpy": md.version("numpy"), "scipy": md.version("scipy"),
             "cpu_model": None, "commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                       if ln.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        facts["commit"] = proc.stdout.strip() or None
    return facts


def measure(w: Workload, seed: int, seconds: float, workers: int) -> list[CliRun]:
    """Repeat the CLI run for `seconds` (at least MIN_REPEATS times)."""
    runs: list[CliRun] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_REPEATS and elapsed >= seconds:
            break
        if runs and elapsed + runs[-1].wall_s > BUDGET_S:
            break
        run = run_cli(w, seed, workers, BUDGET_S - elapsed)
        run.same_as_first = not runs or run.stdout == runs[0].stdout
        runs.append(run)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(_workloads(False)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for testing the harness itself")
    args = parser.parse_args(argv)

    if not (SRC / "mtchan" / "cli.py").is_file():
        print(f"error: no mtchan sources under {SRC}", file=sys.stderr)
        return 2
    table = _workloads(args.smoke)
    w = table[args.workload]
    OUT.mkdir(exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    facts = machine_facts(workers)
    print(f"# machine: {json.dumps(facts)}")

    if args.trace:
        runs = [run_cli(w, args.seed, workers, BUDGET_S)]
    else:
        runs = measure(w, args.seed, args.seconds, workers)
    done = [r for r in runs if r.setup_s is not None]
    if not done:
        print(f"error: no {w.name} run completed; exit {runs[0].returncode}",
              file=sys.stderr)
        return 1
    per_run = [run_metrics(w, r) for r in done]
    summary = {}
    for name in per_run[0]:
        q1, med, q3 = quartiles([m[name] for m in per_run])
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(per_run)}
        print(f"# {name:16s} median {med:.6g} {UNITS[name]}  "
              f"[q1 {q1:.6g}, q3 {q3:.6g}]  n={len(per_run)}")
    if w.mc_samples:
        bits = w.mc_samples * checks.ber_points(w.kind, done[0].stdout)
        print(f"# mc_bits_per_s    {bits / summary['wall_s']['median']:.6g} bits/s  "
              f"({bits} bits per run)")
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "machine": facts, "summary": summary, "runs": per_run,
              "checks_attempted": sum(len(r.checks) for r in runs),
              "failed_checks": sorted({c.name for r in runs for c in r.checks
                                       if not c.passed})}

    attempted, failed = len(runs), sum(not r.completed for r in runs)
    if args.trace:
        import traced
        sys.path.insert(0, str(SRC))
        imports = traced.import_times(child_env(), ROOT)
        tr = traced.TracedRun(w, table["validate"], args.seed, OUT)
        tr.run()
        layers = tr.layer_metrics(runs[0].wall_s, runs[0].setup_s, imports)
        expected = runs[0].stdout.splitlines()[1 if w.kind == "sweep" else 0:]
        same = [a == b for a, b in zip(tr.output, expected)]
        same += [False] * abs(len(tr.output) - len(expected))
        n_diff = same.count(False)
        print(f"# worker-count independence: {len(same) - n_diff}/{len(same)} "
              f"lines identical (1 process vs {workers})")
        attempted += 1
        failed += n_diff > 0
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        detail.update(spans=tr.tracer.spans, independence_mismatches=n_diff)
    else:
        metrics = {k: {"value": summary[k]["median"], "unit": u}
                   for k, u in UNITS.items() if k not in UNBOUNDED}
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    detail["metrics"] = metrics
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
