"""Gather benchmark result files into one data point.

Run from the repository root after a set of benchmark runs:

    python3 bench/collect.py bench/results/<name>.json [--note TEXT]

Reads every ``.bench_out/<workload>-seed<n>-trace<0|1>.json`` and writes,
per workload, the median, quartiles and spread ((q3 - q1) / median) over
seeds of each end-to-end metric (trace-0 runs) and each per-layer metric
(trace-1 runs), next to the machine facts the runs recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 4:  # too few for quartiles
        return {"median": med, "n": len(values), "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def collect(out_dir: Path) -> dict:
    machine, workloads = None, {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        run = json.loads(path.read_text())
        machine = machine or run["machine"]
        w = workloads.setdefault(run["workload"], {
            "seeds": {"end_to_end": [], "per_layer": []}, "metrics": {},
            "error_rate": [], "failed_checks": set()})
        kind = "per_layer" if run["trace"] else "end_to_end"
        w["seeds"][kind].append(run["seed"])
        for name, m in run["metrics"].items():
            w["metrics"].setdefault(kind, {}).setdefault(name, (m["unit"], []))[1].append(
                m["value"])
        if not run["trace"]:
            w["error_rate"].append(run["summary"]["error_rate"]["median"])
        w["failed_checks"].update(run["failed_checks"])
    for w in workloads.values():
        w["metrics"] = {kind: {name: dict(unit=unit, **_stats(values))
                               for name, (unit, values) in ms.items()}
                        for kind, ms in w["metrics"].items()}
        w["error_rate"] = _stats(w["error_rate"]) if w["error_rate"] else None
        w["failed_checks"] = sorted(w["failed_checks"])
    return {"machine": machine, "workloads": workloads}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    point = collect(OUT)
    point["note"] = args.note
    Path(args.output).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
