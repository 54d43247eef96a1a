"""Correctness checks on what one `mtchan` CLI run printed.

Every check is a (name, passed, kind) triple. ``kind`` is ``"integrity"``
for properties any working build must have (exit status, CSV schema, the
expected grid, byte-identical repeats, worker-count independence) and
``"accuracy"`` for the physics the output must obey (BER range and
monotonicity, threshold convergence to its tail-balance limit, analytic BER
against Monte Carlo, validate's own oracle lines). A run whose integrity
checks all pass is a completed operation; accuracy failures are counted in
the error rate and never dropped, including the high-G-SNR points where
today's thresholds are known to be wrong.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

#: fixed header of the sweep CSV, as documented by the CLI
CSV_HEADER = ["gsnr_db", "system", "beta", "delta", "c", "threshold",
              "ber_analytic", "ber_mc", "mc_stderr", "samples"]

#: the sweep command's defaults: symbol separation, and (system, noise beta)
#: per curve in output order, system C at each default skew
DELTA = 1.0
CURVES = [("A", 1.0), ("B", 0.0)] + [("C", b) for b in (0.0, 0.25, 0.5, 0.75, 0.95)]

#: |analytic - MC| allowed, in binomial standard errors (4 sigma keeps the
#: false-alarm rate near 6e-5 per point over random seeds)
MC_Z_LIMIT = 4.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    kind: str  # "integrity" or "accuracy"


def _bisect(f, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# B: in the |x|^(-3/2) tails the folded density gap 2f(u) - f(u-d) - f(u+d)
# vanishes at u = r*d with 2 r^(-3/2) = (1-r)^(-3/2) + (1+r)^(-3/2)
B_TAIL_LIMIT = _bisect(
    lambda r: 2.0 * r ** -1.5 - (1.0 - r) ** -1.5 - (1.0 + r) ** -1.5,
    1e-6, 1.0 - 1e-6)


def tail_limit(system: str, beta: float) -> float:
    """Limit of threshold/delta as G-SNR grows, from tail balance."""
    if system == "A":
        return 1.0
    if system == "B":
        return B_TAIL_LIMIT
    # C: (1+beta)(d+u)^(-3/2) = (1-beta)(d-u)^(-3/2)  =>  u/d = (k-1)/(k+1)
    k = ((1.0 + beta) / (1.0 - beta)) ** (2.0 / 3.0)
    return (k - 1.0) / (k + 1.0)


def check_sweep(stdout: str, returncode: int, gsnr_dbs: list[float],
                mc_samples: int, curves=CURVES) -> list[Check]:
    """Checks on one sweep's CSV, whose rows are curves x G-SNR grid."""
    checks = [Check("exit status 0", returncode == 0, "integrity")]
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader, None)
    rows = [dict(zip(CSV_HEADER, r)) for r in reader]
    n = len(gsnr_dbs)
    shape_ok = header == CSV_HEADER and len(rows) == len(curves) * n
    checks.append(Check("csv header and row count", shape_ok, "integrity"))
    if not shape_ok:
        return checks
    try:
        rows = [parse_row(r) for r in rows]
    except ValueError:
        return checks + [Check("numeric cells", False, "integrity")]
    expected = [(s, b, db) for s, b in curves for db in gsnr_dbs]
    checks.append(Check("grid order", all(
        r["system"] == s and r["beta"] == b
        and math.isclose(r["gsnr_db"], db, abs_tol=1e-9)
        for r, (s, b, db) in zip(rows, expected)), "integrity"))
    checks.append(Check("monte carlo columns", all(
        r["samples"] == (mc_samples or None) for r in rows), "integrity"))

    for i, r in enumerate(rows):
        ber = r["ber_analytic"]
        checks.append(Check(f"row {i}: ber in (0, 0.5]",
                            math.isfinite(ber) and 0.0 < ber <= 0.5, "accuracy"))
        if mc_samples and r["ber_mc"] is not None:
            z_ok = abs(ber - r["ber_mc"]) <= MC_Z_LIMIT * r["mc_stderr"]
            checks.append(Check(f"row {i}: |analytic - mc| <= {MC_Z_LIMIT:g} stderr",
                                z_ok, "accuracy"))
    for start in range(0, len(rows), n):
        checks += _curve_checks(rows, start, n)
    return checks


def _curve_checks(rows: list[dict], start: int, n: int) -> list[Check]:
    curve = rows[start:start + n]
    limit = tail_limit(curve[0]["system"], curve[0]["beta"])
    offsets = [r["threshold"] / r["delta"] - limit for r in curve]
    side = math.copysign(1.0, offsets[0]) if offsets[0] else 0.0
    checks = []
    for j in range(1, n):
        checks.append(Check(f"row {start + j}: ber does not rise with G-SNR",
                            curve[j]["ber_analytic"] <= curve[j - 1]["ber_analytic"],
                            "accuracy"))
        same_side = offsets[j] * side >= 0.0 if side else offsets[j] == 0.0
        toward = same_side and abs(offsets[j]) <= abs(offsets[j - 1])
        checks.append(Check(f"row {start + j}: threshold/delta moves toward "
                            f"{limit:.6f}", toward, "accuracy"))
    return checks


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


def parse_row(row: dict) -> dict:
    return {
        "gsnr_db": float(row["gsnr_db"]), "system": row["system"],
        "beta": float(row["beta"]), "delta": float(row["delta"]),
        "threshold": float(row["threshold"]),
        "ber_analytic": float(row["ber_analytic"]),
        "ber_mc": _float_or_none(row["ber_mc"]),
        "mc_stderr": _float_or_none(row["mc_stderr"]),
        "samples": int(row["samples"]) if row["samples"] else None,
    }


def check_validate(stdout: str, returncode: int) -> list[Check]:
    """One accuracy check per [PASS]/[FAIL] line, plus the summary line."""
    lines = stdout.splitlines()
    results = [ln for ln in lines if ln.startswith(("[PASS] ", "[FAIL] "))]
    n_fail = sum(ln.startswith("[FAIL] ") for ln in results)
    summary = f"{len(results) - n_fail}/{len(results)} checks passed"
    checks = [
        Check("validate summary line", bool(results) and lines[-1] == summary,
              "integrity"),
        Check("exit status matches failures",
              returncode == (1 if n_fail else 0), "integrity"),
    ]
    return checks + [Check(ln.split(":", 1)[0], ln.startswith("[PASS] "), "accuracy")
                     for ln in results]


def ber_points(kind: str, stdout: str) -> int:
    """Grid points a run evaluated: sweep rows, or validate's BER-vs-MC cases."""
    if kind == "sweep":
        return max(len(stdout.splitlines()) - 1, 0)
    return sum("BER analytic vs MC" in ln for ln in stdout.splitlines())
