"""Command-line front end.

Subcommands:
  table1    constant-BER-at-constant-G-SNR table over (beta, delta), analytic
  sweep     BER vs G-SNR sweep per system/beta, CSV + optional SVG
  validate  run the full oracle/cross-check suite

Exit codes: 0 success, 1 check failure, 2 usage error.

Units convention: times in seconds, lengths in micrometers, diffusion in
um^2/s; the library itself is unit-agnostic.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .power import System, noise_beta
from .stable import QuadratureError
from .systems import MC_MIN_BITS, BerRecord, ber_rows
from . import plotting

CSV_HEADER = list(BerRecord._fields)

# reference digits of the constant-G-SNR BER table (4-decimal print
# precision).  Note: the table is calibrated at linear G-SNR = 10; its
# original caption's "G-SNR = 1" is off by exactly x10 against the
# normalization the G-SNR definition itself fixes.
TABLE1_REFERENCE = {0.0: 0.1458, 0.2: 0.1428, 0.5: 0.1287, 0.8: 0.1069, 1.0: 0.0857}
TABLE1_GSNR = 10.0

#: the default sweep: SWEEP_POINTS G-SNRs evenly spaced in dB between these,
#: system C at the skews SWEEP_BETAS
SWEEP_GSNR_DB = (-10.0, 20.0)
SWEEP_POINTS = 31
SWEEP_BETAS = "0,0.25,0.5,0.75,0.95"


def point_seed(master_seed: int, index: int) -> int:
    """Seed of the Monte Carlo draw behind point `index` of a sweep: the same
    for every index, as a sweep counts all its points on one draw of noise.
    A point's count depends on the seed and the bit count alone (see
    `montecarlo.chunk_errors`), so its Monte Carlo columns are
    `ber_monte_carlo` on that point with this seed, at any bit count.
    `index` is taken so that a caller recomputing a sweep point by point, as
    `bench/traced.py` does, gets each point's draw.
    """
    from . import montecarlo
    return montecarlo.stream_seed(master_seed, 0)


def _run_tasks(tasks: list, workers: int) -> list:
    """Task results in task order: run here at one worker, else on a pool."""
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    import concurrent.futures  # here, so that runs without a pool skip it and logging
    with concurrent.futures.ProcessPoolExecutor(min(workers, len(tasks))) as pool:
        return [f.result() for f in [pool.submit(task) for task in tasks]]


def _compute_grid(points, mc_samples: int = 0, seed: int = 0,
                  workers: int = 1) -> list[BerRecord]:
    """The rows of `sweep` and `table1`: systems.ber_rows with the CLI's
    Monte Carlo policy, one draw on point_seed(seed, 0) whose chunks go to
    a pool of `workers`.  Thresholds and analytic BER run in this process,
    as a point costs less than starting a worker."""
    if not mc_samples:
        return ber_rows(points)
    return ber_rows(points, mc_samples, point_seed(seed, 0),
                    functools.partial(_run_tasks, workers=workers))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, System):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def _emit(records: list[BerRecord], path: str | None) -> None:
    # CSV: no cell holds a comma, a quote or a newline, so none is quoted
    text = "".join(",".join(map(_fmt, row)) + "\n"
                   for row in [CSV_HEADER, *records])
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_workers(args) -> int:
    # by default, the CPUs this process may run on (taskset, cpusets)
    if args.workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    _require("--workers", [args.workers], (lambda n: n >= 1, ">= 1"))
    return args.workers


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


# (test, what it asks) for flag values; NaN fails every test
_SKEW = (lambda v: -1.0 <= v <= 1.0, "in [-1, 1]")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
_FINITE = (math.isfinite, "finite")
_MC_BITS = (lambda n: n == 0 or n >= MC_MIN_BITS, f"0 or >= {MC_MIN_BITS}")
_EVEN = (lambda n: n % 2 == 0, "even, one low and one high bit per noise draw")
# a given file flag's directory; other write errors surface when the file
# is written
_IN_A_DIR = (lambda p: p is None or (p != "" and
                                     os.path.isdir(os.path.dirname(p) or ".")),
             "a file in an existing directory")


def _require(flag: str, values, check) -> None:
    # checked up front, so that bad input names the flag it came from
    ok, need = check
    for v in values:
        if not ok(v):
            raise ValueError(f"{flag} must be {need}, got {v!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_table1(args) -> int:
    betas = _float_list(args.betas, "--betas")
    deltas = _float_list(args.deltas, "--deltas")
    _require("--betas", betas, _SKEW)
    _require("--deltas", deltas, _POSITIVE)
    _require("--gsnr", [args.gsnr], _POSITIVE)
    _require("--output", [args.output], _IN_A_DIR)
    records = _compute_grid([(System.C, b, d, args.gsnr)
                             for b in betas for d in deltas])

    failed = False
    n_d = len(deltas)
    for i, beta in enumerate(betas):
        row = records[i * n_d:(i + 1) * n_d]
        vals = [r.ber_analytic for r in row]
        spread = (max(vals) - min(vals)) / max(vals[0], 1e-300)
        msgs = [f"beta={beta}: ber={vals[0]:.6f} spread={spread:.3e}"]
        if spread > 1e-6:
            failed = True
            msgs.append("SPREAD-FAIL")
        if args.gsnr == TABLE1_GSNR and beta in TABLE1_REFERENCE:
            dev = abs(vals[0] - TABLE1_REFERENCE[beta])
            msgs.append(f"ref={TABLE1_REFERENCE[beta]} dev={dev:.2e}")
            if dev > 5e-4:
                failed = True
                msgs.append("REF-FAIL")
        print("# " + " ".join(msgs), file=sys.stderr)

    _emit(records, args.output)
    return 1 if failed else 0


def _linspace(start: float, stop: float, n: int) -> list[float]:
    # n >= 1 evenly spaced values, numpy.linspace's arithmetic bit for bit
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def _sweep_grid(args) -> list[float]:
    db = SWEEP_GSNR_DB if args.gsnr_db is None else args.gsnr_db
    _require("--gsnr-db", db, _FINITE)
    if len(db) > 2:
        raise ValueError(f"--gsnr-db takes one or two values, got {len(db)}")
    points = args.points
    if len(db) == 1:
        if points not in (None, 1):
            raise ValueError(f"--points must be 1 with one --gsnr-db value, got {points}")
        dbs = db
    else:
        points = SWEEP_POINTS if points is None else points
        if points < 1:
            raise ValueError("--points must be >= 1")
        dbs = _linspace(db[0], db[1], points)
    try:
        gsnrs = [10.0 ** (v / 10.0) for v in dbs]
    except OverflowError:
        raise ValueError(f"--gsnr-db {max(dbs):g} exceeds the floating-point "
                         "range") from None
    if min(gsnrs[0], gsnrs[-1]) < sys.float_info.min:
        raise ValueError(f"--gsnr-db {min(dbs):g} is below the floating-point "
                         "range")
    return gsnrs


def cmd_sweep(args) -> int:
    gsnrs = _sweep_grid(args)
    names = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not names or not set(names) <= set(System.__members__):
        raise ValueError(f"--systems must be a list of A, B, C, got {args.systems!r}")
    systems_sel = [System(name) for name in names]
    if args.betas is not None and System.C not in systems_sel:
        raise ValueError(f"--betas needs C in --systems, got {args.systems!r}")
    betas_c = _float_list(SWEEP_BETAS if args.betas is None else args.betas,
                          "--betas")
    _require("--betas", betas_c, _SKEW)
    _require("--delta", [args.delta], _POSITIVE)
    _require("--mc-samples", [args.mc_samples], _MC_BITS)
    _require("--mc-samples", [args.mc_samples], _EVEN)
    _require("--seed", [args.seed], (lambda n: n >= 0, ">= 0"))
    _require("--output", [args.output], _IN_A_DIR)
    _require("--plot", [args.plot or None], _IN_A_DIR)  # "": no plot
    curves = [(system, noise_beta(system, b)) for system in systems_sel
              for b in (betas_c if system is System.C else [0.0])]
    points = [(system, beta, args.delta, gsnr) for system, beta in curves
              for gsnr in gsnrs]
    records = _compute_grid(points, args.mc_samples, args.seed,
                            _resolve_workers(args))
    _emit(records, args.output)

    if args.plot:
        dbs = [10.0 * math.log10(g) for g in gsnrs]
        n = len(gsnrs)
        plot_curves = [
            (f"C (beta={beta:g})" if system is System.C else system.value, dbs,
             [r.ber_analytic for r in records[k * n:(k + 1) * n]])
            for k, (system, beta) in enumerate(curves)]
        plotting.write_ber_svg(args.plot, plot_curves)
    return 0


def cmd_validate(args) -> int:
    from . import validate  # here, so that the other commands skip its import
    workers = _resolve_workers(args)
    _require("--mc-samples", [args.mc_samples],
             (lambda n: n >= MC_MIN_BITS, f">= {MC_MIN_BITS}"))
    _require("--mc-samples", [args.mc_samples], _EVEN)
    _require("--seed", [args.seed], (lambda n: n >= 0, ">= 0"))
    results = validate.run_all(args.mc_samples, args.seed,
                               functools.partial(_run_tasks, workers=workers))
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: the CPUs this process "
                        "may run on)")


class _Parser(argparse.ArgumentParser):
    # argparse takes a token after a flag for its value only if it is a plain
    # negative number; no mtchan flag starts with '-' and a digit or is -inf,
    # -infinity or -nan, so any such token is a value: "--betas -0.5,0.5"
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mtchan",
        description="Timing-channel BER experiments over stable noise")
    sub = parser.add_subparsers(dest="command", required=True)

    # analytic only: a cell's Monte Carlo is a one-point sweep
    p = sub.add_parser("table1", help="constant-BER table at fixed G-SNR")
    p.add_argument("--output", help="CSV file (default: stdout)")
    p.add_argument("--gsnr", type=float, default=TABLE1_GSNR,
                   help="linear G-SNR held constant across the grid "
                        f"(default {TABLE1_GSNR:g}, the reference-table calibration)")
    p.add_argument("--betas", default="0,0.2,0.5,0.8,1")
    p.add_argument("--deltas", default="0.5,5,10,20")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="BER vs G-SNR sweep")
    _add_common(p)
    p.add_argument("--output", help="CSV file (default: stdout)")
    p.add_argument("--systems", default="A,B,C")
    p.add_argument("--betas", help=f"system C skews (default {SWEEP_BETAS})")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--gsnr-db", type=float, nargs="+",
                   help="dB grid endpoints (one value = single point; default "
                        f"{SWEEP_GSNR_DB[0]:g} {SWEEP_GSNR_DB[1]:g})")
    p.add_argument("--points", type=int,
                   help=f"points between two --gsnr-db endpoints (default {SWEEP_POINTS})")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="Monte Carlo bits per point: 0 or an even count")
    p.add_argument("--plot", help="write an SVG figure to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the oracle/cross-check suite")
    _add_common(p)
    p.add_argument("--mc-samples", type=int, default=1_000_000,
                   help="bits per BER curve, even; KS tests draw a tenth, at least 10^4")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # mtchan makes no BLAS call, yet OpenBLAS starts a spinning helper thread
    # per further CPU when numpy loads.  numpy loads after this (in
    # systems.ber_rows and cmd_validate) and pool workers inherit the setting;
    # a user's own value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
