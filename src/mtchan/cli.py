"""Command-line front end.

Subcommands:
  table1    constant-BER-at-constant-G-SNR table over (beta, delta)
  sweep     BER vs G-SNR sweep per system/beta, CSV/JSON + optional SVG
  validate  run the full oracle/cross-check suite
  dist      evaluate a stable pdf/cdf at a point
  geopower  evaluate geometric power of a stable law

Exit codes: 0 success, 1 check failure, 2 usage error.

Units convention: times in seconds, lengths in micrometers, diffusion in
um^2/s; the library itself is unit-agnostic.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import re
import shlex
import sys

import numpy as np

from .power import System, geometric_power, noise_beta
from .stable import QuadratureError, StableParams, cdf, pdf
from .systems import (MC_MIN_BITS, BerRecord, ber_analytic, chunk_errors,
                      chunk_sizes, mc_estimate, ml_threshold, scheme_for_gsnr)
from . import plotting

#: env var overriding the worker-pool size
WORKERS_ENV = "MTCHAN_WORKERS"

CSV_HEADER = ["gsnr_db", "system", "beta", "delta", "c", "threshold",
              "ber_analytic", "ber_mc", "mc_stderr", "samples"]

# reference digits of the constant-G-SNR BER table (4-decimal print
# precision).  Note: the table is calibrated at linear G-SNR = 10; its
# original caption's "G-SNR = 1" is off by exactly x10 against the
# normalization the G-SNR definition itself fixes.
TABLE1_REFERENCE = {0.0: 0.1458, 0.2: 0.1428, 0.5: 0.1287, 0.8: 0.1069, 1.0: 0.0857}
TABLE1_GSNR = 10.0

#: the default sweep: SWEEP_POINTS G-SNRs evenly spaced in dB between these
SWEEP_GSNR_DB = (-10.0, 20.0)
SWEEP_POINTS = 31


def _stream_seed(master_seed: int, stream: int) -> int:
    # mix (master seed, stream number) into an independent seed
    return int(np.random.SeedSequence((master_seed, stream)).generate_state(1)[0])


def point_seed(master_seed: int, index: int) -> int:
    """Seed of the Monte Carlo draw behind point `index` of a sweep.

    A grid of one delta, as every sweep is, counts all its points on one
    draw of bits and noise, so the seed is the same for every index.  A
    point's count depends on the seed and the bit count alone, whatever the
    other points (see `systems.chunk_errors`), so the Monte Carlo columns of
    point `index` are `ber_monte_carlo` on that point with this seed, at any
    bit count.  `index` is taken so that a caller recomputing a sweep point
    by point, as `bench/traced.py` does, gets each point's draw.
    """
    return _stream_seed(master_seed, 0)


def _monte_carlo(schemes, states, n_bits: int, seed: int,
                 workers: int) -> list[tuple[float, float]]:
    """(ber_mc, stderr) of each point.  The points of one delta are counted
    on one draw and each delta has its own: at one G-SNR every delta gives
    the same d, so a draw shared across deltas would repeat one value.  A
    pool task is one chunk of one delta's draw and counts all its points;
    the integer counts are summed here, whatever the worker count."""
    deltas: dict[float, list[int]] = {}
    for i, scheme in enumerate(schemes):
        deltas.setdefault(scheme.delta, []).append(i)
    tasks = [(members, functools.partial(
                 chunk_errors, [schemes[i] for i in members],
                 [states[i] for i in members], _stream_seed(seed, j), k, n))
             for j, members in enumerate(deltas.values())
             for k, n in enumerate(chunk_sizes(n_bits))]
    errors = [0] * len(schemes)
    for (members, _), counts in zip(tasks, _run_tasks([t for _, t in tasks], workers)):
        for i, e in zip(members, counts):
            errors[i] += e
    return [mc_estimate(e, n_bits) for e in errors]


def _run_tasks(tasks: list, workers: int) -> list:
    """Task results in task order: run here at one worker, else on a pool."""
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(min(workers, len(tasks))) as pool:
        return [f.result() for f in [pool.submit(task) for task in tasks]]


def _compute_grid(points, mc_samples: int, seed: int,
                  workers: int) -> list[BerRecord]:
    """One record per (system, beta, delta, gsnr) point, in order.  The
    thresholds and analytic BER are computed here, as a point costs less
    than starting a worker; only Monte Carlo chunks, if mc_samples > 0, go
    to the pool."""
    schemes = [scheme_for_gsnr(system, delta, gsnr, beta)
               for system, beta, delta, gsnr in points]
    states = [ml_threshold(s) for s in schemes]
    mcs = (_monte_carlo(schemes, states, mc_samples, seed, workers)
           if mc_samples else [(None, None)] * len(points))
    return [BerRecord(
        gsnr=gsnr, gsnr_db=10.0 * math.log10(gsnr), system=scheme.system,
        beta=scheme.noise.beta, delta=delta, c=scheme.noise.c,
        threshold=state.threshold, ber_analytic=ber_analytic(scheme, state),
        ber_mc=mc, mc_stderr=stderr, samples=mc_samples or None)
        for (_, _, delta, gsnr), scheme, state, (mc, stderr)
        in zip(points, schemes, states, mcs)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, System):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def _records_to_csv(records: list[BerRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([_fmt(getattr(r, k)) for k in CSV_HEADER])
    return buf.getvalue()


def _records_to_json(records: list[BerRecord]) -> str:
    rows = []
    for r in records:
        row = {k: getattr(r, k) for k in CSV_HEADER}
        row["system"] = r.system.value
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def _emit(records: list[BerRecord], args) -> None:
    text = (_records_to_json(records) if args.format == "json"
            else _records_to_csv(records))
    path = args.output
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_workers(args) -> int:
    env = os.environ.get(WORKERS_ENV)
    if args.workers is not None:
        workers, source = args.workers, "--workers"
    elif env:
        source = WORKERS_ENV
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    else:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


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
    _require("--mc-samples", [args.mc_samples], _MC_BITS)
    points = [(System.C, b, d, args.gsnr) for b in betas for d in deltas]
    records = _compute_grid(points, args.mc_samples, args.seed,
                            _resolve_workers(args))

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

    _emit(records, args)
    return 1 if failed else 0


def _sweep_grid(args) -> list[float]:
    if args.gsnr_list is not None:
        for flag, value in (("--gsnr-db", args.gsnr_db), ("--points", args.points)):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --gsnr-list")
        gsnrs = _float_list(args.gsnr_list, "--gsnr-list")
        _require("--gsnr-list", gsnrs, _POSITIVE)
        return gsnrs
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
        dbs = [db[0]] if points == 1 else list(np.linspace(db[0], db[1], points))
    try:
        gsnrs = [10.0 ** (v / 10.0) for v in dbs]
    except OverflowError:
        raise ValueError(f"--gsnr-db {max(dbs):g} exceeds the floating-point "
                         "range") from None
    if gsnrs[0] == 0.0 or gsnrs[-1] == 0.0:
        raise ValueError(f"--gsnr-db {min(dbs):g} is below the floating-point "
                         "range")
    return gsnrs


def cmd_sweep(args) -> int:
    gsnrs = _sweep_grid(args)
    names = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not names or not set(names) <= set(System.__members__):
        raise ValueError(f"--systems must be a list of A, B, C, got {args.systems!r}")
    systems_sel = [System(name) for name in names]
    betas_c = _float_list(args.betas, "--betas")
    _require("--betas", betas_c, _SKEW)
    _require("--delta", [args.delta], _POSITIVE)
    _require("--mc-samples", [args.mc_samples], _MC_BITS)
    curves = [(system, noise_beta(system, b)) for system in systems_sel
              for b in (betas_c if system is System.C else [0.0])]
    points = [(system, beta, args.delta, gsnr) for system, beta in curves
              for gsnr in gsnrs]
    records = _compute_grid(points, args.mc_samples, args.seed,
                            _resolve_workers(args))
    _emit(records, args)

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
    _require("--tol", [args.tol], _POSITIVE)
    tasks = validate.suite(args.mc_samples, args.seed, args.tol)
    results = [r for rs in _run_tasks(tasks, workers) for r in rs]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def cmd_dist(args) -> int:
    params = StableParams(args.mu, args.c, args.alpha, args.beta)
    if args.what == "pdf":
        value = pdf(params, args.x)
    else:
        value = cdf(params, args.x)
    print(repr(value))
    return 0


def cmd_geopower(args) -> int:
    print(repr(geometric_power(StableParams(0.0, args.c, args.alpha, args.beta))))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default: {WORKERS_ENV} env var "
                        "or available parallelism)")
    p.add_argument("--config", help="key=value config file; flags override it")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


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

    p = sub.add_parser("table1", help="constant-BER table at fixed G-SNR")
    _add_common(p)
    _add_output(p)
    p.add_argument("--gsnr", type=float, default=TABLE1_GSNR,
                   help="linear G-SNR held constant across the grid "
                        f"(default {TABLE1_GSNR:g}, the reference-table calibration)")
    p.add_argument("--betas", default="0,0.2,0.5,0.8,1")
    p.add_argument("--deltas", default="0.5,5,10,20")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="optional Monte Carlo bits per cell (0 = analytic only)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="BER vs G-SNR sweep")
    _add_common(p)
    _add_output(p)
    p.add_argument("--systems", default="A,B,C")
    p.add_argument("--betas", default="0,0.25,0.5,0.75,0.95",
                   help="system C skew values")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--gsnr-db", type=float, nargs="+",
                   help="dB grid endpoints (one value = single point; default "
                        f"{SWEEP_GSNR_DB[0]:g} {SWEEP_GSNR_DB[1]:g})")
    p.add_argument("--points", type=int,
                   help=f"points between two --gsnr-db endpoints (default {SWEEP_POINTS})")
    p.add_argument("--gsnr-list", help="explicit comma-separated linear G-SNRs "
                                       "(instead of --gsnr-db and --points)")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--plot", help="write an SVG figure to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the oracle/cross-check suite")
    _add_common(p)
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="closed-form vs numeric tolerance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dist", help="evaluate a stable pdf/cdf")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--what", choices=["pdf", "cdf"], default="pdf")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("geopower", help="geometric power of a stable law")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=cmd_geopower)

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # each config line key=value becomes --key plus the value's shell words,
    # inserted right after the subcommand: argparse then types and checks it
    # like a flag, and flags given later on the command line win
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    tokens = []
    with open(args.config, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            if key and not key.startswith("#"):
                tokens += ["--" + key.strip().replace("_", "-"), *shlex.split(value)]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
