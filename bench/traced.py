"""Traced single-process run: spans around the public calls into each layer.

The layers are mtchan's modules. Spans are recorded here, in the benchmark,
by wrapping the names each module looks up at call time:

* ``mtchan.systems.std_pdf`` / ``std_cdf`` are counted, not timed: at about
  a millisecond each their count per grid point is what a solver change
  moves, and a span per call would be most of the trace.
* ``mtchan.systems.ml_threshold`` / ``ber_analytic`` / ``ber_monte_carlo``
  and ``mtchan.validate.check_*`` get a span each.
* ``mtchan.power`` does sub-microsecond closed-form work and is not wrapped:
  its time is the part of each point's span that no child span covers.

Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: asinh-spaced abscissae in +-1e5 for the direct density/CDF probe
PROBE_X_HALF_WIDTH = 1e5
PROBE_X_COUNT = 41
PROBE_BETAS = (0.0, 0.5)
PROBE_PASSES = 3
#: fresh interpreters started to time the imports
IMPORT_PROBES = 3

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import mtchan.stable
t1 = time.perf_counter()
import mtchan.validate
t2 = time.perf_counter()
import mtchan.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


class Tracer:
    """Spans (name, start, end, parent, root) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = {"id": len(self.spans), "name": name,
             "parent": parent["id"] if parent else None,
             "root": parent["root"] if parent else len(self.spans),
             "start": time.perf_counter(), "end": None, "counts": {}, **attrs}
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + 1

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name: str, fn, attrs=None):
        """Wrap fn in a span; attrs(args, result) adds fields to the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if attrs:
                    s.update(attrs(args, result))
                return result
        return wrapper

    def select(self, name: str, root: int | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and (root is None or s["root"] == root)]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


@contextlib.contextmanager
def patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_times(env: dict, root: Path) -> list[list[float]]:
    """Seconds to import stable, then validate, then cli in fresh interpreters."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=60, check=True)
        out.append(json.loads(proc.stdout))
    return out


def _system_attrs(args, result) -> dict:
    scheme = args[0]
    return {"system": scheme.system.value, "beta": scheme.noise.beta,
            "d": scheme.delta / scheme.noise.c}


def _ber_attrs(args, result) -> dict:
    return dict(_system_attrs(args, result), ber=result)


def _mc_attrs(args, result) -> dict:
    return dict(_system_attrs(args, result), n_bits=args[1])


def fmt_cell(value) -> str:
    """A CSV cell as the CLI writes it: repr for floats, empty for None."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


class TracedRun:
    """One in-process run of a workload with every layer wrapped."""

    def __init__(self, workload, validate_workload, seed: int, out_dir: Path):
        from mtchan import cli, plotting, power, systems, validate
        self.cli, self.plotting, self.power = cli, plotting, power
        self.systems, self.validate = systems, validate
        self.w = workload
        self.validate_w = validate_workload
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = Tracer()
        self.output: list[str] = []  # CSV rows or validate lines, as the CLI prints

    def run(self) -> None:
        t, systems, validate = self.tracer, self.systems, self.validate
        check_spans = {name: t.spanned(f"validate.{name}", getattr(validate, name))
                       for name in dir(validate) if name.startswith("check_")}
        with patched(systems, {
                "std_pdf": t.counted("stable.std_pdf", systems.std_pdf),
                "std_cdf": t.counted("stable.std_cdf", systems.std_cdf),
                "ml_threshold": t.spanned("systems.ml_threshold",
                                          systems.ml_threshold, _system_attrs),
                "ber_analytic": t.spanned("systems.ber_analytic",
                                          systems.ber_analytic, _ber_attrs),
                "ber_monte_carlo": t.spanned("systems.ber_monte_carlo",
                                             systems.ber_monte_carlo, _mc_attrs)}), \
                patched(validate, check_spans):
            self._stable_probe()
            with t.span("workload") as phase:
                if self.w.kind == "sweep":
                    self._sweep()
                else:
                    self.output = self._validate(self.w)
            self.workload_root = phase["id"]
            self._plot()
            if self.w.kind == "sweep":
                with t.span("probe.validate"):
                    self._validate(self.validate_w)
            if not t.select("systems.ber_monte_carlo", self.workload_root):
                with t.span("probe.monte_carlo") as probe:
                    self._mc_probe()
                self.mc_root = probe["id"]
            else:
                self.mc_root = self.workload_root

    def _stable_probe(self) -> None:
        import numpy as np
        from mtchan.stable import StandardStable, std_cdf, std_pdf
        edge = math.asinh(PROBE_X_HALF_WIDTH)
        xs = [float(x) for x in np.sinh(np.linspace(-edge, edge, PROBE_X_COUNT))]
        laws = [StandardStable(0.5, b) for b in PROBE_BETAS]
        for _ in range(PROBE_PASSES):
            for fn in (std_pdf, std_cdf):
                with self.tracer.span(f"stable.{fn.__name__}", calls=len(xs) * len(laws)):
                    for law in laws:
                        for x in xs:
                            fn(law, x)

    def _sweep(self) -> None:
        import numpy as np
        from checks import CSV_HEADER, CURVES, DELTA
        systems, w = self.systems, self.w
        start, stop, points = w.grid
        gsnrs = [10.0 ** (v / 10.0) for v in np.linspace(start, stop, points)]
        index = 0
        for system, beta in CURVES:
            for gsnr in gsnrs:
                with self.tracer.span("point", index=index):
                    scheme = systems.scheme_for_gsnr(self.power.System(system),
                                                     DELTA, gsnr, beta)
                    state = systems.ml_threshold(scheme)
                    ber = systems.ber_analytic(scheme, state)
                    mc = stderr = samples = None
                    if w.mc_samples:
                        mc, stderr = systems.ber_monte_carlo(
                            scheme, w.mc_samples,
                            self.cli.point_seed(self.seed, index), state)
                        samples = w.mc_samples
                row = {"gsnr_db": 10.0 * math.log10(gsnr), "system": system,
                       "beta": scheme.noise.beta, "delta": DELTA,
                       "c": scheme.noise.c, "threshold": state.threshold,
                       "ber_analytic": ber, "ber_mc": mc, "mc_stderr": stderr,
                       "samples": samples}
                self.output.append(",".join(fmt_cell(row[k]) for k in CSV_HEADER))
                index += 1

    def _validate(self, w) -> list[str]:
        results = self.validate.run_all(mc_samples=w.mc_samples, seed=self.seed)
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}"
                 for r in results]
        n_pass = sum(r.passed for r in results)
        return lines + [f"{n_pass}/{len(results)} checks passed"]

    def _plot(self) -> None:
        curves: dict[tuple, tuple[list, list]] = {}
        for s in self.tracer.select("systems.ber_analytic", self.workload_root):
            xs, ys = curves.setdefault((s["system"], s["beta"]), ([], []))
            xs.append(20.0 * math.log10(s["d"]))
            ys.append(s["ber"])
        plot = [(f"{k[0]} (beta={k[1]:g})", xs, ys) for k, (xs, ys) in curves.items()]
        with self.tracer.span("plotting.write_ber_svg", points=sum(len(x) for _, x, _ in plot)):
            self.plotting.write_ber_svg(str(self.out_dir / "traced.svg"), plot)

    def _mc_probe(self) -> None:
        systems, System = self.systems, self.power.System
        for system, beta in ((System.A, 1.0), (System.B, 0.0), (System.C, 0.5)):
            scheme = systems.scheme_for_gsnr(system, 1.0, 10.0, beta)
            state = systems.ml_threshold(scheme)
            systems.ber_monte_carlo(scheme, self.validate_w.mc_samples, self.seed,
                                    state)

    def layer_metrics(self, cli_wall_s: float, cli_setup_s: float,
                      imports: list[list[float]]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        t, root = self.tracer, self.workload_root
        m: dict[str, tuple[float, str]] = {}
        for i, mod in enumerate(("stable", "validate", "cli")):
            m[f"setup.import_{mod}_s"] = (statistics.median(r[i] for r in imports), "s")
        for fn in ("std_pdf", "std_cdf"):
            per_call = [duration(s) / s["calls"] for s in t.select(f"stable.{fn}")]
            m[f"stable.{fn}_us"] = (1e6 * statistics.median(per_call), "us")

        thresholds = t.select("systems.ml_threshold", root)
        n_points = len(thresholds)
        for key in ("std_pdf", "std_cdf"):
            calls = sum(s["counts"].get(f"stable.{key}", 0)
                        for s in t.spans if s["root"] == root)
            m[f"stable.{key[4:]}_calls"] = (calls / n_points, "calls/point")
        for system in ("A", "B", "C"):
            ms = [1e3 * duration(s) for s in thresholds if s["system"] == system]
            m[f"systems.ml_threshold_ms.{system}.p50"] = (_quantile(ms, 50), "ms")
            m[f"systems.ml_threshold_ms.{system}.p95"] = (_quantile(ms, 95), "ms")
        m["systems.ber_analytic_ms"] = (statistics.median(
            1e3 * duration(s) for s in t.select("systems.ber_analytic", root)), "ms")
        mc = t.select("systems.ber_monte_carlo", self.mc_root)
        m["systems.ber_monte_carlo_s_per_mbit"] = (
            sum(map(duration, mc)) / sum(s["n_bits"] for s in mc) * 1e6, "s/Mbit")
        # a point's time is its enclosing span: the sweep's per-point span, or
        # the validate check that evaluates its BER points
        parents = {s["parent"] for s in thresholds}
        point_s = sum(duration(t.spans[p]) for p in parents)
        m["systems.threshold_share"] = (sum(map(duration, thresholds)) / point_s, "ratio")
        for s in t.spans:
            if s["name"].startswith("validate.check_"):
                m[f"{s['name']}_s"] = (duration(s), "s")
        m["plotting.write_ber_svg_ms"] = (
            1e3 * duration(t.select("plotting.write_ber_svg")[0]), "ms")
        workload_s = duration(t.spans[root])
        m["cli.pool_speedup"] = (workload_s / (cli_wall_s - cli_setup_s), "ratio")
        return m
