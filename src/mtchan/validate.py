"""Cross-validation checks: closed forms (Levy, and alpha = 1/2 at any beta)
vs numerical inversion, sampler vs CDF by Kolmogorov-Smirnov, geometric
power vs a Monte Carlo log-moment oracle, and analytic vs simulated BER.

Each check returns a CheckResult; the CLI `validate` command prints one
line per check and the test suite asserts on the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import interpolate, stats

from . import systems
from .power import System, geometric_power
from .stable import (StableParams, StandardStable, _levy_std_cdf,
                     _levy_std_pdf, std_cdf, std_pdf, tail_coefficient)

#: significance level shared by all KS checks
KS_SIGNIFICANCE = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def make_std_cdf_vectorized(beta: float):
    """Vectorized approximation of the alpha = 1/2 standard CDF for KS use.

    PCHIP interpolation of `std_cdf` on 600 points uniform in asinh(x) over
    |x| <= 1e4, with first-order power-law tails beyond.  The approximation
    error is orders of magnitude below KS critical values.
    """
    s = StandardStable(0.5, beta)
    u_edge = math.asinh(1e4)
    xs = np.sinh(np.linspace(-u_edge, u_edge, 600))
    fs = np.array([std_cdf(s, float(x)) for x in xs])
    # interpolate in asinh(x) so the grid stays dense out into the tails
    interp = interpolate.PchipInterpolator(np.arcsinh(xs), fs, extrapolate=False)
    c_tail = tail_coefficient(0.5)

    def cdf_vec(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        lo = x < xs[0]
        hi = x > xs[-1]
        mid = ~(lo | hi)
        out[mid] = interp(np.arcsinh(x[mid]))
        out[hi] = 1.0 - c_tail * (1.0 + beta) * x[hi] ** -0.5
        out[lo] = c_tail * (1.0 - beta) * np.abs(x[lo]) ** -0.5
        return np.clip(out, 0.0, 1.0)

    return cdf_vec


def _ks_result(name: str, samples: np.ndarray, cdf_callable) -> CheckResult:
    stat = stats.kstest(samples, cdf_callable)
    passed = stat.pvalue >= KS_SIGNIFICANCE
    return CheckResult(name, passed,
                       f"KS D={stat.statistic:.5f} p={stat.pvalue:.5f}")


def check_levy_closed_vs_numeric(tol: float = 1e-8) -> list[CheckResult]:
    """Numerical inversion vs the closed forms: the Levy law on x in
    [0.05, 50], and alpha = 1/2 at beta in {0, 0.5, -0.75} on +/-x in
    [0.05, 50], where the inversion agrees with them to ~1e-14."""
    from .stable import _cdf_numeric, _pdf_numeric
    xs = np.concatenate([np.linspace(0.05, 2.0, 40), np.linspace(2.0, 50.0, 40)])
    dev_pdf = max(abs(_pdf_numeric(0.5, 1.0, float(x)) - _levy_std_pdf(float(x)))
                  for x in xs)
    dev_cdf = max(abs(_cdf_numeric(0.5, 1.0, float(x)) - _levy_std_cdf(float(x)))
                  for x in xs)
    at_zero = abs(std_pdf(StandardStable(0.5, 0.0), 0.0) - 2.0 / math.pi)
    results = [
        CheckResult("pdf numeric vs Levy closed form", dev_pdf <= tol,
                    f"max |dev| = {dev_pdf:.3e} (tol {tol:.1e})"),
        CheckResult("cdf numeric vs Levy closed form", dev_cdf <= tol,
                    f"max |dev| = {dev_cdf:.3e} (tol {tol:.1e})"),
        CheckResult("symmetric pdf at 0 equals 2/pi", at_zero <= 1e-10,
                    f"|dev| = {at_zero:.3e} (tol 1e-10)"),
    ]
    half = np.geomspace(0.05, 50.0, 16)
    xs = [float(x) for x in np.concatenate([-half[::-1], half])]
    for beta in (0.0, 0.5, -0.75):
        s = StandardStable(0.5, beta)
        for what, closed, numeric in (("pdf", std_pdf, _pdf_numeric),
                                      ("cdf", std_cdf, _cdf_numeric)):
            dev = max(abs(closed(s, x) - numeric(0.5, beta, x)) for x in xs)
            results.append(CheckResult(
                f"{what} numeric vs alpha=1/2 closed form (beta={beta})",
                dev <= tol, f"max |dev| = {dev:.3e} (tol {tol:.1e})"))
    return results


def check_sampling_ks(n: int = 100_000, seed: int = 20) -> list[CheckResult]:
    """Sampler-vs-CDF KS tests covering the channel noise constructions."""
    results = []
    rng = np.random.default_rng(seed)

    from scipy.special import erfc

    def levy_cdf_vec(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, erfc(np.sqrt(0.5 / np.maximum(x, 1e-300))), 0.0)

    from .stable import sample
    levy = sample(StableParams(0.0, 1.0, 0.5, 1.0), n, rng.integers(2 ** 63))
    results.append(_ks_result("Levy sampler vs closed-form CDF", levy, levy_cdf_vec))

    # difference of i.i.d. Levy(0, c_A) is S(0, 4*c_A, 1/2, 0)
    c_a = 1.0
    t1 = sample(StableParams(0.0, c_a, 0.5, 1.0), n, rng.integers(2 ** 63))
    t2 = sample(StableParams(0.0, c_a, 0.5, 1.0), n, rng.integers(2 ** 63))
    sym_cdf = make_std_cdf_vectorized(0.0)
    results.append(_ks_result("Levy difference vs S(0, 4c, 1/2, 0)",
                              (t1 - t2) / (4.0 * c_a), sym_cdf))

    # system C decomposition into two one-sided delays
    for beta in (0.25, 0.75):
        c = 1.0
        c_pos, c_neg = systems.system_c_component_scales(c, beta)
        tp = sample(StableParams(0.0, c_pos, 0.5, 1.0), n, rng.integers(2 ** 63))
        tn = sample(StableParams(0.0, c_neg, 0.5, 1.0), n, rng.integers(2 ** 63))
        skew_cdf = make_std_cdf_vectorized(beta)
        results.append(_ks_result(
            f"system C decomposition vs std_cdf (beta={beta})",
            (tp - tn) / c, skew_cdf))
    return results


def check_geometric_power_mc(n: int = 1_000_000, seed: int = 7,
                             rel_tol: float = 0.02) -> list[CheckResult]:
    """exp(mean(log|X|)) over n variates vs the closed-form geometric power."""
    from .stable import sample
    results = []
    for i, (alpha, beta) in enumerate([(0.5, 0.0), (0.5, 1.0), (0.5, 0.5), (2.0, 0.0)]):
        params = StableParams(0.0, 1.0, alpha, beta)
        xs = sample(params, n, seed + i)
        mc = math.exp(float(np.mean(np.log(np.abs(xs)))))
        ref = geometric_power(params)
        rel = abs(mc - ref) / ref
        results.append(CheckResult(
            f"geometric power MC oracle (alpha={alpha}, beta={beta})",
            rel <= rel_tol, f"mc={mc:.6f} closed={ref:.6f} rel dev={rel:.4f}"))
    return results


def check_ber_analytic_vs_mc(n_bits: int = 1_000_000, seed: int = 11,
                             gsnrs=(0.25, 1.0, 4.0)) -> list[CheckResult]:
    """Analytic BER vs Monte Carlo within 3 binomial standard errors."""
    results = []
    cases = [(System.A, 1.0), (System.B, 0.0), (System.C, 0.5)]
    for i, (system, beta) in enumerate(cases):
        for j, gsnr in enumerate(gsnrs):
            scheme = systems.scheme_for_gsnr(system, 1.0, gsnr, beta)
            state = systems.ml_threshold(scheme)
            analytic = systems.ber_analytic(scheme, state)
            mc, stderr = systems.ber_monte_carlo(
                scheme, n_bits, seed + 100 * i + j, state)
            z = abs(analytic - mc) / stderr
            results.append(CheckResult(
                f"BER analytic vs MC ({system.value}, beta={beta}, gsnr={gsnr})",
                z <= 3.0, f"analytic={analytic:.6f} mc={mc:.6f} z={z:.2f}"))
    return results


def run_all(mc_samples: int = 1_000_000, seed: int = 0,
            tol: float = 1e-8) -> list[CheckResult]:
    """Full oracle suite with a shared seed; deterministic output."""
    results = []
    results += check_levy_closed_vs_numeric(tol)
    results += check_sampling_ks(n=max(mc_samples // 10, 10_000), seed=seed + 1)
    results += check_geometric_power_mc(n=mc_samples, seed=seed + 2)
    results += check_ber_analytic_vs_mc(n_bits=mc_samples, seed=seed + 3)
    return results
