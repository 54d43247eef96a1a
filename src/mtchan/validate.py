"""Cross-validation checks: closed forms (Levy, and alpha = 1/2 at any beta)
vs numerical inversion, the sampled alpha = 1/2 noise the Monte Carlo counts
vs its CDF by Kolmogorov-Smirnov, and within Z_GATE standard errors geometric
power vs a Monte Carlo log-moment oracle (on the closed-form Var log|X|) and
analytic BER vs one simulated draw per (system, beta) curve.

Each check returns a CheckResult; the CLI `validate` command prints one
line per check and the test suite asserts on the same objects.  A
statistical group is one case per law, law i on stream_seed(group seed, i),
and group g (1 KS, 2 geometric power, 3 BER) on stream_seed(suite seed, g).
The KS and geometric-power checks read the draws of montecarlo.sample at
mu = 0, c = 1, drawn a block of 2^16 at a time: the geometric-power oracle
sums each block, so its memory does not grow with n, and the KS check sorts
the whole sample in place.
Neither importing this module nor running its checks loads any part of scipy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import systems
from .montecarlo import (_standard_blocks, ber_monte_carlo_curve, sample,
                         stream_seed)
from .power import System, geometric_power
from .stable import (StableParams, StandardStable, _cdf_numeric, _levy_std_cdf,
                     _levy_std_pdf, _pdf_numeric, std_cdf, std_pdf,
                     tail_coefficient)

#: significance level shared by all KS checks
KS_SIGNIFICANCE = 1e-3
#: z-gate of the geometric-power and BER checks: 0.27% false alarms each
Z_GATE = 3.0


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()


def make_std_cdf_vectorized(beta: float):
    """Vectorized approximation of the alpha = 1/2 standard CDF for KS use.

    Linear interpolation of `std_cdf` on 2400 points uniform in asinh(x)
    over |x| <= 1e4, with first-order power-law tails beyond.  The error,
    ~3e-5 at most, is orders of magnitude below KS critical values.
    """
    s = StandardStable(0.5, beta)
    # uniform in asinh(x), so the grid stays dense out into the tails
    us = np.linspace(-math.asinh(1e4), math.asinh(1e4), 2400)
    fs = np.array([std_cdf(s, float(x)) for x in np.sinh(us)])
    c_tail = tail_coefficient(0.5)

    def cdf_vec(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(np.arcsinh(x), us, fs)
        hi, lo = x > 1e4, x < -1e4
        out[hi] = 1.0 - c_tail * (1.0 + beta) * x[hi] ** -0.5
        out[lo] = c_tail * (1.0 - beta) * np.abs(x[lo]) ** -0.5
        return np.clip(out, 0.0, 1.0, out=out)

    return cdf_vec


def _ks_test(samples: np.ndarray, cdf_callable) -> tuple[float, float]:
    """Exact one-sample Kolmogorov-Smirnov D and its p-value: Kolmogorov's
    limit law Q(lam) = 2 sum_j (-1)^(j-1) exp(-2 j^2 lam^2) at Stephens'
    (1970) lam = (sqrt(n) + 0.12 + 0.11/sqrt(n)) D.  Sorts samples in place."""
    samples.sort()
    n = len(samples)
    # g = F(x_(i)) - i/n, formed in place: D = max(i/n - F, F - (i - 1)/n)
    # over i is max(-min g, max g + 1/n)
    g = cdf_callable(samples)
    steps = np.arange(1.0, n + 1.0)
    g -= np.divide(steps, n, out=steps)
    d = float(max(-np.min(g), np.max(g) + 1.0 / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    # below 0.2, Q > 1 - 1e-12 and the series converges slowly
    p = 1.0 if lam < 0.2 else min(1.0, 2.0 * sum(
        (-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2) for j in range(1, 101)))
    return d, p


def check_levy_closed_vs_numeric(tol: float = 1e-8) -> list[CheckResult]:
    """Numerical inversion vs the closed forms: the Levy law on x in
    [0.05, 50], and alpha = 1/2 at beta in {0, 0.5, -0.75} on +/-x in
    [0.05, 50], where the inversion agrees with them to ~1e-14."""
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


#: the KS check's alpha = 1/2 noise betas: A's (1), B's (0) and two of C's
KS_LAWS = (1.0, 0.0, 0.25, 0.75)
#: the geometric-power check's laws, (alpha, beta)
GEOMETRIC_POWER_LAWS = ((0.5, 0.0), (0.5, 1.0), (0.5, 0.5), (2.0, 0.0))
#: the BER check's (system, beta) curves, each counted on one draw
BER_CASES = ((System.A, 1.0), (System.B, 0.0), (System.C, 0.5))
#: ... and its G-SNRs
BER_GSNRS = (0.25, 1.0, 4.0)


def _cases(check, laws, n: int, seed: int) -> list[functools.partial]:
    # one call per law, law i on its own seed: check(*law, n, seed_i)
    return [functools.partial(check, *law, n, stream_seed(seed, i))
            for i, law in enumerate(laws)]


def _ks_law(beta: float, n: int, seed: int) -> list[CheckResult]:
    # n draws of the standardized noise, the Levy difference the Monte Carlo
    # counts its errors on
    d, p = _ks_test(sample(StableParams(0.0, 1.0, 0.5, beta), n, seed),
                    make_std_cdf_vectorized(beta))
    return [CheckResult(f"sampled noise vs std_cdf (beta={beta})",
                        p >= KS_SIGNIFICANCE, f"KS D={d:.5f} p={p:.5f}")]


def check_sampling_ks(n: int = 100_000, seed: int = 20) -> list[CheckResult]:
    """KS tests of the alpha = 1/2 noise sample draws, one per KS_LAWS beta,
    against its CDF."""
    # zip gives each beta as a one-element law
    return [r for case in _cases(_ks_law, zip(KS_LAWS), n, seed) for r in case()]


def _log_abs_variance(alpha: float, beta: float) -> float:
    # Var log|X| of a stable law, (pi^2/12)(1 + 2/alpha^2) - theta^2/alpha^2
    # with theta = atan(beta tan(pi alpha/2)) (Zolotarev 1986; Kuruoglu 2001)
    theta = math.atan(beta * math.tan(math.pi * alpha / 2.0))
    return math.pi ** 2 / 12.0 * (1.0 + 2.0 / alpha ** 2) - (theta / alpha) ** 2


def _mean_log_abs(alpha: float, beta: float, n: int, seed: int) -> float:
    # mean(log|X|) over sample(S(alpha, beta), n, seed)'s draws, summed a
    # block at a time in place, so memory is one block's whatever n is
    total = 0.0
    for z in _standard_blocks(alpha, beta, n, seed):
        total += float(np.sum(np.log(np.abs(z, out=z), out=z)))
    return total / n


def _geometric_power_law(alpha: float, beta: float, n: int,
                         seed: int) -> list[CheckResult]:
    params = StableParams(0.0, 1.0, alpha, beta)
    log_mc = _mean_log_abs(alpha, beta, n, seed)
    ref = geometric_power(params)
    z = abs(log_mc - math.log(ref)) / math.sqrt(_log_abs_variance(alpha, beta) / n)
    return [CheckResult(
        f"geometric power MC oracle (alpha={alpha}, beta={beta})",
        z <= Z_GATE, f"mc={math.exp(log_mc):.6f} closed={ref:.6f} z={z:.2f}")]


def check_geometric_power_mc(n: int = 1_000_000, seed: int = 7) -> list[CheckResult]:
    """exp(mean(log|X|)) over n variates vs the closed-form geometric power S0:
    z = |mean(log|X|) - log S0| / sqrt(Var log|X| / n) <= Z_GATE."""
    cases = _cases(_geometric_power_law, GEOMETRIC_POWER_LAWS, n, seed)
    return [r for case in cases for r in case()]


def _ber_curve(system: System, beta: float, n_bits: int,
               seed: int) -> list[CheckResult]:
    schemes = [systems.scheme_for_gsnr(system, 1.0, g, beta) for g in BER_GSNRS]
    states = [systems.ml_threshold(scheme) for scheme in schemes]
    curve = ber_monte_carlo_curve(schemes, states, n_bits, seed)
    analytic = [systems.ber_analytic(*point) for point in zip(schemes, states)]
    return [CheckResult(
        f"BER analytic vs MC ({system.value}, beta={beta}, gsnr={gsnr})",
        z <= Z_GATE, f"analytic={a:.6f} mc={mc:.6f} z={z:.2f}")
        for gsnr, a, (mc, stderr) in zip(BER_GSNRS, analytic, curve)
        for z in [abs(a - mc) / stderr]]


def check_ber_analytic_vs_mc(n_bits: int = 1_000_000,
                             seed: int = 11) -> list[CheckResult]:
    """Analytic BER vs Monte Carlo within Z_GATE binomial standard errors."""
    return [r for case in _cases(_ber_curve, BER_CASES, n_bits, seed) for r in case()]


def _ks_samples(mc_samples: int) -> int:
    return max(mc_samples // 10, 10_000)


def suite(mc_samples: int, seed: int) -> list[functools.partial]:
    """The suite in report order, as calls that take no arguments and each
    return a list of results: the closed-form group whole, then one call per
    KS law, geometric-power law and BER curve, each on the seed run_all
    gives it, so that the calls can run in any process."""
    return ([functools.partial(check_levy_closed_vs_numeric)]
            + _cases(_ks_law, zip(KS_LAWS), _ks_samples(mc_samples),
                     stream_seed(seed, 1))
            + _cases(_geometric_power_law, GEOMETRIC_POWER_LAWS, mc_samples,
                     stream_seed(seed, 2))
            + _cases(_ber_curve, BER_CASES, mc_samples, stream_seed(seed, 3)))


def run_all(mc_samples: int = 1_000_000, seed: int = 0) -> list[CheckResult]:
    """The whole suite, serially in this process, one check_* call per group
    (looked up when called); its results are those of suite(), in order."""
    return (check_levy_closed_vs_numeric()
            + check_sampling_ks(_ks_samples(mc_samples), stream_seed(seed, 1))
            + check_geometric_power_mc(mc_samples, stream_seed(seed, 2))
            + check_ber_analytic_vs_mc(mc_samples, stream_seed(seed, 3)))
