"""Cross-validation checks: closed forms (Levy, and alpha = 1/2 at any beta)
vs numerical inversion, the sampled alpha = 1/2 noise the Monte Carlo counts
vs its CDF by Kolmogorov-Smirnov, geometric power and Var log|X| vs their
quadrature over the Chambers-Mallows-Stuck representation within
GEOMETRIC_POWER_TOL, and within Z_GATE standard errors analytic BER vs one
simulated draw per (system, beta) curve.

Each check returns a CheckResult.  run_all is the one list of the suite's
four check groups, in report order; the CLI `validate` command runs them on
its pool and prints one line per check, and the tests assert on the same
objects.  A statistical group draws law i on stream_seed(group seed, i), and
group g (1 KS, 3 BER) takes stream_seed(suite seed, g); the geometric-power
group is deterministic, draws nothing, and sums stable._theta_range's sines
by stable._quad.  The KS check reads the draws of montecarlo.sample at mu =
0, c = 1, drawn a block of 2^16 at a time, and sorts the whole sample in
place.
Neither importing this module nor running its checks loads any part of scipy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import systems
from .montecarlo import sample, stream_seed
from .power import System, geometric_power
from .stable import (EULER_GAMMA, StableParams, StandardStable,
                     _levy_std_cdf, _levy_std_pdf, _nolan, _quad,
                     _theta_range, std_cdf, std_pdf, tail_coefficient)

#: significance level shared by all KS checks
KS_SIGNIFICANCE = 1e-3
#: z-gate of the BER checks: 0.27% false alarms each
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
    [0.05, 50], where the inversion agrees with them to ~1e-14.  One Nolan
    pass per point gives both the density and the CDF."""
    # the two spacings share x = 2, inverted once
    xs = np.concatenate([np.linspace(0.05, 2.0, 40), np.linspace(2.0, 50.0, 40)[1:]])
    levy = [(x, _nolan(0.5, 1.0, x, slice(0, 2))) for x in map(float, xs)]
    dev_pdf = max(abs(f - _levy_std_pdf(x)) for x, (f, _) in levy)
    dev_cdf = max(abs(cdf_x - _levy_std_cdf(x)) for x, (_, cdf_x) in levy)
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
        numeric = [_nolan(0.5, beta, x, slice(0, 2)) for x in xs]
        for k, (what, closed) in enumerate((("pdf", std_pdf), ("cdf", std_cdf))):
            dev = max(abs(closed(s, x) - pair[k]) for x, pair in zip(xs, numeric))
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


def _ks_law(beta: float, n: int, seed: int) -> list[CheckResult]:
    # n draws of the standardized noise, the Levy difference the Monte Carlo
    # counts its errors on
    d, p = _ks_test(sample(StableParams(0.0, 1.0, 0.5, beta), n, seed),
                    make_std_cdf_vectorized(beta))
    return [CheckResult(f"sampled noise vs std_cdf (beta={beta})",
                        p >= KS_SIGNIFICANCE, f"KS D={d:.5f} p={p:.5f}")]


def check_sampling_ks(n: int = 100_000, seed: int = 20) -> list[CheckResult]:
    """KS tests of the alpha = 1/2 noise sample draws, one per KS_LAWS beta,
    against its CDF, law i on stream_seed(seed, i)."""
    return [r for i, beta in enumerate(KS_LAWS)
            for r in _ks_law(beta, n, stream_seed(seed, i))]


def _log_abs_variance(alpha: float, beta: float) -> float:
    # Var log|X| of a stable law, (pi^2/12)(1 + 2/alpha^2) - theta^2/alpha^2
    # with theta = atan(beta tan(pi alpha/2)) (Zolotarev 1986; Kuruoglu 2001)
    theta = math.atan(beta * math.tan(math.pi * alpha / 2.0))
    return math.pi ** 2 / 12.0 * (1.0 + 2.0 / alpha ** 2) - (theta / alpha) ** 2


#: gate of the geometric-power check on both its deviations: |E log|X| -
#: log S0| and |Var log|X| / _log_abs_variance - 1|
GEOMETRIC_POWER_TOL = 1e-12

# By Chambers, Mallows & Stuck (1976; Weron 1996), montecarlo's sampler, a
# standard stable X is s sin(alpha(U + b)) / cos(U)^(1/alpha) * (cos(U -
# alpha(U + b)) / W)^((1 - alpha)/alpha), U uniform on (-pi/2, pi/2) and W ~
# Exp(1), with zeta = beta tan(pi alpha/2), b = atan(zeta)/alpha and log s =
# log(1 + zeta^2)/(2 alpha).  So log|X| = log s + A(U) - k log W, k = (1 -
# alpha)/alpha, with A(u) = log|sin alpha(u + b)| - (1/alpha) log cos u +
# k log|cos(u - alpha(u + b))|, and as E log W = -gamma and Var log W =
# pi^2/6: E log|X| = log s + (1/pi) Int A + k gamma and Var log|X| = Var A(U)
# + k^2 pi^2/6.  A's log singularities lie at u = -b and at or beyond the
# ends +-pi/2, so Int A and Int A^2 are taken on (-b, pi/2) and on (-pi/2,
# -b), which is (-b, pi/2) of the mirrored law: A at (u, beta) is A at (-u,
# -beta).  (-b, pi/2) is Nolan's theta range and A's three factors are his,
# so both come from stable._theta_range, and the rule is stable._quad's in
# t, u's logit being pi sinh t, with an absolute floor of the width on Int
# A, which is 0 at beta = 0, where A is even.  Past |t| = 4 a node is
# within 1e-37 of the width from an end, where A^2 times the weight is
# below 1e-29.


def _log_abs_moments_above(alpha: float, beta: float) -> tuple[float, float]:
    """(Int A, Int A^2) over u in (-b, pi/2)."""
    _, width, _, at = _theta_range(alpha, beta)
    if width == 0.0:
        return 0.0, 0.0
    k = (1.0 - alpha) / alpha

    def integrand(t):
        sin_a, cos_u, cos_b, jac = at(math.pi * math.sinh(t))
        a = math.log(sin_a) - math.log(cos_u) / alpha + k * math.log(cos_b)
        jac *= math.pi * math.cosh(t)  # du/dt
        return a * jac, a * a * jac

    return tuple(_quad(integrand, 4.0, (width,))[0])


def _log_abs_moments(alpha: float, beta: float) -> tuple[float, float]:
    """(E log|X|, Var log|X|) of the standard stable law, by quadrature."""
    (a1, a2), (b1, b2) = (_log_abs_moments_above(alpha, beta),
                          _log_abs_moments_above(alpha, -beta))
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    k = (1.0 - alpha) / alpha
    mean_a = (a1 + b1) / math.pi
    return (math.log1p(zeta * zeta) / (2.0 * alpha) + mean_a + k * EULER_GAMMA,
            (a2 + b2) / math.pi - mean_a * mean_a + (k * math.pi) ** 2 / 6.0)


def check_geometric_power_mc() -> list[CheckResult]:
    """E log|X| and Var log|X| by quadrature vs the closed forms, log S0
    (Zolotarev's geometric power) and _log_abs_variance, one line per
    GEOMETRIC_POWER_LAWS law: both deviations <= GEOMETRIC_POWER_TOL.  The
    name, from the Monte Carlo oracle this replaced, is that of bench/'s
    per-layer metric validate.check_geometric_power_mc_s."""
    results = []
    for alpha, beta in GEOMETRIC_POWER_LAWS:
        mean, var = _log_abs_moments(alpha, beta)
        ref = geometric_power(StableParams(0.0, 1.0, alpha, beta))
        d_mean = abs(mean - math.log(ref))
        d_var = abs(var / _log_abs_variance(alpha, beta) - 1.0)
        results.append(CheckResult(
            f"geometric power vs quadrature (alpha={alpha}, beta={beta})",
            d_mean <= GEOMETRIC_POWER_TOL and d_var <= GEOMETRIC_POWER_TOL,
            f"quad={math.exp(mean):.6f} closed={ref:.6f} |dlog|={d_mean:.1e} "
            f"|dvar|/var={d_var:.1e} (tol {GEOMETRIC_POWER_TOL:.0e})"))
    return results


def _ber_curve(system: System, beta: float, n_bits: int,
               seed: int) -> list[CheckResult]:
    rows = systems.ber_rows([(system, beta, 1.0, g) for g in BER_GSNRS],
                            n_bits, seed)
    return [CheckResult(
        f"BER analytic vs MC ({system.value}, beta={beta}, gsnr={gsnr})",
        z <= Z_GATE, f"analytic={r.ber_analytic:.6f} mc={r.ber_mc:.6f} z={z:.2f}")
        for gsnr, r in zip(BER_GSNRS, rows)
        for z in [abs(r.ber_analytic - r.ber_mc) / r.mc_stderr]]


def check_ber_analytic_vs_mc(n_bits: int = 1_000_000,
                             seed: int = 11) -> list[CheckResult]:
    """Analytic BER vs Monte Carlo within Z_GATE paired-count standard errors,
    one draw per BER_CASES curve, curve i on stream_seed(seed, i)."""
    return [r for i, (system, beta) in enumerate(BER_CASES)
            for r in _ber_curve(system, beta, n_bits, stream_seed(seed, i))]


def run_all(mc_samples: int = 1_000_000, seed: int = 0,
            run=None) -> list[CheckResult]:
    """The whole suite in report order: the closed forms, the KS group on a
    tenth of mc_samples (at least 10^4) and stream_seed(seed, 1), the
    geometric power, and the BER group on mc_samples and stream_seed(seed,
    3).  Each group is a call of its module-level check_* (looked up here)
    that takes no arguments and seeds its own draws; run maps these calls
    to their results in order (by default, calling each here), so a pool
    may run the groups and report what a serial run does."""
    groups = [functools.partial(check_levy_closed_vs_numeric),
              functools.partial(check_sampling_ks, max(mc_samples // 10, 10_000),
                                stream_seed(seed, 1)),
              functools.partial(check_geometric_power_mc),
              functools.partial(check_ber_analytic_vs_mc, mc_samples,
                                stream_seed(seed, 3))]
    return [r for rs in (run(groups) if run else [g() for g in groups])
            for r in rs]
