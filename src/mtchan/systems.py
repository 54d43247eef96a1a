"""Binary signaling over the three timing systems: conditional densities,
ML thresholds, analytic BER and a Monte Carlo transmission oracle.

All detector math is done in standardized coordinates u = y/c with
separation delta_std = delta/c, so results at a fixed G-SNR are invariant
under joint rescaling of (delta, c) down to floating-point roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .power import System, scale_for_gsnr
from .stable import StableParams, StandardStable, std_cdf, std_pdf

#: doublings allowed when expanding a root bracket before giving up
BRACKET_EXPANSION_CAP = 60


@dataclass(frozen=True)
class BinaryScheme:
    """One binary modulation instance: system, symbol separation, noise law."""

    system: System
    delta: float
    noise: StableParams

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.noise.mu != 0.0 or self.noise.alpha != 0.5:
            raise ValueError("noise must be a zero-location alpha = 1/2 law")
        if self.noise.c <= 0.0:
            raise ValueError("noise scale must be > 0")
        expected = {System.A: 1.0, System.B: 0.0}
        if self.system in expected and self.noise.beta != expected[self.system]:
            raise ValueError(
                f"system {self.system.value} requires beta = {expected[self.system]}")

    @property
    def symbols(self) -> tuple[float, float]:
        """(low, high) input alphabet."""
        if self.system is System.C:
            return (-self.delta, self.delta)
        return (0.0, self.delta)


def scheme_for_gsnr(system: System, delta: float, gsnr: float,
                    beta: float = 0.0) -> BinaryScheme:
    """Build a scheme whose noise scale realizes the requested G-SNR."""
    c = scale_for_gsnr(system, delta, gsnr, beta)
    noise_beta = {System.A: 1.0, System.B: 0.0}.get(system, beta)
    return BinaryScheme(system, delta, StableParams(0.0, c, 0.5, noise_beta))


@dataclass(frozen=True)
class DetectorState:
    """ML threshold plus decision convention: y <= threshold decides low_symbol."""

    threshold: float
    low_symbol: float
    high_symbol: float


@dataclass(frozen=True)
class BerRecord:
    """One experiment row for the BER tables/sweeps."""

    gsnr: float
    gsnr_db: float
    system: System
    beta: float
    delta: float
    c: float
    threshold: float
    ber_analytic: float
    ber_mc: float | None = None
    mc_stderr: float | None = None
    samples: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.ber_analytic <= 1.0):
            raise ValueError(f"ber out of range: {self.ber_analytic}")
        if (self.ber_mc is None) != (self.mc_stderr is None) or (
                self.ber_mc is None) != (self.samples is None):
            raise ValueError("Monte Carlo fields must be present together")


def _std(scheme: BinaryScheme) -> StandardStable:
    return StandardStable(0.5, scheme.noise.beta)


_SYM = StandardStable(0.5, 0.0)


def cond_pdf(scheme: BinaryScheme, symbol: float, y: float) -> float:
    """Density of the observation given the transmitted symbol."""
    if symbol not in scheme.symbols:
        raise ValueError(f"symbol {symbol} not in alphabet {scheme.symbols}")
    c = scheme.noise.c
    if scheme.system is System.B:
        if y < 0.0:
            return 0.0
        if y == 0.0:
            if symbol == 0.0:
                return 2.0 / (c * math.pi)
            return std_pdf(_SYM, scheme.delta / c) / c
        # folded output: contributions from +/-y
        return (std_pdf(_SYM, (y - symbol) / c)
                + std_pdf(_SYM, (-y - symbol) / c)) / c
    return std_pdf(_std(scheme), (y - symbol) / c) / c


def llr(scheme: BinaryScheme, y: float) -> float:
    """log f(y | low symbol) - log f(y | high symbol); +/-inf on support edges."""
    low, high = scheme.symbols
    p_low = cond_pdf(scheme, low, y)
    p_high = cond_pdf(scheme, high, y)
    if p_low == 0.0 and p_high == 0.0:
        raise ValueError(f"observation y = {y} is impossible under both symbols")
    if p_high == 0.0:
        return math.inf
    if p_low == 0.0:
        return -math.inf
    return math.log(p_low) - math.log(p_high)


def _density_gap(scheme: BinaryScheme, u: float, d: float) -> float:
    # f(y|low) - f(y|high) in standardized units u = y/c, d = delta/c
    if scheme.system is System.A:
        return std_pdf(_std(scheme), u) - std_pdf(_std(scheme), u - d)
    if scheme.system is System.B:
        return (2.0 * std_pdf(_SYM, u)
                - std_pdf(_SYM, u - d) - std_pdf(_SYM, u + d))
    return std_pdf(_std(scheme), u + d) - std_pdf(_std(scheme), u - d)


def _solve_gap(scheme: BinaryScheme, lo: float, hi: float, d: float) -> float:
    xtol = 1e-12 * max(d, 1.0)
    return optimize.brentq(lambda u: _density_gap(scheme, u, d), lo, hi,
                           xtol=xtol, rtol=8.881784197001252e-16)


def _expand_bracket(scheme: BinaryScheme, lo: float, d: float,
                    step: float) -> float:
    # grow hi geometrically until the density gap changes sign
    hi = lo + step
    for _ in range(BRACKET_EXPANSION_CAP):
        if _density_gap(scheme, hi, d) < 0.0:
            return hi
        hi = lo + 2.0 * (hi - lo)
    raise RuntimeError(
        f"no sign change after {BRACKET_EXPANSION_CAP} bracket doublings; "
        f"pathological parameters {scheme}")


def ml_threshold(scheme: BinaryScheme) -> DetectorState:
    """Maximum-likelihood decision threshold (root of the LLR).

    Mode of the standard Levy law sits at 1/3, which pins the bracket for
    system A; system B starts just above delta/2; system C brackets the
    sign change symmetrically and short-circuits to 0 when beta = 0.
    """
    c = scheme.noise.c
    d = scheme.delta / c
    low, high = scheme.symbols

    if scheme.system is System.A:
        lo = max(d, 1.0 / 3.0) * (1.0 + 1e-12)
        u = _solve_gap(scheme, lo, d + 1.0 / 3.0, d)
    elif scheme.system is System.B:
        lo = d / 2.0 * (1.0 + 1e-12)
        hi = _expand_bracket(scheme, lo, d, 1.0 + d)
        u = _solve_gap(scheme, lo, hi, d)
    else:
        beta = scheme.noise.beta
        if beta == 0.0:
            u = 0.0
        elif abs(beta) == 1.0:
            # one-sided noise: same structure as system A around the mode;
            # solve in the beta = +1 mirror and flip the sign back
            work = scheme if beta > 0.0 else BinaryScheme(
                System.C, scheme.delta, StableParams(0.0, c, 0.5, 1.0))
            lo = max(d, 1.0 / 3.0 - d) * (1.0 + 1e-12)
            u = _solve_gap(work, lo, d + 1.0 / 3.0, d)
            if beta < 0.0:
                u = -u
        else:
            flip = beta < 0.0
            work = scheme if not flip else BinaryScheme(
                System.C, scheme.delta,
                StableParams(0.0, c, 0.5, -beta))
            span = 1.0 + d
            lo, hi = -span, span
            for _ in range(BRACKET_EXPANSION_CAP):
                if (_density_gap(work, lo, d) > 0.0
                        and _density_gap(work, hi, d) < 0.0):
                    break
                lo, hi = 2.0 * lo, 2.0 * hi
            else:
                raise RuntimeError("system C bracket expansion failed")
            u = _solve_gap(work, lo, hi, d)
            if flip:
                u = -u
    return DetectorState(threshold=u * c, low_symbol=low, high_symbol=high)


def detect(state: DetectorState, scheme: BinaryScheme, y: float) -> float:
    """Threshold rule; ties go to the low symbol."""
    return state.low_symbol if y <= state.threshold else state.high_symbol


def ber_analytic(scheme: BinaryScheme, state: DetectorState | None = None) -> float:
    """Error probability of the threshold detector (equiprobable symbols)."""
    if state is None:
        state = ml_threshold(scheme)
    c = scheme.noise.c
    u = state.threshold / c
    d = scheme.delta / c
    if scheme.system is System.A:
        F = lambda x: std_cdf(_std(scheme), x)
        return 0.5 * (1.0 - F(u) + F(u - d))
    if scheme.system is System.B:
        F = lambda x: std_cdf(_SYM, x)
        # re-derived from Pr(|L| > th | 0) and Pr(|delta + L| <= th | delta)
        return 0.5 - F(u) + 0.5 * F(u - d) + 0.5 * F(u + d)
    F = lambda x: std_cdf(_std(scheme), x)
    return 0.5 * (1.0 - F(u + d) + F(u - d))


def _levy_variates(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(n)
    z = rng.standard_normal(n)
    return scale / (z * z)


def system_c_component_scales(c: float, beta: float) -> tuple[float, float]:
    """Scales (c_pos, c_neg) of the two one-sided first-arrival delays whose
    difference realizes the S(0, c, 1/2, beta) noise of system C.

    The positively-signed delay carries sqrt(c_pos) = sqrt(c)*(1+beta)/2 so
    that the skew of the difference matches beta.
    """
    root = math.sqrt(c)
    return (root * (1.0 + beta) / 2.0) ** 2, (root * (1.0 - beta) / 2.0) ** 2


def simulate_transmission(scheme: BinaryScheme, n_bits: int,
                          seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw equiprobable symbols and push them through the physical channel.

    Returns (sent symbols, observations); deterministic for a given seed.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    rng = np.random.default_rng(seed)
    low, high = scheme.symbols
    sent = np.where(rng.integers(0, 2, n_bits) == 0, low, high)
    c = scheme.noise.c
    if scheme.system is System.A:
        y = sent + _levy_variates(rng, n_bits, c)
    elif scheme.system is System.B:
        # two indistinguishable first arrivals, each Levy with c_B/4
        t1 = _levy_variates(rng, n_bits, c / 4.0)
        t2 = _levy_variates(rng, n_bits, c / 4.0)
        y = np.abs(sent + t1 - t2)
    else:
        c_pos, c_neg = system_c_component_scales(c, scheme.noise.beta)
        t_pos = _levy_variates(rng, n_bits, c_pos)
        t_neg = _levy_variates(rng, n_bits, c_neg)
        y = sent + t_pos - t_neg
    return sent, y


def ber_monte_carlo(scheme: BinaryScheme, n_bits: int, seed,
                    state: DetectorState | None = None) -> tuple[float, float]:
    """Empirical BER and its binomial standard error."""
    if n_bits < 10_000:
        raise ValueError(f"n_bits must be >= 10^4, got {n_bits}")
    if state is None:
        state = ml_threshold(scheme)
    sent, y = simulate_transmission(scheme, n_bits, seed)
    decided = np.where(y <= state.threshold, state.low_symbol, state.high_symbol)
    p = float(np.mean(decided != sent))
    return p, math.sqrt(p * (1.0 - p) / n_bits)
