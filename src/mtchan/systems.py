"""Binary signaling over the three timing systems: ML thresholds, analytic
BER and ber_rows, the BER rows that `sweep`, `table1` and `validate` print.

All detector math is done in standardized coordinates u = y/c with
separation delta_std = delta/c, so results at a fixed G-SNR are invariant
under joint rescaling of (delta, c) down to floating-point roundoff.  The
Monte Carlo oracle is in montecarlo, which loads numpy: ber_rows imports it
for Monte Carlo columns only, and its ber_monte_carlo resolves here on use.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .power import System, input_symbols, noise_beta, scale_for_gsnr
from .stable import StableParams, StandardStable, _brent, std_cdf, std_pdf

class BinaryScheme(namedtuple("BinaryScheme", "system delta noise")):
    """One binary modulation instance: system, symbol separation, noise law."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.noise.mu != 0.0 or self.noise.alpha != 0.5:
            raise ValueError("noise must be a zero-location alpha = 1/2 law")
        required = noise_beta(self.system, self.noise.beta)
        if self.noise.beta != required:
            raise ValueError(
                f"system {self.system.value} requires beta = {required}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def symbols(self) -> tuple[float, float]:
        """(low, high) input alphabet."""
        return input_symbols(self.system, self.delta)


def scheme_for_gsnr(system: System, delta: float, gsnr: float,
                    beta: float = 0.0) -> BinaryScheme:
    """Build a scheme whose noise scale realizes the requested G-SNR."""
    c = scale_for_gsnr(system, delta, gsnr, beta)
    return BinaryScheme(system, delta,
                        StableParams(0.0, c, 0.5, noise_beta(system, beta)))


class DetectorState(namedtuple("DetectorState",
                                "threshold low_symbol high_symbol")):
    """ML threshold plus decision convention: y <= threshold decides low_symbol."""

    __slots__ = ()


class BerRecord(namedtuple(
        "BerRecord", "gsnr_db system beta delta c threshold ber_analytic"
        " ber_mc mc_stderr samples", defaults=(None, None, None))):
    """One experiment row for the BER tables/sweeps."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 <= self.ber_analytic <= 1.0):
            raise ValueError(f"ber out of range: {self.ber_analytic}")
        if (self.ber_mc is None) != (self.mc_stderr is None) or (
                self.ber_mc is None) != (self.samples is None):
            raise ValueError("Monte Carlo fields must be present together")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _low_region(scheme: BinaryScheme, s: float,
                u: float) -> tuple[float | None, float]:
    # (lo, hi): the standardized noise lo <= N <= hi of a low decision when s
    # is sent.  U = s + N <= u is N <= u - s, and B's |s + N| <= u also N >=
    # -u - s; lo is None for A and C.  _law and the Monte Carlo both read it
    return (-u - s if scheme.system is System.B else None), u - s


def _law(scheme: BinaryScheme, s: float, u: float, kind: str) -> float:
    # the law of U = y/c given the standardized symbol s, on its region of a
    # low decision: density ("pdf"), P(U <= u) ("cdf") or P(U > u) ("sf"), no
    # 1 - F: P(N > hi) is the CDF of -N ~ S(1/2, -beta) at -hi
    law = scheme.noise.standard
    if scheme.system is System.B and u < 0.0:
        return 1.0 if kind == "sf" else 0.0
    lo, hi = _low_region(scheme, s, u)
    f = std_pdf if kind == "pdf" else std_cdf
    value = (std_cdf(StandardStable(0.5, -law.beta), -hi) if kind == "sf"
             else f(law, hi))
    if lo is not None:  # B: the mass below lo decides high too
        value = value - f(law, lo) if kind == "cdf" else value + f(law, lo)
    return value


def _density_gap(scheme: BinaryScheme, u: float, d: float) -> float:
    # f(y|low) - f(y|high) in standardized units u = y/c, d = delta/c
    low, high = input_symbols(scheme.system, d)
    return _law(scheme, low, u, "pdf") - _law(scheme, high, u, "pdf")


def _bracket(scheme: BinaryScheme, d: float) -> tuple[float, float]:
    # closed-form (lo, hi) in u = y/c, evaluating no density: the density
    # gap is > 0 at lo and < 0 at hi wherever it rises above rounding noise;
    # (u, u) where u is the root to working precision
    beta = scheme.noise.beta
    low, high = input_symbols(scheme.system, d)
    if scheme.system is System.B:
        return d / 2.0 * (1.0 + 1e-12), 1.5 * d + 1.0
    # one-sided noise: the Levy density is exactly 0 at its support edge and
    # peaks 1/3 past it, so the gap f(u|low) - f(u|high) is > 0 at the high
    # symbol's edge or the low symbol's mode, whichever is later, and < 0 at
    # the high symbol's mode
    if beta == 1.0:
        return max(high, low + 1.0 / 3.0), high + 1.0 / 3.0
    if beta == -1.0:
        return low - 1.0 / 3.0, min(low, high - 1.0 / 3.0)
    if beta == 0.0:
        return 0.0, 0.0  # symmetric noise: the symbols' midpoint
    return -(1.0 + d), 1.0 + d


def ml_threshold(scheme: BinaryScheme) -> DetectorState:
    """Maximum-likelihood decision threshold (root of the LLR).

    One Brent solve of the density gap f(y|low) - f(y|high) on a
    closed-form bracket in u = y/c, d = delta/c: (d/2, 3d/2 + 1) for system
    B, (-(1+d), 1+d) for system C with 0 < |beta| < 1, and for one-sided
    noise (A, and C at beta = +/-1) the span between the support edge and
    the Levy mode at 1/3.  A bracket of one float (system C with beta = 0,
    and one-sided noise once d + 1/3 rounds to d) is returned as the root.
    Where the gap is not > 0 at the lower end and < 0 at the upper end, it
    is rounding noise there (B below d ~ 1e-7, C with 0 < |beta| < 1 below
    d ~ 1e-16): no observation favours either symbol, and the threshold is
    the symbols' midpoint clipped into the bracket.  For C with
    0 < |beta| < 1 below d ~ 1e-16, the noise may also happen to give the
    gap those signs at both ends; Brent then runs on it, and the threshold
    is wherever the noise changes sign (-0.96c for beta = 0.95 at -332 dB).
    Either way the BER is 1/2 to within 2e-15.  A NaN gap raises ValueError.
    For one-sided noise, y = u*c can round across the support edge (from
    ~390 dB); the threshold is clipped to that edge's symbol, the bound the
    ML rule guarantees.
    """
    c = scheme.noise.c
    d = scheme.delta / c
    lo, hi = _bracket(scheme, d)
    u = lo
    if lo != hi:
        gap = lambda x: _density_gap(scheme, x, d)
        g_lo, g_hi = gap(lo), gap(hi)
        if g_lo > 0.0 > g_hi or math.isnan(g_lo) or math.isnan(g_hi):
            u = _brent(gap, lo, hi, g_lo, g_hi, 1e-12 * max(d, 1.0))
        else:
            u = min(max(sum(input_symbols(scheme.system, d)) / 2.0, lo), hi)
    low, high = scheme.symbols
    threshold = u * c
    # one-sided noise: no further in than the support edge's symbol
    if scheme.noise.beta == 1.0:
        threshold = max(threshold, high)
    elif scheme.noise.beta == -1.0:
        threshold = min(threshold, low)
    return DetectorState(threshold=threshold, low_symbol=low, high_symbol=high)


def ber_analytic(scheme: BinaryScheme, state: DetectorState | None = None) -> float:
    """Error probability of the threshold detector (equiprobable symbols),
    (P(y > threshold | low) + P(y <= threshold | high))/2, each term a tail
    of the noise law, so it keeps its relative precision at any G-SNR; at
    most 1/2 at any threshold."""
    if state is None:
        state = ml_threshold(scheme)
    c = scheme.noise.c
    u = state.threshold / c
    low, high = input_symbols(scheme.system, scheme.delta / c)
    # the high symbol's observation is stochastically larger than the low
    # one's (a shift for A and C, by Anderson's inequality for B's fold of a
    # symmetric unimodal law), so the tails sum to <= 1; where the midpoint
    # rule sets the threshold, their rounding reads up to 3 ulp above
    tails = _law(scheme, low, u, "sf") + _law(scheme, high, u, "cdf")
    return 0.5 * min(tails, 1.0)


def ber_rows(points, mc_samples: int = 0, seed=0, run=None) -> list[BerRecord]:
    """One BerRecord per (system, beta, delta, gsnr) point, in order: the
    scheme's ML threshold and analytic BER and, if mc_samples > 0, the
    paired count of montecarlo.ber_monte_carlo_curve over all points on the
    one draw of seed, its chunk tasks mapped through run."""
    schemes = [scheme_for_gsnr(system, delta, gsnr, beta)
               for system, beta, delta, gsnr in points]
    states = [ml_threshold(s) for s in schemes]
    mcs = [(None, None)] * len(points)
    if mc_samples:
        from . import montecarlo  # here, so that analytic rows skip numpy
        mcs = montecarlo.ber_monte_carlo_curve(schemes, states, mc_samples,
                                               seed, run)
    return [BerRecord(
        gsnr_db=10.0 * math.log10(gsnr), system=scheme.system,
        beta=scheme.noise.beta, delta=delta, c=scheme.noise.c,
        threshold=state.threshold, ber_analytic=ber_analytic(scheme, state),
        ber_mc=mc, mc_stderr=stderr, samples=mc_samples or None)
        for (_, _, delta, gsnr), scheme, state, (mc, stderr)
        in zip(points, schemes, states, mcs)]


#: fewest bits ber_monte_carlo draws; here, so that the CLI checks its flags
#: without loading numpy
MC_MIN_BITS = 10_000


def __getattr__(name: str):
    # ber_monte_carlo resolves from montecarlo on first use (PEP 562), so that
    # importing this module loads no numpy.  It stays for two readers:
    # tests/test_acceptance.py imports it from here, and bench/traced.py
    # patches it here and calls it in its Monte Carlo probe
    if name == "ber_monte_carlo":
        from . import montecarlo
        return montecarlo.ber_monte_carlo
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
