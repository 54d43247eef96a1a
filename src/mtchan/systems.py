"""Binary signaling over the three timing systems: conditional densities,
ML thresholds, analytic BER and a Monte Carlo transmission oracle.

All detector math is done in standardized coordinates u = y/c with
separation delta_std = delta/c, so results at a fixed G-SNR are invariant
under joint rescaling of (delta, c) down to floating-point roundoff.  The
Monte Carlo works there too: it draws the standardized noise N and counts
errors of U = s + N (|s + N| for B), the observation whose law _law gives.
It draws in chunks of MC_CHUNK bits, chunk k from the generator
PCG64(seed).jumped(k), and one chunk's draw serves every point counted on
it, of any system and skew: a point's count depends on the seed and the bit
count alone (chunk_errors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .power import System, input_symbols, noise_beta, scale_for_gsnr
from .stable import BRENT_RTOL, StableParams, StandardStable, _brent, std_cdf, std_pdf

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
        required = noise_beta(self.system, self.noise.beta)
        if self.noise.beta != required:
            raise ValueError(
                f"system {self.system.value} requires beta = {required}")

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


def _law(scheme: BinaryScheme, s: float, u: float, kind: str) -> float:
    # the law of U = y/c given the standardized symbol s, U = s + N or |s + N|
    # for B: density ("pdf"), P(U <= u) ("cdf") or P(U > u) ("sf"), no 1 - F
    law = scheme.noise.standard
    if scheme.system is System.B:  # N symmetric: P(N > x) = F(-x)
        if u < 0.0:
            return 1.0 if kind == "sf" else 0.0
        if kind == "pdf":
            return std_pdf(law, u - s) + std_pdf(law, -u - s)
        if kind == "cdf":
            return std_cdf(law, u - s) - std_cdf(law, -u - s)
        return std_cdf(law, s - u) + std_cdf(law, -u - s)
    if kind == "sf":  # P(N > x) is the CDF of -N ~ S(1/2, -beta) at -x
        return std_cdf(StandardStable(0.5, -law.beta), s - u)
    return (std_pdf if kind == "pdf" else std_cdf)(law, u - s)


def cond_pdf(scheme: BinaryScheme, symbol: float, y: float) -> float:
    """Density of the observation given the transmitted symbol s: f(y - s),
    f the noise density, or for B the folded f(y - s) + f(-y - s) on y >= 0."""
    if symbol not in scheme.symbols:
        raise ValueError(f"symbol {symbol} not in alphabet {scheme.symbols}")
    c = scheme.noise.c
    return _law(scheme, symbol / c, y / c, "pdf") / c


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
    the symbols' midpoint clipped into the bracket.  A NaN gap raises
    ValueError.
    """
    c = scheme.noise.c
    d = scheme.delta / c
    lo, hi = _bracket(scheme, d)
    u = lo
    if lo != hi:
        gap = lambda x: _density_gap(scheme, x, d)
        g_lo, g_hi = gap(lo), gap(hi)
        if g_lo > 0.0 > g_hi or math.isnan(g_lo) or math.isnan(g_hi):
            u = _brent(gap, lo, hi, g_lo, g_hi, 1e-12 * max(d, 1.0), BRENT_RTOL)
        else:
            u = min(max(sum(input_symbols(scheme.system, d)) / 2.0, lo), hi)
    low, high = scheme.symbols
    return DetectorState(threshold=u * c, low_symbol=low, high_symbol=high)


def detect(state: DetectorState, scheme: BinaryScheme, y: float) -> float:
    """Threshold rule; ties go to the low symbol."""
    return state.low_symbol if y <= state.threshold else state.high_symbol


def ber_analytic(scheme: BinaryScheme, state: DetectorState | None = None) -> float:
    """Error probability of the threshold detector (equiprobable symbols),
    (P(y > threshold | low) + P(y <= threshold | high))/2, each term a tail
    of the noise law, so it keeps its relative precision at any G-SNR."""
    if state is None:
        state = ml_threshold(scheme)
    c = scheme.noise.c
    u = state.threshold / c
    low, high = input_symbols(scheme.system, scheme.delta / c)
    return 0.5 * (_law(scheme, low, u, "sf") + _law(scheme, high, u, "cdf"))


def system_c_component_scales(c: float, beta: float) -> tuple[float, float]:
    """Scales (c_pos, c_neg) of the two one-sided first-arrival delays whose
    difference realizes the S(0, c, 1/2, beta) noise of system C.

    The positively-signed delay carries sqrt(c_pos) = sqrt(c)*(1+beta)/2 so
    that the skew of the difference matches beta.
    """
    root = math.sqrt(c)
    return (root * (1.0 + beta) / 2.0) ** 2, (root * (1.0 - beta) / 2.0) ** 2


def _delay_scales(scheme: BinaryScheme) -> tuple[float, float]:
    # scales (a1, a2) at c = 1 of the Levy delays in N = a1/Z1^2 - a2/Z2^2,
    # the standardized noise; 0 for no delay
    if scheme.system is System.A:
        return 1.0, 0.0
    if scheme.system is System.B:
        # two indistinguishable first arrivals, each Levy with c_B/4
        return 0.25, 0.25
    return system_c_component_scales(1.0, scheme.noise.beta)


def _draw(rng: np.random.Generator, n: int, two: bool, block: int):
    # the draws of n bits, a block at a time: (low, squares), the mask of the
    # bits that sent the low symbol and [Z1^2] or, if two, [Z1^2, Z2^2].  The
    # bits, then Z1, then Z2 come in this fixed order, so the bits and Z1 are
    # the same whether or not Z2 is drawn.  Drawn a block at a time, Z2 is
    # the same stream as drawn at once, so only the mask and Z1 span all n
    low = rng.integers(0, 2, n) == 0
    z1 = rng.standard_normal(n)
    np.multiply(z1, z1, out=z1)
    for start in range(0, n, block):
        squares = [z1[start:start + block]]
        if two:
            z = rng.standard_normal(len(squares[0]))
            squares.append(np.multiply(z, z, out=z))
        yield low[start:start + block], squares


def _noise(scales: tuple[float, float], squares: list[np.ndarray]) -> np.ndarray:
    # the standardized noise N = a1/Z1^2 + (-a2)/Z2^2: the delays of nonzero
    # scale take Z1 and then Z2, in order; a delay of scale 0 takes none
    noise = None
    for a, square in zip([a for a in (scales[0], -scales[1]) if a], squares):
        term = np.divide(a, square)
        noise = term if noise is None else np.add(noise, term, out=noise)
    return noise


def _observe(scheme: BinaryScheme, s, noise: np.ndarray) -> np.ndarray:
    # the observations in u = y/c: U = s + N for the standardized symbol(s)
    # s, or |s + N| for B, the variable whose law _law gives
    u = np.add(s, noise)
    return np.abs(u, out=u) if scheme.system is System.B else u


def simulate_transmission(scheme: BinaryScheme, n_bits: int,
                          seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw equiprobable symbols and push them through the physical channel.

    Returns (sent symbols, observations y = c*U); deterministic for a given
    seed.  Up to MC_CHUNK bits, these are the draws ber_monte_carlo counts.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    scales = _delay_scales(scheme)
    low, squares = next(_draw(np.random.default_rng(seed), n_bits, all(scales),
                              n_bits))
    s = np.where(low, *input_symbols(scheme.system, scheme.delta / scheme.noise.c))
    return (np.where(low, *scheme.symbols),
            scheme.noise.c * _observe(scheme, s, _noise(scales, squares)))


#: fewest bits ber_monte_carlo draws
MC_MIN_BITS = 10_000
#: bits per Monte Carlo draw: memory is bounded by it, whatever the bit count
MC_CHUNK = 2 ** 20
# bits of a chunk counted at a time: a block's draws and temporaries stay small
_BLOCK = 2 ** 16


def chunk_sizes(n_bits: int) -> list[int]:
    """Bits in each chunk of an n_bits Monte Carlo draw, chunk 0 first."""
    return [min(MC_CHUNK, n_bits - start) for start in range(0, n_bits, MC_CHUNK)]


def chunk_errors(schemes: list[BinaryScheme], states: list[DetectorState],
                 seed, k: int, n: int) -> list[int]:
    """Error count of each point, any schemes with their detectors, on chunk
    k (of n bits) of the Monte Carlo draw of seed.

    The chunk has its own generator, PCG64(seed).jumped(k): it draws the
    bits, then Z1, then Z2 if some point has two delays, so a point's count
    depends on seed, k and n alone, whatever the other points.  Points of one
    noise law share N; each counts U = s + N (|s + N| for B) against its
    threshold over c, in the coordinates of ber_analytic.
    """
    scales = [_delay_scales(s) for s in schemes]
    rng = np.random.Generator(np.random.PCG64(seed).jumped(k))
    laws: dict[tuple[float, float], list[int]] = {}
    for i, a in enumerate(scales):
        laws.setdefault(a, []).append(i)
    points = [(scheme, *input_symbols(scheme.system, scheme.delta / scheme.noise.c),
               state.threshold / scheme.noise.c)
              for scheme, state in zip(schemes, states)]
    errors = [0] * len(schemes)
    for sent_low, squares in _draw(rng, n, any(all(a) for a in scales), _BLOCK):
        # an error decides high (U > u) where low was sent, or low (U <= u)
        # where high was sent
        n_low = int(np.count_nonzero(sent_low))
        halves = [[square.compress(side) for square in squares]
                  for side in (sent_low, ~sent_low)]
        for a, members in laws.items():
            noise_low, noise_high = (_noise(a, half) for half in halves)
            for i in members:
                scheme, s_low, s_high, u = points[i]
                kept = np.count_nonzero(_observe(scheme, s_low, noise_low) <= u)
                flipped = np.count_nonzero(_observe(scheme, s_high, noise_high) <= u)
                errors[i] += n_low - int(kept) + int(flipped)
    return errors


def mc_estimate(errors: int, n_bits: int) -> tuple[float, float]:
    """Empirical BER and its binomial standard error from an error count."""
    p = errors / n_bits
    return p, math.sqrt(p * (1.0 - p) / n_bits)


def ber_monte_carlo_curve(schemes: list[BinaryScheme],
                          states: list[DetectorState], n_bits: int,
                          seed) -> list[tuple[float, float]]:
    """Empirical BER and its binomial standard error at each point: any
    schemes, with their detectors, counted on one draw of n_bits.

    The draw comes in chunks of MC_CHUNK bits, each from its own generator
    (chunk_errors), so memory is one chunk's and each point's estimate is
    ber_monte_carlo's on that point alone with the same seed; the errors of
    points on one draw are correlated.
    """
    if n_bits < MC_MIN_BITS:
        raise ValueError(f"n_bits must be >= {MC_MIN_BITS}, got {n_bits}")
    if len(states) != len(schemes):
        raise ValueError("a curve needs one detector state per scheme")
    counts = [chunk_errors(schemes, states, seed, k, n)
              for k, n in enumerate(chunk_sizes(n_bits))]
    return [mc_estimate(sum(errors), n_bits) for errors in zip(*counts)]


def ber_monte_carlo(scheme: BinaryScheme, n_bits: int, seed,
                    state: DetectorState | None = None) -> tuple[float, float]:
    """Empirical BER and its binomial standard error: the one-point curve."""
    if state is None:
        state = ml_threshold(scheme)
    return ber_monte_carlo_curve([scheme], [state], n_bits, seed)[0]
