"""The Monte Carlo oracle: sampling stable laws, alpha = 1/2 as the Levy
difference a1/Z1^2 - a2/Z2^2 the error counts draw (_noise) and other alphas
by Chambers-Mallows-Stuck, and simulated bits whose errors are counted
against the analytic BER.

This is the one module that imports numpy; the analytic commands never load
it.  The error counts work in the detector's standardized coordinates u =
y/c: they draw the standardized noise N, n/2 draws for n bits, and decide
each as if the low and as if the high symbol were sent, on the regions of N
systems._low_region gives.  They draw in chunks of MC_CHUNK, chunk k from
the generator PCG64(seed).jumped(k), and one chunk's draw serves every point
counted on it, of any system and skew: a point's count depends on the seed
and the bit count alone (chunk_errors).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .power import input_symbols, system_c_component_scales
from .stable import StableParams
from .systems import (MC_MIN_BITS, BinaryScheme, DetectorState, _low_region,
                      ml_threshold)


#: noise draws (two bits each) per Monte Carlo chunk: memory is bounded by it
MC_CHUNK = 2 ** 20
# variates sampled, or draws of a chunk counted, at a time: a block's draws and
# temporaries stay small
_BLOCK = 2 ** 16


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _standard_sample(alpha: float, beta: float, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    if alpha == 0.5:
        # the Monte Carlo's own noise: the Levy difference a1/Z1^2 - a2/Z2^2,
        # one Z per delay of nonzero scale
        scales = system_c_component_scales(1.0, beta)
        return _noise(scales, [np.multiply(z, z, out=z) for a in scales if a
                               for z in [rng.standard_normal(n)]])
    # Chambers-Mallows-Stuck transform: at alpha = 1 (beta = 0 by
    # construction) it is tan(u), at alpha = 2 it is N(0, 2)
    u = (rng.random(n) - 0.5) * math.pi
    w = rng.exponential(size=n)
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    b = math.atan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    return (
        s
        * np.sin(alpha * (u + b))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample(params: StableParams, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. variates; deterministic for a given seed.

    They are mu + c*Z, the standardized variates Z drawn 2^16 at a time
    from one default_rng(seed), so memory is the output and one block.  Up
    to 2^16 variates, and at any n for alpha = 1/2 with beta = +-1, that is
    the stream of one draw of n; other laws draw another stream above it.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    out = np.empty(n)
    rng = np.random.default_rng(seed)
    # mu + c*Z is valid in this parameterization for every supported
    # (alpha, beta): the alpha = 1 shift correction vanishes at beta = 0
    for start in range(0, n, _BLOCK):
        part = out[start:start + _BLOCK]
        z = _standard_sample(params.alpha, params.beta, len(part), rng)
        np.add(params.mu, np.multiply(params.c, z, out=part), out=part)
    return out


# ---------------------------------------------------------------------------
# error counting
# ---------------------------------------------------------------------------

def _noise(scales: tuple[float, float], squares: list[np.ndarray]) -> np.ndarray:
    # the standardized noise N = a1/Z1^2 + (-a2)/Z2^2: the delays of nonzero
    # scale take Z1 and then Z2, in order; a delay of scale 0 takes none
    noise = None
    for a, square in zip([a for a in (scales[0], -scales[1]) if a], squares):
        term = np.divide(a, square)
        noise = term if noise is None else np.add(noise, term, out=noise)
    return noise


def _count(noise: np.ndarray, region: tuple[float | None, float]) -> int:
    # the draws lo <= N <= hi of a region (lo or None, hi); none if lo > hi
    lo, hi = region
    n = int(np.count_nonzero(noise <= hi))
    return n if lo is None else max(n - int(np.count_nonzero(noise < lo)), 0)


def stream_seed(master_seed: int, stream: int) -> int:
    """An independent seed mixed from (master seed, stream number)."""
    return int(np.random.SeedSequence((master_seed, stream)).generate_state(1)[0])


def chunk_errors(schemes: list[BinaryScheme], states: list[DetectorState],
                 seed, k: int, m: int) -> list[tuple[int, int]]:
    """(errors, both) of each point, any schemes with their detectors, on
    chunk k (m noise draws N) of the Monte Carlo draw of seed: the errors of
    its 2m bits, each N decided as if either symbol were sent, and the draws
    on which both err.  The chunk's generator, PCG64(seed).jumped(k), draws
    Z1, then Z2 if some point has two delays, so a point's counts depend on
    seed, k and m alone.  Each point decides on N itself against
    systems._low_region: the decision on the exact y = c*(s + N), up to one
    rounding of each bound, at any G-SNR."""
    scales = [system_c_component_scales(1.0, s.noise.beta) for s in schemes]
    rng = np.random.Generator(np.random.PCG64(seed).jumped(k))
    laws: dict[tuple[float, float], list[int]] = {}
    for i, a in enumerate(scales):
        laws.setdefault(a, []).append(i)
    # per point: the low and the high symbol's regions of a low decision and,
    # where high's leaves low's (B's, not A's or C's rays), their intersection
    regions = []
    for scheme, state in zip(schemes, states):
        u = state.threshold / scheme.noise.c
        low, high = (_low_region(scheme, s, u) for s in input_symbols(
            scheme.system, scheme.delta / scheme.noise.c))
        regions.append((low, high, None if low[0] is None else (low[0], high[1])))
    two = any(all(a) for a in laws)
    z1 = rng.standard_normal(m)
    np.multiply(z1, z1, out=z1)
    counts = [[0, 0] for _ in schemes]
    for start in range(0, m, _BLOCK):
        squares = [z1[start:start + _BLOCK]]
        if two:  # a block at a time, Z2 is the same stream as drawn at once
            z = rng.standard_normal(len(squares[0]))
            squares.append(np.multiply(z, z, out=z))
        for a, members in laws.items():
            noise = _noise(a, squares)
            for i in members:
                low, high, common = regions[i]
                # low sent and decided high, or high sent and decided low
                flipped = _count(noise, high)
                counts[i][0] += len(noise) - _count(noise, low) + flipped
                if common is not None:
                    counts[i][1] += flipped - _count(noise, common)
    return [tuple(c) for c in counts]


def ber_monte_carlo_curve(schemes: list[BinaryScheme],
                          states: list[DetectorState], n_bits: int,
                          seed, run=None) -> list[tuple[float, float]]:
    """Empirical BER and its standard error at each point: any schemes, with
    their detectors, counted on one draw of m = n_bits/2 noise values, each
    sending a low and a high bit.  With X a draw's errors (0, 1 or 2), the
    BER is sum X / n_bits and the standard error the plug-in sqrt((sum X^2/m
    - (sum X/m)^2)/(4m)), 0.0 wherever every draw erred equally often (a zero
    count, or one error each at a BER of 1/2): no confidence bound.

    The draw comes in chunks of MC_CHUNK, each from its own generator
    (chunk_errors), so memory is one chunk's and each point's estimate is
    ber_monte_carlo's on that point alone with the same seed; the errors of
    points on one draw are correlated.  run maps the chunk tasks, callables
    returning their counts, to the counts in order (by default, calling each
    here), so a pool may count the chunks.
    """
    if n_bits < MC_MIN_BITS or n_bits % 2:
        raise ValueError(f"n_bits must be even (a low and a high bit per noise "
                         f"draw) and >= {MC_MIN_BITS}, got {n_bits}")
    if len(states) != len(schemes):
        raise ValueError("a curve needs one detector state per scheme")
    m = n_bits // 2
    tasks = [functools.partial(chunk_errors, schemes, states, seed, k,
                               min(MC_CHUNK, m - start))
             for k, start in enumerate(range(0, m, MC_CHUNK))]
    counts = run(tasks) if run else [task() for task in tasks]
    # sum X^2 = errors + 2*both, and m*sum X^2 - (sum X)^2 an integer >= 0
    return [(e / n_bits, math.sqrt((m * (e + 2 * b) - e * e) / (4 * m ** 3)))
            for e, b in (map(sum, zip(*point)) for point in zip(*counts))]


def ber_monte_carlo(scheme: BinaryScheme, n_bits: int, seed,
                    state: DetectorState | None = None) -> tuple[float, float]:
    """Empirical BER and its standard error: the one-point curve."""
    if state is None:
        state = ml_threshold(scheme)
    return ber_monte_carlo_curve([scheme], [state], n_bits, seed)[0]
