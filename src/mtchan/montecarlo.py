"""The Monte Carlo oracle: sampling stable laws, alpha = 1/2 as the Levy
difference a1/Z1^2 - a2/Z2^2 the error counts draw (_noise) and other alphas
by Chambers-Mallows-Stuck, and simulated bits whose errors are counted
against the analytic BER.

Sampling (sample) draws _BLOCK variates at a time from one
default_rng(seed), so a block's temporaries bound its memory whatever n is.
Up to _BLOCK variates, and at any n for the one-delay laws (alpha = 1/2,
beta = +-1), that is the stream of one draw of n.

This is the one module that imports numpy; the analytic commands never load
it.  The error counts work in the detector's standardized coordinates u =
y/c: they draw the standardized noise N and count the decisions on U = s + N
(|s + N| for B), the observation whose law systems._law gives, as bounds
on N.  They draw in chunks of MC_CHUNK bits, chunk k from the generator
PCG64(seed).jumped(k), and one chunk's draw serves every point counted on
it, of any system and skew: a point's count depends on the seed and the bit
count alone (chunk_errors).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .power import System, input_symbols
from .stable import StableParams
from .systems import (MC_MIN_BITS, BinaryScheme, DetectorState, ml_threshold,
                      system_c_component_scales)


#: bits per Monte Carlo draw: memory is bounded by it, whatever the bit count
MC_CHUNK = 2 ** 20
# variates sampled, or bits of a chunk counted, at a time: a block's draws and
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

def _draw(rng: np.random.Generator, n: int, two: bool):
    # the draws of n bits, _BLOCK at a time: (low, squares), the mask of the
    # bits that sent the low symbol and [Z1^2] or, if two, [Z1^2, Z2^2].  The
    # bits, then Z1, then Z2 come in this fixed order, so the bits and Z1 are
    # the same whether or not Z2 is drawn.  Drawn a block at a time, Z2 is
    # the same stream as drawn at once, so only the mask and Z1 span all n.
    # Below 2^32 numpy draws int64 bits from the same buffered 32-bit words:
    # int32 bits are the same bits in half the memory
    low = rng.integers(0, 2, n, dtype=np.int32) == 0
    z1 = rng.standard_normal(n)
    np.multiply(z1, z1, out=z1)
    for start in range(0, n, _BLOCK):
        squares = [z1[start:start + _BLOCK]]
        if two:
            z = rng.standard_normal(len(squares[0]))
            squares.append(np.multiply(z, z, out=z))
        yield low[start:start + _BLOCK], squares


def _noise(scales: tuple[float, float], squares: list[np.ndarray]) -> np.ndarray:
    # the standardized noise N = a1/Z1^2 + (-a2)/Z2^2: the delays of nonzero
    # scale take Z1 and then Z2, in order; a delay of scale 0 takes none
    noise = None
    for a, square in zip([a for a in (scales[0], -scales[1]) if a], squares):
        term = np.divide(a, square)
        noise = term if noise is None else np.add(noise, term, out=noise)
    return noise


def _decided_low(noise: np.ndarray, bounds: tuple[float | None, float]) -> int:
    # the draws decided low, counted on the noise N itself: U = s + N <= u is
    # N <= u - s, and B's |s + N| <= u is -u - s <= N <= u - s; bounds is
    # (-u - s or None, u - s)
    lo, hi = bounds
    n = int(np.count_nonzero(noise <= hi))
    return n if lo is None else n - int(np.count_nonzero(noise < lo))


def stream_seed(master_seed: int, stream: int) -> int:
    """An independent seed mixed from (master seed, stream number)."""
    return int(np.random.SeedSequence((master_seed, stream)).generate_state(1)[0])


def chunk_errors(schemes: list[BinaryScheme], states: list[DetectorState],
                 seed, k: int, n: int) -> list[int]:
    """Error count of each point, any schemes with their detectors, on chunk
    k (of n bits) of the Monte Carlo draw of seed.

    The chunk has its own generator, PCG64(seed).jumped(k): it draws the
    bits, then Z1, then Z2 if some point has two delays, so a point's count
    depends on seed, k and n alone, whatever the other points.  Points of one
    noise law share the standardized noise N.  Each point decides a bit on N
    itself, in the coordinates of ber_analytic: low where N <= u - s (A, C)
    or -u - s <= N <= u - s (B), u its threshold over c and s the sent
    symbol over c.  The count is thus the detector's decision on the exact
    y = c*(s + N), up to one rounding of each bound, at any G-SNR.
    """
    scales = [system_c_component_scales(1.0, s.noise.beta) for s in schemes]
    rng = np.random.Generator(np.random.PCG64(seed).jumped(k))
    laws: dict[tuple[float, float], list[int]] = {}
    for i, a in enumerate(scales):
        laws.setdefault(a, []).append(i)
    # (low-sent, high-sent) bounds on N of a low decision, per point
    bounds = []
    for scheme, state in zip(schemes, states):
        u = state.threshold / scheme.noise.c
        bounds.append([(-u - s if scheme.system is System.B else None, u - s)
                       for s in input_symbols(scheme.system,
                                              scheme.delta / scheme.noise.c)])
    errors = [0] * len(schemes)
    for sent_low, squares in _draw(rng, n, any(all(a) for a in scales)):
        # an error decides high where low was sent, or low where high was sent
        n_low = int(np.count_nonzero(sent_low))
        halves = [[square.compress(side) for square in squares]
                  for side in (sent_low, ~sent_low)]
        for a, members in laws.items():
            noise_low, noise_high = (_noise(a, half) for half in halves)
            for i in members:
                kept, flipped = (_decided_low(noise, b) for noise, b
                                 in zip((noise_low, noise_high), bounds[i]))
                errors[i] += n_low - kept + flipped
    return errors


def ber_monte_carlo_curve(schemes: list[BinaryScheme],
                          states: list[DetectorState], n_bits: int,
                          seed, run=None) -> list[tuple[float, float]]:
    """Empirical BER and its binomial standard error at each point: any
    schemes, with their detectors, counted on one draw of n_bits.

    The draw comes in chunks of MC_CHUNK bits, each from its own generator
    (chunk_errors), so memory is one chunk's and each point's estimate is
    ber_monte_carlo's on that point alone with the same seed; the errors of
    points on one draw are correlated.  Each chunk is one task, a callable
    returning its counts; run maps the task list to their counts in order
    (by default, calling each here), so a pool may count the chunks.
    """
    if n_bits < MC_MIN_BITS:
        raise ValueError(f"n_bits must be >= {MC_MIN_BITS}, got {n_bits}")
    if len(states) != len(schemes):
        raise ValueError("a curve needs one detector state per scheme")
    tasks = [functools.partial(chunk_errors, schemes, states, seed, k,
                               min(MC_CHUNK, n_bits - start))
             for k, start in enumerate(range(0, n_bits, MC_CHUNK))]
    counts = run(tasks) if run else [task() for task in tasks]
    rates = [sum(errors) / n_bits for errors in zip(*counts)]
    return [(p, math.sqrt(p * (1.0 - p) / n_bits)) for p in rates]


def ber_monte_carlo(scheme: BinaryScheme, n_bits: int, seed,
                    state: DetectorState | None = None) -> tuple[float, float]:
    """Empirical BER and its binomial standard error: the one-point curve."""
    if state is None:
        state = ml_threshold(scheme)
    return ber_monte_carlo_curve([scheme], [state], n_bits, seed)[0]
