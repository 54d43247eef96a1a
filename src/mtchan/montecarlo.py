"""The Monte Carlo oracle: sampling stable laws, and simulated transmissions
whose errors are counted against the analytic BER.

This is the one module that imports numpy; the analytic commands never load
it.  The transmission works in the detector's standardized coordinates u =
y/c: it draws the standardized noise N and counts errors of U = s + N
(|s + N| for B), the observation whose law systems._law gives.  It draws in
chunks of MC_CHUNK bits, chunk k from the generator PCG64(seed).jumped(k),
and one chunk's draw serves every point counted on it, of any system and
skew: a point's count depends on the seed and the bit count alone
(chunk_errors).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .power import System, input_symbols
from .stable import StableParams
from .systems import (MC_MIN_BITS, BinaryScheme, DetectorState, ml_threshold,
                      system_c_component_scales)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _standard_levy(rng: np.random.Generator, n: int) -> np.ndarray:
    # standard Levy as 1 / Z^2
    z = rng.standard_normal(n)
    np.multiply(z, z, out=z)
    return np.divide(1.0, z, out=z)


def _standard_sample(alpha: float, beta: float, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    if alpha == 2.0:
        return rng.standard_normal(n) * math.sqrt(2.0)
    if alpha == 0.5 and beta == 1.0:
        return _standard_levy(rng, n)
    if alpha == 0.5 and beta == -1.0:
        return -_standard_levy(rng, n)
    if alpha == 1.0:
        # beta = 0 guaranteed by construction: standard Cauchy
        u = (rng.random(n) - 0.5) * math.pi
        return np.tan(u)

    # Chambers-Mallows-Stuck transform, alpha != 1
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
    """Draw n i.i.d. variates; deterministic for a given seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    # mu + c*Z is valid in this parameterization for every supported
    # (alpha, beta): the alpha = 1 shift correction vanishes at beta = 0
    return params.mu + params.c * _standard_sample(params.alpha, params.beta, n, rng)


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

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
    scales = system_c_component_scales(1.0, scheme.noise.beta)
    low, squares = next(_draw(np.random.default_rng(seed), n_bits, all(scales),
                              n_bits))
    s = np.where(low, *input_symbols(scheme.system, scheme.delta / scheme.noise.c))
    return (np.where(low, *scheme.symbols),
            scheme.noise.c * _observe(scheme, s, _noise(scales, squares)))


#: bits per Monte Carlo draw: memory is bounded by it, whatever the bit count
MC_CHUNK = 2 ** 20
# bits of a chunk counted at a time: a block's draws and temporaries stay small
_BLOCK = 2 ** 16


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
    noise law share N; each counts U = s + N (|s + N| for B) against its
    threshold over c, in the coordinates of ber_analytic.
    """
    scales = [system_c_component_scales(1.0, s.noise.beta) for s in schemes]
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
