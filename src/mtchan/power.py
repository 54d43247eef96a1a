"""Geometric power, G-SNR and the physical-channel -> noise-parameter map.

Geometric power S0(N) = exp(E[log|N|]) replaces variance-based power for
heavy-tailed noise.  G-SNR normalizes the squared input dynamic range by
the squared geometric noise power and by 2*exp(gamma) so that it reduces
to the ordinary SNR for Gaussian noise.  physics_to_channel composes a
system's first-passage delays into its alpha = 1/2 noise law (c, beta), and
system_c_component_scales splits it back; system_gsnr maps c to the G-SNR,
and scale_for_gsnr inverts that, refusing a c that is not a normal float.
"""

from __future__ import annotations

import enum
import math
import sys

from .stable import G_GAMMA, StableParams


class System(str, enum.Enum):
    """The three binary timing-modulation systems.

    A: release time of one particle, synchronized receiver.
    B: absolute time between two indistinguishable particles.
    C: signed time between two distinguishable particles.
    """

    A = "A"
    B = "B"
    C = "C"


def geometric_power(params: StableParams) -> float:
    """exp(E[log|N|]) for a zero-location stable law.

    Valid for alpha != 1, or alpha = 1 with beta = 0 (the construction
    of StableParams already excludes the remaining cases).
    """
    if params.mu != 0.0:
        raise ValueError("geometric power is defined here for mu = 0 only")
    half_tan = params.beta * math.tan(math.pi * params.alpha / 2.0)
    return (
        params.c
        * G_GAMMA ** (1.0 / params.alpha - 1.0)
        * (1.0 + half_tan * half_tan) ** (1.0 / (2.0 * params.alpha))
    )


def geometric_power_alpha_half(c: float, beta: float) -> float:
    """Simplified form for the alpha = 1/2 family: c * G_gamma * (1 + beta^2)."""
    return c * G_GAMMA * (1.0 + beta * beta)


def g_snr(x_max: float, x_min: float, s0: float) -> float:
    """(1/(2*G_gamma)) * ((x_max - x_min) / s0)^2."""
    if x_max <= x_min:
        raise ValueError(f"x_max must exceed x_min, got {x_max} <= {x_min}")
    if s0 <= 0.0:
        raise ValueError(f"s0 must be > 0, got {s0}")
    ratio = (x_max - x_min) / s0
    return ratio * ratio / (2.0 * G_GAMMA)


def noise_beta(system: System, beta: float) -> float:
    """Skew of a system's noise law: A is one-sided (1), B symmetric (0),
    and C takes the requested beta."""
    if system is System.A:
        return 1.0
    if system is System.B:
        return 0.0
    return beta


def input_symbols(system: System, delta: float) -> tuple[float, float]:
    """(low, high) input alphabet: C signs the separation, A and B start at 0."""
    return (-delta, delta) if system is System.C else (0.0, delta)


def system_gsnr(system: System, delta: float, c: float, beta: float = 0.0) -> float:
    """G-SNR of a binary scheme, via geometric power of its noise law; the
    inverse of scale_for_gsnr.

    System A uses symbols {0, delta} (range delta), C uses {-delta, delta}
    (range 2*delta).  For B the returned value is only an upper bound (the
    absolute value in its observation is not invertible).  The range and S0
    are both taken at delta = 1, where the scale is c/delta, so neither C's
    range 2*delta nor a huge S0 is formed and delta 1e308 reads finite.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if c <= 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    if not (-1.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [-1, 1], got {beta}")
    low, high = input_symbols(system, 1.0)
    s0 = geometric_power_alpha_half(1.0, noise_beta(system, beta))
    return g_snr(high - low, 0.0, s0 / (delta / c))


def system_c_component_scales(c: float, beta: float) -> tuple[float, float]:
    """Scales (c_pos, c_neg) of the two one-sided first-passage delays whose
    difference is the S(0, c, 1/2, beta) noise; physics_to_channel inverts it.

    Levy scales add in square root, sqrt(c) = sqrt(c_pos) + sqrt(c_neg), and
    the skew is the positive delay's share, sqrt(c_pos) = sqrt(c)(1+beta)/2.
    A's one delay is beta = 1, (c, 0); B's two indistinguishable delays, each
    Levy with c/4, are beta = 0; C's two distinguishable ones take any beta.
    """
    root = math.sqrt(c)
    return (root * (1.0 + beta) / 2.0) ** 2, (root * (1.0 - beta) / 2.0) ** 2


def physics_to_channel(system: System, d: float, *D: float) -> StableParams:
    """Map distance d and diffusion coefficient(s), one D for A and B and
    (D_a, D_b) for C, to the noise law by system_c_component_scales' inverse.
    Each delay is a first passage, Levy with root scale d/sqrt(2D); the
    noise's positive and negative delays are (T, none) for A, (T, T) for B
    and (T_b, T_a) for C, so C's beta > 0 when D_a > D_b (T_a is shorter)."""
    n = 2 if system is System.C else 1
    if len(D) != n:
        raise ValueError(f"system {system.value} takes {n} diffusion "
                         f"coefficient(s), got {len(D)}")
    if d <= 0.0:
        raise ValueError(f"distance d must be > 0, got {d}")
    if min(D) <= 0.0:
        raise ValueError(f"diffusion coefficients must be > 0, got {D}")
    roots = [d / math.sqrt(2.0 * x) for x in D]
    pos, neg = roots[-1], (0.0 if system is System.A else roots[0])
    # c, a product so that it overflows to inf, is refused before beta's 0/0
    law = StableParams(0.0, (pos + neg) * (pos + neg), 0.5)
    return law._replace(beta=(pos - neg) / (pos + neg))


#: largest G-SNR scale_for_gsnr takes: 2 e^gamma G-SNR is finite up to it
GSNR_MAX = sys.float_info.max / (2.0 * G_GAMMA)


def scale_for_gsnr(system: System, delta: float, gsnr: float,
                   beta: float = 0.0) -> float:
    """Noise scale c that yields the requested G-SNR (closed-form inversion);
    a G-SNR below the smallest normal float or above GSNR_MAX, and a c that
    would be subnormal, 0 or inf, are refused."""
    if gsnr < sys.float_info.min:
        raise ValueError(
            f"gsnr {gsnr!r} is below {sys.float_info.min!r} "
            f"({10.0 * math.log10(sys.float_info.min):.2f} dB), the smallest "
            "normal float, below which digits are lost")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    square = 2.0 * G_GAMMA * gsnr
    if square == math.inf:
        raise ValueError(
            f"gsnr {gsnr!r} ({10.0 * math.log10(gsnr):.2f} dB) exceeds "
            f"{GSNR_MAX!r} ({10.0 * math.log10(GSNR_MAX):.2f} dB), above which "
            "2 e^gamma G-SNR overflows and the noise scale would read 0")
    # the alphabet's width at delta = 1 (1 or 2) divides exactly, so c is
    # range / (S0 root) to the last bit without forming C's range 2 delta
    low, high = input_symbols(system, 1.0)
    s0 = geometric_power_alpha_half(1.0, noise_beta(system, beta))
    c = delta / (s0 * math.sqrt(square) / (high - low))
    if not sys.float_info.min <= c < math.inf:
        raise ValueError(f"delta {delta!r} at G-SNR {gsnr!r} puts the noise scale "
                         f"at {c!r}, outside the normal floating-point range")
    return c
