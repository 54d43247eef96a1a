"""Geometric power, G-SNR and the physical-channel -> noise-parameter map.

Geometric power S0(N) = exp(E[log|N|]) replaces variance-based power for
heavy-tailed noise.  G-SNR normalizes the squared input dynamic range by
the squared geometric noise power and by 2*exp(gamma) so that it reduces
to the ordinary SNR for Gaussian noise.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ChannelSpec:
    """Physical channel description: distance and diffusion coefficient(s).

    Systems A and B take a single diffusion coefficient D; system C takes
    one per particle type (D_a, D_b).
    """

    system: System
    d: float
    D: float | None = None
    D_a: float | None = None
    D_b: float | None = None

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError(f"distance d must be > 0, got {self.d}")
        if self.system is System.C:
            if self.D_a is None or self.D_b is None or self.D is not None:
                raise ValueError("system C needs D_a and D_b (and no D)")
            if self.D_a <= 0.0 or self.D_b <= 0.0:
                raise ValueError("diffusion coefficients must be > 0")
        else:
            if self.D is None or self.D_a is not None or self.D_b is not None:
                raise ValueError(f"system {self.system.value} needs D only")
            if self.D <= 0.0:
                raise ValueError(f"diffusion coefficient must be > 0, got {self.D}")


@dataclass(frozen=True)
class GsnrQuery:
    """One G-SNR evaluation point: system, symbol separation and noise scale."""

    system: System
    delta: float
    c: float
    beta: float = 0.0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")


@dataclass(frozen=True)
class GsnrValue:
    """G-SNR result; upper_bound marks system B, whose exact G-SNR is
    not defined by the closed-form expression (the absolute value is
    non-invertible)."""

    value: float
    upper_bound: bool = False


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


def system_gsnr(q: GsnrQuery) -> GsnrValue:
    """G-SNR of a binary scheme, via geometric power of its noise law.

    System A uses symbols {0, delta} (range delta), C uses {-delta, delta}
    (range 2*delta).  For B the returned value is only an upper bound.
    """
    s0 = geometric_power(StableParams(0.0, q.c, 0.5, noise_beta(q.system, q.beta)))
    low, high = input_symbols(q.system, q.delta)
    return GsnrValue(g_snr(high, low, s0), upper_bound=q.system is System.B)


def physics_to_channel(spec: ChannelSpec) -> StableParams:
    """Map distance/diffusion to the additive stable noise law."""
    if spec.system is System.A:
        return StableParams(0.0, spec.d ** 2 / (2.0 * spec.D), 0.5, 1.0)
    if spec.system is System.B:
        return StableParams(0.0, 2.0 * spec.d ** 2 / spec.D, 0.5, 0.0)
    sa, sb = math.sqrt(spec.D_a), math.sqrt(spec.D_b)
    c = spec.d ** 2 * (sa + sb) ** 2 / (2.0 * spec.D_a * spec.D_b)
    beta = (sa - sb) / (sa + sb)
    return StableParams(0.0, c, 0.5, beta)


#: largest G-SNR scale_for_gsnr takes: 2 e^gamma G-SNR is finite up to it
GSNR_MAX = sys.float_info.max / (2.0 * G_GAMMA)


def scale_for_gsnr(system: System, delta: float, gsnr: float,
                   beta: float = 0.0) -> float:
    """Noise scale c that yields the requested G-SNR (closed-form inversion)."""
    if gsnr <= 0.0:
        raise ValueError(f"gsnr must be > 0, got {gsnr}")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    square = 2.0 * G_GAMMA * gsnr
    if square == math.inf:
        raise ValueError(
            f"gsnr {gsnr!r} ({10.0 * math.log10(gsnr):.2f} dB) exceeds "
            f"{GSNR_MAX!r} ({10.0 * math.log10(GSNR_MAX):.2f} dB), above which "
            "2 e^gamma G-SNR overflows and the noise scale would read 0")
    root = math.sqrt(square)
    low, high = input_symbols(system, delta)
    nb = noise_beta(system, beta)
    return (high - low) / (G_GAMMA * (1.0 + nb * nb) * root)
