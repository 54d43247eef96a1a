"""Molecular-timing channels with additive alpha-stable noise.

Modules:
  stable      evaluate alpha-stable laws (alpha = 1/2 closed form at every beta)
  power       geometric power, G-SNR and the delays <-> noise-law map
  systems     ML thresholds, analytic BER and the BER rows (ber_rows)
  montecarlo  sampling and the Monte Carlo BER oracle, the one module on numpy
  validate    dual-route cross checks (closed form vs numeric, KS, quadrature,
              MC oracles)
  plotting    dependency-free SVG figures
  cli         `mtchan` command-line front end
"""

from .power import (System, g_snr, geometric_power, geometric_power_alpha_half,
                    physics_to_channel, scale_for_gsnr,
                    system_c_component_scales, system_gsnr)
from .stable import (G_GAMMA, NUMERIC_TOL, QuadratureError, StableParams,
                     StandardStable, cdf, pdf, std_cdf, std_pdf,
                     tail_coefficient)
from .systems import (BerRecord, BinaryScheme, DetectorState, ber_analytic,
                      ber_rows, ml_threshold, scheme_for_gsnr)

__version__ = "0.1.0"

__all__ = [
    "G_GAMMA", "NUMERIC_TOL", "QuadratureError", "StableParams",
    "StandardStable", "cdf", "pdf", "sample", "std_cdf", "std_pdf",
    "tail_coefficient",
    "System", "g_snr", "geometric_power", "geometric_power_alpha_half",
    "physics_to_channel", "scale_for_gsnr", "system_c_component_scales",
    "system_gsnr",
    "BerRecord", "BinaryScheme", "DetectorState", "ber_analytic",
    "ber_monte_carlo", "ber_monte_carlo_curve", "ber_rows", "ml_threshold",
    "scheme_for_gsnr",
]

#: the names resolved from montecarlo on first use, so that importing the
#: package loads no numpy (PEP 562)
_MONTE_CARLO = ("sample", "ber_monte_carlo", "ber_monte_carlo_curve")


def __getattr__(name: str):
    if name in _MONTE_CARLO:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
