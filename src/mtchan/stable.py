"""Evaluation and sampling of alpha-stable distributions.

The parameterization follows the characteristic-function convention

    phi(t) = exp[ j*mu*t - |c*t|^alpha * (1 - j*beta*sgn(t)*Phi(t, alpha)) ]

with Phi(t, alpha) = tan(pi*alpha/2) for alpha != 1 and -(2/pi)*log|t|
for alpha = 1 (Nolan's "1" parameterization).

Closed forms cover the subfamilies this package leans on: alpha = 1/2 at
every beta (the channel noise), the Gaussian (alpha = 2) and the Cauchy
(alpha = 1, beta = 0).

  * alpha = 1/2, |beta| = 1: the one-sided Levy law.
  * alpha = 1/2, |beta| < 1: substituting t = s^2 in the inversion integral
    gives f(x) = (1/pi) * Re[(1 - B*I0)/A] with A = j*x, B = 1 - j*beta and
    I0 = sqrt(pi)/(2*sqrt(A)) * w(j*B/(2*sqrt(A))), w the Faddeeva function
    (scipy.special.wofz; Weideman 1994).  A short expansion about x = 0
    replaces it where it cancels.  The CDF is a fixed 64-node
    Gauss-Legendre rule over that density: F(0) + x*Int_0^1 f(x*tau) dtau
    for |x| < 1, and the tail mass Int_0^1 f(x/tau^2)*2|x|/tau^3 dtau, whose
    integrand is smooth in tau, beyond.

Every other (alpha, beta) pair is handled by numerical inversion of the
characteristic function (Nolan 1997), which also serves as the oracle for
the closed forms:

  * PDF: f(x) = (1/pi) * Int_0^inf exp(-t^alpha) * cos(beta*k*t^alpha - t*x) dt
    with k = tan(pi*alpha/2), split into cos/sin components so scipy's
    oscillatory-weight quadrature stays accurate for large |x|.
  * CDF: Gil-Pelaez inversion,
    F(x) = 1/2 - (1/pi) * Int_0^inf Im[exp(-j*t*x)*phi(t)] / t dt.

Target absolute tolerance for both is 1e-10; failure to converge raises
QuadratureError carrying the achieved error bound.

Only numpy and scipy.special load with this module: the closed forms need
nothing more, and scipy.integrate is imported on the first numerical
inversion.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

EULER_GAMMA = 0.5772156649015329
#: exp(Euler's gamma), the constant underlying geometric power.
G_GAMMA = math.exp(EULER_GAMMA)

#: target absolute tolerance of the numerical inversion routines
NUMERIC_TOL = 1e-10

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# pi / (sqrt(pi)/2): folds I0's prefactor into the density's 1/pi
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


class QuadratureError(RuntimeError):
    """Numerical inversion did not reach the requested accuracy.

    Attributes:
        achieved: the error bound the quadrature actually reached.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _check_shape(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not (-1.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [-1, 1], got {beta}")
    if alpha == 1.0 and beta != 0.0:
        raise ValueError("alpha = 1 with beta != 0 is not supported")


@dataclass(frozen=True)
class StandardStable:
    """A stable law with mu = 0, c = 1; identified by (alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_shape(self.alpha, self.beta)


@dataclass(frozen=True)
class StableParams:
    """Full 4-parameter stable law: location mu, scale c, exponent alpha, skew beta."""

    mu: float = 0.0
    c: float = 1.0
    alpha: float = 0.5
    beta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        _check_shape(self.alpha, self.beta)

    @property
    def standard(self) -> StandardStable:
        return StandardStable(self.alpha, self.beta)


def char_fn(params: StableParams, t: float) -> complex:
    """Characteristic function phi(t) of the stable law."""
    if t == 0.0:
        return 1.0 + 0.0j
    if params.alpha == 1.0:
        phi_factor = -(2.0 / math.pi) * math.log(abs(t))
    else:
        phi_factor = math.tan(math.pi * params.alpha / 2.0)
    exponent = (
        1j * params.mu * t
        - abs(params.c * t) ** params.alpha
        * (1.0 - 1j * params.beta * math.copysign(1.0, t) * phi_factor)
    )
    return cmath.exp(exponent)


# ---------------------------------------------------------------------------
# closed-form subfamilies
# ---------------------------------------------------------------------------

def _levy_std_pdf(x: float) -> float:
    # standard Levy: (2*pi)^(-1/2) x^(-3/2) exp(-1/(2x)) on x > 0
    if x <= 0.0:
        return 0.0
    log_f = -0.5 / x - 1.5 * math.log(x)
    if log_f < -745.0:
        return 0.0
    return math.exp(log_f) / _SQRT_2PI


def _levy_std_cdf(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return float(special.erfc(math.sqrt(0.5 / x)))


#: below this |x| the alpha = 1/2 closed form loses digits to cancellation
#: and its expansion about 0 takes over
_HALF_SERIES_EDGE = 1e-3
_HALF_SERIES_TERMS = 10

#: 64-node Gauss-Legendre rule on (0, 1) for the alpha = 1/2 CDF
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_gl_nodes + 1.0), 0.5 * _gl_weights
_GL_NODES_SQ = _GL_NODES ** 2
_GL_TAIL_JACOBIAN = 2.0 * _GL_WEIGHTS / _GL_NODES ** 3


@functools.lru_cache(maxsize=None)
def _half_series(beta: float) -> tuple[float, ...]:
    # f(x) = (2/pi) * Re sum_n (-j*x)^n * (2n+1)!/n! / B^(2n+2), an
    # asymptotic series whose terms shrink by ~4n|x| each; highest power first
    b = 1.0 - 1j * beta
    coeffs = [(2.0 / math.pi)
              * ((-1j) ** n * (math.factorial(2 * n + 1) / math.factorial(n))
                 / b ** (2 * n + 2)).real
              for n in range(_HALF_SERIES_TERMS)]
    # f(0) exactly
    coeffs[0] = (2.0 / math.pi) * (1.0 - beta * beta) / (1.0 + beta * beta) ** 2
    return tuple(reversed(coeffs))


def _half_closed(beta: float, x):
    # (1/pi) Re[(1 - B*I0)/A] = -Im(B*I0)/(pi*x); x nonzero, scalar or array
    b = 1.0 - 1j * beta
    root = np.sqrt(1j * x)
    return -(b * special.wofz(0.5j * b / root) / root).imag / (_TWO_SQRT_PI * x)


def _half_pdf(beta: float, x):
    """Density of S(0, 1, 1/2, beta), |beta| < 1, at a float or an array."""
    if np.ndim(x) == 0:
        if abs(x) < _HALF_SERIES_EDGE:
            return _horner(_half_series(beta), x)
        return float(_half_closed(beta, x))
    small = np.abs(x) < _HALF_SERIES_EDGE
    if not small.any():
        return _half_closed(beta, x)
    return np.where(small, _horner(_half_series(beta), x),
                    _half_closed(beta, np.where(small, 1.0, x)))


def _half_cdf(beta: float, x: float) -> float:
    if abs(x) < 1.0:
        f0 = 0.5 - (2.0 / math.pi) * math.atan(beta)
        value = f0 + x * float(_GL_WEIGHTS @ _half_pdf(beta, x * _GL_NODES))
    else:
        # mass beyond x, with t = x/tau^2
        mass = abs(x) * float(_GL_TAIL_JACOBIAN @ _half_pdf(beta, x / _GL_NODES_SQ))
        value = 1.0 - mass if x > 0.0 else mass
    return min(max(value, 0.0), 1.0)


def _horner(coeffs, x):
    acc = 0.0
    for a in coeffs:
        acc = acc * x + a
    return acc


def _gauss_std_pdf(x: float) -> float:
    # alpha = 2 standard stable is N(0, 2)
    return math.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))


def _gauss_std_cdf(x: float) -> float:
    return 0.5 * float(special.erfc(-0.5 * x))


# ---------------------------------------------------------------------------
# numerical inversion
# ---------------------------------------------------------------------------

def _quad(*args, **kwargs):
    # scipy.integrate loads here, on the first numerical inversion, so the
    # alpha = 1/2 closed forms never pay for it; convergence is checked
    # against the returned error bound, so its warnings are silenced
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(*args, **kwargs)


def _inversion_cutoff(alpha: float) -> float:
    # |phi(t)| = exp(-t^alpha) < 1e-16 beyond this point
    return (16.0 * math.log(10.0)) ** (1.0 / alpha)


def _pdf_numeric(alpha: float, beta: float, x: float, tol: float) -> float:
    k = math.tan(math.pi * alpha / 2.0)
    upper = _inversion_cutoff(alpha)
    # far in the tails the oscillatory rule is roundoff-limited; the
    # guaranteed absolute tolerance degrades linearly with |x| there
    tol = tol * max(1.0, abs(x) / 10.0)

    if abs(x) * upper <= 30.0:
        # few oscillations: one plain adaptive pass
        def integrand(t):
            ta = t ** alpha
            return math.exp(-ta) * math.cos(beta * k * ta - t * x)

        val, err = _quad(integrand, 0.0, upper,
                         epsabs=0.1 * tol, epsrel=1e-13, limit=400)
    else:
        # cos(b*k*t^a - t*x) = cos(b*k*t^a)cos(w*t) + s*sin(b*k*t^a)sin(w*t)
        # with w = |x|, s = sgn(x); the oscillatory factors go to the
        # infinite-interval Fourier rule, which stays honest where the
        # finite-interval oscillatory rule silently loses accuracy
        w, sgn = abs(x), math.copysign(1.0, x)

        def g_cos(t):
            ta = t ** alpha
            return math.exp(-ta) * math.cos(beta * k * ta)

        def g_sin(t):
            ta = t ** alpha
            return math.exp(-ta) * math.sin(beta * k * ta)

        v1, e1 = _quad(g_cos, 0.0, np.inf, weight="cos", wvar=w,
                       epsabs=0.05 * tol, limit=400)
        if beta != 0.0:
            v2, e2 = _quad(g_sin, 0.0, np.inf, weight="sin", wvar=w,
                           epsabs=0.05 * tol, limit=400)
        else:
            v2, e2 = 0.0, 0.0
        val, err = v1 + sgn * v2, e1 + e2

    if err / math.pi > tol:
        raise QuadratureError("PDF inversion did not converge", err / math.pi)
    return max(val / math.pi, 0.0)


def _cdf_numeric(alpha: float, beta: float, x: float, tol: float) -> float:
    k = math.tan(math.pi * alpha / 2.0)
    upper = _inversion_cutoff(alpha)
    tol = tol * max(1.0, abs(x) / 10.0)

    # Im[exp(-j*t*x)*phi(t)] / t = exp(-t^alpha) * sin(beta*k*t^alpha - t*x) / t
    def integrand(t):
        ta = t ** alpha
        return math.exp(-ta) * math.sin(beta * k * ta - t * x) / t

    if abs(x) * upper <= 30.0:
        v1, e1 = _quad(integrand, 0.0, 1.0,
                       epsabs=0.1 * tol, epsrel=1e-13, limit=400)
        v2, e2 = _quad(integrand, 1.0, upper,
                       epsabs=0.1 * tol, epsrel=1e-13, limit=400)
        val, err = v1 + v2, e1 + e2
    else:
        # plain quadrature absorbs the integrable t^(alpha-1) endpoint over
        # a segment short enough to hold few oscillations; the remainder
        # splits as sin(A - t*x) = sin(A)cos(w*t) - s*cos(A)sin(w*t) with
        # w = |x|, s = sgn(x), the oscillatory factors handled by the
        # infinite-interval Fourier rule
        split = min(1.0, 2.0 / abs(x))
        w, sgn = abs(x), math.copysign(1.0, x)

        def h_sin(t):
            ta = t ** alpha
            return math.exp(-ta) * math.sin(beta * k * ta) / t

        def h_cos(t):
            ta = t ** alpha
            return math.exp(-ta) * math.cos(beta * k * ta) / t

        v0, e0 = _quad(integrand, 0.0, split,
                       epsabs=0.05 * tol, epsrel=1e-13, limit=400)
        if beta != 0.0:
            v1, e1 = _quad(h_sin, split, np.inf, weight="cos",
                           wvar=w, epsabs=0.05 * tol, limit=400)
        else:
            v1, e1 = 0.0, 0.0
        v2, e2 = _quad(h_cos, split, np.inf, weight="sin", wvar=w,
                       epsabs=0.05 * tol, limit=400)
        val, err = v0 + v1 - sgn * v2, e0 + e1 + e2

    if err / math.pi > tol:
        raise QuadratureError("CDF inversion did not converge", err / math.pi)
    return min(max(0.5 - val / math.pi, 0.0), 1.0)


# ---------------------------------------------------------------------------
# public density / CDF entry points
# ---------------------------------------------------------------------------

def std_pdf(s: StandardStable, x: float, tol: float = NUMERIC_TOL) -> float:
    """Density of the standard stable law (mu = 0, c = 1) at x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if s.alpha == 2.0:
        return _gauss_std_pdf(x)
    if s.alpha == 1.0:
        return 1.0 / (math.pi * (1.0 + x * x))
    if s.alpha == 0.5 and s.beta == 1.0:
        return _levy_std_pdf(x)
    if s.alpha == 0.5 and s.beta == -1.0:
        return _levy_std_pdf(-x)
    if s.alpha == 0.5:
        return _half_pdf(s.beta, x)
    return _pdf_numeric(s.alpha, s.beta, x, tol)


def std_cdf(s: StandardStable, x: float, tol: float = NUMERIC_TOL) -> float:
    """CDF of the standard stable law at x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if s.alpha == 2.0:
        return _gauss_std_cdf(x)
    if s.alpha == 1.0:
        return 0.5 + math.atan(x) / math.pi
    if s.alpha == 0.5 and s.beta == 1.0:
        return _levy_std_cdf(x)
    if s.alpha == 0.5 and s.beta == -1.0:
        return 1.0 - _levy_std_cdf(-x)
    if s.alpha == 0.5:
        return _half_cdf(s.beta, x)
    return _cdf_numeric(s.alpha, s.beta, x, tol)


def pdf(params: StableParams, x: float, tol: float = NUMERIC_TOL) -> float:
    """Density of the general stable law; rescales the standard density."""
    if params.c == 0.0:
        raise ValueError("c = 0 is a degenerate point mass; density undefined")
    return std_pdf(params.standard, (x - params.mu) / params.c, tol) / params.c


def cdf(params: StableParams, x: float, tol: float = NUMERIC_TOL) -> float:
    """CDF of the general stable law."""
    if params.c == 0.0:
        raise ValueError("c = 0 is a degenerate point mass; CDF undefined")
    return std_cdf(params.standard, (x - params.mu) / params.c, tol)


def tail_coefficient(alpha: float) -> float:
    """Coefficient of the power-law tails: P(X > x) ~ C*(1+beta)*x^-alpha."""
    return math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _standard_levy(rng: np.random.Generator, n: int,
                   scale: float = 1.0) -> np.ndarray:
    # Levy(0, scale) as scale / Z^2; scale 0 draws nothing from rng
    if scale == 0.0:
        return np.zeros(n)
    z = rng.standard_normal(n)
    return scale / (z * z)


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
    if params.c == 0.0:
        raise ValueError("c = 0 is a degenerate point mass; refusing to sample")
    rng = np.random.default_rng(seed)
    # mu + c*Z is valid in this parameterization for every supported
    # (alpha, beta): the alpha = 1 shift correction vanishes at beta = 0
    return params.mu + params.c * _standard_sample(params.alpha, params.beta, n, rng)
