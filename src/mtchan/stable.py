"""Evaluation of alpha-stable distributions (montecarlo samples them).

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
    I0 = sqrt(pi)/(2*sqrt(A)) * w(z), z = j*B/(2*sqrt(A)), w the Faddeeva
    function; that is f(x) = Re(z*w(z))/(sqrt(pi)*x).  The CDF integrates it
    in closed form: the mass beyond x is +/-(2/sqrt(pi)) * Re Int_0^z w.
    w and its integral are computed here, from a Taylor series, Weideman's
    (1994) rational form and the Laplace expansion, each on its own annulus
    of |z|.

Every other (alpha, beta) pair is handled by numerical inversion, which also
serves as the oracle for the closed forms: Nolan's (1997) integral form, a
finite, non-oscillatory integral over theta in (-theta0, pi/2) for each of
the density and the mass beyond x.  A call integrates the kinds it asks
for, in one pass, by the trapezoid rule in a variable that resolves either
end of that range down to 1e-300 and falls double-exponentially away from
the integrands' peak, found by one Brent solve; validate's geometric-power
quadrature shares its range and sines (_theta_range) and its rule (_quad).
Its target is a relative error of NUMERIC_TOL = 1e-10 of each value, so the
power-law tails keep their digits; the call that asks for a value that
misses it raises QuadratureError carrying the achieved relative error bound.

This module and its evaluations load the standard library alone.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections import namedtuple
from functools import cached_property

EULER_GAMMA = 0.5772156649015329
#: exp(Euler's gamma), the constant underlying geometric power.
G_GAMMA = math.exp(EULER_GAMMA)

#: target relative error of the numerical inversion
NUMERIC_TOL = 1e-10

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)

#: the smallest normal float: a scale c below it has lost digits, and below
#: it in x the alpha = 1/2 closed forms' z*z overflows, where f(x) and F(x)
#: equal f(0) and F(0) to double precision
_HALF_TINY = 2.0 ** -1022


class QuadratureError(RuntimeError):
    """Numerical inversion did not reach the requested accuracy.

    Attributes:
        achieved: the relative error bound the quadrature actually reached.
    """

    def __init__(self, message: str, achieved: float):
        # both in args, so that the error unpickles from a pool worker
        super().__init__(message, achieved)
        self.achieved = achieved

    def __str__(self) -> str:
        return f"{self.args[0]} (achieved relative error bound {self.achieved:.3e})"


def _check_shape(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not (-1.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [-1, 1], got {beta}")
    if alpha == 1.0 and beta != 0.0:
        raise ValueError("alpha = 1 with beta != 0 is not supported")


class StandardStable(namedtuple("StandardStable", "alpha beta")):
    """A stable law with mu = 0, c = 1; identified by (alpha, beta)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_shape(self.alpha, self.beta)
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class StableParams(namedtuple("StableParams", "mu c alpha beta",
                              defaults=(0.0, 1.0, 0.5, 0.0))):
    """Full 4-parameter stable law: location mu, scale c, exponent alpha, skew beta."""

    # no __slots__ = (): cached_property keeps standard in a __dict__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not _HALF_TINY <= self.c < math.inf:
            raise ValueError(f"c must be a finite normal float > 0, got {self.c!r}")
        _check_shape(self.alpha, self.beta)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @cached_property  # the detector reads it at every density evaluation
    def standard(self) -> StandardStable:
        return StandardStable(self.alpha, self.beta)


# ---------------------------------------------------------------------------
# closed-form subfamilies
# ---------------------------------------------------------------------------

def _levy_std_pdf(x: float) -> float:
    # standard Levy: (2*pi)^(-1/2) x^(-3/2) exp(-1/(2x)) on x > 0, a product
    # wherever both factors are normal floats, as exp(log f) would lose |log f|
    # ulps.  Rounding q = 0.5/x costs exp(-q) up to q/2 ulps, so above q = 1
    # the remainder 0.5 - q*x, exact from x = n/d and q = m/e, corrects it to
    # first order.  Where exp(-q) alone is subnormal (x < 7.06e-4), it is
    # split as h*h, h = exp(-q/2), so f keeps its digits until it is subnormal
    # itself (x < 6.96e-4).  The log route keeps what is left where a factor
    # underflows
    if x <= 0.0:
        return 0.0
    q = 0.5 / x
    damping, split = math.exp(-q), 1.0
    if damping < _HALF_TINY:
        damping = split = math.exp(-0.5 * q)
    if damping >= _HALF_TINY and (power := x ** -1.5) >= _HALF_TINY:
        if q > 1.0:
            (n, d), (m, e) = x.as_integer_ratio(), q.as_integer_ratio()
            damping *= 1.0 - (d * e - 2 * m * n) / (2 * d * e) / x
        return power * split * damping / _SQRT_2PI
    log_f = -q - 1.5 * math.log(x)
    if log_f < -745.0:
        return 0.0
    return math.exp(log_f) / _SQRT_2PI


def _levy_std_cdf(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.erfc(math.sqrt(0.5 / x))


# ---------------------------------------------------------------------------
# Faddeeva function
# ---------------------------------------------------------------------------
# On Im z > 0 the alpha = 1/2 law needs z*w(z) for its density and the
# integral W(z) = Int_0^z w for its CDF, w(z) = exp(-z^2)*erfc(-iz) the
# Faddeeva function.  Three expansions cover that half plane, each exact to
# working precision on its annulus of |z|, and each integrates in closed form:
#
#   |z| < 1       the Taylor series w = sum_n (iz)^n / Gamma(n/2 + 1), whose
#                 even terms sum to exp(-z^2);
#   1 <= |z| < 7  Weideman's (1994) rational form in Z = (L + iz)/(L - iz),
#                 w = 2*p(Z)/(L - iz)^2 + 1/(sqrt(pi)*(L - iz)), 40 terms;
#   |z| >= 7      the Laplace expansion, the series the Laplace continued
#                 fraction (Poppe & Wijers 1990) sums,
#                 z*w = (i/sqrt(pi)) * (1 + sum_{k>=1} (2k-1)!!/(2z^2)^k),
#                 W = C + (i/sqrt(pi)) * (log z - sum_{k>=1} (2k-1)!!/(2k*(2z^2)^k))
#                 with C = sqrt(pi)/2 + i*(gamma/2 + log 2)/sqrt(pi).  Its
#                 k >= 1 part is summed apart from the leading term, so that
#                 Re(z*w), which that term does not reach, never cancels.
#
# The series keep only the terms their |argument| needs, down to 2^-53: at
# the default sweep's median |z| of 0.3, ten terms for z*w.

#: |z| where each expansion hands over to the next
_W_TAYLOR_EDGE, _W_LAPLACE_EDGE = 1.0, 7.0


def _truncated(coeffs):
    # (radii, polys): polys[i] holds the fewest leading terms of
    # sum coeffs[n]*t^n, highest power first, whose first dropped term is
    # below 2^-53 for |t| <= radii[i]
    radii, polys = [], []
    for n in range(1, len(coeffs)):
        radii.append((2.0 ** -53 / coeffs[n]) ** (1.0 / n))
        polys.append(tuple(reversed(coeffs[:n])))
    return radii, polys


def _horner(coeffs, t: complex) -> complex:
    # sum of coeffs[k] * t^(n-1-k)
    acc = 0.0
    for a in coeffs:
        acc = acc * t + a
    return acc


def _series(truncated, t: complex) -> complex:
    # the truncated series at t, with as many terms as |t| needs
    radii, polys = truncated
    return _horner(polys[bisect.bisect_left(radii, abs(t))], t)


# Weideman (1994), eq. (3.13) and his Matlab listing, at n = 40 terms: the
# scale L = sqrt(n/sqrt(2)) and the coefficients of p, highest power first,
# from the FFT of exp(-t^2)*(L^2 + t^2) at t = L*tan(k*pi/(4n)), |k| < 2n;
# tests/test_stable.py regenerates them
_W_SCALE = 5.3182958969449885
_W_WEIDEMAN = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)
# dZ = 2iL dz/(L - iz)^2, so with P = Int_0^Z p (highest power first):
# W(z) = (P(Z) - P(1))/(iL) + (i/sqrt(pi))*log((L - iz)/L)
_W_WEIDEMAN_INT = tuple(a / (len(_W_WEIDEMAN) - k)
                        for k, a in enumerate(_W_WEIDEMAN)) + (0.0,)
_W_WEIDEMAN_INT_AT_1 = math.fsum(_W_WEIDEMAN_INT)

# the odd Taylor terms: w = exp(u) + iz * sum_k u^k / Gamma(k + 3/2), u = -z^2
_W_TAYLOR_ODD = _truncated([1.0 / math.gamma(k + 1.5) for k in range(20)])
_W_TAYLOR_INT = _truncated([1.0 / (math.gamma(n / 2.0 + 1.0) * (n + 1))
                            for n in range(40)])
# (2k+1)!!, k = 0, 1, ...
_DOUBLE_FACTORIALS = [float(math.prod(range(1, 2 * k + 2, 2))) for k in range(25)]
_W_LAPLACE = _truncated(_DOUBLE_FACTORIALS)
_W_LAPLACE_INT = _truncated([v / (2 * k + 2)
                             for k, v in enumerate(_DOUBLE_FACTORIALS)])
_W_LAPLACE_INT_CONST = complex(0.5 * _SQRT_PI,
                               (0.5 * EULER_GAMMA + math.log(2.0)) / _SQRT_PI)


def _zw_taylor(z: complex) -> complex:
    u = -z * z
    return z * cmath.exp(u) - 1j * u * _series(_W_TAYLOR_ODD, u)


def _zw_weideman(z: complex) -> complex:
    d = _W_SCALE - 1j * z
    p = _horner(_W_WEIDEMAN, (_W_SCALE + 1j * z) / d)
    return z * ((2.0 * p / d + 1.0 / _SQRT_PI) / d)


def _zw_laplace(z: complex) -> complex:
    s = 0.5 / (z * z)
    return (1j / _SQRT_PI) * (1.0 + s * _series(_W_LAPLACE, s))


def _int_taylor(z: complex) -> complex:
    return z * _series(_W_TAYLOR_INT, 1j * z)


def _int_weideman(z: complex) -> complex:
    d = _W_SCALE - 1j * z
    big_p = _horner(_W_WEIDEMAN_INT, (_W_SCALE + 1j * z) / d)
    return ((big_p - _W_WEIDEMAN_INT_AT_1) / (1j * _W_SCALE)
            + (1j / _SQRT_PI) * cmath.log(d / _W_SCALE))


def _int_laplace(z: complex) -> complex:
    s = 0.5 / (z * z)
    return _W_LAPLACE_INT_CONST + (1j / _SQRT_PI) * (
        cmath.log(z) - s * _series(_W_LAPLACE_INT, s))


def _zw(z: complex) -> complex:
    """z*w(z), w the Faddeeva function, for Im z > 0."""
    r = abs(z)
    if r < _W_TAYLOR_EDGE:
        return _zw_taylor(z)
    return _zw_weideman(z) if r < _W_LAPLACE_EDGE else _zw_laplace(z)


def _w_integral(z: complex) -> complex:
    """Int_0^z w, w the Faddeeva function, for Im z > 0."""
    r = abs(z)
    if r < _W_TAYLOR_EDGE:
        return _int_taylor(z)
    return _int_weideman(z) if r < _W_LAPLACE_EDGE else _int_laplace(z)


# ---------------------------------------------------------------------------
# alpha = 1/2, |beta| < 1: both closed forms in z = (i/2)*(1 - i*beta)/sqrt(i*x),
# which has Im z > 0 for x != 0
# ---------------------------------------------------------------------------

def _half_pdf(beta: float, x: float) -> float:
    """Density of S(0, 1, 1/2, beta), |beta| < 1.

    f(x) = Re(z*w(z)) / (sqrt(pi)*x) for x != 0, and
    f(0) = (2/pi)*(1 - beta^2)/(1 + beta^2)^2 exactly.
    """
    if abs(x) < _HALF_TINY:
        return (2.0 / math.pi) * (1.0 - beta * beta) / (1.0 + beta * beta) ** 2
    z = 0.5j * (1.0 - 1j * beta) / cmath.sqrt(1j * x)
    return _zw(z).real / (_SQRT_PI * x)


def _half_cdf(beta: float, x: float) -> float:
    """CDF of S(0, 1, 1/2, beta), |beta| < 1.

    As t runs from x to +/-inf, z runs from z(x) to 0 and
    f(t) dt = -(2/sqrt(pi)) * Re(w(z) dz), so the mass beyond x on its side
    is +/-(2/sqrt(pi)) * Re W(z(x)); F(0) = 1/2 - (2/pi)*atan(beta).
    """
    if abs(x) < _HALF_TINY:
        return 0.5 - (2.0 / math.pi) * math.atan(beta)
    z = 0.5j * (1.0 - 1j * beta) / cmath.sqrt(1j * x)
    mass = (2.0 / _SQRT_PI) * _w_integral(z).real
    return min(max(1.0 - mass if x > 0.0 else -mass, 0.0), 1.0)


# ---------------------------------------------------------------------------
# numerical inversion: Nolan's (1997) integral over theta
# ---------------------------------------------------------------------------
# For x > 0 and alpha != 1, with zeta = beta*tan(pi*alpha/2) and theta0 =
# atan(zeta)/alpha, Nolan's S0 form at x + zeta is our S1 form at x:
#   g(theta) = x^(alpha/(alpha-1)) * cos(alpha*theta0)^(1/(alpha-1))
#              * (cos(theta)/sin(alpha*(theta0+theta)))^(alpha/(alpha-1))
#              * cos(alpha*theta0 + (alpha-1)*theta)/cos(theta),
#   f(x) = alpha/(pi*|alpha-1|*x) * Int g*exp(-g),  1 - F(x) = (1/pi) * Int
#   exp(-g) (alpha > 1) or Int -expm1(-g) (alpha < 1), over -theta0..pi/2.
# g is monotone from 0 (or a floor, at a light tail) to infinity; the
# integrands peak near g = 1 (or twice the floor), for large or small x within
# a hair of an end.  So theta is carried as its distances e and f to the two
# ends, through its logit u, and each factor of g as the sine of the smaller
# of two angles that sum to pi, each a sum of nonnegative terms in e or f:
# g keeps its precision down to a distance of ~1e-300, and its end power laws
# become exponentials in u, folded by u = u_peak + sinh(w).

_U_MAX = 700.0  # e^-|u| stays a normal float


def _theta_range(alpha: float, beta: float) -> tuple:
    """(t, width, lam, at) of the range -theta0..pi/2: t = tan(pi*alpha/2),
    its width = pi/2 + theta0 and lam = pi/2 - theta0, and at(u), which
    gives (sin(alpha*(theta0 + theta)), cos(theta), cos(alpha*theta0 +
    (alpha - 1)*theta), dtheta/du) at the theta whose logit in the range is
    u, |u| <= _U_MAX."""
    if 0.9 < alpha < 1.1 and alpha != 1.0:
        t = 1.0 / math.tan(0.5 * math.pi * (1.0 - alpha))  # exact 1 - alpha
    else:
        t = -math.tan(math.pi * (1.0 - 0.5 * alpha))  # 0 at alpha = 2
    # kappa = pi - alpha*width and the smaller of width and lam each from its
    # own atan2, the larger as pi minus it: each is 0 exactly where it
    # vanishes (for alpha < 1, width at beta = -1 and lam at beta = 1; kappa
    # at beta = -1 and alpha > 1 or at alpha = 2), none cancels near alpha =
    # 1, and width/pi is 1 exactly where lam is 0
    sign = 1.0 if alpha < 1.0 else -1.0
    y, x = (1.0 + beta) * abs(t), sign * (1.0 - beta * t * t)
    kappa = math.atan2(y, -x)
    if sign * beta >= 0.0:  # theta0 >= 0
        lam = math.atan2((1.0 - beta) * abs(t), sign * (1.0 + beta * t * t)) / alpha
        width = math.pi - lam
    else:
        width = math.atan2(y, x) / alpha
        lam = math.pi - width

    def at(u):
        q = math.exp(-min(abs(u), _U_MAX))
        near, far = width * q / (1.0 + q), width / (1.0 + q)
        e, f = (near, far) if u < 0.0 else (far, near)  # theta = e - theta0
        # each factor's angle and the angle that sums with it to pi; the
        # smaller is picked by a comparison, as min() would cost a call
        a, a_sup = alpha * e, kappa + alpha * f
        c, c_sup = lam + e, f
        b, b_sup = f + alpha * e, (lam + (1.0 - alpha) * e if alpha < 1.0
                                   else kappa + (alpha - 1.0) * f)
        return (math.sin(a if a < a_sup else a_sup),
                math.sin(c if c < c_sup else c_sup),
                math.sin(b if b < b_sup else b_sup), near / (1.0 + q))

    return t, width, lam, at


#: halvings of the trapezoid step before the inversion refuses: 9 nodes at
#: first, at most 8*2^14 + 1 = 131,073
TRAPEZOID_HALVINGS = 14


def _quad(f, reach: float, floors=()) -> tuple[list[float], list[float]]:
    """([Int f_i over -reach..reach], [their error bounds]) by the trapezoid
    rule, f_i the components of the tuple f returns at each node.

    Starts from 9 nodes and halves the step, adding the midpoints.  Each
    component stops, and is summed no further, once two of its successive
    sums agree to NUMERIC_TOL of its value, or of floors[i] if larger (for
    an integral that may be 0; components past the end of floors have
    none), or when TRAPEZOID_HALVINGS halvings are spent; their difference
    is its bound.  A component is summed with the same sum() over the same
    nodes as if it were integrated alone.  On a double-exponentially
    decaying integrand the sums converge geometrically (Trefethen & Weideman
    2014), so the finer one is far inside the bound.  w = 0 is a node at
    every level: a peak there narrower than the step halves the sum at each
    halving until the step resolves it.
    """
    h = reach / 4.0
    ends = zip(f(-reach), f(reach))
    inner = zip(*[f(h * k) for k in range(-3, 4)])
    vals = [h * (0.5 * (a + b) + sum(mid)) for (a, b), mid in zip(ends, inner)]
    errs = [math.inf] * len(vals)
    floors = tuple(floors) + (0.0,) * (len(vals) - len(floors))
    live = range(len(vals))
    for level in range(TRAPEZOID_HALVINGS):
        h *= 0.5
        n = 8 << level  # the nodes are now h*j, |j| <= n; the new ones odd j
        new = list(zip(*[f(h * j) for j in range(1 - n, n, 2)]))
        for i in live:
            prev = vals[i]
            vals[i] = 0.5 * prev + h * sum(new[i])
            errs[i] = abs(vals[i] - prev)
        live = [i for i in live
                if not errs[i] <= NUMERIC_TOL * max(abs(vals[i]), floors[i])]
        if not live:
            break
    return vals, errs


#: iteration cap of the Brent solve (scipy.optimize.brentq's default)
BRENT_MAXITER = 100
#: relative x tolerance of the Brent solve (brentq's default, 4 eps)
BRENT_RTOL = 8.881784197001252e-16


def _brent(f, xa: float, xb: float, fa: float, fb: float, xtol: float) -> float:
    # scipy's brentq.c step for step (same float operations in the same
    # order, so roots are bitwise equal to scipy.optimize.brentq), without
    # loading scipy.optimize; fa = f(xa) and fb = f(xb) come from the caller,
    # and it raises where brentq does
    def checked(x, fx):
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # C yields inf or nan here: bisect
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def _nolan(alpha: float, beta: float, x: float, kinds: slice) -> tuple:
    """(f(x), F(x))[kinds] of the standard law, alpha != 1, from one pass
    that integrates only those kinds: slice(0, 1) the density, slice(1, 2)
    the CDF, slice(0, 2) both.  Raises QuadratureError for the first of
    them, density before CDF, whose integral missed NUMERIC_TOL."""
    above = x < 0.0  # then F(x) is the mass above -x of the mirrored law
    if above:
        beta, x = -beta, -x
    if alpha < 1.0 and beta == -1.0:
        return (0.0, 0.0 if above else 1.0)[kinds]  # the support is x <= 0
    t, width, lam, at = _theta_range(alpha, beta)
    if x == 0.0:
        return (math.gamma(1.0 + 1.0 / alpha) * math.sin(lam)
                / (math.pi * (1.0 + (beta * t) ** 2) ** (0.5 / alpha)),
                (width if above else lam) / math.pi)[kinds]
    r = 1.0 / (alpha - 1.0)
    c0 = alpha * r * math.log(x) - 0.5 * r * math.log1p((beta * t) ** 2)

    def log_g(u):
        # (log g, dtheta/du) at the theta whose logit is u, |u| <= _U_MAX
        sin_a, cos_t, cos_b, jac = at(u)
        return (c0 + alpha * r * math.log(cos_t / sin_a)
                + math.log(cos_b / cos_t), jac)

    # the peak: g = 1, or twice g's floor at its small end (a light tail)
    target = max(log_g(math.copysign(_U_MAX, alpha - 1.0))[0] + math.log(2.0), 0.0)
    h = lambda u: log_g(u)[0] - target
    try:
        peak = _brent(h, -_U_MAX, _U_MAX, h(-_U_MAX), h(_U_MAX), 1e-3)
    except ValueError:  # x so near 0 or so large that the peak is out of range
        peak = 0.0
    # the mass: of exp(-g) and -expm1(-g), which sum to 1, integrate the one
    # that vanishes at u = 0, where dtheta/du peaks, so its mass is all near
    # the peak; the other is width minus it.  pi*F(0) = lam, so F(x) beyond 0
    # is lam plus the mass from 0 to x, where 1 minus the mass above x would
    # lose F's digits as it nears 0
    use_exp = log_g(0.0)[0] >= 0.0

    def integrand(w):
        # the density's g*exp(-g) and the mass's kernel, on one log g
        log_gu, jac = log_g(peak + math.sinh(w))  # exp(-g) is 0 past g = e^709
        g = math.exp(min(log_gu, 709.0))
        e, scale = math.exp(-g), math.cosh(w)
        return (g * e * jac * scale,
                (e if use_exp else -math.expm1(-g)) * jac * scale)[kinds]

    # away from the peak, w = 0, the integrand falls at least as fast as
    # exp(-min(1, alpha/(1-alpha))*|u - peak|): reach covers it to 2^-52
    reach = math.asinh(36.0 * max(1.0, 1.0 / alpha - 1.0))
    integrals, errs = _quad(integrand, reach)
    for kind, integral, err in zip(("PDF", "CDF")[kinds], integrals, errs):
        if err > NUMERIC_TOL * integral:
            raise QuadratureError(f"{kind} inversion did not converge",
                                  err / integral if integral else math.inf)
    both = [0.0, 0.0]  # an integral not asked for stays 0
    both[kinds] = integrals
    dens, tail = both
    if use_exp == (alpha > 1.0):  # tail is the mass above x
        mass = tail if above else math.pi - tail
    else:  # ... or the mass between 0 and x
        mass = width - tail if above else lam + tail
    return (abs(alpha * r) * dens / (math.pi * x), mass / math.pi)[kinds]


# ---------------------------------------------------------------------------
# public density / CDF entry points
# ---------------------------------------------------------------------------

def std_pdf(s: StandardStable, x: float) -> float:
    """Density of the standard stable law (mu = 0, c = 1) at x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if s.alpha == 2.0:  # N(0, 2)
        return math.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))
    if s.alpha == 1.0:
        return 1.0 / (math.pi * (1.0 + x * x))
    if s.alpha == 0.5 and s.beta == 1.0:
        return _levy_std_pdf(x)
    if s.alpha == 0.5 and s.beta == -1.0:
        return _levy_std_pdf(-x)
    if s.alpha == 0.5:
        return _half_pdf(s.beta, x)
    return _nolan(s.alpha, s.beta, x, slice(0, 1))[0]


def std_cdf(s: StandardStable, x: float) -> float:
    """CDF of the standard stable law at x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if s.alpha == 2.0:
        return 0.5 * math.erfc(-0.5 * x)
    if s.alpha == 1.0:
        if x < 0.0:
            return math.atan2(1.0, -x) / math.pi  # 1/2 + atan(x)/pi cancels here
        return 0.5 + math.atan(x) / math.pi
    if s.alpha == 0.5 and s.beta == 1.0:
        return _levy_std_cdf(x)
    if s.alpha == 0.5 and s.beta == -1.0:
        # P(L >= -x), L Levy, as an erf: 1 - erfc would cancel in the tail
        return math.erf(math.sqrt(-0.5 / x)) if x < 0.0 else 1.0
    if s.alpha == 0.5:
        return _half_cdf(s.beta, x)
    return _nolan(s.alpha, s.beta, x, slice(1, 2))[0]


def _far_tail(params: StableParams, x: float, density: bool) -> float:
    # f(x) or F(x) at a finite x far out in z = (x - mu)/c: the leading
    # power-law term, P(X > x) ~ C*(1 + beta)*z^-alpha and its mirror, in
    # logs.  Its relative error is O(|z|^-alpha): below 2^-53 from |z| =
    # 2^106 at alpha = 1/2, and below 1e-150 for alpha >= 1/2 where z overflows
    alpha, mu, c = params.alpha, params.mu, params.c
    if alpha < 0.5:
        raise ValueError(f"(x - mu)/c overflows at x = {x!r}, mu = {mu!r}, "
                         f"c = {c!r}: below alpha = 1/2 its tail term is not "
                         "exact to double precision")
    right = x > mu
    weight = tail_coefficient(alpha) * (1.0 + (params.beta if right else -params.beta))
    log_z = math.log(abs(0.5 * x - 0.5 * mu)) + math.log(2.0) - math.log(c)
    # a light tail (weight 0) has no mass this far out
    log_mass = math.log(weight) - alpha * log_z if weight > 0.0 else -math.inf
    if density:
        return math.exp(log_mass + math.log(alpha) - log_z - math.log(c))
    mass = math.exp(log_mass)
    return 1.0 - mass if right else mass


def _rescaled(params: StableParams, x: float, density: bool) -> float:
    # f(x) or F(x) from the standard law at z = (x - mu)/c.  Where x - mu
    # overflows, its halves do not, and halving and doubling are exact; where
    # z itself overflows at a finite x, the tail term serves.  At alpha = 1/2
    # it serves from |z| = 2^106 on, where it is exact to double precision:
    # the standard density underflows from |z| ~ 1e205, before / c restores it
    z = (x - params.mu) / params.c
    if math.isinf(z) and math.isfinite(x):
        z = 2.0 * ((0.5 * x - 0.5 * params.mu) / params.c)
    if math.isfinite(x) and (math.isinf(z) or
                             params.alpha == 0.5 and abs(z) >= 2.0 ** 106):
        return _far_tail(params, x, density)
    if density:
        return std_pdf(params.standard, z) / params.c
    return std_cdf(params.standard, z)


def pdf(params: StableParams, x: float) -> float:
    """Density of the general stable law: the standard density rescaled, or
    where (x - mu)/c overflows at a finite x (at alpha = 1/2, from |z| =
    2^106 on), the leading power-law tail term (refused below alpha = 1/2)."""
    return _rescaled(params, x, True)


def cdf(params: StableParams, x: float) -> float:
    """CDF of the general stable law, with pdf's tail term where (x - mu)/c
    overflows at a finite x."""
    return _rescaled(params, x, False)


def tail_coefficient(alpha: float) -> float:
    """Coefficient of the power-law tails: P(X > x) ~ C*(1+beta)*x^-alpha."""
    return math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi
