import cmath
import math
import sys

import warnings

import numpy as np
import pytest
from scipy import integrate

from mtchan import stable
from mtchan.montecarlo import sample
from mtchan.stable import (G_GAMMA, QuadratureError, StableParams,
                           StandardStable, _W_LAPLACE_EDGE, _W_TAYLOR_EDGE,
                           _cdf_numeric, _int_laplace, _int_taylor,
                           _int_weideman, _levy_std_cdf, _levy_std_pdf,
                           _pdf_numeric, _zw, _zw_laplace, _zw_taylor,
                           _zw_weideman, cdf, pdf, std_cdf, std_pdf,
                           tail_coefficient)

LEVY = StandardStable(0.5, 1.0)
SYM_HALF = StandardStable(0.5, 0.0)
CAUCHY = StandardStable(1.0, 0.0)
GAUSS = StandardStable(2.0, 0.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_levy_pdf_example():
    assert std_pdf(LEVY, 1.0 / 3.0) == pytest.approx(0.4625410, abs=5e-8)


def test_levy_pdf_mode():
    # standard Levy mode at x = 1/3
    f_mode = std_pdf(LEVY, 1.0 / 3.0)
    assert f_mode > std_pdf(LEVY, 1.0 / 3.0 - 1e-3)
    assert f_mode > std_pdf(LEVY, 1.0 / 3.0 + 1e-3)


def test_levy_support():
    assert std_pdf(LEVY, -0.5) == 0.0
    assert std_pdf(LEVY, 0.0) == 0.0
    assert std_cdf(LEVY, 0.0) == 0.0
    assert std_cdf(LEVY, -2.0) == 0.0


def test_levy_cdf_example():
    assert std_cdf(LEVY, 1.0) == pytest.approx(math.erfc(math.sqrt(0.5)),
                                               abs=1e-15)
    for x in (1e-3, 0.2, 7.0, 1e6):
        assert std_cdf(LEVY, x) == math.erfc(math.sqrt(0.5 / x))


def test_negative_levy_reflection():
    neg = StandardStable(0.5, -1.0)
    assert std_pdf(neg, -0.25) == pytest.approx(std_pdf(LEVY, 0.25), abs=1e-15)
    assert std_cdf(neg, -0.25) == pytest.approx(1.0 - std_cdf(LEVY, 0.25),
                                                abs=1e-15)


def test_cauchy_and_gauss():
    assert std_pdf(CAUCHY, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert std_cdf(CAUCHY, 1.0) == pytest.approx(0.75, abs=1e-15)
    # alpha = 2 standard stable is N(0, 2)
    assert std_pdf(GAUSS, 0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)),
                                                abs=1e-15)
    assert std_cdf(GAUSS, 0.0) == pytest.approx(0.5, abs=1e-15)
    for x in (-9.0, -1.5, 0.3, 4.0):
        assert std_cdf(GAUSS, x) == 0.5 * math.erfc(-0.5 * x)


LOWER_TAIL_XS = (-1.0, -1e8, -1e20, -1e40, -1e150, -1e300)


@pytest.mark.parametrize("x", LOWER_TAIL_XS)
def test_closed_form_lower_tails_vs_mpmath(mp, x):
    # the lower tails of the mirrored Levy and Cauchy CDFs are read directly,
    # not as one minus the upper mass, so they keep their relative digits
    neg = StandardStable(0.5, -1.0)
    assert std_cdf(neg, x) == pytest.approx(
        float(mp.erf(mp.sqrt(-0.5 / mp.mpf(x)))), rel=1e-14, abs=0.0)
    assert std_cdf(CAUCHY, x) == pytest.approx(
        float(mp.acot(-mp.mpf(x)) / mp.pi), rel=1e-14, abs=0.0)
    assert std_cdf(neg, -x) == 1.0
    assert std_cdf(CAUCHY, -x) == pytest.approx(
        float(1 - mp.acot(-mp.mpf(x)) / mp.pi), rel=1e-15)


# ---------------------------------------------------------------------------
# numerical inversion vs closed forms / internal consistency
# ---------------------------------------------------------------------------

def test_numeric_pdf_matches_levy():
    for x in (0.05, 0.2, 1.0 / 3.0, 1.0, 5.0, 50.0):
        assert _pdf_numeric(0.5, 1.0, x) == pytest.approx(
            _levy_std_pdf(x), abs=1e-8)


def test_numeric_cdf_matches_levy():
    for x in (0.05, 0.2, 1.0, 5.0, 50.0):
        assert _cdf_numeric(0.5, 1.0, x) == pytest.approx(
            _levy_std_cdf(x), abs=1e-8)


def test_symmetric_pdf_at_zero():
    assert std_pdf(SYM_HALF, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-10)


@pytest.mark.parametrize("x", (5e-324, -5e-324, 1e-310, -2.0 ** -1023))
def test_half_closed_forms_at_subnormal_x(x):
    # f and F move by ~|x| from their values at 0, far below double precision
    s = StandardStable(0.5, 0.3)
    assert std_pdf(s, x) == std_pdf(s, 0.0)
    assert std_cdf(s, x) == std_cdf(s, 0.0)


def test_pdf_reflection_numeric():
    s_pos = StandardStable(0.5, 0.4)
    s_neg = StandardStable(0.5, -0.4)
    for x in (-3.0, -0.5, 0.0, 0.7, 2.0):
        assert std_pdf(s_pos, x) == pytest.approx(std_pdf(s_neg, -x), abs=1e-10)
        assert std_cdf(s_pos, x) == pytest.approx(1.0 - std_cdf(s_neg, -x),
                                                  abs=1e-10)


def test_pdf_integrates_to_cdf():
    # independent consistency: the pdf integrated by quadrature vs cdf
    # differences; off alpha = 1/2 Nolan's inversion gives each of the two
    # from its own integral over theta
    for alpha, beta in [(0.5, 0.0), (0.5, 0.6), (0.9, -0.3), (1.5, 0.5)]:
        s = StandardStable(alpha, beta)
        for a, b in [(-4.0, -1.0), (-1.0, 1.0), (1.0, 6.0)]:
            mass, err = integrate.quad(lambda x: std_pdf(s, x), a, b,
                                       epsabs=1e-10, limit=200)
            assert mass == pytest.approx(std_cdf(s, b) - std_cdf(s, a),
                                         abs=1e-6)


def test_cdf_monotone_and_tail_mass():
    s = StandardStable(0.5, 0.3)
    xs = [-1e4, -100.0, -1.0, 0.0, 1.0, 100.0, 1e4]
    fs = [std_cdf(s, x) for x in xs]
    assert all(a < b for a, b in zip(fs, fs[1:]))
    # first-order power tails within their own O(x^-2a) error
    ct = tail_coefficient(0.5)
    assert 1.0 - fs[-1] == pytest.approx(ct * 1.3 * 1e4 ** -0.5, rel=5e-2)
    assert fs[0] == pytest.approx(ct * 0.7 * 1e4 ** -0.5, rel=5e-2)


def test_far_tail_evaluation_succeeds():
    s = StandardStable(0.5, 0.25)
    assert 0.0 <= std_cdf(s, -1e6) < 1e-3
    assert std_cdf(s, 1e6) > 1.0 - 1e-3
    assert std_pdf(s, 1e6) < 1e-8


def test_tail_coefficient_levy_consistency():
    # P(Levy > x) = erfc(sqrt(1/(2x))) ~ sqrt(2/(pi*x)) = 2*C(1/2)*x^(-1/2)
    assert 2.0 * tail_coefficient(0.5) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# general-parameter rescaling
# ---------------------------------------------------------------------------

def test_pdf_cdf_rescaling():
    params = StableParams(2.0, 3.0, 0.5, 0.5)
    s = params.standard
    for x in (-1.0, 2.0, 5.0, 20.0):
        assert pdf(params, x) == pytest.approx(
            std_pdf(s, (x - 2.0) / 3.0) / 3.0, abs=1e-14)
        assert cdf(params, x) == pytest.approx(
            std_cdf(s, (x - 2.0) / 3.0), abs=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.5, -0.5, 1.0, -1.0])
def test_far_tail_where_the_standardized_point_overflows(beta):
    # (x - mu)/c overflows at c = 1e-300 and x = +/-1e10, where the leading
    # tail term serves: it must equal the closed form at c = 1e-20, below
    # the tail term's cut at |z| = 2^106, carried over by the tails' scaling
    # c^alpha (the next term is 1e-15 relative at z = 1e30, and the leading
    # term's logs lose ~1e-13)
    far, near = StableParams(0.0, 1e-300, 0.5, beta), StableParams(0.0, 1e-20, 0.5, beta)
    k = (1e-300 / 1e-20) ** 0.5
    for x in (1e10, -1e10):
        assert pdf(far, x) == pytest.approx(k * pdf(near, x), rel=1e-12, abs=0.0)
    assert cdf(far, -1e10) == pytest.approx(k * cdf(near, -1e10), rel=1e-12, abs=0.0)
    assert cdf(far, 1e10) == 1.0
    assert pdf(far, 1e10) > 0.0 or beta == -1.0


def test_far_tail_where_x_minus_mu_overflows():
    # x - mu = -2e308: at c = 1 the standardized point overflows too, at
    # c = 1e10 it is -2e298, and the tail masses scale as c^alpha
    for beta in (0.0, 0.5):
        mass = cdf(StableParams(1e308, 1.0, 0.5, beta), -1e308)
        ref = cdf(StableParams(1e308, 1e10, 0.5, beta), -1e308) * 1e-5
        assert mass == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert mass == pytest.approx(tail_coefficient(0.5) * (1.0 - beta)
                                     / (math.sqrt(2.0) * 1e154), rel=1e-12)
        assert pdf(StableParams(1e308, 1.0, 0.5, beta), -1e308) == 0.0  # ~1e-463
    assert cdf(StableParams(-1e308, 1.0, 0.5, 0.0), 1e308) == 1.0


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.5, 0.3), (2.0, 0.0)])
def test_far_tail_at_other_exponents(alpha, beta):
    # from alpha = 1 on, the tail term is subnormal or 0 wherever (x - mu)/c
    # overflows: the Cauchy's is 1/(pi*z) for the mass and 1/(pi*z^2*c) for
    # the density, at z = 1e310
    law = StableParams(0.0, 1e-300, alpha, beta)
    if alpha == 1.0:
        assert cdf(law, -1e10) == pytest.approx(1e-310 / math.pi, rel=1e-9)
        assert pdf(law, 1e10) == pytest.approx(1e-320 / math.pi, rel=1e-2)
    else:
        assert (pdf(law, 1e10), cdf(law, -1e10)) == (0.0, 0.0)
    assert cdf(law, 1e10) == 1.0


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.95, 1.0, -0.95, -1.0])
def test_far_tail_density_does_not_underflow_before_the_scale(beta):
    # at c = 1e-300 the standard density underflows from |z| ~ 1e205 though
    # the density itself is normal: from |z| = 2^106 on, alpha = 1/2 takes the
    # tail term, so pdf falls monotonely, and where the standard density and
    # its rescaling are normal floats both routes agree
    xs = [10.0 ** (-100 + 4 * i) for i in range(103)]
    far = [pdf(StableParams(0.0, 1e-300, 0.5, beta), x) for x in xs]
    assert all(a >= b for a, b in zip(far, far[1:]))
    assert far[0] > 0.0 or beta == -1.0
    for c in (1e-300, 1.0):
        law = StableParams(0.0, c, 0.5, beta)
        for x in [v for x in xs for v in (x, -x) if math.isfinite(x / c)]:
            ref = std_pdf(law.standard, x / c)
            if ref >= sys.float_info.min and ref / c >= sys.float_info.min:
                assert pdf(law, x) == pytest.approx(ref / c, rel=1e-12, abs=0.0)
            mass = std_cdf(law.standard, -abs(x) / c)
            if mass >= sys.float_info.min:
                assert cdf(law, -abs(x)) == pytest.approx(mass, rel=1e-12, abs=0.0)


def test_far_tail_below_alpha_half_is_refused():
    with pytest.raises(ValueError, match=r"x = 10000000000\.0, mu = 0\.0, c = 1e-300"):
        pdf(StableParams(0.0, 1e-300, 0.4, 0.0), 1e10)
    with pytest.raises(ValueError, match="below alpha = 1/2"):
        cdf(StableParams(0.0, 1e-300, 0.4, 0.0), -1e10)


def test_g_gamma_constant():
    assert G_GAMMA == pytest.approx(1.7810724179901979, abs=1e-15)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_deterministic():
    p = StableParams(0.0, 1.0, 0.5, 1.0)
    a = sample(p, 1000, 42)
    b = sample(p, 1000, 42)
    c = sample(p, 1000, 43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_levy_positive_and_shifted():
    a = sample(StableParams(0.0, 2.0, 0.5, 1.0), 10_000, 1)
    assert np.all(a > 0.0)
    shifted = sample(StableParams(5.0, 2.0, 0.5, 1.0), 10_000, 1)
    np.testing.assert_allclose(shifted, a + 5.0, rtol=0, atol=1e-12)


def test_sample_scale_equivariance():
    # same seed: S(0, c) variates are exactly c times the standard ones
    base = sample(StableParams(0.0, 1.0, 0.5, 0.5), 5000, 9)
    scaled = sample(StableParams(0.0, 3.0, 0.5, 0.5), 5000, 9)
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


def test_sample_gaussian_moments():
    a = sample(StableParams(0.0, 1.0, 2.0, 0.0), 200_000, 3)
    assert np.mean(a) == pytest.approx(0.0, abs=0.02)
    assert np.var(a) == pytest.approx(2.0, abs=0.05)


def test_sample_empty():
    assert sample(StableParams(0.0, 1.0, 0.5, 1.0), 0, 0).shape == (0,)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (2.5, 0.0), (-1.0, 0.0),
                                        (0.5, 1.5), (0.5, -1.1), (1.0, 0.5)])
def test_invalid_shape_rejected(alpha, beta):
    with pytest.raises(ValueError):
        StandardStable(alpha, beta)
    with pytest.raises(ValueError):
        StableParams(0.0, 1.0, alpha, beta)


def test_invalid_scale_location():
    with pytest.raises(ValueError):
        StableParams(0.0, -1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        StableParams(math.inf, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        StableParams(0.0, math.nan, 0.5, 0.0)


def test_degenerate_scale_rejected_for_evaluation():
    # a scale of 0 is a point mass and a subnormal one has lost digits: the
    # law is refused where it is built, before pdf, cdf or sample sees it
    for c in (0.0, 5e-324, 2.0 ** -1023, math.inf):
        with pytest.raises(ValueError, match="c must be"):
            StableParams(1.0, c, 0.5, 0.0)
    assert StableParams(0.0, 2.0 ** -1022, 0.5, 0.0).c == 2.0 ** -1022


def test_nonfinite_x_rejected():
    with pytest.raises(ValueError):
        std_pdf(LEVY, math.inf)
    with pytest.raises(ValueError):
        std_cdf(SYM_HALF, math.nan)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        sample(StableParams(0.0, 1.0, 0.5, 1.0), -1, 0)


# ---------------------------------------------------------------------------
# alpha = 1/2 closed form vs an mpmath oracle
# ---------------------------------------------------------------------------

HALF_BETAS = (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, 0.95, 0.99)


def _mp_half_pdf(mp, beta, x):
    # (1/pi) Re[(1 - B*I0)/A] at high precision; extra digits where it cancels
    beta, x = mp.mpf(beta), mp.mpf(x)
    if x == 0:
        return 2 / mp.pi * (1 - beta ** 2) / (1 + beta ** 2) ** 2
    with mp.extradps(max(0, int(-mp.log10(abs(x)))) + 5):
        a, b = mp.mpc(0, x), mp.mpc(1, -beta)
        root = mp.sqrt(a)
        z = b / (2 * root)
        i0 = mp.sqrt(mp.pi) / (2 * root) * mp.exp(z * z) * mp.erfc(z)
        return mp.re((1 - b * i0) / a) / mp.pi


def _mp_half_cdf(mp, beta, x):
    f = lambda t: _mp_half_pdf(mp, beta, t)
    x = mp.mpf(x)
    if abs(x) < 1:
        f0 = mp.mpf(1) / 2 - 2 / mp.pi * mp.atan(beta)
        return f0 + x * mp.quad(lambda t: f(x * t), [0, 1])
    mass = mp.quad(lambda t: f(x / t ** 2) * 2 * abs(x) / t ** 3, [0, 1])
    return 1 - mass if x > 0 else mass


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        yield mpmath


@pytest.mark.parametrize("beta", HALF_BETAS)
def test_half_pdf_relative_error_vs_mpmath(mp, beta):
    s = StandardStable(0.5, beta)
    xs = [0.0] + [sign * 10.0 ** e for sign in (1.0, -1.0)
                  for e in np.arange(-9.0, 5.01, 0.25)]
    for x in xs:
        ref = float(_mp_half_pdf(mp, beta, x))
        assert std_pdf(s, x) == pytest.approx(ref, rel=1e-10, abs=0.0), x


@pytest.mark.parametrize("beta", HALF_BETAS)
def test_half_cdf_absolute_error_vs_mpmath(mp, beta):
    s = StandardStable(0.5, beta)
    xs = [0.0] + [sign * 10.0 ** e for sign in (1.0, -1.0)
                  for e in (-9.0, -3.0, -1.0, -0.2, 0.0, 0.5, 2.0, 4.0, 5.0)]
    for x in xs:
        ref = float(_mp_half_cdf(mp, beta, x))
        assert std_cdf(s, x) == pytest.approx(ref, abs=1e-12), x


@pytest.mark.parametrize("beta", (0.0, 0.5))
@pytest.mark.parametrize("x", (1e4, -1e4, 1e5, -1e5))
def test_half_pdf_far_tail_vs_mpmath(mp, beta, x):
    # f falls as |x|^(-3/2), so error is judged relative: the closed form
    # must match mpmath as Nolan's inversion does, to a relative 1e-10
    ref = float(_mp_half_pdf(mp, beta, x))
    assert std_pdf(StandardStable(0.5, beta), x) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# the Faddeeva function behind the alpha = 1/2 closed forms
# ---------------------------------------------------------------------------

def _weideman_coeffs(n: int) -> tuple[float, tuple[float, ...]]:
    # Weideman (1994), eq. (3.13) and his Matlab listing: the scale L and the
    # n coefficients of p, highest power first
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, tuple(float(v) for v in a[n:0:-1])


def test_weideman_literals_are_the_fft_coefficients():
    # the literals are the coefficients as numpy's AVX-512 (SKX) float64 tan
    # and exp give them; its other kernels put 18 of the 40 up to 9e-17 away
    try:  # numpy >= 2
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    scale, coeffs = _weideman_coeffs(40)
    assert scale == stable._W_SCALE
    if __cpu_features__.get("AVX512_SKX"):
        assert coeffs == stable._W_WEIDEMAN
    else:
        assert coeffs == pytest.approx(stable._W_WEIDEMAN, rel=0.0, abs=2.0 ** -50)


@pytest.mark.parametrize("beta", HALF_BETAS + (0.999, -0.999))
def test_faddeeva_matches_wofz(beta):
    # w on the density's arguments z = b/sqrt(i*x), b = (i/2)*(1 - i*beta),
    # with x just either side of every branch edge |z| = e, x = (|b|/e)^2
    from scipy.special import wofz  # a test-time oracle only
    b = 0.5j * (1.0 - 1j * beta)
    edges = [(abs(b) / (e * f)) ** 2 for e in (_W_TAYLOR_EDGE, _W_LAPLACE_EDGE)
             for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    xs = np.concatenate([np.logspace(-9.0, 6.0, 301), edges])
    for x in np.concatenate([xs, -xs]):
        z = b / cmath.sqrt(1j * x)
        assert _zw(z) / z == pytest.approx(complex(wofz(z)), rel=1e-13), x


@pytest.mark.parametrize("edge,inner,outer", [
    (_W_TAYLOR_EDGE, (_zw_taylor, _int_taylor), (_zw_weideman, _int_weideman)),
    (_W_LAPLACE_EDGE, (_zw_weideman, _int_weideman), (_zw_laplace, _int_laplace)),
], ids=["taylor-weideman", "weideman-laplace"])
def test_faddeeva_branches_agree_at_their_edges(edge, inner, outer):
    # both expansions are exact on the edge between them, near the real axis
    # too: z*w (the density) and Int_0^z w (the CDF, whose Laplace branch
    # carries a constant of integration) hand over without a step
    for phase in np.linspace(1e-3, math.pi - 1e-3, 61):
        z = edge * cmath.exp(1j * phase)
        assert inner[0](z) == pytest.approx(outer[0](z), rel=1e-14, abs=0.0)
        assert inner[1](z) == pytest.approx(outer[1](z), rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the numerical inversion, judged in relative terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", HALF_BETAS + (1.0, -1.0))
def test_numeric_pdf_matches_half_closed_forms_relative(beta):
    # Nolan's integral against the alpha = 1/2 closed forms (Levy at +-1) out
    # to |x| = 1e8, wherever the density is not negligibly small
    s = StandardStable(0.5, beta)
    half = np.logspace(-2.0, 8.0, 41)
    for x in np.concatenate([-half, half]):
        ref = std_pdf(s, float(x))
        if ref >= 1e-12:
            assert _pdf_numeric(0.5, beta, float(x)) == pytest.approx(
                ref, rel=1e-10, abs=0.0), x


@pytest.mark.parametrize("beta", (0.0, 0.7, -1.0))
def test_numeric_inversion_at_alpha_2_is_gaussian(beta):
    # alpha = 2 is N(0, 2) whatever beta; the numeric route knows no shortcut
    for x in (0.0, 0.1, 1.0, 3.0, 10.0, 30.0):
        for v in (x, -x):
            assert _pdf_numeric(2.0, beta, v) == pytest.approx(
                std_pdf(GAUSS, v), rel=1e-10, abs=0.0), v
        assert _cdf_numeric(2.0, beta, -x) == pytest.approx(
            std_cdf(GAUSS, -x), rel=1e-10, abs=0.0), -x
        assert _cdf_numeric(2.0, beta, x) == pytest.approx(
            std_cdf(GAUSS, x), rel=0.0, abs=1e-15), x


@pytest.mark.parametrize("alpha", (0.7, 0.9, 1.1, 1.5, 1.9))
@pytest.mark.parametrize("beta", (0.0, 0.5))
def test_numeric_tails_follow_the_leading_power_law(alpha, beta):
    # f ~ alpha*C*(1 +- beta)*|x|^(-1-alpha) and the mass beyond x
    # ~ C*(1 +- beta)*|x|^(-alpha), the next terms ~|x|^-alpha smaller
    c = tail_coefficient(alpha)
    for x in (1e5, -1e5, 1e8, -1e8):
        weight = c * (1.0 + math.copysign(beta, x))
        assert _pdf_numeric(alpha, beta, x) == pytest.approx(
            alpha * weight * abs(x) ** (-1.0 - alpha), rel=1e-3), x
        if abs(x) < 1e6:
            cdf_x = _cdf_numeric(alpha, beta, x)
            mass = 1.0 - cdf_x if x > 0.0 else cdf_x
            assert mass == pytest.approx(weight * abs(x) ** -alpha, rel=1e-3), x


def test_quadrature_error_survives_pickling():
    # a pool worker's error reaches the parent pickled, where the CLI turns
    # it into "error: ..." and exit 1
    import pickle
    err = pickle.loads(pickle.dumps(
        QuadratureError("CDF inversion did not converge", 2.5e-9)))
    assert isinstance(err, QuadratureError) and err.achieved == 2.5e-9
    assert str(err) == ("CDF inversion did not converge "
                        "(achieved relative error bound 2.500e-09)")


# ---------------------------------------------------------------------------
# the trapezoid rule, and scipy's QUADPACK as a test-time oracle
# ---------------------------------------------------------------------------

def test_trapezoid_rule_on_decaying_integrals():
    for f, reach, exact in [(lambda x: math.exp(-x * x), 10.0, math.sqrt(math.pi)),
                            (lambda x: 1.0 / math.cosh(x), 40.0, math.pi)]:
        value, err = stable._quad(f, reach)
        assert err <= stable.NUMERIC_TOL * value
        assert value == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_trapezoid_rule_resolves_a_spike_at_zero():
    # g*exp(-g), g = e^(3000 w), is a spike of width 1/3000 at the node
    # w = 0, with mass 1/3000; until the step resolves it each halving
    # halves the sum, so the rule cannot stop early
    def spike(w):
        g = math.exp(min(3000.0 * w, 700.0))
        return g * math.exp(-g)

    value, err = stable._quad(spike, 1.0)
    assert err <= stable.NUMERIC_TOL * value
    assert value == pytest.approx(1.0 / 3000.0, rel=1e-12, abs=0.0)


def _quadpack(f, reach):
    # the same integral by scipy's QUADPACK, to 2e-14 relative: an accuracy
    # oracle, held well below NUMERIC_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, -reach, reach, points=(0.0,), epsabs=0.0,
                              epsrel=2e-14, limit=2000)[:2]


def test_numeric_inversion_pinned_value():
    # general alpha goes through Nolan's integral and the trapezoid rule
    assert pdf(StableParams(0.0, 1.0, 1.5, 0.3), 1.0) == pytest.approx(
        0.16235873175932355, abs=1e-9)


@pytest.mark.parametrize("alpha", (0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5,
                                   1.7, 1.9))
def test_numeric_inversion_matches_quadpack(alpha, monkeypatch):
    half = np.logspace(-3.0, 8.0, 23)
    xs = [float(x) for x in np.concatenate([-half[::-1], half])]
    cases = [(fn, beta, x) for fn in (_pdf_numeric, _cdf_numeric)
             for beta in (-1.0, -0.5, 0.0, 0.5, 1.0) for x in xs]
    with monkeypatch.context() as m:
        m.setattr(stable, "_quad", _quadpack)
        refs = [fn(alpha, beta, x) for fn, beta, x in cases]
    for (fn, beta, x), ref in zip(cases, refs):
        assert fn(alpha, beta, x) == pytest.approx(ref, rel=1e-13, abs=0.0), \
            (fn.__name__, beta, x)


def test_inversion_refuses_where_rounding_swamps_the_integrand():
    # alpha/(alpha - 1) = -999 multiplies the rounding of log g: the error
    # bound cannot reach NUMERIC_TOL, and the inversion says so
    with pytest.raises(QuadratureError) as exc:
        _pdf_numeric(0.999, -0.999, 10.0)
    assert exc.value.achieved > stable.NUMERIC_TOL


# Nolan's density integral near alpha = 1, where its peak in w is only
# ~|alpha - 1| wide, against 40-digit mpmath values of the same integral
# over theta (mpmath 1.3.0), computed by
#
#   mp.mp.dps = 40
#   th0 = mp.atan(beta * mp.tan(mp.pi * alpha / 2)) / alpha
#   r = 1 / (alpha - 1)
#   g = lambda t: (x ** (alpha * r) * mp.cos(alpha * th0) ** r
#                  * (mp.cos(t) / mp.sin(alpha * (th0 + t))) ** (alpha * r)
#                  * mp.cos(alpha * th0 + (alpha - 1) * t) / mp.cos(t))
#   pk = the root of log g in (-th0, pi/2), by bisection
#   breaks = [-th0] + [pk + k * |alpha - 1| inside the range,
#                      k = 0, +-1, +-4, +-16, +-64] + [pi/2]
#   f = alpha * |r| / (mp.pi * x) * mp.quad(g * exp(-g), breaks)
#
# with alpha, beta and x as mpf.  Each value must be right to 1e-10 or
# refused; only alpha 0.9999, whose peak needs a step below the finest
# one, may be refused.
NEAR_ONE = [
    ((0.999, 0.0, 1.0), 0.15902987189144563, False),
    ((1.001, 0.0, 1.0), 0.15927987176910896, False),
    ((0.998, 0.0, 1.0), 0.15890465853560116, False),
    ((0.9999, 0.0, 1.0), 0.15914244237933964, True),
    ((0.999, 0.999, 10.0), 8.0810274981527495e-10, False),
    ((0.999, 0.5, 1e7), 4.8504880096797436e-15, False),
]


@pytest.mark.parametrize("args,ref,may_refuse", NEAR_ONE,
                         ids=[str(args) for args, _, _ in NEAR_ONE])
def test_inversion_near_alpha_one_is_right_or_refused(args, ref, may_refuse):
    try:
        value = _pdf_numeric(*args)
    except QuadratureError:
        assert may_refuse
        return
    assert value == pytest.approx(ref, rel=1e-10, abs=0.0)
