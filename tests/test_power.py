import math
import sys

import numpy as np
import pytest

import mtchan
from mtchan.power import (GSNR_MAX, System, g_snr,
                          geometric_power, geometric_power_alpha_half,
                          physics_to_channel, scale_for_gsnr,
                          system_c_component_scales, system_gsnr)
from mtchan.stable import G_GAMMA, StableParams, cdf


# ---------------------------------------------------------------------------
# geometric power
# ---------------------------------------------------------------------------

def test_geometric_power_examples():
    assert geometric_power(StableParams(0.0, 1.0, 0.5, 0.0)) == pytest.approx(
        G_GAMMA, abs=1e-12)
    assert geometric_power(StableParams(0.0, 1.0, 0.5, 1.0)) == pytest.approx(
        2.0 * G_GAMMA, abs=1e-12)
    # Gaussian: c / sqrt(G_gamma)
    assert geometric_power(StableParams(0.0, 1.0, 2.0, 0.0)) == pytest.approx(
        1.0 / math.sqrt(G_GAMMA), abs=1e-12)
    assert geometric_power(StableParams(0.0, 1.0, 2.0, 0.0)) == pytest.approx(
        0.749306001288449, abs=1e-12)


def test_geometric_power_general_vs_alpha_half_simplification():
    for c in (0.1, 1.0, 7.5):
        for beta in (-1.0, -0.3, 0.0, 0.5, 1.0):
            general = geometric_power(StableParams(0.0, c, 0.5, beta))
            assert general == pytest.approx(
                geometric_power_alpha_half(c, beta), abs=1e-12 * max(general, 1.0))


def test_geometric_power_linearity_in_c():
    for c in (0.25, 2.0, 40.0):
        assert geometric_power(StableParams(0.0, c, 0.5, 0.7)) == pytest.approx(
            c * geometric_power(StableParams(0.0, 1.0, 0.5, 0.7)), rel=1e-14)


def test_geometric_power_increases_with_skew_magnitude():
    vals = [geometric_power(StableParams(0.0, 1.0, 0.5, b))
            for b in (0.0, 0.3, 0.6, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert geometric_power(StableParams(0.0, 1.0, 0.5, -0.6)) == vals[2]


def test_geometric_power_requires_zero_location():
    with pytest.raises(ValueError):
        geometric_power(StableParams(1.0, 1.0, 0.5, 0.0))


# ---------------------------------------------------------------------------
# G-SNR
# ---------------------------------------------------------------------------

def test_g_snr_example():
    assert g_snr(1.0, 0.0, 1.0) == pytest.approx(1.0 / (2.0 * G_GAMMA), abs=1e-12)
    assert g_snr(1.0, 0.0, 1.0) == pytest.approx(0.2807297417834426, abs=1e-12)


def test_g_snr_validation():
    with pytest.raises(ValueError):
        g_snr(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        g_snr(1.0, 0.0, 0.0)


def test_system_gsnr_matches_direct_formulas():
    # dual route: via geometric power vs algebraic closed forms
    for delta in (0.5, 1.0, 10.0):
        for c in (0.2, 1.0, 5.0):
            ga = system_gsnr(System.A, delta, c)
            expect_a = (delta / (2.0 * c * G_GAMMA)) ** 2 / (2.0 * G_GAMMA)
            assert ga == pytest.approx(expect_a, rel=1e-12)

            gb = system_gsnr(System.B, delta, c)
            expect_b = (delta / (c * G_GAMMA)) ** 2 / (2.0 * G_GAMMA)
            assert gb == pytest.approx(expect_b, rel=1e-12)

            for beta in (0.0, 0.5, 1.0):
                gc = system_gsnr(System.C, delta, c, beta)
                s0 = c * G_GAMMA * (1.0 + beta * beta)
                expect_c = (2.0 * delta / s0) ** 2 / (2.0 * G_GAMMA)
                assert gc == pytest.approx(expect_c, rel=1e-12)


def test_system_gsnr_b_example():
    assert system_gsnr(System.B, 1.0, 1.0) == pytest.approx(
        0.088496331901797, abs=1e-12)


def test_package_names_resolve_without_gsnr_wrappers():
    # __init__ lists its names twice, in the imports and in __all__
    assert all(hasattr(mtchan, name) for name in mtchan.__all__)
    assert not {"GsnrQuery", "GsnrValue", "ChannelSpec", "llr", "cond_pdf",
                "detect"} & set(mtchan.__all__)


def test_system_gsnr_validation():
    with pytest.raises(ValueError):
        system_gsnr(System.A, 0.0, 1.0)
    with pytest.raises(ValueError):
        system_gsnr(System.A, 1.0, 0.0)
    with pytest.raises(ValueError):
        system_gsnr(System.C, 1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# scale_for_gsnr inversion
# ---------------------------------------------------------------------------

def test_scale_for_gsnr_example():
    assert scale_for_gsnr(System.A, 1.0, 1.0) == pytest.approx(0.1487417, abs=5e-7)


def test_scale_for_gsnr_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        system = [System.A, System.B, System.C][rng.integers(3)]
        delta = float(rng.uniform(0.05, 30.0))
        gsnr = float(10.0 ** rng.uniform(-2.0, 3.0))
        beta = float(rng.uniform(-1.0, 1.0)) if system is System.C else 0.0
        c = scale_for_gsnr(system, delta, gsnr, beta)
        achieved = system_gsnr(system, delta, c, beta)
        assert achieved == pytest.approx(gsnr, rel=1e-12)
    # both directions take S0 by the alpha = 1/2 form, so the round trip
    # loses rounding only, over the whole G-SNR and delta range; at the
    # extreme deltas neither C's range 2 delta nor S0 may overflow
    for system in System:
        for beta in (0.5, -0.95, 1.0):
            for gsnr in (1e-3, 1.0, 10.0, 1e6, 1e300):
                for delta in (1e-300, 1e-3, 1.0, 1e3, 1e308):
                    if (gsnr, delta) in ((1e-3, 1e308), (1e300, 1e-300)):
                        with pytest.raises(ValueError, match="outside the normal"):
                            scale_for_gsnr(system, delta, gsnr, beta)
                        continue
                    c = scale_for_gsnr(system, delta, gsnr, beta)
                    achieved = system_gsnr(system, delta, c, beta)
                    assert abs(achieved - gsnr) <= 1e-15 * gsnr, (
                        system, beta, gsnr, delta)
    # c = 1.65e308 for A, where S0 = c e^gamma (1 + beta^2) would overflow
    c = scale_for_gsnr(System.A, 1e308, 0.01)
    assert abs(system_gsnr(System.A, 1e308, c) - 0.01) <= 1e-15 * 0.01


def test_scale_for_gsnr_bitwise_per_system_formulas():
    # the shared range / (G_gamma (1 + beta_noise^2) root) form must equal
    # the per-system closed forms exactly, not only to rounding
    for gsnr in (1e-4, 0.37, 1.0, 10.0, 3.3e5, 1e12):
        root = math.sqrt(2.0 * G_GAMMA * gsnr)
        for delta in (1e-3, 0.5, 1.0, 7.3, 300.0):
            assert scale_for_gsnr(System.A, delta, gsnr, 0.4) == (
                delta / (2.0 * G_GAMMA * root))
            assert scale_for_gsnr(System.B, delta, gsnr, 0.4) == (
                delta / (G_GAMMA * root))
            for beta in (-1.0, -0.95, -0.3, 0.0, 0.25, 0.999, 1.0):
                assert scale_for_gsnr(System.C, delta, gsnr, beta) == (
                    2.0 * delta / (G_GAMMA * (1.0 + beta * beta) * root))


def test_scale_for_gsnr_validation():
    with pytest.raises(ValueError):
        scale_for_gsnr(System.A, 1.0, 0.0)
    with pytest.raises(ValueError):
        scale_for_gsnr(System.A, 0.0, 1.0)


def test_scale_for_gsnr_refuses_past_the_overflow():
    # up to GSNR_MAX the scale is the plain closed form; one float above it,
    # 2 e^gamma G-SNR overflows and the G-SNR is refused, naming the limit
    assert scale_for_gsnr(System.A, 1.0, GSNR_MAX) == (
        1.0 / (2.0 * G_GAMMA * math.sqrt(2.0 * G_GAMMA * GSNR_MAX)))
    for gsnr in (math.nextafter(GSNR_MAX, math.inf), 1e308):
        with pytest.raises(ValueError, match=r"exceeds 5\.04665.*\(3077\.03 dB\)"):
            scale_for_gsnr(System.C, 1.0, gsnr, 0.5)


def test_scale_for_gsnr_refuses_a_subnormal_gsnr():
    # the smallest normal G-SNR is the plain closed form; below it the G-SNR
    # has lost digits and is refused, naming the value
    tiny = sys.float_info.min
    assert scale_for_gsnr(System.A, 1.0, tiny) == (
        1.0 / (2.0 * G_GAMMA * math.sqrt(2.0 * G_GAMMA * tiny)))
    for gsnr in (math.nextafter(tiny, 0.0), 1e-320, 5e-324):
        with pytest.raises(ValueError, match=rf"gsnr {gsnr!r} is below .*"
                                             r"\(-3076\.53 dB\)"):
            scale_for_gsnr(System.C, 1.0, gsnr, 0.5)


def test_system_b_quarter_gsnr_at_equal_physics():
    # same physical channel gives c_B = 4 c_A, so the B upper bound sits a
    # factor 4 below the A G-SNR at equal separation
    q_a = system_gsnr(System.A, 1.0, 1.0)
    q_b = system_gsnr(System.B, 1.0, 4.0)
    assert q_b == pytest.approx(q_a / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# physics mapping
# ---------------------------------------------------------------------------

def test_physics_system_a():
    p = physics_to_channel(System.A, 4.0, 2.0)
    assert p == StableParams(0.0, 4.0, 0.5, 1.0)


def test_physics_system_a_is_the_first_passage_law():
    # reflection principle: a particle released at distance d, diffusing
    # with coefficient D, first reaches the receiver by time t with
    # probability erfc(d / sqrt(4 D t))
    for d in (0.5, 1.0, 7.0):
        for D in (0.1, 1.0, 30.0):
            p = physics_to_channel(System.A, d, D)
            for k in (0.003, 0.01, 0.1, 1.0, 10.0, 1e4):
                t = k * d * d / D
                assert cdf(p, t) == pytest.approx(
                    math.erfc(d / math.sqrt(4.0 * D * t)), rel=1e-13)


def test_physics_system_c_is_the_difference_of_two_first_passages():
    # C's noise is T_b - T_a, each delay the first-passage law of scale
    # d^2 / (2 D): Levy scales add in square root, and the skew is the
    # positive delay's share, so beta > 0 where D_a > D_b
    for d in (0.5, 2.0):
        for d_a, d_b in [(1.0, 1.0), (4.0, 1.0), (1.0, 9.0), (0.3, 250.0)]:
            root_a, root_b = (math.sqrt(d * d / (2.0 * D)) for D in (d_a, d_b))
            p = physics_to_channel(System.C, d, d_a, d_b)
            assert math.sqrt(p.c) == pytest.approx(root_a + root_b, rel=1e-14)
            assert p.beta == pytest.approx(
                (root_b - root_a) / (root_b + root_a), abs=1e-14)
            assert (p.beta > 0.0) == (d_a > d_b)
            # the positively signed delay of system_c_component_scales is T_b
            assert system_c_component_scales(p.c, p.beta) == pytest.approx(
                (root_b ** 2, root_a ** 2), rel=1e-13)


def test_physics_system_b_is_four_times_a():
    a = physics_to_channel(System.A, 3.0, 1.5)
    b = physics_to_channel(System.B, 3.0, 1.5)
    assert b.c == pytest.approx(4.0 * a.c, rel=1e-14)
    assert b.beta == 0.0


def test_physics_system_c_equal_diffusion_matches_b():
    b = physics_to_channel(System.B, 2.0, 1.0)
    c = physics_to_channel(System.C, 2.0, 1.0, 1.0)
    assert c.beta == 0.0
    assert c.c == pytest.approx(b.c, rel=1e-14)


def test_physics_system_c_extreme_ratio_approaches_one_sided():
    # one particle nearly instantaneous: skew tends to +/-1
    p = physics_to_channel(System.C, 1.0, 1e8, 1.0)
    assert p.beta == pytest.approx(1.0, abs=3e-4)
    q = physics_to_channel(System.C, 1.0, 1.0, 1e8)
    assert q.beta == pytest.approx(-1.0, abs=3e-4)


def test_physics_to_channel_validation():
    with pytest.raises(ValueError):
        physics_to_channel(System.A, -1.0, 1.0)
    with pytest.raises(ValueError):
        physics_to_channel(System.A, 1.0)  # missing D
    with pytest.raises(ValueError):
        physics_to_channel(System.A, 1.0, 1.0, 1.0)  # two coefficients
    with pytest.raises(ValueError):
        physics_to_channel(System.C, 1.0, 1.0)  # one coefficient
    with pytest.raises(ValueError):
        physics_to_channel(System.C, 1.0, 1.0, -2.0)
    # d^2 underflows: the scale would be 0, a point mass, not a law
    with pytest.raises(ValueError, match="c must be"):
        physics_to_channel(System.A, 1e-200, 1.0)


@pytest.mark.parametrize("system, d, D", [
    (System.A, 1e200, (1.0,)), (System.B, 1e160, (1.0,)),
    (System.C, 1e300, (1e-300, 1.0)), (System.B, 1e-300, (1e300,)),
    (System.C, 1e-300, (1e300, 1e300))],
    ids=["A-inf", "B-inf", "C-inf", "B-zero", "C-zero"])
def test_physics_to_channel_refuses_a_scale_out_of_range(system, d, D):
    # c overflows, or every delay's root scale underflows to 0: refused as a
    # law, not an OverflowError or a 0/0 skew
    with pytest.raises(ValueError, match="c must be a finite normal float"):
        physics_to_channel(system, d, *D)
