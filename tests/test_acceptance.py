"""Acceptance gate: one test per criterion, pinned tolerances.

The reference BER table (criterion 1) is calibrated at linear G-SNR = 10;
the `table1` command's default --gsnr matches that calibration.
"""

import math
import os

import numpy as np
import pytest

from mtchan import cli, validate
from mtchan.montecarlo import sample, stream_seed
from mtchan.power import System
from mtchan.stable import G_GAMMA, StableParams
from mtchan.systems import (BinaryScheme, DetectorState, ber_analytic,
                            ber_monte_carlo, ml_threshold, scheme_for_gsnr)

WORKERS = os.cpu_count() or 1


def grid_ber(system, betas, deltas, gsnrs):
    points = [(System(system), b, d, g)
              for b in betas for g in gsnrs for d in deltas]
    records = cli._compute_grid(points, 0, 0, WORKERS)
    out = {}
    i = 0
    for b in betas:
        for g in gsnrs:
            for d in deltas:
                out[(b, g, d)] = records[i].ber_analytic
                i += 1
    return out


def test_criterion_1_table1_reproduction():
    reference = {0.0: 0.1458, 0.2: 0.1428, 0.5: 0.1287, 0.8: 0.1069, 1.0: 0.0857}
    deltas = (0.5, 5.0, 10.0, 20.0)
    bers = grid_ber("C", list(reference), deltas, [cli.TABLE1_GSNR])
    for beta, expected in reference.items():
        vals = [bers[(beta, cli.TABLE1_GSNR, d)] for d in deltas]
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread < 1e-6, f"beta={beta}: relative spread {spread:.2e}"
        assert vals[0] == pytest.approx(expected, abs=5e-4), f"beta={beta}"


def test_criterion_2_gsnr_sufficiency():
    betas = (0.0, 0.2, 0.5, 0.8, 1.0)
    gsnrs = (0.25, 1.0, 4.0, 16.0)
    deltas = (0.5, 5.0, 10.0, 20.0)
    bers = grid_ber("C", betas, deltas, gsnrs)
    for beta in betas:
        for gsnr in gsnrs:
            vals = [bers[(beta, gsnr, d)] for d in deltas]
            spread = (max(vals) - min(vals)) / vals[0]
            assert spread < 1e-6, f"beta={beta} gsnr={gsnr}: {spread:.2e}"


def test_criterion_3_sweep_qualitative():
    gsnrs = [10.0 ** (db / 10.0) for db in np.linspace(-10.0, 20.0, 31)]
    curves = [("B", 0.0), ("C", 0.0), ("C", 0.25), ("C", 0.5), ("C", 0.75),
              ("C", 0.95), ("A", 1.0)]
    points = [(System(name), beta, 1.0, g) for name, beta in curves
              for g in gsnrs]
    records = cli._compute_grid(points, 0, 0, WORKERS)
    n = len(gsnrs)
    by_curve = [[r.ber_analytic for r in records[k * n:(k + 1) * n]]
                for k in range(len(curves))]

    for (name, beta), ys in zip(curves, by_curve):
        assert all(a > b for a, b in zip(ys, ys[1:])), \
            f"{name}(beta={beta}) not strictly decreasing"
    # ordering B >= C(0) >= C(0.25) >= C(0.5) >= C(0.75) >= C(0.95) >= A
    for j in range(n):
        col = [ys[j] for ys in by_curve]
        assert all(a >= b for a, b in zip(col, col[1:])), f"grid point {j}"
    gap = max(c95 - a for c95, a in zip(by_curve[5], by_curve[6]))
    assert gap < 0.02, f"max BER_C(0.95) - BER_A = {gap:.4f}"


def test_criterion_4_closed_form_numeric_oracle():
    results = validate.check_levy_closed_vs_numeric(tol=1e-8)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_criterion_5_sampling_ks_oracle():
    results = validate.check_sampling_ks(n=100_000, seed=20)
    assert len(results) == 4
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_criterion_6_geometric_power():
    from mtchan.power import geometric_power, geometric_power_alpha_half
    for c in (0.5, 1.0, 3.0):
        for beta in (0.0, 0.5, 1.0):
            g = geometric_power(StableParams(0.0, c, 0.5, beta))
            assert g == pytest.approx(geometric_power_alpha_half(c, beta),
                                      abs=1e-12 * max(g, 1.0))
    # Gaussian closed form c / sqrt(G_gamma)
    assert geometric_power(StableParams(0.0, 2.0, 2.0, 0.0)) == pytest.approx(
        2.0 / math.sqrt(G_GAMMA), rel=1e-12)
    for r in validate.check_geometric_power_mc():
        assert r.passed, f"{r.name}: {r.detail}"
    # the Monte Carlo leg: mean log|X| over 10^6 draws of each law within
    # Z_GATE standard errors of log S0, on the draws validate's Monte Carlo
    # oracle read at seed 7 before the check became a quadrature
    for i, (alpha, beta) in enumerate(validate.GEOMETRIC_POWER_LAWS):
        params = StableParams(0.0, 1.0, alpha, beta)
        n = 10 ** 6
        log_mean = float(np.mean(np.log(np.abs(
            sample(params, n, stream_seed(7, i))))))
        z = abs(log_mean - math.log(geometric_power(params))) / math.sqrt(
            validate._log_abs_variance(alpha, beta) / n)
        assert z <= validate.Z_GATE, (alpha, beta, z)


def test_criterion_7_detection():
    for r in validate.check_ber_analytic_vs_mc(n_bits=1_000_000, seed=11):
        assert r.passed, f"{r.name}: {r.detail}"
    # threshold brackets: A in (delta, delta + c/3]; B above delta/2
    for gsnr in (0.25, 1.0, 4.0):
        sa = scheme_for_gsnr(System.A, 1.0, gsnr)
        th_a = ml_threshold(sa).threshold
        assert 1.0 < th_a <= 1.0 + sa.noise.c / 3.0 + 1e-9
        sb = scheme_for_gsnr(System.B, 1.0, gsnr)
        assert ml_threshold(sb).threshold > 0.5
    # local minimality under +/-10% threshold perturbation
    for name, beta in [("A", 1.0), ("B", 0.0), ("C", 0.5)]:
        s = scheme_for_gsnr(System(name), 1.0, 1.0, beta)
        state = ml_threshold(s)
        best = ber_analytic(s, state)
        for f in (0.9, 1.1):
            alt = DetectorState(state.threshold * f, *s.symbols)
            assert ber_analytic(s, alt) >= best - 1e-12


def test_criterion_8_degenerate_delta():
    for i, (name, beta) in enumerate([("A", 1.0), ("B", 0.0), ("C", 0.5)]):
        s = BinaryScheme(System(name), 1e-9, StableParams(0.0, 1.0, 0.5, beta))
        state = ml_threshold(s)
        assert ber_analytic(s, state) == pytest.approx(0.5, abs=1e-6), name
        mc, stderr = ber_monte_carlo(s, 1_000_000, 90 + i, state)
        assert abs(mc - 0.5) <= 3.0 * stderr, name
