import functools
import math
import tracemalloc

import numpy as np
import pytest

from mtchan import cli, montecarlo, power, stable, systems, validate


def _alpha_half(results):
    return [r for r in results if "alpha=1/2 closed form" in r.name]


def test_closed_form_oracle_covers_alpha_half():
    results = _alpha_half(validate.check_levy_closed_vs_numeric(tol=1e-8))
    assert len(results) == 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_closed_form_oracle_flags_a_wrong_density(monkeypatch):
    monkeypatch.setattr(validate, "std_pdf",
                        lambda s, x: 1.001 * stable.std_pdf(s, x))
    for r in _alpha_half(validate.check_levy_closed_vs_numeric(tol=1e-8)):
        assert r.passed == r.name.startswith("cdf"), r.name


# ---------------------------------------------------------------------------
# the in-house KS test and CDF table against scipy, a test-time oracle only
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ks_statistic_matches_scipy(n):
    from scipy import stats
    levy = montecarlo.sample(stable.StableParams(0.0, 1.0, 0.5, 1.0), n, n)
    uniform = np.random.default_rng(n).uniform(size=n)
    for samples, cdf in [(levy, np.vectorize(stable._levy_std_cdf)),
                         (uniform, lambda x: x ** 1.01)]:
        d, _ = validate._ks_test(samples, cdf)
        assert d == pytest.approx(stats.kstest(samples, cdf).statistic,
                                  rel=0.0, abs=1e-15)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ks_pvalue_matches_the_exact_law(n):
    # uniform samples against F(x) = x^(1 + eps): D grows with eps, so the
    # p-values sweep from near 1 down past the 1e-3 gate.  Stephens' term
    # keeps p within 0.7% of the exact law here; Kolmogorov's law alone is
    # 1.5% off at n = 1e4
    from scipy import stats
    uniform = np.random.default_rng(n + 1).uniform(size=n)
    refs = []
    for k in range(14):
        d, p = validate._ks_test(uniform, lambda x: x ** (1.0 + 0.5 * k / n ** 0.5))
        ref = stats.kstwo.sf(d, n)
        if 1e-4 <= ref <= 1.0:
            assert p == pytest.approx(ref, rel=0.01), (k, d)
            refs.append(ref)
    assert min(refs) < 1e-3 and max(refs) > 0.5


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.75, 1.0])
def test_cdf_table_vs_std_cdf(beta):
    # 20k points with |x| out to ~6e5: the table and its power-law tails
    s = stable.StandardStable(0.5, beta)
    xs = np.sinh(np.random.default_rng(5).uniform(-14.0, 14.0, 20_000))
    ref = np.array([stable.std_cdf(s, float(x)) for x in xs])
    err = np.abs(validate.make_std_cdf_vectorized(beta)(xs) - ref)
    assert err.max() <= 1e-4


#: the module-level check_* names bench/traced.py wraps, in report order
CHECKS = ("check_levy_closed_vs_numeric", "check_sampling_ks",
          "check_geometric_power_mc", "check_ber_analytic_vs_mc")


#: what suite_cases records by default: the two groups that draw nothing,
#: and each KS law and BER curve of the two that do
CASES = ("check_levy_closed_vs_numeric", "_ks_law", "check_geometric_power_mc",
         "_ber_curve")


def _recorded(name, *args):
    return [validate.CheckResult(name, True, args)]


@pytest.fixture
def suite_cases(monkeypatch):
    """suite_cases(mc_samples, seed, names=CASES): the (name, args) of each
    call that run_all(mc_samples=..., seed=...) makes of the validate
    functions in names, in report order.  The calls are recorded, not run,
    each as one result line, so that by default run_all draws and
    integrates nothing."""
    def cases(mc_samples, seed, names=CASES):
        for name in names:
            monkeypatch.setattr(validate, name, functools.partial(_recorded, name))
        return [(r.name, r.detail)
                for r in validate.run_all(mc_samples=mc_samples, seed=seed)]

    return cases


def test_run_all_calls_each_check_once_by_name_in_report_order(suite_cases):
    # bench/traced.py wraps every module-level check_* and calls run_all by
    # keyword: each group is one call of its check_*, read when run_all is
    # called, on the KS and BER groups' seeds
    assert sorted(CHECKS) == [n for n in dir(validate) if n.startswith("check_")]
    for n, ks_n in [(20_000, 10_000), (10 ** 6, 10 ** 5)]:
        assert suite_cases(n, 5, CHECKS) == [
            ("check_levy_closed_vs_numeric", ()),
            ("check_sampling_ks", (ks_n, montecarlo.stream_seed(5, 1))),
            ("check_geometric_power_mc", ()),
            ("check_ber_analytic_vs_mc", (n, montecarlo.stream_seed(5, 3)))]


def test_pooled_suite_reports_what_run_all_does():
    # each group seeds its own draws, so any worker may run it
    assert validate.run_all(20_000, 5, functools.partial(
        cli._run_tasks, workers=2)) == validate.run_all(20_000, 5)


def _case_seeds(cases):
    return [args[-1] for name, args in cases if name in ("_ks_law", "_ber_curve")]


def test_suite_draws_each_case_on_its_own_seed(suite_cases):
    # two cases on one seed draw the same normals, and their gates would
    # pass or fail together.  The three points of a BER curve share one draw
    # by design, so a curve is one case
    for seed in (0, 7):
        cases = suite_cases(10_000, seed)
        seeds = _case_seeds(cases)
        assert len(seeds) == 7
        assert len(set(seeds)) == len(seeds)
        assert [args[-1] for name, args in cases if name == "_ber_curve"] == [
            montecarlo.stream_seed(montecarlo.stream_seed(seed, 3), i)
            for i in range(len(validate.BER_CASES))]


def test_nearby_suite_seeds_share_no_case_seed(suite_cases):
    # a case's seed mixes the suite seed, its group and its law, so suites
    # whose seeds differ by 1, 100 or 200 draw independently
    for seed in (0, 7, 11):
        seeds = [_case_seeds(suite_cases(10_000, seed + k))
                 for k in (0, 1, 100, 200)]
        assert len(set().union(*seeds)) == sum(map(len, seeds)), seed


def test_ks_case_tests_the_sampled_noise(monkeypatch):
    # KS case i tests n draws of sample at alpha = 1/2 and the law's beta,
    # mu = 0 and c = 1, on the law's own seed: the Levy difference the Monte
    # Carlo counts its errors on
    drawn = []

    def sampled(params, n, seed):
        drawn.append((params, n, seed))
        return montecarlo.sample(params, n, seed)

    monkeypatch.setattr(validate, "sample", sampled)
    results = validate.check_sampling_ks(10_000, seed=3)
    assert drawn == [(stable.StableParams(0.0, 1.0, 0.5, beta), 10_000,
                      montecarlo.stream_seed(3, i))
                     for i, beta in enumerate(validate.KS_LAWS)]
    assert [r.name for r in results] == [
        f"sampled noise vs std_cdf (beta={beta})" for beta in validate.KS_LAWS]
    assert all(r.passed for r in results), [r.detail for r in results]


def test_ber_curve_point_is_ber_monte_carlo_on_that_point_alone(monkeypatch):
    # a curve's one draw gives each point what ber_monte_carlo gives that
    # point alone on the curve's seed
    curves = []
    curve_of = montecarlo.ber_monte_carlo_curve

    def counted(schemes, states, n_bits, seed, run=None):
        curve = curve_of(schemes, states, n_bits, seed, run)
        curves.append((schemes, states, seed, curve))
        return curve

    monkeypatch.setattr(montecarlo, "ber_monte_carlo_curve", counted)
    n = 20_000
    results = iter(validate.check_ber_analytic_vs_mc(n, seed=4))
    monkeypatch.undo()  # ber_monte_carlo below counts unrecorded
    assert [c[2] for c in curves] == [montecarlo.stream_seed(4, i)
                                      for i in range(len(validate.BER_CASES))]
    for (system, beta), (schemes, states, seed, curve) in zip(
            validate.BER_CASES, curves):
        for gsnr, scheme, state, point in zip(validate.BER_GSNRS, schemes,
                                              states, curve):
            assert scheme == systems.scheme_for_gsnr(system, 1.0, gsnr, beta)
            assert point == montecarlo.ber_monte_carlo(scheme, n, seed, state)
            assert f" mc={point[0]:.6f} " in next(results).detail


def test_ber_check_fails_a_ber_two_percent_off(monkeypatch):
    # power at the default bit count: a 2% error in the analytic BER fails
    # all nine gates with z >= 5.98 on these draws.  At 1% the weakest z
    # depends on the draw and can sit on the gate (z = 3.00 on some seeding)
    ber_analytic = systems.ber_analytic
    monkeypatch.setattr(systems, "ber_analytic",
                        lambda scheme, state: 1.02 * ber_analytic(scheme, state))
    results = validate.check_ber_analytic_vs_mc(10 ** 6, seed=0)
    assert len(results) == 9
    assert not any(r.passed for r in results), [r.detail for r in results]


# ---------------------------------------------------------------------------
# the statistical gates: false-alarm rate and power
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,beta,variance", [
    (0.5, 0.0, 7.402), (0.5, 1.0, 4.935), (0.5, 0.5, 6.542), (2.0, 0.0, 1.234)])
def test_log_abs_variance_matches_the_sample_variance(alpha, beta, variance):
    v = validate._log_abs_variance(alpha, beta)
    assert v == pytest.approx(variance, abs=1e-3)
    xs = montecarlo.sample(stable.StableParams(0.0, 1.0, alpha, beta), 4_000_000, 3)
    assert np.var(np.log(np.abs(xs))) == pytest.approx(v, rel=0.01)


def _normal_cdf(zs):
    return np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in zs])


def _pooled_ber_passes(mc, stderr, analytic) -> tuple[bool, float, float]:
    # the pooled test's two gates on z = (mc - analytic)/stderr, one row per
    # draw: |t| <= 3.5 on the per-draw mean z (a draw's three points are
    # correlated, its draws are not), and a KS test of every z against
    # N(0, 1) at KS_SIGNIFICANCE
    z = (mc - analytic) / stderr
    means = z.mean(axis=1)
    t = means.mean() / (means.std(ddof=1) / math.sqrt(len(means)))
    _, p = validate._ks_test(z.ravel(), _normal_cdf)
    return abs(t) <= 3.5 and p >= validate.KS_SIGNIFICANCE, t, p


def test_ber_checks_are_calibrated_over_300_suite_seeds(suite_cases):
    # validate's nine BER points at 10^4 bits over suite seeds 0-299, each
    # curve on the seed run_all gives it: 900 draws, 2,700 signed z.
    # Pooled, they resolve a bias of 3e-3 in the analytic BER, where one run
    # at 10^6 bits needs ~2%.  The seeds are fixed, so the test is
    # deterministic: t = +1.13 and KS p = 0.32 here.  Scaled by 1.003 and
    # 0.997 the analytic BER reads t = -4.48 and +6.74, at KS p = 1.5e-9
    # and 1e-17
    n = 10_000
    curves = []
    for system, beta in validate.BER_CASES:
        schemes = [systems.scheme_for_gsnr(system, 1.0, g, beta)
                   for g in validate.BER_GSNRS]
        states = [systems.ml_threshold(scheme) for scheme in schemes]
        curves.append((schemes, states, [systems.ber_analytic(*point)
                                         for point in zip(schemes, states)]))
    mc, stderr, analytic = [], [], []
    for seed in range(300):
        cases = [args for name, args in suite_cases(n, seed) if name == "_ber_curve"]
        for args, case, (schemes, states, ber) in zip(cases, validate.BER_CASES,
                                                      curves, strict=True):
            assert args[:3] == (*case, n)
            points = montecarlo.ber_monte_carlo_curve(schemes, states, n, args[-1])
            mc.append([p for p, _ in points])
            stderr.append([e for _, e in points])
            analytic.append(ber)
    mc, stderr, analytic = map(np.array, (mc, stderr, analytic))
    passed, t, p = _pooled_ber_passes(mc, stderr, analytic)
    assert passed, (t, p)
    # power: systems.ber_analytic 0.3% off fails on the same draws
    for scale in (1.003, 0.997):
        passed, t, p = _pooled_ber_passes(mc, stderr, scale * analytic)
        assert not passed, (scale, t, p)


def test_ks_checks_are_calibrated_over_300_suite_seeds(suite_cases):
    # validate's four KS cases at 10^4 draws over suite seeds 0-299, each on
    # the seed run_all gives it: 1,200 p values, Uniform(0, 1) on correct
    # code.  Pooled, they resolve CDF tables at a skew 0.005 off, where the
    # single-case gates catch 4 of the 1,200 cases.  The seeds are fixed, so
    # the test is deterministic: KS p = 0.215 here, and 1.8e-9 at the shift
    n = 10_000
    tables = {beta: [validate.make_std_cdf_vectorized(b)
                     for b in (beta, beta - 0.005)]
              for beta in validate.KS_LAWS}
    p_values = []
    for seed in range(300):
        cases = [args for name, args in suite_cases(n, seed) if name == "_ks_law"]
        for args, beta in zip(cases, validate.KS_LAWS, strict=True):
            assert args[:2] == (beta, n)
            draws = montecarlo.sample(stable.StableParams(0.0, 1.0, 0.5, beta),
                                      n, args[-1])
            p_values.append([validate._ks_test(draws, table)[1]
                             for table in tables[beta]])
    correct, shifted = np.array(p_values).T
    # Uniform(0, 1)'s CDF is the identity, copied: _ks_test writes into it
    _, p = validate._ks_test(correct, np.copy)
    assert p >= validate.KS_SIGNIFICANCE, p
    # power: tables built at beta - 0.005 fail on the same draws
    _, p = validate._ks_test(shifted, np.copy)
    assert p < validate.KS_SIGNIFICANCE, p


# ---------------------------------------------------------------------------
# geometric power by quadrature: accuracy, power and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0,
                                   1.001, 1.01, 1.038, 1.1, 1.5, 1.9, 1.99, 2.0])
def test_log_abs_moments_match_the_closed_forms(alpha):
    # E log|X| against Zolotarev's geometric power and Var log|X| against
    # _log_abs_variance, both to the check's gate, at one-sided and near-
    # one-sided skews too (alpha = 1 takes beta = 0 alone).  At 1.038,
    # alpha*(pi/alpha) rounds above pi, so at beta = +-1 the angle alpha*e
    # reaches past pi at a piece's end, where its sine must come from the
    # other end's angle, kappa + alpha*f, to stay positive.  The worst cases
    # sit at alpha 0.999 and 1.001 with beta != 0, ~1e-13 in the variance:
    # there Var log|X| is small (0.003-0.05) and A's logs, each of size 1-40,
    # cancel to its spread, so the quadrature's relative error grows as
    # ~1e-16/|1 - alpha|; the closed form's own cancellation reads up to
    # 2.5e-13 at (0.999, 0.999) against 40-digit arithmetic
    betas = [0.0] if alpha == 1.0 else [-1.0, -0.999, -0.5, -0.1, 0.0, 0.25,
                                        0.5, 0.9, 0.999, 1.0]
    for beta in betas:
        mean, var = validate._log_abs_moments(alpha, beta)
        log_s0 = math.log(power.geometric_power(
            stable.StableParams(0.0, 1.0, alpha, beta)))
        assert abs(mean - log_s0) <= validate.GEOMETRIC_POWER_TOL, beta
        assert abs(var / validate._log_abs_variance(alpha, beta) - 1.0) <= \
            validate.GEOMETRIC_POWER_TOL, beta


@pytest.mark.parametrize("closed_form", ["geometric_power", "_log_abs_variance"])
def test_geometric_power_check_fails_a_closed_form_1e9_off(monkeypatch, closed_form):
    # a geometric power or a Var log|X| off by 1e-9 relative, 1000 times the
    # gate, fails all four lines, which pass as they stand
    assert all(r.passed for r in validate.check_geometric_power_mc())
    exact = getattr(validate, closed_form)
    monkeypatch.setattr(validate, closed_form,
                        lambda *args: (1.0 + 1e-9) * exact(*args))
    results = validate.check_geometric_power_mc()
    assert len(results) == 4
    assert not any(r.passed for r in results), [r.detail for r in results]


def test_geometric_power_lines_are_the_same_at_any_seed_and_sample_count(
        suite_cases):
    # run_all calls the group with no argument, and it draws nothing
    check = validate.check_geometric_power_mc
    for n, seed in [(10_000, 0), (20_000, 1), (10 ** 6, 99)]:
        assert ("check_geometric_power_mc", ()) in suite_cases(n, seed)
    reports = [check(), check()]
    assert reports[0] == reports[1]
    assert [r.name for r in reports[0]] == [
        f"geometric power vs quadrature (alpha={alpha}, beta={beta})"
        for alpha, beta in validate.GEOMETRIC_POWER_LAWS]


def _peak_mib(call) -> float:
    # numpy reports its buffers to tracemalloc
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("alpha,beta", validate.GEOMETRIC_POWER_LAWS)
def test_sampling_memory_is_bounded_by_the_block(alpha, beta):
    # at 10^6 draws sample holds its 7.6 MiB output and one block's draws and
    # temporaries
    params = stable.StableParams(0.0, 1.0, alpha, beta)
    assert _peak_mib(lambda: montecarlo.sample(params, 10 ** 6, 0)) <= 12.0


@pytest.mark.parametrize("beta", validate.KS_LAWS)
def test_ks_memory_is_the_sample_and_two_arrays(beta):
    # at 10^6 draws a KS case holds the sample, sorted in place, and at most
    # two more arrays of its size (3 x 7.6 MiB): the CDF table's arcsinh and
    # output, then F - i/n and i/n.  Drawing a transmission whole and forming
    # the statistic out of place peaked at 53-54 MiB
    assert _peak_mib(lambda: validate._ks_law(beta, 10 ** 6, 0)) <= 25.0


@pytest.mark.parametrize("seed", [0, 1])
def test_ks_check_fails_a_cdf_at_a_perturbed_beta(monkeypatch, seed):
    # power at the default sample count: each law's noise against the CDF
    # table of a skew 0.02 away fails the 1e-3 gate
    make = validate.make_std_cdf_vectorized
    monkeypatch.setattr(validate, "make_std_cdf_vectorized",
                        lambda beta: make(beta - 0.02 if beta == 1.0 else beta + 0.02))
    results = validate.check_sampling_ks(100_000, seed)
    assert len(results) == 4
    assert not any(r.passed for r in results), [r.detail for r in results]
