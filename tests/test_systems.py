import math
import pickle
import tracemalloc

import numpy as np
import pytest

from mtchan import montecarlo, systems
from mtchan.montecarlo import (MC_CHUNK, ber_monte_carlo, ber_monte_carlo_curve,
                               sample)
from mtchan.power import System, input_symbols, system_c_component_scales
from mtchan.stable import StableParams, StandardStable, std_pdf
from mtchan.systems import (BerRecord, BinaryScheme, DetectorState,
                            _bracket, _brent, _density_gap, _law,
                            ber_analytic, ml_threshold, scheme_for_gsnr)
from mtchan.validate import CheckResult, _ks_test


def make(system: str, delta: float = 1.0, c: float = 1.0,
         beta: float | None = None) -> BinaryScheme:
    noise_beta = {"A": 1.0, "B": 0.0}.get(system, beta if beta is not None else 0.5)
    return BinaryScheme(System(system), delta,
                        StableParams(0.0, c, 0.5, noise_beta))


# ---------------------------------------------------------------------------
# scheme construction
# ---------------------------------------------------------------------------

def test_symbols():
    assert make("A").symbols == (0.0, 1.0)
    assert make("B").symbols == (0.0, 1.0)
    assert make("C", delta=2.0).symbols == (-2.0, 2.0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        make("A", delta=0.0)
    with pytest.raises(ValueError):
        BinaryScheme(System.A, 1.0, StableParams(0.0, 1.0, 0.5, 0.0))  # beta
    with pytest.raises(ValueError):
        BinaryScheme(System.B, 1.0, StableParams(0.0, 1.0, 0.5, 1.0))  # beta
    with pytest.raises(ValueError):
        BinaryScheme(System.A, 1.0, StableParams(0.0, 1.0, 2.0, 0.0))  # alpha
    with pytest.raises(ValueError):
        BinaryScheme(System.A, 1.0, StableParams(1.0, 1.0, 0.5, 1.0))  # mu
    with pytest.raises(ValueError):
        BinaryScheme(System.A, 1.0, StableParams(0.0, 0.0, 0.5, 1.0))  # c
    with pytest.raises(ValueError, match="delta must be"):
        make("A")._replace(delta=0.0)


@pytest.mark.parametrize("record,field", [
    (StandardStable(0.5, 0.0), "beta"),
    (StableParams(), "c"),
    (make("A"), "delta"),
    (DetectorState(0.5, 0.0, 1.0), "threshold"),
    (BerRecord(0.0, System.A, 1.0, 1.0, 1.0, 0.5, 0.1), "ber_analytic"),
    (CheckResult("check", True, ""), "passed"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_record_fields_are_read_only(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is value


def test_records_are_named_tuples():
    # equal to the tuple of their fields; _replace copies with one changed
    law = StableParams()
    assert repr(law) == "StableParams(mu=0.0, c=1.0, alpha=0.5, beta=0.0)"
    assert law == (0.0, 1.0, 0.5, 0.0) and law[1] == law.c == 1.0
    assert law._replace(beta=0.25) == StableParams(0.0, 1.0, 0.5, 0.25)
    assert make("B")._replace(delta=2.0).symbols == (0.0, 2.0)


def _cached(law):
    law.standard  # pickled with the instance's cached standard law
    return law


@pytest.mark.parametrize("record", [
    StableParams(0.0, 2.0, 0.5, 0.3), _cached(StableParams(1.0, 3.0, 0.7, -1.0)),
    make("C", c=3.0, beta=-0.5), DetectorState(0.25, -1.0, 1.0),
], ids=["law", "law-cached", "scheme", "state"])
def test_pool_records_survive_pickling(record):
    # a pool task carries schemes, their noise laws and detector states
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
    if isinstance(record, StableParams):
        assert copy.standard == record.standard


@pytest.mark.parametrize("fields,message", [
    ((StableParams, (0.0, -1.0, 0.5, 0.0)), "c must be"),
    ((BinaryScheme, (System.A, 0.0, StableParams(0.0, 1.0, 0.5, 1.0))),
     "delta must be"),
    ((BinaryScheme, (System.A, 1.0, StableParams(0.0, 1.0, 0.5, 0.0))),
     "requires beta"),
])
def test_unpickling_checks_the_fields(fields, message):
    # tuple.__new__ builds the record around its checks; loading its
    # pickle runs them
    data = pickle.dumps(tuple.__new__(*fields))
    with pytest.raises(ValueError, match=message):
        pickle.loads(data)


def test_scheme_for_gsnr_forces_noise_beta():
    assert scheme_for_gsnr(System.A, 1.0, 1.0).noise.beta == 1.0
    assert scheme_for_gsnr(System.B, 1.0, 1.0).noise.beta == 0.0
    assert scheme_for_gsnr(System.C, 1.0, 1.0, 0.7).noise.beta == 0.7


# ---------------------------------------------------------------------------
# conditional densities
# ---------------------------------------------------------------------------

def observed_pdf(scheme: BinaryScheme, symbol: float, y: float) -> float:
    # the density of the observation y given the sent symbol, in y's units
    c = scheme.noise.c
    return _law(scheme, symbol / c, y / c, "pdf") / c


def test_cond_pdf_system_a():
    s = make("A", c=2.0)
    # observation below the transmitted symbol is impossible
    assert observed_pdf(s, 0.0, -0.1) == 0.0
    assert observed_pdf(s, 1.0, 0.9) == 0.0
    assert observed_pdf(s, 0.0, 0.5) == pytest.approx(
        std_pdf(StandardStable(0.5, 1.0), 0.25) / 2.0, abs=1e-14)


def test_cond_pdf_system_b_boundary_and_fold():
    s = make("B", c=1.0)
    assert observed_pdf(s, 0.0, -1.0) == 0.0
    # at y = 0 the folded density is its limit from above, f(-s) + f(-s)
    assert observed_pdf(s, 0.0, 0.0) == pytest.approx(4.0 / math.pi, abs=1e-10)
    assert observed_pdf(s, s.delta, 0.0) == pytest.approx(
        observed_pdf(s, s.delta, 1e-12), rel=1e-12)
    sym = StandardStable(0.5, 0.0)
    # folded density: contributions from +y and -y
    assert observed_pdf(s, 1.0, 0.4) == pytest.approx(
        std_pdf(sym, -0.6) + std_pdf(sym, -1.4), abs=1e-10)


def test_cond_pdf_system_c():
    s = make("C", beta=0.0)
    assert observed_pdf(s, 1.0, 1.0) == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert observed_pdf(s, -1.0, -1.0) == pytest.approx(2.0 / math.pi, abs=1e-10)


# ---------------------------------------------------------------------------
# LLR
# ---------------------------------------------------------------------------

def test_llr_zero_at_threshold():
    # the two conditional densities meet at the threshold: their gap is a
    # hair of the low symbol's density there
    for s in (make("A"), make("B"), make("C", beta=0.5),
              make("C", beta=0.95, delta=3.0, c=0.2)):
        c = s.noise.c
        d = s.delta / c
        u = ml_threshold(s).threshold / c
        low = input_symbols(s.system, d)[0]
        assert abs(_density_gap(s, u, d)) <= 1e-8 * _law(s, low, u, "pdf")


# ---------------------------------------------------------------------------
# ML threshold
# ---------------------------------------------------------------------------

def test_threshold_bracket_system_a():
    # threshold lies in (delta, delta + c/3]
    for delta, c in [(1.0, 1.0), (0.5, 3.0), (10.0, 0.1)]:
        s = make("A", delta=delta, c=c)
        th = ml_threshold(s).threshold
        assert delta < th <= delta + c / 3.0 + 1e-9


@pytest.mark.parametrize("db", (390.0, 3000.0))
@pytest.mark.parametrize("system,beta", [("A", 1.0), ("C", 1.0), ("C", -1.0)])
def test_one_sided_threshold_stays_past_the_support_edge(system, beta, db):
    # the ML threshold of one-sided noise is the edge's symbol plus ~0.01c,
    # which at these G-SNRs is far below ulp(delta): u*c rounded to
    # 0.9999999999999999 < delta at 390 dB
    s = scheme_for_gsnr(System(system), 1.0, 10.0 ** (db / 10.0), beta)
    low, high = s.symbols
    assert ml_threshold(s).threshold == (high if beta == 1.0 else low)


def test_threshold_bracket_system_b():
    for delta, c in [(1.0, 1.0), (2.0, 0.3), (0.2, 5.0)]:
        th = ml_threshold(make("B", delta=delta, c=c)).threshold
        assert th > delta / 2.0


def test_threshold_system_c_symmetric():
    assert ml_threshold(make("C", beta=0.0)).threshold == 0.0


def test_threshold_system_c_skew_antisymmetry():
    for beta in (0.3, 0.75, 1.0):
        pos = ml_threshold(make("C", beta=beta)).threshold
        neg = ml_threshold(make("C", beta=-beta)).threshold
        assert neg == pytest.approx(-pos, abs=1e-9)
        assert ber_analytic(make("C", beta=beta)) == pytest.approx(
            ber_analytic(make("C", beta=-beta)), abs=1e-12)


def test_threshold_grid_scan_oracle():
    # brute-force scan of the decision rule never beats the solver root
    schemes = [make("A"), make("B"), make("C", beta=0.5), make("C", beta=-0.5),
               make("C", beta=1.0), make("C", beta=-1.0)]
    schemes += [make(name, delta=delta, beta=0.5)
                for name in ("A", "B", "C") for delta in (1e-3, 1e3)]
    for s in schemes:
        state = ml_threshold(s)
        best = ber_analytic(s, state)
        span = s.delta + 3.0 * s.noise.c
        for t in np.linspace(state.threshold - span, state.threshold + span, 401):
            alt = DetectorState(float(t), *s.symbols)
            assert ber_analytic(s, alt) >= best - 1e-12


def _tail_limit(system: str, beta: float) -> float:
    # K in BER * sqrt(d) -> K as d = delta/c grows, from the balance of the
    # noise's x^(-3/2) tails at the threshold; K_A is the Levy tail coefficient
    k_a = 1.0 / math.sqrt(2.0 * math.pi)
    if system == "A":
        return k_a
    if system == "B":
        # u/d -> r, the root of 2 r^(-3/2) = (1-r)^(-3/2) + (1+r)^(-3/2)
        r = 0.5942509204666528
        return k_a * (r ** -0.5 + ((1.0 - r) ** -0.5 - (1.0 + r) ** -0.5) / 2.0)
    k = ((1.0 + beta) / (1.0 - beta)) ** (2.0 / 3.0)
    kappa = (k - 1.0) / (k + 1.0)
    return k_a / 2.0 * ((1.0 + beta) * (1.0 + kappa) ** -0.5
                        + (1.0 - beta) * (1.0 - kappa) ** -0.5)


@pytest.mark.parametrize("system,beta", [
    ("A", 1.0), ("B", 0.0), ("C", 0.0), ("C", 0.5), ("C", -0.95)])
@pytest.mark.parametrize("db", (600.0, 1000.0, 2000.0, 3000.0))
def test_ber_high_gsnr_tail_limit(system, beta, db):
    # up to the top of the CLI's G-SNR range the BER is a tail mass far below
    # 1e-16, and it must keep its relative digits: BER * sqrt(d) = K to
    # within the O(d^(-1/2)) correction, below 1e-15 here
    s = scheme_for_gsnr(System(system), 1.0, 10.0 ** (db / 10.0), beta)
    d = s.delta / s.noise.c
    ratio = ber_analytic(s) * math.sqrt(d) / _tail_limit(system, beta)
    assert ratio == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# analytic BER
# ---------------------------------------------------------------------------

def test_ber_reference_values():
    # frozen outputs of this implementation at gsnr = 1, delta = 1
    cases = {
        ("A", 1.0): 0.1494673739501416,
        ("B", 0.0): 0.2637546774065645,
        ("C", 0.5): 0.20563803137370737,
    }
    for (name, beta), expected in cases.items():
        scheme = scheme_for_gsnr(System(name), 1.0, 1.0, beta)
        assert ber_analytic(scheme) == pytest.approx(expected, abs=1e-9)


def test_ber_delta_invariance_at_fixed_gsnr():
    for name, beta in [("A", 1.0), ("B", 0.0), ("C", 0.2), ("C", 0.9)]:
        vals = [ber_analytic(scheme_for_gsnr(System(name), d, 2.0, beta))
                for d in (0.5, 5.0, 10.0, 20.0)]
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread < 1e-9


def test_ber_decreasing_in_gsnr():
    for name, beta in [("A", 1.0), ("B", 0.0), ("C", 0.5)]:
        vals = [ber_analytic(scheme_for_gsnr(System(name), 1.0, g, beta))
                for g in (0.25, 1.0, 4.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ber_decreasing_in_skew_for_c():
    vals = [ber_analytic(scheme_for_gsnr(System.C, 1.0, 1.0, b))
            for b in (0.0, 0.25, 0.5, 0.75, 0.95)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ber_small_delta_limit():
    # at these separations the B gap is below rounding and the one-sided
    # gaps are barely resolved; the solver must still return
    for name, beta in [("A", 1.0), ("B", 0.0), ("C", 0.5), ("C", 1.0)]:
        for delta in (1e-9, 2e-9, 2e-8):
            scheme = BinaryScheme(System(name), delta,
                                  StableParams(0.0, 1.0, 0.5, beta))
            assert ber_analytic(scheme) == pytest.approx(0.5, abs=1e-6)


def test_ber_local_minimality():
    for s in (make("A"), make("B"), make("C", beta=0.5)):
        state = ml_threshold(s)
        best = ber_analytic(s, state)
        for f in (0.9, 1.1):
            alt = DetectorState(state.threshold * f, *s.symbols)
            assert ber_analytic(s, alt) >= best - 1e-12


# ---------------------------------------------------------------------------
# the channel law and the Monte Carlo
# ---------------------------------------------------------------------------

LAW_CASES = [("A", 1.0), ("B", 0.0), ("C", -1.0), ("C", 0.5), ("C", 1.0)]


@pytest.mark.parametrize("system,beta", LAW_CASES)
def test_law_matches_the_channel(system, beta):
    # the analytic law of U = y/c given a standardized symbol s (B's fold
    # included) is the law of s + N, |s + N| for B, on the sampled noise N
    scheme = scheme_for_gsnr(System(system), 1.0, 10.0, beta)
    noise = sample(StableParams(0.0, 1.0, 0.5, scheme.noise.beta), 20_000, 5)
    symbols = input_symbols(scheme.system, scheme.delta / scheme.noise.c)
    for s, half in zip(symbols, (noise[:10_000], noise[10_000:])):
        u = s + half
        if scheme.system is System.B:
            np.abs(u, out=u)
        cdf = lambda v: np.array([systems._law(scheme, s, x, "cdf") for x in v])
        _, p = _ks_test(u, cdf)
        assert p >= 1e-3, (s, p)


@pytest.mark.parametrize("system,beta", LAW_CASES)
def test_law_masses_and_density_agree(system, beta):
    scheme = scheme_for_gsnr(System(system), 1.0, 10.0, beta)
    d = scheme.delta / scheme.noise.c
    law = lambda s, u, kind: systems._law(scheme, s, u, kind)
    h = 1e-5
    for s in input_symbols(scheme.system, d):
        for u in (s + x for x in (-5.0, -1.0, -0.3, 0.3, 1.0, 5.0, 40.0)):
            assert law(s, u, "cdf") + law(s, u, "sf") == pytest.approx(
                1.0, abs=1e-15), (s, u)
            slope = (law(s, u + h, "cdf") - law(s, u - h, "cdf")) / (2.0 * h)
            assert law(s, u, "pdf") == pytest.approx(slope, rel=1e-6, abs=0.0), (s, u)


def test_system_c_component_scales():
    for beta in (-1.0, -0.4, 0.0, 0.6, 1.0):
        c_pos, c_neg = system_c_component_scales(2.5, beta)
        total = math.sqrt(c_pos) + math.sqrt(c_neg)
        assert total == pytest.approx(math.sqrt(2.5), rel=1e-14)
        skew = (math.sqrt(c_pos) - math.sqrt(c_neg)) / total
        assert skew == pytest.approx(beta, abs=1e-14)


def test_ber_monte_carlo_matches_analytic():
    # A's draws err on one symbol at most, X in {0, 1}: with p = sum X/n and
    # m = n/2 draws, the plug-in variance (2p - 4p^2)/(4m) is p(1 - 2p)/n
    s = scheme_for_gsnr(System.A, 1.0, 1.0)
    analytic = ber_analytic(s)
    mc, stderr = ber_monte_carlo(s, 200_000, 4)
    assert abs(mc - analytic) <= 4.0 * stderr
    assert stderr == pytest.approx(math.sqrt(mc * (1.0 - 2.0 * mc) / 200_000),
                                   rel=1e-12)


@pytest.mark.parametrize("system,beta,expected", [
    ("A", 1.0, (0.1171, 0.0021174888429458132)),
    ("B", 0.0, (0.2227, 0.0030431022000583547)),
    ("C", 1.0, (0.1171, 0.0021174888429458132)),
])
def test_monte_carlo_stream_unchanged(system, beta, expected):
    # ber_mc stays as pinned on the draws of seed 7; C at beta = 1 draws
    # nothing for its scale-0 delay, and so counts A's errors
    s = scheme_for_gsnr(System(system), 1.0, 3.0, beta)
    assert ber_monte_carlo(s, 20_000, 7) == expected


@pytest.mark.parametrize("system,beta", [("A", 1.0), ("C", 1.0), ("C", 0.5),
                                         ("B", 0.0)])
def test_monte_carlo_decides_on_the_noise_at_high_gsnr(system, beta):
    # at 300 dB d = delta/c > 2^52, so ulp(d) >= 1 and s + N rounds onto
    # the threshold's float wherever N is below it: decided on the rounded
    # observation, A counted 7,855 errors of 10^5 and C(1) 2,318.  The BER
    # is 5e-9 to 1.2e-8, so 0 errors is all but certain
    s = scheme_for_gsnr(System(system), 1.0, 1e30, beta)
    assert ber_analytic(s) < 2e-8
    assert ber_monte_carlo(s, 100_000, 1) == (0.0, 0.0)


CURVES = [("A", 1.0), ("B", 0.0), ("C", 0.5), ("C", -1.0), ("C", 1.0)]


def _curve(system, beta, gsnrs=(0.3, 3.0, 30.0)):
    schemes = [scheme_for_gsnr(System(system), 1.0, g, beta) for g in gsnrs]
    return schemes, [ml_threshold(s) for s in schemes]


@pytest.mark.parametrize("system,beta", CURVES)
def test_curve_points_are_one_point_calls_on_shared_draws(system, beta):
    # up to MC_CHUNK bits, each point's result on the shared draw is, bit for
    # bit, ber_monte_carlo's on that point alone with the same seed
    schemes, states = _curve(system, beta)
    results = ber_monte_carlo_curve(schemes, states, 20_000, 5)
    assert results == [ber_monte_carlo(s, 20_000, 5, st)
                       for s, st in zip(schemes, states)]
    assert len(set(results)) == len(results)


def _ref_scales(s):
    # scales of the delays added and subtracted; 0 for none
    c = s.noise.c
    if s.system is System.A:
        return c, 0.0
    if s.system is System.B:
        return c / 4.0, c / 4.0
    return system_c_component_scales(c, s.noise.beta)


def _ref_errors(schemes, states, n, seed, chunk):
    # the reference: n bits are m = n/2 noise draws in chunks of `chunk`;
    # chunk k has its own generator PCG64(seed).jumped(k) and draws, all at
    # once, Z1 and, if some point has two delays, Z2; a point's nonzero-scale
    # delays take Z1 and then Z2.  Each draw sends both symbols: y = s +
    # delays in physical units (|y| for B) is decided for each, and X, the
    # draw's errors (0, 1 or 2), gives the BER sum X/n and the plug-in
    # standard error of its mean over the draws
    m = n // 2
    xs = [[] for _ in schemes]
    two = any(all(_ref_scales(s)) for s in schemes)
    for k, start in enumerate(range(0, m, chunk)):
        size = min(chunk, m - start)
        rng = np.random.Generator(np.random.PCG64(seed).jumped(k))
        z = [rng.standard_normal(size) for _ in range(1 + two)]
        for i, (s, st) in enumerate(zip(schemes, states)):
            first, second = _ref_scales(s)
            draws = iter(z)
            delays = first / next(draws) ** 2 if first else 0.0
            delays = delays - (second / next(draws) ** 2 if second else 0.0)
            x = np.zeros(size, dtype=np.int64)
            for sent in s.symbols:
                y = sent + delays
                if s.system is System.B:
                    y = np.abs(y)
                decided = np.where(y <= st.threshold, st.low_symbol,
                                   st.high_symbol)
                x += decided != sent
            xs[i].append(x)
    results = []
    for x in map(np.concatenate, xs):
        total, squares = int(x.sum()), int((x * x).sum())
        results.append((total / n, math.sqrt((m * squares - total * total)
                                             / (4 * m ** 3))))
    return results


@pytest.mark.parametrize("system,beta", CURVES)
def test_curve_counts_every_chunk(system, beta, monkeypatch):
    # 10,000 bits are 5,000 draws: chunks of 4096 leave a partial last chunk,
    # and blocks of 1000 a partial last block in every chunk
    monkeypatch.setattr(montecarlo, "MC_CHUNK", 4096)
    monkeypatch.setattr(montecarlo, "_BLOCK", 1000)
    schemes, states = _curve(system, beta)
    results = ber_monte_carlo_curve(schemes, states, 10_000, 9)
    assert results == _ref_errors(schemes, states, 10_000, 9, 4096)
    # Python floats, whose repr the CSV prints
    assert all(type(x) is float for point in results for x in point)


def test_b_stderr_counts_draws_on_which_both_symbols_err():
    # B's two regions overlap: a draw in [-u - d, -u) errs for both symbols,
    # X = 2, so sum X^2 = errors + 2*both.  The standard error is the
    # reference's, above the p(1 - 2p)/n of regions that never overlap
    schemes, states = _curve("B", 0.0)
    results = ber_monte_carlo_curve(schemes, states, 20_000, 9)
    assert results == _ref_errors(schemes, states, 20_000, 9, MC_CHUNK)
    for p, stderr in results:
        assert stderr > 1.1 * math.sqrt(p * (1.0 - 2.0 * p) / 20_000), (p, stderr)


def test_stderr_reads_zero_where_every_draw_errs_once():
    # at -400 dB d = delta/c is ~1e-19, so the two symbols' low-decision
    # regions differ on a set no draw hits: each draw errs for exactly one
    # symbol, X = 1 throughout, and the plug-in standard error of a BER of
    # 1/2 reads 0.0, as on a zero count; neither is a confidence bound
    schemes = [scheme_for_gsnr(System(system), 1.0, 1e-40, beta)
               for system, beta in (("A", 1.0), ("B", 0.0), ("C", 0.5))]
    states = [ml_threshold(s) for s in schemes]
    assert ber_monte_carlo_curve(schemes, states, 10_000, 0) == [(0.5, 0.0)] * 3


@pytest.mark.parametrize("factor", [0.25, -1.0])
def test_b_counts_hold_at_any_threshold(factor):
    # below d/2 B's two regions do not meet, and below 0 both are empty: the
    # counts still match the reference's decisions on |y|
    schemes, _ = _curve("B", 0.0)
    states = [DetectorState(factor * s.delta, *s.symbols) for s in schemes]
    assert (ber_monte_carlo_curve(schemes, states, 10_000, 9)
            == _ref_errors(schemes, states, 10_000, 9, MC_CHUNK))


def test_curve_runs_one_task_per_chunk(monkeypatch):
    # a caller's run maps the chunk tasks to their counts in order, as a
    # pool does: 10,000 bits are 5,000 draws, in chunks of 4096 two tasks,
    # and the result is the serial one bit for bit
    monkeypatch.setattr(montecarlo, "MC_CHUNK", 4096)
    schemes, states = _curve("C", 0.5)
    calls = []

    def run(tasks):
        calls.append(len(tasks))
        return [task() for task in reversed(tasks)][::-1]

    serial = ber_monte_carlo_curve(schemes, states, 10_000, 9)
    assert ber_monte_carlo_curve(schemes, states, 10_000, 9, run) == serial
    assert calls == [2]


MIXED = [("A", 1.0), ("B", 0.0), ("C", 1.0), ("C", -1.0), ("C", 0.5)]


def _group(curves, gsnrs=(0.3, 3.0, 30.0)):
    groups = [_curve(system, beta, gsnrs) for system, beta in curves]
    return ([s for schemes, _ in groups for s in schemes],
            [st for _, states in groups for st in states])


@pytest.mark.parametrize("chunk,block,n", [(MC_CHUNK, montecarlo._BLOCK, 20_000),
                                           (4096, 1000, 10_000)])
def test_mixed_group_points_are_one_point_calls(chunk, block, n, monkeypatch):
    # one draw serves points of every system and skew: each point's count is
    # ber_monte_carlo's on that point alone, whether or not the others draw
    # a second delay, and both match the reference
    monkeypatch.setattr(montecarlo, "MC_CHUNK", chunk)
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    schemes, states = _group(MIXED)
    results = ber_monte_carlo_curve(schemes, states, n, 6)
    assert results == [ber_monte_carlo(s, n, 6, st)
                       for s, st in zip(schemes, states)]
    assert results == _ref_errors(schemes, states, n, 6, chunk)


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("system,beta", [("A", 1.0), ("B", 0.0), ("C", 0.5)])
def test_curve_memory_is_one_point_memory(system, beta):
    # a curve holds one chunk's draw and one block's observations at a time:
    # four points over three chunks (of MC_CHUNK draws, two bits each) peak
    # about where one point over one does
    schemes, states = _curve(system, beta, (0.3, 3.0, 30.0, 300.0))
    one = _peak_bytes(lambda: ber_monte_carlo(schemes[0], 2 * MC_CHUNK, 3,
                                              states[0]))
    curve = _peak_bytes(lambda: ber_monte_carlo_curve(schemes, states,
                                                      4 * MC_CHUNK + 2, 3))
    assert curve <= 1.25 * one, (curve, one)


def test_sweep_group_memory_is_one_point_memory():
    # the seven curves of a default sweep, four points each, over three
    # chunks peak about where one point of A, which draws one delay, does
    curves = [("A", 1.0), ("B", 0.0)] + [("C", b) for b in (0.0, 0.25, 0.5,
                                                           0.75, 0.95)]
    schemes, states = _group(curves, (0.3, 3.0, 30.0, 300.0))
    one = _peak_bytes(lambda: ber_monte_carlo(schemes[0], 2 * MC_CHUNK, 3,
                                              states[0]))
    group = _peak_bytes(lambda: ber_monte_carlo_curve(schemes, states,
                                                      4 * MC_CHUNK + 2, 3))
    assert group <= 1.25 * one, (group, one)


def test_curve_needs_a_state_per_scheme_and_enough_bits():
    a = make("A")
    with pytest.raises(ValueError, match="one detector state per scheme"):
        ber_monte_carlo_curve([a, a], [ml_threshold(a)], 10_000, 0)
    with pytest.raises(ValueError, match=">= 10000"):
        ber_monte_carlo_curve([a], [ml_threshold(a)], 9999, 0)
    # each noise draw sends one low and one high bit
    with pytest.raises(ValueError, match="must be even.*>= 10000, got 10001"):
        ber_monte_carlo_curve([a], [ml_threshold(a)], 10_001, 0)


def test_ber_monte_carlo_minimum_size():
    with pytest.raises(ValueError):
        ber_monte_carlo(make("A"), 9999, 0)


def test_ber_record_validation():
    with pytest.raises(ValueError):
        BerRecord(0.0, System.A, 1.0, 1.0, 1.0, 1.0, ber_analytic=1.5)
    with pytest.raises(ValueError):
        BerRecord(0.0, System.A, 1.0, 1.0, 1.0, 1.0, 0.1, ber_mc=0.1)
    with pytest.raises(ValueError, match="present together"):
        BerRecord(0.0, System.A, 1.0, 1.0, 1.0, 1.0, 0.1)._replace(samples=10)


def test_threshold_high_gsnr_converges_to_tail_balance():
    # in the |x|^(-3/2) tails: C solves ((d+u)/(d-u))^(3/2) = (1+beta)/(1-beta),
    # B solves 2 r^(-3/2) = (1-r)^(-3/2) + (1+r)^(-3/2) with r = u/d
    k = 3.0 ** (2.0 / 3.0)
    c_limit = (k - 1.0) / (k + 1.0)
    b_limit = 0.59425
    ratios = {"B": [], "C": []}
    for db in (60.0, 70.0, 80.0, 90.0):
        gsnr = 10.0 ** (db / 10.0)
        for system, beta in (("B", 0.0), ("C", 0.5)):
            s = scheme_for_gsnr(System(system), 1.0, gsnr, beta)
            ratios[system].append(ml_threshold(s).threshold / s.delta)
    c70, c80 = ratios["C"][1], ratios["C"][2]
    assert c70 == pytest.approx(0.3548, abs=2e-4)
    assert c80 == pytest.approx(0.3530, abs=2e-4)
    assert 0.5942 <= ratios["B"][2] <= 0.5946
    for system, limit in (("B", b_limit), ("C", c_limit)):
        gaps = [r - limit for r in ratios[system]]
        assert all(g > 0.0 for g in gaps), system
        assert all(a > b for a, b in zip(gaps, gaps[1:])), system


BRENTQ_RTOL = 8.881784197001252e-16


@pytest.mark.parametrize("system,beta", [
    ("A", 1.0), ("B", 0.0), ("C", 1.0), ("C", -1.0), ("C", 0.999),
    ("C", -0.999), ("C", 0.95), ("C", -0.95), ("C", 0.5), ("C", -0.5),
    ("C", 0.25)])
def test_threshold_bracket_scan(system, beta):
    # from -60 to 300 dB (past 297 dB, d + 1/3 rounds to d for system A)
    # the density gap flips across the threshold within the solver
    # tolerance, and threshold/delta moves monotonically onto its
    # tail-balance limit;
    # the in-house Brent solve returns the very float scipy's brentq does
    optimize = pytest.importorskip("scipy.optimize")
    if system == "B":
        limit = 0.59425
    elif abs(beta) == 1.0 or system == "A":
        limit = beta
    else:
        k = ((1.0 + beta) / (1.0 - beta)) ** (2.0 / 3.0)
        limit = (k - 1.0) / (k + 1.0)
    side = -1.0 if beta < 0.0 else 1.0
    gaps = []
    for db in range(-60, 301, 10):
        s = scheme_for_gsnr(System(system), 1.0, 10.0 ** (db / 10.0), beta)
        th = ml_threshold(s).threshold
        c = s.noise.c
        d = s.delta / c
        lo, hi = _bracket(s, d)
        if lo != hi and _density_gap(s, lo, d) > 0.0 > _density_gap(s, hi, d):
            assert th == c * optimize.brentq(
                lambda u: _density_gap(s, u, d), lo, hi,
                xtol=1e-12 * max(d, 1.0), rtol=BRENTQ_RTOL), db
        h = 2.0 * c * 1e-12 * max(d, 1.0) + 8.0 * math.ulp(th)
        assert (_density_gap(s, (th - h) / c, d) > 0.0
                > _density_gap(s, (th + h) / c, d)), db
        gaps.append(side * (th / s.delta - limit))
    assert all(g >= 0.0 for g in gaps), gaps
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("f,lo,hi,xtol,error", [
    (lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, ValueError),  # no sign change
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, ValueError),
    (lambda x: (x - 1e-3) ** 3, -1.0, 1.0, 5e-324, RuntimeError),  # 100 steps
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, 1e-12, None),  # f*f underflows
    # the extrapolation's denominator underflows to 0: C divides, we bisect
    (lambda x: 1e-200 * (x ** 3 - 0.1), -1.0, 2.0, 1e-12, None),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 2.0, 1e-14, None),
    (lambda x: math.floor(10.0 * x) - 3.5, 0.0, 1.0, 1e-12, None),
    (lambda x: x - 0.25, 0.25, 1.0, 1e-12, None),  # f(lo) = 0: lo is the root
    (lambda x: x - 1.0, 0.25, 1.0, 1e-12, None),  # f(hi) = 0: hi is the root
])
def test_brent_port_matches_scipy_brentq_edge_cases(f, lo, hi, xtol, error):
    optimize = pytest.importorskip("scipy.optimize")
    # the port takes the end values from its caller; brentq computes them
    if error is None:
        assert _brent(f, lo, hi, f(lo), f(hi), xtol) == \
            optimize.brentq(f, lo, hi, xtol=xtol, rtol=BRENTQ_RTOL)
        return
    with pytest.raises(error) as oracle:
        optimize.brentq(f, lo, hi, xtol=xtol, rtol=BRENTQ_RTOL)
    with pytest.raises(error) as port:
        _brent(f, lo, hi, f(lo), f(hi), xtol)
    assert str(port.value) == str(oracle.value)


def test_threshold_c_tiny_d_takes_the_midpoint():
    # below d ~ 1e-16 C's gap is rounding noise; where its two ends have
    # one sign the threshold is the symbols' midpoint, and the BER is 1/2
    for beta in (0.95, 0.5, -0.5, 0.25):
        for db in range(-340, -319):
            s = scheme_for_gsnr(System.C, 1.0, 10.0 ** (db / 10.0), beta)
            assert abs(ber_analytic(s) - 0.5) <= 1e-15, (beta, db)
    # which points have both ends of one sign is down to rounding, so every
    # such point on a fine grid is checked, and there must be some
    shared = 0
    for beta in (0.95, 0.75, -0.95):
        for db in np.arange(-340.0, -300.0, 0.1):
            s = scheme_for_gsnr(System.C, 1.0, 10.0 ** (db / 10.0), beta)
            d = s.delta / s.noise.c
            g_lo, g_hi = (_density_gap(s, u, d) for u in _bracket(s, d))
            if g_lo * g_hi > 0.0:
                shared += 1
                assert ml_threshold(s).threshold == 0.0, (beta, db)
    assert shared > 0
    # where the gap is exactly 0 at a bracket end, that end (u = +/-1, a
    # threshold of +/-c) is no root either: the midpoint rule holds there too
    for beta in (0.25, -0.25, 0.5, -0.5, 0.75, 0.95, -0.95, 0.999):
        for db in np.linspace(-345.0, -300.0, 91):
            s = scheme_for_gsnr(System.C, 1.0, 10.0 ** (db / 10.0), beta)
            th = ml_threshold(s).threshold
            assert abs(th) != s.noise.c, (beta, db)
            assert abs(ber_analytic(s) - 0.5) <= 1e-13, (beta, db)


def test_ber_never_exceeds_one_half():
    # the high symbol's observation is stochastically larger than the low
    # one's, so no threshold errs on more than half the bits; where the
    # midpoint rule sets B's or C's threshold, the tails' rounding summed
    # above 1
    curves = [(System.A, 1.0), (System.B, 0.0)] + [
        (System.C, beta) for beta in (-0.95, -0.5, 0.25, 0.5, 0.75, 0.95)]
    for db in np.linspace(-3000.0, -100.0, 59):
        for system, beta in curves:
            s = scheme_for_gsnr(system, 1.0, 10.0 ** (db / 10.0), beta)
            state = ml_threshold(s)
            assert ber_analytic(s, state) <= 0.5, (system, beta, db)
            for u in (-2.0, 0.0, 0.5, 2.0):
                off = DetectorState(u * s.noise.c, *s.symbols)
                assert ber_analytic(s, off) <= 0.5, (system, beta, db, u)


@pytest.mark.parametrize("system,beta", [
    ("A", 1.0), ("B", 0.0), ("C", 1.0), ("C", -1.0), ("C", 0.5), ("C", 0.0)])
def test_bracket_evaluates_no_density(system, beta, monkeypatch):
    def no_density(*args):
        raise AssertionError("density evaluated")
    monkeypatch.setattr(systems, "std_pdf", no_density)
    for db in (-340.0, -60.0, 0.0, 300.0):
        s = scheme_for_gsnr(System(system), 1.0, 10.0 ** (db / 10.0), beta)
        lo, hi = _bracket(s, s.delta / s.noise.c)
        assert lo <= hi


@pytest.mark.parametrize("ends", [(math.nan, math.nan), (math.nan, 1.0),
                                  (-1.0, math.nan)])
def test_threshold_nan_gap_raises(ends, monkeypatch):
    # a NaN gap at either end must reach the solver and raise, never fall
    # into the midpoint rule that takes two ends of one sign
    for s in (make("A"), make("B"), make("C", beta=0.5)):
        lo, hi = _bracket(s, s.delta / s.noise.c)
        monkeypatch.setattr(systems, "_density_gap",
                            lambda scheme, u, d: ends[0] if u == lo else ends[1])
        with pytest.raises(ValueError, match="NaN"):
            ml_threshold(s)
