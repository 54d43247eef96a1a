import math
import os
import sys

import pytest

from mtchan import cli, montecarlo, systems
from mtchan.montecarlo import MC_CHUNK, ber_monte_carlo
from mtchan.power import System
from mtchan.systems import ml_threshold, scheme_for_gsnr

HEADER = "gsnr_db,system,beta,delta,c,threshold,ber_analytic,ber_mc,mc_stderr,samples"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["dist", "--alpha", "0.7", "--beta", "0.5", "--x", "3"],
    ["geopower", "--alpha", "0.5", "--beta", "1"]])
def test_single_law_commands_are_gone(argv, capsys):
    # a law is evaluated with the library's pdf, cdf and geometric_power
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_quadrature_failure_exits_1(capsys, monkeypatch):
    # a check failure with a message, not a traceback.  validate is imported
    # first: cmd_validate's first import of it would bind the patched _quad
    # for every later test
    from mtchan import stable, validate  # noqa: F401
    # every integral misses its bound: a pass refuses both kinds, the density first
    monkeypatch.setattr(stable, "_quad", lambda *args, **kwargs: ([1.0, 1.0], [1.0, 1.0]))
    code, out, err = run(["validate", "--workers", "1", "--mc-samples",
                          "10000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: PDF inversion did not converge")


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_small_grid(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, _, err = run(["table1", "--betas", "0,1", "--deltas", "1,4",
                        "--gsnr", "2", "--output", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 5  # header + 2 betas x 2 deltas
    assert "spread" in err


@pytest.mark.parametrize("argv", [
    ["table1", "--mc-samples", "5"],
    ["table1", "--seed", "-1"],
    ["table1", "--seed", "-1", "--mc-samples", "10000"],
    ["table1", "--workers", "1"]], ids=" ".join)
def test_table1_takes_no_monte_carlo_flags(argv, capsys):
    # the table is analytic: a cell's Monte Carlo is a one-point sweep
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_schema_and_optional_columns(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _, _ = run(["sweep", "--systems", "A", "--gsnr-db", "0", "10",
                      "--points", "3", "--workers", "1",
                      "--output", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 4
    # MC columns empty when Monte Carlo is off
    assert lines[1].endswith(",,,")


def _outputs_by_workers(args, tmp_path, capsys) -> list[bytes]:
    outputs = []
    for workers in ("1", "2", "3"):
        f = tmp_path / f"w{workers}.csv"
        assert run(args + ["--workers", workers, "--output", str(f)],
                   capsys)[0] == 0
        outputs.append(f.read_bytes())
    return outputs


def test_sweep_deterministic_across_workers(tmp_path, capsys):
    args = ["sweep", "--systems", "A,C", "--betas", "0.5", "--gsnr-db", "0",
            "10", "--points", "3", "--mc-samples", "10000", "--seed", "7"]
    first, *others = _outputs_by_workers(args, tmp_path, capsys)
    assert others == [first, first]


def test_sweep_mc_point_is_ber_monte_carlo_with_point_seed(capsys):
    # every point of a sweep is counted on the draw of point_seed, whatever
    # its index, so it can be recomputed alone
    code, out, _ = run(["sweep", "--systems", "A,C", "--betas", "-1,0.5",
                        "--gsnr-db", "0", "10", "--points", "2",
                        "--mc-samples", "10000", "--seed", "5",
                        "--workers", "2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    points = [(system, beta, gsnr) for system, beta in
              ((System.A, 1.0), (System.C, -1.0), (System.C, 0.5))
              for gsnr in (1.0, 10.0)]
    for index, (row, (system, beta, gsnr)) in enumerate(
            zip(rows, points, strict=True)):
        scheme = scheme_for_gsnr(system, 1.0, gsnr, beta)
        mc, stderr = ber_monte_carlo(scheme, 10_000, cli.point_seed(5, index))
        assert (float(row[7]), float(row[8])) == (mc, stderr)


def test_monte_carlo_is_the_curve_on_stream_zero(monkeypatch):
    # the CLI counts its one draw through ber_monte_carlo_curve, whatever
    # the worker count: two chunks here or on the pool.  Its rows are
    # systems.ber_rows' on that draw's seed
    monkeypatch.setattr(montecarlo, "MC_CHUNK", 4096)
    points = [(system, beta, 1.0, gsnr)
              for system, beta in ((System.A, 1.0), (System.C, 0.5))
              for gsnr in (1.0, 10.0)]
    schemes = [scheme_for_gsnr(system, delta, gsnr, beta)
               for system, beta, delta, gsnr in points]
    states = [ml_threshold(s) for s in schemes]
    curve = montecarlo.ber_monte_carlo_curve(
        schemes, states, 10_000, montecarlo.stream_seed(6, 0))
    rows = systems.ber_rows(points, 10_000, cli.point_seed(6, 0))
    for workers in (1, 2):
        records = cli._compute_grid(points, 10_000, 6, workers)
        assert [(r.ber_mc, r.mc_stderr) for r in records] == curve
        assert records == rows


@pytest.mark.parametrize("args", [
    ["sweep", "--betas", "-1,0.5", "--gsnr-db", "0", "10", "--points", "2"],
], ids=["sweep"])
def test_mc_chunk_tasks_are_independent_of_worker_count(args, tmp_path, capsys,
                                                         monkeypatch):
    # 10,000 bits are 5,000 draws, in chunks of 4096 two pool tasks, the
    # last partial; each point still equals ber_monte_carlo with the sweep's
    # seed
    monkeypatch.setattr(montecarlo, "MC_CHUNK", 4096)
    args = args + ["--mc-samples", "10000", "--seed", "4"]
    first, *others = _outputs_by_workers(args, tmp_path, capsys)
    assert others == [first, first]
    for row in first.decode().splitlines()[1:]:
        gsnr_db, system, beta, delta, *_, mc, stderr, _ = row.split(",")
        scheme = scheme_for_gsnr(System(system), float(delta),
                                 10.0 ** (float(gsnr_db) / 10.0), float(beta))
        seed = montecarlo.stream_seed(4, 0)
        assert (float(mc), float(stderr)) == ber_monte_carlo(scheme, 10_000, seed)


def test_sweep_mc_rows_within_four_stderr(capsys):
    # each curve's points share one draw of a little over one chunk of
    # MC_CHUNK draws, two bits each, so a partial last chunk is counted too
    n = 2 * (MC_CHUNK + 12345)
    code, out, _ = run(["sweep", "--betas", "-1,0.5,1", "--gsnr-db", "-10",
                        "20", "--points", "3", "--mc-samples", str(n),
                        "--workers", "2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["A"] * 3 + ["B"] * 3 + ["C"] * 9
    for row in rows:
        analytic, mc, stderr, samples = map(float, row[6:])
        assert samples == n
        assert abs(mc - analytic) <= 4.0 * stderr, row


def test_sweep_plot(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    code, _, _ = run(["sweep", "--systems", "A,B", "--gsnr-db", "-5", "15",
                      "--points", "5", "--workers", "1",
                      "--output", str(tmp_path / "p.csv"),
                      "--plot", str(svg)], capsys)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "BER" in text


def test_sweep_one_gsnr_db_value_is_one_point(capsys):
    code, out, _ = run(["sweep", "--systems", "A,C", "--betas", "0,0.5",
                        "--gsnr-db", "5", "--workers", "1"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [
        ["5.0", "A", "1.0"], ["5.0", "C", "0.0"], ["5.0", "C", "0.5"]]


def test_sweep_invalid_points_exits_2(capsys):
    code, _, err = run(["sweep", "--points", "0", "--workers", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_sweep_gsnr_beyond_float_range_exits_2(capsys):
    code, _, err = run(["sweep", "--gsnr-db", "3090", "--points", "1",
                        "--workers", "1"], capsys)
    assert code == 2
    assert "--gsnr-db 3090" in err


def test_sweep_more_than_two_gsnr_db_values_exits_2(capsys):
    code, out, err = run(["sweep", "--systems", "A", "--gsnr-db", "0", "10",
                          "20", "--points", "3", "--workers", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--gsnr-db takes one or two values, got 3" in err


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--gsnr-db", "nan", "--points", "1"], "--gsnr-db must be finite"),
    (["sweep", "--gsnr-db", "inf", "--points", "1"], "--gsnr-db must be finite"),
    (["sweep", "--gsnr-db", "-inf", "--points", "1"], "--gsnr-db must be finite"),
    (["sweep", "--gsnr-db", "-NaN", "--points", "1"], "--gsnr-db must be finite"),
    (["sweep", "--gsnr-db", "0", "-Infinity", "--points", "2"],
     "--gsnr-db must be finite"),
    (["sweep", "--delta", "-inf", "--points", "1"], "--delta must be finite and > 0"),
    (["sweep", "--betas", "-nan", "--points", "1"], "--betas must be in [-1, 1]"),
    (["table1", "--gsnr", "-INF"], "--gsnr must be finite and > 0"),
    (["sweep", "--gsnr-db=-4000", "--points", "1"],
     "--gsnr-db -4000 is below the floating-point range"),
    # a subnormal G-SNR has lost digits: refused, not printed and used
    (["sweep", "--gsnr-db", "-3200", "--points", "1"],
     "--gsnr-db -3200 is below the floating-point range"),
    (["table1", "--gsnr", "1e-320"],
     "gsnr 1e-320 is below 2.2250738585072014e-308 (-3076.53 dB)"),
    (["sweep", "--gsnr-db", "5", "--points", "3"],
     "--points must be 1 with one --gsnr-db value"),
    (["sweep", "--gsnr-db", "5", "--points", "0"],
     "--points must be 1 with one --gsnr-db value"),
    (["sweep", "--delta", "nan", "--points", "1"], "--delta must be finite and > 0"),
    (["sweep", "--delta", "0", "--points", "1"], "--delta must be finite and > 0"),
    (["sweep", "--betas", "nan", "--points", "1"], "--betas must be in [-1, 1]"),
    (["sweep", "--betas", "0,x", "--points", "1"], "--betas takes comma-separated"),
    (["sweep", "--mc-samples", "5", "--points", "1"],
     "--mc-samples must be 0 or >= 10000"),
    # each noise draw sends one low and one high bit
    (["sweep", "--mc-samples", "10001", "--points", "1"],
     "--mc-samples must be even, one low and one high bit per noise draw, "
     "got 10001"),
    # --betas sets C's skews only: without C it is refused, not ignored
    (["sweep", "--systems", "A,B", "--betas", "0.5", "--points", "1"],
     "--betas needs C in --systems, got 'A,B'"),
    (["sweep", "--systems", ","], "--systems must be a list of A, B, C"),
    (["sweep", "--systems", "A,D"], "--systems must be a list of A, B, C"),
    (["table1", "--gsnr", "nan"], "--gsnr must be finite and > 0"),
    (["table1", "--deltas", "5,inf"], "--deltas must be finite and > 0"),
    (["table1", "--betas", ","], "--betas needs at least one value"),
    # a negative seed is refused by name, with or without Monte Carlo, and
    # before any pool starts
    (["sweep", "--seed", "-1", "--gsnr-db", "0", "--points", "1"],
     "--seed must be >= 0, got -1"),
    (["sweep", "--seed", "-1", "--mc-samples", "10000", "--gsnr-db", "0",
      "--points", "1"], "--seed must be >= 0, got -1"),
    # finite G-SNRs past the overflow of 2 e^gamma G-SNR in the noise scale
    (["sweep", "--gsnr-db", "3080", "--points", "1"],
     "gsnr 1e+308 (3080.00 dB) exceeds 5.046659295557653e+307 (3077.03 dB)"),
    (["table1", "--gsnr", "1e308"],
     "gsnr 1e+308 (3080.00 dB) exceeds 5.046659295557653e+307 (3077.03 dB)"),
    # a delta whose noise scale underflows to 0 or a subnormal, whose lost
    # digits would move d = delta/c, or overflows to inf
    (["sweep", "--delta", "1e-300", "--gsnr-db", "3000", "--points", "1"],
     "delta 1e-300 at G-SNR 1e+300 puts the noise scale at 0.0"),
    (["sweep", "--systems", "A", "--delta", "1e-320", "--gsnr-db", "0",
      "--points", "1"], "delta 1e-320 at G-SNR 1.0 puts the noise scale at 1.487e-321"),
    (["sweep", "--delta", "1e-300", "--gsnr-db", "200", "--points", "1"],
     "delta 1e-300 at G-SNR 1e+20 puts the noise scale at 1.487416652302e-311"),
    (["sweep", "--systems", "C", "--delta", "1e300", "--gsnr-db", "-3000",
      "--points", "1"], "delta 1e+300 at G-SNR 1e-300 puts the noise scale at inf"),
    # a file flag's missing directory, before the sweep prints its CSV or
    # counts its Monte Carlo
    (["sweep", "--points", "3", "--plot", "/no/such/dir/x.svg"],
     "--plot must be a file in an existing directory, got '/no/such/dir/x.svg'"),
    (["sweep", "--points", "3", "--output", "/no/such/dir/x.csv"],
     "--output must be a file in an existing directory, got '/no/such/dir/x.csv'"),
    (["sweep", "--points", "3", "--mc-samples", "10000", "--output",
      "/no/such/dir/x.csv", "--plot", "fig.svg"],
     "--output must be a file in an existing directory, got '/no/such/dir/x.csv'"),
    (["table1", "--output", "/no/such/dir/t.csv"],
     "--output must be a file in an existing directory, got '/no/such/dir/t.csv'"),
    # an empty path names no file; an empty --plot draws no plot
    (["sweep", "--points", "3", "--output", "", "--plot", ""],
     "--output must be a file in an existing directory, got ''"),
    (["table1", "--output", ""],
     "--output must be a file in an existing directory, got ''"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_grid_input_names_its_flag(argv, message, capsys):
    # checked before any point is computed: exit 2, nothing on stdout
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", [["table1", "--deltas", "1"],
                                     ["sweep", "--points", "1"]])
def test_an_unwritable_output_exits_1_when_written(command, tmp_path, capsys):
    # its directory exists, so the grid is computed; the write then fails
    code, out, err = run(command + ["--output", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert "error: " in err and str(tmp_path) in err


def test_table1_at_the_largest_delta(capsys):
    # C's range 2 delta would overflow at 1e308; its noise scale does not,
    # and the table's own spread check shows the BER delta-invariant there
    code, out, err = run(["table1", "--deltas", "1,1e308", "--betas", "0,0.5,1"],
                         capsys)
    assert code == 0, err
    assert err.count("spread=0.000e+00") == 3
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[3] for row in rows] == ["1.0", "1e+308"] * 3
    assert all(math.isfinite(float(row[5])) for row in rows)


def test_table1_fails_a_delta_dependent_or_unreferenced_ber(monkeypatch, capsys):
    # each of the table's two gates exits 1 and tags its row: a BER that
    # moves with delta fails the spread, one off the paper's value the
    # reference
    ber_analytic = systems.ber_analytic
    monkeypatch.setattr(systems, "ber_analytic", lambda scheme, state: ber_analytic(
        scheme, state) * (1.0 + 1e-3 * scheme.delta))
    code, _, err = run(["table1", "--betas", "0", "--deltas", "1,2", "--gsnr", "2"],
                       capsys)
    assert code == 1
    assert "SPREAD-FAIL" in err and "REF-FAIL" not in err
    monkeypatch.setattr(systems, "ber_analytic", ber_analytic)
    monkeypatch.setattr(cli, "TABLE1_REFERENCE", {0.0: 0.15})
    code, _, err = run(["table1", "--betas", "0", "--deltas", "1,2"], capsys)
    assert code == 1
    assert "REF-FAIL" in err and "SPREAD-FAIL" not in err


def test_sweep_system_c_at_the_largest_delta(capsys):
    code, out, err = run(["sweep", "--systems", "C", "--betas=-0.95,0.5",
                          "--delta", "1e308", "--gsnr-db", "60", "--points", "1",
                          "--workers", "1"], capsys)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["-0.95", "0.5"]
    assert all(math.isfinite(float(row[5])) for row in rows)
    assert float(rows[1][4]) == 4.759733287366009e+304


def test_sweep_system_c_at_tiny_delta(capsys):
    # d = delta/c ~ 8e-17: the density gap is rounding noise at both ends
    code, out, _ = run(["sweep", "--systems", "C", "--betas", "0.95",
                        "--gsnr-db", "-332", "--points", "1", "--workers",
                        "1"], capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert abs(float(row[6]) - 0.5) <= 1e-15


@pytest.mark.parametrize("flags,message", [
    (["--workers", "-3"], "--workers must be >= 1, got -3"),
    (["--workers", "0"], "--workers must be >= 1, got 0"),
], ids=["flag-negative", "flag-zero"])
def test_bad_worker_count_exits_2(flags, message, capsys):
    code, out, err = run(["sweep", "--systems", "A", "--gsnr-db", "0",
                          "--points", "1"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_default_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    # a run pinned to one CPU (taskset, a cpuset) starts no pool
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert cli._resolve_workers(cli.build_parser().parse_args(["sweep"])) == 1
    args = cli.build_parser().parse_args(["sweep", "--workers", "3"])
    assert cli._resolve_workers(args) == 3


def test_workers_environment_variable_is_ignored(capsys, monkeypatch):
    # the worker count comes from --workers alone; a stray variable is not
    # read, so neither its text nor its count reaches the run
    argv = ["sweep", "--systems", "A", "--gsnr-db", "0", "--points", "1"]
    monkeypatch.delenv("MTCHAN_WORKERS", raising=False)
    expected = run(argv, capsys)
    monkeypatch.setenv("MTCHAN_WORKERS", "abc")
    assert run(argv, capsys) == expected
    assert expected[0] == 0 and expected[2] == ""


@pytest.mark.parametrize("command", [
    ["sweep", "--points", "1"], ["table1"], ["validate"]],
    ids=["sweep", "table1", "validate"])
def test_config_file_is_not_an_input(command, tmp_path, capsys):
    # settings come from flags alone
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("workers=1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--gsnr-list", "1,4"], ["sweep", "--format", "json"],
    ["table1", "--format", "json"]], ids=["sweep-list", "sweep-json", "table1-json"])
def test_one_grid_syntax_and_one_format(argv, capsys):
    # a grid is --gsnr-db and --points, and rows are CSV
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("ends", [(-10.0, 20.0), (30.0, 90.0), (-3076.0, 3077.0),
                                  (20.0, -10.0), (7.5, 7.5), (-0.1, 0.3)])
def test_sweep_grid_is_numpy_linspace(ends):
    # the grid is built without numpy, by its arithmetic: bit for bit equal
    import numpy as np
    parser = cli.build_parser()
    for n in range(2, 400):
        args = parser.parse_args(["sweep", "--gsnr-db", *map(repr, ends),
                                  "--points", str(n)])
        dbs = np.linspace(*ends, n)
        assert cli._linspace(*ends, n) == dbs.tolist(), n
        assert cli._sweep_grid(args) == [10.0 ** (v / 10.0) for v in dbs.tolist()], n


def test_lowest_normal_gsnr_runs(capsys):
    # -3076 dB is a normal float: the row keeps the G-SNR asked for
    code, out, err = run(["sweep", "--gsnr-db", "-3076", "--points", "1",
                          "--workers", "1"], capsys)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {row[0] for row in rows} == {"-3076.0"}
    assert all(float(row[6]) == 0.5 for row in rows)


def test_analytic_grid_skips_the_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("ProcessPoolExecutor constructed")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    points = [(System.C, b, 1.0, g) for b in (0.5, 0.9) for g in (1.0, 2.0)]
    assert [r.gsnr_db for r in cli._compute_grid(points, 0, 0, 4)] == (
        [0.0, 10.0 * math.log10(2.0)] * 2)
    # a pool task is one chunk of the draw: a draw of one chunk runs here,
    # and one of two or more chunks goes to the pool
    assert len(cli._compute_grid(points, 10_000, 0, 4)) == 4
    monkeypatch.setattr(montecarlo, "MC_CHUNK", 4096)
    with pytest.raises(AssertionError, match="ProcessPoolExecutor"):
        cli._compute_grid(points, 10_000, 0, 4)


@pytest.mark.parametrize("command", [
    ["sweep", "--systems", "C", "--gsnr-db", "0", "--points", "1", "--workers", "1"],
    ["table1", "--deltas", "1"]], ids=["sweep", "table1"])
@pytest.mark.parametrize("form", ["flag"])
def test_betas_list_starting_negative(command, form, capsys):
    # argparse reads only a plain negative number after a flag as its value
    code, out, _ = run(command + ["--betas", "-0.5,0.5"], capsys)
    assert code == 0
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["-0.5", "0.5"]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_and_is_deterministic(capsys):
    args = ["validate", "--mc-samples", "100000", "--seed", "0"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
    assert "FAIL" not in out1


def test_validate_exits_1_when_a_check_fails(capsys, monkeypatch):
    # a Levy density off by 1e-6 fails its closed-form check, and only that
    from mtchan import validate
    levy = validate._levy_std_pdf
    monkeypatch.setattr(validate, "_levy_std_pdf", lambda x: levy(x) + 1e-6)
    code, out, _ = run(["validate", "--workers", "1", "--mc-samples", "100000",
                        "--seed", "0"], capsys)
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("[FAIL]")] == [
        "[FAIL] pdf numeric vs Levy closed form"]


@pytest.mark.parametrize("flags", [["--output", "{out}"], ["--format", "json"],
                                   ["--tol", "1e-8"]],
                         ids=["output", "format", "tol"])
def test_validate_has_no_output_flags(flags, tmp_path, capsys):
    # validate prints its report; it takes no file or format to ignore
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--mc-samples", "10000"]
                 + [f.format(out=out) for f in flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_tiny_mc(capsys):
    code, _, err = run(["validate", "--mc-samples", "100"], capsys)
    assert code == 2
    assert "--mc-samples must be >= 10000, got 100" in err


def test_validate_rejects_an_odd_mc(capsys):
    # each noise draw sends one low and one high bit
    code, out, err = run(["validate", "--mc-samples", "100001"], capsys)
    assert code == 2
    assert out == ""
    assert ("--mc-samples must be even, one low and one high bit per noise "
            "draw, got 100001") in err


@pytest.mark.parametrize("flags,message", [
    (["--workers", "-3"], "--workers must be >= 1, got -3"),
    (["--workers", "0"], "--workers must be >= 1, got 0"),
], ids=["flag-negative", "flag-zero"])
def test_validate_bad_worker_count_exits_2(flags, message, capsys):
    code, out, err = run(["validate"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_validate_negative_seed_exits_2(seed, capsys):
    # refused by name before any check runs; -1 used to run on derived seeds
    code, out, err = run(["validate", "--workers", "1", "--seed", seed], capsys)
    assert code == 2
    assert out == ""
    assert f"--seed must be >= 0, got {seed}" in err


def test_validate_accepts_a_worker_count(capsys):
    # the count is checked first and passes; --mc-samples then fails
    code, out, err = run(["validate", "--workers", "2", "--mc-samples",
                          "100"], capsys)
    assert code == 2
    assert "--mc-samples" in err and "--workers" not in err


def _python(code, *argv, path=None):
    # stdout of `python -c code argv...`, run on this checkout's sources
    # (after the directory path, if given)
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(p) for p in (path, src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=True, capture_output=True, text=True).stdout


_LOADED_SCIPY = ("loaded = lambda: sorted(m for m in sys.modules\n"
                 "                        if m == 'scipy' or m.startswith('scipy.'))\n")


def test_import_cli_skips_validate_dependencies():
    # sweeps, table1, and pdf, cdf and geometric_power at any alpha run on
    # the standard library: neither the import nor a run loads numpy or any
    # part of scipy.  A Monte Carlo column then loads numpy, and still no scipy
    runs = [["sweep", "--points", "4", "--workers", "1"],
            ["table1"],
            ["sweep", "--points", "2", "--mc-samples", "10000", "--workers", "1"]]
    calls = ["pdf(StableParams(0.0, 1.0, 0.5, 0.3), 0.7)",
             "cdf(StableParams(0.0, 1.0, 0.5, 0.3), -2.0)",
             "pdf(StableParams(0.0, 1.0, 0.5, 1.0), 0.7)",
             "pdf(StableParams(0.0, 1.0, 1.0, 0.0), 0.7)",
             "cdf(StableParams(0.0, 1.0, 2.0, 0.0), 0.7)",
             "pdf(StableParams(0.0, 1.0, 1.5, 0.3), 1.0)",
             "cdf(StableParams(0.0, 1.0, 0.7, -0.5), 3.0)",
             "geometric_power(StableParams(0.0, 1.0, 0.5, 0.3))",
             "geometric_power(StableParams(0.0, 1.0, 2.0, 0.0))"]
    code = (
        "import contextlib, io, sys, mtchan.cli\n" + _LOADED_SCIPY +
        "numpy = lambda: 'numpy' in sys.modules\n"
        "from mtchan import StableParams, cdf, geometric_power, pdf\n"
        "print(loaded(), numpy())\n"
        + "".join(f"{call}\nprint(loaded(), numpy())\n" for call in calls) +
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert mtchan.cli.main(argv) == 0, argv\n"
        "    print(loaded(), numpy())\n")
    assert _python(code).splitlines() == (
        ["[] False"] * (len(calls) + len(runs)) + ["[] True"])


def test_analytic_sweep_loads_no_pool_machinery():
    # concurrent.futures, and the logging it imports, load only where a pool
    # runs; the records are named tuples, so dataclasses and the inspect it
    # imports never load: neither the import nor an analytic sweep loads them
    code = ("import contextlib, io, sys, mtchan.cli\n"
            "pool = lambda: [m for m in ('concurrent.futures', 'logging',"
            " 'dataclasses', 'inspect') if m in sys.modules]\n"
            "print(pool())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert mtchan.cli.main(['sweep', '--points', '3']) == 0\n"
            "print(pool())\n")
    assert _python(code).splitlines() == ["[]", "[]"]


def test_validate_loads_no_scipy(tmp_path):
    # the KS p-value, the CDF tables, the Levy CDF and the numerical
    # inversion are in-house.  A scipy that refuses to load, first on the
    # path, fails whichever process of a run imports it: the parent or a
    # pool worker
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy loaded")\n')
    code = (
        "import contextlib, io, sys\n" + _LOADED_SCIPY +
        "import mtchan.validate\n"
        "print(loaded())\n"
        "import mtchan.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    mtchan.cli.main(sys.argv[1:])\n"
        "print(out.getvalue().endswith('checks passed\\n'), loaded())\n")
    argv = ["validate", "--mc-samples", "10000", "--workers"]
    for workers in ("1", "2"):
        assert _python(code, *argv, workers, path=tmp_path).splitlines() == \
            ["[]", "True []"]


def test_main_runs_blas_on_one_thread_unless_told_otherwise(capsys, monkeypatch):
    # mtchan makes no BLAS call, so numpy's OpenBLAS gets one thread; a
    # user's own value wins
    argv = ["sweep", "--systems", "A", "--gsnr-db", "0", "--points", "1"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert run(argv, capsys)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert run(argv, capsys)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the threads in /proc/self/task")
def test_monte_carlo_sweep_runs_on_one_thread(monkeypatch):
    # with the variable unset, importing numpy starts an OpenBLAS helper
    # thread per further CPU, each spinning for CPU time no command uses
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = ("import contextlib, io, os, sys, mtchan.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert mtchan.cli.main(['sweep', '--points', '2', '--mc-samples',"
            " '10000', '--workers', '1']) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')))\n")
    assert _python(code) == "1\n"


def test_sweep_monte_carlo_at_400_db_counts_no_errors(capsys):
    # d = delta/c ~ 7e20: s + N rounds to s, so deciding on the rounded
    # observation read ber_mc 0.5 and 0.4991 where the BER is 1.5e-11
    code, out, _ = run(["sweep", "--systems", "A,C", "--betas", "1", "--gsnr-db",
                        "400", "--points", "1", "--mc-samples", "10000"], capsys)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 2
    assert [row[HEADER.split(",").index("ber_mc")] for row in rows] == ["0.0"] * 2


def test_validate_output_independent_of_worker_count(capsys):
    args = ["validate", "--seed", "3", "--mc-samples", "100000"]
    outs = [run(args + ["--workers", w], capsys)[1] for w in ("1", "2", "3", "4")]
    outs.append(run(args, capsys)[1])  # the default count
    assert outs[0].endswith("26/26 checks passed\n")
    assert outs[1:] == [outs[0]] * 4
