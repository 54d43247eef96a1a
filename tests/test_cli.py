import json

import pytest

from mtchan import cli, systems
from mtchan.power import System
from mtchan.systems import MC_CHUNK, ber_monte_carlo, scheme_for_gsnr

HEADER = "gsnr_db,system,beta,delta,c,threshold,ber_analytic,ber_mc,mc_stderr,samples"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def test_dist_pdf(capsys):
    code, out, _ = run(["dist", "--alpha", "0.5", "--beta", "1",
                        "--x", "0.3333333333333333", "--what", "pdf"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(0.4625410, abs=5e-7)


def test_dist_cdf_with_scale(capsys):
    code, out, _ = run(["dist", "--alpha", "0.5", "--beta", "1", "--mu", "1",
                        "--c", "2", "--x", "3", "--what", "cdf"], capsys)
    assert code == 0
    assert 0.0 < float(out) < 1.0


def test_dist_invalid_combination_exits_2(capsys):
    code, _, err = run(["dist", "--alpha", "1", "--beta", "0.5", "--x", "0"],
                       capsys)
    assert code == 2
    assert "error" in err


def test_dist_general_alpha_numeric_inversion(capsys):
    # general alpha goes through Nolan's integral and the trapezoid rule
    code, out, _ = run(["dist", "--alpha", "1.5", "--beta", "0.3",
                        "--x", "1"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(0.16235873175932355, abs=1e-9)


def test_dist_quadrature_failure_exits_1(capsys, monkeypatch):
    # a check failure with a message, not a traceback
    from mtchan import stable
    monkeypatch.setattr(stable, "_quad", lambda *args, **kwargs: (1.0, 1.0))
    code, out, err = run(["dist", "--alpha", "0.7", "--beta", "0", "--x", "1"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: PDF inversion did not converge")


def test_geopower(capsys):
    code, out, _ = run(["geopower", "--alpha", "0.5", "--beta", "1"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(3.5621448359803958, rel=1e-12)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_small_grid(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, _, err = run(["table1", "--betas", "0,1", "--deltas", "1,4",
                        "--gsnr", "2", "--workers", "1",
                        "--output", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 5  # header + 2 betas x 2 deltas
    assert "spread" in err


def test_table1_json(capsys):
    code, out, _ = run(["table1", "--betas", "0.5", "--deltas", "1,2",
                        "--gsnr", "2", "--workers", "1", "--format", "json"],
                       capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["system"] == "C"
    assert rows[0]["ber_mc"] is None
    assert rows[0]["ber_analytic"] == pytest.approx(rows[1]["ber_analytic"],
                                                    rel=1e-9)


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


def test_table1_mc_draws_differ_across_deltas(tmp_path, capsys):
    # the cells of one delta share a draw and each delta has its own: at one
    # G-SNR all deltas give the same d, so a shared draw would repeat one
    # Monte Carlo value down each beta's row
    betas, deltas = (0.5, 0.9), (1.0, 2.0, 4.0)
    args = ["table1", "--betas", "0.5,0.9", "--deltas", "1,2,4",
            "--mc-samples", "10000", "--seed", "3"]
    first, *others = _outputs_by_workers(args, tmp_path, capsys)
    assert others == [first, first]
    rows = [line.split(",") for line in first.decode().splitlines()[1:]]
    mcs = [float(row[7]) for row in rows]
    assert len(set(mcs[:3])) == len(set(mcs[3:])) == 3
    cells = [(b, d) for b in betas for d in deltas]
    for mc, (beta, delta) in zip(mcs, cells, strict=True):
        scheme = scheme_for_gsnr(System.C, delta, cli.TABLE1_GSNR, beta)
        seed = cli._stream_seed(3, deltas.index(delta))
        assert mc == ber_monte_carlo(scheme, 10_000, seed)[0]


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


@pytest.mark.parametrize("args", [
    ["sweep", "--betas", "-1,0.5", "--gsnr-db", "0", "10", "--points", "2"],
    ["table1", "--betas", "0.5,0.9", "--deltas", "1,2"],
], ids=["sweep", "table1"])
def test_mc_chunk_tasks_are_independent_of_worker_count(args, tmp_path, capsys,
                                                         monkeypatch):
    # 10,000 bits in chunks of 4096 are three pool tasks per delta, the last
    # partial; each point still equals ber_monte_carlo with its delta's seed
    monkeypatch.setattr(systems, "MC_CHUNK", 4096)
    args = args + ["--mc-samples", "10000", "--seed", "4"]
    first, *others = _outputs_by_workers(args, tmp_path, capsys)
    assert others == [first, first]
    for row in first.decode().splitlines()[1:]:
        gsnr_db, system, beta, delta, *_, mc, stderr, _ = row.split(",")
        scheme = scheme_for_gsnr(System(system), float(delta),
                                 10.0 ** (float(gsnr_db) / 10.0), float(beta))
        seed = cli._stream_seed(4, [1.0, 2.0].index(float(delta)))
        assert (float(mc), float(stderr)) == ber_monte_carlo(scheme, 10_000, seed)


def test_sweep_mc_rows_within_four_stderr(capsys):
    # each curve's points share one draw of a little over one chunk, so a
    # partial last chunk is counted too
    n = MC_CHUNK + 12345
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


def test_sweep_workers_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    f = tmp_path / "env.csv"
    code, _, _ = run(["sweep", "--systems", "B", "--gsnr-db", "5",
                      "--points", "1", "--output", str(f)], capsys)
    assert code == 0
    assert len(f.read_text().splitlines()) == 2


def test_sweep_explicit_gsnr_list(capsys):
    code, out, _ = run(["sweep", "--systems", "B", "--gsnr-list", "1,4",
                        "--workers", "1"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0.0,B,")


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
    (["sweep", "--gsnr-list", "nan"], "--gsnr-list must be finite and > 0"),
    (["sweep", "--gsnr-list", "inf"], "--gsnr-list must be finite and > 0"),
    (["sweep", "--gsnr-list", "1,0"], "--gsnr-list must be finite and > 0"),
    (["sweep", "--gsnr-list", ","], "--gsnr-list needs at least one value"),
    (["sweep", "--gsnr-db", "5", "--points", "3"],
     "--points must be 1 with one --gsnr-db value"),
    (["sweep", "--gsnr-db", "5", "--points", "0"],
     "--points must be 1 with one --gsnr-db value"),
    (["sweep", "--gsnr-list", "1,4", "--points", "2"],
     "--points cannot be combined with --gsnr-list"),
    (["sweep", "--gsnr-list", "1,4", "--gsnr-db", "0", "10"],
     "--gsnr-db cannot be combined with --gsnr-list"),
    (["sweep", "--delta", "nan", "--points", "1"], "--delta must be finite and > 0"),
    (["sweep", "--delta", "0", "--points", "1"], "--delta must be finite and > 0"),
    (["sweep", "--betas", "nan", "--points", "1"], "--betas must be in [-1, 1]"),
    (["sweep", "--betas", "0,x", "--points", "1"], "--betas takes comma-separated"),
    (["sweep", "--mc-samples", "5", "--points", "1"],
     "--mc-samples must be 0 or >= 10000"),
    (["sweep", "--systems", ","], "--systems must be a list of A, B, C"),
    (["sweep", "--systems", "A,D"], "--systems must be a list of A, B, C"),
    (["table1", "--gsnr", "nan"], "--gsnr must be finite and > 0"),
    (["table1", "--deltas", "5,inf"], "--deltas must be finite and > 0"),
    (["table1", "--betas", ","], "--betas needs at least one value"),
    (["table1", "--mc-samples", "5"], "--mc-samples must be 0 or >= 10000"),
    # finite G-SNRs past the overflow of 2 e^gamma G-SNR in the noise scale
    (["sweep", "--gsnr-db", "3080", "--points", "1"],
     "gsnr 1e+308 (3080.00 dB) exceeds 5.046659295557653e+307 (3077.03 dB)"),
    (["table1", "--gsnr", "1e308"],
     "gsnr 1e+308 (3080.00 dB) exceeds 5.046659295557653e+307 (3077.03 dB)"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_grid_input_names_its_flag(argv, message, capsys):
    # checked before any point is computed: exit 2, nothing on stdout
    code, out, err = run(argv + ["--workers", "1"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_system_c_at_tiny_delta(capsys):
    # d = delta/c ~ 8e-17: the density gap is rounding noise at both ends
    code, out, _ = run(["sweep", "--systems", "C", "--betas", "0.95",
                        "--gsnr-db", "-332", "--points", "1", "--workers",
                        "1"], capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert abs(float(row[6]) - 0.5) <= 1e-15


@pytest.mark.parametrize("flags,config,env,source", [
    (["--workers", "-3"], None, None, "--workers"),
    (["--workers", "0"], None, None, "--workers"),
    ([], "workers=0\n", None, "--workers"),
    ([], None, "0", cli.WORKERS_ENV),
    ([], None, "abc", cli.WORKERS_ENV),
], ids=["flag-negative", "flag-zero", "config-zero", "env-zero", "env-text"])
def test_bad_worker_count_exits_2(flags, config, env, source, tmp_path,
                                  capsys, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.WORKERS_ENV, env)
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        flags = flags + ["--config", str(cfg)]
    code, out, err = run(["sweep", "--systems", "A", "--gsnr-db", "0",
                          "--points", "1"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert source in err


def test_analytic_grid_skips_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("ProcessPoolExecutor constructed")
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    points = [(System.C, b, 1.0, g) for b in (0.5, 0.9) for g in (1.0, 2.0)]
    assert [r.gsnr for r in cli._compute_grid(points, 0, 0, 4)] == [1.0, 2.0] * 2
    # a pool task is one chunk of one delta's draw: one chunk of one delta
    # runs here, and a grid of two or more chunk tasks goes to the pool,
    # whether the tasks are two chunks or two deltas
    assert len(cli._compute_grid(points, 10_000, 0, 4)) == 4
    monkeypatch.setattr(systems, "MC_CHUNK", 4096)
    with pytest.raises(AssertionError, match="ProcessPoolExecutor"):
        cli._compute_grid(points, 10_000, 0, 4)
    monkeypatch.setattr(systems, "MC_CHUNK", 10_000)
    deltas = [(System.C, 0.5, d, 1.0) for d in (1.0, 2.0)]
    with pytest.raises(AssertionError, match="ProcessPoolExecutor"):
        cli._compute_grid(deltas, 10_000, 0, 4)


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment\npoints=2\ngsnr-db=0 10\nsystems=A\n")
    code, out, _ = run(["sweep", "--config", str(cfg), "--workers", "1"],
                       capsys)
    assert code == 0
    assert len(out.splitlines()) == 3  # config points=2 applied

    code, out, _ = run(["sweep", "--config", str(cfg), "--points", "4",
                        "--workers", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 5  # explicit flag wins


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("points=2\ngsnr-db=0 10\nsystems=A\n")
    code, out, _ = run(["sweep", f"--config={cfg}", "--workers", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("command", [
    ["sweep", "--systems", "C", "--gsnr-db", "0", "--points", "1"],
    ["table1", "--deltas", "1"]], ids=["sweep", "table1"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_betas_list_starting_negative(command, form, tmp_path, capsys):
    # argparse reads only a plain negative number after a flag as its value
    if form == "flag":
        extra = ["--betas", "-0.5,0.5"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("betas=-0.5,0.5\n")
        extra = ["--config", str(cfg)]
    code, out, _ = run(command + ["--workers", "1"] + extra, capsys)
    assert code == 0
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["-0.5", "0.5"]


@pytest.mark.parametrize("config_args,message", [
    (["--config"], "expected one argument"),
    (["--config", "{cfg}"], "--pionts"),
], ids=["missing-path", "unknown-key"])
def test_config_usage_errors_exit_2(config_args, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pionts=2\n")
    argv = ["sweep", "--workers", "1"] + [a.format(cfg=cfg) for a in config_args]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_missing_file_exits_nonzero(capsys):
    code, _, err = run(["sweep", "--config", "/nonexistent/cfg"], capsys)
    assert code == 1
    assert "error" in err


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


def test_validate_impossible_tolerance_fails(capsys):
    code, out, _ = run(["validate", "--mc-samples", "100000",
                        "--tol", "1e-30"], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_validate_bad_tolerance_exits_2(tol, capsys, monkeypatch):
    # refused up front: no check runs, so no report line is printed
    from mtchan import validate
    monkeypatch.setattr(validate, "suite", lambda *args: pytest.fail("ran"))
    code, out, err = run(["validate", "--mc-samples", "10000", "--tol", tol],
                         capsys)
    assert code == 2
    assert out == ""
    assert "--tol must be finite and > 0" in err


@pytest.mark.parametrize("flags", [["--output", "{out}"], ["--format", "json"]],
                         ids=["output", "format"])
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


@pytest.mark.parametrize("flags,env,source", [
    (["--workers", "-3"], None, "--workers"),
    (["--workers", "0"], None, "--workers"),
    ([], "abc", cli.WORKERS_ENV),
], ids=["flag-negative", "flag-zero", "env-text"])
def test_validate_bad_worker_count_exits_2(flags, env, source, capsys,
                                           monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.WORKERS_ENV, env)
    code, out, err = run(["validate"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert source in err


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
    # sweeps, table1, and dist and geopower at any alpha need numpy alone:
    # neither the import nor a run loads any part of scipy
    runs = [["sweep", "--points", "4", "--workers", "1"],
            ["table1", "--workers", "1"],
            ["dist", "--alpha", "0.5", "--beta", "0.3", "--x", "0.7"],
            ["dist", "--alpha", "0.5", "--beta", "0.3", "--x", "-2",
             "--what", "cdf"],
            ["dist", "--alpha", "0.5", "--beta", "1", "--x", "0.7"],
            ["dist", "--alpha", "1", "--beta", "0", "--x", "0.7"],
            ["dist", "--alpha", "2", "--beta", "0", "--x", "0.7",
             "--what", "cdf"],
            ["dist", "--alpha", "1.5", "--beta", "0.3", "--x", "1"],
            ["dist", "--alpha", "0.7", "--beta", "-0.5", "--x", "3",
             "--what", "cdf"],
            ["geopower", "--alpha", "0.5", "--beta", "0.3"],
            ["geopower", "--alpha", "2", "--beta", "0"]]
    code = (
        "import contextlib, io, sys, mtchan.cli\n" + _LOADED_SCIPY +
        "print(loaded())\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert mtchan.cli.main(argv) == 0, argv\n"
        "    print(loaded())\n")
    assert _python(code).splitlines() == ["[]"] * (1 + len(runs))


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


def test_validate_output_independent_of_worker_count(capsys, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    args = ["validate", "--seed", "3", "--mc-samples", "100000"]
    outs = [run(args + ["--workers", w], capsys)[1] for w in ("1", "2", "3")]
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    outs.append(run(args, capsys)[1])
    assert outs[0].endswith("26/26 checks passed\n")
    assert outs[1:] == [outs[0]] * 3
