"""Committed outputs of the sweeps and table1, regenerated in-process, and
of demos 01 and 02 (checked by test_demos).

Text and integers (counts, exit codes, sample sizes) must match exactly and
floats to GOLDEN_RTOL relative, so a change to any output shows as a diff to
a file under tests/golden/.  After an intended change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes why they moved.  validate's report is not
here: its "max |dev|" lines are rounding residues that another libm changes.
"""

import contextlib
import io
import math
import pathlib
import re
import tempfile

import pytest

from mtchan import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")
GOLDEN_RTOL = 1e-13

# file stem -> argv, each exiting 0 with its stdout in <stem>.csv and its
# stderr, if any, in <stem>.err; the Monte Carlo output is the same at any
# worker count
CASES = {
    "sweep_default": ["sweep"],
    "sweep_gsnr_30_90": ["sweep", "--gsnr-db", "30", "90", "--points", "25"],
    "sweep_mc": ["sweep", "--points", "2", "--mc-samples", "2200000",
                 "--seed", "0", "--workers", "1"],
    "table1": ["table1"],
}

# a number, with the text around it kept apart by re.split
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(stem: str) -> tuple[str, str]:
    err_file = GOLDEN / f"{stem}.err"
    return ((GOLDEN / f"{stem}.csv").read_text(),
            err_file.read_text() if err_file.exists() else "")


def _mismatch(got: str, want: str) -> str | None:
    # the first difference, or None: text and integers exact, floats to
    # GOLDEN_RTOL
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, want {len(want_lines)}"
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        gs, ws = _NUMBER.split(g), _NUMBER.split(w)
        if len(gs) != len(ws):
            return f"line {n}: {g!r}, want {w!r}"
        for k, (a, b) in enumerate(zip(gs, ws)):
            exact = k % 2 == 0 or not re.search(r"[.eE]", a + b)
            if a != b and (exact or not math.isclose(
                    float(a), float(b), rel_tol=GOLDEN_RTOL, abs_tol=0.0)):
                return f"line {n}: {g!r}, want {w!r}"
    return None


@pytest.mark.parametrize("stem", CASES)
def test_output_matches_golden(stem):
    code, out, err = _run(CASES[stem])
    want_out, want_err = _expected(stem)
    assert code == 0
    assert _mismatch(out, want_out) is None, _mismatch(out, want_out)
    assert _mismatch(err, want_err) is None, _mismatch(err, want_err)


def test_comparison_holds_text_and_integers_exact():
    assert _mismatch("0.1,A,7\n", "0.1000000000000001,A,7\n") is None
    assert _mismatch("0.1,A,7\n", "0.1000000000001,A,7\n") is not None
    assert _mismatch("0.1,A,7\n", "0.1,B,7\n") is not None
    assert _mismatch("0.1,A,7\n", "0.1,A,8\n") is not None
    assert _mismatch("0.1,A,\n", "0.1,A,0\n") is not None
    assert _mismatch("0.1\n", "0.1\n0.2\n") is not None


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in CASES.items():
        code, out, err = _run(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
        (GOLDEN / f"{stem}.csv").write_text(out)
        err_file = GOLDEN / f"{stem}.err"
        if err:
            err_file.write_text(err)
        elif err_file.exists():
            err_file.unlink()
    from test_demos import DEMOS, PINNED, run_demo
    for demo in DEMOS:
        if demo.name in PINNED:
            with tempfile.TemporaryDirectory() as cwd:
                proc = run_demo(demo, pathlib.Path(cwd))
            if proc.returncode != 0:
                raise SystemExit(f"{demo.name} exited {proc.returncode}: {proc.stderr}")
            (GOLDEN / PINNED[demo.name]).write_text(proc.stdout)


if __name__ == "__main__":
    regenerate()
