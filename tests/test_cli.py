"""Command-line interface: exit codes, CSV contracts, reproducibility.

These tests go through a real subprocess so argparse behavior, exit
codes, and stream handling are exercised at the same boundary users hit.
"""

import os
import shutil
import subprocess
import sys

import pytest

import jointeec
from jointeec import cli
from jointeec.kacrice import eec
from jointeec.model import fixture

# the child process imports the same package as this one, installed or not
SRC = os.path.dirname(os.path.dirname(jointeec.__file__))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "jointeec.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_eec_does_not_import_scipy_stats():
    # the package does not use scipy at all (see the next test); scipy.stats
    # in particular would add about a second and tens of MB to every first
    # call
    code = ("import sys; from jointeec import cli; "
            "cli.run(['eec', '--model', 'interior-point', '--u', '3']); "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_first_calls_do_not_import_scipy(tmp_path):
    # the normal tail is computed in gauss, so a first call on each route
    # loads no part of scipy, whose import alone costs about 0.27 s
    out = str(tmp_path / "out.csv")
    code = ("import sys; from jointeec import cli\n"
            "for argv in (['eec', '--model', 'interior-point', '--u', '3'],\n"
            "             ['closed-form', '--model', 'interior-point', '--u', '3'],\n"
            "             ['simulate', '--model', 'interior-point', '--u', '3', '--grid', '64',\n"
            "              '--reps', '200', '--seed', '1']):\n"
            f"    assert cli.run(argv + ['--out', {out!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_run_builds_the_parser_once(monkeypatch, capsys):
    # run parses with one parser per process; a bad argument still exits 2
    from jointeec import cli

    built = []
    orig = cli.build_parser

    def counting():
        built.append(1)
        return orig()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.run(["classify", "--model", "interior-point"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.run(["eec", "--model", "interior-point", "--u", "abc"])
        assert exc.value.code == 2
        assert "bad u list" in capsys.readouterr().err
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_validate_fixture_ok():
    proc = run_cli("validate", "--model", "corner-nondegenerate", check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == ("label,psd_ok,min_eigenvalue,unit_variance_max_err,"
                       "h3_ok,h3_worst_eigenvalue,maximizer_count")
    fields = lines[1].split(",")
    assert fields[0] == "corner-nondegenerate"
    assert fields[1] == "true"
    assert fields[4] == "true"


def test_classify_interior_point():
    proc = run_cli("classify", "--model", "interior-point", check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "label,tag,t_star,s_star,R"
    assert lines[1] == "interior-point,UniqueInterior,0.5,0.5,0.5"
    assert len(lines) == 2


def test_classify_ridge_lists_every_maximizer():
    proc = run_cli("classify", "--model", "diagonal", check=True)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) > 50
    assert all(line.split(",")[1] == "DiagonalLine" for line in lines[1:])


def test_eec_value_round_trips():
    proc = run_cli("eec", "--model", "diagonal", "--u", "3", check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "u,eec_numeric,quad_error,low_confidence"
    row = lines[1].split(",")
    # %.17g prints doubles losslessly
    assert float(row[1]) == eec(fixture("diagonal"), 3.0).total.value
    assert row[3] == "false"


def test_closed_form_output():
    proc = run_cli("closed-form", "--model", "interior-point", "--u", "4", check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "u,closed_form,coefficient,power,rate,tag"
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(1.2404900146990321, rel=1e-12)
    assert row[3] == "2"
    assert row[5] == "UniqueInterior"


def test_simulate_columns():
    proc = run_cli("simulate", "--model", "interior-point", "--u", "2",
                   "--grid", "128", "--reps", "500", "--seed", "9", check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == ("u,excursion_mc,excursion_stderr,excursion_method,"
                       "eec_mc,eec_stderr,ess,factor_rank,factorization_cond")
    row = lines[1].split(",")
    assert row[3] in ("PlainMC", "ImportanceSampled")
    assert 0.0 < float(row[1]) < 1.0


def test_simulate_rows_share_one_sweep():
    # every level of one call reads the same draws: each row equals the
    # single-level run of its u byte for byte, and the ess column is the
    # effective sample size the excursion estimate notes
    from jointeec import montecarlo
    args = ("--model", "interior-point", "--grid", "128", "--reps", "1500", "--seed", "9")
    multi = run_cli("simulate", "--u", "2,2.5,3", *args, check=True).stdout.splitlines()
    assert len(multi) == 4
    for u, row in zip(("2", "2.5", "3"), multi[1:]):
        single = run_cli("simulate", "--u", u, *args, check=True).stdout.splitlines()
        assert single == [multi[0], row]
        est = montecarlo.estimate_joint_excursion(fixture("interior-point"), float(u), 128,
                                                  1500, 9, shift=(0.5, 0.5))
        assert est.notes == ("effective sample size %.1f" % float(row.split(",")[6]),)
        assert row.split(",")[7] == "16"


def test_compare_ok_below_band_level(tmp_path):
    out = tmp_path / "cmp.csv"
    proc = run_cli("compare", "--model", "interior-point", "--u", "3",
                   "--grid", "128", "--reps", "2000", "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ("u,closed_form,eec_numeric,mc_estimate,mc_stderr,"
                       "ratio_cf_eec,ratio_eec_mc")
    assert len(lines) == 2


def test_compare_says_when_it_skips_the_monte_carlo_check():
    # plain Monte Carlo sees no excursion at u = 3 and 4 in 500 replicates;
    # its 0 +- 0 cannot bracket anything, and compare must say so rather
    # than pass the level silently.  The exit code stays 0
    proc = run_cli("compare", "--model", "interior-point", "--u", "3,4",
                   "--grid", "128", "--reps", "500", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"compare: u={u}: Monte Carlo saw no excursion in 500 replicates; "
        "its check was skipped" for u in (3, 4)]
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert [(r[3], r[4]) for r in rows] == [("0", "0"), ("0", "0")]


@pytest.mark.parametrize("model", ["interior-point", "diagonal"])
def test_closed_form_says_when_it_underflows(model):
    # exp(-u^2 / rate) with rate 1.5 leaves the doubles between u = 30
    # (3.65e-264 on interior-point) and u = 35: each level that reads 0 gets
    # one line on stderr; the CSV and the exit code stay as they are
    quiet = run_cli("closed-form", "--model", model, "--u", "30")
    assert quiet.returncode == 0, quiet.stderr
    assert quiet.stderr == ""
    assert float(quiet.stdout.splitlines()[1].split(",")[1]) > 0.0
    proc = run_cli("closed-form", "--model", model, "--u", "30,35,40")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"closed-form: u={u}: exp(-u^2/1.5) underflowed; the closed form reads 0"
        for u in (35, 40)]
    lines = proc.stdout.splitlines()
    assert lines[0] == "u,closed_form,coefficient,power,rate,tag"
    assert [line.split(",")[1] for line in lines[2:]] == ["0", "0"]


def test_compare_reruns_byte_identical(tmp_path):
    args = ("compare", "--model", "interior-point", "--u", "2,3",
            "--grid", "128", "--reps", "1000", "--seed", "21")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    p1 = run_cli(*args, "--out", str(a))
    p2 = run_cli(*args, "--out", str(b))
    assert p1.returncode == p2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


# the bytes `simulate` wrote for this run before its paths were multiplied
# and reduced in 128-row chunks: tilted, three levels, a short last block.
# A rerun only compares the code with itself; this pin also catches a
# change in the rounding of the paths or of the estimators.
PINNED_SIMULATE = (
    "u,excursion_mc,excursion_stderr,excursion_method,eec_mc,eec_stderr,ess,"
    "factor_rank,factorization_cond\n"
    "2,0.0087094424936082528,0.00054406643512405436,ImportanceSampled,"
    "0.0080000000000000002,0.0023009120215153455,218.99148460969917,16,30837343234.242771\n"
    "2.5,0.0015001893512444143,0.00011327818058589272,ImportanceSampled,"
    "0.00066666666666666664,0.00066666666666666675,157.12120786902031,16,30837343234.242771\n"
    "3,0.00020697465734605315,1.9174985924170429e-05,ImportanceSampled,0,0,"
    "108.1796994946873,16,30837343234.242771\n"
)


def test_simulate_output_is_pinned(tmp_path):
    out = tmp_path / "sim.csv"
    run_cli("simulate", "--model", "interior-point", "--u", "2,2.5,3", "--grid", "128",
            "--reps", "1500", "--seed", "1", "--out", str(out), check=True)
    assert out.read_bytes() == PINNED_SIMULATE.encode()


def test_compare_flags_band_violation(tmp_path):
    # at u = 4.5 the closed form sits well above the face-pair sum for the
    # ridge fixture; the self-check must fail loudly and still write the CSV
    out = tmp_path / "viol.csv"
    proc = run_cli("compare", "--model", "diagonal", "--u", "4.5",
                   "--grid", "128", "--reps", "500", "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 4
    assert "ratio" in proc.stderr
    assert out.exists()
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2


def test_compare_skips_the_ratio_check_where_a_route_underflows():
    # exp(-u^2 / 1.5) leaves the doubles between u = 30 and 35, so at u = 35
    # the closed form and the face-pair sum both read 0 and their ratio is
    # undefined: compare says so on stderr and does not count a violation
    proc = run_cli("compare", "--model", "interior-point", "--u", "30,35",
                   "--grid", "64", "--reps", "200", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "ratio" in line] == [
        "compare: u=35: closed_form and eec_numeric underflowed to 0; "
        "the ratio check was skipped"]
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][5]) > 0.0
    assert (rows[1][1], rows[1][2], rows[1][5]) == ("0", "0", "nan")


def test_compare_flags_band_violation_beside_an_underflowed_level():
    # the skipped level does not hide an out-of-band ratio at a finite one
    proc = run_cli("compare", "--model", "diagonal", "--u", "4.5,35",
                   "--grid", "64", "--reps", "200", "--seed", "1")
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert ("compare: u=35: closed_form and eec_numeric underflowed to 0; "
            "the ratio check was skipped") in lines
    assert [line for line in lines if "outside" in line] == [
        "compare: u=4.5: ratio_cf_eec 0.815069 outside [0.85, 1.15]"]


def test_restricted_mode_rejects_ridge():
    proc = run_cli("eec", "--model", "diagonal", "--u", "3",
                   "--theorem", "3.3-restricted")
    assert proc.returncode == 3
    assert proc.stderr != ""


def test_unknown_model_is_usage_error():
    proc = run_cli("validate", "--model", "no-such-thing")
    assert proc.returncode == 2
    assert "no-such-thing" in proc.stderr


def test_missing_level_is_usage_error():
    proc = run_cli("eec", "--model", "diagonal")
    assert proc.returncode == 2


def test_bad_level_is_usage_error():
    proc = run_cli("eec", "--model", "diagonal", "--u", "3,oops")
    assert proc.returncode == 2


def test_model_and_file_conflict(tmp_path):
    f = tmp_path / "m.model"
    f.write_text("cross_form shift-mixture\nc 0.5\n", encoding="utf-8")
    proc = run_cli("classify", "--model", "diagonal", "--model-file", str(f))
    assert proc.returncode == 2


def test_model_file_input(tmp_path):
    f = tmp_path / "m.model"
    f.write_text(
        "kernel_x sqexp\nscale_x 1.0\ncross_form shift-mixture\n"
        "c 0.5\nd 0.0\nlabel from-file\n",
        encoding="utf-8",
    )
    proc = run_cli("classify", "--model-file", str(f), check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[1].startswith("from-file,DiagonalLine,")


MODEL_FILES = {
    "shift-mixture": {"cross_form": "shift-mixture", "c": "0.5", "d": "0.1"},
    "point-anchor": {"cross_form": "point-anchor", "c": "0.5", "t_star": "0.5",
                     "s_star": "0.5", "scale_x": "1.0", "scale_y": "0.8"},
}


def _write_model(path, entries):
    path.write_text("".join(f"{k} {v}\n" for k, v in entries.items()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("form", sorted(MODEL_FILES))
def test_model_file_forms_validate(tmp_path, form):
    # the files the non-finite cases below start from are valid as written
    assert cli.run(["validate", "--model-file", _write_model(tmp_path / "m.model",
                                                             MODEL_FILES[form])]) == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("form,key", [
    ("point-anchor", "scale_x"), ("point-anchor", "scale_y"), ("shift-mixture", "c"),
    ("shift-mixture", "d"), ("point-anchor", "t_star"), ("point-anchor", "s_star")])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, form, key, value):
    # a non-finite parameter is rejected when the model is built, not left
    # to hang a quadrature or to pass validation with a flat r
    f = _write_model(tmp_path / "m.model", dict(MODEL_FILES[form], **{key: value}))
    assert cli.run(["validate", "--model-file", f]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_model_file(tmp_path):
    proc = run_cli("classify", "--model-file", str(tmp_path / "nope.model"))
    assert proc.returncode == 2


@pytest.mark.skipif(shutil.which("jointeec") is None,
                    reason="the jointeec console script is not on PATH "
                           "(install the package with pip install -e .)")
def test_console_script_installed():
    proc = subprocess.run(["jointeec", "validate", "--model", "diagonal"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
