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
    # the orthant engine needs only scipy.special; scipy.stats would add
    # about a second and tens of MB to every first call
    code = ("import sys; from jointeec import cli; "
            "cli.run(['eec', '--model', 'interior-point', '--u', '3']); "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


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
                       "eec_mc,eec_stderr")
    row = lines[1].split(",")
    assert row[3] in ("PlainMC", "ImportanceSampled")
    assert 0.0 < float(row[1]) < 1.0


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


def test_compare_reruns_byte_identical(tmp_path):
    args = ("compare", "--model", "interior-point", "--u", "2,3",
            "--grid", "128", "--reps", "1000", "--seed", "21")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    p1 = run_cli(*args, "--out", str(a))
    p2 = run_cli(*args, "--out", str(b))
    assert p1.returncode == p2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


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
