"""Command-line interface: exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import toruskernel as tk
from toruskernel.cli import main


def write_config(tmp_path, name="sq1.json", **overrides):
    data = {
        "n": 1,
        "basis": [[1.0, 0.0], [0.0, 1.0]],
        "H": [[{"re": 1.0, "im": 0.0}]],
        "chi_phases": [0.0, 0.0],
        "k": 1,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "n = 1" in out
    assert "pfaffian_abs = 1" in out


def test_missing_config_is_a_validation_error(capsys):
    assert main(["validate"]) == 1
    assert "ValidationError" in capsys.readouterr().err


def test_nonexistent_config(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err != ""


def test_bad_config_data(tmp_path, capsys):
    cfg = write_config(tmp_path, H=[[{"re": -1.0, "im": 0.0}]])
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "NotPositiveDefinite" in err


def test_rho_matches_library(tmp_path, capsys, sq1, chi0):
    cfg = write_config(tmp_path)
    assert main(["rho", "--config", cfg, "--point", "0.25,0.5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(" = ")[1])
    p = tk.TorusPoint.from_coords(sq1, np.array([0.25, 0.5]))
    want = tk.rho_diag(sq1, chi0, 2, p).value
    assert out.splitlines()[0] == f"value = {want:.17g}"
    assert value == want


def test_rho_bad_point(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["rho", "--config", cfg, "--point", "0.25"]) == 1
    assert main(["rho", "--config", cfg, "--point", "a,b"]) == 1
    assert main(["rho", "--config", cfg]) == 1
    capsys.readouterr()


def test_grid_out_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["grid", "--config", cfg, "--res", "6"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2), "--threads", "2"]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.startswith(b"coord_1,coord_2,rho,tail\n")
    assert len(b1.splitlines()) == 1 + 36


def test_oracle_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["oracle", "--config", cfg, "--res", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x1,x2,rho_exact,rho_oracle,absdiff"
    assert len(lines) == 1 + 16
    worst = max(float(row.split(",")[4]) for row in lines[1:])
    assert worst < 1e-9


def test_compare_requires_chi2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", cfg]) == 1
    assert "chi2" in capsys.readouterr().err


def test_compare_distinct(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", cfg, "--chi2", "0.5,0.0", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict = distinct" in out
    assert "witness = " in out


def test_cylinder_needs_no_config(capsys):
    assert main(["cylinder", "--eta", "0.8", "--alpha", "0.25", "--k", "2",
                 "--res", "5", "--tmin", "-0.5", "--tmax", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,rho_direct,rho_poisson,absdiff"
    assert len(lines) == 6
    for row in lines[1:]:
        assert float(row.split(",")[3]) < 1e-12


def test_extrema_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["extrema", "--config", cfg, "--res", "16"]) == 0
    out = capsys.readouterr().out
    assert "max_value = " in out
    assert "min_multiplicity = 1" in out


def test_rigidity_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, chi_phases=[0.3, 0.0])
    assert main(["rigidity", "--config", cfg, "--kmin", "2", "--kmax", "3",
                 "--res", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,dist,bound,ratio"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3"]


def test_offdiag_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["offdiag", "--config", cfg, "--point", "0,0",
                 "--point2", "0.5,0.5"]) == 0
    out = capsys.readouterr().out
    bound = float(out.splitlines()[0].split(" = ")[1])
    assert abs(2 * math.pi * bound - 1.985088356982114) < 1e-8


def test_hol_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, chi_phases=[0.3, 0.0])
    assert main(["hol", "--config", cfg, "--point", "0.25,0.0",
                 "--vector", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "closed_value = " in out
    disagreement = float(out.splitlines()[-1].split(" = ")[1])
    assert disagreement < 1e-8


def test_hol_too_few_steps_is_numeric_failure(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["hol", "--config", cfg, "--point", "0,0", "--vector", "1,0",
                 "--steps", "10"]) == 2
    assert "StepCountTooSmall" in capsys.readouterr().err


def test_hol_requires_vector(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["hol", "--config", cfg, "--point", "0,0"]) == 1
    capsys.readouterr()


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command,flags", [
    ("rho", ["--k", "0"]), ("rho", ["--k", "-1"]), ("rho", ["--eps", "0"]),
    ("rho", ["--eps", "-1"]), ("cylinder", ["--k", "0"]),
])
def test_bad_power_or_eps_exits_1_without_traceback(tmp_path, command, flags):
    """A fresh interpreter, so a hang shows as a timeout and a traceback
    as stderr text; --k 0 used to fall back to the config's k (to 1 for
    cylinder)."""
    cfg = write_config(tmp_path)
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "toruskernel", command, "--config", cfg, "--point", "0.25,0.5",
         *flags], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "ValidationError" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
