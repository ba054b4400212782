"""Command-line interface: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest

import toruskernel as tk
from toruskernel.cli import build_parser, main

from conftest import run_cli, run_python


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
    assert main(argv + ["--out", str(out2)]) == 0
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


def test_huge_radius_is_numeric_failure(tmp_path, capsys):
    """--radius 1e300 used to end in an OverflowError traceback."""
    cfg = write_config(tmp_path)
    assert main(["rho", "--config", cfg, "--point", "0,0", "--radius", "1e300"]) == 2
    assert "RadiusTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("grid", []), ("extrema", []), ("compare", ["--chi2", "0.5,0.0"]),
    ("rigidity", ["--kmin", "1", "--kmax", "2"]),
])
def test_oversized_grid_exits_1_without_traceback(tmp_path, command, flags):
    """--res 100000 used to end in a MemoryError traceback; it is now
    refused against GRID_CAP before any grid is allocated."""
    cfg = write_config(tmp_path)
    proc = run_cli([command, "--config", cfg, "--res", "100000", *flags])
    assert proc.returncode == 1
    assert "ValidationError" in proc.stderr and "GRID_CAP" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_hol_requires_vector(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["hol", "--config", cfg, "--point", "0,0"]) == 1
    capsys.readouterr()


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command,flags", [
    ("rho", ["--point", "0.25,0.5", "--k", "0"]), ("rho", ["--point", "0.25,0.5", "--k", "-1"]),
    ("rho", ["--point", "0.25,0.5", "--eps", "0"]), ("rho", ["--point", "0.25,0.5", "--eps", "-1"]),
    ("cylinder", ["--k", "0"]), ("grid", ["--res", "0"]),
    ("compare", ["--chi2", "0.5,0.0", "--res", "0"]), ("rho", ["--point", "nan,0.1"]),
    ("oracle", ["--res", "0"]), ("cylinder", ["--res", "0"]),
    ("rigidity", ["--kmin", "5", "--kmax", "2"]), ("rho", ["--point", "0.25,0.5", "--radius", "nan"]),
    ("grid", ["--radius", "inf"]),
    ("offdiag", ["--point", "0.25,0.5", "--point2", "0.5,0.5", "--radius", "nan"]),
    ("rho", ["--point", "0.25,0.5", "--k", "abc"]),
    # k^2 predicted points of each kind, above ENUM_CAP
    ("extrema", ["--k", "1000000000"]), ("extrema", ["--k", "1000000000000000000"]),
    ("hol", ["--point", "0,0", "--vector", "1180591620717411303424,0"]),
])
def test_bad_power_or_eps_exits_1_without_traceback(tmp_path, command, flags):
    """A fresh interpreter, so a hang shows as a timeout and a traceback
    as stderr text; --k 0 used to fall back to the config's k (to 1 for
    cylinder).  Each subcommand gets only the flags it declares, so the
    exit comes from the bad value itself, not from an unknown flag."""
    cfg = write_config(tmp_path)
    config = [] if command == "cylinder" else ["--config", cfg]
    proc = run_cli([command, *config, *flags])
    assert proc.returncode == 1
    assert "ValidationError" in proc.stderr
    assert "unrecognized arguments" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command,overrides,infinity", [
    ("validate", {"n": True}, "Infinity"), ("rho", {"n": True}, "Infinity"),
    ("validate", {"k": True}, "Infinity"),
    ("validate", {"H": [[{"re": math.nan, "im": 0.0}]]}, "Infinity"),
    ("rho", {"basis": [[math.inf, 0.0], [0.0, 1.0]]}, "Infinity"),
    ("validate", {"basis": [[1.0, 0.0], [0.0, math.inf]]}, "1e400"),
    ("rho", {"H": [[{"re": None, "im": 0.0}]]}, "Infinity"),
], ids=["validate-n-true", "rho-n-true", "validate-k-true", "validate-H-nan", "rho-basis-inf",
        "validate-basis-1e400", "rho-H-null"])
def test_malformed_config_exits_1_without_traceback(tmp_path, command, overrides, infinity):
    """A bool n ended in a TypeError traceback and a bool k was accepted; a non-finite basis
    or H made validate print pfaffian_abs = 2**63 and rho end in an IndexError traceback;
    a null in H ended rho in a TypeError traceback."""
    cfg = write_config(tmp_path, **overrides)
    with open(cfg) as fh:
        text = fh.read().replace("Infinity", infinity)
    with open(cfg, "w") as fh:
        fh.write(text)
    point = ["--point", "0.25,0.5"] if command == "rho" else []
    proc = run_cli([command, "--config", cfg, *point])
    assert proc.returncode == 1
    assert proc.stderr.startswith("ConfigParseError: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


# The flags each subcommand reads; every other flag is a usage error.
DECLARED = {
    "validate": {"config", "out"},
    "rho": {"config", "out", "k", "eps", "radius", "point"},
    "grid": {"config", "out", "k", "eps", "res", "radius"},
    "oracle": {"config", "out", "k", "eps", "res"},
    "compare": {"config", "out", "k", "eps", "res", "chi2"},
    "cylinder": {"out", "k", "res", "eta", "alpha", "tmin", "tmax"},
    "extrema": {"config", "out", "k", "res"},
    "rigidity": {"config", "out", "res", "kmin", "kmax"},
    "offdiag": {"config", "out", "k", "eps", "radius", "point", "point2"},
    "hol": {"config", "out", "k", "point", "vector", "steps"},
}
# Flags that every subcommand used to accept whether it read them or not.
FORMER_COMMON = {"config": None, "out": "x.txt", "k": "2", "eps": "1e-8", "res": "16",
                 "radius": "3.0", "point": "0.25,0.5"}
DEAD_FLAGS = [(command, flag) for command in DECLARED for flag in FORMER_COMMON
              if flag not in DECLARED[command]]


def test_declared_flags_are_exactly_the_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sub.choices.keys() == DECLARED.keys()
    for command, parser in sub.choices.items():
        flags = {a.dest for a in parser._actions if a.dest != "help"}
        assert flags == DECLARED[command], command
    assert sum(map(len, DECLARED.values())) == 54
    assert len(DEAD_FLAGS) == 26


@pytest.mark.parametrize("command,flag", DEAD_FLAGS)
def test_unread_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    """Each flag a subcommand does not read exits 1 as a ValidationError
    instead of being accepted and ignored."""
    cfg = write_config(tmp_path)
    value = cfg if flag == "config" else FORMER_COMMON[flag]
    config = [] if command == "cylinder" else ["--config", cfg]
    with pytest.raises(SystemExit) as exc:
        main([command, *config, f"--{flag}", value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "ValidationError: unrecognized arguments" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["cylinder", "--e", "0.5", "--res", "2"],
                                  ["cylinder", "--eta", "0.5", "--re", "2"],
                                  ["rigidity", "--config", "x.json", "--kma", "3"],
                                  ["--he", "validate"], ["rho", "--he"]])
def test_abbreviated_flag_is_a_usage_error(argv, capsys):
    """No parser expands a prefix: `cylinder --e 0.5` used to run as --eta."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "ValidationError: unrecognized arguments" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [[], ["rho", "--k", "abc"], ["validate", "--bogus", "1"]])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "ValidationError: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rho", "--help"])
    assert exc.value.code == 0
    assert "--point" in capsys.readouterr().out


def test_out_into_missing_directory_is_a_validation_error(tmp_path, capsys):
    """Used to end in a FileNotFoundError traceback."""
    cfg = write_config(tmp_path)
    out = tmp_path / "missing" / "x.txt"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "ValidationError" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


def test_scipy_is_not_loaded_at_run_time():
    """scipy is a test dependency only: importing the package and
    refining extrema leave it out of sys.modules."""
    code = ("import sys, toruskernel as tk; "
            "tk.find_extrema(tk.standard_torus(1j, 1), tk.Semicharacter.trivial(1), 1, 16); "
            "print('scipy' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("vector", ["22,0", "1000000,0"])
def test_hol_overflow_exits_2_without_traceback(tmp_path, vector):
    """--vector 22,0 printed ode_value = nan nan and exited 0; 1000000,0 asked
    for about 4e14 RK4 steps."""
    cfg = write_config(tmp_path, chi_phases=[0.3, 0.1])
    proc = run_cli(["hol", "--config", cfg, "--point", "0.25,0.5", "--vector", vector])
    assert proc.returncode == 2
    assert proc.stderr.startswith("ModulusMismatch: automorphy factor")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("eta", ["1e-8", "1e-300", "1e8", "1e300"])
def test_unbounded_cylinder_exits_2_without_traceback(eta):
    """1e-8 and 1e-300 ran past 20 s, 1e8 ended in an _ArrayMemoryError and
    1e300 in an OverflowError traceback."""
    proc = run_cli(["cylinder", "--res", "1", "--eta", eta])
    assert proc.returncode == 2
    assert proc.stderr.startswith("RadiusTooLarge: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [["--eta", "10", "--tmin", "1e307", "--tmax", "1e307"],
                                   ["--k", "1" + "0" * 400]])
def test_far_cylinder_inputs_exit_1_without_traceback(flags):
    """Both ended in an OverflowError traceback."""
    proc = run_cli(["cylinder", "--res", "1", *flags])
    assert proc.returncode == 1
    assert proc.stderr.startswith("ValidationError: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stdout == ""
