"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs at its tiny size on a fixed seed: no operation may
fail, the printed metric names must match BENCHMARK.json, and two traced
runs must give identical exact counts.  The output checks must reject a
wrong value, and the benchmark must refuse to run without the sources.
"""

import cmath
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_SUFFIXES = (".calls", ".vectors", ".points", ".term_points", ".quad_points", ".steps",
                  ".candidates", ".fiber_points", "kernel.terms", "_repeat_share",
                  "cap_headroom_min")


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_smoke(workload):
    plain = result(run_bench(workload, 0))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(plain["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    first, second = (result(run_bench(workload, 1)) for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(first["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    exact = [name for name in first["metrics"] if name.endswith(EXACT_SUFFIXES)]
    assert exact
    assert {n: first["metrics"][n]["value"] for n in exact} == \
           {n: second["metrics"][n]["value"] for n in exact}


def test_key_repeat_contrast():
    shares = {}
    for workload in ("point", "grid"):
        metrics = result(run_bench(workload, 1))["metrics"]
        shares[workload] = metrics["kernel.bundle_key_repeat_share"]["value"]
    assert shares["point"] > 0.3 and shares["grid"] == 0.0


def corrupt(out):
    """A plausible but wrong version of an operation's output."""
    if hasattr(out, "terms"):
        return dataclasses.replace(out, value=out.value * 1.01 + 1e-3)
    if hasattr(out, "values"):
        return dataclasses.replace(out, values=out.values + 1e-3 * np.max(np.abs(out.values)))
    if hasattr(out, "verdict"):
        flipped = "distinct" if out.verdict == "isomorphic_power" else "isomorphic_power"
        return dataclasses.replace(out, verdict=flipped)
    if hasattr(out, "alpha"):
        return dataclasses.replace(out, value=out.value * cmath.exp(1e-6j))
    if isinstance(out, tuple) and hasattr(out[0], "distance"):
        return tuple(dataclasses.replace(rep, distance=1.0 + 20.0 * rep.window) for rep in out)
    if isinstance(out, tuple):
        return (out[0] * 1.01, out[1])
    if isinstance(out, np.ndarray):
        return out + 1e-3 * (1.0 + np.abs(out))
    return out * 1.01 + 1e-3


# per workload, the functions whose check compares against an independent reference
REFERENCED = {
    "point": {"rho_diag", "rho_gradient", "hol_closed"},
    "grid": {"rho_grid", "integral_check", "find_extrema", "compare_bundles"},
    "crosscheck": {"rho_diag", "hol_ode", "rho_cyl_poisson"},
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checker_rejects_wrong_values(workload):
    wl = workloads.WORKLOADS[workload]([7, 0], tiny=True)
    wl.prepare()
    state = {}
    seen = set()
    for op in wl.ops:
        out = op.call(state)
        if op.tag is not None:
            state[op.tag] = out
        assert op.check(out, state), op.name
        if op.func in REFERENCED[workload]:
            assert not op.check(corrupt(out), state), f"{op.name} accepted a wrong value"
            seen.add(op.func)
    assert seen == REFERENCED[workload]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("point", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
