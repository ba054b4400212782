"""Benchmark for toruskernel: certified densities under three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller and no threads of its own: each
operation (a public call plus the check of its output) starts when the
previous one has finished.  The library is synchronous, so no operation
waits in a queue and no wait time is reported.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics; its spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# one BLAS thread: the caller is single-threaded and runs share the machine
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# the bundle behind setup_s: tau = 0.3 + 1.2i, d = 1, a twisted chi, k = 2
SETUP_CONFIG = {
    "n": 1,
    "basis": [[1.0, 0.0], [0.3, 1.2]],
    "H": [[{"re": 1.0 / 1.2, "im": 0.0}]],
    "chi_phases": [0.3, 0.0],
    "k": 2,
}
SETUP_POINT = (0.25, 0.5)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("point", "grid", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest job lists and one set-up sample (smoke test)")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_python(args, env, timeout=120):
    """Wall seconds of a fresh interpreter running ``args``, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return wall, proc.stdout


def measure_setup(samples, env):
    """setup_s samples: fresh `python -m toruskernel rho` runs, one at a time."""
    OUT.mkdir(exist_ok=True)
    config = OUT / "setup_bundle.json"
    config.write_text(json.dumps(SETUP_CONFIG))
    walls, values = [], set()
    for _ in range(samples):
        wall, stdout = timed_python(["-m", "toruskernel", "rho", "--config", str(config),
                                     "--point", ",".join(map(str, SETUP_POINT))], env)
        walls.append(wall)
        values.update(line.split("=", 1)[1].strip() for line in stdout.splitlines()
                      if line.startswith("value ="))
    return walls, values, config


def measure_imports(samples, env):
    """Median fresh-interpreter import times of numpy and toruskernel, in ms."""
    out = {}
    for module in ("numpy", "toruskernel"):
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(time.perf_counter() - t)")
        out[module] = statistics.median(
            float(timed_python(["-c", code], env)[1]) * 1e3 for _ in range(samples))
    return out


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(ops_per_pass):
    """Highest percentile leaving at least 10 of a pass's operations beyond it."""
    for q in TAIL_PERCENTILES:
        if ops_per_pass * (1.0 - q / 100.0) >= 10:
            return q
    return TAIL_PERCENTILES[-1]


def blas_threads():
    """Thread count reported by numpy's OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    import platform

    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads_set": int(BLAS_THREADS), "blas_threads_reported": blas_threads()}


class Runner:
    """Runs passes over a workload's job list, one operation at a time."""

    def __init__(self, build, seed, tiny):
        self.build = build
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._fixed = None

    def workload(self, index):
        """The job list of pass ``index``, with its references computed."""
        if self._fixed is not None:
            return self._fixed
        wl = self.build([self.seed, index], tiny=self.tiny)
        wl.prepare()
        if not wl.fresh_inputs:
            self._fixed = wl
        return wl

    def run_pass(self, wl, latencies=None, tracer=None):
        state = {}
        start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            ok = self._run_op(op, state, i, tracer)
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
            self.attempted += 1
            if not ok:
                self.failed += 1
        return time.perf_counter() - start

    def _run_op(self, op, state, i, tracer):
        try:
            if tracer is None:
                out = op.call(state)
            else:
                tracer.op_id = i
                with tracer.span(op.name) as sid:
                    out = op.call(state)
            if op.tag is not None:
                state[op.tag] = out
            ok = bool(op.check(out, state))
            if tracer is not None and op.probe is not None:
                with tracer.under(sid):
                    op.probe(tracer, out)
            reason = "output check failed"
        except Exception as exc:  # a raising operation counts as failed; keep going
            ok = False
            reason = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"{op.name} (op {i}): {reason}")
        return ok


def timed_run(runner, seconds):
    """Passes until the next one would overrun ``seconds``; at least one."""
    walls, latencies = [], []
    spent = 0.0
    while True:
        wl = runner.workload(len(walls))
        walls.append(runner.run_pass(wl, latencies))
        spent += walls[-1]
        if spent + walls[-1] > seconds:
            return walls, latencies, len(wl.ops)


def traced_run(runner):
    from tracing import Tracer

    plain = runner.run_pass(runner.workload(0))
    wl = runner.workload(1)
    tracer = Tracer()
    traced = runner.run_pass(wl, tracer=tracer)
    metrics = tracer.metrics([op.key for op in wl.ops])
    metrics["bench.trace_overhead_frac"] = traced / plain - 1.0
    return metrics, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toruskernel" / "__init__.py").is_file():
        print(f"error: no toruskernel sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    env = child_env()
    samples = 1 if args.tiny else 5
    if args.trace:
        imports = measure_imports(1 if args.tiny else 3, env)
    else:
        setup_walls, setup_values, setup_config = measure_setup(samples, env)

    import toruskernel as tk
    from workloads import WORKLOADS

    # the first public call pays the lazy sign calibration
    torus = tk.standard_torus(1j, 1)
    t0 = time.perf_counter()
    tk.rho_diag(torus, tk.Semicharacter.trivial(1), 1, tk.TorusPoint.from_coords(torus, [0.25, 0.5]))
    first_call_ms = (time.perf_counter() - t0) * 1e3

    facts = machine_facts()
    runner = Runner(WORKLOADS[args.workload], args.seed, args.tiny)
    correct = True
    info = {"workload": args.workload, "seed": args.seed, "machine": facts,
            "loop": "closed, one caller; the library is synchronous, so there is no "
                    "queue and no wait time to report"}
    if args.trace:
        metrics, tracer = traced_run(runner)
        metrics["setup.import_ms"] = imports["toruskernel"]
        metrics["setup.numpy_import_ms"] = imports["numpy"]
        metrics["setup.first_call_ms"] = first_call_ms
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        from tracing import LAYER_METRICS
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        walls, latencies, ops_per_pass = timed_run(runner, args.seconds)
        cfg = tk.load_bundle(setup_config)
        expect = tk.rho_diag(cfg.torus, cfg.chi, cfg.k,
                             tk.TorusPoint.from_coords(cfg.torus, SETUP_POINT), eps=1e-10).value
        setup_ok = (len(setup_values) == 1
                    and abs(float(next(iter(setup_values))) - expect) <= 1e-14 * abs(expect))
        if not setup_ok:
            correct = False
            runner.failures.append(f"setup: CLI printed {sorted(setup_values)}, in-process {expect!r}")
        lat = sorted(x * 1e3 for x in latencies)
        q = tail_percentile(ops_per_pass)
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(lat, 50.0),
            "op_tail_ms": percentile(lat, q),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MB", "ok_frac": "fraction"}
        info.update({"pass_walls_s": [round(w, 4) for w in walls], "ops_per_pass": ops_per_pass,
                     "op_samples": len(lat), "tail_percentile": q,
                     "setup_samples": len(setup_walls)})
        samples = {"setup_s": f"median of {len(setup_walls)} processes",
                   "wall_s": f"median of {len(walls)} passes",
                   "op_p50_ms": f"p50 of {len(lat)} operations",
                   "op_tail_ms": f"p{q:g} of {len(lat)} operations",
                   "peak_rss_mb": "ru_maxrss", "ok_frac": f"of {runner.attempted} operations"}
        for name in units:
            print(f"{name:>12} = {metrics[name]:<10.6g} {units[name]:<9} {samples[name]}",
                  file=sys.stderr)
    for line in runner.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    correct = correct and runner.failed == 0
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
