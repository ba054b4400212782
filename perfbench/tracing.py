"""Spans and counts recorded by the benchmark around its calls into the
library, and the per-layer metrics derived from them.

The layers are the package's modules.  Spans are opened only from the
benchmark's own code: one span per public call an operation makes, and
"probe" spans for lower-layer public functions called again on the same
inputs after the operation, so that self times can be taken from outside
the program.  Spans stay in memory and are written once, at the end of a
traced run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import ENUM_CAP

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "lattice.enumerate_within.calls": ("count", "lower", "point op_tail_ms and wall_s"),
    "lattice.enumerate_within.busy_ms": ("ms", "lower", "point op_tail_ms and wall_s"),
    "lattice.enumerate_within.vectors": ("count", "lower", "point op_tail_ms and wall_s"),
    "lattice.enumerate_shifted.calls": ("count", "lower", "point op_tail_ms and wall_s"),
    "lattice.enumerate_shifted.busy_ms": ("ms", "lower", "point op_tail_ms and wall_s"),
    "lattice.enumerate_shifted.vectors": ("count", "lower", "point op_tail_ms and wall_s"),
    "lattice.cap_headroom_min": ("ratio", "higher", "guards ok_frac on every workload"),
    "lattice.shells.busy_ms": ("ms", "lower", "grid op_p50_ms"),
    "kernel.truncation_radius.calls": ("count", "lower", "point op_p50_ms"),
    "kernel.truncation_radius.busy_ms": ("ms", "lower", "point op_p50_ms"),
    "kernel.rho_diag.calls": ("count", "lower", "point op_p50_ms, crosscheck wall_s"),
    "kernel.rho_diag.busy_ms": ("ms", "lower", "point op_p50_ms, crosscheck wall_s"),
    "kernel.rho_diag.self_ms": ("ms", "lower", "point op_p50_ms, crosscheck wall_s"),
    "kernel.terms": ("count", "lower", "point wall_s; grid wall_s through term_points"),
    "kernel.tail_over_eps.median": ("ratio", "higher", "certificate slack; lower terms, point wall_s"),
    "kernel.tail_over_eps.max": ("ratio", "higher", "must stay <= 1 (certificate); point wall_s"),
    "kernel.rho_gradient.busy_ms": ("ms", "lower", "point op_tail_ms"),
    "kernel.offdiag_bound.busy_ms": ("ms", "lower", "point op_tail_ms"),
    "kernel.rho_grid.calls": ("count", "lower", "grid wall_s and peak_rss_mb"),
    "kernel.rho_grid.busy_ms": ("ms", "lower", "grid wall_s and peak_rss_mb"),
    "kernel.rho_grid.points": ("count", "lower", "grid wall_s and peak_rss_mb"),
    "kernel.rho_grid.term_points": ("count", "lower", "grid wall_s and peak_rss_mb"),
    "kernel.integral_check.busy_ms": ("ms", "lower", "grid wall_s"),
    "kernel.bundle_key_repeat_share": ("fraction", "higher", "what a cache claim cites: point, crosscheck"),
    "kernel.lattice_key_repeat_share": ("fraction", "higher", "what a cache claim cites: point, crosscheck"),
    "extrema.find_extrema.calls": ("count", "lower", "grid wall_s and op_tail_ms"),
    "extrema.find_extrema.busy_ms": ("ms", "lower", "grid wall_s and op_tail_ms"),
    "extrema.find_extrema.refine_ms": ("ms", "lower", "grid wall_s and op_tail_ms"),
    "extrema.find_extrema.candidates": ("count", "lower", "grid wall_s and op_tail_ms"),
    "extrema.kept_over_refined": ("fraction", "higher", "grid wall_s (useful refinements)"),
    "extrema.solve_holonomy.busy_ms": ("ms", "lower", "grid op_tail_ms"),
    "extrema.compare_bundles.busy_ms": ("ms", "lower", "grid wall_s"),
    "extrema.pushforward_fit.busy_ms": ("ms", "lower", "grid wall_s"),
    "extrema.pushforward_fit.fiber_points": ("count", "lower", "grid wall_s"),
    "theta.build_basis.busy_ms": ("ms", "lower", "crosscheck wall_s"),
    "theta.build_gram.calls": ("count", "lower", "crosscheck wall_s"),
    "theta.build_gram.busy_ms": ("ms", "lower", "crosscheck wall_s and op_tail_ms"),
    "theta.build_gram.quad_points": ("count", "lower", "crosscheck wall_s"),
    "theta.rho_oracle.busy_ms": ("ms", "lower", "crosscheck wall_s"),
    "theta.offdiag_oracle.busy_ms": ("ms", "lower", "crosscheck wall_s"),
    "holonomy.hol_closed.busy_ms": ("ms", "lower", "crosscheck wall_s and op_p50_ms"),
    "holonomy.hol_ode.calls": ("count", "lower", "crosscheck wall_s and op_p50_ms"),
    "holonomy.hol_ode.busy_ms": ("ms", "lower", "crosscheck wall_s and op_p50_ms"),
    "holonomy.hol_ode.steps": ("count", "lower", "crosscheck wall_s and op_p50_ms"),
    "cylinder.rho_cyl_direct.busy_ms": ("ms", "lower", "crosscheck op_p50_ms"),
    "cylinder.rho_cyl_poisson.busy_ms": ("ms", "lower", "crosscheck op_p50_ms"),
    "setup.import_ms": ("ms", "lower", "setup_s on every workload"),
    "setup.numpy_import_ms": ("ms", "lower", "setup_s floor on every workload"),
    "setup.first_call_ms": ("ms", "lower", "setup_s on every workload"),
    "bench.trace_overhead_frac": ("fraction", "lower", "none: cost of the traced pass itself"),
}


class Tracer:
    """In-memory spans (name, start, end, parent span, operation id) and
    the counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.counts = defaultdict(int)
        self.tail_over_eps = []
        self._stack = []
        self._max_vectors = 0

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, sid):
        """Make ``sid`` the parent of the spans opened inside."""
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] += value

    def lattice_count(self, func, vectors):
        self.counts[f"lattice.{func}.vectors"] += vectors
        self._max_vectors = max(self._max_vectors, vectors)

    def series(self, terms, tail, eps):
        """One certified loop sum: its term count and tail certificate."""
        self.counts["kernel.terms"] += terms
        self.tail_over_eps.append(tail / eps)

    def grid(self, points, terms):
        self.counts["kernel.rho_grid.points"] += points
        self.counts["kernel.rho_grid.term_points"] += points * terms

    def extrema(self, candidates, kept):
        self.counts["extrema.find_extrema.candidates"] += candidates
        self.counts["extrema.kept"] += kept

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

    def metrics(self, keys):
        """Per-layer metrics of the traced pass; ``keys`` are the pass's
        operation keys in order (None for calls with no loop sum)."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            busy[name] += (end - start) * 1e3
            calls[name] += 1
        out = {name: 0.0 for name in LAYER_METRICS}
        for name in out:
            base, _, stat = name.rpartition(".")
            if stat == "busy_ms":
                out[name] = busy[base]
            elif stat == "calls":
                out[name] = calls[base]
        out.update({k: v for k, v in self.counts.items() if k in out})
        out["kernel.rho_diag.self_ms"] = self._self_ms("kernel.rho_diag", (
            "kernel.truncation_radius", "lattice.enumerate_within"))
        out["extrema.find_extrema.refine_ms"] = self._self_ms("extrema.find_extrema", (
            "kernel.rho_grid", "lattice.shells"))
        if self._max_vectors:
            out["lattice.cap_headroom_min"] = ENUM_CAP / self._max_vectors
        if self.tail_over_eps:
            out["kernel.tail_over_eps.median"] = statistics.median(self.tail_over_eps)
            out["kernel.tail_over_eps.max"] = max(self.tail_over_eps)
        if self.counts["extrema.find_extrema.candidates"]:
            out["extrema.kept_over_refined"] = (self.counts["extrema.kept"]
                                                / self.counts["extrema.find_extrema.candidates"])
        keyed = [k for k in keys if k is not None]
        if keyed:
            out["kernel.bundle_key_repeat_share"] = 1.0 - len(set(keyed)) / len(keyed)
            lattice_keys = [(tid, k, eps) for tid, _, k, eps in keyed]
            out["kernel.lattice_key_repeat_share"] = 1.0 - len(set(lattice_keys)) / len(keyed)
        return out

    def _self_ms(self, name, children):
        """Summed span time of ``name`` minus its probe children's."""
        total = 0.0
        probes = defaultdict(float)
        for sid, (span, start, end, parent, _) in enumerate(self.spans):
            if span == name:
                total += end - start
            elif span in children and parent is not None and self.spans[parent][0] == name:
                probes[parent] += end - start
        return (total - sum(probes.values())) * 1e3
