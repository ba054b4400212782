"""Seeded job lists for the three benchmark workloads.

A workload is a list of ``Op``s, each one public call of ``toruskernel``
plus a check of its output.  The seed fixes every input; the shape of a
job list (which bundles, powers, accuracies and resolutions, and how
often each appears) is fixed by the workload, so the work in one pass
does not depend on the seed and runs on different seeds are comparable.

Output checks compare against references from an independent route.
Those references are computed by ``Workload.prepare`` before any timed
pass; in ``crosscheck`` the two routes are both timed operations and
each check compares against the other route's output from the same
pass.

Only names exported by ``toruskernel`` are used, and never ``threads=``:
planned refactors remove the thread pool and the private helpers, and
must be able to run this benchmark unmodified.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import toruskernel as tk

TWO_PI = 2.0 * math.pi
EPS_LEVELS = (1e-8, 1e-10, 1e-12)
N1_TAUS = (1j, 2j, 0.3 + 1.2j, -0.2 + 0.9j)
# generic principally polarized surface: basis [I; Z^T], H = (Im Z)^-1
GENERIC_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
ENUM_CAP = inspect.signature(tk.enumerate_within).parameters["cap"].default
# hol_ode's documented default step policy, passed explicitly so the
# RK4 step count is an exact count of work
ODE_MIN_STEPS = 2000
ODE_STEPS_PER_RATE = 120


@dataclass
class Op:
    """One public call (``call(state)``) and the check of its output
    (``check(out, state)`` returns True when the output is right).

    ``key`` is (torus id, chi phases, k, eps) for calls that prepare a
    loop sum; ``probe(tracer, out)`` runs in traced passes only and calls
    lower layers on the same inputs.  A ``tag`` stores the output in the
    pass state, where later operations of the pass read it.
    """

    layer: str
    func: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]
    key: tuple | None = None
    probe: Callable[[Any, Any], None] | None = None
    tag: Any = None

    @property
    def name(self):
        return f"{self.layer}.{self.func}"


@dataclass
class Workload:
    """A job list plus the untimed reference computations its checks need.

    ``fresh_inputs`` workloads draw new inputs for every pass, so that no
    key repeats across passes either; the others repeat their job list.
    """

    name: str
    ops: list
    refs: list = field(default_factory=list)
    fresh_inputs: bool = True

    def prepare(self):
        for compute in self.refs:
            compute()


@dataclass(frozen=True, eq=False)
class Bundle:
    tid: str
    torus: Any
    chi: Any
    tau: complex | None = None
    d: int | None = None


def _chi(rng, n):
    return tk.Semicharacter(tuple(float(x) for x in rng.random(2 * n)))


def _point(bundle, rng):
    return tk.TorusPoint.from_coords(bundle.torus, rng.random(2 * bundle.torus.n))


def _scale(n, k):
    return (k / TWO_PI) ** n


def _generic_surface():
    return tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), GENERIC_Z.T]),
                             H=np.linalg.inv(GENERIC_Z.imag))


def _n1_bundles(rng, taus, ds):
    return [Bundle(f"n1:{tau}:{d}", tk.standard_torus(tau, d), _chi(rng, 1), tau, d)
            for tau in taus for d in ds]


def ode_steps(torus, k, p, v):
    """RK4 steps of hol_ode's default policy for this loop."""
    emb = torus.embed(np.asarray(v, dtype=float))
    rate = k * math.pi * (abs(torus.hermitian_pair(emb, p.lift))
                          + abs(torus.hermitian_pair(emb, emb)))
    return max(ODE_MIN_STEPS, int(ODE_STEPS_PER_RATE * rate) + 1)


def independent_first_shell(sh):
    """Rank-increasing members of the first shell, in shell order."""
    chosen = []
    for v in sh.S1:
        trial = [u.coords for u in chosen] + [v.coords]
        if np.linalg.matrix_rank(np.array(trial, dtype=float)) > len(chosen):
            chosen.append(v)
    return tuple(chosen)


def holonomy_target(vectors, k, kind):
    value = complex(1.0 if kind == "max" else -1.0)
    return tk.HolonomyTarget(vectors=vectors, targets=(value,) * len(vectors), k=k)


# -- probes (traced passes only) -----------------------------------------------


def probe_prepare(tr, torus, k, eps):
    """Truncation radius and enumeration for (torus, k, eps); returns the
    number of loop terms."""
    with tr.span("kernel.truncation_radius"):
        R = tk.truncation_radius(torus, k, eps)
    with tr.span("lattice.enumerate_within"):
        vectors = tk.enumerate_within(torus, R)
    tr.lattice_count("enumerate_within", len(vectors))
    return len(vectors)


def _series_probe(torus, k, eps):
    def probe(tr, out):
        probe_prepare(tr, torus, k, eps)
        tr.series(out.terms, out.tail, eps)
    return probe


def _offdiag_probe(torus, k, x, y, eps):
    def probe(tr, out):
        with tr.span("kernel.truncation_radius"):
            R = tk.truncation_radius(torus, k, eps)
        with tr.span("lattice.enumerate_shifted"):
            _, _, lengths = tk.enumerate_shifted(torus, np.asarray(y.lift) - np.asarray(x.lift), R)
        tr.lattice_count("enumerate_shifted", len(lengths))
        tr.series(out.terms, out.tail, eps)
    return probe


def _grid_probe(torus, k, eps):
    def probe(tr, out):
        terms = probe_prepare(tr, torus, k, eps)
        tr.grid(out.values.size, terms)
        tr.series(terms, out.tail, eps)
    return probe


def _extrema_probe(torus, chi, k, resolution, eps):
    def probe(tr, out):
        with tr.span("kernel.rho_grid"):
            scan = tk.rho_grid(torus, chi, k, resolution, eps=eps)
        terms = probe_prepare(tr, torus, k, eps)
        tr.grid(scan.values.size, terms)
        tr.series(terms, scan.tail, eps)
        with tr.span("lattice.shells"):
            sh = tk.shells(torus)
        vectors = independent_first_shell(sh)
        for kind in ("max", "min"):
            with tr.span("extrema.solve_holonomy"):
                tk.solve_holonomy(torus, chi, holonomy_target(vectors, k, kind))
        best_max, best_min = float(np.max(scan.values)), float(np.min(scan.values))
        candidates = (int(np.count_nonzero(np.abs(scan.values - best_max) <= 1e-9))
                      + int(np.count_nonzero(np.abs(scan.values - best_min) <= 1e-9)))
        kept = sum(len(rep.tied_locations) for rep in out)
        tr.extrema(candidates, kept)
    return probe


def _compare_probe(torus, chi_a, chi_b, k):
    def probe(tr, out):
        if out.recovered is None:
            return
        for chi in (chi_a, chi_b):
            for i in range(2 * torus.n):
                e = [0] * (2 * torus.n)
                e[i] = 1
                with tr.span("extrema.pushforward_fit"):
                    fit = tk.pushforward_fit(torus, chi, k, e)
                # profile samples times the fiber mesh, at the default sizes
                profile = max(64, 8 * abs(fit.frequency))
                tr.count("extrema.pushforward_fit.fiber_points", profile * 256 ** (2 * torus.n - 1))
    return probe


def _gram_probe(tr, out):
    # build_gram evaluates the quadrature at quad_res and at quad_res // 2
    tr.count("theta.build_gram.quad_points", out.quad_res ** 2 + (out.quad_res // 2) ** 2)


def _ode_probe(steps):
    def probe(tr, out):
        tr.count("holonomy.hol_ode.steps", steps)
    return probe


# -- checks --------------------------------------------------------------------


def density_close(value, ref, halfwidth, scale, rel=1e-7):
    """Relative agreement with a floor near the density's zeros."""
    return abs(value - ref) <= halfwidth + rel * max(abs(ref), 1e-3 * scale)


# -- point ---------------------------------------------------------------------


def point(seed, tiny=False):
    """Single certified values over a fixed bundle pool, mostly rho_diag."""
    rng = np.random.default_rng(seed)
    ks = (1, 2) if tiny else (1, 2, 3, 4)
    eps_levels = (1e-10,) if tiny else EPS_LEVELS
    repeats = 2 if tiny else 6
    n1 = _n1_bundles(rng, N1_TAUS[:1] if tiny else N1_TAUS, (1, 2) if tiny else (1, 2, 3))
    fac_a = Bundle("n1:prod-a", tk.standard_torus(1j, 1), _chi(rng, 1))
    fac_b = Bundle("n1:prod-b", tk.standard_torus(0.3 + 1.2j, 1), _chi(rng, 1))
    prod2 = Bundle("n2:product", tk.product_torus(fac_a.torus, fac_b.torus),
                   tk.Semicharacter(fac_a.chi.phases + fac_b.chi.phases))
    gen2 = Bundle("n2:generic", _generic_surface(), _chi(rng, 2))
    prod3 = Bundle("n3:product",
                   tk.product_torus(prod2.torus, tk.standard_torus(-0.2 + 0.9j, 1)), _chi(rng, 3))

    ops, refs = [], []
    grams = {}

    def gram_for(b, k):
        if (b.tid, k) not in grams:
            basis = tk.build_basis(b.tau, b.d, b.chi, k)
            # quad_res 64 already agrees with the default 128 to ~1e-15
            grams[(b.tid, k)] = (basis, tk.build_gram(basis, quad_res=64))
        return grams[(b.tid, k)]

    def rho_op(b, k, eps, make_ref):
        p = _point(b, rng)
        ref = {}
        refs.append(lambda: ref.update(make_ref(p)))
        return Op("kernel", "rho_diag", lambda s: tk.rho_diag(b.torus, b.chi, k, p, eps=eps),
                  lambda out, state: ref["check"](out), key=(b.tid, b.chi.phases, k, eps),
                  probe=_series_probe(b.torus, k, eps))

    def oracle_ref(b, k):
        def make(p):
            basis, gram = gram_for(b, k)
            o = tk.rho_oracle(basis, gram, p)
            return {"check": lambda out: density_close(
                out.value, o, out.density_halfwidth(1, k), _scale(1, k))}
        return make

    def product_ref(k, eps):
        def make(p):
            xa, xb = np.asarray(p.coords[:2]), np.asarray(p.coords[2:])
            ra = tk.rho_diag(fac_a.torus, fac_a.chi, k, tk.TorusPoint.from_coords(fac_a.torus, xa), eps=eps)
            rb = tk.rho_diag(fac_b.torus, fac_b.chi, k, tk.TorusPoint.from_coords(fac_b.torus, xb), eps=eps)
            ha, hb = ra.density_halfwidth(1, k), rb.density_halfwidth(1, k)
            expect = ra.value * rb.value
            slack = ha * (abs(rb.value) + hb) + hb * abs(ra.value) + 1e-13 * _scale(2, k)
            return {"check": lambda out: abs(out.value - expect)
                    <= out.density_halfwidth(2, k) + slack}
        return make

    def tighter_ref(b, k, eps):
        def make(p):
            r = tk.rho_diag(b.torus, b.chi, k, p, eps=eps * 1e-2)
            n = b.torus.n
            hw = r.density_halfwidth(n, k) + 1e-13 * _scale(n, k)
            return {"check": lambda out: abs(out.value - r.value)
                    <= out.density_halfwidth(n, k) + hw}
        return make

    for b in n1:
        for k in ks:
            for eps in eps_levels:
                for _ in range(repeats):
                    ops.append(rho_op(b, k, eps, oracle_ref(b, k)))
            ops.append(_gradient_op(b, k, rng, refs))
            ops.append(_offdiag_op(b, k, rng, refs, gram_for))
            ops.append(_hol_closed_op(b, k, rng, refs))
    for k in (3, 4) if tiny else ks:
        for eps in eps_levels:
            ops.append(rho_op(prod2, k, eps, product_ref(k, eps)))
            ops.append(rho_op(gen2, k, eps, tighter_ref(gen2, k, eps)))
    # The slowest 1-2% of a pass is one block of equal-cost calls (the
    # generic surface at k = 1, 2124 terms), so the p99 latency sits inside
    # it instead of on the edge between two differently priced calls.
    for _ in range(0 if tiny else 14):
        ops.append(rho_op(gen2, 1, 1e-10, tighter_ref(gen2, 1, 1e-10)))
    for k in (4,) if tiny else (3, 4):
        for eps in (1e-8,) if tiny else EPS_LEVELS:
            ops.append(rho_op(prod3, k, eps, tighter_ref(prod3, k, eps)))
    order = rng.permutation(len(ops))
    # the pool's keys repeat within a pass by design, so the job list is
    # reused across passes and its references are computed once
    return Workload("point", [ops[i] for i in order], refs, fresh_inputs=False)


def _gradient_op(b, k, rng, refs, eps=1e-10, h=1e-6):
    x = rng.random(2)
    p = tk.TorusPoint.from_coords(b.torus, x)
    fd = np.zeros(2)

    def ref():
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            plus = tk.rho_diag(b.torus, b.chi, k, tk.TorusPoint.from_coords(b.torus, x + e), eps=eps)
            minus = tk.rho_diag(b.torus, b.chi, k, tk.TorusPoint.from_coords(b.torus, x - e), eps=eps)
            fd[i] = (plus.value - minus.value) / (2 * h)
    refs.append(ref)

    def check(out, state):
        g = np.asarray(out, dtype=float)
        return g.shape == (2,) and bool(np.all(np.abs(g - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd))))
    return Op("kernel", "rho_gradient", lambda s: tk.rho_gradient(b.torus, b.chi, k, p, eps=eps),
              check, key=(b.tid, b.chi.phases, k, eps))


def _offdiag_op(b, k, rng, refs, gram_for, eps=1e-10):
    x, y = _point(b, rng), _point(b, rng)
    ref = {}

    def compute():
        basis, gram = gram_for(b, k)
        ref["oracle"] = tk.offdiag_oracle(basis, gram, x, y)
    refs.append(compute)

    def check(out, state):
        return ref["oracle"] <= out.value + out.density_halfwidth(1, k) + 1e-13
    return Op("kernel", "offdiag_bound", lambda s: tk.offdiag_bound(b.torus, k, x, y, eps=eps),
              check, key=(b.tid, None, k, eps), probe=_offdiag_probe(b.torus, k, x, y, eps))


def _loop_vector(rng, n, span=3):
    v = rng.integers(-span, span + 1, size=2 * n)
    if not v.any():
        v[0] = 1
    return tuple(int(c) for c in v)


def _hol_closed_op(b, k, rng, refs):
    p, v = _point(b, rng), _loop_vector(rng, b.torus.n)
    ref = {}

    def compute():
        steps = ode_steps(b.torus, k, p, v)
        ref["ode"] = tk.hol_ode(b.torus, b.chi, k, p, v, steps=steps).value
    refs.append(compute)
    return Op("holonomy", "hol_closed", lambda s: tk.hol_closed(b.torus, b.chi, k, p, v),
              lambda out, state: abs(out.value - ref["ode"]) < 1e-8)


# -- grid ----------------------------------------------------------------------

def grid(seed, tiny=False):
    """Whole-torus jobs, each (torus, chi, k, eps) key used once.

    Latencies span three orders of magnitude, so the job list is built in
    blocks of near-equal cost, sized so that the median and the p75 tail
    each fall inside a block rather than on a gap between two jobs.
    """
    rng = np.random.default_rng(seed)
    ops, refs = [], []
    tori = [(tau, d) for tau in N1_TAUS for d in (1, 2, 3)]

    def n1(tau, d):
        return Bundle(f"n1:{tau}:{d}", tk.standard_torus(tau, d), _chi(rng, 1), tau, d)

    def grid_job(b, k, res, eps, cells=4):
        ops.append(_grid_op(b, k, res, eps, rng, refs, cells=cells))

    # cheap block: small n=1 grids and integral checks
    for i in range(2 if tiny else 13):
        grid_job(n1(*tori[i % len(tori)]), 1 + i % 8, 16 if tiny else 64, EPS_LEVELS[i % 3])
    for i in range(1 if tiny else 4):
        ops.append(_integral_op(n1(*tori[3 * i % len(tori)]), 2 + i % 2))
    # median block: n=1 grids at res 128, k = 2, plus the distinct-pair comparison
    for i in range(1 if tiny else 10):
        grid_job(n1(N1_TAUS[i % 4], 1), 2, 32 if tiny else 128, 1e-10)
    sq = tk.standard_torus(1j, 1)
    chi = _chi(rng, 1)
    shift = float(rng.uniform(0.2, 0.8))
    ops.append(_compare_op(sq, chi, tk.Semicharacter((chi.phases[0] + shift, chi.phases[1])),
                           1, "distinct"))
    # tail block: n=1 extrema at odd k, where the scan grid has no tied cells
    for tau in (1j,) if tiny else (1j, -0.2 + 0.9j, 0.3 + 1.2j):
        for k in (1,) if tiny else (1, 3, 5):
            ops.append(_extrema_op(n1(tau, 1), k, 16 if tiny else 32, refs))
    # slowest jobs: extrema at even k, the isomorphic-power comparison, n=2
    for k in () if tiny else (2, 4, 6):
        ops.append(_extrema_op(n1(1j, 1), k, 32, refs))
    chi = _chi(rng, 1)
    half = [(1, 0), (0, 1), (1, 1)][int(rng.integers(3))]
    ops.append(_compare_op(sq, chi, tk.Semicharacter((chi.phases[0] + half[0] / 2,
                                                      chi.phases[1] + half[1] / 2)),
                           2, "isomorphic_power"))
    prod2 = tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1))
    gen2 = _generic_surface()
    n2_jobs = [(gen2, "n2:generic", 4, 6)] if tiny else [
        (prod2, "n2:product", 1, 12), (gen2, "n2:generic", 2, 12)]
    for torus, tid, k, res in n2_jobs:
        grid_job(Bundle(tid, torus, _chi(rng, 2)), k, res, 1e-10, cells=3)
    ops.append(_extrema_op(Bundle("n2:generic", gen2, _chi(rng, 2)), 2, 16, refs))
    order = rng.permutation(len(ops))
    return Workload("grid", [ops[i] for i in order], refs)


def _grid_op(b, k, res, eps, rng, refs, cells=4):
    m = 2 * b.torus.n
    idx = [tuple(int(c) for c in rng.integers(0, res, size=m)) for _ in range(cells)]
    ref = {}

    def compute():
        ref["cells"] = [tk.rho_diag(b.torus, b.chi, k,
                                    tk.TorusPoint.from_coords(b.torus, np.array(i, dtype=float) / res),
                                    eps=eps) for i in idx]
    refs.append(compute)

    def check(out, state):
        if out.values.shape != (res,) * m:
            return False
        hw = out.density_halfwidth
        return all(abs(out.values[i] - r.value) <= hw + r.density_halfwidth(b.torus.n, k) + 1e-12
                   for i, r in zip(idx, ref["cells"]))
    return Op("kernel", "rho_grid", lambda s: tk.rho_grid(b.torus, b.chi, k, res, eps=eps),
              check, key=(b.tid, b.chi.phases, k, eps), probe=_grid_probe(b.torus, k, eps))


def _integral_op(b, k, res=128, eps=1e-12):
    expected = k ** b.torus.n * b.d

    def check(out, state):
        got, exp = out
        return exp == expected and abs(got - exp) <= 5e-3 * exp
    return Op("kernel", "integral_check",
              lambda s: tk.integral_check(b.torus, b.chi, k, resolution=res, eps=eps),
              check, key=(b.tid, b.chi.phases, k, eps))


def _extrema_op(b, k, res, refs, eps=1e-12):
    ref = {}

    def compute():
        vectors = independent_first_shell(tk.shells(b.torus))
        ref["predicted"] = {kind: len(tk.solve_holonomy(b.torus, b.chi,
                                                        holonomy_target(vectors, k, kind)).points)
                            for kind in ("max", "min")}
    refs.append(compute)

    def check(out, state):
        mx, mn = out
        return (mx.value >= mn.value
                and all(len(rep.predicted) == ref["predicted"][rep.kind]
                        and rep.distance <= 10.0 * rep.window for rep in out))
    return Op("extrema", "find_extrema",
              lambda s: tk.find_extrema(b.torus, b.chi, k, resolution=res, eps=eps),
              check, key=(b.tid, b.chi.phases, k, eps),
              probe=_extrema_probe(b.torus, b.chi, k, res, eps))


def _compare_op(torus, chi_a, chi_b, k, verdict, eps=1e-10):
    def check(out, state):
        return out.verdict == verdict and (verdict != "distinct" or out.witness is not None)
    return Op("extrema", "compare_bundles",
              lambda s: tk.compare_bundles(torus, chi_a, chi_b, k, eps=eps), check,
              key=("n1:1j:1", chi_a.phases + chi_b.phases, k, eps),
              probe=_compare_probe(torus, chi_a, chi_b, k))


# -- crosscheck ----------------------------------------------------------------


def crosscheck(seed, tiny=False):
    """The paper's verification routes, each route a timed operation."""
    rng = np.random.default_rng(seed)
    ops = []
    dks = [(1, 1), (2, 2)] if tiny else [(d, k) for d in (1, 2, 3) for k in (1, 2, 3, 4)]
    points, pairs = (4, 2) if tiny else (24, 8)
    for i, (d, k) in enumerate(dks):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
        b = Bundle(f"x{i}:{tau}:{d}", tk.standard_torus(tau, d), _chi(rng, 1), tau, d)
        ops += _oracle_block(b, k, i, points, pairs, rng)

    # short loops at k <= 2 keep every hol_ode between 2000 and ~5000 RK4
    # steps, so transport costs about the same on every seed
    fac = (tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1))
    n2 = (tk.product_torus(*fac), _generic_surface())
    loops = ((1, 0), (0, 1), (1, 1))
    for i in range(4 if tiny else 32):
        if i % 4 == 3:
            torus = n2[(i // 4) % 2]
            v = tuple(int(j == (i // 4) % 4) for j in range(4))
        else:
            torus = tk.standard_torus(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6)), 1)
            v = loops[i % 3]
        b = Bundle(f"h{i}", torus, _chi(rng, torus.n))
        ops += _holonomy_pair(b, 1 + i % 2, _point(b, rng), v, i)

    for i in range(10 if tiny else 100):
        params = tk.CylinderParams(eta=float(rng.uniform(0.5, 2.0)), alpha=float(rng.random()),
                                   k=int(rng.integers(1, 6)), t=float(rng.uniform(-0.73, 1.91)))
        ops += _cylinder_pair(params, i)
    return Workload("crosscheck", ops)


def _oracle_block(b, k, i, points, pairs, rng, eps=1e-12):
    scale = _scale(1, k)
    key = (b.tid, b.chi.phases, k, eps)
    block = [
        Op("theta", "build_basis", lambda s: tk.build_basis(b.tau, b.d, b.chi, k),
           lambda out, state: out.N == k * b.d, tag=("basis", i)),
        Op("theta", "build_gram", lambda s: tk.build_gram(s[("basis", i)]),
           lambda out, state: out.rel_change <= 1e-10 and math.isfinite(out.cond),
           probe=_gram_probe, tag=("gram", i)),
    ]
    for j in range(points):
        p = _point(b, rng)
        tag = ("oracle", i, j)
        block.append(Op(
            "theta", "rho_oracle", lambda s, p=p: tk.rho_oracle(s[("basis", i)], s[("gram", i)], p),
            lambda out, state: math.isfinite(out) and out >= -1e-12 * scale, tag=tag))
        block.append(Op(
            "kernel", "rho_diag", lambda s, p=p: tk.rho_diag(b.torus, b.chi, k, p, eps=eps),
            lambda out, state, tag=tag: density_close(out.value, state[tag],
                                                      out.density_halfwidth(1, k), scale),
            key=key, probe=_series_probe(b.torus, k, eps)))
    for j in range(pairs):
        x, y = _point(b, rng), _point(b, rng)
        tag = ("offdiag", i, j)
        block.append(Op(
            "theta", "offdiag_oracle",
            lambda s, x=x, y=y: tk.offdiag_oracle(s[("basis", i)], s[("gram", i)], x, y),
            lambda out, state: math.isfinite(out) and out >= 0.0, tag=tag))
        block.append(Op(
            "kernel", "offdiag_bound", lambda s, x=x, y=y: tk.offdiag_bound(b.torus, k, x, y, eps=eps),
            lambda out, state, tag=tag: state[tag] <= out.value + out.density_halfwidth(1, k) + 1e-13,
            key=(b.tid, None, k, eps), probe=_offdiag_probe(b.torus, k, x, y, eps)))
    return block


def _holonomy_pair(b, k, p, v, i):
    tag = ("hol", i)
    steps = ode_steps(b.torus, k, p, v)
    return [
        Op("holonomy", "hol_closed", lambda s: tk.hol_closed(b.torus, b.chi, k, p, v),
           lambda out, state: abs(abs(out.value) - 1.0) <= 1e-12, tag=tag),
        Op("holonomy", "hol_ode", lambda s: tk.hol_ode(b.torus, b.chi, k, p, v, steps=steps),
           lambda out, state: abs(out.value - state[tag].value) < 1e-8, probe=_ode_probe(steps)),
    ]


def _cylinder_pair(params, i):
    tag = ("cyl", i)
    return [
        Op("cylinder", "rho_cyl_direct", lambda s: tk.rho_cyl_direct(params),
           lambda out, state: math.isfinite(out) and out > 0.0, tag=tag),
        Op("cylinder", "rho_cyl_poisson", lambda s: tk.rho_cyl_poisson(params),
           lambda out, state: abs(out - state[tag]) <= 1e-11 * abs(state[tag])),
    ]


WORKLOADS = {"point": point, "grid": grid, "crosscheck": crosscheck}
