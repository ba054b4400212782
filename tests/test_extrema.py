"""Extremum location, holonomy congruences, pushforward, comparison."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

import toruskernel as tk
from toruskernel.extrema import _independent_first_shell, _refine, _round12
from toruskernel.intlin import extended_gcd_row, smith_normal_form
from toruskernel.kernel import _grid_values, _prepare

from conftest import random_chi

TWO_PI = 2 * math.pi


def circ(a, b):
    return abs((a - b + 0.5) % 1.0 - 0.5)


def test_smith_normal_form_properties(rng):
    for _ in range(12):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        M = rng.integers(-9, 10, size=(m, n))
        U, D, V = smith_normal_form(M)
        assert np.array_equal(np.array(U @ np.array(M, dtype=object) @ V, dtype=object), D)
        # unimodular transforms
        assert abs(round(float(np.linalg.det(np.array(U, dtype=float))))) == 1
        assert abs(round(float(np.linalg.det(np.array(V, dtype=float))))) == 1
        diag = [int(D[i, i]) for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        off = [D[i, j] for i in range(m) for j in range(n) if i != j]
        assert all(int(x) == 0 for x in off)


def test_extended_gcd_row(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        r = rng.integers(-9, 10, size=n)
        if not np.any(r):
            r[0] = 3
        g, c, kernel = extended_gcd_row(r)
        assert g == math.gcd(*[int(x) for x in r])
        assert int(np.array(r, dtype=object) @ c) == g
        K = np.array(kernel, dtype=object)
        assert K.shape == (n, n - 1)
        assert all(int(x) == 0 for x in np.array(r, dtype=object) @ K)


def test_solve_holonomy_square(sq1, chi0):
    """Unit targets on the basis loops pin the base point completely."""
    for tgt, want in ((1.0, (0.0, 0.0)), (-1.0, (0.5, 0.5))):
        sol = tk.solve_holonomy(sq1, chi0, tk.HolonomyTarget(
            vectors=((1, 0), (0, 1)), targets=(complex(tgt),) * 2, k=1))
        assert not sol.underdetermined
        assert len(sol.points) == 1
        assert sol.points[0].coords == want
        # the solved point really achieves the targets
        for v in ((1, 0), (0, 1)):
            hol = tk.hol_closed(sq1, chi0, 1, sol.points[0], v)
            assert abs(hol.value - tgt) < 1e-10


def test_solve_holonomy_doubled_form(d2, chi0):
    # doubled pairing halves the congruence scale: four solutions
    sol = tk.solve_holonomy(d2, chi0, tk.HolonomyTarget(
        vectors=((1, 0), (0, 1)), targets=(1.0 + 0j, 1.0 + 0j), k=1))
    got = sorted(tuple(round(c, 9) for c in p.coords) for p in sol.points)
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_solve_holonomy_underdetermined(rect, chi0):
    sol = tk.solve_holonomy(rect, chi0, tk.HolonomyTarget(
        vectors=((1, 0),), targets=(1.0 + 0j,), k=1), mesh=4)
    assert sol.underdetermined
    assert len(sol.free_directions) == 1
    assert len(sol.points) > 1


def test_solve_holonomy_inconsistent(sq1, chi0):
    with pytest.raises(tk.InconsistentSystem):
        tk.solve_holonomy(sq1, chi0, tk.HolonomyTarget(
            vectors=((1, 0), (2, 0)), targets=(1.0 + 0j, -1.0 + 0j), k=1))


@pytest.mark.parametrize("vectors,targets", [(((1, 0), (0, 1)), (1.0 + 0j,)),
                                             (((1, 0),), (1.0 + 0j, -1.0 + 0j))])
def test_solve_holonomy_rejects_count_mismatch(sq1, chi0, vectors, targets):
    """2 vectors and 1 target used to pin the second constraint to
    whatever np.empty held and return the point (0.0, 0.7)."""
    with pytest.raises(tk.ValidationError, match="targets"):
        tk.solve_holonomy(sq1, tk.Semicharacter((0.3, 0.0)), tk.HolonomyTarget(
            vectors=vectors, targets=targets, k=1))


def test_solve_holonomy_rejects_off_circle(sq1, chi0):
    with pytest.raises(tk.ValidationError):
        tk.solve_holonomy(sq1, chi0, tk.HolonomyTarget(
            vectors=((1, 0),), targets=(2.0 + 0j,), k=1))


def _reference_solve_holonomy(torus, chi, target, mesh=8):
    """The former point-by-point solver, kept as a reference: its own
    branch for an empty target, and one matvec per itertools.product
    combination of the Smith-row choices and the free-direction mesh."""
    k = target.k
    vecs = [tk.LatticeVector.from_coords(torus, v) for v in target.vectors]
    m = len(vecs)
    two_n = 2 * torus.n
    if m == 0:
        reps = [tk.TorusPoint.from_coords(torus, np.array(c) / mesh)
                for c in itertools.product(range(mesh), repeat=two_n)]
        free = tuple(tuple(int(e) for e in np.eye(two_n, dtype=int)[i]) for i in range(two_n))
        return tk.HolonomySolutions(points=tuple(reps), underdetermined=True,
                                    free_directions=free)
    C = np.array([v.coords for v in vecs], dtype=object)
    M = (k * tk.lattice.HOL_SIGN) * (C @ np.array(torus.E, dtype=object))
    b = np.empty(m)
    for j, (v, t) in enumerate(zip(vecs, target.targets)):
        t = complex(t)
        b[j] = (math.atan2(t.imag, t.real) / TWO_PI
                + k * tk.chi_phase_turns(chi, torus, v.coords)) % 1.0
    U, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(min(m, two_n)) if D[i, i] != 0)
    w = np.array(U, dtype=float) @ b
    choices = []
    for i in range(rank):
        d = int(D[i, i])
        base = w[i] % 1.0
        choices.append([((base + j) / d) % 1.0 for j in range(d)])
    free_idx = list(range(rank, two_n))
    for _ in free_idx:
        choices.append([j / mesh for j in range(mesh)])
    Vf = np.array(V, dtype=float)
    pts = []
    for combo in itertools.product(*choices):
        x = (Vf @ np.array(combo, dtype=float)) % 1.0
        pts.append(tuple(round(float(c) % 1.0, 12) % 1.0 for c in x))
    points = tuple(tk.TorusPoint.from_coords(torus, np.array(p)) for p in sorted(set(pts)))
    free = tuple(tuple(int(V[j, i]) for j in range(two_n)) for i in free_idx)
    return tk.HolonomySolutions(points=points, underdetermined=bool(free_idx),
                                free_directions=free)


_N1 = {"sq1": (1j, 1), "d2": (1j, 2), "skew": (0.3 + 1.2j, 1), "rect": (2j, 2)}
_TW1, _TW2 = (0.37, 0.81), (0.11, 0.52, 0.73, 0.29)
_BASIS = ((1, 0), (0, 1))
_SOLVE_INPUTS = (
    [(name, phases, _BASIS, (hol, hol), k, 8) for name in ("sq1", "d2", "skew")
     for phases in ((0.0, 0.0), _TW1) for hol in (1, -1) for k in range(1, 5)]
    + [("rect", (0.0, 0.0), ((1, 0),), (1,), 1, 4), ("sq1", _TW1, (), (), 1, 8),
       ("product", _TW2, (), (), 2, 4)]
    # the generic surface's first shell spans rank 1: 2 * 8^3 points
    + [("generic", _TW2, "first shell", hol, 2, 8) for hol in (1, -1)]
    # non-basis loops, so that V in U M V = D is not symmetric
    + [("skew", _TW1, ((1, 2), (1, -1)), (1, -1), k, 8) for k in range(1, 4)]
    + [("skew", _TW1, ((3, 1),), (1j,), 2, 8),
       ("product", _TW2, ((1, 1, 0, 0), (0, 1, 1, 1)), (-1, 1j), 1, 4)]
)


def _solve_id(name, phases, vectors, targets, k, mesh):
    loops = "shell" if isinstance(vectors, str) else "_".join(
        "".join(map(str, v)) for v in vectors) or "none"
    return f"{name}-{'tw' if any(phases) else 'chi0'}-{loops}-{targets}-k{k}".replace(" ", "")


@pytest.mark.parametrize("name,phases,vectors,targets,k,mesh", _SOLVE_INPUTS,
                         ids=[_solve_id(*c) for c in _SOLVE_INPUTS])
def test_solve_holonomy_matches_reference_solver(name, phases, vectors, targets, k, mesh):
    """One coordinate array and one Smith path for every target count give
    the former solver's points bit for bit, in the same order."""
    if name == "product":
        torus = _product_surface()
    elif name == "generic":
        torus = tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]),
                                  H=np.linalg.inv(_Z.imag))
    else:
        torus = tk.standard_torus(*_N1[name])
    if vectors == "first shell":
        vectors = tuple(v.coords for v in _independent_first_shell(tk.shells(torus)))
        targets = (targets,) * len(vectors)
    chi = tk.Semicharacter(phases)
    target = tk.HolonomyTarget(vectors=vectors, targets=tuple(map(complex, targets)), k=k)
    got = tk.solve_holonomy(torus, chi, target, mesh=mesh)
    want = _reference_solve_holonomy(torus, chi, target, mesh=mesh)
    assert [p.coords for p in got.points] == [p.coords for p in want.points]
    assert got.underdetermined == want.underdetermined
    assert got.free_directions == want.free_directions
    if name == "generic":
        assert len(got.points) == 1024


def test_find_extrema_square(sq1, chi0):
    mx, mn = tk.find_extrema(sq1, chi0, 1)
    assert all(circ(c, 0.0) < 1e-6 for c in mx.location.coords)
    assert abs(TWO_PI * mx.value - 1.6692536833481473) < 1e-9
    assert all(circ(c, 0.5) < 1e-6 for c in mn.location.coords)
    assert abs(mn.value) < 1e-12
    sh = tk.shells(sq1)
    assert mx.window == pytest.approx(math.exp(0.25 * (sh.l1 ** 2 - sh.l2 ** 2)))
    assert mx.distance < 1e-6


def test_find_extrema_doubled_form(d2, chi0):
    """Doubled pairing ties four translated maxima at equal height."""
    mx, _ = tk.find_extrema(d2, chi0, 1)
    ties = sorted(tuple(round(c, 6) % 1.0 for c in p.coords) for p in mx.tied_locations)
    assert ties == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    assert abs(TWO_PI * mx.value - 1.1803405990160964) < 1e-9
    assert mx.distance < 1e-8
    assert len(mx.predicted) == 4


def test_find_extrema_twisted(sq1):
    """A generic flat twist moves the peak to the holonomy-1 point."""
    chi = tk.Semicharacter((0.3, 0.0))
    mx, _ = tk.find_extrema(sq1, chi, 1)
    assert circ(mx.location.coords[0], 0.0) < 1e-6
    assert circ(mx.location.coords[1], 0.7) < 1e-6
    for v in ((1, 0), (0, 1)):
        hol = tk.hol_closed(sq1, chi, 1, mx.location, v)
        assert abs(hol.value - 1.0) < 1e-6


def test_find_extrema_rejects_small_resolution(sq1, chi0):
    with pytest.raises(tk.ValidationError):
        tk.find_extrema(sq1, chi0, 1, resolution=8)


def _reference_refine(prep, x0, sgn):
    """The former two-stage refinement, kept as a reference: Nelder-Mead
    on -sgn*rho from a grid cell, then up to 12 capped Newton steps kept
    only while they improve."""
    best_x = np.array(x0, dtype=float)
    best_v = sgn * prep.density(best_x)
    res = optimize.minimize(lambda x: -sgn * prep.density(x), best_x, method="Nelder-Mead",
                            options={"maxiter": 640, "xatol": 1e-11, "fatol": 1e-15})
    if sgn * prep.density(res.x) > best_v:
        best_x, best_v = np.array(res.x), sgn * prep.density(res.x)
    for _ in range(12):
        try:
            step = np.linalg.solve(prep.hessian(best_x), -prep.gradient(best_x))
        except np.linalg.LinAlgError:
            break
        step *= min(1.0, 0.25 / max(float(np.max(np.abs(step))), 1e-300))
        v = sgn * prep.density(best_x + step)
        if not v > best_v:
            break
        best_x, best_v = best_x + step, v
    return best_x % 1.0, sgn * best_v


def _reference_extrema(torus, chi, k, resolution):
    """{kind: (value, tied locations)} by grid scan and the reference refiner."""
    prep = _prepare(torus, chi, k, eps=1e-12)
    values = tk.rho_grid(torus, chi, k, resolution, eps=1e-12).values
    out = {}
    for kind, sgn in (("max", 1.0), ("min", -1.0)):
        best = sgn * np.max(sgn * values)
        cells = sorted(tuple(c) for c in np.argwhere(np.abs(values - best) <= 1e-9))
        refined = [_reference_refine(prep, np.array(c, dtype=float) / resolution, sgn)
                   for c in cells]
        opt = sgn * max(sgn * v for _, v in refined)
        ties = []
        for x, v in refined:
            if abs(v - opt) <= 1e-9 and all(max(map(circ, x, t)) >= 1e-6 for t in ties):
                ties.append(x)
        out[kind] = (opt, ties)
    return out


_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])


def _reference_torus(tau, d):
    if tau is None:
        return tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]), H=np.linalg.inv(_Z.imag))
    return tk.standard_torus(tau, d)


_REFERENCE_INPUTS = (
    [(name, tau, d, phases, k, 32) for name, tau, d, phases in (
        ("sq1", 1j, 1, (0.0, 0.0)), ("d2", 1j, 2, (0.0, 0.0)),
        ("tau1", -0.2 + 0.9j, 1, (0.37, 0.81)), ("tau2", 0.3 + 1.2j, 1, (0.64, 0.12)))
     for k in range(1, 7)]
    # flat landscape: the density varies by 6e-7 relative along one
    # direction only, so the Hessian is singular
    + [("flat", 2j, 2, (0.37, 0.81), 10, 32),
       ("generic", None, None, (0.11, 0.52, 0.73, 0.29), 2, 16)]
)


@pytest.mark.parametrize("name,tau,d,phases,k,res", _REFERENCE_INPUTS,
                         ids=[f"{c[0]}-k{c[4]}" for c in _REFERENCE_INPUTS])
def test_find_extrema_matches_reference_refiner(name, tau, d, phases, k, res):
    """Damped Newton reaches the extremum values of Nelder-Mead plus
    Newton; on d = 1 tori it also finds the same tied locations."""
    torus = _reference_torus(tau, d)
    chi = tk.Semicharacter(phases)
    ref = _reference_extrema(torus, chi, k, res)
    scale = (k / TWO_PI) ** torus.n
    for rep in tk.find_extrema(torus, chi, k, resolution=res):
        value, ties = ref[rep.kind]
        assert abs(rep.value - value) <= 1e-12 * scale
        if torus.n == 1 and d == 1:
            got = [p.coords for p in rep.tied_locations]
            assert len(got) == len(ties)
            for t in ties:
                assert min(max(map(circ, t, g)) for g in got) < 1e-6


def _refine_candidate(prep, x0, kind):
    """The former refiner, one candidate at a time, kept as a reference:
    damped Newton ascent on f = +rho (maxima) or -rho (minima) from x0,
    with the step rules that ``_refine`` applies to each of its rows."""
    sgn = 1.0 if kind == "max" else -1.0
    x = np.array(x0, dtype=float)
    f = sgn * float(prep.density(x))
    for _ in range(tk.extrema.REFINE_ITERS):
        g = sgn * prep.gradient(x)
        g_max = float(np.max(np.abs(g)))
        if g_max == 0.0:
            break
        try:
            step = np.linalg.solve(sgn * prep.hessian(x), -g)
        except np.linalg.LinAlgError:
            step = np.zeros_like(g)
        if not g @ step > 0.0:
            step = g / g_max
        limit = float(np.max(np.abs(step)))
        if limit > 0.25:
            step *= 0.25 / limit
        while np.max(np.abs(step)) >= 2.0 ** -50:
            f_new = sgn * float(prep.density(x + step))
            if f_new > f:
                break
            step *= 0.5
        else:
            break
        x, f = x + step, f_new
    return x % 1.0, sgn * f


_REFINER_INPUTS = _REFERENCE_INPUTS + [("product-chi0", "product", None, (0.0,) * 4, 1, 16)]


@pytest.mark.parametrize("name,tau,d,phases,k,res", _REFINER_INPUTS,
                         ids=[f"{c[0]}-k{c[4]}" for c in _REFINER_INPUTS])
def test_batched_refiner_matches_former_refiner(name, tau, d, phases, k, res):
    """Every tied cell of both kinds, refined in one batch, lands where the
    one-candidate refiner takes it; product-chi0 has 511 tied minima."""
    torus = _product_surface() if tau == "product" else _reference_torus(tau, d)
    prep = _prepare(torus, tk.Semicharacter(phases), k, eps=1e-12)
    values = _grid_values(prep, res)
    cells = {kind: np.argwhere(np.abs(values - best) <= 1e-9)
             for kind, best in (("max", np.max(values)), ("min", np.min(values)))}
    X0 = np.concatenate([cells["max"], cells["min"]]) / res
    sgn = np.repeat([1.0, -1.0], [len(cells["max"]), len(cells["min"])])
    X, F = _refine(prep, X0, sgn)
    kinds = ["max"] * len(cells["max"]) + ["min"] * len(cells["min"])
    if name == "product-chi0":
        assert len(cells["min"]) == 511
    scale = (k / TWO_PI) ** torus.n
    for x0, kind, x, f in zip(X0, kinds, X, F):
        want_x, want_f = _refine_candidate(prep, x0, kind)
        assert abs(f - want_f) <= 1e-13 * scale
        assert max(map(circ, x, want_x)) <= 1e-9


def _former_refine(prep, X, sgn):
    """The former batched refiner, kept as a reference: the Hessian from fresh
    cosines at every step, and the halvings of every searching row tried one
    level at a time, each level one density call."""
    X = np.array(X, dtype=float)
    F = sgn * prep.density(X)
    live = np.arange(len(X))
    for _ in range(tk.extrema.REFINE_ITERS):
        G = sgn[live, None] * prep.gradient(X[live])
        g_max = np.max(np.abs(G), axis=1)
        live, G, g_max = live[g_max > 0.0], G[g_max > 0.0], g_max[g_max > 0.0]
        if not live.size:
            break
        step = tk.extrema._newton_steps(sgn[live, None, None] * prep.hessian(X[live]), G)
        uphill = (G[:, None, :] @ step[:, :, None])[:, 0, 0] > 0.0
        step = np.where(uphill[:, None], step, G / g_max[:, None])
        step *= (0.25 / np.maximum(np.max(np.abs(step), axis=1), 0.25))[:, None]
        moved = np.zeros(len(live), dtype=bool)
        search = np.flatnonzero(np.max(np.abs(step), axis=1) >= 2.0 ** -50)
        while search.size:
            rows = live[search]
            f = sgn[rows] * prep.density(X[rows] + step[search])
            up = f > F[rows]
            X[rows[up]] += step[search[up]]
            F[rows[up]] = f[up]
            moved[search[up]] = True
            search = search[~up]
            step[search] *= 0.5
            search = search[np.max(np.abs(step[search]), axis=1) >= 2.0 ** -50]
        live = live[moved]
    return X % 1.0, sgn * F


@pytest.mark.parametrize("name,tau,d,phases,k,res", _REFERENCE_INPUTS,
                         ids=[f"{c[0]}-k{c[4]}" for c in _REFERENCE_INPUTS])
def test_batched_halvings_are_bit_identical_to_one_at_a_time(name, tau, d, phases, k, res):
    """All halvings of the rows whose full step fails, tried in one batch (in
    calls of len(X) points, or of as many as the grid's budget allows), and
    the kept cosines give the former refiner's points and values bit for bit."""
    torus = _reference_torus(tau, d)
    prep = _prepare(torus, tk.Semicharacter(phases), k, eps=1e-12)
    values = _grid_values(prep, res)
    cells = [np.argwhere(np.abs(values - best) <= 1e-9) for best in (values.max(), values.min())]
    X0 = np.concatenate(cells) / res
    sgn = np.repeat([1.0, -1.0], [len(c) for c in cells])
    want_x, want_f = _former_refine(prep, X0, sgn)
    for budget in (0, values.size):
        x, f = _refine(prep, X0, sgn, budget)
        assert x.tobytes() == want_x.tobytes() and f.tobytes() == want_f.tobytes()


def _former_find_extrema(torus, chi, k, resolution):
    """The former report, kept as a reference: every tied cell of both kinds
    refined, then {kind: (value, distinct tied locations)}."""
    prep = _prepare(torus, chi, k, eps=1e-12)
    values = _grid_values(prep, resolution)
    cells = [np.argwhere(np.abs(values - best) <= 1e-9) for best in (values.max(), values.min())]
    sgn = np.repeat([1.0, -1.0], [len(c) for c in cells])
    X, F = _refine(prep, np.concatenate(cells) / resolution, sgn)
    out = {}
    for kind, rows in (("max", sgn > 0), ("min", sgn < 0)):
        opt = float(np.max(F[rows]) if kind == "max" else np.min(F[rows]))
        locs = X[rows][np.abs(F[rows] - opt) <= 1e-9]
        locs = locs[np.lexsort(locs.T[::-1])]
        dedup = locs[:1]
        for x in locs[1:]:
            if np.min(np.max(np.abs((x - dedup + 0.5) % 1.0 - 0.5), axis=1)) >= 1e-6:
                dedup = np.vstack([dedup, x])
        out[kind] = (opt, dedup)
    return out


_WORKLOAD_RNG = np.random.default_rng(20261019)
_CLASS_INPUTS = (
    [(c[0], c[1], c[2], c[3], c[4], c[5]) for c in _REFERENCE_INPUTS]
    # the benchmark's extremum jobs: n = 1 at k <= 6 and res 32, the surface at k = 2, res 16
    + [(f"wl{tau}", tau, 1, tuple(_WORKLOAD_RNG.random(2)), k, 32)
       for tau in (1j, 2j, 0.3 + 1.2j, -0.2 + 0.9j) for k in range(1, 7)]
    + [("wl-generic", None, None, tuple(_WORKLOAD_RNG.random(4)), 2, 16) for _ in range(3)]
)


@pytest.mark.parametrize("name,tau,d,phases,k,res", _CLASS_INPUTS,
                         ids=[f"{c[0]}-k{c[4]}-{i}" for i, c in enumerate(_CLASS_INPUTS)])
def test_one_refinement_per_class_matches_every_cell_refined(name, tau, d, phases, k, res):
    """Refining one tied cell per translation class and moving the others by
    their cell offsets reports the former values, multiplicities and tied sets."""
    torus = _reference_torus(tau, d)
    chi = tk.Semicharacter(phases)
    ref = _former_find_extrema(torus, chi, k, res)
    scale = (k / TWO_PI) ** torus.n
    for rep in tk.find_extrema(torus, chi, k, resolution=res):
        value, ties = ref[rep.kind]
        got = np.array([p.coords for p in rep.tied_locations])
        assert abs(rep.value - value) <= 1e-13 * scale
        assert len(got) == len(ties)
        gap = np.max(np.abs((got[:, None] - ties[None] + 0.5) % 1.0 - 0.5), axis=2)
        assert np.max(np.min(gap, axis=0)) <= 1e-9 and np.max(np.min(gap, axis=1)) <= 1e-9


@pytest.mark.parametrize("k", [10 ** 9, 10 ** 18])
def test_oversized_prediction_set_is_a_validation_error(sq1, k, monkeypatch):
    """sq1 has k^2 predicted points of each kind: k = 1e9 was killed for its
    memory, and at 1e18 find_extrema asked for 6.94 EiB.  The count is taken
    in integers, before any array and before the grid scan."""
    chi = tk.Semicharacter((0.3, 0.1))
    target = tk.HolonomyTarget(vectors=((1, 0), (0, 1)), targets=(1.0, 1.0), k=k)
    with pytest.raises(tk.ValidationError, match="ENUM_CAP"):
        tk.solve_holonomy(sq1, chi, target)

    def no_grid(*args):
        raise AssertionError("the grid was scanned")
    monkeypatch.setattr(tk.extrema, "_grid_values", no_grid)
    with pytest.raises(tk.ValidationError, match="ENUM_CAP"):
        tk.find_extrema(sq1, chi, k)


def test_oversized_mesh_is_a_validation_error(rect, chi0):
    target = tk.HolonomyTarget(vectors=((1, 0),), targets=(1.0,), k=1)
    assert len(tk.solve_holonomy(rect, chi0, target, mesh=1000).points) == 2000
    with pytest.raises(tk.ValidationError, match="ENUM_CAP"):
        tk.solve_holonomy(rect, chi0, target, mesh=10 ** 6)


def _half_way_straddles():
    """x = (N + 0.5)/10^12 and its float neighbours, where x*1e12 rounds
    to either side of the half-way point."""
    for N in (0, 1, 7, 122070312, 10 ** 6 + 3, 4 * 10 ** 11 + 1, 10 ** 12 - 1, 1999999999999):
        x = (N + 0.5) / 1e12
        yield from (x, math.nextafter(x, 0.0), math.nextafter(x, 1.0), -x)


def test_round12_is_python_round(rng):
    x = np.array(list(_half_way_straddles()) + list(rng.uniform(-2.0, 2.0, 5000))
                 + [0.0, 1.0, 0.5, 2.0 ** -13, 1 - 2.0 ** -53])
    got = _round12(x)
    want = np.array([round(v, 12) for v in x.tolist()])
    assert got.tobytes() == want.tobytes()


def test_batch_points_match_from_coords(rng):
    for torus in (tk.standard_torus(0.3 + 1.2j, 2), _product_surface(), _reference_torus(None, None)):
        X = np.vstack([rng.random((40, 2 * torus.n)), np.zeros(2 * torus.n),
                       np.full(2 * torus.n, 1.0 - 2.0 ** -53)])
        got = tk.TorusPoint._from_coord_rows(torus, X)
        want = [tk.TorusPoint.from_coords(torus, x) for x in X]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array(g.coords).tobytes() == np.array(w.coords).tobytes()
            assert np.max(np.abs(g.lift - w.lift)) <= 1e-15
            assert not g.lift.flags.writeable


def test_localization_sweep(sq1):
    chi = tk.Semicharacter((0.3, 0.0))
    rows = tk.localization_sweep(sq1, chi, (2, 3, 4))
    sh = tk.shells(sq1)
    for row in rows:
        assert row.bound == pytest.approx(math.exp(0.25 * row.k * (sh.l1 ** 2 - sh.l2 ** 2)))
        assert row.ratio == pytest.approx(row.dist / row.bound)
        assert row.ratio <= 10.0
    assert rows[0].bound > rows[1].bound > rows[2].bound


def test_pushforward_frozen_profile(sq1):
    """Loop-average profile of the basic twist: amplitude 2*sqrt(2pi)*exp(-pi/2)."""
    chi = tk.Semicharacter((0.3, 0.0))
    fit = tk.pushforward_fit(sq1, chi, 1, (1, 0))
    assert abs(fit.phase - 0.7) < 1e-9
    assert abs(fit.amplitude - 2.0 * math.sqrt(TWO_PI) * math.exp(-math.pi / 2)) < 1e-12
    assert abs(fit.fiber_volume - math.sqrt(TWO_PI)) < 1e-12
    assert fit.frequency == 1
    assert fit.measured_frequency == 1
    assert fit.residual < 1e-12


def test_pushforward_matches_holonomy(rng, sq1):
    """Recovered phase equals the closed-form loop holonomy at the origin."""
    for trial in range(4):
        chi = random_chi(rng)
        v = ((1, 0), (0, 1), (1, 1))[trial % 3]
        k = 1 + trial % 2
        phase = tk.pushforward_recover(sq1, chi, k, v)
        hol = tk.hol_closed(sq1, chi, k, tk.TorusPoint.zero(sq1), v)
        assert circ(phase, hol.alpha % 1.0) < 1e-6


def test_pushforward_guards(sq1):
    chi = tk.Semicharacter((0.3, 0.0))
    with pytest.raises(tk.ValidationError):
        tk.pushforward_fit(sq1, chi, 1, (0, 0))
    # at k = 500 the fundamental weight exp(-250*pi) underflows to 0
    with pytest.raises(tk.FitResidualTooLarge):
        tk.pushforward_fit(sq1, chi, 500, (1, 0))


def test_pushforward_at_k256_keeps_only_the_fiber_integral(sq1):
    """At k = 256 every transverse loop has A_v W = 0 mod 256, so a
    256-point fiber mesh kept them all and the fit failed; the exact
    fiber integral keeps only A_v W = 0."""
    chi = tk.Semicharacter((0.3, 0.1))
    fit = tk.pushforward_fit(sq1, chi, 256, (1, 0))
    hol = tk.hol_closed(sq1, chi, 256, tk.TorusPoint.zero(sq1), (1, 0))
    assert fit.frequency == fit.measured_frequency == 256
    assert circ(fit.phase, hol.alpha) < 1e-9


def test_compare_isomorphic_power_at_k256(sq1):
    """A shift of the first phase by 1/256 vanishes in the 256-th power."""
    cmp = tk.compare_bundles(sq1, tk.Semicharacter((0.3, 0.1)),
                             tk.Semicharacter((0.3 + 1 / 256, 0.1)), 256)
    assert cmp.verdict == "isomorphic_power"
    for pa, pb in cmp.recovered:
        assert circ(pa, pb) < 1e-9


def _product_surface():
    return tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1))


@pytest.mark.parametrize("k", [1, 2])
def test_pushforward_recovers_basis_holonomies_on_a_surface(k):
    """At n = 2 the fiber is a 3-torus; the profile keeps only the loops
    whose fiber integral is not 0."""
    phases = (0.11, 0.52, 0.73, 0.29)
    torus, chi = _product_surface(), tk.Semicharacter(phases)
    for i, phase in enumerate(phases):
        e = tuple(int(j == i) for j in range(4))
        assert circ(tk.pushforward_recover(torus, chi, k, e), (-k * phase) % 1.0) < 1e-9


def test_compare_distinct_at_k1(sq1, chi0):
    """Half twist against no twist: densities differ visibly at k = 1."""
    other = tk.Semicharacter((0.5, 0.0))
    cmp = tk.compare_bundles(sq1, chi0, other, 1)
    assert cmp.verdict == "distinct"
    assert cmp.witness is not None
    assert cmp.max_diff > cmp.threshold
    assert TWO_PI * cmp.max_diff > 0.05
    # the witness is honest: recompute both densities there
    a = tk.rho_diag(sq1, chi0, 1, cmp.witness).value
    b = tk.rho_diag(sq1, other, 1, cmp.witness).value
    assert abs(abs(a - b) - cmp.max_diff) < 1e-10


def test_compare_isomorphic_power_at_k2(sq1, chi0):
    """The same half twist squares to the trivial bundle."""
    other = tk.Semicharacter((0.5, 0.0))
    cmp = tk.compare_bundles(sq1, chi0, other, 2)
    assert cmp.verdict == "isomorphic_power"
    assert cmp.witness is None
    assert cmp.max_diff <= cmp.threshold
    for pa, pb in cmp.recovered:
        assert circ(pa, pb) < 1e-9


def test_compare_isomorphic_power_on_a_surface():
    """A half-period shift of the first phase squares away on n = 2 too."""
    torus = _product_surface()
    chi_a = tk.Semicharacter((0.11, 0.52, 0.73, 0.29))
    chi_b = tk.Semicharacter((0.61, 0.52, 0.73, 0.29))
    assert tk.compare_bundles(torus, chi_a, chi_b, 1, resolution=8).verdict == "distinct"
    cmp = tk.compare_bundles(torus, chi_a, chi_b, 2, resolution=8)
    assert cmp.verdict == "isomorphic_power"
    assert len(cmp.recovered) == 4
    for pa, pb in cmp.recovered:
        assert circ(pa, pb) < 1e-9


def test_compare_rejects_tiny_resolution(sq1, chi0):
    with pytest.raises(tk.ValidationError):
        tk.compare_bundles(sq1, chi0, tk.Semicharacter((0.5, 0.0)), 1, resolution=0)


def test_compare_same_bundle(sq1, rng):
    chi = random_chi(rng)
    cmp = tk.compare_bundles(sq1, chi, chi, 1)
    assert cmp.verdict == "isomorphic_power"
    assert cmp.max_diff < 1e-13
