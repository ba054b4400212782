"""Density extrema, holonomy congruences, and bundle comparison.

Three capabilities built on the loop sum and on the k-th power holonomy
(A, phi) of ``lattice._holonomy_turns``, the turn A_v . x - phi_v at x:

* ``solve_holonomy`` inverts prescribed holonomies: given target unit
  values on lattice vectors, the condition on the base point p is a
  linear congruence system  A x = b (mod 1)  in the lattice
  coordinates x of p, with integer matrix A and b = target angle + phi;
  Smith normal form gives the complete solution set (finite when the
  vectors span, a flagged family otherwise).

* ``find_extrema`` locates density extrema by grid scan and damped
  Newton refinement on the analytic gradient and Hessian, one tied cell
  per class of translates under (kE)^-1 Z^2n, then reports
  the distance to the nearest holonomy-congruence prediction: maxima
  track holonomy +1 on the first shell, minima holonomy -1, and the
  agreement sharpens like exp((k/4)(l1^2 - l2^2)) as k grows, which
  ``localization_sweep`` tabulates.

* ``pushforward_recover`` reads a bundle's holonomy back off the density
  alone: averaging the loop sum over the fibers of the circle map
  q -> E(v1, q~)/g mod 1 (g the content of the integer row E(v1, .))
  kills every loop except the powers of v1 and leaves the profile
  2*nu*sum_m exp(-(k/4) m^2 ell(v1)^2) cos(2*pi*m*(lambda*t + theta)),
  whose fundamental phase theta is the holonomy angle -phi_v1 at the
  basepoint.  ``compare_bundles`` tells genuinely different bundles from
  different bundles with the same k-th power: by a grid witness, or else
  by the exact angles -phi on the basis loops, which theta approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitResidualTooLarge, InconsistentSystem, ValidationError, check_count
from .intlin import extended_gcd_row, smith_normal_form
from .kernel import (DEFAULT_EPS, GRID_CAP, _check_grid, _check_power, _grid_loop, _grid_values,
                     _prepare)
from .lattice import (ENUM_CAP, TWO_PI, TorusPoint, _as_vector, _frac, _holonomy_turns,
                      _nearest_distance, shells)

REFINE_ITERS = 64      # damped Newton steps per extremum candidate
FIT_HARMONICS = 4      # loop-frequency harmonics fitted to a pushforward profile


@dataclass(frozen=True)
class HolonomyTarget:
    """Prescribed unit holonomy values for the k-th power on a list of
    lattice vectors."""

    vectors: tuple
    targets: tuple
    k: int


@dataclass(frozen=True)
class HolonomySolutions:
    points: tuple
    underdetermined: bool
    free_directions: tuple


def solve_holonomy(torus, chi, target, mesh=8):
    """All base points whose k-th power holonomies match the targets.

    Solves A_j . x = arg(t_j)/2pi + phi_j (mod 1), (A, phi) = ``_holonomy_turns``,
    by Smith normal form over the integers.  Dependent vectors with
    incompatible targets raise InconsistentSystem; when the vectors do
    not span, the solution family is sampled on a mesh and flagged.  A
    set of more than ``lattice.ENUM_CAP`` points raises ValidationError.

    The solutions are built as one coordinate array: the meshgrid Y of
    the choices (w_i mod 1 + j)/d_i on each pinned Smith row and j/mesh
    on each free direction, mapped back by X = (Y V^T) mod 1.  V is unimodular,
    so distinct Y give rows of X at least 1/ENUM_CAP apart mod 1: no two coincide.
    """
    check_count(target.k, 1, "k")
    check_count(mesh, 1, "mesh")
    m = len(target.vectors)
    if len(target.targets) != m:
        raise ValidationError(f"{m} vectors need {m} holonomy targets, got {len(target.targets)}")
    return _solve_holonomy(torus, chi, target.k, target.vectors, [target.targets], mesh)[0][0]


def _solve_holonomy(torus, chi, k, vecs, target_sets, mesh):
    """``solve_holonomy`` for each tuple in ``target_sets``, as (HolonomySolutions, coordinate
    rows), from one Smith form and one array sorted with the tuple as primary key.  A set of
    prod d_i * mesh^(2n - rank) > ENUM_CAP points, counted in integers, raises ValidationError."""
    m, two_n = len(vecs), 2 * torus.n
    C = np.array([_as_vector(torus, v) for v in vecs], dtype=object).reshape(m, two_n)
    M, phi = _holonomy_turns(torus, chi, k, C)
    U, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(min(m, two_n)) if D[i, i] != 0)
    W = []
    for targets in target_sets:
        b = np.empty(m)
        for j, t in enumerate(targets):
            t = complex(t)
            if abs(abs(t) - 1.0) > 1e-6:
                raise ValidationError(f"holonomy target {t!r} is not on the unit circle")
            b[j] = (math.atan2(t.imag, t.real) / TWO_PI + phi[j]) % 1.0
        w = np.array(U, dtype=float) @ b
        for i in range(rank, m):
            frac = abs(w[i] - round(w[i]))
            if frac > 1e-9:
                raise InconsistentSystem(f"row {i}: dependent holonomy constraint off by {frac:.3e}")
        W.append(w[:rank] % 1.0)
    d = [int(D[i, i]) for i in range(rank)]
    if (count := math.prod(d) * mesh ** (two_n - rank)) > ENUM_CAP:
        raise ValidationError(f"{count} holonomy solutions, above ENUM_CAP = {ENUM_CAP}")
    G = np.indices((len(W), *d, *[mesh] * (two_n - rank))).reshape(two_n + 1, -1)
    s, W = G[0], np.array(W).reshape(len(W), rank)
    Y = np.column_stack([((W[s, i] + G[1 + i]) / d[i]) % 1.0 for i in range(rank)]
                        + [G[1 + i] / mesh for i in range(rank, two_n)])
    X = _round12((Y @ np.array(V, dtype=float).T) % 1.0) % 1.0
    order = np.lexsort((*X.T[::-1], s))
    X, s = X[order], s[order]
    points = TorusPoint._from_coord_rows(torus, X)
    free = tuple(tuple(int(V[j, i]) for j in range(two_n)) for i in range(rank, two_n))
    ends = np.searchsorted(s, np.arange(len(W) + 1)).tolist()
    return [(HolonomySolutions(points[a:b], rank < two_n, free), X[a:b])
            for a, b in zip(ends, ends[1:])]


def _round12(X):
    """round(x, 12) for each entry, as rint(x*1e12)/1e12: for |x| < 4 the two differ only
    where x*1e12 rounds across a half-way point, by less than 2^-10, so entries that close
    to one go through round() itself."""
    Y = X * 1e12
    out = np.rint(Y) / 1e12
    near = np.abs(Y - np.floor(Y) - 0.5) < 2.0 ** -10
    out[near] = [round(x, 12) for x in X[near].tolist()]
    return out


# -- extrema ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtremumReport:
    kind: str
    location: TorusPoint
    value: float
    predicted: tuple
    distance: float
    tied_locations: tuple
    window: float


def _independent_first_shell(sh):
    """The first-shell vectors of ``sh`` that raise the rank, in order."""
    chosen = []
    for v in sh.S1:
        rows = np.array([u.coords for u in chosen] + [v.coords], dtype=float)
        if len(chosen) < len(v.coords) and np.linalg.matrix_rank(rows) > len(chosen):
            chosen.append(v)
    return tuple(chosen)


def _newton_steps(H, G):
    """Solutions s of H s = -g for a stack, row by row once one H is singular (s = 0 there)."""
    try:
        return np.linalg.solve(H, -G[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return np.zeros_like(G)
        return np.concatenate([_newton_steps(H[i:i + 1], G[i:i + 1]) for i in range(len(G))])


def _refine(prep, X, sgn, cells=0):
    """Damped Newton ascent on f = sgn*rho (sgn = +1 seeks a maximum, -1 a minimum) from every
    row of X at once, each row stepping as if alone.  The step solves H s = -g; when H is
    singular or s does not point uphill (g.s <= 0), it is g scaled to the cap, since on a flat
    landscape g itself is too short to change f in floating point.  A step is capped at max-norm
    0.25 and halved until f strictly improves; a row stops when no step down to 2^-50 improves,
    or after REFINE_ITERS steps; the halvings of failed full steps are tried at once, max(len(X),
    cells // terms) points a call, and accepted points keep their cosines for the Hessian."""
    X = np.array(X, dtype=float)
    F, cos = prep._level(X)
    F *= sgn
    chunk = max(1, len(X), cells // prep.terms)
    live = np.arange(len(X))
    for _ in range(REFINE_ITERS):
        if not live.size:
            break
        G = sgn[live, None] * prep.gradient(X[live])
        g_max = np.max(np.abs(G), axis=1)
        live, G, g_max = live[g_max > 0.0], G[g_max > 0.0], g_max[g_max > 0.0]
        if not live.size:
            break
        step = _newton_steps(sgn[live, None, None] * prep._curvature(cos[live]), G)
        uphill = (G[:, None, :] @ step[:, :, None])[:, 0, 0] > 0.0     # g @ step, row by row
        step = np.where(uphill[:, None], step, G / g_max[:, None])
        step *= (0.25 / np.maximum(np.max(np.abs(step), axis=1), 0.25))[:, None]
        moved = np.zeros(len(live), dtype=bool)
        full = np.flatnonzero(np.max(np.abs(step), axis=1) >= 2.0 ** -50)
        moved[full] = _accept(prep, X, F, cos, sgn, live[full], step[full])
        failed = full[~moved[full]]
        if failed.size:
            # halvings 1..48 of a step of max-norm <= 2^-2, by repeated *0.5 as one at a time
            halves = np.multiply.accumulate(np.concatenate(
                [step[None, failed], np.full((48, len(failed), step.shape[1]), 0.5)]))
            row, j = np.nonzero(np.max(np.abs(halves[1:]), axis=2).T >= 2.0 ** -50)
            rows, steps = live[failed[row]], halves[1 + j, row]
            f = np.empty(len(rows))
            for i in range(0, len(rows), chunk):
                f[i:i + chunk] = prep.density(X[rows[i:i + chunk]] + steps[i:i + chunk])
            gain = np.flatnonzero(sgn[rows] * f > F[rows])
            gain = gain[np.unique(row[gain], return_index=True)[1]]     # the first of each row
            moved[failed[row[gain]]] = _accept(prep, X, F, cos, sgn, rows[gain], steps[gain])
        live = live[moved]
    return X % 1.0, sgn * F


def _accept(prep, X, F, cos, sgn, rows, steps):
    """Move distinct ``rows`` of X by their steps where sgn*rho rises above F; returns which."""
    x = X[rows] + steps
    f, c = prep._level(x)
    f *= sgn[rows]
    up = f > F[rows]
    X[rows[up]], F[rows[up]], cos[rows[up]] = x[up], f[up], c[up]
    return up


def find_extrema(torus, chi, k, resolution=32, eps=1e-12):
    """Global density extrema with holonomy-congruence predictions.

    Returns (max_report, min_report).  All grid cells within 1e-9 of the grid optimum are
    tied and reported, so exact multiplicity is preserved.  The density is invariant under
    translation by (kE)^-1 Z^2n, so tied cells J, J' of one kind with kEJ = kEJ' mod r are
    translates: one cell per class is refined, in blocks whose (rows, terms) arrays are no
    larger than the grid, and the others take its point plus (J' - J)/r and its value.  Both
    prediction sets come from one solve, before the grid scan, and one distance search.
    """
    _check_power(k, eps)
    _check_grid(torus, resolution, 16)
    sh = shells(torus)
    indep = _independent_first_shell(sh)
    predicted = _solve_holonomy(torus, chi, k, indep, [(s,) * len(indep) for s in (1.0, -1.0)], 8)
    prep = _prepare(torus, chi, k, eps=eps)
    values = _grid_values(prep, resolution)
    window = math.exp(0.25 * k * (sh.l1 ** 2 - sh.l2 ** 2))

    ties = [np.argwhere(np.abs(values - best) <= 1e-9) for best in (values.max(), values.min())]
    J, kind = np.concatenate(ties), np.repeat([0, 1], [len(t) for t in ties])
    r = resolution
    kEJ = np.mod(J @ np.mod(np.mod(k, r) * np.mod(torus.E, r), r).T, r)    # no int64 overflow
    key = np.ravel_multi_index(tuple(kEJ.T), values.shape) + kind * values.size
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    X0, sgn = J[first] / r, 1.0 - 2.0 * kind[first]
    block = max(1, values.size // prep.terms)
    parts = [_refine(prep, X0[i:i + block], sgn[i:i + block], values.size)
             for i in range(0, len(X0), block)]
    X, F = (np.concatenate(a) for a in zip(*parts))
    X, F = (X[cls] + (J - J[first[cls]]) / r) % 1.0, F[cls]

    located = []
    for rows, pick in ((kind == 0, np.max), (kind == 1, np.min)):
        opt = float(pick(F[rows]))
        locs = X[rows][np.abs(F[rows] - opt) <= 1e-9]
        locs = locs[np.lexsort(locs.T[::-1])]
        dedup = locs[:1]
        for x in locs[1:]:
            if np.min(np.max(np.abs((x - dedup + 0.5) % 1.0 - 0.5), axis=1)) >= 1e-6:
                dedup = np.vstack([dedup, x])
        located.append((opt, TorusPoint._from_coord_rows(torus, dedup)))
    dists = _nearest_distance(*torus._form(), [(pts[0].coords, Q)
                                               for (_, pts), (_, Q) in zip(located, predicted)])
    return tuple(
        ExtremumReport(kind=kind, location=pts[0], value=opt, predicted=sol.points, distance=dist,
                       tied_locations=pts, window=window)
        for kind, (opt, pts), (sol, _), dist in zip(("max", "min"), located, predicted, dists))


@dataclass(frozen=True)
class LocalizationRow:
    k: int
    dist: float
    bound: float
    ratio: float


def localization_sweep(torus, chi, ks, resolution=32):
    """Distance from the refined argmax to the nearest holonomy-1 point,
    against the two-shell localization window, for each k."""
    rows = []
    for k in ks:
        mx, _ = find_extrema(torus, chi, k, resolution=resolution)
        rows.append(LocalizationRow(k=int(k), dist=mx.distance, bound=mx.window,
                                    ratio=mx.distance / mx.window))
    return rows


# -- pushforward and comparison --------------------------------------------


@dataclass(frozen=True)
class PushforwardFit:
    phase: float
    frequency: int
    measured_frequency: int
    amplitude: float
    fiber_volume: float
    residual: float


def pushforward_fit(torus, chi, k, v1):
    """Recover the holonomy phase of the v1-loop from the density alone.

    The quotient circle is parameterized through a generator u with A_v1 u = lam = content
    of the integer row A_v1 = k*s*(E(v1, lambda_j))_j of ``_holonomy_turns``.  Over the fiber,
    the subtorus spanned by W, an integer kernel basis of that row, loop v integrates to 0
    unless A_v W = 0, so the profile is the exact sum of w_v cos(2*pi*(t A_v u - chi_v)) over
    those loops: the loop grid of their coefficients at the frequencies A_v u, on T =
    max(64, 8*lam) points (at most GRID_CAP), so the harmonics m*lam, m <= FIT_HARMONICS, are
    exact bins of its real FFT.  The fit is those bins: the fundamental gives the phase, the
    measured spectral peak is reported alongside, and a residual above 1e-6 of the fundamental
    amplitude raises FitResidualTooLarge.
    """
    row = _holonomy_turns(torus, chi, k, _as_vector(torus, v1).astype(object))[0]
    if all(int(x) == 0 for x in row):
        raise ValidationError("v1 pairs trivially with the lattice; no circle map")
    lam, c_u, kernel = extended_gcd_row(row)

    W = np.array(kernel, dtype=np.int64)                    # (2n, 2n-1)
    fiber_gram = W.T @ torus.gram @ W
    nu = math.sqrt(max(float(np.linalg.det(np.atleast_2d(fiber_gram))), 0.0))

    T = max(64, 8 * lam)
    if T > GRID_CAP:
        raise ValidationError(f"a profile of {T} points is above GRID_CAP = {GRID_CAP}")
    prep = _prepare(torus, chi, k, eps=1e-12)

    keep = np.all(prep.A @ W == 0, axis=1)          # closed under v -> -v
    freqs = prep.A[keep] @ np.array(c_u, dtype=np.int64)
    profile = nu * _grid_loop(freqs[:, None], prep.coeffs(keep), T)

    spectrum = np.fft.rfft(profile)
    fundamental = 2.0 / T * complex(spectrum[lam])
    amplitude = abs(fundamental)
    measured = int(np.argmax(np.abs(spectrum[1:]))) + 1
    fitted = np.zeros_like(spectrum)
    bins = slice(lam, FIT_HARMONICS * lam + 1, lam)
    fitted[bins] = spectrum[bins]
    resid = float(np.max(np.abs(profile - np.fft.irfft(fitted, T))))
    if amplitude <= 1e-280 or resid > 1e-6 * amplitude or measured != lam:
        raise FitResidualTooLarge(
            f"profile fit residual {resid:.3e} against amplitude {amplitude:.3e} "
            f"(spectral peak {measured}, predicted {lam})"
        )
    phase = _frac(math.atan2(fundamental.imag, fundamental.real) / TWO_PI)
    return PushforwardFit(phase=phase, frequency=lam, measured_frequency=measured,
                          amplitude=amplitude, fiber_volume=nu, residual=resid / amplitude)


def pushforward_recover(torus, chi, k, v1):
    """Recovered holonomy phase k*alpha_{v1} (mod 1) at the zero basepoint."""
    return pushforward_fit(torus, chi, k, v1).phase


@dataclass(frozen=True, eq=False)
class BundleComparison:
    verdict: str                 # "distinct" or "isomorphic_power"
    max_diff: float
    threshold: float
    witness: TorusPoint | None
    recovered: tuple | None


def compare_bundles(torus, chi_a, chi_b, k, resolution=32, eps=DEFAULT_EPS):
    """Decide whether two bundles have the same k-th power density.

    A grid maximum of |rho_a - rho_b|, one loop grid of c_a - c_b, above the certified series
    error is a witness of distinct powers.  Below it, the k-th power holonomies -phi mod 1 of
    ``_holonomy_turns`` on the basis loops at 0 (``pushforward_recover`` approximates them)
    are compared; agreement means the powers are isomorphic even when the bundles differ.
    """
    _check_grid(torus, resolution, 2)
    prep_a = _prepare(torus, chi_a, k, eps=eps)
    prep_b = _prepare(torus, chi_b, k, eps=eps)
    # one torus, k and eps give one radius and one sorted enumeration, so one A for both sums
    diff = np.abs(_grid_loop(prep_a.A, prep_a.coeffs() - prep_b.coeffs(), resolution))
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    max_diff = prep_a.scale * float(diff[idx])
    threshold = prep_a.scale * (prep_a.tail + prep_b.tail) + 1e-10 * prep_a.scale
    if max_diff > threshold:
        witness = TorusPoint.from_coords(torus, np.array(idx, dtype=float) / resolution)
        return BundleComparison(verdict="distinct", max_diff=max_diff, threshold=threshold,
                                witness=witness, recovered=None)

    loops = np.eye(2 * torus.n, dtype=np.int64)
    phases = [_frac(-_holonomy_turns(torus, chi, k, loops)[1]).tolist() for chi in (chi_a, chi_b)]
    recovered = tuple(zip(*phases))
    agree = all(abs((pa - pb + 0.5) % 1.0 - 0.5) <= 1e-6 for pa, pb in recovered)
    verdict = "isomorphic_power" if agree else "distinct"
    return BundleComparison(verdict=verdict, max_diff=max_diff, threshold=threshold,
                            witness=None, recovered=recovered)
