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
  Newton refinement on the analytic gradient and Hessian, all tied cells
  of both kinds in one batch, each row as if alone, then reports
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
from .kernel import DEFAULT_EPS, _check_grid, _grid_values, _prepare
from .lattice import TWO_PI, TorusPoint, _as_vector, _holonomy_turns, _nearest_distance, shells

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
    not span, the solution family is sampled on a mesh and flagged.

    The solutions are built as one coordinate array: the meshgrid Y of
    the choices (w_i mod 1 + j)/d_i on each pinned Smith row and j/mesh
    on each free direction, mapped back by X = (Y V^T) mod 1.  TorusPoints
    are made only for the sorted, distinct rows of X, by one matmul.
    """
    k = target.k
    check_count(k, 1, "k")
    check_count(mesh, 1, "mesh")
    vecs = [_as_vector(torus, v) for v in target.vectors]
    m = len(vecs)
    if len(target.targets) != m:
        raise ValidationError(f"{m} vectors need {m} holonomy targets, got {len(target.targets)}")
    two_n = 2 * torus.n
    C = np.array([v.coords for v in vecs], dtype=object).reshape(m, two_n)
    M, phi = _holonomy_turns(torus, chi, k, C)
    b = np.empty(m)
    for j, t in enumerate(target.targets):
        t = complex(t)
        if abs(abs(t) - 1.0) > 1e-6:
            raise ValidationError(f"holonomy target {t!r} is not on the unit circle")
        b[j] = (math.atan2(t.imag, t.real) / TWO_PI + phi[j]) % 1.0

    U, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(min(m, two_n)) if D[i, i] != 0)
    w = np.array(U, dtype=float) @ b
    for i in range(rank, m):
        frac = abs(w[i] - round(w[i]))
        if frac > 1e-9:
            raise InconsistentSystem(f"row {i}: dependent holonomy constraint off by {frac:.3e}")

    choices = [((w[i] % 1.0 + np.arange(int(D[i, i]))) / int(D[i, i])) % 1.0
               for i in range(rank)]
    choices += [np.arange(mesh) / mesh] * (two_n - rank)
    Y = np.stack(np.meshgrid(*choices, indexing="ij"), axis=-1).reshape(-1, two_n)
    X = _round12((Y @ np.array(V, dtype=float).T) % 1.0) % 1.0
    X = X[np.lexsort(X.T[::-1])]
    X = X[np.r_[True, np.any(X[1:] != X[:-1], axis=1)]]
    points = TorusPoint._from_coord_rows(torus, X)
    free = tuple(tuple(int(V[j, i]) for j in range(two_n)) for i in range(rank, two_n))
    return HolonomySolutions(points=points, underdetermined=rank < two_n, free_directions=free)


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
        if np.linalg.matrix_rank(rows) > len(chosen):
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


def _refine(prep, X, sgn):
    """Damped Newton ascent on f = sgn*rho (sgn = +1 seeks a maximum, -1 a minimum) from every
    row of X at once, each row stepping as if alone.  The step solves H s = -g; when H is
    singular or s does not point uphill (g.s <= 0), it is g scaled to the cap, since on a flat
    landscape g itself is too short to change f in floating point.  A step is capped at max-norm
    0.25 and halved until f strictly improves; a row stops when no step down to 2^-50 improves,
    or after REFINE_ITERS steps.  Returns the rows reduced mod 1 and their densities."""
    X = np.array(X, dtype=float)
    F = sgn * prep.density(X)
    live = np.arange(len(X))
    for _ in range(REFINE_ITERS):
        G = sgn[live, None] * prep.gradient(X[live])
        g_max = np.max(np.abs(G), axis=1)
        live, G, g_max = live[g_max > 0.0], G[g_max > 0.0], g_max[g_max > 0.0]
        if not live.size:
            break
        step = _newton_steps(sgn[live, None, None] * prep.hessian(X[live]), G)
        uphill = (G[:, None, :] @ step[:, :, None])[:, 0, 0] > 0.0     # g @ step, row by row
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


def find_extrema(torus, chi, k, resolution=32, eps=1e-12):
    """Global density extrema with holonomy-congruence predictions.

    Returns (max_report, min_report).  All grid cells within 1e-9 of the
    grid optimum are refined and reported, so exact multiplicity (as in
    the even-pairing case, where several half-period points tie) is
    preserved.  The tied cells of both kinds are refined together, in
    blocks whose (rows, terms) arrays are no larger than the grid.
    """
    _check_grid(torus, resolution, 16)
    prep = _prepare(torus, chi, k, eps=eps)
    values = _grid_values(prep, resolution)
    sh = shells(torus)
    window = math.exp(0.25 * k * (sh.l1 ** 2 - sh.l2 ** 2))
    indep = _independent_first_shell(sh)

    ties = [np.argwhere(np.abs(values - best) <= 1e-9) for best in (values.max(), values.min())]
    X0 = np.concatenate(ties) / resolution
    sgn = np.repeat([1.0, -1.0], [len(t) for t in ties])
    block = max(1, values.size // prep.terms)
    parts = [_refine(prep, X0[i:i + block], sgn[i:i + block]) for i in range(0, len(X0), block)]
    X, F = (np.concatenate(a) for a in zip(*parts))
    reports = {}
    for kind, hol, rows in (("max", 1.0, sgn > 0), ("min", -1.0, sgn < 0)):
        opt = float(np.max(F[rows]) if kind == "max" else np.min(F[rows]))
        locs = X[rows][np.abs(F[rows] - opt) <= 1e-9]
        locs = locs[np.lexsort(locs.T[::-1])]
        dedup = locs[:1]
        for x in locs[1:]:
            if np.min(np.max(np.abs((x - dedup + 0.5) % 1.0 - 0.5), axis=1)) >= 1e-6:
                dedup = np.vstack([dedup, x])
        points = TorusPoint._from_coord_rows(torus, dedup)
        sol = solve_holonomy(torus, chi, HolonomyTarget(
            vectors=indep, targets=(complex(hol),) * len(indep), k=k))
        dist = _nearest_distance(torus, points[0], sol.points)
        reports[kind] = ExtremumReport(
            kind=kind, location=points[0], value=opt, predicted=sol.points,
            distance=float(dist), tied_locations=points, window=window,
        )
    return reports["max"], reports["min"]


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

    The quotient circle is parameterized through a generator u with
    A_v1 u = lam = content of the integer row A_v1 = k*s*(E(v1, lambda_j))_j
    of ``_holonomy_turns``.  Over the fiber, the subtorus spanned by W, an
    integer kernel basis of that row, loop v integrates to 0 unless
    A_v W = 0, so the profile is the exact sum of w_v cos(2*pi*(t A_v u -
    chi_v)) over those loops, at T = max(64, 8*lam) points, so the
    harmonics m*lam, m <= FIT_HARMONICS, are exact bins of its real FFT.
    The fit is those bins: the fundamental gives the phase, the measured
    spectral peak is reported alongside, and a residual above 1e-6 of the
    fundamental amplitude raises FitResidualTooLarge.
    """
    v1 = _as_vector(torus, v1)
    row = _holonomy_turns(torus, chi, k, np.array(v1.coords, dtype=object))[0]
    if all(int(x) == 0 for x in row):
        raise ValidationError("v1 pairs trivially with the lattice; no circle map")
    lam, c_u, kernel = extended_gcd_row(row)

    W = np.array(kernel, dtype=np.int64)                    # (2n, 2n-1)
    fiber_gram = W.T @ torus.gram @ W
    nu = math.sqrt(max(float(np.linalg.det(np.atleast_2d(fiber_gram))), 0.0))

    T = max(64, 8 * lam)
    prep = _prepare(torus, chi, k, eps=1e-12)

    keep = np.all(prep.A @ W == 0, axis=1)
    freqs = prep.A[keep] @ np.array(c_u, dtype=np.int64)
    turns = np.mod(np.outer(np.arange(T), freqs), T) / T - prep.chi_turns[keep]
    profile = nu * (np.cos(TWO_PI * turns) @ prep.weights[keep])

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
    # reduced twice: a tiny negative angle mod 1 rounds up to exactly 1.0
    phase = (math.atan2(fundamental.imag, fundamental.real) / TWO_PI) % 1.0 % 1.0
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

    A grid maximum of |rho_a - rho_b| above the certified series error
    is a witness of distinct powers.  Below it, the k-th power holonomies -phi mod 1 of
    ``_holonomy_turns`` on the basis loops at 0 (``pushforward_recover`` approximates them)
    are compared; agreement means the powers are isomorphic even when the bundles differ.
    """
    _check_grid(torus, resolution, 2)
    prep_a = _prepare(torus, chi_a, k, eps=eps)
    prep_b = _prepare(torus, chi_b, k, eps=eps)
    va = _grid_values(prep_a, resolution)
    vb = _grid_values(prep_b, resolution)
    diff = np.abs(va - vb)
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    max_diff = float(diff[idx])
    threshold = prep_a.scale * (prep_a.tail + prep_b.tail) + 1e-10 * prep_a.scale
    if max_diff > threshold:
        witness = TorusPoint.from_coords(torus, np.array(idx, dtype=float) / resolution)
        return BundleComparison(verdict="distinct", max_diff=max_diff, threshold=threshold,
                                witness=witness, recovered=None)

    loops = np.eye(2 * torus.n, dtype=np.int64)
    phases = [np.mod(np.mod(-_holonomy_turns(torus, chi, k, loops)[1], 1.0), 1.0).tolist()
              for chi in (chi_a, chi_b)]
    recovered = tuple(zip(*phases))
    agree = all(abs((pa - pb + 0.5) % 1.0 - 0.5) <= 1e-6 for pa, pb in recovered)
    verdict = "isomorphic_power" if agree else "distinct"
    return BundleComparison(verdict=verdict, max_diff=max_diff, threshold=threshold,
                            witness=None, recovered=recovered)
