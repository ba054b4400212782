"""Density extrema, holonomy congruences, and bundle comparison.

Three capabilities built on the loop sum:

* ``solve_holonomy`` inverts prescribed holonomies: given target unit
  values on lattice vectors, the condition on the base point p is a
  linear congruence system  k*s*(C E) x = b (mod 1)  in the lattice
  coordinates x of p, with integer matrix; Smith normal form gives the
  complete solution set (finite when the vectors span, a flagged family
  otherwise).

* ``find_extrema`` locates density extrema by grid scan, derivative-free
  refinement, and a Newton polish on the analytic gradient, then reports
  the distance to the nearest holonomy-congruence prediction: maxima
  track holonomy +1 on the first shell, minima holonomy -1, and the
  agreement sharpens like exp((k/4)(l1^2 - l2^2)) as k grows, which
  ``localization_sweep`` tabulates.

* ``pushforward_recover`` reads a bundle's holonomy back off the density
  alone: averaging the loop sum over the fibers of the circle map
  q -> E(v1, q~)/g mod 1 (g the content of the integer row E(v1, .))
  kills every loop except the powers of v1 and leaves the profile
  2*nu*sum_m exp(-(k/4) m^2 ell(v1)^2) cos(2*pi*m*(lambda*t + phi)),
  whose fundamental phase phi is the holonomy angle at the basepoint.
  ``compare_bundles`` uses that to tell genuinely different bundles from
  different bundles with the same k-th power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import FitResidualTooLarge, InconsistentSystem
from .holonomy import calibration_sign
from .intlin import extended_gcd_row, smith_normal_form
from .kernel import DEFAULT_EPS, _prepare, _grid_values
from .lattice import (
    TWO_PI,
    LatticeVector,
    TorusPoint,
    _nearest_distance,
    chi_phase_turns,
    shells,
)


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

    Solves k*s*E(v_j, p~) = arg(t_j)/2pi + k*arg(chi(v_j))/2pi (mod 1)
    by Smith normal form over the integers.  Dependent vectors with
    incompatible targets raise InconsistentSystem; when the vectors do
    not span, the solution family is sampled on a mesh and flagged.
    """
    k = target.k
    sign = calibration_sign()
    vecs = [v if isinstance(v, LatticeVector) else LatticeVector.from_coords(torus, v)
            for v in target.vectors]
    m = len(vecs)
    two_n = 2 * torus.n
    if m == 0:
        reps = [TorusPoint.from_coords(torus, np.array(c) / mesh)
                for c in itertools.product(range(mesh), repeat=two_n)]
        free = tuple(tuple(int(e) for e in np.eye(two_n, dtype=int)[i]) for i in range(two_n))
        return HolonomySolutions(points=tuple(reps), underdetermined=True, free_directions=free)

    C = np.array([v.coords for v in vecs], dtype=object)
    M = (k * sign) * (C @ np.array(torus.E, dtype=object))
    b = np.empty(m)
    for j, (v, t) in enumerate(zip(vecs, target.targets)):
        t = complex(t)
        if abs(abs(t) - 1.0) > 1e-6:
            raise ValueError(f"holonomy target {t!r} is not on the unit circle")
        b[j] = (math.atan2(t.imag, t.real) / TWO_PI
                + k * chi_phase_turns(chi, torus, v.coords)) % 1.0

    U, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(min(m, two_n)) if D[i, i] != 0)
    w = np.array(U, dtype=float) @ b
    for i in range(rank, m):
        frac = abs(w[i] - round(w[i]))
        if frac > 1e-9:
            raise InconsistentSystem(
                f"row {i}: dependent holonomy constraint off by {frac:.3e}"
            )

    choices = []
    for i in range(rank):
        d = int(D[i, i])
        base = w[i] % 1.0
        choices.append([((base + j) / d) % 1.0 for j in range(d)])
    free_idx = list(range(rank, two_n))
    underdetermined = bool(free_idx)
    if underdetermined:
        for _ in free_idx:
            choices.append([j / mesh for j in range(mesh)])

    Vf = np.array(V, dtype=float)
    pts = []
    for combo in itertools.product(*choices) if choices else [()]:
        y = np.array(combo, dtype=float)
        x = (Vf @ y) % 1.0
        pts.append(tuple(round(float(c) % 1.0, 12) % 1.0 for c in x))
    pts = sorted(set(pts))
    points = tuple(TorusPoint.from_coords(torus, np.array(p)) for p in pts)
    free = tuple(tuple(int(V[j, i]) for j in range(two_n)) for i in free_idx)
    return HolonomySolutions(points=points, underdetermined=underdetermined, free_directions=free)


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


def _independent_first_shell(torus):
    sh = shells(torus)
    chosen = []
    rows = []
    for v in sh.S1:
        trial = rows + [list(v.coords)]
        if np.linalg.matrix_rank(np.array(trial, dtype=float)) > len(rows):
            chosen.append(v)
            rows = trial
    return sh, chosen


def _predicted_points(torus, chi, k, kind, mesh=8):
    _, indep = _independent_first_shell(torus)
    tgt = 1.0 if kind == "max" else -1.0
    target = HolonomyTarget(vectors=tuple(indep), targets=(complex(tgt),) * len(indep), k=k)
    return solve_holonomy(torus, chi, target, mesh=mesh)


def _newton_polish(prep, x0, kind, iters):
    x = np.array(x0, dtype=float)
    best_v = prep.density(x)
    want_max = kind == "max"
    for _ in range(iters):
        g = prep.gradient(x)
        H = prep.hessian(x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        limit = float(np.max(np.abs(step)))
        if limit > 0.25:
            step *= 0.25 / limit
        cand = x + step
        v = prep.density(cand)
        if (v > best_v) == want_max and v != best_v:
            x, best_v = cand, v
        elif float(np.linalg.norm(g)) < 1e-305:
            break
        else:
            break
    return x, float(best_v)


def _refine_candidate(prep, x0, kind, iters):
    want_max = kind == "max"
    sgn = -1.0 if want_max else 1.0
    best_x = np.array(x0, dtype=float)
    best_v = float(prep.density(best_x))

    res = optimize.minimize(
        lambda x: sgn * prep.density(x), best_x, method="Nelder-Mead",
        options={"maxiter": iters * 10, "xatol": 1e-11, "fatol": 1e-15},
    )
    v = float(prep.density(res.x))
    if (v > best_v) if want_max else (v < best_v):
        best_x, best_v = np.array(res.x), v

    x, v = _newton_polish(prep, best_x, kind, iters=12)
    if (v > best_v) if want_max else (v < best_v):
        best_x, best_v = x, v
    return best_x % 1.0, best_v


def find_extrema(torus, chi, k, resolution=32, refine_iters=64, eps=1e-12, threads=None):
    """Global density extrema with holonomy-congruence predictions.

    Returns (max_report, min_report).  All grid cells within 1e-9 of the
    grid optimum are refined and reported, so exact multiplicity (as in
    the even-pairing case, where several half-period points tie) is
    preserved.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    prep = _prepare(torus, chi, k, eps=eps)
    values = _grid_values(prep, resolution, threads=threads)
    sh = shells(torus)
    window = math.exp(0.25 * k * (sh.l1 ** 2 - sh.l2 ** 2))

    reports = {}
    for kind in ("max", "min"):
        best = float(np.max(values) if kind == "max" else np.min(values))
        tied = np.argwhere(np.abs(values - best) <= 1e-9)
        cells = sorted(tuple(idx) for idx in tied)
        refined = [_refine_candidate(prep, np.array(c, dtype=float) / resolution, kind,
                                     refine_iters)
                   for c in cells]
        opt = max(v for _, v in refined) if kind == "max" else min(v for _, v in refined)
        keep = [(x, v) for x, v in refined if abs(v - opt) <= 1e-9]
        locs = sorted((tuple(float(c) for c in x) for x, _ in keep))
        dedup = []
        for loc in locs:
            if not any(max(abs((a - b + 0.5) % 1.0 - 0.5) for a, b in zip(loc, seen)) < 1e-6
                       for seen in dedup):
                dedup.append(loc)
        points = tuple(TorusPoint.from_coords(torus, np.array(loc)) for loc in dedup)
        sol = _predicted_points(torus, chi, k, kind)
        dist = _nearest_distance(torus, points[0], sol.points) if sol.points else float("nan")
        reports[kind] = ExtremumReport(
            kind=kind, location=points[0], value=float(opt), predicted=sol.points,
            distance=float(dist), tied_locations=points, window=window,
        )
    return reports["max"], reports["min"]


@dataclass(frozen=True)
class LocalizationRow:
    k: int
    dist: float
    bound: float
    ratio: float


def localization_sweep(torus, chi, ks, resolution=32, refine_iters=64, threads=None):
    """Distance from the refined argmax to the nearest holonomy-1 point,
    against the two-shell localization window, for each k."""
    rows = []
    for k in ks:
        mx, _ = find_extrema(torus, chi, k, resolution=resolution,
                             refine_iters=refine_iters, threads=threads)
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


def pushforward_fit(torus, chi, k, v1, samples=256, profile_samples=None, eps=1e-12,
                    harmonics=4):
    """Recover the holonomy phase of the v1-loop from the density alone.

    The quotient circle is parameterized through a generator u with
    E(v1, u) = g = content of the integer row (E(v1, lambda_j))_j; fibers
    are sampled on a uniform sublattice mesh, which integrates the
    transverse loops to zero at spectral accuracy.  The surviving
    profile is fit at the predicted frequency k*s*g; the measured
    spectral peak is reported alongside, and a residual above 1e-6 of
    the fundamental amplitude raises FitResidualTooLarge.
    """
    v1 = v1 if isinstance(v1, LatticeVector) else LatticeVector.from_coords(torus, v1)
    two_n = 2 * torus.n
    row = np.array(v1.coords, dtype=object) @ np.array(torus.E, dtype=object)
    if all(int(x) == 0 for x in row):
        raise ValueError("v1 pairs trivially with the lattice; no circle map")
    g, c_u, kernel = extended_gcd_row(row)
    lam_signed = k * calibration_sign() * g

    W = np.array(kernel, dtype=float)                       # (2n, 2n-1)
    fiber_gram = W.T @ torus.gram @ W
    nu = math.sqrt(max(float(np.linalg.det(np.atleast_2d(fiber_gram))), 0.0))

    T = profile_samples if profile_samples is not None else max(64, 8 * abs(lam_signed))
    S = samples
    prep = _prepare(torus, chi, k, eps=eps)

    t = np.arange(T) / T
    u = np.array(c_u, dtype=float)
    fiber_offsets = np.stack([
        W @ (np.array(c, dtype=float) / S)
        for c in itertools.product(range(S), repeat=two_n - 1)
    ])                                                      # (S^(2n-1), 2n)
    profile = np.empty(T)
    for j in range(T):
        pts = t[j] * u + fiber_offsets
        profile[j] = float(np.mean(prep.loop_sum(pts)))
    profile *= nu

    coeffs = [
        2.0 / T * complex(np.sum(profile * np.exp(-2j * math.pi * mm * lam_signed * t)))
        for mm in range(1, harmonics + 1)
    ]
    amplitude = abs(coeffs[0])
    spectrum = np.abs(np.fft.rfft(profile))
    measured = int(np.argmax(spectrum[1:])) + 1
    recon = np.zeros(T)
    for mm, cm in enumerate(coeffs, start=1):
        recon += (cm * np.exp(2j * math.pi * mm * lam_signed * t)).real
    resid = float(np.max(np.abs(profile - recon)))
    if amplitude <= 1e-280 or resid > 1e-6 * amplitude or measured != abs(lam_signed):
        raise FitResidualTooLarge(
            f"profile fit residual {resid:.3e} against amplitude {amplitude:.3e} "
            f"(spectral peak {measured}, predicted {abs(lam_signed)})"
        )
    phase = (math.atan2(coeffs[0].imag, coeffs[0].real) / TWO_PI) % 1.0
    if phase >= 1.0:
        # float modulo can round a tiny negative up to exactly 1.0
        phase = 0.0
    return PushforwardFit(phase=phase, frequency=int(lam_signed), measured_frequency=measured,
                          amplitude=amplitude, fiber_volume=nu, residual=resid / amplitude)


def pushforward_recover(torus, chi, k, v1, samples=256):
    """Recovered holonomy phase k*alpha_{v1} (mod 1) at the zero basepoint."""
    return pushforward_fit(torus, chi, k, v1, samples=samples).phase


@dataclass(frozen=True, eq=False)
class BundleComparison:
    verdict: str                 # "distinct" or "isomorphic_power"
    max_diff: float
    threshold: float
    witness: TorusPoint | None
    recovered: tuple | None


def compare_bundles(torus, chi_a, chi_b, k, resolution=32, eps=DEFAULT_EPS, samples=256,
                    threads=None):
    """Decide whether two bundles have the same k-th power density.

    A grid maximum of |rho_a - rho_b| above the certified series error
    is a witness of distinct powers.  Below it, the recovered holonomies
    of the k-th powers on every basis loop are compared; agreement means
    the powers are isomorphic even when the bundles themselves differ.
    """
    prep_a = _prepare(torus, chi_a, k, eps=eps)
    prep_b = _prepare(torus, chi_b, k, eps=eps)
    va = _grid_values(prep_a, resolution, threads=threads)
    vb = _grid_values(prep_b, resolution, threads=threads)
    diff = np.abs(va - vb)
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    max_diff = float(diff[idx])
    threshold = prep_a.scale * (prep_a.tail + prep_b.tail) + 1e-10 * prep_a.scale
    if max_diff > threshold:
        witness = TorusPoint.from_coords(
            torus, np.array(idx, dtype=float) / resolution
        )
        return BundleComparison(verdict="distinct", max_diff=max_diff, threshold=threshold,
                                witness=witness, recovered=None)

    two_n = 2 * torus.n
    recovered = []
    agree = True
    for i in range(two_n):
        e = np.zeros(two_n, dtype=int)
        e[i] = 1
        pa = pushforward_recover(torus, chi_a, k, e, samples=samples)
        pb = pushforward_recover(torus, chi_b, k, e, samples=samples)
        recovered.append((pa, pb))
        if abs((pa - pb + 0.5) % 1.0 - 0.5) > 1e-6:
            agree = False
    verdict = "isomorphic_power" if agree else "distinct"
    return BundleComparison(verdict=verdict, max_diff=max_diff, threshold=threshold,
                            witness=None, recovered=tuple(recovered))
