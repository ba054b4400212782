"""Loop-sum evaluation of the Bergman density with certified tails.

The density of the k-th power bundle at a point p is the lattice sum

    rho_k(p) = (k/2pi)^n * (1 + sum_{v in Lambda, v != 0}
                             exp(-(k/4) ell(v)^2) cos(2*pi*k*alpha_v(p)))

where exp(2*pi*i*alpha_v(p)) is the holonomy of the v-loop at p.  The
sum is truncated at a radius R and the discarded part is dominated by a
packing-count argument: at most Cnt(T) = (1 + 2T/l1)^(2n) lattice
points fit inside radius T, with l1 the shortest loop length, so

    tail_bound(R, k) = sum_{j>=0} exp(-(k/4)(R+j)^2) * Cnt(R+j+1)

bounds the unweighted discarded mass sum_{ell(v) > R} exp(-(k/4) ell^2).
The same bound is valid for shifted lattices (off-diagonal translate
sums) because the packing argument never uses that 0 is a lattice
point.  A SeriesResult therefore certifies

    value - tail*(k/2pi)^n <= true density <= value + tail*(k/2pi)^n.

The truncation-radius policy (grow-then-bisect to the minimal R with
tail_bound(R, k) <= eps) and the enumeration cap are choices of this
module; RadiusTooLarge reports an estimate of the cap a caller would
need.
"""

from __future__ import annotations

import csv
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnconverged, ValidationError
from .holonomy import calibration_sign
from .lattice import (
    ENUM_CAP,
    TWO_PI,
    TorusPoint,
    _derived,
    _enumerate_sorted,
    _l1,
    chi_phase_turns,
)

DEFAULT_EPS = 1e-10


@dataclass(frozen=True)
class SeriesResult:
    """Truncated loop sum: density value, truncation radius, certified
    unweighted tail, and the number of lattice terms used."""

    value: float
    radius: float
    tail: float
    terms: int

    def density_halfwidth(self, n, k):
        return self.tail * (k / TWO_PI) ** n


def _check_power(k, eps=None):
    """Raise ValidationError unless k is an integer >= 1 and eps (when
    given) a number in (0, 1).

    Without this, k = 0 never ends the tail loop, k < 0 overflows, and a
    fractional k or an eps of 0 or above 1 yields a number that means
    nothing.  NaN and infinities fail the range comparison.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k!r}")
    if eps is not None and not (isinstance(eps, numbers.Real) and 0.0 < eps < 1.0):
        raise ValidationError(f"eps must be a finite number in (0, 1), got {eps!r}")


def tail_bound(torus, R, k):
    """Packing bound on the loop mass beyond radius R (unweighted units).

    Requires R >= l1; monotone decreasing in both R and k.
    """
    _check_power(k)
    l1 = _l1(torus)
    if R < l1 * (1.0 - 1e-12):
        raise ValueError(f"tail bound needs R >= shortest length {l1:.6g}, got {R:.6g}")
    two_n = 2 * torus.n
    total = 0.0
    j = 0
    while True:
        term = math.exp(-0.25 * k * (R + j) ** 2) * (1.0 + 2.0 * (R + j + 1) / l1) ** two_n
        total += term
        j += 1
        if term < 1e-300:
            break
    return total


def truncation_radius(torus, k, eps):
    """Minimal radius R with tail_bound(R, k) <= eps (to 1e-9 relative).

    The result depends on the torus, k and eps alone, so it is computed
    once per torus and kept for as long as the torus lives.
    """
    _check_power(k, eps)
    memo = _derived(torus)
    key = ("radius", int(k), float(eps))
    if key not in memo:
        memo[key] = _bisect_radius(torus, k, eps)
    return memo[key]


def _bisect_radius(torus, k, eps):
    """Grow-then-bisect search behind ``truncation_radius``."""
    l1 = _l1(torus)
    R = l1
    if tail_bound(torus, R, k) <= eps:
        return R
    lo = R
    hi = R
    for _ in range(400):
        hi *= 1.25
        if tail_bound(torus, hi, k) <= eps:
            break
        lo = hi
    else:
        raise ValueError(f"no truncation radius reaches eps = {eps:g}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail_bound(torus, mid, k) <= eps:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


class _PreparedSum:
    """Enumerated loop data bound to (torus, chi, k, R), vectorized over
    evaluation points in lattice coordinates."""

    def __init__(self, torus, chi, k, radius, cap=ENUM_CAP):
        self.torus = torus
        self.k = k
        self.radius = radius
        self.scale = (k / TWO_PI) ** torus.n
        C, lengths = _enumerate_sorted(torus, radius, cap=cap)
        self.terms = len(lengths)
        self.weights = np.exp(-0.25 * k * lengths ** 2)
        # turn(x) = k*s*E(v, x) - k*chi_turns(v);  E(v, sum x_i lambda_i) = (C E) x
        self.A = (k * calibration_sign()) * (C @ torus.E)
        self.chi_turns = k * chi_phase_turns(chi, torus, C)
        self.tail = tail_bound(torus, radius, k)

    def loop_sum(self, coords):
        """sum_v w_v cos(2*pi*turn_v(x)) for coords of shape (..., 2n)."""
        X = np.atleast_2d(np.asarray(coords, dtype=float))
        turns = X @ self.A.T.astype(float) - self.chi_turns
        out = np.cos(TWO_PI * turns) @ self.weights
        return out if np.asarray(coords).ndim > 1 else float(out[0])

    def density(self, coords):
        return self.scale * (1.0 + self.loop_sum(coords))

    def gradient(self, coords):
        x = np.asarray(coords, dtype=float)
        turns = self.A.astype(float) @ x - self.chi_turns
        return -TWO_PI * self.scale * (
            (self.weights * np.sin(TWO_PI * turns)) @ self.A.astype(float)
        )

    def hessian(self, coords):
        x = np.asarray(coords, dtype=float)
        turns = self.A.astype(float) @ x - self.chi_turns
        Af = self.A.astype(float)
        w = self.weights * np.cos(TWO_PI * turns)
        return -(TWO_PI ** 2) * self.scale * (Af.T * w) @ Af


def _prepare(torus, chi, k, eps=DEFAULT_EPS, radius=None, cap=ENUM_CAP):
    _check_power(k, eps)
    R = radius if radius is not None else truncation_radius(torus, k, eps)
    R = max(R, _l1(torus))
    return _PreparedSum(torus, chi, k, R, cap=cap)


def rho_diag(torus, chi, k, p, eps=DEFAULT_EPS, radius=None, cap=ENUM_CAP):
    """Density of the k-th power at a torus point, with certified tail.

    The truncation radius is the minimal one whose packing tail bound
    is below eps, unless ``radius`` overrides it.
    """
    prep = _prepare(torus, chi, k, eps=eps, radius=radius, cap=cap)
    p = p if isinstance(p, TorusPoint) else TorusPoint.from_lift(torus, p)
    value = prep.density(np.asarray(p.coords))
    return SeriesResult(value=float(value), radius=prep.radius, tail=prep.tail, terms=prep.terms)


def rho_gradient(torus, chi, k, p, eps=DEFAULT_EPS, radius=None):
    """Gradient of the truncated density in lattice coordinates."""
    prep = _prepare(torus, chi, k, eps=eps, radius=radius)
    p = p if isinstance(p, TorusPoint) else TorusPoint.from_lift(torus, p)
    return prep.gradient(np.asarray(p.coords))


def _grid_coords(n, resolution):
    axes = np.indices((resolution,) * (2 * n)).reshape(2 * n, -1).T
    return axes.astype(float) / resolution


def _grid_values(prep, resolution, threads=None):
    n = prep.torus.n
    pts = _grid_coords(n, resolution)
    total = pts.shape[0]
    chunk = max(1, min(total, 1 << 14))
    ranges = [(i, min(i + chunk, total)) for i in range(0, total, chunk)]
    out = np.empty(total)

    def work(span):
        a, b = span
        out[a:b] = prep.density(pts[a:b])

    if threads and threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, ranges))
    else:
        for span in ranges:
            work(span)
    return out.reshape((resolution,) * (2 * n))


@dataclass(frozen=True, eq=False)
class GridField:
    """Density samples on the uniform lattice-coordinate grid
    (i_1/res, ..., i_2n/res), C-order, with the shared tail certificate."""

    values: np.ndarray
    resolution: int
    n: int
    k: int
    radius: float
    tail: float

    @property
    def density_halfwidth(self):
        return self.tail * (self.k / TWO_PI) ** self.n

    def argbest(self, kind):
        flat = int(np.argmax(self.values) if kind == "max" else np.argmin(self.values))
        idx = np.unravel_index(flat, self.values.shape)
        return tuple(i / self.resolution for i in idx), float(self.values[idx])

    def min_summary(self):
        return self.argbest("min")

    def max_summary(self):
        return self.argbest("max")

    def write_csv(self, fh):
        cols = [f"coord_{i + 1}" for i in range(2 * self.n)]
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols + ["rho", "tail"])
        hw = self.density_halfwidth
        res = self.resolution
        for idx in np.ndindex(self.values.shape):
            row = [f"{i / res:.17g}" for i in idx]
            writer.writerow(row + [f"{self.values[idx]:.17g}", f"{hw:.17g}"])


def rho_grid(torus, chi, k, resolution, eps=DEFAULT_EPS, radius=None, threads=None, cap=ENUM_CAP):
    """Density on the full coordinate grid; one enumeration serves every
    point, and rows may be evaluated in parallel threads (results are
    assembled by index, so the output never depends on thread count)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    prep = _prepare(torus, chi, k, eps=eps, radius=radius, cap=cap)
    values = _grid_values(prep, resolution, threads=threads)
    values.setflags(write=False)
    return GridField(values=values, resolution=resolution, n=torus.n, k=k,
                     radius=prep.radius, tail=prep.tail)


def integral_check(torus, chi, k, resolution=128, eps=1e-12, threads=None):
    """Riemann integral of the density against the section count.

    Returns (integral, expected) with expected = k^n * |Pf(E)|.  The
    grid mean is compared against the half-resolution mean; a change
    above 1e-3 * expected raises QuadratureUnconverged.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    expected = float(k ** torus.n * torus.pfaffian_abs())
    prep = _prepare(torus, chi, k, eps=eps)
    coarse = float(np.mean(_grid_values(prep, resolution // 2, threads=threads)))
    fine = float(np.mean(_grid_values(prep, resolution, threads=threads)))
    vol = torus.volume()
    if abs(fine - coarse) * vol > 1e-3 * expected:
        raise QuadratureUnconverged(
            f"integral moved by {abs(fine - coarse) * vol:.3e} under doubling to res {resolution}"
        )
    return fine * vol, expected


def offdiag_bound(torus, k, x, y, eps=DEFAULT_EPS, radius=None, cap=ENUM_CAP):
    """Gaussian-decay bound on the normalized off-diagonal kernel.

    |K_k(x, y)| * exp(-k(phi(x~)+phi(y~))/2) is bounded by
    (k/2pi)^n * sum over translates u = y~ - x~ + v of exp(-(k/4) ell(u)^2);
    the translate sum is enumerated to the same radius policy as the
    diagonal series and certified by the same packing tail.
    """
    _check_power(k, eps)
    x = x if isinstance(x, TorusPoint) else TorusPoint.from_lift(torus, x)
    y = y if isinstance(y, TorusPoint) else TorusPoint.from_lift(torus, y)
    R = radius if radius is not None else truncation_radius(torus, k, eps)
    R = max(R, _l1(torus))
    delta = np.asarray(y.lift) - np.asarray(x.lift)
    _, lengths = _enumerate_sorted(torus, R, offset=torus.coords_from_lift(delta), cap=cap)
    scale = (k / TWO_PI) ** torus.n
    value = scale * float(np.sum(np.exp(-0.25 * k * lengths ** 2)))
    return SeriesResult(value=value, radius=R, tail=tail_bound(torus, R, k),
                        terms=int(len(lengths)))
