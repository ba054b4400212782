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

In lattice coordinates the sum is scale*(1 + Re sum_v c_v exp(2*pi*i A_v . x)), with integer
A_v = k*s*E(v, .) and c_v = w_v exp(-2*pi*i*chi_v) (``_PreparedSum.coeffs``).  On the grid
j/r only A_v mod r matters: ``_grid_loop`` scatters c_v into bin A_v mod r of a half spectrum
(r,)*(m-1) + (r//2 + 1,), enough as +-v have conjugate coefficients, and runs one real inverse
FFT, O(terms + r^m log r) and exact at any k.  The density grid, its mean, the difference of
two bundles' densities and the pushforward profile all go through it.

The truncation-radius policy (grow-then-bisect to the minimal R with
tail_bound(R, k) <= eps) is a choice of this module.  Every sum is
enumerated under ``lattice.ENUM_CAP``; past it, RadiusTooLarge reports
an estimate of the cap the radius would need.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, QuadratureUnconverged, ValidationError, check_count
from .lattice import (
    TWO_PI,
    _as_point,
    _check_integral,
    _enumerate_sorted,
    _holonomy_turns,
    _l1,
)

DEFAULT_EPS = 1e-10

GRID_CAP = 2 ** 24     # most cells of a density grid; a larger res^(2n) raises ValidationError


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
    check_count(k, 1, "k")
    if eps is not None and not (isinstance(eps, numbers.Real) and 0.0 < eps < 1.0):
        raise ValidationError(f"eps must be a finite number in (0, 1), got {eps!r}")


def tail_bound(torus, R, k):
    """Packing bound on the loop mass beyond radius R (unweighted units).

    Requires R >= l1; monotone decreasing in both R and k.  The sum stops at the first term
    below 1e-300, or at a term below the one before it and half an ulp of the total: the term
    ratio decreases in j, so each later term is absorbed by round-to-nearest, bit for bit.
    """
    _check_power(k)
    l1 = _l1(torus)
    if not l1 * (1.0 - 1e-12) <= R < math.inf:
        raise ValidationError(f"tail bound needs a finite R >= l1 = {l1:.6g}, got {R:.6g}")
    return _tail_sum(R, k, l1, 2 * torus.n)


def _tail_sum(R, k, l1, two_n, stop=math.inf):
    """The sum behind ``tail_bound``, unchecked, returned early once it passes ``stop``."""
    total, prev, j = 0.0, math.inf, 0
    while True:
        term = math.exp(-0.25 * k * (R + j) ** 2) * (1.0 + 2.0 * (R + j + 1) / l1) ** two_n
        if term < prev and term < 0.5 * math.ulp(total):
            return total
        total += term
        if term < 1e-300 or total > stop:
            return total
        prev, j = term, j + 1


def truncation_radius(torus, k, eps):
    """Minimal radius R with tail_bound(R, k) <= eps (to 1e-9 relative).

    The result depends on the numbers l1, 2n, k and eps alone and is memoised
    on them, so tori with equal l1 and n share one entry.
    """
    _check_power(k, eps)
    return _bisect_radius(_l1(torus), 2 * torus.n, int(k), float(eps))


@functools.lru_cache(maxsize=1024)
def _bisect_radius(l1, two_n, k, eps):
    """Grow-then-bisect search behind ``truncation_radius``."""
    lo = hi = l1
    if _tail_sum(l1, k, l1, two_n, eps) <= eps:     # terms are positive: a sum past eps stays so
        return l1
    for _ in range(400):
        hi *= 1.25
        if _tail_sum(hi, k, l1, two_n, eps) <= eps:
            break
        lo = hi
    else:
        raise NumericError(f"no truncation radius reaches eps = {eps:g}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _tail_sum(mid, k, l1, two_n, eps) <= eps else (mid, hi)
        if hi - lo <= 1e-9 * hi:
            break
    return hi


class _PreparedSum:
    """Enumerated loop data bound to (torus, chi, k, R), vectorized over
    evaluation points in lattice coordinates."""

    def __init__(self, torus, chi, k, radius):
        _check_integral(torus)      # before the enumeration, which can outgrow ENUM_CAP
        self.torus = torus
        self.radius = radius
        self.scale = (k / TWO_PI) ** torus.n
        C, lengths = _enumerate_sorted(*torus._form(), radius)
        self.terms = len(lengths)
        self.weights = np.exp(-0.25 * k * lengths ** 2)
        self.A, self.chi_turns = _holonomy_turns(torus, chi, k, C)
        self._Af = self.A.astype(float)
        self.tail = tail_bound(torus, radius, k)

    def coeffs(self, rows=slice(None)):
        return self.weights[rows] * np.exp(-2j * np.pi * np.mod(self.chi_turns[rows], 1.0))

    def _turns(self, coords):
        return _rowwise(np.asarray(coords, dtype=float), self._Af.T) - self.chi_turns

    def _level(self, coords):
        """Densities at coords of shape (m, 2n), and the cosines they are summed from."""
        cosines = np.cos(TWO_PI * self._turns(coords))
        return self.scale * (1.0 + _rowwise(cosines, self.weights[:, None])[..., 0]), cosines

    def density(self, coords):
        """scale * (1 + sum_v w_v cos(2*pi*turn_v(x))) for coords of shape (..., 2n)."""
        out = self._level(np.atleast_2d(coords))[0]
        return out if np.asarray(coords).ndim > 1 else float(out[0])

    def gradient(self, coords):
        turns = self._turns(coords)
        return -TWO_PI * self.scale * _rowwise(self.weights * np.sin(TWO_PI * turns), self._Af)

    def hessian(self, coords):
        return self._curvature(np.cos(TWO_PI * self._turns(coords)))

    def _curvature(self, cosines):
        """The Hessian from ``_level`` cosines: a row product with the outer products A_v A_v^T."""
        outer = (self._Af[:, :, None] * self._Af[:, None, :]).reshape(self.terms, -1)
        h = -(TWO_PI ** 2) * self.scale * _rowwise(self.weights * cosines, outer)
        return h.reshape(h.shape[:-1] + self._Af.shape[1:] * 2)


def _rowwise(a, B):
    """a @ B for a of shape (..., p) as a stack of single rows: a row gives the same bits
    alone as in a batch, where a 2-D a @ B takes another BLAS route."""
    return (a[..., None, :] @ B)[..., 0, :]


def _series_radius(torus, k, eps, radius):
    """The radius a series is truncated at: ``radius`` when given, else
    ``truncation_radius``, and never below l1, where ``tail_bound``
    starts.  A NaN radius would never end the tail loop, so a non-finite
    one raises ValidationError."""
    if radius is None:
        radius = truncation_radius(torus, k, eps)
    elif not math.isfinite(radius):
        raise ValidationError(f"radius must be finite, got {radius!r}")
    return max(radius, _l1(torus))


def _prepare(torus, chi, k, eps=DEFAULT_EPS, radius=None):
    _check_power(k, eps)
    return _PreparedSum(torus, chi, k, _series_radius(torus, k, eps, radius))


def rho_diag(torus, chi, k, p, eps=DEFAULT_EPS, radius=None):
    """Density of the k-th power at a torus point, with certified tail.

    The truncation radius is the minimal one whose packing tail bound
    is below eps, unless ``radius`` overrides it.
    """
    prep = _prepare(torus, chi, k, eps=eps, radius=radius)
    value = prep.density(_as_point(torus, p))
    return SeriesResult(value=float(value), radius=prep.radius, tail=prep.tail, terms=prep.terms)


def rho_gradient(torus, chi, k, p, eps=DEFAULT_EPS, radius=None):
    """Gradient of the truncated density in lattice coordinates."""
    prep = _prepare(torus, chi, k, eps=eps, radius=radius)
    return prep.gradient(_as_point(torus, p))


def _check_grid(torus, resolution, least):
    """check_count of ``resolution``, and at most GRID_CAP cells in its grid."""
    check_count(resolution, least, "resolution")
    if int(resolution) ** (2 * torus.n) > GRID_CAP:
        raise ValidationError(f"resolution {resolution} gives a grid above GRID_CAP = {GRID_CAP}")


def _grid_mean(prep, resolution):
    """Mean of ``_grid_values``, the zero bin: a loop averages to 0 over j/r unless r | A_v."""
    zero = np.all(np.mod(prep.A, resolution) == 0, axis=1)
    return prep.scale * (1.0 + float(np.sum(prep.coeffs(zero).real)))


def _grid_loop(A, coeffs, r):
    """sum_v Re(c_v exp(2*pi*i A_v . j/r)) on the grid j in (Z/r)^m, m = A.shape[1], for loops
    closed under v -> -v with conjugate coefficients (see the module docstring)."""
    m = A.shape[1]
    half = np.mod(A[:, -1], r) <= r // 2
    spectrum = np.zeros((r,) * (m - 1) + (r // 2 + 1,), dtype=complex)
    np.add.at(spectrum, tuple(np.mod(A[half], r).T), coeffs[half])
    return r ** m * np.fft.irfftn(spectrum, s=(r,) * m, axes=tuple(range(m)))


def _grid_values(prep, resolution):
    """Density on the grid j/r: the loop grid of the prepared sum's coefficients."""
    return prep.scale * (1.0 + _grid_loop(prep.A, prep.coeffs(), resolution))


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

    def write_csv(self, fh):
        cols = [f"coord_{i + 1}" for i in range(2 * self.n)]
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols + ["rho", "tail"])
        hw = self.density_halfwidth
        res = self.resolution
        for idx in np.ndindex(self.values.shape):
            row = [f"{i / res:.17g}" for i in idx]
            writer.writerow(row + [f"{self.values[idx]:.17g}", f"{hw:.17g}"])


def rho_grid(torus, chi, k, resolution, eps=DEFAULT_EPS, radius=None):
    """Density on the full coordinate grid; one enumeration serves every
    point."""
    _check_grid(torus, resolution, 2)
    prep = _prepare(torus, chi, k, eps=eps, radius=radius)
    values = _grid_values(prep, resolution)
    values.setflags(write=False)
    return GridField(values=values, resolution=resolution, n=torus.n, k=k,
                     radius=prep.radius, tail=prep.tail)


def integral_check(torus, chi, k, resolution=128, eps=1e-12):
    """Riemann integral of the density against the section count.

    Returns (integral, expected) with expected = k^n * |Pf(E)|.  The
    grid mean is compared against the half-resolution mean; a change
    above 1e-3 * expected raises QuadratureUnconverged.  No grid is built.
    """
    check_count(resolution, 8, "resolution")
    expected = float(k ** torus.n * torus.pfaffian_abs())
    prep = _prepare(torus, chi, k, eps=eps)
    coarse = _grid_mean(prep, resolution // 2)
    fine = _grid_mean(prep, resolution)
    vol = torus.volume()
    if abs(fine - coarse) * vol > 1e-3 * expected:
        raise QuadratureUnconverged(
            f"integral moved by {abs(fine - coarse) * vol:.3e} under doubling to res {resolution}"
        )
    return fine * vol, expected


def offdiag_bound(torus, k, x, y, eps=DEFAULT_EPS, radius=None):
    """Gaussian-decay bound on the normalized off-diagonal kernel.

    |K_k(x, y)| * exp(-k(phi(x~)+phi(y~))/2) is bounded by
    (k/2pi)^n * sum over translates u = y~ - x~ + v of exp(-(k/4) ell(u)^2);
    the translate sum is enumerated to the same radius policy as the
    diagonal series and certified by the same packing tail.  It covers
    every translate, so its offset is y - x in reduced coordinates.
    """
    _check_power(k, eps)
    _check_integral(torus)
    offset = _as_point(torus, y) - _as_point(torus, x)
    R = _series_radius(torus, k, eps, radius)
    _, lengths = _enumerate_sorted(*torus._form(), R, offset=offset)
    scale = (k / TWO_PI) ** torus.n
    value = scale * float(np.sum(np.exp(-0.25 * k * lengths ** 2)))
    return SeriesResult(value=value, radius=R, tail=tail_bound(torus, R, k),
                        terms=int(len(lengths)))
