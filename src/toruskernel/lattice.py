"""Polarized complex tori and their lattice arithmetic.

A torus X = C^n / Lambda is described by a rank-2n lattice basis
lambda_1, ..., lambda_2n in C^n together with a positive definite
Hermitian form H on C^n whose imaginary part E = Im H takes integer
values on Lambda x Lambda.  Conventions used throughout the package:

* H(u, w) is linear in the FIRST argument, so H(u, w) = u^T H conj(w)
  for the stored matrix H.
* E[i][j] = Im H(lambda_i, lambda_j); the alternating integer matrix E
  is rounded from the Hermitian pairing and the rounding residual is
  what ``validate`` checks.
* Geodesic loop lengths are measured in the Kaehler normalization
  ell(v)^2 = 2*pi*H(v, v), so the Gram matrix of the lattice basis is
  G[i][j] = 2*pi*Re H(lambda_i, lambda_j).

A line bundle on X is encoded by a semicharacter chi given through its
phases on the basis: chi(lambda_i) = exp(2*pi*i*phases[i]).  Values on
the rest of the lattice follow from the cocycle rule

    chi(u + w) = chi(u) * chi(w) * exp(i*pi*E(u, w)),

which pins chi(sum n_i lambda_i) up to the explicit correction
exp(i*pi * sum_{i<j} n_i n_j E[i][j]).  Everything here is an immutable
value after construction, so instances can be shared across threads.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateBasis,
    IntegralityViolation,
    NotPositiveDefinite,
    RadiusTooLarge,
    ValidationError,
    check_count,
    check_finite,
)

TWO_PI = 2.0 * math.pi

#: tolerance for rounding Im H to integers on the lattice
TOL_INT = 1e-9

#: relative tolerance used to group lattice vectors into length shells
TOL_SHELL = 1e-9

#: default cap on the number of enumerated lattice vectors
ENUM_CAP = 500_000

#: sign s of the holonomy exponent, Hol_k(p, v) = chi(v)^(-k) exp(2*pi*i*k*s*E(v, p~));
#: ``holonomy.calibration_report`` checks it against the transport ODE
HOL_SIGN = 1

# The short vectors of each torus, computed on first use.  Tori hash by
# identity and never change after construction, so an entry is valid for
# exactly as long as its torus lives, and the weak key drops it with the torus.
_DERIVED = weakref.WeakKeyDictionary()


def _pfaffian_int(E):
    """Pfaffian of an even-dimensional integer antisymmetric matrix."""
    m = E.shape[0]
    if m == 0:
        return 1
    rest = list(range(1, m))
    total = 0
    for idx, j in enumerate(rest):
        a = int(E[0, j])
        if a:
            sub = [r for r in rest if r != j]
            total += (-1) ** idx * a * _pfaffian_int(E[np.ix_(sub, sub)])
    return total


@dataclass(frozen=True, eq=False)
class PolarizedTorus:
    """Complex torus C^n / Lambda with a polarization H.

    Parameters
    ----------
    n : int
        Complex dimension.
    basis : array_like
        Shape (2n, n) complex; row i is the lattice vector lambda_i.
    H : array_like
        Shape (n, n) complex Hermitian positive definite form,
        linear in the first argument.

    Derived quantities (the integer matrix E, the geodesic Gram matrix
    G, real coordinates of the basis) are computed eagerly so that the
    instance never mutates afterwards.
    """

    n: int
    basis: np.ndarray
    H: np.ndarray
    E: np.ndarray = field(init=False)

    def __post_init__(self):
        check_count(self.n, 1, "n")
        n = int(self.n)
        try:
            basis, H = np.array(self.basis, dtype=complex), np.array(self.H, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"basis and H must be complex arrays: {exc}")
        check_finite(basis.ravel().tolist() + H.ravel().tolist(), "basis and H")
        if basis.shape != (2 * n, n) or H.shape != (n, n):
            raise ValidationError(f"basis and H must have shapes (2n, n) and (n, n) for n = {n}, "
                                  f"got {basis.shape} and {H.shape}")
        basis.setflags(write=False)
        H.setflags(write=False)
        pair = basis @ H @ basis.conj().T           # pair[i, j] = H(lambda_i, lambda_j)
        E_float = pair.imag
        E = np.rint(E_float).astype(np.int64)
        E.setflags(write=False)
        G = TWO_PI * pair.real
        G = 0.5 * (G + G.T)                          # symmetrize away roundoff
        G.setflags(write=False)
        # real coordinates: B_real @ x = [Re(embed(x)); Im(embed(x))]
        B_real = np.concatenate([basis.real.T, basis.imag.T], axis=0)
        B_real.setflags(write=False)
        try:
            chol_upper = np.linalg.cholesky(G).T
            chol_upper.setflags(write=False)
        except np.linalg.LinAlgError:
            chol_upper = None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "_E_abs_sum", int(np.abs(E).sum()))     # read by _holonomy_turns
        object.__setattr__(self, "_integrality_residual", float(np.max(np.abs(E_float - E))))
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "_B_real", B_real)
        object.__setattr__(self, "_chol_upper", chol_upper)
        object.__setattr__(self, "_det_B", float(np.linalg.det(B_real)))

    # -- embeddings and coordinates ------------------------------------

    def embed(self, coords):
        """Map lattice coordinates (..., 2n) to vectors in C^n."""
        return np.asarray(coords, dtype=float) @ self.basis

    def coords_from_lift(self, z):
        """Real coordinates x with sum x_i lambda_i = z, for a z of n entries (ValidationError)."""
        z = np.asarray(z, dtype=complex)
        if z.size != self.n:
            raise ValidationError(f"a lift needs {self.n} entries, got shape {z.shape}")
        z = z.reshape(self.n)
        rhs = np.concatenate([z.real, z.imag])
        try:
            return np.linalg.solve(self._B_real, rhs)
        except np.linalg.LinAlgError:
            raise DegenerateBasis("lattice basis does not span C^n over R")

    def hermitian_pair(self, u, w):
        """H(u, w), linear in u, conjugate linear in w."""
        u = np.asarray(u, dtype=complex).reshape(self.n)
        w = np.asarray(w, dtype=complex).reshape(self.n)
        return complex(u @ self.H @ w.conj())

    def length_of(self, v):
        """Geodesic loop length ell(v) = sqrt(2*pi*H(v, v)) of v in C^n."""
        q = self.hermitian_pair(v, v).real
        return math.sqrt(TWO_PI * max(q, 0.0))

    def volume(self):
        """Riemannian volume of the torus, (2*pi)^n det(H) |det B|."""
        detH = float(np.linalg.det(self.H).real)
        return (TWO_PI ** self.n) * detH * abs(self._det_B)

    def pfaffian_abs(self):
        """|Pf(E)| as an exact integer."""
        return abs(_pfaffian_int(self.E))

    def _form(self):
        """The geodesic Gram matrix and its upper Cholesky factor, the form every search reads."""
        if self._chol_upper is None:
            raise NotPositiveDefinite("geodesic Gram matrix is not positive definite")
        return self.gram, self._chol_upper


def _check_length(torus, shape):
    """Raise ValidationError unless ``shape`` is (2n,), that of one point's or loop's coordinates."""
    if shape != (2 * torus.n,):
        raise ValidationError(f"coords must have length {2 * torus.n}, got shape {shape}")


def _integer_coords(torus, coords):
    """``coords``, one row (2n,) or rows (t, 2n), as int64: 0.5, NaN or 2^63 raise ValidationError,
    never truncate or wrap.  Signed integer arrays skip the element test, a hot path's one test."""
    C = np.asarray(coords)
    _check_length(torus, C.shape[-1:] if C.ndim <= 2 else C.shape)
    if C.dtype.kind != "i" and not all(isinstance(t, numbers.Real) and -2 ** 63 <= t < 2 ** 63
                                       and t == int(t) for t in C.ravel().tolist()):
        raise ValidationError(f"lattice coordinates must be int64 integers, got {coords!r}")
    return C.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class LatticeVector:
    """A lattice element with its integer coordinates, embedding and length."""

    coords: tuple
    embedding: np.ndarray
    length: float

    @classmethod
    def from_coords(cls, torus, coords):
        """Integer coordinates only: 0.5, NaN or 2^63 raise, never truncate."""
        c = _as_vector(torus, coords)
        emb = torus.embed(c)
        emb.setflags(write=False)
        q = float(c @ torus.gram @ c)
        return cls(coords=tuple(int(x) for x in c), embedding=emb, length=math.sqrt(max(q, 0.0)))


@dataclass(frozen=True)
class Semicharacter:
    """Bundle datum: chi(lambda_i) = exp(2*pi*i*phases[i]), phases mod 1."""

    phases: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.phases)
        check_finite(p, "semicharacter phases")
        object.__setattr__(self, "phases", tuple(map(_frac, p)))

    @classmethod
    def trivial(cls, n):
        return cls(phases=(0.0,) * (2 * n))


def _frac(x):
    """x mod 1 in [0, 1) for a float or an array, the one rule behind every value documented
    as reduced mod 1: a tiny negative x mod 1 rounds up to exactly 1.0, so x is reduced twice."""
    return x % 1.0 % 1.0


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of the torus: its coordinates reduced into [0, 1), and their embedding as
    the lift.  Readers take the coordinates and embed them on their own torus."""

    lift: np.ndarray
    coords: tuple

    @classmethod
    def from_coords(cls, torus, coords):
        x = _reduced_coords(torus, coords)
        lift = torus.embed(x)
        lift.setflags(write=False)
        return cls(lift=lift, coords=tuple(x.tolist()))

    @classmethod
    def _from_coord_rows(cls, torus, X):
        """``from_coords`` on the rows of a finite (m, 2n) array, but the lifts of one matmul
        may differ from ``from_coords`` lifts in the last bits; no reader reads them."""
        X = _frac(X)
        lifts = torus.embed(X)
        lifts.setflags(write=False)
        return tuple(map(cls, lifts, map(tuple, X.tolist())))

    @classmethod
    def from_lift(cls, torus, z):
        return cls.from_coords(torus, torus.coords_from_lift(z))

    @classmethod
    def zero(cls, torus):
        return cls.from_coords(torus, np.zeros(2 * torus.n))


def _reduced_coords(torus, coords):
    """Finite coordinates of one point as the float64 row (2n,), reduced by ``_frac``."""
    x = np.asarray(coords, dtype=float)
    _check_length(torus, x.shape)
    check_finite(x.tolist(), "point coordinates")
    return _frac(x)


def _as_point(torus, p):
    """A point's reduced coordinates as the float64 row (2n,): a TorusPoint's ``coords``,
    anything else read as a lift in C^n of a point of ``torus``."""
    if not isinstance(p, TorusPoint):
        return _reduced_coords(torus, torus.coords_from_lift(p))
    x = np.array(p.coords)
    _check_length(torus, x.shape)
    return x


def _as_vector(torus, v):
    """A loop's integer coordinates as the int64 row (2n,): a LatticeVector's ``coords``,
    anything else read as integer coordinates."""
    c = _integer_coords(torus, v.coords if isinstance(v, LatticeVector) else v)
    _check_length(torus, c.shape)
    return c


class ValidationReport(NamedTuple):
    n: int
    min_eigenvalue: float
    integrality_residual: float
    rank_E: int
    pfaffian_abs: int
    det_basis: float
    volume: float

    def lines(self):
        return [
            f"n = {self.n}",
            f"min_eigenvalue(H) = {self.min_eigenvalue:.17g}",
            f"integrality_residual = {self.integrality_residual:.17g}",
            f"rank_E = {self.rank_E}",
            f"pfaffian_abs = {self.pfaffian_abs}",
            f"det_basis = {self.det_basis:.17g}",
            f"volume = {self.volume:.17g}",
        ]


class Shells(NamedTuple):
    l1: float
    l2: float
    S1: list


def _check_integral(torus):
    """Raise IntegralityViolation if Im H is more than TOL_INT off the integers."""
    if torus._integrality_residual > TOL_INT:
        raise IntegralityViolation(f"Im H off the integer lattice by "
                                   f"{torus._integrality_residual:.3e} (tol {TOL_INT:.1e})")


def validate(torus):
    """Check polarization data and return a ValidationReport.

    Raises DegenerateBasis if the 2n basis vectors fail to span C^n over
    R, NotPositiveDefinite if H is not Hermitian positive definite, and
    IntegralityViolation if Im H strays from integers on the lattice by
    more than TOL_INT.
    """
    scale = float(np.max(np.abs(torus._B_real))) or 1.0
    if abs(torus._det_B) < 1e-12 * scale ** (2 * torus.n):
        raise DegenerateBasis("lattice basis does not span C^n over R")
    herm_defect = float(np.max(np.abs(torus.H - torus.H.conj().T)))
    eigs = np.linalg.eigvalsh(0.5 * (torus.H + torus.H.conj().T))
    min_eig = float(eigs[0])
    if herm_defect > 1e-12 * max(1.0, float(np.max(np.abs(torus.H)))) or min_eig <= 0.0:
        raise NotPositiveDefinite(
            f"H must be Hermitian positive definite (min eigenvalue {min_eig:.3e})"
        )
    _check_integral(torus)
    return ValidationReport(
        n=torus.n,
        min_eigenvalue=min_eig,
        integrality_residual=torus._integrality_residual,
        rank_E=int(np.linalg.matrix_rank(torus.E.astype(float))),
        pfaffian_abs=torus.pfaffian_abs(),
        det_basis=torus._det_B,
        volume=torus.volume(),
    )


# -- enumeration -----------------------------------------------------------


def _ball_count_estimate(chol, radius):
    """1.5 ball volumes per covolume (the product of diag chol), plus m, as an int for any finite
    radius: the power is taken on exact integer ratios, not in floats."""
    m = chol.shape[0]
    covol = max(float(np.prod(np.diag(chol))), 1e-150)
    a, b = (1.5 * math.pi ** (m / 2) / math.gamma(m / 2 + 1) / covol).as_integer_ratio()
    c, d = float(radius).as_integer_ratio()
    return -(-a * c ** m // (b * d ** m)) + m


def _fp_enumerate(chol, radius, offsets=None, cap=ENUM_CAP):
    """Integer vectors c with |R(c + o)| <= radius, for the upper Cholesky
    factor R = ``chol`` of an m x m form and each row o of the (Q, m) array
    ``offsets`` (one zero offset when None), by Fincke-Pohst.

    The search runs level by level, from the last coordinate to the
    first: every partial vector of one depth, for every offset, is
    expanded over its admissible range in a single array step.  No step
    makes more than ``cap`` rows, so memory stays O(cap) rows per level;
    a level with more children than that is expanded in slices, depth
    first.  Returns (coords, source): an (N, m) int array, unsorted, and
    the offsets row each candidate belongs to.  The candidate search
    runs with a slightly padded radius; callers apply the exact length
    filter.
    """
    R, m = chol, chol.shape[0]
    offs = np.zeros((1, m)) if offsets is None else np.asarray(offsets, dtype=float)
    pad = radius * (1.0 + 1e-12) + 1e-12
    budget = pad * pad
    min_rem = -1e-9 * budget - 1e-30
    out, sources = [], []
    found = 0

    def too_large():
        return RadiusTooLarge(f"enumeration inside radius {radius:.6g} exceeds cap {cap}",
                              required_cap=_ball_count_estimate(R, radius))

    def expand(i, C, src, rem):
        nonlocal found
        rii = float(R[i, i])
        off = offs[src]
        t = (C[:, i + 1:] + off[:, i + 1:]) @ R[i, i + 1:]
        # row r may take c_i in [mid_r - half_r, mid_r + half_r]; rem >= 0
        mid = -t / rii - off[:, i]
        half = np.sqrt(rem) / rii + 1e-12
        lo = np.ceil(mid - half)
        counts = np.maximum(np.floor(mid + half) - lo + 1.0, 0.0)
        ends = np.cumsum(counts)
        # float partial sums are exact below 2^53; a level that large, or
        # an infinite count from a radius whose square overflows, is
        # beyond any cap
        if not ends[-1] < 2.0 ** 53:
            raise too_large()
        counts, ends = counts.astype(np.int64), ends.astype(np.int64)
        total = int(ends[-1])
        for start in range(0, total, cap):
            child = np.arange(start, min(start + cap, total))
            parent = np.searchsorted(ends, child, side="right")
            ci = lo[parent] + (child - ends[parent] + counts[parent])
            s = rii * (ci + off[parent, i]) + t[parent]
            rem2 = rem[parent] - s * s
            keep = rem2 >= min_rem
            parent = parent[keep]
            rows = C[parent]
            rows[:, i] = ci[keep]
            if i == 0:
                found += rows.shape[0]
                if found > cap:
                    raise too_large()
                out.append(rows)
                sources.append(src[parent])
            elif rows.shape[0]:
                expand(i - 1, rows, src[parent], np.maximum(rem2[keep], 0.0))

    if radius >= 0:
        q = offs.shape[0]
        expand(m - 1, np.zeros((q, m), dtype=np.int64), np.arange(q), np.full(q, budget))
    if not out:
        return np.zeros((0, m), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(out), np.concatenate(sources)


def _enumerate_sorted(gram, chol, radius, offset=None, cap=ENUM_CAP):
    """Integer vectors c with |c + offset| <= radius in the form ``gram``
    (upper Cholesky factor ``chol``), and their lengths.

    Returns (coords, lengths) arrays ordered by length, ties broken
    lexicographically on coordinates.  Without an offset the zero
    vector is left out.
    """
    cand, _ = _fp_enumerate(chol, radius, None if offset is None else [offset], cap=cap)
    if offset is None:
        cand = cand[np.any(cand != 0, axis=1)]
        u = cand
    else:
        u = cand + np.asarray(offset, dtype=float)
    lengths = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, gram, u), 0.0))
    keep = lengths <= radius
    cand, lengths = cand[keep], lengths[keep]
    # lexsort's last key is the primary one: length, then c_1, c_2, ...
    order = np.lexsort((*cand[:, ::-1].T, lengths))
    return cand[order], lengths[order]


def _nearest_distance(gram, chol, pairs):
    """For each (x, Q) in ``pairs``, the distance in the form ``gram`` from the point x to the
    nearest row of Q modulo Z^m, by one translate search over every offset Q - x; the largest
    of the pairs' shortest wrapped offsets reaches every answer."""
    offs = [np.asarray(Q, dtype=float) - np.asarray(x, dtype=float) for x, Q in pairs]
    starts = np.cumsum([0] + [len(o) for o in offs[:-1]])
    offs = np.concatenate(offs)
    wrapped = offs - np.rint(offs)
    shortest = np.minimum.reduceat(np.einsum("ti,ij,tj->t", wrapped, gram, wrapped), starts)
    reach = math.sqrt(max(float(np.max(shortest)), 0.0)) * (1.0 + 1e-9) + 1e-12
    cand, src = _fp_enumerate(chol, reach, offsets=offs)
    u = cand + offs[src]
    dist = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, gram, u), 0.0))
    best = np.full(len(starts), np.inf)
    np.minimum.at(best, np.searchsorted(starts, src, side="right") - 1, dist)
    return best.tolist()


def _lattice_vectors(basis, coords, lengths):
    """LatticeVector objects for enumerated rows (the API edge).

    Each embedding is computed row by row, as ``LatticeVector.from_coords``
    does, so both constructions of one vector agree to the last bit.
    """
    return [LatticeVector(coords=tuple(int(x) for x in c), embedding=c.astype(float) @ basis,
                          length=float(ell))
            for c, ell in zip(coords, lengths)]


def enumerate_within(torus, radius, cap=ENUM_CAP):
    """All nonzero lattice vectors with ell(v) <= radius.

    Sorted by length, ties broken lexicographically on coordinates.
    The search itself is array-native (see ``_enumerate_sorted``);
    LatticeVector objects are built only here, for callers that want
    them.  Nothing is cached here: only the short vectors behind
    ``shells`` are memoised per torus, and they are dropped with the
    torus.  Raises RadiusTooLarge when the search meets more than
    ``cap`` candidate vectors, and ValidationError for a non-finite radius.
    """
    check_finite((radius,), "radius")
    return _lattice_vectors(torus.basis, *_enumerate_sorted(*torus._form(), radius, cap=cap))


def enumerate_shifted(torus, shift, radius, cap=ENUM_CAP):
    """All translates u = shift + v, v in Lambda, with ell(u) <= radius.

    ``shift`` is a vector in C^n.  Returns (coords, embeddings, lengths)
    arrays sorted by length then coordinates, from the same array core
    as ``enumerate_within`` and likewise uncached, with its radius check;
    the zero translate is included when shift lies in the lattice.
    """
    check_finite((radius,), "radius")
    off = torus.coords_from_lift(shift)
    coords, lengths = _enumerate_sorted(*torus._form(), radius, offset=off, cap=cap)
    return coords, (coords + off) @ torus.basis, lengths


def _short_vectors(torus):
    """``_enumerate_sorted`` within 2*sqrt(min diag G)*(1 + 1e-9), once per torus: as
    l1 <= sqrt(min diag G), it holds l1 and every length ``shells`` reads."""
    if torus not in _DERIVED:
        gram, chol = torus._form()
        start = math.sqrt(float(np.min(np.diag(gram))))
        _DERIVED[torus] = _enumerate_sorted(gram, chol, 2.0 * start * (1.0 + 1e-9))
    return _DERIVED[torus]


def _l1(torus):
    """Shortest loop length, computed once per torus."""
    return float(_short_vectors(torus)[1][0])


def shells(torus):
    """Shortest and second-shortest loop lengths plus the first shell.

    Returns Shells(l1, l2, S1) where S1 lists every lattice vector of
    length within l1 * (1 + TOL_SHELL), and l2 is the smallest length
    strictly beyond that band.
    """
    coords, lengths = _short_vectors(torus)
    l1 = float(lengths[0])
    top = int(np.searchsorted(lengths, 2.0 * l1 * (1.0 + 1e-9), side="right"))
    inner = int(np.searchsorted(lengths, l1 * (1.0 + TOL_SHELL), side="right"))
    S1 = _lattice_vectors(torus.basis, coords[:inner], lengths[:inner])
    l2 = float(lengths[inner]) if inner < top else 2.0 * l1
    return Shells(l1=l1, l2=l2, S1=S1)


# -- semicharacter evaluation ---------------------------------------------


def chi_phase_turns(chi, torus, coords):
    """Phase of chi on lattice coords, in turns (units of 2*pi), batched.

    chi(c) = exp(2*pi*i * (c . phases + S/2)) with the integer cocycle
    correction S = sum_{i<j} c_i c_j E[i][j]; the half-integer part is
    exact, so powers of chi keep their exact signs.  E must be integral.
    Coordinates of another length or not integers (0.5, NaN) raise ValidationError.
    """
    _check_integral(torus)
    if len(chi.phases) != 2 * torus.n:
        raise ValidationError(
            f"semicharacter needs {2 * torus.n} phases, got {len(chi.phases)}")
    C = _integer_coords(torus, coords)
    single = C.ndim == 1
    C = np.atleast_2d(C)
    S = np.einsum("ti,ij,tj->t", C, np.triu(torus.E, k=1), C)
    # only S mod 2 enters the phase; reducing before the float cast keeps
    # the half turn exact for arbitrarily large coordinates
    turns = C @ np.asarray(chi.phases, dtype=float) + (S % 2).astype(float) / 2.0
    return (float(turns[0]) if single else turns)


def _holonomy_turns(torus, chi, k, C):
    """The k-th power holonomy on the loops with integer coordinates C, as (A, phi): the turn at
    lattice coordinates x is A . x - phi, A = k*s*(C E) in C's integer type (exact for an object
    C) and phi = k*chi_phase_turns(C), so it depends on x mod 1 alone.  For an int64 C, a bound
    k*max(1, |C| @ |E|) >= 2^63 on k, A and its partial sums raises ValidationError."""
    top = max(int(C.max(initial=1)), -int(C.min(initial=0))) * torus._E_abs_sum
    if C.dtype != object and int(k) * top >= 2 ** 63:      # max|C| * sum|E| is at least the bound
        if int(k) * np.max(np.abs(C.astype(object)) @ np.abs(torus.E), initial=1) >= 2 ** 63:
            raise ValidationError(f"k = {k} carries the loop coefficients k*(C E) past int64")
    return (k * HOL_SIGN) * (C @ torus.E), k * chi_phase_turns(chi, torus, C)


def automorphy_factor(torus, chi, k, coords, z):
    """Multiplier a_k(lambda, z) of the k-th bundle power.

    a_k(lambda, z) = chi(lambda)^k * exp(k*pi*H(z, lambda) + (k*pi/2)*H(lambda, lambda))
    for lambda with the given integer coordinates and z in C^n.  Sections
    of the k-th power satisfy f(z + lambda) = a_k(lambda, z) f(z).  A z of
    shape (P, n) gives P multipliers with one chi phase; others a complex.
    """
    check_count(k, 1, "k")
    c = _as_vector(torus, coords)
    lam = torus.embed(c)
    z = np.asarray(z, dtype=complex)
    hzl = (z if z.ndim == 2 else z.reshape(1, torus.n)) @ torus.H @ lam.conj()
    hll = torus.hermitian_pair(lam, lam)
    turns = k * chi_phase_turns(chi, torus, c)
    out = np.exp(2j * math.pi * turns) * np.exp(k * math.pi * hzl + 0.5 * k * math.pi * hll)
    return out if z.ndim == 2 else complex(out[0])


# -- convenience constructors and plumbing ---------------------------------


def standard_torus(tau, d=1):
    """Elliptic curve C / (Z + Z*tau) with H = [[d / Im tau]].

    The polarization then has E(lambda_1, lambda_2) = -d, so |Pf(E)| = d.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValidationError(f"tau must have positive imaginary part, got {tau!r}")
    return PolarizedTorus(n=1, basis=[[1.0], [tau]], H=[[d / tau.imag]])


def product_torus(a, b):
    """Product of two polarized tori with block-diagonal data."""
    n = a.n + b.n
    basis = np.zeros((2 * n, n), dtype=complex)
    basis[: 2 * a.n, : a.n] = a.basis
    basis[2 * a.n:, a.n:] = b.basis
    H = np.zeros((n, n), dtype=complex)
    H[: a.n, : a.n] = a.H
    H[a.n:, a.n:] = b.H
    return PolarizedTorus(n=n, basis=basis, H=H)

