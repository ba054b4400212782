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
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateBasis,
    IntegralityViolation,
    NotPositiveDefinite,
    RadiusTooLarge,
)

TWO_PI = 2.0 * math.pi

#: default tolerance for rounding Im H to integers on the lattice
TOL_INT = 1e-9

#: relative tolerance used to group lattice vectors into length shells
TOL_SHELL = 1e-9

#: default cap on the number of enumerated lattice vectors
ENUM_CAP = 500_000

# Pure per-torus values (shortest length, truncation radii), computed on
# first use.  Tori hash by identity and never change after construction,
# so an entry is valid for exactly as long as its torus lives, and the
# weak key drops it together with the torus.
_DERIVED = weakref.WeakKeyDictionary()


def _derived(torus):
    """The memo dict of values derived from ``torus`` alone."""
    return _DERIVED.setdefault(torus, {})


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
        n = int(self.n)
        basis = np.array(self.basis, dtype=complex)
        H = np.array(self.H, dtype=complex)
        if basis.shape != (2 * n, n):
            raise ValueError(f"basis must have shape (2n, n) = {(2 * n, n)}, got {basis.shape}")
        if H.shape != (n, n):
            raise ValueError(f"H must have shape (n, n) = {(n, n)}, got {H.shape}")
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
        """Real coordinates x with sum x_i lambda_i = z."""
        z = np.asarray(z, dtype=complex).reshape(self.n)
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

    def _require_chol(self):
        if self._chol_upper is None:
            raise NotPositiveDefinite("geodesic Gram matrix is not positive definite")
        return self._chol_upper


@dataclass(frozen=True, eq=False)
class LatticeVector:
    """A lattice element with its integer coordinates, embedding and length."""

    coords: tuple
    embedding: np.ndarray
    length: float

    @classmethod
    def from_coords(cls, torus, coords):
        c = np.asarray(coords, dtype=np.int64)
        if c.shape != (2 * torus.n,):
            raise ValueError(f"coords must have length {2 * torus.n}")
        emb = torus.embed(c)
        emb.setflags(write=False)
        q = float(c @ torus.gram @ c)
        return cls(coords=tuple(int(x) for x in c), embedding=emb, length=math.sqrt(max(q, 0.0)))


@dataclass(frozen=True)
class Semicharacter:
    """Bundle datum: chi(lambda_i) = exp(2*pi*i*phases[i]), phases mod 1."""

    phases: tuple

    def __post_init__(self):
        p = tuple(float(x) % 1.0 for x in self.phases)
        object.__setattr__(self, "phases", p)

    @classmethod
    def trivial(cls, n):
        return cls(phases=(0.0,) * (2 * n))


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of the torus, stored as a lift in C^n plus reduced coordinates."""

    lift: np.ndarray
    coords: tuple

    @classmethod
    def from_coords(cls, torus, coords):
        x = np.asarray(coords, dtype=float)
        if x.shape != (2 * torus.n,):
            raise ValueError(f"coords must have length {2 * torus.n}")
        lift = torus.embed(x)
        lift.setflags(write=False)
        return cls(lift=lift, coords=tuple(float(v % 1.0) for v in x))

    @classmethod
    def from_lift(cls, torus, z):
        z = np.asarray(z, dtype=complex).reshape(torus.n)
        z = z.copy()
        z.setflags(write=False)
        x = torus.coords_from_lift(z)
        return cls(lift=z, coords=tuple(float(v % 1.0) for v in x))

    @classmethod
    def zero(cls, torus):
        return cls.from_coords(torus, np.zeros(2 * torus.n))


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


def validate(torus, tol_int=TOL_INT):
    """Check polarization data and return a ValidationReport.

    Raises DegenerateBasis if the 2n basis vectors fail to span C^n over
    R, NotPositiveDefinite if H is not Hermitian positive definite, and
    IntegralityViolation if Im H strays from integers on the lattice by
    more than tol_int.
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
    resid = torus._integrality_residual
    if resid > tol_int:
        raise IntegralityViolation(
            f"Im H off the integer lattice by {resid:.3e} (tol {tol_int:.1e})"
        )
    return ValidationReport(
        n=torus.n,
        min_eigenvalue=min_eig,
        integrality_residual=resid,
        rank_E=int(np.linalg.matrix_rank(torus.E.astype(float))),
        pfaffian_abs=torus.pfaffian_abs(),
        det_basis=torus._det_B,
        volume=torus.volume(),
    )


def length(torus, v):
    """Geodesic loop length of v (a LatticeVector or a vector in C^n)."""
    if isinstance(v, LatticeVector):
        return v.length
    return torus.length_of(v)


# -- enumeration -----------------------------------------------------------


def _ball_count_estimate(torus, radius):
    m = 2 * torus.n
    covol = math.sqrt(max(float(np.linalg.det(torus.gram)), 1e-300))
    ball = math.pi ** (m / 2) * radius ** m / math.gamma(m / 2 + 1)
    return int(math.ceil(1.5 * ball / covol)) + m


def _fp_enumerate(torus, radius, offsets=None, cap=ENUM_CAP):
    """Integer vectors c with ell(c + o) <= radius, for each row o of the
    (Q, 2n) array ``offsets`` (one zero offset when None), by Fincke-Pohst
    on the Cholesky factor of the Gram matrix.

    The search runs level by level, from the last coordinate to the
    first: every partial vector of one depth, for every offset, is
    expanded over its admissible range in a single array step.  No step
    makes more than ``cap`` rows, so memory stays O(cap) rows per level;
    a level with more children than that is expanded in slices, depth
    first.  Returns (coords, source): an (N, 2n) int array, unsorted, and
    the offsets row each candidate belongs to.  The candidate search
    runs with a slightly padded radius; callers apply the exact length
    filter.
    """
    R = torus._require_chol()
    m = 2 * torus.n
    offs = np.zeros((1, m)) if offsets is None else np.asarray(offsets, dtype=float)
    pad = radius * (1.0 + 1e-12) + 1e-12
    budget = pad * pad
    min_rem = -1e-9 * budget - 1e-30
    out, sources = [], []
    found = 0

    def expand(i, C, src, rem):
        nonlocal found
        rii = float(R[i, i])
        off = offs[src]
        t = (C[:, i + 1:] + off[:, i + 1:]) @ R[i, i + 1:]
        # row r may take c_i in [mid_r - half_r, mid_r + half_r]; rem >= 0
        mid = -t / rii - off[:, i]
        half = np.sqrt(rem) / rii + 1e-12
        lo = np.ceil(mid - half)
        counts = np.maximum(np.floor(mid + half) - lo + 1.0, 0.0).astype(np.int64)
        ends = np.cumsum(counts)
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
                    raise RadiusTooLarge(
                        f"enumeration inside radius {radius:.6g} exceeds cap {cap}",
                        required_cap=_ball_count_estimate(torus, radius),
                    )
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


def _enumerate_sorted(torus, radius, offset=None, cap=ENUM_CAP):
    """Lattice coordinates c with ell(c + offset) <= radius, and their lengths.

    Returns (coords, lengths) arrays ordered by length, ties broken
    lexicographically on coordinates.  Without an offset the zero
    vector is left out.
    """
    cand, _ = _fp_enumerate(torus, radius, None if offset is None else [offset], cap=cap)
    if offset is None:
        cand = cand[np.any(cand != 0, axis=1)]
        u = cand
    else:
        u = cand + np.asarray(offset, dtype=float)
    lengths = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, torus.gram, u), 0.0))
    keep = lengths <= radius
    cand, lengths = cand[keep], lengths[keep]
    # lexsort's last key is the primary one: length, then c_1, c_2, ...
    order = np.lexsort((*cand[:, ::-1].T, lengths))
    return cand[order], lengths[order]


def _lattice_vectors(torus, coords, lengths):
    """LatticeVector objects for enumerated rows (the API edge).

    Each embedding is computed row by row, as ``LatticeVector.from_coords``
    does, so both constructions of one vector agree to the last bit.
    """
    return [LatticeVector(coords=tuple(int(x) for x in c), embedding=torus.embed(c),
                          length=float(ell))
            for c, ell in zip(coords, lengths)]


def enumerate_within(torus, radius, cap=ENUM_CAP):
    """All nonzero lattice vectors with ell(v) <= radius.

    Sorted by length, ties broken lexicographically on coordinates.
    The search itself is array-native (see ``_enumerate_sorted``);
    LatticeVector objects are built only here, for callers that want
    them.  Nothing is cached here: only the shortest length and the
    truncation radii are memoised per torus, and they are dropped with
    the torus.  Raises RadiusTooLarge when the search meets more than
    ``cap`` candidate vectors.
    """
    return _lattice_vectors(torus, *_enumerate_sorted(torus, radius, cap=cap))


def enumerate_shifted(torus, shift, radius, cap=ENUM_CAP):
    """All translates u = shift + v, v in Lambda, with ell(u) <= radius.

    ``shift`` is a vector in C^n.  Returns (coords, embeddings, lengths)
    arrays sorted by length then coordinates, from the same array core
    as ``enumerate_within`` and likewise uncached; the zero translate is
    included when shift lies in the lattice.
    """
    off = torus.coords_from_lift(shift)
    coords, lengths = _enumerate_sorted(torus, radius, offset=off, cap=cap)
    return coords, (coords + off) @ torus.basis, lengths


def _l1(torus):
    """Shortest loop length, computed once per torus."""
    memo = _derived(torus)
    if "l1" not in memo:
        start = math.sqrt(float(np.min(np.diag(torus.gram))))
        memo["l1"] = float(_enumerate_sorted(torus, start * (1.0 + 1e-12))[1][0])
    return memo["l1"]


def shells(torus, tol_shell=TOL_SHELL, cap=ENUM_CAP):
    """Shortest and second-shortest loop lengths plus the first shell.

    Returns Shells(l1, l2, S1) where S1 lists every lattice vector of
    length within l1 * (1 + tol_shell), and l2 is the smallest length
    strictly beyond that band.  When the first shell has exactly twice
    as many vectors as its real span's dimension, each member is checked
    to be primitive.
    """
    l1 = _l1(torus)
    coords, lengths = _enumerate_sorted(torus, 2.0 * l1 * (1.0 + 1e-9), cap=cap)
    inner = int(np.searchsorted(lengths, l1 * (1.0 + tol_shell), side="right"))
    S1 = _lattice_vectors(torus, coords[:inner], lengths[:inner])
    l2 = float(lengths[inner]) if inner < len(lengths) else 2.0 * l1
    if len(S1) == 2 * np.linalg.matrix_rank(coords[:inner].astype(float)):
        for v in S1:
            if math.gcd(*[abs(c) for c in v.coords]) != 1:
                raise AssertionError(f"first-shell vector {v.coords} is imprimitive")
    return Shells(l1=l1, l2=l2, S1=S1)


# -- semicharacter evaluation ---------------------------------------------


def _cocycle_halfint(torus, coords):
    """sum_{i<j} c_i c_j E[i][j] as exact integers, batched."""
    C = np.asarray(coords, dtype=np.int64)
    single = C.ndim == 1
    C = np.atleast_2d(C)
    EU = np.triu(torus.E, k=1)
    S = np.einsum("ti,ij,tj->t", C, EU, C)
    return (S[0] if single else S)


def chi_phase_turns(chi, torus, coords):
    """Phase of chi on lattice coords, in turns (units of 2*pi), batched.

    chi(c) = exp(2*pi*i * (c . phases + S/2)) with the integer cocycle
    correction S = sum_{i<j} c_i c_j E[i][j]; the half-integer part is
    exact, so powers of chi keep their exact signs.
    """
    C = np.asarray(coords, dtype=np.int64)
    single = C.ndim == 1
    C = np.atleast_2d(C)
    phases = np.asarray(chi.phases, dtype=float)
    S = _cocycle_halfint(torus, C)
    # only S mod 2 enters the phase; reducing before the float cast keeps
    # the half turn exact for arbitrarily large coordinates
    turns = C @ phases + (S % 2).astype(float) / 2.0
    return (float(turns[0]) if single else turns)


def chi_eval(chi, torus, coords):
    """Value of the semicharacter on integer coordinates."""
    # reduce turns mod 1 first: exp at multi-turn arguments sheds accuracy
    turns = np.asarray(chi_phase_turns(chi, torus, coords)) % 1.0
    return np.exp(2j * math.pi * turns) if turns.ndim else complex(np.exp(2j * math.pi * turns))


def automorphy_factor(torus, chi, k, coords, z):
    """Multiplier a_k(lambda, z) of the k-th bundle power.

    a_k(lambda, z) = chi(lambda)^k * exp(k*pi*H(z, lambda) + (k*pi/2)*H(lambda, lambda))
    for lambda with the given integer coordinates and z in C^n.  Sections
    of the k-th power satisfy f(z + lambda) = a_k(lambda, z) f(z).
    """
    lam = torus.embed(np.asarray(coords, dtype=np.int64))
    z = np.asarray(z, dtype=complex).reshape(torus.n)
    hzl = torus.hermitian_pair(z, lam)
    hll = torus.hermitian_pair(lam, lam)
    turns = k * chi_phase_turns(chi, torus, coords)
    return complex(np.exp(2j * math.pi * turns) * np.exp(k * math.pi * hzl + 0.5 * k * math.pi * hll))


# -- convenience constructors and plumbing ---------------------------------


def standard_torus(tau, d=1):
    """Elliptic curve C / (Z + Z*tau) with H = [[d / Im tau]].

    The polarization then has E(lambda_1, lambda_2) = -d, so |Pf(E)| = d.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
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


def torus_distance(torus, p, q):
    """Geodesic distance between two torus points, by translate search."""
    return _nearest_distance(torus, p, [q])


def _nearest_distance(torus, p, targets):
    """Geodesic distance from p to the nearest of the torus points
    ``targets``, by one translate search over all of them.

    The shortest wrapped difference bounds the answer from above, so one
    search of that radius around every target's offset finds it.
    """
    base = np.asarray(p.lift, dtype=complex)
    offs = np.array([torus.coords_from_lift(np.asarray(q.lift, dtype=complex) - base)
                     for q in targets])
    wrapped = offs - np.rint(offs)
    reach = min(torus.length_of(torus.embed(w)) for w in wrapped) * (1.0 + 1e-9) + 1e-12
    cand, src = _fp_enumerate(torus, reach, offsets=offs)
    u = cand + offs[src]
    return float(np.min(np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, torus.gram, u), 0.0))))


def rotation_to_cylinder_axis(v):
    """Unitary U with U @ v = (0, ..., 0, i*|v|).

    Used to bring a single loop direction to the model position where
    the cylinder formulas apply.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = v.size
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot rotate the zero vector")
    u = v / norm
    e = np.zeros(n, dtype=complex)
    e[-1] = 1.0
    un = u[-1]
    alpha = un / abs(un) if abs(un) > 1e-15 else 1.0
    w = u + alpha * e
    P = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / (w.conj() @ w).real
    c = (P @ u)[-1]
    S = np.eye(n, dtype=complex)
    S[-1, -1] = 1j / c
    return S @ P
