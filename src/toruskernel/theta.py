"""Independent Bergman-density oracle from classical theta functions (n = 1).

For the elliptic curve C/(Z + Z*tau) polarized by H = [[d/Im(tau)]],
the space of sections of the k-th bundle power has dimension N = k*d
and an explicit basis indexed by residues r mod N.  Writing
h0 = d/Im(tau), a = k*pi*h0/2, b = 2*pi*i*k*phi1 with
chi(1) = exp(2*pi*i*phi1), chi(tau) = exp(2*pi*i*phi2):

    f_r(z) = exp(a z^2 + b z) * sum_m q_{r,m} exp(2*pi*i (N m + r) z),
    q_{r,m} = exp(pi*i*N*tau*m^2 + 2*pi*i*m*((r + k*phi1)*tau - k*phi2)).

The shape is forced: dividing out exp(a z^2 + b z) leaves a 1-periodic
function whose Fourier coefficients satisfy a one-term recursion under
the tau quasi-periodicity, solvable per residue class.  Correctness is
not assumed: every constructed basis is checked against the functional
equation f(z + lambda) = a_k(lambda, z) f(z) at random points, and the
series cutoff is checked a posteriori to leave tails below 1e-14.

The density oracle is then the linear-algebra route: Gram matrix by
periodized trapezoid quadrature (spectrally accurate here; a term is a
root of unity per node column times one exponential per row), and

    rho(p) = conj(F)^T G^{-1} F * exp(-k*pi*h0*|p~|^2),   F_i = f_i(p~),

which is what the loop-sum evaluator must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CharacteristicSolveFailed, CutoffTooSmall, SingularGram, check_count
from .lattice import TWO_PI, Semicharacter, _as_point, automorphy_factor, standard_torus

RESIDUAL_TOL = 1e-9
TAIL_TOL = 1e-14


def _theta_cutoff(tau, N, k):
    y = tau.imag
    # |term_m| <= exp(-pi N y m^2 + 2 pi |m| ((N + k) y + N * Zmax)), Zmax = 2y
    m_star = ((N + k) * y + 2.0 * N * y) / (N * y)
    return int(math.ceil(m_star + math.sqrt(45.0 / (math.pi * N * y)))) + 2


@dataclass(frozen=True, eq=False)
class ThetaBasis:
    """Explicit section basis of the k-th power on C/(Z + Z*tau)."""

    tau: complex
    d: int
    k: int
    N: int
    chi: Semicharacter
    cutoff: int
    torus: object
    _a: complex
    _b: complex
    _E: np.ndarray        # (N, 2M+1) term exponents
    _F: np.ndarray        # (N, 2M+1) integer frequencies N*m + r

    def evaluate(self, z):
        """Values f_r(z); z scalar or (P,) array, result (N,) or (N, P)."""
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 0
        zf = np.atleast_1d(z).reshape(-1)
        # one combined exponent per term: coefficient magnitude and the
        # oscillatory factor can separately over/underflow where their
        # product is tiny, so they are never exponentiated apart
        expo = self._E[:, :, None] + 2j * math.pi * np.multiply.outer(self._F, zf)
        series = np.exp(expo).sum(axis=1)                               # (N, P)
        pref = np.exp(self._a * zf ** 2 + self._b * zf)
        out = series * pref
        return out[:, 0] if single else out

    def weight(self, z):
        """Metric weight exp(-k*pi*h0*|z|^2) at a lift z."""
        z = np.asarray(z, dtype=complex)
        h0 = self.d / self.tau.imag
        return np.exp(-self.k * math.pi * h0 * (z.real ** 2 + z.imag ** 2))


def build_basis(tau, d, chi, k, cutoff=None):
    """Construct and verify the section basis.

    Raises CharacteristicSolveFailed when the functional equation fails
    (a convention bug, not a data problem) and CutoffTooSmall when the
    requested series cutoff leaves visible tails; k and d must be
    integers of at least 1 (ValidationError).
    """
    check_count(k, 1, "k")
    check_count(d, 1, "d")
    tau = complex(tau)
    N = k * d
    torus = standard_torus(tau, d)
    h0 = d / tau.imag
    phi1, phi2 = chi.phases
    M = cutoff if cutoff is not None else _theta_cutoff(tau, N, k)
    m = np.arange(-M, M + 1)
    r = np.arange(N).reshape(-1, 1)
    expo = (1j * math.pi * N * tau * m ** 2
            + 2j * math.pi * m * ((r + k * phi1) * tau - k * phi2))
    F = N * m + r
    basis = ThetaBasis(tau=tau, d=d, k=k, N=N, chi=chi, cutoff=M, torus=torus,
                       _a=complex(0.5 * k * math.pi * h0), _b=complex(2j * math.pi * k * phi1),
                       _E=expo, _F=F)
    _check_cutoff(basis)
    _check_functional_equation(basis)
    return basis


def _check_cutoff(basis):
    # largest boundary-term magnitude relative to the largest term, over
    # the extended domain reachable by the functional-equation check
    M = basis.cutoff
    m = np.arange(-M, M + 1)
    y = basis.tau.imag
    rng = np.random.default_rng(20260821)
    c = rng.uniform(-1.0, 2.0, size=(32, 2))
    z = c[:, 0] + c[:, 1] * basis.tau
    logmag = (basis._E.real[:, :, None]
              - TWO_PI * np.multiply.outer(basis._F, z.imag))
    worst = float(np.max(np.max(logmag[:, [0, -1], :], axis=1) - np.max(logmag, axis=1)))
    if worst > math.log(TAIL_TOL):
        raise CutoffTooSmall(
            f"cutoff {M} leaves boundary terms at relative size exp({worst:.1f})"
        )


def _check_functional_equation(basis):
    rng = np.random.default_rng(1283)
    c = rng.uniform(-0.5, 1.5, size=(20, 2))
    z = c[:, 0] + c[:, 1] * basis.tau
    vals = basis.evaluate(z)
    for coords, lam in (((1, 0), 1.0 + 0j), ((0, 1), basis.tau)):
        shifted = basis.evaluate(z + lam)
        expect = vals * automorphy_factor(basis.torus, basis.chi, basis.k, coords, z[:, None])
        resid = np.abs(shifted - expect) / (np.abs(expect) + 1e-280)
        worst = float(np.max(resid))
        # inverted comparison so a nan residual can never slip through
        if not worst <= RESIDUAL_TOL:
            raise CharacteristicSolveFailed(
                f"functional equation residual {worst:.3e} for lattice step {coords}"
            )


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Section Gram matrix with its cached inverse and a convergence
    figure from halving the quadrature resolution."""

    matrix: np.ndarray
    inverse: np.ndarray
    quad_res: int
    rel_change: float
    cond: float


def _gram_at(basis, res):
    j = np.arange(res)
    roots = np.exp(2j * math.pi * j / res)
    N = basis.N
    # phases w^(N*m*a) shared by every residue, then the twist w^(r*a)
    table = roots[np.outer(j, basis._F[0]) % res]                     # (a, m)
    twist = roots[np.outer(j, np.arange(N)) % res]                    # (a, r)
    mag = np.exp(basis._E.T[:, :, None]
                 + 2j * math.pi * np.multiply.outer(basis._F.T, basis.tau * j / res))
    series = (table @ mag.reshape(-1, N * res)).reshape(res, N, res) * twist[:, :, None]
    z = np.add.outer(j / res, j / res * basis.tau)                     # (a, b)
    series *= np.exp(basis._a * z ** 2 + basis._b * z)[:, None, :]
    vals = series.transpose(1, 0, 2).reshape(N, -1)                   # (N, P)
    w = basis.weight(z).reshape(-1)
    vol_factor = TWO_PI * (basis.d / basis.tau.imag) * basis.tau.imag / w.size
    G = vol_factor * (vals * w) @ vals.conj().T
    return 0.5 * (G + G.conj().T)


def build_gram(basis, quad_res=128):
    """Gram matrix by periodized trapezoid quadrature on the unit cell.

    The integrand f_i conj(f_j) exp(-k*phi) is doubly periodic, so the
    equispaced product rule converges spectrally; the change under
    halving the resolution is recorded and the inverse is computed once.
    ``quad_res`` must be an integer of at least 8 (ValidationError).
    At a node z = a/res + (b/res)*tau a series term exp(E + 2*pi*i*F*z)
    factors exactly into the root of unity w^(F*a mod res), reduced in
    integers, and exp(E + 2*pi*i*F*tau*b/res), one combined exponent per
    term and row as in ``evaluate``; the term sum is then one matmul with
    O(N*M*res) exponentials, on the same nodes and weights.

    Sections in the residue parametrization can differ in norm by many
    orders of magnitude, which inflates the raw condition number without
    any actual near-dependence, so both the conditioning check and the
    inversion run on the diagonally rescaled matrix (the density is
    invariant under rescaling the basis).
    """
    check_count(quad_res, 8, "quad_res")
    G = _gram_at(basis, quad_res)
    G_half = _gram_at(basis, quad_res // 2)
    scale = float(np.max(np.abs(G)))
    rel_change = float(np.max(np.abs(G - G_half))) / scale
    d = 1.0 / np.sqrt(np.abs(np.diag(G)))
    B = G * np.outer(d, d)
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularGram(f"Gram matrix condition number {cond:.3e}")
    inverse = np.linalg.inv(B) * np.outer(d, d)
    G.setflags(write=False)
    inverse.setflags(write=False)
    return GramMatrix(matrix=G, inverse=inverse, quad_res=quad_res,
                      rel_change=rel_change, cond=cond)


def rho_oracle(basis, gram, p):
    """Bergman density at a torus point from the section basis."""
    z = complex(basis.torus.embed(_as_point(basis.torus, p))[0])
    F = basis.evaluate(z)
    val = float(np.real(F.conj() @ (gram.inverse @ F)))
    return val * float(basis.weight(z))


def offdiag_oracle(basis, gram, x, y):
    """|K_k(x, y)| with the symmetric weight normalization."""
    zx, zy = (complex(basis.torus.embed(_as_point(basis.torus, q))[0]) for q in (x, y))
    Fx = basis.evaluate(zx)
    Fy = basis.evaluate(zy)
    val = abs(Fy.conj() @ (gram.inverse @ Fx))
    return float(val) * math.sqrt(float(basis.weight(zx)) * float(basis.weight(zy)))
