"""Flat cylinder model: the rank-one check of the loop-sum density.

The model is C / Z*(2*pi*i*eta^2)... concretely we work on the quotient
of C by the single translation z -> z + 2*pi*i*eta, carrying the weight
exp(-k|z|^2/(2*eta^2)) twisted by a flat character exp(2*pi*i*alpha)
along the loop.  Monomial sections z^a (integer a) are orthogonal, with
squared norms given in closed form by ``norm_integral_Ia``; the twist
enters through the weight, which skews the norms so they are symmetric
about a = m_k instead of a = 0.  Summing |z^a|^2 / I_a gives the
density directly,
and a Poisson resummation turns the same sum into a loop expansion
whose xi-th term carries the weight exp(-k*eta^2*pi^2*xi^2) and the
holonomy phase of the xi-fold loop.  Both evaluations must agree to
near machine precision; that identity is the acceptance target.

Writing t for the cylinder coordinate (log-radial, so t = 0 is the unit
circle) and m_k = frac(k*alpha):

    direct:   rho(t) = sqrt(k/pi)/(2*pi*eta) * sum_a exp(-(a - a*)^2/(k*eta^2)),
              a over Z,  a* = m_k + k*eta^2*t,
    poisson:  rho(t) = (k/2pi) * (1 + 2*sum_{xi>=1} exp(-k*eta^2*pi^2*xi^2)
                                   * cos(2*pi*xi*a*)).

The direct sum is evaluated in completed-square form (above) for
stability; it equals the textbook form
exp(-k*eta^2*t^2 - 2*m_k*t) * sum_{a in Z} exp(-(a-m_k)^2/(k*eta^2) + 2*a*t)
exactly (complete the square in b = a - m_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RadiusTooLarge, ValidationError, check_count, check_finite
from .lattice import ENUM_CAP, _frac

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CylinderParams:
    """Cylinder radius eta > 0, flat twist alpha in [0, 1), power k >= 1,
    evaluation coordinate t; n allows padding by flat transverse factors.
    Both sums are 1-periodic in a* = m_k + k*eta^2*t and read ``astar`` = a* mod 1 (past
    k*eta^2*t = 2^53, the density at the float a*).  A k past the floats, or a non-finite a*
    from a finite k*eta^2, raises ValidationError."""

    eta: float
    alpha: float
    k: int
    t: float = 0.0
    n: int = 1
    m_k: float = field(init=False)
    astar: float = field(init=False)

    def __post_init__(self):
        check_finite((self.eta, self.alpha, self.t), "eta, alpha and t")
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError("alpha must lie in [0, 1)")
        check_count(self.k, 1, "k")
        check_count(self.n, 1, "n")
        try:
            ka = self.k * self.alpha
        except OverflowError:
            raise ValidationError("k is too large for a float") from None
        object.__setattr__(self, "m_k", _frac(ka))
        ke2 = self.k * self.eta * self.eta      # inf past the floats, where the sums raise
        astar = self.m_k + ke2 * self.t
        if math.isfinite(ke2) and not math.isfinite(astar):
            raise ValidationError(f"a* = m_k + k*eta^2*t = {astar!r} is not finite")
        object.__setattr__(self, "astar", _frac(astar))


def norm_integral_Ia(params, a):
    """Squared norm of the monomial section indexed by a.

    I_a = 2*pi*eta^2 * exp((a - m_k)^2 / (k*eta^2)) * sqrt(pi / (k*eta^2)).
    Symmetric about a = m_k, which is why the density peaks there.
    """
    ke2 = params.k * params.eta ** 2
    return TWO_PI * params.eta ** 2 * math.exp((a - params.m_k) ** 2 / ke2) * math.sqrt(math.pi / ke2)


def _ke2(params):
    """k*eta^2, which both sums need as a positive finite float (RadiusTooLarge otherwise)."""
    try:
        ke2 = params.k * params.eta ** 2
    except OverflowError:
        ke2 = math.inf
    if not 0.0 < ke2 < math.inf:
        raise RadiusTooLarge(f"k*eta^2 = {ke2!r} is not a positive finite float")
    return ke2


def rho_cyl_direct(params):
    """Density at t by direct summation over monomial sections, at most ENUM_CAP of them."""
    ke2 = _ke2(params)
    astar = params.astar
    width = int(math.ceil(6.3 * math.sqrt(ke2))) + 2    # terms exp(-j^2/ke2) below ~1e-17 beyond
    if 2 * width + 1 > ENUM_CAP:
        raise RadiusTooLarge(f"the direct sum needs {2 * width + 1} terms, above ENUM_CAP")
    center = round(astar)
    a = np.arange(center - width, center + width + 1, dtype=float)
    total = float(np.sum(np.exp(-((a - astar) ** 2) / ke2)))
    return math.sqrt(params.k / math.pi) / (TWO_PI * params.eta) * total


def _negligible(ke2, xi):
    return math.exp(-ke2 * math.pi ** 2 * xi ** 2) < 1e-16


def _poisson_cutoff(ke2):
    xi = 1
    while not _negligible(ke2, xi + 1):
        xi += 1
    return xi


def rho_cyl_poisson(params):
    """Density at t by the loop expansion (Poisson resummation), at most ENUM_CAP loops."""
    ke2 = _ke2(params)
    if not _negligible(ke2, ENUM_CAP + 1):
        raise RadiusTooLarge(f"the loop sum needs more than ENUM_CAP = {ENUM_CAP} terms")
    top = _poisson_cutoff(ke2)
    xi = np.arange(1, top + 1, dtype=float)
    weights = np.exp(-ke2 * math.pi ** 2 * xi ** 2)
    phases = TWO_PI * xi * params.astar
    return params.k / TWO_PI * (1.0 + 2.0 * float(weights @ np.cos(phases)))


def rho_cyl_nd(params):
    """Density of the cylinder padded by n-1 flat transverse directions.

    The transverse Bargmann factors contribute (k/2pi) each and nothing
    else: the density is independent of the transverse coordinates.
    """
    return (params.k / TWO_PI) ** (params.n - 1) * rho_cyl_poisson(params)


def cyl_holonomy_phase(params, xi):
    """Holonomy of the xi-fold loop in the twisted model at coordinate t:
    exp(-i*(2*pi*xi*m_k + 2*k*eta^2*pi*xi*t)) = exp(-2*pi*i*xi*a*).  Its real
    part is the cosine entering the loop expansion; the xi-th loop has length
    2*pi*eta*|xi|, so exp(-(k/4)*ell^2) = exp(-k*eta^2*pi^2*xi^2)."""
    ang = TWO_PI * xi * params.astar
    return complex(math.cos(ang), -math.sin(ang))
