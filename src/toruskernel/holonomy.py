"""Holonomy of the Chern connection around geodesic loops.

For a lattice vector v and base point p with lift p~, the loop
t -> p~ + t*v descends to a closed geodesic.  Parallel transport of the
metrized bundle (k-th power, weight exp(-k*pi*H(z, z))) around it has a
closed form

    Hol_k(p, v) = chi(v)^(-k) * exp(2*pi*i * k * s * E(v, p~)),

where s = ``lattice.HOL_SIGN``; ``calibration_report`` checks it on demand
against the transport ODE on a reference instance.  ``hol_closed`` is the turn of
``lattice._holonomy_turns`` at the point's reduced coordinates.  ``hol_ode`` is the
independent path: it integrates the frame coefficient

    u'(t) = u(t) * k*pi*H(v, p~ + t*v),  u(0) = 1,

with fixed-step RK4 and divides by the automorphy factor of v; the
modulus of the quotient must come out 1, which is a strong cross-check
on the whole convention stack (metric weight, automorphy, H ordering).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModulusMismatch, StepCountTooSmall, check_count
from .lattice import (
    Semicharacter,
    _as_point,
    _as_vector,
    _frac,
    _holonomy_turns,
    automorphy_factor,
    standard_torus,
)

MIN_ODE_STEPS = 100
DEFAULT_ODE_STEPS = 2000
# auto step policy: keep h * |c|_max below ~1/120 so the RK4 phase error
# stays under ~1e-9 even for long loops on strongly polarized lattices
STEPS_PER_UNIT_RATE = 120
RK4_BLOCK = 4096


@dataclass(frozen=True)
class HolonomyResult:
    value: complex
    alpha: float          # phase in turns, in [0, 1)
    method: str           # "closed_form" or "ode"


@dataclass(frozen=True)
class CalibrationReport:
    sign: int
    mismatch_plus: float
    mismatch_minus: float


def hol_ode(torus, chi, k, p, v, steps=None):
    """Holonomy by parallel transport, the slow reference path.

    Integrates the transport ODE with fixed RK4 steps and divides by
    the automorphy factor a_k(v, p~).  The ODE u' = c(t)*u is linear, so
    an RK4 step is exactly u <- R_i*u, with k_j = K_j*u in the usual
    stages and R_i = 1 + (h/6)(K1 + 2*K2 + 2*K3 + K4); u is the product
    of the R_i, taken in blocks of RK4_BLOCK steps so memory is bounded.
    ``steps=None`` picks a count scaled to the transport rate (at least
    2000).  A k or ``steps`` that is not an integer >= 1 raises
    ValidationError, 1 to 99 steps raise StepCountTooSmall, and a result
    more than 1e-6 off the unit circle raises ModulusMismatch, which
    would mean the metric weight and the automorphy model disagree; so
    does an automorphy factor that is not finite and nonzero, before any step.
    """
    check_count(k, 1, "k")
    lift = torus.embed(_as_point(torus, p))
    c = _as_vector(torus, v)
    with np.errstate(over="ignore", invalid="ignore"):       # an overflow is checked below
        a = automorphy_factor(torus, chi, k, c, lift)
    if not (cmath.isfinite(a) and a != 0):
        loop = tuple(c.tolist())
        raise ModulusMismatch(f"automorphy factor {a!r} of the {loop}-loop is out of range")
    kpi = k * math.pi
    emb = torus.embed(c)
    a0 = kpi * torus.hermitian_pair(emb, lift)
    a1 = kpi * torus.hermitian_pair(emb, emb)
    if steps is None:
        steps = max(DEFAULT_ODE_STEPS, int(STEPS_PER_UNIT_RATE * (abs(a0) + abs(a1))) + 1)
    check_count(steps, 1, "steps")
    if steps < MIN_ODE_STEPS:
        raise StepCountTooSmall(f"need at least {MIN_ODE_STEPS} steps, got {steps}")

    h = 1.0 / steps
    u = 1.0 + 0.0j
    for start in range(0, steps, RK4_BLOCK):
        t = np.arange(start, min(start + RK4_BLOCK, steps)) * h
        c_mid = a0 + (t + 0.5 * h) * a1
        K1 = a0 + t * a1
        K2 = c_mid * (1.0 + 0.5 * h * K1)
        K3 = c_mid * (1.0 + 0.5 * h * K2)
        K4 = (a0 + (t + h) * a1) * (1.0 + h * K3)
        u *= complex(np.prod(1.0 + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)))

    hol = u / a
    r = abs(hol)
    if not abs(r - 1.0) <= 1e-6:
        raise ModulusMismatch(f"transport modulus off unit circle by {abs(r - 1.0):.3e}")
    hol = hol / r
    alpha = _frac(math.atan2(hol.imag, hol.real) / (2.0 * math.pi))
    return HolonomyResult(value=complex(hol), alpha=alpha, method="ode")


def calibration_report() -> CalibrationReport:
    """The exponent sign that matches transport, found anew on each call.

    On the square torus with trivial chi, the (0, 1)-loop at p~ = 1/4 has
    closed form exp(2*pi*i*s*E(v, p~)), so the -1 candidate is the
    conjugate of the +1 one; the one nearer RK4 names the sign, which
    must be ``HOL_SIGN``.  A margin below 0.5 raises ModulusMismatch."""
    torus = standard_torus(1j, 1)
    ref = hol_ode(torus, Semicharacter.trivial(1), 1, [0.25], (0, 1), steps=DEFAULT_ODE_STEPS).value
    plus = cmath.exp(2j * math.pi * torus.hermitian_pair(torus.embed([0, 1]), [0.25]).imag)
    mplus, mminus = abs(plus - ref), abs(plus.conjugate() - ref)
    if abs(mplus - mminus) < 0.5:
        raise ModulusMismatch(
            "sign calibration is ambiguous; transport and closed form disagree structurally"
        )
    return CalibrationReport(sign=1 if mplus <= mminus else -1,
                             mismatch_plus=mplus, mismatch_minus=mminus)


def calibration_sign() -> int:
    return calibration_report().sign


def hol_closed(torus, chi, k, p, v):
    """Closed-form holonomy of the k-th power around the v-loop at p, from its reduced turn."""
    check_count(k, 1, "k")
    A, phi = _holonomy_turns(torus, chi, k, _as_vector(torus, v))
    alpha = _frac(float(A @ _as_point(torus, p)) - phi)
    value = complex(np.exp(2j * math.pi * alpha))
    return HolonomyResult(value=value, alpha=alpha, method="closed_form")

