"""Holonomy: closed form against transport, and the structural laws."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import toruskernel as tk

from toruskernel.holonomy import DEFAULT_ODE_STEPS, RK4_BLOCK, STEPS_PER_UNIT_RATE

from conftest import random_chi, random_torus

TWO_PI = 2 * math.pi


def test_square_quarter_point_loop(sq1, chi0):
    """The i-direction loop at the quarter point picks up a quarter turn."""
    p = tk.TorusPoint.from_coords(sq1, np.array([0.25, 0.0]))
    res = tk.hol_closed(sq1, chi0, 1, p, [0, 1])
    assert abs(res.value - 1j) < 1e-12
    assert abs(res.alpha - 0.25) < 1e-12


def test_zero_phase_character_base_point(sq1, chi0):
    """At the base point the holonomy is chi(v)^(-k); the zero-phase
    semicharacter still carries the cocycle parity (-1)^(c1*c2*E12)."""
    p = tk.TorusPoint.zero(sq1)
    for v, want in (([1, 0], 1.0), ([0, 1], 1.0), ([1, 1], -1.0), ([2, -1], 1.0)):
        res = tk.hol_closed(sq1, chi0, 1, p, v)
        assert abs(res.value - want) < 1e-12


def test_calibration_sign_fixed():
    """The library reads HOL_SIGN; the on-demand transport check agrees
    with it by a margin of about 2 (the candidates are conjugates)."""
    report = tk.calibration_report()
    assert tk.calibration_sign() == report.sign == tk.lattice.HOL_SIGN == 1
    assert report.mismatch_plus < 1e-9 and report.mismatch_minus > 1.9


def test_closed_matches_transport(rng):
    for _ in range(25):
        torus = random_torus(rng)
        chi = random_chi(rng)
        k = int(rng.integers(1, 4))
        p = tk.TorusPoint.from_coords(torus, rng.random(2))
        v = rng.integers(-2, 3, size=2)
        if not v.any():
            v = np.array([1, 0])
        closed = tk.hol_closed(torus, chi, k, p, v)
        ode = tk.hol_ode(torus, chi, k, p, v)
        assert abs(closed.value - ode.value) < 1e-8
        assert abs(abs(ode.value) - 1.0) < 1e-9


def test_power_law(rng, skew):
    chi = random_chi(rng)
    p = tk.TorusPoint.from_coords(skew, rng.random(2))
    base = tk.hol_closed(skew, chi, 1, p, [1, -1]).value
    for k in range(2, 6):
        val = tk.hol_closed(skew, chi, k, p, [1, -1]).value
        assert abs(val - base ** k) < 1e-9


def test_displacement_law(rng, sq1):
    """Moving the base point by w multiplies the holonomy by
    exp(2*pi*i*k*s*E(v, w)) in lattice coordinates."""
    s = tk.calibration_sign()
    chi = random_chi(rng)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        v = rng.integers(-2, 3, size=2)
        if not v.any():
            v = np.array([0, 1])
        base_coords = rng.random(2)
        w = rng.random(2) * 0.5
        a = tk.hol_closed(sq1, chi, k, tk.TorusPoint.from_coords(sq1, base_coords), v).value
        b = tk.hol_closed(sq1, chi, k, tk.TorusPoint.from_coords(sq1, base_coords + w), v).value
        twist = cmath.exp(2j * math.pi * k * s * float(v @ sq1.E @ w))
        assert abs(b - a * twist) < 1e-9


def test_lattice_periodicity(rng, skew):
    chi = random_chi(rng)
    p = rng.random(2)
    for shift in ([1, 0], [0, 1], [-2, 3]):
        a = tk.hol_closed(skew, chi, 2, tk.TorusPoint.from_coords(skew, p), [1, 1]).value
        b = tk.hol_closed(skew, chi, 2, tk.TorusPoint.from_coords(skew, p + np.array(shift)), [1, 1]).value
        assert abs(a - b) < 1e-9


def test_orthogonal_direction_constancy(sq1, d2, chi0):
    """On a product, a loop from one factor has constant holonomy along
    the other factor (the pairing E(v, u) vanishes)."""
    prod = tk.product_torus(sq1, d2)
    chi = tk.Semicharacter.trivial(2)
    v = [1, 0, 0, 0]
    base = tk.hol_closed(prod, chi, 1, tk.TorusPoint.from_coords(prod, np.array([0.2, 0.0, 0.0, 0.0])), v)
    for t in np.linspace(0.0, 0.9, 7):
        moved = tk.hol_closed(
            prod, chi, 1,
            tk.TorusPoint.from_coords(prod, np.array([0.2, 0.0, t, 0.3 * t])), v,
        )
        assert abs(moved.value - base.value) < 1e-10


def test_alpha_consistency(rng, sq1):
    chi = random_chi(rng)
    p = tk.TorusPoint.from_coords(sq1, rng.random(2))
    for k in (1, 2, 3):
        res = tk.hol_closed(sq1, chi, k, p, [1, 2])
        assert abs(res.value - cmath.exp(2j * math.pi * res.alpha)) < 1e-12
        # the series coefficient is the cosine of the holonomy angle
        assert abs(math.cos(2.0 * math.pi * res.alpha) - res.value.real) < 1e-12


def test_step_count_guard(sq1, chi0):
    with pytest.raises(tk.StepCountTooSmall):
        tk.hol_ode(sq1, chi0, 1, tk.TorusPoint.zero(sq1), [1, 0], steps=10)


def test_transport_step_refinement(sq1):
    """Transport error falls with step count toward the closed value."""
    chi = tk.Semicharacter((0.37, 0.21))
    p = tk.TorusPoint.from_coords(sq1, np.array([0.3, 0.6]))
    closed = tk.hol_closed(sq1, chi, 2, p, [1, 1]).value
    errs = [abs(tk.hol_ode(sq1, chi, 2, p, [1, 1], steps=n).value - closed)
            for n in (400, 800, 1600)]
    assert errs[2] < errs[0]
    assert errs[2] < 1e-9


def _loop_hol_ode(torus, chi, k, p, v, steps=None):
    """The pointwise RK4 loop that ``hol_ode`` replaced by one product of
    step factors: same stages, same h, same step policy and checks."""
    v = tk.LatticeVector.from_coords(torus, v)
    kpi = k * math.pi
    a0 = kpi * torus.hermitian_pair(v.embedding, p.lift)
    a1 = kpi * torus.hermitian_pair(v.embedding, v.embedding)
    if steps is None:
        steps = max(DEFAULT_ODE_STEPS, int(STEPS_PER_UNIT_RATE * (abs(a0) + abs(a1))) + 1)

    def c(t):
        return a0 + t * a1

    u = 1.0 + 0.0j
    h = 1.0 / steps
    for i in range(steps):
        t = i * h
        k1 = c(t) * u
        k2 = c(t + 0.5 * h) * (u + 0.5 * h * k1)
        k3 = c(t + 0.5 * h) * (u + 0.5 * h * k2)
        k4 = c(t + h) * (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    hol = u / tk.automorphy_factor(torus, chi, k, v.coords, p.lift)
    assert abs(abs(hol) - 1.0) <= 1e-6
    return hol / abs(hol)


def _transport_instances(rng):
    """40 instances: 100 steps on short loops of the square torus, one
    block + 1 steps on random n = 1 tori, two blocks exactly on the n = 2
    product and generic surfaces, and the default policy on longer loops."""
    z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
    surfaces = (tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1)),
                tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), z.T]), H=np.linalg.inv(z.imag)))
    for i in range(40):
        kind = i % 4
        if kind == 0:
            torus, k, steps = tk.standard_torus(1j, 1), 1, 100
            coords, v = 0.2 * rng.random(2), [(1, 0), (0, 1)][i % 8 // 4]
        elif kind == 2:
            torus, k, steps = surfaces[i % 8 // 4], int(rng.integers(1, 3)), 2 * RK4_BLOCK
            coords, v = rng.random(4), tuple(int(j == i % 16 // 4) for j in range(4))
        else:
            torus, steps = random_torus(rng), (RK4_BLOCK + 1 if kind == 1 else None)
            k = int(rng.integers(1, 3 if kind == 1 else 5))
            coords = rng.random(2)
            v = [(1, 0), (0, 1), (1, 1)][i % 3] if kind == 1 else tuple(rng.integers(-3, 4, size=2))
            if not any(v):
                v = (1, 0)
        chi = random_chi(rng, torus.n)
        yield torus, chi, k, tk.TorusPoint.from_coords(torus, coords), v, steps


def test_transport_product_matches_rk4_loop(rng):
    """hol_ode's block product of step factors is the RK4 loop, step for step."""
    for torus, chi, k, p, v, steps in _transport_instances(rng):
        got = tk.hol_ode(torus, chi, k, p, v, steps=steps)
        assert abs(got.value - _loop_hol_ode(torus, chi, k, p, v, steps)) < 1e-12


def test_calibration_matches_rk4_loop():
    """The calibration instance gives the same sign and margin through
    the loop as through the product."""
    report = tk.calibration_report()
    torus, chi = tk.standard_torus(1j, 1), tk.Semicharacter.trivial(1)
    p = tk.TorusPoint.from_coords(torus, [0.25, 0.0])
    ref = _loop_hol_ode(torus, chi, 1, p, (0, 1), DEFAULT_ODE_STEPS)
    closed = tk.hol_closed(torus, chi, 1, p, (0, 1)).value
    assert report.sign == 1
    assert abs(abs(closed - ref) - report.mismatch_plus) < 1e-12


def test_transport_memory_is_one_block(sq1):
    """200000 steps hold one block of step factors, not all of them."""
    chi = tk.Semicharacter((0.37, 0.21))
    p = tk.TorusPoint.from_coords(sq1, np.array([0.3, 0.6]))
    tk.hol_ode(sq1, chi, 2, p, [1, 1], steps=1000)   # lazy set-up runs untraced
    tracemalloc.start()
    try:
        tk.hol_ode(sq1, chi, 2, p, [1, 1], steps=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("k,v,answers", [(1, (21, 0), True), (1, (22, 0), False),
                                         (40, (3, 0), True), (50, (3, 0), False),
                                         (1, (10 ** 6, 0), False)])
def test_overflowing_automorphy_factor_is_modulus_mismatch(sq1, k, v, answers):
    """At (22, 0) and at k = 50 the automorphy factor overflows and hol_ode
    returned alpha = nan; (10^6, 0) asked for about 4e14 RK4 steps.  The
    factor is now checked before the step count, so the raise is immediate
    even for an explicit step count that would never finish."""
    chi = tk.Semicharacter((0.3, 0.1))
    p = tk.TorusPoint.from_coords(sq1, (0.25, 0.5))
    if answers:
        res = tk.hol_ode(sq1, chi, k, p, v)
        assert abs(res.value - tk.hol_closed(sq1, chi, k, p, v).value) < 1e-6
        return
    for steps in (None, 10 ** 15):
        with pytest.raises(tk.ModulusMismatch, match="automorphy factor"):
            tk.hol_ode(sq1, chi, k, p, v, steps=steps)
