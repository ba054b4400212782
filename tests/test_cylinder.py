"""Twisted cylinder model: closed-form norms and the two density sums."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import toruskernel as tk

TWO_PI = 2 * math.pi


def test_norm_integral_closed_form_frozen():
    params = tk.CylinderParams(eta=2.0, alpha=0.5, k=3)
    got = tk.norm_integral_Ia(params, 1)
    assert abs(got - 13.130219149125413) < 1e-11 * got


def test_norm_integral_against_quadrature():
    """The closed form is the Gaussian integral
    2*pi*eta^2 * int exp(-k*eta^2 u^2 + 2(a - m_k) u) du done exactly."""
    for eta, alpha, k, a in [(2.0, 0.5, 3, 1), (1.0, 0.0, 1, 0), (0.7, 0.25, 2, -1),
                             (1.5, 0.9, 4, 3)]:
        params = tk.CylinderParams(eta=eta, alpha=alpha, k=k)
        ke2 = k * eta ** 2
        val, err = quad(lambda u: math.exp(-ke2 * u * u + 2 * (a - params.m_k) * u),
                        -np.inf, np.inf)
        want = TWO_PI * eta ** 2 * val
        got = tk.norm_integral_Ia(params, a)
        assert abs(got - want) < 1e-10 * abs(want)


def test_norm_integral_symmetric_about_peak():
    params = tk.CylinderParams(eta=1.3, alpha=0.4, k=2)
    m = params.m_k
    for off in (0.5, 1.0, 2.5):
        lo = tk.norm_integral_Ia(params, m - off)
        hi = tk.norm_integral_Ia(params, m + off)
        assert abs(lo - hi) < 1e-12 * lo


def test_density_direct_frozen_value():
    params = tk.CylinderParams(eta=1.0, alpha=0.0, k=1, t=0.0)
    assert abs(tk.rho_cyl_direct(params) - 0.159171407093409) < 1e-12


def test_direct_equals_poisson_sweep():
    ts = [-0.73, -0.2, 0.0, 0.31, 0.5, 1.27, 2.0]
    for eta, alpha, k in itertools.product((0.5, 1.0, 2.0), (0.0, 0.3, 0.5), (1, 2, 4)):
        for t in ts:
            params = tk.CylinderParams(eta=eta, alpha=alpha, k=k, t=t)
            a = tk.rho_cyl_direct(params)
            b = tk.rho_cyl_poisson(params)
            assert abs(a - b) <= 1e-12 * abs(a)


def test_density_periodic_in_t():
    params = tk.CylinderParams(eta=0.8, alpha=0.37, k=3, t=0.21)
    period = 1.0 / (params.k * params.eta ** 2)
    shifted = tk.CylinderParams(eta=0.8, alpha=0.37, k=3, t=0.21 + period)
    assert abs(tk.rho_cyl_direct(params) - tk.rho_cyl_direct(shifted)) < 1e-14


def test_density_flattens_at_large_k():
    # loop corrections die like exp(-k eta^2 pi^2)
    for t in (0.0, 0.11, 0.47):
        params = tk.CylinderParams(eta=1.0, alpha=0.2, k=12, t=t)
        assert abs(tk.rho_cyl_poisson(params) - params.k / TWO_PI) < 1e-12


def test_poisson_loop_terms():
    """Leading loop correction carries weight exp(-k eta^2 pi^2) and the
    holonomy cosine of the single loop."""
    params = tk.CylinderParams(eta=0.5, alpha=0.3, k=1, t=0.13)
    ke2 = params.k * params.eta ** 2
    base = params.k / TWO_PI
    first = 2.0 * math.exp(-ke2 * math.pi ** 2) * tk.cyl_holonomy_phase(params, 1).real
    approx = base * (1.0 + first)
    exact = tk.rho_cyl_poisson(params)
    # next harmonic is exp(-4 k eta^2 pi^2) down
    assert abs(exact - approx) < 3.0 * base * math.exp(-4.0 * ke2 * math.pi ** 2)


def test_holonomy_phase_unit_modulus():
    params = tk.CylinderParams(eta=1.1, alpha=0.77, k=2, t=-0.4)
    for xi in range(-3, 4):
        val = tk.cyl_holonomy_phase(params, xi)
        assert abs(abs(val) - 1.0) < 1e-12
    assert tk.cyl_holonomy_phase(params, 0) == 1.0


def test_transverse_padding():
    params = tk.CylinderParams(eta=1.0, alpha=0.1, k=2, t=0.3, n=3)
    base = tk.CylinderParams(eta=1.0, alpha=0.1, k=2, t=0.3)
    want = (params.k / TWO_PI) ** 2 * tk.rho_cyl_poisson(base)
    assert abs(tk.rho_cyl_nd(params) - want) < 1e-15


def test_parameter_validation():
    with pytest.raises(tk.ValidationError):
        tk.CylinderParams(eta=0.0, alpha=0.0, k=1)
    with pytest.raises(tk.ValidationError):
        tk.CylinderParams(eta=1.0, alpha=0.0, k=0)


# (eta, k, whether the direct sum answers, whether the loop sum answers)
_UNBOUNDED = [(1e-8, 1, True, False), (1e-300, 1, False, False), (1e8, 1, False, True),
              (1e300, 1, False, False), (1e200, 1, False, False)]


@pytest.mark.parametrize("eta,k,direct_ok,poisson_ok", _UNBOUNDED)
def test_cylinder_sums_do_bounded_work(eta, k, direct_ok, poisson_ok):
    """eta = 1e-8 and 1e-300 ran past 20 s, 1e8 asked for 9.39 GiB and 1e300
    overflowed: a sum needing more than ENUM_CAP terms, or a k*eta^2 that is
    not a positive finite float, raises RadiusTooLarge."""
    params = tk.CylinderParams(eta=eta, alpha=0.25, k=k)
    for rho, ok in ((tk.rho_cyl_direct, direct_ok), (tk.rho_cyl_poisson, poisson_ok)):
        if ok:
            assert math.isfinite(rho(params))
        else:
            with pytest.raises(tk.RadiusTooLarge):
                rho(params)


def test_cylinder_sums_at_the_cap():
    """The last k*eta^2 of the loop sum under ENUM_CAP still answers."""
    from toruskernel.cylinder import _poisson_cutoff

    ke2 = math.log(1e16) / (math.pi ** 2 * tk.lattice.ENUM_CAP ** 2)
    assert _poisson_cutoff(ke2) <= tk.lattice.ENUM_CAP
    params = tk.CylinderParams(eta=math.sqrt(ke2), alpha=0.25, k=1)
    assert abs(tk.rho_cyl_poisson(params) - tk.rho_cyl_direct(params)) < 1e-10


@pytest.mark.parametrize("t", [1e300, 1e308, -1e308, 2.0 ** 53 + 0.5])
def test_far_t_reads_the_reduced_centre(t):
    """At t = 1e300 the two sums printed 1.7061 and 0.1591 and at 1e308 the loop
    sum was NaN; both are 1-periodic in a* = m_k + k*eta^2*t, reduced once."""
    for eta, alpha, k in ((1.0, 0.0, 1), (0.5, 0.3, 2), (0.4, 0.77, 3)):     # k*eta^2 <= 1
        params = tk.CylinderParams(eta=eta, alpha=alpha, k=k, t=t)
        a, b = tk.rho_cyl_direct(params), tk.rho_cyl_poisson(params)
        assert abs(a - b) <= 1e-11 * abs(a)
        ke2 = k * eta ** 2
        near = tk.CylinderParams(eta=eta, alpha=alpha, k=k, t=(params.astar - params.m_k) / ke2)
        assert abs(tk.rho_cyl_direct(near) - a) <= 1e-11 * abs(a)
        assert 0.0 <= params.astar < 1.0


def test_far_inputs_are_validation_errors():
    """eta = 10 at t = 1e307 ended in an OverflowError traceback from round(a*),
    and so did a k with 401 digits, in CylinderParams itself."""
    with pytest.raises(tk.ValidationError, match="not finite"):
        tk.CylinderParams(eta=10.0, alpha=0.0, k=1, t=1e307)
    with pytest.raises(tk.ValidationError, match="too large for a float"):
        tk.CylinderParams(eta=1.0, alpha=0.0, k=10 ** 400)
