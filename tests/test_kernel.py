"""Loop-sum density: truncation policy, certificates, grids, integrals."""

import io
import math

import numpy as np
import pytest

import toruskernel as tk

from conftest import brute_rho, random_chi, random_torus

TWO_PI = 2 * math.pi


def test_tail_bound_monotone(sq1, d2):
    for torus in (sq1, d2):
        R = tk.truncation_radius(torus, 1, 1e-6)
        assert tk.tail_bound(torus, R, 1) <= 1e-6
        assert tk.tail_bound(torus, R + 0.5, 1) < tk.tail_bound(torus, R, 1)
        assert tk.tail_bound(torus, R, 2) < tk.tail_bound(torus, R, 1)


def test_tail_bound_needs_min_radius(sq1):
    with pytest.raises(ValueError):
        tk.tail_bound(sq1, 0.1, 1)


def test_tail_bound_dominates_brute_tail(sq1, d2, rect):
    """The packing bound must majorize the actual unweighted mass beyond R."""
    for torus in (sq1, d2, rect):
        for k in (1, 2):
            R = tk.truncation_radius(torus, k, 1e-8)
            vecs = tk.enumerate_within(torus, R + 10.0)
            mass = sum(math.exp(-0.25 * k * v.length ** 2)
                       for v in vecs if v.length > R)
            assert mass <= tk.tail_bound(torus, R, k)


def test_truncation_radius_is_minimal(sq1, skew):
    for torus, k, eps in ((sq1, 1, 1e-10), (skew, 3, 1e-8)):
        R = tk.truncation_radius(torus, k, eps)
        assert tk.tail_bound(torus, R, k) <= eps
        # a slightly smaller radius must already miss the target
        assert tk.tail_bound(torus, 0.999 * R, k) > eps


def test_diagonal_value_square_torus(sq1, chi0):
    """Origin density of the principal square torus at k = 1."""
    r = tk.rho_diag(sq1, chi0, 1, tk.TorusPoint.zero(sq1), eps=1e-12)
    assert abs(TWO_PI * r.value - 1.6692536833481473) < 1e-11
    assert r.tail <= 1e-12
    assert r.density_halfwidth(sq1.n, 1) <= 1e-12 / TWO_PI
    assert r.terms > 0


def test_zero_at_half_period(sq1, chi0):
    half = tk.TorusPoint.from_coords(sq1, np.array([0.5, 0.5]))
    r = tk.rho_diag(sq1, chi0, 1, half, eps=1e-12)
    assert abs(r.value) < 1e-9 / TWO_PI


def test_certificate_honesty(rng):
    """A loose-eps value must sit within its own halfwidth of a tight one."""
    for _ in range(6):
        torus = random_torus(rng)
        chi = random_chi(rng)
        k = int(rng.integers(1, 4))
        p = tk.TorusPoint.from_coords(torus, rng.random(2))
        loose = tk.rho_diag(torus, chi, k, p, eps=1e-5)
        tight = tk.rho_diag(torus, chi, k, p, eps=1e-13)
        assert abs(loose.value - tight.value) <= loose.density_halfwidth(torus.n, k)


def test_matches_brute_force(rng, chi0):
    for _ in range(4):
        torus = random_torus(rng)
        chi = random_chi(rng)
        k = int(rng.integers(1, 3))
        coords = rng.random(2)
        p = tk.TorusPoint.from_coords(torus, coords)
        r = tk.rho_diag(torus, chi, k, p, radius=9.0)
        ref = brute_rho(torus, chi, k, coords, 9.0)
        assert abs(r.value - ref) < 1e-12 * max(1.0, abs(ref))


def test_radius_override(sq1, chi0):
    small = tk.rho_diag(sq1, chi0, 1, tk.TorusPoint.zero(sq1), radius=4.0)
    large = tk.rho_diag(sq1, chi0, 1, tk.TorusPoint.zero(sq1), radius=8.0)
    assert small.radius == 4.0
    assert large.terms > small.terms
    # truncation error is controlled by the certified tail of the smaller run
    assert abs(small.value - large.value) <= small.density_halfwidth(sq1.n, 1)


def test_gradient_matches_finite_differences(rng):
    """Analytic gradient in lattice coordinates against central differences."""
    h = 1e-6
    for _ in range(5):
        torus = random_torus(rng)
        chi = random_chi(rng)
        k = int(rng.integers(1, 4))
        x = rng.random(2)
        g = tk.rho_gradient(torus, chi, k, tk.TorusPoint.from_coords(torus, x))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            plus = tk.rho_diag(torus, chi, k, tk.TorusPoint.from_coords(torus, x + e))
            minus = tk.rho_diag(torus, chi, k, tk.TorusPoint.from_coords(torus, x - e))
            fd = (plus.value - minus.value) / (2 * h)
            assert abs(g[i] - fd) < 1e-5 * max(1.0, abs(fd))


def test_grid_agrees_with_pointwise(sq1, d2, chi0):
    for torus, k in ((sq1, 1), (d2, 2)):
        field = tk.rho_grid(torus, chi0, k, 8)
        assert field.values.shape == (8, 8)
        for idx in ((0, 0), (3, 5), (7, 1)):
            coords = np.array(idx) / 8.0
            r = tk.rho_diag(torus, chi0, k, tk.TorusPoint.from_coords(torus, coords))
            assert abs(field.values[idx] - r.value) < 1e-12
        assert field.radius == r.radius
        assert field.tail == r.tail


def test_grid_extrema_summaries(sq1, chi0):
    field = tk.rho_grid(sq1, chi0, 1, 16)
    max_at, max_val = field.max_summary()
    min_at, min_val = field.min_summary()
    assert max_at == (0.0, 0.0)
    assert min_at == (0.5, 0.5)
    assert max_val > min_val >= 0.0 - field.density_halfwidth


def test_grid_thread_count_invariance(skew, rng):
    chi = random_chi(rng)
    serial = tk.rho_grid(skew, chi, 2, 16)
    threaded = tk.rho_grid(skew, chi, 2, 16, threads=2)
    # assembled by index: bitwise equal, not merely close
    assert np.array_equal(serial.values, threaded.values)


def test_grid_csv_deterministic(sq1, chi0):
    field = tk.rho_grid(sq1, chi0, 1, 6)
    bufs = []
    for _ in range(2):
        fh = io.StringIO()
        field.write_csv(fh)
        bufs.append(fh.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header == "coord_1,coord_2,rho,tail"
    assert len(bufs[0].splitlines()) == 1 + 36


def test_grid_rejects_tiny_resolution(sq1, chi0):
    with pytest.raises(ValueError):
        tk.rho_grid(sq1, chi0, 1, 1)


def test_integral_counts_sections(sq1, d2, chi0):
    """The density integrates to the section count k^n |Pf|."""
    for torus, k in ((sq1, 1), (sq1, 3), (d2, 1), (d2, 2)):
        got, expected = tk.integral_check(torus, chi0, k, resolution=128)
        assert expected == k * torus.pfaffian_abs()
        assert abs(got - expected) < 5e-3 * expected


def test_integral_check_flags_coarse_grid(sq1, chi0):
    # at k = 4 the density oscillates too fast for an 8-point grid
    with pytest.raises(tk.QuadratureUnconverged):
        tk.integral_check(sq1, chi0, 4, resolution=8)
    with pytest.raises(ValueError):
        tk.integral_check(sq1, chi0, 1, resolution=4)


def test_offdiag_bound_value(sq1):
    half = tk.TorusPoint.from_coords(sq1, np.array([0.5, 0.5]))
    r = tk.offdiag_bound(sq1, 1, tk.TorusPoint.zero(sq1), half)
    assert abs(TWO_PI * r.value - 1.985088356982114) < 1e-9


def test_offdiag_bound_symmetry_and_periodicity(rng, sq1):
    x = tk.TorusPoint.from_coords(sq1, rng.random(2))
    y = tk.TorusPoint.from_coords(sq1, rng.random(2))
    ab = tk.offdiag_bound(sq1, 2, x, y)
    ba = tk.offdiag_bound(sq1, 2, y, x)
    assert abs(ab.value - ba.value) < 1e-12 * ab.value
    shifted = tk.TorusPoint.from_lift(sq1, np.asarray(y.lift) + sq1.embed(np.array([3, -2])))
    per = tk.offdiag_bound(sq1, 2, x, shifted)
    assert abs(per.value - ab.value) < 1e-9 * ab.value


def test_offdiag_bound_decays_in_k(sq1):
    half = tk.TorusPoint.from_coords(sq1, np.array([0.5, 0.5]))
    vals = [tk.offdiag_bound(sq1, k, tk.TorusPoint.zero(sq1), half).value
            / (k / TWO_PI) ** sq1.n for k in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_offdiag_bound_brute_translates(sq1):
    """Re-sum the translate Gaussians with a plain double loop."""
    x = np.array([0.1, 0.3])
    y = np.array([0.6, 0.85])
    R = 9.0
    r = tk.offdiag_bound(sq1, 1,
                         tk.TorusPoint.from_coords(sq1, x),
                         tk.TorusPoint.from_coords(sq1, y), radius=R)
    delta = sq1.embed(y) - sq1.embed(x)
    total = 0.0
    for a in range(-8, 9):
        for b in range(-8, 9):
            u = delta + sq1.embed(np.array([a, b]))
            ell = sq1.length_of(u)
            if ell <= R:
                total += math.exp(-0.25 * ell ** 2)
    total /= TWO_PI
    assert abs(r.value - total) < 1e-12 * total


# -- input contract -----------------------------------------------------------
# k must be an integer >= 1 and eps a finite number in (0, 1).  Before the
# contract, k = 0 never returned (the tail loop's term never shrinks),
# k = -1 overflowed, and k = 1.5 was evaluated silently.

_CHI = tk.Semicharacter.trivial(1)


def _pt(torus):
    return tk.TorusPoint.from_coords(torus, np.array([0.25, 0.5]))


_CALLERS = {
    "rho_diag": lambda t, k, eps: tk.rho_diag(t, _CHI, k, _pt(t), eps=eps),
    "rho_gradient": lambda t, k, eps: tk.rho_gradient(t, _CHI, k, _pt(t), eps=eps),
    "offdiag_bound": lambda t, k, eps: tk.offdiag_bound(t, k, tk.TorusPoint.zero(t), _pt(t),
                                                        eps=eps),
    "rho_grid": lambda t, k, eps: tk.rho_grid(t, _CHI, k, 8, eps=eps),
    "integral_check": lambda t, k, eps: tk.integral_check(t, _CHI, k, resolution=8, eps=eps),
    "find_extrema": lambda t, k, eps: tk.find_extrema(t, _CHI, k, resolution=16, eps=eps),
    "compare_bundles": lambda t, k, eps: tk.compare_bundles(t, _CHI, tk.Semicharacter((0.5, 0.0)),
                                                            k, resolution=8, eps=eps),
    "truncation_radius": lambda t, k, eps: tk.truncation_radius(t, k, eps),
}
_BAD = [(0, 1e-10), (-1, 1e-10), (1.5, 1e-10), (2.0, 1e-10), (True, 1e-10),
        (1, 0.0), (1, 1.0), (1, -1e-3), (1, float("nan")), (1, float("inf"))]


@pytest.mark.parametrize("caller", sorted(_CALLERS))
@pytest.mark.parametrize("k,eps", _BAD)
def test_bad_power_or_eps_is_a_validation_error(caller, k, eps):
    torus = tk.standard_torus(0.1 + 1.1j, 1)
    with pytest.raises(tk.ValidationError):
        _CALLERS[caller](torus, k, eps)
    # the contract is checked before any per-torus value is computed
    assert torus not in tk.lattice._DERIVED


@pytest.mark.parametrize("k", [0, -1, 1.5])
def test_tail_bound_rejects_bad_power(sq1, k):
    with pytest.raises(tk.ValidationError):
        tk.tail_bound(sq1, 10.0, k)


def test_numpy_integer_power_accepted(sq1):
    p = _pt(sq1)
    assert tk.rho_diag(sq1, _CHI, np.int64(2), p) == tk.rho_diag(sq1, _CHI, 2, p)
