"""Lattice layer: validation, enumeration, shells, semicharacters."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toruskernel as tk
import toruskernel.kernel as _kernel
import toruskernel.lattice as _lattice

from conftest import random_chi, random_torus

TWO_PI = 2 * math.pi


def test_validate_square_report(sq1):
    rep = tk.validate(sq1)
    assert rep.n == 1
    assert abs(rep.min_eigenvalue - 1.0) < 1e-12
    assert rep.integrality_residual < 1e-12
    assert rep.rank_E == 2
    assert rep.pfaffian_abs == 1
    assert abs(rep.det_basis - 1.0) < 1e-12
    assert abs(rep.volume - TWO_PI) < 1e-12


def test_riemann_form_examples(sq1, rect, d2):
    assert np.array_equal(sq1.E, [[0, -1], [1, 0]])
    assert np.array_equal(rect.E, [[0, -2], [2, 0]])
    assert np.array_equal(d2.E, [[0, -2], [2, 0]])
    assert sq1.pfaffian_abs() == 1
    assert rect.pfaffian_abs() == 2
    assert d2.pfaffian_abs() == 2


def test_volume_scales_with_polarization(sq1, d2, rect):
    # vol = (2pi)^n det(H) |det B|
    assert abs(d2.volume() - 2 * TWO_PI) < 1e-12
    assert abs(rect.volume() - 2 * TWO_PI) < 1e-12


def test_validate_rejects_indefinite_form():
    t = tk.PolarizedTorus(n=1, basis=np.array([[1.0 + 0j], [1j]]), H=np.array([[-1.0 + 0j]]))
    with pytest.raises(tk.NotPositiveDefinite):
        tk.validate(t)


def test_validate_rejects_nonintegral_pairing():
    t = tk.PolarizedTorus(n=1, basis=np.array([[1.0 + 0j], [1.5j]]), H=np.array([[1.0 + 0j]]))
    with pytest.raises(tk.IntegralityViolation):
        tk.validate(t)


def test_validate_rejects_degenerate_basis():
    t = tk.PolarizedTorus(n=1, basis=np.array([[1.0 + 0j], [2.0 + 0j]]), H=np.array([[1.0 + 0j]]))
    with pytest.raises(tk.DegenerateBasis):
        tk.validate(t)


def _brute_coords(torus, radius, box):
    out = []
    for c in itertools.product(range(-box, box + 1), repeat=2):
        if c == (0, 0):
            continue
        if torus.length_of(torus.embed(np.array(c))) <= radius + 1e-9:
            out.append(c)
    return sorted(out)


@pytest.mark.parametrize("tau,d", [(1j, 1), (1j, 2), (2j, 1), (0.3 + 1.2j, 1)])
def test_enumeration_matches_brute_force(tau, d):
    torus = tk.standard_torus(tau, d)
    radius = 8.0
    vecs = tk.enumerate_within(torus, radius)
    got = sorted(tuple(int(x) for x in v.coords) for v in vecs)
    assert got == _brute_coords(torus, radius, 12)
    for v in vecs:
        assert v.length <= radius + 1e-9
        assert abs(v.length - torus.length_of(v.embedding)) < 1e-12


def test_enumeration_sorted_by_length_then_lex(sq1):
    vecs = tk.enumerate_within(sq1, 6.0)
    keys = [(round(v.length, 9), tuple(v.coords)) for v in vecs]
    assert keys == sorted(keys)


def test_enumeration_deterministic(skew):
    a = [tuple(v.coords) for v in tk.enumerate_within(skew, 7.0)]
    b = [tuple(v.coords) for v in tk.enumerate_within(skew, 7.0)]
    assert a == b


def test_shifted_enumeration_matches_brute_force(skew):
    shift_coords = np.array([0.3, 0.4])
    radius = 7.0
    coords, embeds, lengths = tk.enumerate_shifted(skew, skew.embed(shift_coords), radius)
    got = sorted(tuple(int(x) for x in c) for c in coords)
    want = []
    for c in itertools.product(range(-12, 13), repeat=2):
        u = np.array(c, dtype=float) + shift_coords
        ell = math.sqrt(float(u @ skew.gram @ u))
        if ell <= radius + 1e-9:
            want.append(c)
    assert got == sorted(want)
    assert np.all(lengths[:-1] <= lengths[1:] + 1e-12)


def test_enumeration_cap_raises():
    torus = tk.standard_torus(1j, 1)
    with pytest.raises(tk.RadiusTooLarge) as exc:
        tk.enumerate_within(torus, 300.0, cap=100)
    assert exc.value.required_cap > 100


def test_shifted_enumeration_cap_raises(skew):
    with pytest.raises(tk.RadiusTooLarge) as exc:
        tk.enumerate_shifted(skew, skew.embed(np.array([0.3, 0.4])), 300.0, cap=100)
    assert exc.value.required_cap > 100


# The n = 2 surfaces of the order test: a product of two elliptic curves,
# and a generic principally polarized surface (basis [I; Z^T], H = (Im Z)^-1).
_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
_SURFACES = (
    tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1)),
    tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]), H=np.linalg.inv(_Z.imag)),
)
_n1_tori = st.builds(
    lambda re, im, d: tk.standard_torus(complex(re, im), d),
    st.floats(-3.0, 3.0), st.floats(0.3, 2.5), st.integers(1, 3),
)


def _brute_sorted(torus, radius, off):
    """Every row of a coordinate box that holds the ball, filtered by the
    exact length test and sorted by Python's sorted on (length, coords).

    Lengths use the enumerator's quadratic-form expression, so ties
    between equally long vectors compare the same bits on both sides.
    """
    m = 2 * torus.n
    # |c_i + off_i| <= radius * sqrt((G^-1)_ii) on the ellipsoid
    reach = radius * np.sqrt(np.diag(np.linalg.inv(torus.gram)))
    lo = np.floor(-reach - off).astype(int) - 1
    hi = np.ceil(reach - off).astype(int) + 1
    box = np.array(list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
    u = box + off
    lengths = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, torus.gram, u), 0.0))
    rows = [(float(ell), tuple(int(x) for x in c)) for c, ell in zip(box, lengths)
            if ell <= radius]
    return sorted(rows)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    torus=st.one_of(_n1_tori, st.sampled_from(_SURFACES)),
    reach=st.floats(1.0, 2.5),
    shift=st.none() | st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
@example(torus=tk.standard_torus(2.5 + 0.4j, 1), reach=2.5, shift=None)
@example(torus=tk.standard_torus(2.5 + 0.4j, 1), reach=2.5, shift=[0.3, 0.7, 0.0, 0.0])
def test_enumeration_order_matches_sorted_brute_force(torus, reach, shift):
    """Both public enumerators return the brute-force rows in Python's
    length-then-lex order, with and without a shift."""
    m = 2 * torus.n
    l1 = tk.shells(torus).l1
    radius = reach * l1 * (1.5 if torus.n == 1 else 1.0)
    if shift is None:
        want = [row for row in _brute_sorted(torus, radius, np.zeros(m)) if any(row[1])]
        got = [(v.length, v.coords) for v in tk.enumerate_within(torus, radius)]
    else:
        off = torus.coords_from_lift(torus.embed(np.array(shift[:m])))
        want = _brute_sorted(torus, radius, off)
        coords, _, lengths = tk.enumerate_shifted(torus, torus.embed(np.array(shift[:m])), radius)
        got = [(float(ell), tuple(int(x) for x in c)) for c, ell in zip(coords, lengths)]
    assert got == want


def test_truncation_radius_memo_is_exact_and_dies_with_torus():
    torus = tk.standard_torus(0.4 + 1.3j, 2)
    for k, eps in ((1, 1e-10), (3, 1e-8), (np.int64(2), 1e-12)):
        fresh = _kernel._bisect_radius(torus, k, eps)
        assert tk.truncation_radius(torus, k, eps).hex() == fresh.hex()
        assert tk.truncation_radius(torus, k, eps).hex() == fresh.hex()    # memo hit
    assert torus in _lattice._DERIVED
    alive = weakref.ref(torus)
    gc.collect()
    before = len(_lattice._DERIVED)
    del torus
    gc.collect()
    assert alive() is None
    assert len(_lattice._DERIVED) == before - 1


def test_shells_l1_is_the_shortest_enumerated_length(skew, rect):
    for torus in (skew, rect, _SURFACES[1]):
        sh = tk.shells(torus)
        vecs = tk.enumerate_within(torus, 2.0 * sh.l1)
        assert sh.l1 == vecs[0].length
        assert [v.coords for v in sh.S1] == [v.coords for v in vecs[:len(sh.S1)]]
        assert sh.l2 == vecs[len(sh.S1)].length


def test_shells_square(sq1):
    sh = tk.shells(sq1)
    assert abs(sh.l1 - math.sqrt(TWO_PI)) < 1e-12
    assert abs(sh.l2 - math.sqrt(2 * TWO_PI)) < 1e-12
    assert sorted(tuple(v.coords) for v in sh.S1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_shells_doubled(d2):
    sh = tk.shells(d2)
    assert abs(sh.l1 - math.sqrt(2 * TWO_PI)) < 1e-12
    assert abs(sh.l2 - math.sqrt(4 * TWO_PI)) < 1e-12
    assert len(sh.S1) == 4


def test_shells_rect(rect):
    sh = tk.shells(rect)
    # the long axis ell(0,1)^2 = 8pi stays out of the first shell
    assert sorted(tuple(v.coords) for v in sh.S1) == [(-1, 0), (1, 0)]
    assert abs(sh.l1 - math.sqrt(TWO_PI)) < 1e-12
    assert sh.l2 > sh.l1 + 1e-9


def test_semicharacter_cocycle(rng, sq1):
    """chi(u + w) = chi(u) chi(w) exp(i pi E(u, w)) for the canonical
    extension used throughout."""
    for torus in (sq1, tk.standard_torus(0.3 + 1.2j, 2)):
        for _ in range(20):
            chi = random_chi(rng)
            u = rng.integers(-6, 7, size=2)
            w = rng.integers(-6, 7, size=2)
            lhs = tk.chi_eval(chi, torus, u + w)
            pairing = int(u @ torus.E @ w)
            rhs = tk.chi_eval(chi, torus, u) * tk.chi_eval(chi, torus, w) * (-1) ** pairing
            assert abs(lhs - rhs) < 1e-12


def test_semicharacter_exact_turns(sq1):
    chi = tk.Semicharacter((0.25, 0.75))
    # quarter phases and the cocycle parity stay exact for huge coords:
    # c.phases = -5e8 + 0.75 and S = 1e9*(1e9 - 1) is even
    val = tk.chi_eval(chi, sq1, np.array([10 ** 9, -10 ** 9 + 1]))
    assert abs(val - (-1j)) < 1e-12
    assert abs(tk.chi_eval(chi, sq1, np.array([0, 0])) - 1.0) < 1e-15


def test_torus_point_round_trip(rng, skew):
    for _ in range(10):
        coords = rng.random(2)
        p = tk.TorusPoint.from_coords(skew, coords)
        back = skew.coords_from_lift(p.lift)
        assert np.allclose(back % 1.0, coords % 1.0, atol=1e-12)


def test_torus_distance(sq1):
    # distances carry the loop-length normalization ell = sqrt(2 pi H)
    p = tk.TorusPoint.from_coords(sq1, np.array([0.0, 0.0]))
    q = tk.TorusPoint.from_coords(sq1, np.array([0.5, 0.5]))
    assert abs(tk.torus_distance(sq1, p, q) - math.sqrt(TWO_PI * 0.5)) < 1e-12
    # wrap-around: 0.9 is 0.1 away from 0
    r = tk.TorusPoint.from_coords(sq1, np.array([0.9, 0.0]))
    assert abs(tk.torus_distance(sq1, p, r) - 0.1 * math.sqrt(TWO_PI)) < 1e-12
    assert tk.torus_distance(sq1, p, p) < 1e-15


def test_nearest_distance_is_min_of_pairwise(rng, skew):
    """One batched translate search gives the pairwise minimum exactly."""
    for torus in (skew, tk.standard_torus(2.5 + 0.4j, 2), _SURFACES[1]):
        m = 2 * torus.n
        p = tk.TorusPoint.from_coords(torus, rng.random(m))
        targets = [tk.TorusPoint.from_coords(torus, rng.random(m)) for _ in range(40)]
        want = min(tk.torus_distance(torus, p, q) for q in targets)
        assert _lattice._nearest_distance(torus, p, targets) == want


def test_product_torus(sq1, d2):
    prod = tk.product_torus(sq1, d2)
    assert prod.n == 2
    assert prod.pfaffian_abs() == 2
    assert abs(prod.volume() - sq1.volume() * d2.volume()) < 1e-10
    rep = tk.validate(prod)
    assert rep.rank_E == 4


def test_rotation_to_cylinder_axis(rng):
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        U = tk.rotation_to_cylinder_axis(v)
        assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-12)
        image = U @ v
        want = np.array([0.0, 1j * np.linalg.norm(v)])
        assert np.allclose(image, want, atol=1e-10)


def test_random_tori_validate(rng):
    for _ in range(10):
        torus = random_torus(rng)
        rep = tk.validate(torus)
        assert rep.rank_E == 2
        assert rep.pfaffian_abs >= 1
