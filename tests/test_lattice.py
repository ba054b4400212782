"""Lattice layer: validation, enumeration, shells, semicharacters."""

import gc
import inspect
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


def test_enumeration_cap_defaults_to_the_module_constant():
    """The benchmark reads enumerate_within's default cap from its signature."""
    for call in (tk.enumerate_within, tk.enumerate_shifted):
        assert inspect.signature(call).parameters["cap"].default == _lattice.ENUM_CAP


def test_shifted_enumeration_cap_raises(skew):
    with pytest.raises(tk.RadiusTooLarge) as exc:
        tk.enumerate_shifted(skew, skew.embed(np.array([0.3, 0.4])), 300.0, cap=100)
    assert exc.value.required_cap > 100


def test_enumeration_rejects_non_finite_radius(skew):
    """NaN used to find nothing and inf to overflow the cap estimate; a
    negative radius stays empty and 1e300 stays RadiusTooLarge."""
    shift = skew.embed(np.array([0.3, 0.4]))
    for radius in (math.nan, math.inf, -math.inf):
        with pytest.raises(tk.ValidationError):
            tk.enumerate_within(skew, radius)
        with pytest.raises(tk.ValidationError):
            tk.enumerate_shifted(skew, shift, radius)
    assert tk.enumerate_within(skew, -1.0) == []
    assert len(tk.enumerate_shifted(skew, shift, -1.0)[0]) == 0
    with pytest.raises(tk.RadiusTooLarge):
        tk.enumerate_within(skew, 1e300)
    with pytest.raises(tk.RadiusTooLarge):
        tk.enumerate_shifted(skew, shift, 1e300)


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


def _brute_sorted(gram, radius, off):
    """Every row of a coordinate box that holds the ball of the form ``gram``,
    filtered by the exact length test and sorted by Python's sorted on
    (length, coords).

    Lengths use the enumerator's quadratic-form expression, so ties
    between equally long vectors compare the same bits on both sides.
    """
    m = len(gram)
    # |c_i + off_i| <= radius * sqrt((G^-1)_ii) on the ellipsoid
    reach = radius * np.sqrt(np.diag(np.linalg.inv(gram)))
    lo = np.floor(-reach - off).astype(int) - 1
    hi = np.ceil(reach - off).astype(int) + 1
    axes = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, m)
    u = box + off
    lengths = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", u, gram, u), 0.0))
    keep = lengths <= radius
    return sorted((float(ell), tuple(int(x) for x in c)) for c, ell in zip(box[keep], lengths[keep]))


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
        want = [row for row in _brute_sorted(torus.gram, radius, np.zeros(m)) if any(row[1])]
        got = [(v.length, v.coords) for v in tk.enumerate_within(torus, radius)]
    else:
        off = torus.coords_from_lift(torus.embed(np.array(shift[:m])))
        want = _brute_sorted(torus.gram, radius, off)
        coords, _, lengths = tk.enumerate_shifted(torus, torus.embed(np.array(shift[:m])), radius)
        got = [(float(ell), tuple(int(x) for x in c)) for c, ell in zip(coords, lengths)]
    assert got == want


def _box_radius(gram):
    """2*sqrt(min diag G), which holds +-e_i and at least the first shell, or less where the
    coordinate box of ``_brute_sorted`` would hold more than about 3e5 rows."""
    widest = float(np.max(np.sqrt(np.diag(np.linalg.inv(gram)))))
    budget = (3e5 ** (1.0 / len(gram)) - 3.0) / (2.0 * widest)
    return min(2.0 * math.sqrt(float(np.min(np.diag(gram)))), budget)


@st.composite
def _forms(draw):
    """A positive definite form A^T A + delta*I of dimension 1-6, no torus's
    Gram matrix, with its upper Cholesky factor."""
    m = draw(st.integers(1, 6))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * m, max_size=m * m)))
    gram = A.reshape(m, m).T @ A.reshape(m, m) + draw(st.floats(0.5, 2.0)) * np.eye(m)
    gram = 0.5 * (gram + gram.T)
    return gram, np.linalg.cholesky(gram).T


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(form=_forms(), t=st.floats(0.5, 1.0), shifted=st.booleans(), data=st.data())
def test_form_enumeration_matches_brute_force(form, t, shifted, data):
    """The search reads a bare form: on forms of any dimension 1-6, with and
    without an offset, it returns the brute-force rows in length-then-lex order."""
    gram, chol = form
    m = len(gram)
    radius = t * _box_radius(gram)
    offset = None
    if shifted:
        offset = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    want = _brute_sorted(gram, radius, np.zeros(m) if offset is None else offset)
    if offset is None:
        want = [row for row in want if any(row[1])]
    coords, lengths = _lattice._enumerate_sorted(gram, chol, radius, offset=offset)
    assert [tuple(int(x) for x in c) for c in coords] == [c for _, c in want]
    assert np.all(np.abs(lengths - [ell for ell, _ in want]) <= 1e-12)


def _wrapped_length(gram, off):
    w = off - np.rint(off)
    return math.sqrt(max(float(w @ gram @ w), 0.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(form=_forms(), data=st.data())
def test_form_nearest_distance_matches_brute_force(form, data):
    """On the same forms, each pair's distance modulo Z^m is the brute-force
    minimum over its targets; each pair has one target within the box radius
    of its point, in the form, so the brute-force boxes stay small."""
    gram, chol = form
    m = len(gram)
    coords = st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)
    pairs, want = [], []
    for _ in range(2):
        x = np.array(data.draw(coords))
        w = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m)))
        w *= min(1.0, _box_radius(gram) / max(_wrapped_length(gram, w), 1e-300))
        shift = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
        Q = np.vstack([x + w + shift] + [data.draw(coords) for _ in range(data.draw(st.integers(0, 3)))])
        reach = min(_wrapped_length(gram, q - x) for q in Q) * (1.0 + 1e-9) + 1e-12
        best = [_brute_sorted(gram, reach, q - x) for q in Q]
        pairs.append((x, Q))
        want.append(min(rows[0][0] for rows in best if rows))
    got = _lattice._nearest_distance(gram, chol, pairs)
    assert np.all(np.abs(np.array(got) - want) <= 1e-12)


def test_tori_with_equal_l1_and_n_share_one_radius_entry():
    """The radius is memoised on (l1, 2n, k, eps): a torus built anew with
    the same data reads the first one's entry, bit for bit."""
    a = tk.standard_torus(0.35 + 1.15j, 2)
    b = tk.PolarizedTorus(n=a.n, basis=a.basis, H=a.H)
    assert b is not a and _lattice._l1(b).hex() == _lattice._l1(a).hex()
    before = _kernel._bisect_radius.cache_info()
    r_a = tk.truncation_radius(a, 7, 3.25e-9)
    r_b = tk.truncation_radius(b, np.int64(7), 3.25e-9)
    after = _kernel._bisect_radius.cache_info()
    assert r_b.hex() == r_a.hex()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert after.currsize == before.currsize + 1


def test_truncation_radius_memo_is_exact_and_dies_with_torus():
    """A memoised radius equals a fresh search, and the torus's own memo
    entry, the short vectors it was read from, is freed with the torus."""
    torus = tk.standard_torus(0.4 + 1.3j, 2)
    for k, eps in ((1, 1e-10), (3, 1e-8), (np.int64(2), 1e-12)):
        fresh = _kernel._bisect_radius.__wrapped__(_lattice._l1(torus), 2 * torus.n, k, eps)
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


def _former_shells(torus):
    """The former route, kept as a reference: l1 from its own enumeration
    to sqrt(min diag G), then the shells from a second one to 2*l1."""
    start = math.sqrt(float(np.min(np.diag(torus.gram))))
    l1 = float(_lattice._enumerate_sorted(*torus._form(), start * (1.0 + 1e-12))[1][0])
    coords, lengths = _lattice._enumerate_sorted(*torus._form(), 2.0 * l1 * (1.0 + 1e-9))
    inner = int(np.searchsorted(lengths, l1 * (1.0 + _lattice.TOL_SHELL), side="right"))
    l2 = float(lengths[inner]) if inner < len(lengths) else 2.0 * l1
    return l1, l2, [tuple(int(x) for x in c) for c in coords[:inner]], lengths[:inner].tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(torus=st.one_of(_n1_tori, st.sampled_from(_SURFACES)))
@example(torus=tk.standard_torus(1j, 1))
@example(torus=tk.product_torus(_SURFACES[1], tk.standard_torus(-0.2 + 0.9j, 2)))
def test_l1_and_shells_are_the_former_two_enumerations(torus):
    """One memoised enumeration to 2*sqrt(min diag G) gives l1, S1 and l2 bit
    for bit; the torus is rebuilt so that no memo from another test is read."""
    torus = tk.PolarizedTorus(n=torus.n, basis=torus.basis, H=torus.H)
    l1, l2, S1, lengths = _former_shells(torus)
    assert _lattice._l1(torus).hex() == l1.hex()
    sh = tk.shells(torus)
    assert (sh.l1.hex(), sh.l2.hex()) == (l1.hex(), l2.hex())
    assert [v.coords for v in sh.S1] == S1
    assert [v.length for v in sh.S1] == lengths


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


def _turn_gap(a, b):
    """Distance between two phases in turns, mod 1."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


def test_semicharacter_cocycle(rng, sq1):
    """chi(u + w) = chi(u) chi(w) exp(i pi E(u, w)) for the canonical
    extension used throughout, in turns mod 1."""
    for torus in (sq1, tk.standard_torus(0.3 + 1.2j, 2)):
        for _ in range(20):
            chi = random_chi(rng)
            u = rng.integers(-6, 7, size=2)
            w = rng.integers(-6, 7, size=2)
            lhs = tk.chi_phase_turns(chi, torus, u + w)
            pairing = int(u @ torus.E @ w)
            rhs = (tk.chi_phase_turns(chi, torus, u) + tk.chi_phase_turns(chi, torus, w)
                   + pairing / 2)
            assert _turn_gap(lhs, rhs) < 1e-13


def test_semicharacter_exact_turns(sq1):
    chi = tk.Semicharacter((0.25, 0.75))
    # quarter phases and the cocycle parity stay exact for huge coords:
    # c.phases = -5e8 + 0.75 and S = 1e9*(1e9 - 1) is even, so chi = -i
    assert _turn_gap(tk.chi_phase_turns(chi, sq1, np.array([10 ** 9, -10 ** 9 + 1])), 0.75) < 1e-13
    assert tk.chi_phase_turns(chi, sq1, np.array([0, 0])) == 0.0


def test_torus_point_round_trip(rng, skew):
    for _ in range(10):
        coords = rng.random(2)
        p = tk.TorusPoint.from_coords(skew, coords)
        back = skew.coords_from_lift(p.lift)
        assert np.allclose(back % 1.0, coords % 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_validation_errors(sq1, chi0, bad):
    """NaN or inf in a point or a phase used to give a NaN density."""
    with pytest.raises(tk.ValidationError):
        tk.TorusPoint.from_coords(sq1, np.array([bad, 0.1]))
    with pytest.raises(tk.ValidationError):
        tk.TorusPoint.from_lift(sq1, [complex(bad, 0.0)])
    with pytest.raises(tk.ValidationError):
        tk.Semicharacter((0.1, bad))
    with pytest.raises(tk.ValidationError):
        tk.rho_diag(sq1, chi0, 1, [complex(0.2, bad)])


def test_semicharacter_length_must_match_torus(sq1):
    with pytest.raises(tk.ValidationError):
        tk.chi_phase_turns(tk.Semicharacter((0.1,)), sq1, np.array([1, 0]))
    with pytest.raises(tk.ValidationError):
        tk.rho_diag(sq1, tk.Semicharacter.trivial(2), 1, tk.TorusPoint.zero(sq1))


def _distance(torus, p, q):
    return _lattice._nearest_distance(*torus._form(), [(p.coords, [q.coords])])[0]


def test_torus_distance(sq1):
    # distances carry the loop-length normalization ell = sqrt(2 pi H)
    p = tk.TorusPoint.from_coords(sq1, np.array([0.0, 0.0]))
    q = tk.TorusPoint.from_coords(sq1, np.array([0.5, 0.5]))
    assert abs(_distance(sq1, p, q) - math.sqrt(TWO_PI * 0.5)) < 1e-12
    # wrap-around: 0.9 is 0.1 away from 0
    r = tk.TorusPoint.from_coords(sq1, np.array([0.9, 0.0]))
    assert abs(_distance(sq1, p, r) - 0.1 * math.sqrt(TWO_PI)) < 1e-12
    assert _distance(sq1, p, p) < 1e-15
    # points given by far lifts: only the reduced coordinates matter, and
    # the distance is the shortest lift difference over nearby translates
    s = tk.TorusPoint.from_coords(sq1, np.array([0.3, 0.85]))
    for sgn in (1, -1):
        shift = sgn * (3 * sq1.basis[0] - 2 * sq1.basis[1])
        for a, b in ((p, q), (p, r), (q, r), (r, s), (s, q)):
            far_a = tk.TorusPoint.from_lift(sq1, a.lift + shift)
            far_b = tk.TorusPoint.from_lift(sq1, b.lift - shift)
            want = min(sq1.length_of(b.lift - a.lift + sq1.embed(np.array(c)))
                       for c in itertools.product(range(-2, 3), repeat=2))
            assert abs(_distance(sq1, a, b) - want) < 1e-14
            assert abs(_distance(sq1, far_a, far_b) - want) < 1e-14


def test_nearest_distance_is_min_of_pairwise(rng, skew):
    """One batched translate search gives the pairwise minimum exactly, for
    one target set and for several sets searched together."""
    for torus in (skew, tk.standard_torus(2.5 + 0.4j, 2), _SURFACES[1]):
        m = 2 * torus.n
        p = tk.TorusPoint.from_coords(torus, rng.random(m))
        targets = [tk.TorusPoint.from_coords(torus, rng.random(m)) for _ in range(40)]
        want = min(_distance(torus, p, q) for q in targets)
        Q = [q.coords for q in targets]
        assert _lattice._nearest_distance(*torus._form(), [(p.coords, Q)]) == [want]
        p2 = tk.TorusPoint.from_coords(torus, rng.random(m))
        want2 = min(_distance(torus, p2, q) for q in targets[:3])
        assert _lattice._nearest_distance(*torus._form(), [(p.coords, Q), (p2.coords, Q[:3])]) == [want, want2]
        # the same points from lifts shifted by +-(3 lambda_1 - 2 lambda_2)
        for sgn in (1, -1):
            shift = sgn * (3 * torus.basis[0] - 2 * torus.basis[1])
            far_p = tk.TorusPoint.from_lift(torus, p.lift + shift)
            far = [tk.TorusPoint.from_lift(torus, q.lift - shift).coords for q in targets]
            assert abs(_lattice._nearest_distance(*torus._form(), [(far_p.coords, far)])[0] - want) < 1e-14


def test_product_torus(sq1, d2):
    prod = tk.product_torus(sq1, d2)
    assert prod.n == 2
    assert prod.pfaffian_abs() == 2
    assert abs(prod.volume() - sq1.volume() * d2.volume()) < 1e-10
    rep = tk.validate(prod)
    assert rep.rank_E == 4


def test_random_tori_validate(rng):
    for _ in range(10):
        torus = random_torus(rng)
        rep = tk.validate(torus)
        assert rep.rank_E == 2
        assert rep.pfaffian_abs >= 1
