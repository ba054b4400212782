"""Loop-sum density: truncation policy, certificates, grids, integrals."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toruskernel as tk
from toruskernel import kernel as _kernel
from toruskernel.kernel import GRID_CAP, _check_grid, _grid_mean, _grid_values, _prepare

from conftest import brute_rho, random_chi, random_torus

TWO_PI = 2 * math.pi


def test_tail_bound_monotone(sq1, d2):
    for torus in (sq1, d2):
        R = tk.truncation_radius(torus, 1, 1e-6)
        assert tk.tail_bound(torus, R, 1) <= 1e-6
        assert tk.tail_bound(torus, R + 0.5, 1) < tk.tail_bound(torus, R, 1)
        assert tk.tail_bound(torus, R, 2) < tk.tail_bound(torus, R, 1)


def test_tail_bound_needs_min_radius(sq1):
    with pytest.raises(tk.ValidationError):
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


def _reference_tail_bound(torus, R, k):
    """The former tail loop, kept as a reference: every term down to the
    first one below 1e-300."""
    l1 = tk.shells(torus).l1
    two_n = 2 * torus.n
    total = 0.0
    j = 0
    while True:
        term = math.exp(-0.25 * k * (R + j) ** 2) * (1.0 + 2.0 * (R + j + 1) / l1) ** two_n
        total += term
        j += 1
        if term < 1e-300:
            break
    return total


def _reference_bisect_radius(torus, k, eps):
    """The grow-then-bisect search on the reference tail loop."""
    lo = hi = tk.shells(torus).l1
    if _reference_tail_bound(torus, hi, k) <= eps:
        return hi
    while True:
        hi *= 1.25
        if _reference_tail_bound(torus, hi, k) <= eps:
            break
        lo = hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _reference_tail_bound(torus, mid, k) <= eps:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


_SQ = tk.standard_torus(1j, 1)
_SKEW = tk.standard_torus(0.3 + 1.2j, 1)
_GEN_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
_TAIL_TORI = {
    "sq1": _SQ, "skew-d2": tk.standard_torus(0.3 + 1.2j, 2), "rect": tk.standard_torus(2j, 2),
    "product": tk.product_torus(_SQ, _SKEW),
    "generic": tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _GEN_Z.T]),
                                 H=np.linalg.inv(_GEN_Z.imag)),
    "threefold": tk.product_torus(tk.product_torus(_SQ, _SKEW), tk.standard_torus(2j, 1)),
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_TAIL_TORI)), k=st.integers(1, 10 ** 4),
       u=st.floats(1.0, 12.0))
@example(name="sq1", k=1, u=1.0)
@example(name="threefold", k=1, u=1.0)
@example(name="generic", k=10 ** 4, u=12.0)
def test_tail_bound_early_exit_is_bit_identical(name, k, u):
    """Stopping once the remaining terms are absorbed by round-to-nearest
    gives the sum down to 1e-300 bit for bit."""
    torus = _TAIL_TORI[name]
    R = tk.shells(torus).l1 * u
    assert tk.tail_bound(torus, R, k).hex() == _reference_tail_bound(torus, R, k).hex()


@pytest.mark.parametrize("name", sorted(_TAIL_TORI))
def test_truncation_radius_is_bit_identical_to_the_former_search(name):
    torus = _TAIL_TORI[name]
    l1 = tk.shells(torus).l1
    for k in (1, 2, 3, 4, 7, 20, 100, 1000, 10 ** 4):
        for eps in (1e-6, 1e-8, 1e-10, 1e-12, 1e-300, 5e-324):
            want = _reference_bisect_radius(torus, k, eps)
            assert _kernel._bisect_radius(l1, 2 * torus.n, k, eps).hex() == want.hex()
            assert tk.truncation_radius(torus, k, eps).hex() == want.hex()


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_tail_bound_rejects_a_non_finite_radius(sq1, R):
    """A NaN or infinite R never ended the tail loop."""
    with pytest.raises(tk.ValidationError, match="finite"):
        tk.tail_bound(sq1, R, 1)


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


def test_radius_override_must_be_finite_and_enumerable(sq1, chi0):
    """A NaN radius used to hang the tail loop (max(nan, l1) is nan), and
    1e300 overflowed the enumeration count and the tail bound."""
    p = tk.TorusPoint.zero(sq1)
    callers = (lambda r: tk.rho_diag(sq1, chi0, 1, p, radius=r),
               lambda r: tk.rho_grid(sq1, chi0, 1, 8, radius=r),
               lambda r: tk.offdiag_bound(sq1, 1, p, p, radius=r))
    for call in callers:
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(tk.ValidationError):
                call(bad)
        with pytest.raises(tk.RadiusTooLarge) as exc:
            call(1e300)
        assert isinstance(exc.value.required_cap, int)
        assert exc.value.required_cap > tk.lattice.ENUM_CAP


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


def _reference_grid(prep, resolution, chunk=2048):
    """The former grid evaluator, kept as a reference: one cosine per
    (grid point, lattice term) pair, in chunks of grid points."""
    axes = np.indices((resolution,) * (2 * prep.torus.n)).reshape(2 * prep.torus.n, -1).T
    pts = axes.astype(float) / resolution
    out = np.empty(len(pts))
    for a in range(0, len(out), chunk):
        out[a:a + chunk] = prep.density(pts[a:a + chunk])
    return out.reshape((resolution,) * (2 * prep.torus.n))


_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])


def _surface(name):
    if name == "product":
        return tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1))
    return tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]), H=np.linalg.inv(_Z.imag))


_GRID_INPUTS = (
    [(f"{name}-k{k}", name, k, (16, 15, 7, 2)) for name in ("sq1", "d2", "tau1", "tau2")
     for k in range(1, 9)]
    + [(f"{name}-k{k}", name, k, (8, 7, 2)) for name in ("product", "generic") for k in (1, 2)]
)
_N1 = {"sq1": (1j, 1), "d2": (1j, 2), "tau1": (-0.2 + 0.9j, 1), "tau2": (0.3 + 1.2j, 1)}


@pytest.mark.parametrize("name,k,resolutions", [c[1:] for c in _GRID_INPUTS],
                         ids=[c[0] for c in _GRID_INPUTS])
def test_grid_matches_reference_evaluator(name, k, resolutions):
    """The real inverse FFT of the half spectrum equals the term-by-term
    cosine sum, and the former complex inverse FFT of the full spectrum,
    at even, odd and least resolutions."""
    if name in _N1:
        torus, chi = tk.standard_torus(*_N1[name]), tk.Semicharacter((0.37, 0.81))
    else:
        torus, chi = _surface(name), tk.Semicharacter((0.11, 0.52, 0.73, 0.29))
    prep = _prepare(torus, chi, k)
    scale = (k / TWO_PI) ** torus.n
    for res in resolutions:
        values = tk.rho_grid(torus, chi, k, res).values
        assert values.shape == (res,) * (2 * torus.n)
        assert np.max(np.abs(values - _reference_grid(prep, res))) <= 1e-13 * scale
        assert np.max(np.abs(values - _former_fft_grid(prep, res))) <= 1e-14 * scale


def _former_fft_grid(prep, resolution):
    """The former FFT grid, kept as a reference: every bin A_v mod r of the
    full spectrum, and a complex inverse FFT whose real part is the grid."""
    spectrum = np.zeros((resolution,) * (2 * prep.torus.n), dtype=complex)
    bins = tuple(np.mod(prep.A, resolution).T)
    np.add.at(spectrum, bins, prep.weights * np.exp(-2j * np.pi * np.mod(prep.chi_turns, 1.0)))
    return prep.scale * (1.0 + spectrum.size * np.fft.ifftn(spectrum).real)


_TRANSLATION_TORI = {"sq1": (1j, 1), "d2": (1j, 2), "tau1": (-0.2 + 0.9j, 1),
                     "tau2": (0.3 + 1.2j, 3), "generic": None}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_TRANSLATION_TORI)), k=st.integers(1, 4),
       z=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       x=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       phases=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_density_is_invariant_under_the_translation_group(name, k, z, x, phases):
    """Translation by t in (kE)^-1 Z^2n moves every turn A_v . x by an integer,
    so the density and its gradient at x + t are those at x: the law behind
    refining one tied cell per class in ``find_extrema``."""
    if _TRANSLATION_TORI[name] is None:
        torus = _surface("generic")
    else:
        torus = tk.standard_torus(*_TRANSLATION_TORI[name])
    m = 2 * torus.n
    prep = _prepare(torus, tk.Semicharacter(tuple(phases[:m])), k, eps=1e-12)
    t = np.linalg.solve(k * torus.E.astype(float), np.array(z[:m], dtype=float))
    assert np.allclose(k * torus.E @ t, z[:m], atol=1e-12)
    x = np.array(x[:m])
    assert abs(prep.density(x + t) - prep.density(x)) <= 1e-13 * prep.scale
    assert np.max(np.abs(prep.gradient(x + t) - prep.gradient(x))) <= 1e-13 * prep.scale


def test_grid_at_large_k_reduces_phases_exactly():
    """At k = 40 the frequencies A_v reach 80, far above the resolution;
    a loop of length 0.56 keeps their weights above 1e-6.  The reference
    reduces A . j mod r in integers before the cosine, as the grid does."""
    torus, chi, k = tk.standard_torus(0.3 + 20j, 1), tk.Semicharacter((0.37, 0.81)), 40
    prep = _prepare(torus, chi, k)
    assert np.max(np.abs(prep.A)) >= 80
    for res in (16, 15):
        J = np.indices((res, res)).reshape(2, -1).T
        turns = np.mod(J @ prep.A.T, res) / res - prep.chi_turns
        ref = prep.scale * (1.0 + np.cos(TWO_PI * turns) @ prep.weights)
        values = tk.rho_grid(torus, chi, k, res).values
        assert np.max(np.abs(values.ravel() - ref)) <= 1e-13 * prep.scale


def test_grid_memory_is_one_spectrum():
    """An n = 2 grid at res 12 holds one r^4 spectrum, not a chunk of
    points times every lattice term."""
    torus, chi = _surface("generic"), tk.Semicharacter((0.11, 0.52, 0.73, 0.29))
    tk.rho_grid(torus, chi, 2, 2)   # the truncation audit and radius memo run untraced
    tracemalloc.start()
    try:
        tk.rho_grid(torus, chi, 2, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_grid_extrema_summaries(sq1, chi0):
    field = tk.rho_grid(sq1, chi0, 1, 16)
    max_at, max_val = field.argbest("max")
    min_at, min_val = field.argbest("min")
    assert max_at == (0.0, 0.0)
    assert min_at == (0.5, 0.5)
    assert max_val > min_val >= 0.0 - field.density_halfwidth


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
    with pytest.raises(tk.ValidationError):
        tk.rho_grid(sq1, chi0, 1, 1)


def test_grid_cap_is_a_validation_error(sq1, chi0):
    """A grid above GRID_CAP cells is refused before any radius search or
    allocation; res 100000 used to end in a 149 GiB MemoryError."""
    assert GRID_CAP == 2 ** 24
    _check_grid(sq1, 4096, 2)
    product = tk.product_torus(tk.standard_torus(1j, 1), tk.standard_torus(2j, 1))
    _check_grid(product, 64, 16)
    chi2 = tk.Semicharacter.trivial(2)
    calls = [
        lambda t: tk.rho_grid(t, chi0, 1, 4097),
        lambda t: tk.rho_grid(t, chi0, 1, 100000),
        lambda t: tk.find_extrema(t, chi0, 1, resolution=100000),
        lambda t: tk.compare_bundles(t, chi0, tk.Semicharacter((0.5, 0.0)), 1, resolution=10 ** 6),
        lambda t: tk.localization_sweep(t, chi0, (1, 2), resolution=100000),
    ]
    for call in calls:
        torus = tk.standard_torus(1j, 1)
        with pytest.raises(tk.ValidationError, match="GRID_CAP"):
            call(torus)
        assert torus not in tk.lattice._DERIVED
    with pytest.raises(tk.ValidationError, match="GRID_CAP"):
        tk.rho_grid(product, chi2, 1, 65)
    # n = 3 at compare's default res 32 would need 32^6 = 1.1e9 cells
    threefold = tk.product_torus(product, tk.standard_torus(1j, 1))
    chi3 = tk.Semicharacter.trivial(3)
    with pytest.raises(tk.ValidationError, match="GRID_CAP"):
        tk.compare_bundles(threefold, chi3, chi3, 1)
    # a numpy integer is not allowed to wrap around in res^(2n)
    with pytest.raises(tk.ValidationError, match="GRID_CAP"):
        _check_grid(threefold, np.int64(10 ** 7), 2)


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
    with pytest.raises(tk.ValidationError):
        tk.integral_check(sq1, chi0, 1, resolution=4)


_MEAN_INPUTS = ([(name, k, res) for name in ("sq1", "d2", "tau1", "tau2") for k in (1, 3, 8)
                 for res in (4, 5, 8, 16, 33, 64, 128)]
                + [(name, k, res) for name in ("product", "generic") for k in (1, 2)
                   for res in (4, 5, 8, 16, 32)])


@pytest.mark.parametrize("name,k,res", _MEAN_INPUTS,
                         ids=[f"{name}-k{k}-r{res}" for name, k, res in _MEAN_INPUTS])
def test_grid_mean_is_the_zero_bin(name, k, res):
    """integral_check reads the mean off the spectrum's zero bin; the
    mean of the full grid stays the reference."""
    if name in _N1:
        torus, chi = tk.standard_torus(*_N1[name]), tk.Semicharacter((0.37, 0.81))
    else:
        torus, chi = _surface(name), tk.Semicharacter((0.11, 0.52, 0.73, 0.29))
    prep = _prepare(torus, chi, k)
    ref = float(np.mean(_grid_values(prep, res)))
    assert abs(_grid_mean(prep, res) - ref) <= 1e-15 * prep.scale


def test_integral_check_builds_no_grid():
    """At n = 2 and res 32 the two grid means used to hold 32^4 and 16^4
    spectra (48.5 MB peak); read from the zero bin they need no array of
    grid size."""
    torus, chi = _surface("generic"), tk.Semicharacter((0.11, 0.52, 0.73, 0.29))
    tk.integral_check(torus, chi, 2, resolution=8)   # the truncation audit and radius memo run untraced
    tracemalloc.start()
    try:
        got, expected = tk.integral_check(torus, chi, 2, resolution=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert abs(got - expected) < 5e-3 * expected


def test_product_density_factorizes(rng):
    """On a product torus the density is the product of the factors'
    densities, within the certified halfwidths of all three sums."""
    sq1, skew = tk.standard_torus(1j, 1), tk.standard_torus(0.3 + 1.2j, 1)
    prod = tk.product_torus(sq1, skew)
    for _ in range(15):
        k = int(rng.integers(1, 4))
        chi_a, chi_b = random_chi(rng), random_chi(rng)
        xa, xb = rng.random(2), rng.random(2)
        ra = tk.rho_diag(sq1, chi_a, k, tk.TorusPoint.from_coords(sq1, xa))
        rb = tk.rho_diag(skew, chi_b, k, tk.TorusPoint.from_coords(skew, xb))
        rab = tk.rho_diag(prod, tk.Semicharacter(chi_a.phases + chi_b.phases), k,
                          tk.TorusPoint.from_coords(prod, np.concatenate([xa, xb])))
        ha, hb, hab = ra.density_halfwidth(1, k), rb.density_halfwidth(1, k), \
            rab.density_halfwidth(2, k)
        slack = hab + abs(ra.value) * hb + (abs(rb.value) + hb) * ha
        assert abs(rab.value - ra.value * rb.value) <= slack + 1e-13 * (k / TWO_PI) ** 2


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


def test_non_integral_torus_is_rejected_where_every_density_starts():
    """Im H 0.3 off the integers used to be rounded and evaluated."""
    torus = tk.PolarizedTorus(n=1, basis=[[1], [0.3 + 1.2j]], H=[[1.3 / 1.2]])
    with pytest.raises(tk.IntegralityViolation):
        tk.rho_diag(torus, _CHI, 1, _pt(torus))
    with pytest.raises(tk.IntegralityViolation):
        tk.rho_grid(torus, _CHI, 1, 8)
    with pytest.raises(tk.IntegralityViolation):
        tk.find_extrema(torus, _CHI, 1, resolution=16)
