"""One grid evaluator: every whole-torus evaluation reads the prepared sum's
coefficients c_v = w_v exp(-2*pi*i*chi_v) through ``kernel._grid_loop``.

The density grid, its mean, the bundle difference of ``compare_bundles``
and the fiber profile of ``pushforward_fit`` each had their own evaluator.
The replaced routes (the half-spectrum body of ``_grid_values``, the
cosine-matrix profile and the two-grid difference) stay here as references.
"""

import math

import mpmath
import numpy as np
import pytest

import toruskernel as tk
from toruskernel import extrema as _extrema
from toruskernel.extrema import FIT_HARMONICS, PushforwardFit
from toruskernel.intlin import extended_gcd_row
from toruskernel.kernel import _grid_loop, _grid_values, _prepare
from toruskernel.lattice import _as_vector, _enumerate_sorted, _frac, _holonomy_turns

TWO_PI = 2 * math.pi
SQ1 = tk.standard_torus(1j, 1)
_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
TORI = {
    "sq1": SQ1,
    "skew": tk.standard_torus(0.3 + 1.2j, 1),
    "d2": tk.standard_torus(-0.2 + 0.9j, 2),
    "tau3": tk.standard_torus(0.3 + 1.2j, 3),
    "product": tk.product_torus(SQ1, tk.standard_torus(0.3 + 1.2j, 1)),
    "generic": tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]),
                                 H=np.linalg.inv(_Z.imag)),
}


def _cases(ks_n1, ks_n2):
    rng = np.random.default_rng(25)
    for name, torus in TORI.items():
        for k in (ks_n1 if torus.n == 1 else ks_n2):
            yield pytest.param(name, k, tuple(rng.random(2 * torus.n)), id=f"{name}-k{k}")


def _former_grid_values(prep, resolution):
    """The former body of ``_grid_values``: its own coefficients and scatter."""
    r, m = resolution, 2 * prep.torus.n
    half = np.mod(prep.A[:, -1], r) <= r // 2
    spectrum = np.zeros((r,) * (m - 1) + (r // 2 + 1,), dtype=complex)
    coeffs = prep.weights[half] * np.exp(-2j * np.pi * np.mod(prep.chi_turns[half], 1.0))
    np.add.at(spectrum, tuple(np.mod(prep.A[half], r).T), coeffs)
    return prep.scale * (1.0 + r ** m * np.fft.irfftn(spectrum, s=(r,) * m, axes=tuple(range(m))))


@pytest.mark.parametrize("name,k,phases", _cases((1, 2, 3, 6, 32), (1, 2)))
def test_grid_values_match_the_former_body_bit_for_bit(name, k, phases):
    torus = TORI[name]
    prep = _prepare(torus, tk.Semicharacter(phases), k)
    for res in ((16, 33, 64) if torus.n == 1 else (8, 9)):
        assert _grid_values(prep, res).tobytes() == _former_grid_values(prep, res).tobytes()


def _former_pushforward_fit(torus, chi, k, v1):
    """The former ``pushforward_fit``: its profile a (T x terms) cosine matrix."""
    row = _holonomy_turns(torus, chi, k, _as_vector(torus, v1).astype(object))[0]
    lam, c_u, kernel = extended_gcd_row(row)
    W = np.array(kernel, dtype=np.int64)
    nu = math.sqrt(max(float(np.linalg.det(np.atleast_2d(W.T @ torus.gram @ W))), 0.0))
    T = max(64, 8 * lam)
    prep = _prepare(torus, chi, k, eps=1e-12)
    keep = np.all(prep.A @ W == 0, axis=1)
    freqs = prep.A[keep] @ np.array(c_u, dtype=np.int64)
    turns = np.mod(np.outer(np.arange(T), freqs), T) / T - prep.chi_turns[keep]
    profile = nu * (np.cos(TWO_PI * turns) @ prep.weights[keep])
    spectrum = np.fft.rfft(profile)
    fundamental = 2.0 / T * complex(spectrum[lam])
    amplitude = abs(fundamental)
    measured = int(np.argmax(np.abs(spectrum[1:]))) + 1
    fitted = np.zeros_like(spectrum)
    bins = slice(lam, FIT_HARMONICS * lam + 1, lam)
    fitted[bins] = spectrum[bins]
    resid = float(np.max(np.abs(profile - np.fft.irfft(fitted, T))))
    if amplitude <= 1e-280 or resid > 1e-6 * amplitude or measured != lam:
        raise tk.FitResidualTooLarge("former fit")
    phase = _frac(math.atan2(fundamental.imag, fundamental.real) / TWO_PI)
    return PushforwardFit(phase=phase, frequency=lam, measured_frequency=measured,
                          amplitude=amplitude, fiber_volume=nu, residual=resid / amplitude)


def _outcome(fit, *args):
    try:
        return fit(*args)
    except tk.FitResidualTooLarge as exc:
        return type(exc)


@pytest.mark.parametrize("name,k,phases", _cases((1, 2, 3, 6, 32, 500), (1, 2, 3)))
def test_pushforward_matches_the_cosine_matrix_profile(name, k, phases):
    """Same frequencies and errors; every field within 1e-13 (the amplitude relative)."""
    torus, chi = TORI[name], tk.Semicharacter(phases)
    m = 2 * torus.n
    for v in np.eye(m, dtype=int).tolist() + [[1] * m, [2, -1] + [0] * (m - 2)]:
        got = _outcome(tk.pushforward_fit, torus, chi, k, tuple(v))
        want = _outcome(_former_pushforward_fit, torus, chi, k, tuple(v))
        if not isinstance(want, PushforwardFit):
            assert got is want
            continue
        assert (got.frequency, got.measured_frequency) == (want.frequency, want.measured_frequency)
        assert abs((got.phase - want.phase + 0.5) % 1.0 - 0.5) <= 1e-13
        assert abs(got.amplitude - want.amplitude) <= 1e-13 * want.amplitude
        assert abs(got.fiber_volume - want.fiber_volume) <= 1e-13
        assert abs(got.residual - want.residual) <= 1e-13


def test_pushforward_profile_calls_no_cosine(monkeypatch):
    def no_cos(*args, **kwargs):
        raise AssertionError("np.cos was called")
    fit = tk.pushforward_fit(SQ1, tk.Semicharacter((0.3, 0.0)), 1, (1, 0))
    monkeypatch.setattr(np, "cos", no_cos)
    assert tk.pushforward_fit(SQ1, tk.Semicharacter((0.3, 0.0)), 1, (1, 0)) == fit


def test_pushforward_profile_above_grid_cap_is_refused_before_any_array(monkeypatch):
    """At k = 10^7 on sq1 the profile has T = 8*10^7 points: an (80000000, 2) array
    ended in a bare MemoryError under a 3 GB address-space limit."""
    def no_prepare(*args, **kwargs):
        raise AssertionError("the sum was prepared")
    monkeypatch.setattr(_extrema, "_prepare", no_prepare)
    with pytest.raises(tk.ValidationError, match="GRID_CAP"):
        tk.pushforward_fit(SQ1, tk.Semicharacter((0.3, 0.1)), 10 ** 7, (1, 0))


def _former_compare(torus, chi_a, chi_b, k, resolution):
    """The former two-grid comparison: (verdict, max_diff, witness cell)."""
    prep_a, prep_b = _prepare(torus, chi_a, k), _prepare(torus, chi_b, k)
    diff = np.abs(_grid_values(prep_a, resolution) - _grid_values(prep_b, resolution))
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    threshold = prep_a.scale * (prep_a.tail + prep_b.tail) + 1e-10 * prep_a.scale
    if diff[idx] > threshold:
        return "distinct", float(diff[idx]), idx
    loops = np.eye(2 * torus.n, dtype=np.int64)
    pa, pb = (-_holonomy_turns(torus, chi, k, loops)[1] for chi in (chi_a, chi_b))
    agree = np.all(np.abs((pa - pb + 0.5) % 1.0 - 0.5) <= 1e-6)
    return ("isomorphic_power" if agree else "distinct"), float(diff[idx]), None


def _compare_cases():
    rng = np.random.default_rng(7)
    for name, torus in TORI.items():
        m = 2 * torus.n
        for k in (1, 2, 3, 32):
            a = rng.random(m)
            for kind, b in (("equal", a), ("shift", a + rng.integers(-3, 4, size=m) / k),
                            ("random", rng.random(m)), ("near", a + 1e-3 * rng.normal(size=m))):
                yield pytest.param(name, k, tuple(a), tuple(b), id=f"{name}-k{k}-{kind}")


@pytest.mark.parametrize("name,k,phases_a,phases_b", _compare_cases())
def test_compare_matches_the_two_grid_difference(name, k, phases_a, phases_b):
    """Same verdict and witness presence; max_diff within 1e-13 of the scale, and the
    witness cell is a maximum of the former grid difference to that tolerance."""
    torus = TORI[name]
    chi_a, chi_b = tk.Semicharacter(phases_a), tk.Semicharacter(phases_b)
    res = 8 if torus.n == 2 else 32
    prep_a, prep_b = _prepare(torus, chi_a, k), _prepare(torus, chi_b, k)
    assert np.array_equal(prep_a.A, prep_b.A)
    cmp = tk.compare_bundles(torus, chi_a, chi_b, k, resolution=res)
    verdict, max_diff, cell = _former_compare(torus, chi_a, chi_b, k, res)
    assert cmp.verdict == verdict
    assert (cmp.witness is None) == (cell is None)
    assert abs(cmp.max_diff - max_diff) <= 1e-13 * prep_a.scale
    if cmp.witness is not None:
        J = tuple(int(round(x * res)) % res for x in cmp.witness.coords)
        diff = np.abs(_grid_values(prep_a, res) - _grid_values(prep_b, res))
        assert diff[J] >= max_diff - 1e-13 * prep_a.scale


def test_compare_evaluates_one_loop_grid(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _grid_loop(*args)

    def no_grid(*args):
        raise AssertionError("a density grid was built")
    monkeypatch.setattr(_extrema, "_grid_loop", counted)
    monkeypatch.setattr(_extrema, "_grid_values", no_grid)
    tk.compare_bundles(SQ1, tk.Semicharacter((0.3, 0.1)), tk.Semicharacter((0.5, 0.1)), 1)
    assert calls == [32]


@pytest.mark.parametrize("k", [32, 200])
def test_compare_sees_the_difference_below_one_ulp_of_the_scale(k):
    """sq1 with chi = (0.3, 0.1) against (0.313, 0.1): the densities differ by
    2.7e-21 at k = 32 and 4.2e-135 at k = 200, below one ulp of the scale, so the
    two-grid difference read max_diff = 0.0.  The difference grid sees it: against
    a 50-digit evaluation of max_j |rho_a - rho_b|(j/32) over the same terms."""
    chi_a, chi_b = tk.Semicharacter((0.3, 0.1)), tk.Semicharacter((0.313, 0.1))
    cmp = tk.compare_bundles(SQ1, chi_a, chi_b, k)
    assert cmp.verdict == "distinct" and cmp.witness is None
    assert 0.0 < cmp.max_diff <= cmp.threshold
    assert _former_compare(SQ1, chi_a, chi_b, k, 32)[1] == 0.0
    prep_a, prep_b = _prepare(SQ1, chi_a, k), _prepare(SQ1, chi_b, k)
    _, lengths = _enumerate_sorted(*SQ1._form(), prep_a.radius)
    assert len(lengths) == prep_a.terms
    with mpmath.workdps(50):
        w = [mpmath.exp(-mpmath.mpf(k) / 4 * mpmath.mpf(float(ell)) ** 2) for ell in lengths]
        pa = [mpmath.mpf(float(t)) for t in prep_a.chi_turns]
        pb = [mpmath.mpf(float(t)) for t in prep_b.chi_turns]
        A = prep_a.A.tolist()
        best = mpmath.mpf(0)
        for j in np.ndindex(32, 32):
            x = [mpmath.mpf(i) / 32 for i in j]
            s = mpmath.mpf(0)
            for wv, (a1, a2), ta, tb in zip(w, A, pa, pb):
                turn = a1 * x[0] + a2 * x[1]
                s += wv * (mpmath.cos(2 * mpmath.pi * (turn - ta))
                           - mpmath.cos(2 * mpmath.pi * (turn - tb)))
            best = max(best, abs(s))
        exact = (mpmath.mpf(k) / (2 * mpmath.pi)) * best
    assert abs(cmp.max_diff - float(exact)) <= 1e-6 * float(exact)
