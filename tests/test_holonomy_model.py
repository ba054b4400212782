"""One holonomy model: every loop turn is A . x - phi from ``lattice._holonomy_turns``,
read at a point's reduced coordinates x.

A point is its coordinates mod 1 (its lift is their embedding), so every
route must give bit-identical values at coordinates c and c mod 1, for
any finite c.  The replaced routes (the Im H pairing at the raw lift, the
lift-difference solve of the translate offset, the pushforward verdict of
``compare_bundles``) stay here as references.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toruskernel as tk
from toruskernel.lattice import HOL_SIGN, _holonomy_turns

from conftest import run_cli

TAU = 0.3 + 1.2j
CHI = tk.Semicharacter((0.3, 0.1))
BASIS = tk.build_basis(TAU, 1, CHI, 2)
GRAM = tk.build_gram(BASIS)
SKEW = BASIS.torus
SQ1 = tk.standard_torus(1j, 1)
_Z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
PRODUCT = tk.product_torus(SQ1, tk.standard_torus(TAU, 1))
GENERIC = tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), _Z.T]), H=np.linalg.inv(_Z.imag))
# Im H(lambda_1, lambda_2) = -0.9, 0.1 off the integers
NON_INTEGRAL = tk.PolarizedTorus(n=1, basis=[[1], [TAU]], H=[[0.75]])


def circ(a, b):
    """Distance of two angles in turns."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _bits(x):
    return np.asarray(x).tobytes()


def _routes(p, q):
    """Every value that reads a point, on the n = 1 torus of the oracle."""
    return {
        "rho_diag": tk.rho_diag(SKEW, CHI, 2, p).value,
        "rho_gradient": tk.rho_gradient(SKEW, CHI, 2, p),
        "offdiag_bound": tk.offdiag_bound(SKEW, 2, p, q).value,
        "hol_closed": tk.hol_closed(SKEW, CHI, 2, p, (1, 1)).value,
        "hol_ode": tk.hol_ode(SKEW, CHI, 2, p, (1, 0)).value,
        "rho_oracle": tk.rho_oracle(BASIS, GRAM, p),
        "offdiag_oracle": tk.offdiag_oracle(BASIS, GRAM, p, q),
    }


_COORD = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_COORDS = st.lists(_COORD, min_size=2, max_size=2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c=_COORDS, d=_COORDS)
@example(c=[1e3, 0.0], d=[0.5, 0.5])            # hol: ode_value was nan
@example(c=[1e12, 0.0], d=[0.5, 0.5])           # hol: 4e14 RK4 steps
@example(c=[30.25, 0.5], d=[0.5, 0.5])          # rho_oracle was nan
@example(c=[1e6 + 0.25, 0.5], d=[0.5, 0.5])     # hol_closed was 2.3e-11 turns off
@example(c=[1e16, 0.0], d=[0.5, 0.5])           # offdiag bound read 0.674
@example(c=[1e17, 0.0], d=[0.5, 0.5])           # offdiag bound read 0.224
@example(c=[1e300, 0.0], d=[0.5, 0.5])          # offdiag bound read 0
@example(c=[-1e-20, 0.5], d=[-5e-324, 1.0])     # x mod 1 rounds up to 1.0
def test_every_route_reads_reduced_coordinates(c, d):
    far_p, far_q = tk.TorusPoint.from_coords(SKEW, c), tk.TorusPoint.from_coords(SKEW, d)
    p = tk.TorusPoint.from_coords(SKEW, np.mod(c, 1.0))
    q = tk.TorusPoint.from_coords(SKEW, np.mod(d, 1.0))
    for far, near in ((far_p, p), (far_q, q)):
        assert all(0.0 <= x < 1.0 for x in far.coords)
        assert far.coords == near.coords and _bits(far.lift) == _bits(near.lift)
        again = tk.TorusPoint.from_coords(SKEW, far.coords)
        assert again.coords == far.coords and _bits(again.lift) == _bits(far.lift)
    got, want = _routes(far_p, far_q), _routes(p, q)
    for name, value in got.items():
        assert np.all(np.isfinite(value)), name
        assert _bits(value) == _bits(want[name]), name


def test_a_lift_is_reduced_too():
    """from_lift keeps no caller lift: a far lift names the point by its
    reduced coordinates, like from_coords."""
    for torus in (SKEW, GENERIC):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.random(2 * torus.n)
            far = torus.embed(x + rng.integers(-10 ** 6, 10 ** 6, size=2 * torus.n))
            p = tk.TorusPoint.from_lift(torus, far)
            q = tk.TorusPoint.from_coords(torus, p.coords)
            assert _bits(p.lift) == _bits(q.lift)
            assert max(circ(a, b) for a, b in zip(p.coords, x)) < 1e-9


def _former_hol_closed_turns(torus, chi, k, p, v):
    """The former closed form: k*(s*Im H(v, p~) - chi_turns(v)) at the point's lift."""
    v = tk.LatticeVector.from_coords(torus, v)
    pairing = torus.hermitian_pair(v.embedding, p.lift).imag
    return k * (HOL_SIGN * pairing - tk.chi_phase_turns(chi, torus, v.coords))


@pytest.mark.parametrize("torus", [SQ1, SKEW, tk.standard_torus(-0.2 + 0.9j, 2), PRODUCT, GENERIC],
                         ids=["sq1", "skew", "d2", "product", "generic"])
def test_hol_closed_matches_the_im_h_pairing(torus):
    rng = np.random.default_rng(11)
    m = 2 * torus.n
    for _ in range(40):
        chi = tk.Semicharacter(tuple(rng.random(m)))
        k = int(rng.integers(1, 6))
        v = tuple(int(x) for x in rng.integers(-3, 4, size=m))
        p = tk.TorusPoint.from_coords(torus, rng.random(m))
        got = tk.hol_closed(torus, chi, k, p, v)
        want = _former_hol_closed_turns(torus, chi, k, p, v)
        assert circ(got.alpha, want % 1.0) < 1e-12
        A, phi = _holonomy_turns(torus, chi, k, np.array(v))
        assert A.dtype == np.int64 and got.alpha == (float(A @ np.array(p.coords)) - phi) % 1.0


D2 = tk.standard_torus(TAU, 2)


@pytest.mark.parametrize("k,v", [(2 ** 63, (1, 0)), (2 ** 62, (2, 0)), (2 ** 70, (1, 1)),
                                 (1, (2 ** 62 + 1, 0)), (2 ** 63, (0, 0))])
def test_holonomy_turns_refuse_an_int64_overflow(k, v):
    """k = 2**63 ended in a bare OverflowError, and k*(C E) = 2**63 at
    k = 2**62 wrapped round silently; one below the range still answers.
    The k = 1 loop is read on D2, whose E has entries +-2: C @ E =
    (0, -2**63 - 2) wrapped to (0, 2**63 - 2), and alpha read 0.0.  The
    zero loop at k = 2**63 ended in a bare OverflowError."""
    p = tk.TorusPoint.from_coords(SQ1, (0.25, 0.5))
    torus = D2 if k == 1 else SQ1
    with pytest.raises(tk.ValidationError, match="past int64"):
        tk.hol_closed(torus, CHI, k, tk.TorusPoint.from_coords(torus, (0.25, 0.5)), v)
    with pytest.raises(tk.ValidationError, match="past int64"):
        _holonomy_turns(torus, CHI, k, np.array([v, (1, 0)]))
    if k >= 2 ** 63:
        with pytest.raises(tk.ValidationError, match="past int64"):
            tk.rho_diag(SQ1, CHI, k, p)
    assert 0.0 <= tk.hol_closed(SQ1, CHI, 2 ** 62, p, (1, 0)).alpha < 1.0


@pytest.mark.parametrize("command", [["hol", "--vector", "1,0"], ["rho"],
                                     ["hol", "--vector", "0,0"]])
def test_int64_overflowing_k_exits_1_without_traceback(tmp_path, command):
    cfg = _config(tmp_path, [[1, 0], [0, 1]], 1)
    proc = run_cli([*command, "--config", cfg, "--point", "0.25,0.5", "--k", str(2 ** 63)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("ValidationError: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_holonomy_turns_answer_up_to_the_int64_edge():
    """The bound k*(|C| @ |E|) is exact near 2**63: one below it answers."""
    A, _ = _holonomy_turns(D2, CHI, 1, np.array([[2 ** 62 - 1, 0], [0, -(2 ** 62 - 1)]]))
    assert A.tolist() == [[0, -(2 ** 63 - 2)], [-(2 ** 63 - 2), 0]]
    A, _ = _holonomy_turns(SQ1, CHI, 1, np.array([[2 ** 63 - 1, 0]]))
    assert A.tolist() == [[0, -(2 ** 63 - 1)]]


@pytest.mark.parametrize("torus", [SQ1, D2], ids=["sq1", "d2"])
def test_hol_closed_value_is_the_reduced_turn(torus):
    """The value was exp(2*pi*i*turns) of the unreduced turn: at the loop (2**40, 0)
    on D2 it sat 6.4e-5 turns off the alpha of 0.0 reported beside it."""
    p = tk.TorusPoint.from_coords(torus, (0.3, 0.6))
    for j in range(0, 53, 4):
        for v in ((2 ** j, 0), (0, 2 ** j), (2 ** j, -3), (-(2 ** j), 2 ** j)):
            hol = tk.hol_closed(torus, CHI, 1, p, v)
            assert abs(abs(hol.value) - 1.0) < 1e-15
            assert circ(cmath.phase(hol.value) / (2 * math.pi), hol.alpha) < 1e-12


def test_holonomy_turns_keep_exact_integers_for_object_rows():
    C = np.array([[1, 0], [10 ** 6, -3]], dtype=object)
    A, _ = _holonomy_turns(SKEW, CHI, 10 ** 12, C)
    assert all(type(a) is int for a in A.ravel())
    assert A.tolist() == [[10 ** 12 * a for a in row] for row in (C @ SKEW.E).tolist()]


@pytest.mark.parametrize("torus", [SQ1, SKEW, PRODUCT, GENERIC],
                         ids=["sq1", "skew", "product", "generic"])
def test_offdiag_offset_matches_the_lift_solve(torus):
    """The offset y - x in reduced coordinates against the former solve of
    the lift difference (``enumerate_shifted`` still takes that route)."""
    rng = np.random.default_rng(5)
    m = 2 * torus.n
    for k in (1, 2, 3):
        for _ in range(6):
            x = tk.TorusPoint.from_coords(torus, rng.random(m))
            y = tk.TorusPoint.from_coords(torus, rng.random(m))
            got = tk.offdiag_bound(torus, k, x, y)
            _, _, lengths = tk.enumerate_shifted(torus, y.lift - x.lift, got.radius)
            want = (k / (2 * math.pi)) ** torus.n * float(np.sum(np.exp(-0.25 * k * lengths ** 2)))
            assert abs(got.value - want) <= 1e-14 * want
            assert got.terms == len(lengths)


def _pushforward_pairs(torus, chi_a, chi_b, k):
    """The former source of ``recovered``: the pushforward fit on every basis loop."""
    return [(tk.pushforward_recover(torus, chi_a, k, e), tk.pushforward_recover(torus, chi_b, k, e))
            for e in np.eye(2 * torus.n, dtype=int)]


def _compare_cases():
    rng = np.random.default_rng(17)
    for name, torus in (("sq1", SQ1), ("skew", SKEW), ("d2", tk.standard_torus(-0.2 + 0.9j, 2)),
                        ("product", PRODUCT)):
        m = 2 * torus.n
        for k in (1, 2, 3, 4, 8, 16, 64):
            a = rng.random(m)
            for kind, b in (("equal", a), ("shift", a + rng.integers(-3, 4, size=m) / k),
                            ("random", rng.random(m)), ("near", a + 1e-3 * rng.normal(size=m))):
                yield pytest.param(torus, tuple(a), tuple(b), k, id=f"{name}-k{k}-{kind}")


@pytest.mark.parametrize("torus,phases_a,phases_b,k", _compare_cases())
def test_compare_matches_the_pushforward_verdict(torus, phases_a, phases_b, k):
    """Wherever the pushforward fits answer, they give the same verdict and
    the same basis holonomies; ``recovered`` holds Python floats in [0, 1)."""
    chi_a, chi_b = tk.Semicharacter(phases_a), tk.Semicharacter(phases_b)
    cmp = tk.compare_bundles(torus, chi_a, chi_b, k, resolution=8 if torus.n == 2 else 32)
    if cmp.recovered is None:
        assert cmp.verdict == "distinct" and cmp.witness is not None
        return
    assert all(type(x) is float and 0.0 <= x < 1.0 for pair in cmp.recovered for x in pair)
    try:
        pairs = _pushforward_pairs(torus, chi_a, chi_b, k)
    except tk.FitResidualTooLarge:
        return
    agree = all(circ(pa, pb) <= 1e-6 for pa, pb in pairs)
    assert cmp.verdict == ("isomorphic_power" if agree else "distinct")
    for (ga, gb), (pa, pb) in zip(cmp.recovered, pairs):
        assert circ(ga, pa) < 1e-12 and circ(gb, pb) < 1e-12


@pytest.mark.parametrize("k", [300, 500, 1000])
@pytest.mark.parametrize("torus", [SQ1, SKEW], ids=["sq1", "skew"])
def test_compare_answers_at_large_k(torus, k):
    """At k = 500 the fundamental weight of the pushforward underflows, and
    compare_bundles raised FitResidualTooLarge for a bundle against itself."""
    assert tk.compare_bundles(torus, CHI, CHI, k).verdict == "isomorphic_power"
    for j in ((1, 0), (0, 3), (-2, 5)):
        other = tk.Semicharacter((CHI.phases[0] + j[0] / k, CHI.phases[1] + j[1] / k))
        cmp = tk.compare_bundles(torus, CHI, other, k)
        assert cmp.verdict == "isomorphic_power"
        assert all(circ(pa, pb) < 1e-9 for pa, pb in cmp.recovered)


def test_compare_distinct_below_the_grid_threshold():
    """At k = 32 a 0.013 shift of one phase moves the density by far less
    than the series error, so no grid witness exists; the 32nd powers
    still differ by 0.416 turns on the first loop."""
    cmp = tk.compare_bundles(SQ1, CHI, tk.Semicharacter((0.313, 0.1)), 32)
    assert cmp.verdict == "distinct" and cmp.witness is None
    assert abs(circ(*cmp.recovered[0]) - 0.416) < 1e-9


def _config(tmp_path, basis, H):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"n": 1, "basis": basis, "H": [[{"re": H, "im": 0}]],
                                "chi_phases": [0.3, 0.1], "k": 1}))
    return str(path)


def test_non_integral_torus_is_rejected_where_the_cocycle_is_read():
    """rho raised IntegralityViolation on this torus, while hol_closed,
    hol_ode, solve_holonomy and offdiag_bound answered."""
    p = tk.TorusPoint.from_coords(NON_INTEGRAL, (0.25, 0.5))
    target = tk.HolonomyTarget(vectors=((1, 0),), targets=(1.0 + 0j,), k=1)
    calls = {
        "hol_closed": lambda: tk.hol_closed(NON_INTEGRAL, CHI, 1, p, (1, 0)),
        "hol_ode": lambda: tk.hol_ode(NON_INTEGRAL, CHI, 1, p, (1, 0)),
        "solve_holonomy": lambda: tk.solve_holonomy(NON_INTEGRAL, CHI, target),
        "offdiag_bound": lambda: tk.offdiag_bound(NON_INTEGRAL, 1, p, p),
        "compare_bundles": lambda: tk.compare_bundles(NON_INTEGRAL, CHI, CHI, 1),
        "chi_phase_turns": lambda: tk.chi_phase_turns(CHI, NON_INTEGRAL, (1, 0)),
    }
    for call in calls.values():
        with pytest.raises(tk.IntegralityViolation):
            call()


@pytest.mark.parametrize("rho,where", [(tk.rho_diag, (0.25, 0.5)), (tk.rho_grid, 4)],
                         ids=["rho_diag", "rho_grid"])
def test_non_integral_torus_is_rejected_before_the_enumeration(rho, where):
    """About 1.1M lattice points lie within radius 2000, above ENUM_CAP: the
    integrality check comes first, so the error names the torus, not the radius."""
    with pytest.raises(tk.IntegralityViolation):
        rho(NON_INTEGRAL, CHI, 1, where, radius=2000)


@pytest.mark.parametrize("flags", [["hol", "--point", "0.25,0.5", "--vector", "1,0"],
                                   ["offdiag", "--point", "0,0", "--point2", "0.5,0.5"],
                                   ["rho", "--point", "0.25,0.5", "--radius", "2000"]])
def test_non_integral_torus_exits_1_without_traceback(tmp_path, flags):
    cfg = _config(tmp_path, [[1, 0], [0.3, 1.2]], 0.75)
    proc = run_cli([flags[0], "--config", cfg, *flags[1:]])
    assert proc.returncode == 1
    assert "IntegralityViolation" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [
    ["hol", "--vector", "1,0", "--point"], ["offdiag", "--point2", "0.5,0.5", "--point"]])
@pytest.mark.parametrize("far", ["1e3,0", "1e12,0", "1e16,0", "1e300,0"])
def test_far_points_print_what_the_reduced_point_prints(tmp_path, flags, far):
    """hol printed ode_value = nan at 1e3 and hung at 1e12; offdiag printed
    a bound below the true one at 1e17 and 0 at 1e300."""
    cfg = _config(tmp_path, [[1, 0], [0, 1]], 1)
    got = run_cli([flags[0], "--config", cfg, *flags[1:], far])
    want = run_cli([flags[0], "--config", cfg, *flags[1:], "0,0"])
    assert got.returncode == want.returncode == 0
    assert got.stdout == want.stdout and "nan" not in got.stdout
    assert got.stderr == ""


# a value within 1e-20 below an integer, or the least negative float
_BELOW_INT = st.one_of(st.builds(lambda n, d: n - d, st.integers(-3, 3), st.floats(0.0, 1e-20)),
                       st.just(-5e-324))
_EDGE_COORD = st.one_of(_BELOW_INT, st.sampled_from([1e300, -1e300]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c=_EDGE_COORD, phase=_BELOW_INT, t=_EDGE_COORD)
@example(c=-1e-20, phase=-1e-20, t=-1e-20)
@example(c=1e300, phase=-5e-324, t=-5e-324)
def test_reduced_outputs_lie_in_the_unit_interval(c, phase, t):
    """Each value documented as reduced mod 1 lies in [0, 1): a phase of -1e-20 used to be
    kept as 1.0, and the turn -1e-20 of chi = (1e-20, 0) used to give alpha = 1.0."""
    chi = tk.Semicharacter((phase, 0.0))
    p = tk.TorusPoint.from_coords(SQ1, (c, 0.0))
    rows = tk.TorusPoint._from_coord_rows(SQ1, np.array([[c, 0.0]]))[0]
    twist = tk.Semicharacter((-phase, 0.0))        # its loop (1, 0) turns by phase at 0
    reduced = {
        "from_coords": p.coords, "_from_coord_rows": rows.coords, "phases": chi.phases,
        "hol_closed": [tk.hol_closed(SQ1, twist, 1, p, (1, 0)).alpha],
        "hol_ode": [tk.hol_ode(SQ1, twist, 1, p, (1, 0)).alpha],
        "pushforward_fit": [tk.pushforward_fit(SQ1, twist, 1, (1, 0)).phase],
        "recovered": sum(tk.compare_bundles(SQ1, twist, twist, 1, 4).recovered, ()),
        "astar": [tk.CylinderParams(eta=1.0, alpha=0.0, k=1, t=t).astar],
    }
    for name, values in reduced.items():
        assert all(0.0 <= x < 1.0 for x in values), (name, values)


def _cross_torus_routes(torus, chi, p):
    """The holonomy routes, and on an n = 1 torus the density routes, at p."""
    out = {"hol_closed": tk.hol_closed(torus, chi, 2, p, (1,) + (0,) * (2 * torus.n - 1)),
           "hol_ode": tk.hol_ode(torus, chi, 2, p, (1,) + (0,) * (2 * torus.n - 1))}
    if torus.n == 1:
        basis = tk.build_basis(complex(torus.basis[1, 0]), 1, chi, 2)
        out["rho_diag"] = tk.rho_diag(torus, chi, 2, p).value
        out["rho_oracle"] = tk.rho_oracle(basis, tk.build_gram(basis), p)
    return out


@pytest.mark.parametrize("source,target", [(SQ1, SKEW), (PRODUCT, GENERIC)],
                         ids=["sq1-on-skew", "product-on-generic"])
def test_a_point_is_read_by_its_coordinates_on_any_torus(source, target):
    """A point built on another torus of the same dimension is read by its coordinates on
    the torus at hand.  hol_ode and the oracle used to read its source lift, so on the skew
    torus (0.3, 0.6) gave alpha 0.2 against the closed form's 0.1, and rho_oracle 0.20975
    against rho_diag's 0.22448."""
    rng = np.random.default_rng(23)
    chi = tk.Semicharacter(tuple(rng.random(2 * target.n)))
    for x in [(0.3, 0.6, 0.1, 0.8)[:2 * target.n]] + list(rng.random((4, 2 * target.n))):
        p = tk.TorusPoint.from_coords(source, x)
        got = _cross_torus_routes(target, chi, p)
        want = _cross_torus_routes(target, chi, tk.TorusPoint.from_coords(target, p.coords))
        assert _bits([got["hol_closed"].value, got["hol_ode"].value]) == \
            _bits([want["hol_closed"].value, want["hol_ode"].value])
        assert abs(got["hol_closed"].value - got["hol_ode"].value) < 1e-8
        if target.n == 1:
            assert _bits([got["rho_diag"], got["rho_oracle"]]) == \
                _bits([want["rho_diag"], want["rho_oracle"]])
            assert abs(got["rho_oracle"] - got["rho_diag"]) <= 1e-7 * got["rho_diag"]


@pytest.mark.parametrize("torus,phases", [(SKEW, CHI.phases), (PRODUCT, (0.2, 0.7, 0.4, 0.1)),
                                          (GENERIC, (0.11, 0.52, 0.73, 0.29))],
                         ids=["skew", "product", "generic"])
def test_extremum_locations_read_as_their_coordinates(torus, phases):
    """Extremum and predicted points are built in one batch, whose lifts differ from
    ``from_coords`` lifts in the last bits; every route reads the coordinates alone."""
    chi = tk.Semicharacter(phases)
    v = (1,) + (0,) * (2 * torus.n - 1)
    for rep in tk.find_extrema(torus, chi, 2, resolution=16):
        for p in rep.tied_locations + rep.predicted[:8]:
            q = tk.TorusPoint.from_coords(torus, p.coords)
            got, want = tk.hol_ode(torus, chi, 2, p, v), tk.hol_ode(torus, chi, 2, q, v)
            assert _bits(got.value) == _bits(want.value) and got.alpha == want.alpha
            if torus.n == 1:
                assert _bits(tk.rho_oracle(BASIS, GRAM, p)) == _bits(tk.rho_oracle(BASIS, GRAM, q))
