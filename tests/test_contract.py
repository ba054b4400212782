"""The argument contract: every count is an integer (Python or numpy, not a
bool) of at least its minimum, every real input is finite, and every bad
input ends in ValidationError, never a TypeError, a ZeroDivisionError or
a returned value."""

import inspect
import math

import numpy as np
import pytest

import toruskernel as tk

SQ1 = tk.standard_torus(1j, 1)
CHI = tk.Semicharacter((0.3, 0.0))
P = tk.TorusPoint.from_coords(SQ1, (0.25, 0.5))
BASIS = tk.build_basis(1j, 1, CHI, 1)


def _target(k):
    return tk.HolonomyTarget(vectors=((1, 0),), targets=(1.0 + 0j,), k=k)


# (call, count argument, least value, a valid value, the call with that argument set)
COUNTS = [
    ("rho_diag", "k", 1, 2, lambda v: tk.rho_diag(SQ1, CHI, v, P)),
    ("rho_grid", "resolution", 2, 4, lambda v: tk.rho_grid(SQ1, CHI, 1, v)),
    ("integral_check", "resolution", 8, 32, lambda v: tk.integral_check(SQ1, CHI, 1, v)),
    ("find_extrema", "resolution", 16, 16, lambda v: tk.find_extrema(SQ1, CHI, 1, v)),
    ("compare_bundles", "resolution", 2, 4,
     lambda v: tk.compare_bundles(SQ1, CHI, CHI, 1, v)),
    ("build_gram", "quad_res", 8, 16, lambda v: tk.build_gram(BASIS, v)),
    ("hol_ode", "steps", 1, 200, lambda v: tk.hol_ode(SQ1, CHI, 1, P, (1, 0), steps=v)),
    ("hol_ode", "k", 1, 2, lambda v: tk.hol_ode(SQ1, CHI, v, P, (1, 0))),
    ("hol_closed", "k", 1, 2, lambda v: tk.hol_closed(SQ1, CHI, v, P, (1, 0))),
    ("automorphy_factor", "k", 1, 2,
     lambda v: tk.automorphy_factor(SQ1, CHI, v, (1, 0), [0.1j])),
    ("solve_holonomy", "target.k", 1, 2, lambda v: tk.solve_holonomy(SQ1, CHI, _target(v))),
    ("solve_holonomy", "mesh", 1, 4,
     lambda v: tk.solve_holonomy(SQ1, CHI, _target(1), mesh=v)),
    ("build_basis", "k", 1, 2, lambda v: tk.build_basis(1j, 1, CHI, v)),
    ("build_basis", "d", 1, 2, lambda v: tk.build_basis(1j, v, CHI, 1)),
    ("CylinderParams", "k", 1, 2, lambda v: tk.CylinderParams(eta=1.0, alpha=0.25, k=v)),
    ("CylinderParams", "n", 1, 2,
     lambda v: tk.CylinderParams(eta=1.0, alpha=0.25, k=1, n=v)),
    ("PolarizedTorus", "n", 1, 1, lambda v: tk.PolarizedTorus(n=v, basis=SQ1.basis, H=SQ1.H)),
]
IDS = [f"{call}-{arg}" for call, arg, *_ in COUNTS]


@pytest.mark.parametrize("kind", ["below", "float", "fraction", "bool"])
@pytest.mark.parametrize("call,arg,least,ok,run", COUNTS, ids=IDS)
def test_bad_count_is_a_validation_error(call, arg, least, ok, run, kind):
    value = {"below": least - 1, "float": float(least), "fraction": least + 0.5,
             "bool": True}[kind]
    with pytest.raises(tk.ValidationError, match=arg.split(".")[-1]):
        run(value)


@pytest.mark.parametrize("call,arg,least,ok,run", COUNTS, ids=IDS)
def test_integer_counts_are_accepted(call, arg, least, ok, run):
    """The least value passes the contract, though the computation may
    then fail on its own terms (1 step); a valid numpy integer runs
    through."""
    try:
        run(least)
    except tk.NumericError:
        pass
    run(np.int64(ok))


def test_float_step_count_is_a_validation_error():
    """steps=2000.0 used to end in a TypeError from range."""
    for steps in (2000.0, 2000.5):
        with pytest.raises(tk.ValidationError):
            tk.hol_ode(SQ1, CHI, 1, P, (1, 0), steps=steps)
    with pytest.raises(tk.StepCountTooSmall):
        tk.hol_ode(SQ1, CHI, 1, P, (1, 0), steps=99)


@pytest.mark.parametrize("field", ["eta", "alpha", "t"])
def test_cylinder_rejects_nan(field):
    kwargs = dict(eta=1.0, alpha=0.25, k=1, t=0.0)
    kwargs[field] = math.nan
    with pytest.raises(tk.ValidationError):
        tk.CylinderParams(**kwargs)


@pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(0.3, math.nan),
                                 complex(math.inf, 1.0), 1.0 + 0j, 0.3 - 1j])
def test_standard_torus_rejects_bad_tau(tau):
    with pytest.raises(tk.ValidationError):
        tk.standard_torus(tau, 1)


@pytest.mark.parametrize("make", [
    lambda: tk.standard_torus(1j, math.nan), lambda: tk.standard_torus(1j, math.inf),
    lambda: tk.PolarizedTorus(n=1, basis=[[1.0], [complex(0.0, math.inf)]], H=[[1.0]]),
    lambda: tk.PolarizedTorus(n=1, basis=[[1.0], [1j]], H=[[complex(math.nan, 0.0)]]),
], ids=["d-nan", "d-inf", "basis-inf", "H-nan"])
def test_non_finite_torus_data_is_a_validation_error(make):
    """These made validate report pfaffian_abs = 2**63 and volume = nan, and rho end in an
    IndexError from the shortest loop length."""
    with pytest.raises(tk.ValidationError, match="finite"):
        make()


def test_wrong_length_points_and_vectors():
    """Used to end in numpy's reshape ValueError or a bare ValueError."""
    with pytest.raises(tk.ValidationError):
        tk.rho_diag(SQ1, CHI, 1, [0.1, 0.2, 0.3])
    with pytest.raises(tk.ValidationError):
        tk.TorusPoint.from_coords(SQ1, (0.1, 0.2, 0.3))
    with pytest.raises(tk.ValidationError):
        tk.TorusPoint.from_lift(SQ1, [0.1, 0.2])
    with pytest.raises(tk.ValidationError):
        tk.hol_closed(SQ1, CHI, 1, P, (1, 0, 0))
    with pytest.raises(tk.ValidationError):
        tk.LatticeVector.from_coords(SQ1, (1,))
    for coords in ((1, 0, 1), [[[1, 0]]], ()):
        with pytest.raises(tk.ValidationError, match="length"):
            tk.chi_phase_turns(CHI, SQ1, coords)
        with pytest.raises(tk.ValidationError, match="length"):
            tk.automorphy_factor(SQ1, CHI, 1, coords, [0.1j])
    # a wrong-shape basis or H, a ragged one, or a string entry (a bare TypeError)
    for basis, H in (([[1]], [[1]]), ([[1], [1j]], [[1, 0]]), ([[1], [1j, 2]], [[1]]),
                     ([[1], [1j]], [["x"]])):
        with pytest.raises(tk.ValidationError, match="basis and H"):
            tk.PolarizedTorus(n=1, basis=basis, H=H)


_PRODUCT = tk.product_torus(SQ1, tk.standard_torus(0.3 + 1.2j, 1))
_CHI2 = tk.Semicharacter.trivial(2)
_P2 = tk.TorusPoint.from_coords(_PRODUCT, (0.3, 0.6, 0.1, 0.2))
_V1 = tk.LatticeVector.from_coords(SQ1, (1, 0))
_GRAM = tk.build_gram(BASIS)

# (call, the call on a point or loop made on a torus of another dimension)
FOREIGN_CALLS = [
    ("rho_diag", lambda: tk.rho_diag(_PRODUCT, _CHI2, 1, P)),
    ("rho_gradient", lambda: tk.rho_gradient(_PRODUCT, _CHI2, 1, P)),
    ("hol_closed", lambda: tk.hol_closed(_PRODUCT, _CHI2, 1, _P2, _V1)),
    ("hol_ode", lambda: tk.hol_ode(_PRODUCT, _CHI2, 1, _P2, _V1)),
    ("pushforward_fit", lambda: tk.pushforward_fit(_PRODUCT, _CHI2, 1, _V1)),
    ("solve_holonomy", lambda: tk.solve_holonomy(_PRODUCT, _CHI2, tk.HolonomyTarget(
        vectors=(_V1,), targets=(1.0 + 0j,), k=1))),
    ("offdiag_bound", lambda: tk.offdiag_bound(_PRODUCT, 1, P, _P2)),
    ("rho_oracle", lambda: tk.rho_oracle(BASIS, _GRAM, _P2)),
    ("offdiag_oracle", lambda: tk.offdiag_oracle(BASIS, _GRAM, P, _P2)),
]


@pytest.mark.parametrize("call,run", FOREIGN_CALLS, ids=[c for c, _ in FOREIGN_CALLS])
def test_point_or_loop_of_another_torus_is_a_validation_error(call, run):
    """A TorusPoint or LatticeVector passed through whatever torus built it:
    these ended in numpy's ValueError or an IndexError, and the oracles read
    an n = 2 point's first lift entry and answered."""
    with pytest.raises(tk.ValidationError, match="length"):
        run()


# (call, the loop-vector argument set to v)
LOOP_VECTOR_CALLS = [
    ("hol_closed", lambda v: tk.hol_closed(SQ1, CHI, 1, P, v)),
    ("hol_ode", lambda v: tk.hol_ode(SQ1, CHI, 1, P, v)),
    ("solve_holonomy", lambda v: tk.solve_holonomy(SQ1, CHI, tk.HolonomyTarget(
        vectors=((1, 0), v), targets=(1.0 + 0j, 1.0 + 0j), k=1))),
    ("pushforward_fit", lambda v: tk.pushforward_fit(SQ1, CHI, 1, v)),
    ("chi_phase_turns", lambda v: tk.chi_phase_turns(CHI, SQ1, v)),
    ("automorphy_factor", lambda v: tk.automorphy_factor(SQ1, CHI, 1, v, [0.1j])),
]


@pytest.mark.parametrize("call,run", LOOP_VECTOR_CALLS, ids=[c for c, _ in LOOP_VECTOR_CALLS])
def test_non_integral_loop_vector_is_a_validation_error(call, run):
    """(0.5, 1.7) used to be truncated to (0, 1) and answered for that
    loop, 2**70 ended in a bare OverflowError, and 2**63 and 1e30 wrapped
    round to -2**63; an integral float such as 1.0 is still a loop coordinate."""
    for v in ((0.5, 1.7), (math.nan, 1), (math.inf, 0), (1, 1e-9), np.array([0.5, 1], dtype=object),
              (2 ** 70, 0), (2 ** 63, 0), (-2 ** 63 - 1, 0), (1e30, 0), (1j, 0)):
        with pytest.raises(tk.ValidationError, match="integers"):
            run(v)
    run((0.0, 1.0))
    run(np.array([0, 1], dtype=np.int32))


# (call, keyword arguments that no caller set and that are now gone)
REMOVED_KEYWORDS = [
    (tk.rho_diag, "cap"), (tk.rho_grid, "cap"), (tk.offdiag_bound, "cap"),
    (tk.pushforward_fit, "samples"), (tk.pushforward_recover, "samples"),
    (tk.compare_bundles, "samples"), (tk.pushforward_fit, "eps"),
]


@pytest.mark.parametrize("call,name", REMOVED_KEYWORDS,
                         ids=[f"{c.__name__}-{n}" for c, n in REMOVED_KEYWORDS])
def test_removed_keywords_are_gone(call, name):
    assert name not in inspect.signature(call).parameters


# public helpers that no code read, and the functions their tests moved onto
REMOVED_NAMES = ["rotation_to_cylinder_axis", "alpha_series_coeff", "torus_distance", "chi_eval"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_gone(name):
    assert not hasattr(tk, name)
    assert name not in tk.__all__
