"""Shared fixtures: reference tori and a seeded generator.

SQ1 is the unit square lattice with the standard polarization, D2 the
same lattice with the doubled form, RECT the 1 x 2i rectangle, SKEW a
generic-looking period 0.3 + 1.2i.  Everything numeric in the suite
draws randomness from one seeded Generator per test via the rng
fixture, so failures replay exactly.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import toruskernel as tk

SEED = 20250817


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def sq1():
    return tk.standard_torus(1j, 1)


@pytest.fixture
def d2():
    return tk.standard_torus(1j, 2)


@pytest.fixture
def rect():
    # basis (1, 2i) with H = 1: Pfaffian 2, one short axis
    return tk.standard_torus(2j, 2)


@pytest.fixture
def skew():
    return tk.standard_torus(0.3 + 1.2j, 1)


@pytest.fixture
def chi0():
    return tk.Semicharacter.trivial(1)


def random_torus(rng):
    # tau kept away from the real axis so conditioning stays tame
    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
    d = int(rng.integers(1, 4))
    return tk.standard_torus(tau, d)


def random_chi(rng, n=1):
    return tk.Semicharacter(tuple(rng.random(2 * n)))


def run_python(args, timeout=60, cwd=None):
    """Python with ``args`` in a fresh interpreter on this source tree, so a
    hang shows as a timeout and a traceback as stderr text."""
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env, cwd=cwd)


def run_cli(argv):
    """The CLI with ``argv`` through ``run_python``."""
    return run_python(["-m", "toruskernel", *argv])


def brute_rho(torus, chi, k, coords, radius):
    """Direct double-loop density evaluation (n = 1, radius <= 12),
    independent of the library enumeration and vectorization paths."""
    import math

    scale = (k / (2 * math.pi)) ** torus.n
    total = 1.0
    m = int(math.ceil(radius / math.sqrt(2 * math.pi))) + 3
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            if a == 0 and b == 0:
                continue
            c = np.array([a, b])
            ell = torus.length_of(torus.embed(c))
            if ell > radius:
                continue
            hol = tk.hol_closed(torus, chi, k, tk.TorusPoint.from_coords(torus, np.asarray(coords)), c)
            total += math.exp(-(k / 4.0) * ell ** 2) * hol.value.real
    return scale * total


# -- truncation audit ------------------------------------------------------
# Every series preparation anywhere in the suite has its certificate
# checked on the spot: the true loop mass beyond the truncation radius
# (enumerated out to R + 10) must sit below the packing tail bound that
# the result reports.  Each distinct (lattice, k, radius) combination is
# audited once; a violation fails the calling test immediately.  Every
# prepared sum built is counted too, so that one built past the audited
# wrapper fails the session.

import math as _math

import toruskernel.extrema as _extrema
import toruskernel.kernel as _kernel

TRUNCATION_AUDIT = {"calls": 0, "built": 0, "checked": 0, "violations": []}
_audited_keys = set()
_real_prepare = _kernel._prepare
_real_init = _kernel._PreparedSum.__init__


def _counted_init(self, *args, **kwargs):
    _real_init(self, *args, **kwargs)
    TRUNCATION_AUDIT["built"] += 1


def _audited_prepare(torus, chi, k, *args, **kwargs):
    prep = _real_prepare(torus, chi, k, *args, **kwargs)
    TRUNCATION_AUDIT["calls"] += 1
    key = (torus.basis.tobytes(), torus.gram.tobytes(), int(k),
           round(float(prep.radius), 9))
    if key not in _audited_keys:
        _audited_keys.add(key)
        TRUNCATION_AUDIT["checked"] += 1
        vecs = tk.enumerate_within(torus, prep.radius + 10.0)
        mass = sum(_math.exp(-0.25 * k * v.length ** 2)
                   for v in vecs if v.length > prep.radius)
        if mass > prep.tail:
            TRUNCATION_AUDIT["violations"].append((prep.radius, k, mass, prep.tail))
            raise AssertionError(
                f"truncation certificate violated: brute tail {mass:.3e} exceeds "
                f"bound {prep.tail:.3e} at radius {prep.radius:.6g}, k = {k}"
            )
    return prep


_kernel._PreparedSum.__init__ = _counted_init
_kernel._prepare = _audited_prepare
_extrema._prepare = _audited_prepare


def pytest_sessionfinish(session, exitstatus):
    """Fail a session that built a prepared sum outside the audited wrapper:
    its certificate went unchecked.  A session that built none passes."""
    unaudited = TRUNCATION_AUDIT["built"] - TRUNCATION_AUDIT["calls"]
    if unaudited > 0:
        writer = session.config.get_terminal_writer()
        writer.line()
        writer.line(
            f"FAILED truncation audit: {unaudited} prepared sums were built past the "
            "audited _prepare wrapper", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
