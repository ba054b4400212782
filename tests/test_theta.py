"""Section-basis oracle: construction checks, Gram matrix, density match."""

import math
import tracemalloc

import numpy as np
import pytest

import toruskernel as tk

from conftest import random_chi

TWO_PI = 2 * math.pi


def test_basis_dimension_is_section_count(chi0):
    for tau, d, k in ((1j, 1, 1), (1j, 1, 3), (1j, 2, 2), (0.3 + 1.2j, 1, 2)):
        basis = tk.build_basis(tau, d, chi0, k)
        assert basis.N == k * d
        vals = basis.evaluate(0.1 + 0.2j)
        assert vals.shape == (k * d,)
        assert np.all(np.isfinite(vals))


def test_build_verifies_functional_equation(rng, chi0):
    # construction self-checks; reaching here means the residuals passed
    for tau in (1j, 0.3 + 1.2j):
        tk.build_basis(tau, 1, chi0, 2)
        tk.build_basis(tau, 2, random_chi(rng), 1)


def test_cutoff_guard(chi0):
    with pytest.raises(tk.CutoffTooSmall):
        tk.build_basis(1j, 1, chi0, 3, cutoff=1)


def test_gram_structure(rng, chi0):
    basis = tk.build_basis(1j, 2, random_chi(rng), 2)
    gram = tk.build_gram(basis)
    G = gram.matrix
    assert np.allclose(G, G.conj().T, rtol=0, atol=1e-14)
    eig = np.linalg.eigvalsh(G)
    assert np.all(eig > 0)
    assert gram.rel_change < 1e-12
    assert gram.cond < 1e6
    assert np.allclose(G @ gram.inverse, np.eye(basis.N), atol=1e-12)


def test_gram_rejects_coarse_quadrature(chi0):
    basis = tk.build_basis(1j, 1, chi0, 1)
    for quad_res in (4, 64.0, True):
        with pytest.raises(tk.ValidationError):
            tk.build_gram(basis, quad_res=quad_res)


def _pointwise_gram_at(basis, res):
    """The former quadrature: every term exponentiated at every node."""
    c1, c2 = np.meshgrid(np.arange(res) / res, np.arange(res) / res, indexing="ij")
    z = (c1 + c2 * basis.tau).reshape(-1)
    vals = basis.evaluate(z)                       # (N, P)
    w = basis.weight(z)
    vol_factor = TWO_PI * (basis.d / basis.tau.imag) * basis.tau.imag / z.size
    G = vol_factor * (vals * w) @ vals.conj().T
    return 0.5 * (G + G.conj().T)


def _pointwise_gram(basis, res):
    """build_gram's post-processing on the pointwise quadrature."""
    G = _pointwise_gram_at(basis, res)
    scale = float(np.max(np.abs(G)))
    rel_change = float(np.max(np.abs(G - _pointwise_gram_at(basis, res // 2)))) / scale
    d = 1.0 / np.sqrt(np.abs(np.diag(G)))
    B = G * np.outer(d, d)
    return tk.GramMatrix(matrix=G, inverse=np.linalg.inv(B) * np.outer(d, d), quad_res=res,
                         rel_change=rel_change, cond=float(np.linalg.cond(B)))


_GRAM_TAUS = (1j, 2j, 0.3 + 1.2j, -0.2 + 0.9j)


@pytest.mark.parametrize("tau", _GRAM_TAUS, ids=[str(t) for t in _GRAM_TAUS])
def test_separable_gram_matches_pointwise_quadrature(tau):
    """The phase/magnitude split is the same trapezoid rule: entries,
    rel_change and the condition number agree with the pointwise
    quadrature at even and odd resolutions, and so do the oracles."""
    chi = tk.Semicharacter((0.37, 0.61))
    for d in (1, 2, 3):
        for k in (1, 2, 3, 4):
            basis = tk.build_basis(tau, d, chi, k)
            for res in (8, 9, 16, 128):
                ref = _pointwise_gram(basis, res)
                gram = tk.build_gram(basis, quad_res=res)
                scale = np.max(np.abs(ref.matrix))
                assert np.max(np.abs(gram.matrix - ref.matrix)) <= 1e-13 * scale
                assert abs(gram.rel_change - ref.rel_change) <= 1e-13
                assert abs(gram.cond - ref.cond) <= 1e-9 * ref.cond
                if res == 128:
                    x, y = (tk.TorusPoint.from_coords(basis.torus, np.array(c))
                            for c in ((0.23, 0.71), (0.64, 0.08)))
                    for a, b in ((tk.rho_oracle(basis, gram, x), tk.rho_oracle(basis, ref, x)),
                                 (tk.offdiag_oracle(basis, gram, x, y),
                                  tk.offdiag_oracle(basis, ref, x, y))):
                        assert abs(a - b) <= 1e-13 * abs(b)


def test_gram_memory_is_one_node_table(chi0):
    """N = 12 at quad_res 128 holds node-sized arrays, not a
    (sections, terms, nodes) tensor."""
    basis = tk.build_basis(1j, 3, chi0, 4)
    tk.build_gram(basis, quad_res=16)
    tracemalloc.start()
    try:
        tk.build_gram(basis, quad_res=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_batched_automorphy_factor_matches_pointwise(rng):
    """A (P, n) z gives the per-point multipliers, up to the rounding of
    an exponent of size ~30; an (n,) z gives a complex."""
    z = np.array([[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, 0.1 + 0.9j]])
    surface = tk.PolarizedTorus(n=2, basis=np.vstack([np.eye(2), z.T]), H=np.linalg.inv(z.imag))
    for torus in (tk.standard_torus(0.3 + 1.2j, 2), surface):
        chi = random_chi(rng, torus.n)
        pts = rng.normal(size=(9, torus.n)) + 1j * rng.normal(size=(9, torus.n))
        for k, coords in ((1, [1] + [0] * (2 * torus.n - 1)), (3, list(range(1, 2 * torus.n + 1)))):
            batch = tk.automorphy_factor(torus, chi, k, coords, pts)
            single = [tk.automorphy_factor(torus, chi, k, coords, p) for p in pts]
            assert batch.shape == (9,)
            assert all(isinstance(a, complex) for a in single)
            assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-13


def test_oracle_matches_loop_sum(rng, chi0):
    """Independent routes to the same density, three bundle shapes."""
    for tau, d, chi in ((1j, 1, chi0), (1j, 2, chi0), (0.3 + 1.2j, 1, random_chi(rng))):
        torus = tk.standard_torus(tau, d)
        for k in (1, 2):
            basis = tk.build_basis(tau, d, chi, k)
            gram = tk.build_gram(basis)
            for _ in range(5):
                p = tk.TorusPoint.from_coords(torus, rng.random(2))
                a = tk.rho_diag(torus, chi, k, p, eps=1e-12).value
                b = tk.rho_oracle(basis, gram, p)
                assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_oracle_integrates_to_section_count(chi0):
    basis = tk.build_basis(1j, 1, chi0, 1)
    gram = tk.build_gram(basis)
    torus = basis.torus
    res = 24
    vals = [tk.rho_oracle(basis, gram, tk.TorusPoint.from_coords(torus, np.array([i / res, j / res])))
            for i in range(res) for j in range(res)]
    assert abs(float(np.mean(vals)) * torus.volume() - basis.N) < 1e-10


def test_oracle_vanishes_at_half_period(chi0):
    """The lone k = 1 section has its zero at the half period."""
    basis = tk.build_basis(1j, 1, chi0, 1)
    gram = tk.build_gram(basis)
    half = tk.TorusPoint.from_coords(basis.torus, np.array([0.5, 0.5]))
    assert tk.rho_oracle(basis, gram, half) < 1e-16


def test_offdiag_oracle_diagonal_consistency(rng, chi0):
    basis = tk.build_basis(1j, 1, chi0, 2)
    gram = tk.build_gram(basis)
    for _ in range(4):
        p = tk.TorusPoint.from_coords(basis.torus, rng.random(2))
        d = tk.offdiag_oracle(basis, gram, p, p)
        r = tk.rho_oracle(basis, gram, p)
        assert abs(d - r) < 1e-12 * max(1.0, r)


def test_offdiag_oracle_below_bound(rng, chi0):
    """The translate-sum bound must majorize the true off-diagonal kernel."""
    for tau, d in ((1j, 1), (1j, 2)):
        torus = tk.standard_torus(tau, d)
        for k in (1, 2):
            basis = tk.build_basis(tau, d, chi0, k)
            gram = tk.build_gram(basis)
            for _ in range(8):
                x = tk.TorusPoint.from_coords(torus, rng.random(2))
                y = tk.TorusPoint.from_coords(torus, rng.random(2))
                val = tk.offdiag_oracle(basis, gram, x, y)
                bound = tk.offdiag_bound(torus, k, x, y)
                allowance = bound.density_halfwidth(torus.n, k)
                assert val <= bound.value + allowance + 1e-13
