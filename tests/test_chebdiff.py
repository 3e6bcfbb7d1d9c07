"""Differentiation matrices, quadrature weights, and boundary reductions."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.linalg import eig

import shearstab as ss
from shearstab.chebdiff import (
    _chebdif,
    _clencurt,
    _derivative,
    _derivative_t,
    _resample,
    clamped_reduce,
)


def test_nodes_descend_from_one_to_minus_one(grid32):
    x = grid32.nodes
    assert x[0] == 1.0
    assert x[-1] == -1.0
    assert np.all(np.diff(x) < 0)
    assert len(x) == 33


def test_nodes_match_cosine_formula(grid32):
    k = np.arange(33)
    expected = np.cos(np.pi * k / 32)
    np.testing.assert_allclose(grid32.nodes, expected, atol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrices_exact_on_polynomials(order):
    grid = ss.build_grid(16)
    x = grid.nodes
    mats = {1: grid.d1, 2: grid.d2, 3: _chebdif(16, 3)[1][2], 4: grid.d4}
    for deg in range(0, 11):
        coeffs = np.zeros(deg + 1)
        coeffs[0] = 1.0
        poly = np.polynomial.polynomial.Polynomial(coeffs[::-1].copy())
        poly = np.polynomial.polynomial.Polynomial([0.0] * deg + [1.0])
        vals = poly(x)
        deriv = poly.deriv(order)(x)
        got = mats[order] @ vals
        assert np.max(np.abs(got - deriv)) < 1e-8 * max(1.0, np.max(np.abs(deriv)))


def test_second_derivative_matches_squared_first(grid32):
    err = np.max(np.abs(grid32.d2 - grid32.d1 @ grid32.d1))
    assert err < 1e-8


def test_derivative_of_exponential(grid32):
    x = grid32.nodes
    err = np.max(np.abs(grid32.d1 @ np.exp(x) - np.exp(x)))
    assert err < 1e-12


def test_weights_sum_to_interval_length(grid64):
    assert abs(np.sum(grid64.weights) - 2.0) < 1e-14


def test_weights_integrate_even_powers(grid64):
    x = grid64.nodes
    assert abs(np.sum(grid64.weights * x**2) - 2.0 / 3.0) < 1e-14
    assert abs(np.sum(grid64.weights * x**4) - 2.0 / 5.0) < 1e-14


def test_weights_integrate_exponential(grid64):
    x = grid64.nodes
    exact = math.e - 1.0 / math.e
    assert abs(np.sum(grid64.weights * np.exp(x)) - exact) < 1e-13


def _reference_clencurt(n_deg):
    """Clenshaw-Curtis weights as an O(n^2) sum of cosines, one per even
    Chebyshev moment."""
    th_i = np.pi * np.arange(1, n_deg) / n_deg
    w = np.zeros(n_deg + 1)
    v = np.ones(n_deg - 1)
    for kk in range(1, (n_deg + 1) // 2):
        v -= 2.0 * np.cos(2 * kk * th_i) / (4 * kk**2 - 1)
    if n_deg % 2 == 0:
        w[0] = w[-1] = 1.0 / (n_deg**2 - 1)
        v -= np.cos(n_deg * th_i) / (n_deg**2 - 1)
    else:
        w[0] = w[-1] = 1.0 / n_deg**2
    w[1:-1] = 2.0 * v / n_deg
    return w


@pytest.mark.parametrize("n", [8, 9, 87, 127, 862, 1723, 1724, 2048])
def test_weights_match_the_cosine_sum(n):
    want = _reference_clencurt(n)
    np.testing.assert_allclose(_clencurt(n), want, rtol=3e-13, atol=0.0)


@pytest.mark.parametrize("n", [9, 127, 1724])
def test_weights_integrate_every_chebyshev_polynomial_up_to_the_degree(n):
    # T_k(x_j) = cos(pi k j / n); the integral of T_k is 2 / (1 - k^2) for
    # even k and 0 for odd k
    k = np.arange(n + 1)
    t_k = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n)
    exact = np.zeros(n + 1)
    exact[::2] = 2.0 / (1.0 - k[::2] ** 2)
    assert np.max(np.abs(t_k @ _clencurt(n) - exact)) < 1e-13


@pytest.mark.parametrize("n, end", [(1724, 1.0 / (1724**2 - 1)), (127, 1.0 / 127**2)])
def test_end_weights_take_the_closed_form(n, end):
    w = _clencurt(n)
    assert w[0] == end and w[-1] == end


def test_dirichlet_laplacian_eigenvalues(grid64):
    # -u'' = lam u, u(+-1) = 0 has eigenvalues (k pi / 2)^2.
    interior = -grid64.d2[1:-1, 1:-1]
    vals = np.sort(np.linalg.eigvals(interior).real)
    for k in range(1, 6):
        exact = (k * math.pi / 2.0) ** 2
        assert abs(vals[k - 1] - exact) < 1e-10 * exact


def test_clamped_reduce_rows(grid32):
    mat = np.random.default_rng(0).normal(size=(33, 33))
    bordered, bc_rows = clamped_reduce(mat, grid32)
    assert bordered.shape == (33, 33)
    assert bc_rows.dtype == bool
    assert list(np.flatnonzero(bc_rows)) == [0, 1, 31, 32]
    # Value rows pick out the wall samples, derivative rows the wall slopes.
    e_first = np.zeros(33)
    e_first[0] = 1.0
    e_last = np.zeros(33)
    e_last[-1] = 1.0
    np.testing.assert_array_equal(bordered[0].real, e_first)
    np.testing.assert_array_equal(bordered[-1].real, e_last)
    np.testing.assert_array_equal(bordered[1].real, grid32.d1[0])
    np.testing.assert_array_equal(bordered[-2].real, grid32.d1[-1])
    # Interior rows carry the original operator.
    np.testing.assert_array_equal(bordered[2:-2].real, mat[2:-2])


def test_clamped_beam_eigenvalue(grid64):
    # u'''' = lam u with u(+-1) = u'(+-1) = 0.  The exact eigenvalues are
    # k^4 where cos(2k) cosh(2k) = 1; the first root is found independently
    # by bisection and compared against the generalized eigenproblem of the
    # bordered matrix (mass matrix zero on constraint rows).
    k1 = brentq(lambda k: math.cos(2 * k) * math.cosh(2 * k) - 1.0, 2.0, 2.5, xtol=1e-14)
    exact = k1**4
    bordered, bc_rows = clamped_reduce(grid64.d4.astype(complex), grid64)
    mass = np.diag((~bc_rows).astype(float))
    vals = eig(bordered, mass, right=False)
    finite = vals[np.isfinite(vals)]
    finite = finite[np.abs(finite.imag) < 1e-6 * np.maximum(1.0, np.abs(finite.real))]
    smallest = np.min(finite.real[finite.real > 1.0])
    assert abs(smallest - exact) < 1e-8 * exact


def test_build_grid_caches(grid64):
    assert ss.build_grid(64) is grid64


def test_grid_arrays_are_read_only(grid64):
    for arr in (grid64.nodes, grid64.weights, grid64.d1, grid64.d2, grid64.d4):
        assert not arr.flags.writeable


def test_grid_matrices_are_built_once_on_first_access():
    # a degree no other test builds, so the cached grid is fresh here
    n = 211
    grid = ss.build_grid(n)
    assert grid._mats == []
    with ThreadPoolExecutor(max_workers=2) as pool:
        firsts = list(pool.map(lambda name: getattr(grid, name), ["d4", "d1"]))
    assert firsts[0] is grid.d4 and firsts[1] is grid.d1
    _, want = _chebdif(n, 4, keep=(1, 2, 4))
    for got, ref in zip((grid.d1, grid.d2, grid.d4), want):
        assert np.array_equal(got, ref)
        assert not got.flags.writeable


@pytest.mark.parametrize("bad", [7, 2049, 0, -4])
def test_build_grid_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        ss.build_grid(bad)


@pytest.mark.parametrize("n", [80, 87, 173, 862, 1724])
def test_dct_derivative_and_transpose_match_d1(n):
    # random data: no smoothness to hide behind
    grid = ss.build_grid(n)
    rng = np.random.default_rng(n)
    for shape in [(n + 1,), (n + 1, 3)]:
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pairs = ((_derivative(f), grid.d1 @ f), (_derivative_t(f), grid.d1.T @ f))
        for fast, dense in pairs:
            assert fast.shape == dense.shape
            assert np.linalg.norm(fast - dense) <= 1e-13 * np.linalg.norm(dense)
    real = rng.standard_normal(n + 1)
    assert np.isrealobj(_derivative(real)) and np.isrealobj(_derivative_t(real))
    dense = grid.d1 @ real
    assert np.linalg.norm(_derivative(real) - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("n", [9, 64])
def test_resample_interpolates_through_chebyshev_coefficients(n):
    def poly(x):
        return 3.0 * x**7 - x**4 + 0.5 * x - 2.0

    up = _resample(poly(ss.build_grid(n).nodes), 2 * n)
    np.testing.assert_allclose(up, poly(ss.build_grid(2 * n).nodes), atol=1e-13)
    # resampling down truncates; a degree-7 polynomial survives it
    np.testing.assert_allclose(_resample(up, n), poly(ss.build_grid(n).nodes), atol=1e-13)


def _reference_chebdif(n_deg, m_max):
    """The whole-matrix construction: full sine products, flip, toeplitz."""
    from scipy.linalg import toeplitz

    n = n_deg + 1
    k = np.arange(n)
    th = k * np.pi / n_deg
    x = np.sin(np.pi * (n_deg - 2 * k) / (2 * n_deg))
    h = th / 2
    dx = 2 * np.sin(h[:, None] + h[None, :]) * np.sin(h[None, :] - h[:, None])
    n_half, n_ceil = n // 2, (n + 1) // 2
    dx = np.vstack((dx[:n_half], -np.flipud(np.fliplr(dx[:n_ceil]))))
    dx[k, k] = 1.0
    c = toeplitz((-1.0) ** k)
    c[0, :] *= 2.0
    c[-1, :] *= 2.0
    c[:, 0] *= 0.5
    c[:, -1] *= 0.5
    z = 1.0 / dx
    z[k, k] = 0.0
    d = np.eye(n)
    mats = []
    for ell in range(1, m_max + 1):
        d = ell * z * (c * np.diag(d)[:, None] - d)
        d[k, k] = -d.sum(axis=1)
        mats.append(d)
    return x, mats


@pytest.mark.parametrize("n", [8, 9, 40, 63, 64, 87, 127, 174, 372, 862])
def test_row_blocked_chebdif_is_bit_identical_to_whole_matrix(n):
    x_ref, ref = _reference_chebdif(n, 4)
    x, mats = _chebdif(n, 4)
    assert np.array_equal(x, x_ref)
    for mat, want in zip(mats, ref):
        assert np.array_equal(mat, want)
    _, kept = _chebdif(n, 4, keep=(4, 1, 2))
    for mat, want in zip(kept, (ref[0], ref[1], ref[3])):
        assert np.array_equal(mat, want)
    grid = ss.build_grid(n)
    for name, want in (("nodes", x_ref), ("d1", ref[0]), ("d2", ref[1]), ("d4", ref[3])):
        assert np.array_equal(getattr(grid, name), want), name
