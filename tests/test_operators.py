"""Operator assembly: certificate potential, advective and fourth-order forms."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import shearstab as ss
from shearstab.chebdiff import clamped_reduce
from shearstab.operators import InflectionError, certificate_potential
from shearstab.spectral import ladder_start


def test_certificate_potential_cubic_closed_form(cubic01):
    # U = x + a x^3 about the inflection value 0: U''/(U - 0) = 6a/(1 + a x^2).
    x = np.linspace(-1, 1, 41)
    got = certificate_potential(cubic01, 0.0, x)
    exact = 0.6 / (1 + 0.1 * x**2)
    np.testing.assert_allclose(got, exact, rtol=1e-12)


def test_certificate_potential_tanh_closed_form(tanh1):
    # U = tanh(Kx)/tanh(K) about 0: U''/U = -2 K^2 sech^2(Kx).
    x = np.linspace(-1, 1, 41)
    got = certificate_potential(tanh1, 0.0, x)
    exact = -2.0 / np.cosh(x) ** 2
    np.testing.assert_allclose(got, exact, rtol=1e-12)


def test_certificate_potential_taylor_window_matches_mpmath(cubic01):
    # Inside the singular window the ratio switches to a Taylor form; compare
    # both branches against 40-digit evaluation of U''/(U - nu).
    mpmath.mp.dps = 40
    a = mpmath.mpf("0.1")
    u = lambda t: t + a * t**3
    u2 = lambda t: 6 * a * t
    for dx in (1e-7, 5e-6, 5e-5, 2e-4, 1e-3):
        x = np.array([dx])
        got = float(certificate_potential(cubic01, 0.0, x)[0])
        t = mpmath.mpf(dx)
        exact = float(u2(t) / u(t))
        # the in-window branch is a first-order expansion about the
        # crossing, so allow a quadratic error term there
        tol = 1e-12 + dx**2
        assert abs(got - exact) <= tol * max(1.0, abs(exact)), dx


def test_certificate_potential_rejects_non_inflection_value(cubic01):
    with pytest.raises(InflectionError):
        certificate_potential(cubic01, 0.5, np.array([0.0]))


def test_certificate_operator_couette_is_dirichlet_laplacian(couette, grid64):
    op = ss.assemble_certificate_operator(couette, 0.0, grid64)
    assert op.kind == "certificate"
    assert op.bc == "dirichlet"
    np.testing.assert_allclose(op.matrix, -grid64.d2[1:-1, 1:-1], atol=0)


def test_rayleigh_shifted_termwise(cubic01, grid32):
    params = ss.SpectralParams(1.3, 0.0, 0.2 + 0.5j)
    op = ss.assemble_rayleigh_shifted(cubic01, params, grid32)
    x = grid32.nodes[1:-1]
    helm = -grid32.d2[1:-1, 1:-1] + 1.3**2 * np.eye(len(x))
    expected = np.diag(cubic01.u(x) + 1j * (0.2 + 0.5j)) @ helm + np.diag(
        cubic01.deriv(x, 2)
    )
    np.testing.assert_allclose(op.matrix, expected, atol=1e-13)


def test_rayleigh_couette_similarity(couette, grid32):
    # With U'' = 0 the advective form is inv(H) (U H): similar to diag(U),
    # so every eigenvalue must be real inside [-1, 1].
    op = ss.assemble_rayleigh(couette, 1.0, grid32)
    vals = np.linalg.eigvals(op.matrix)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.max(np.abs(vals.real)) <= 1.0 + 1e-10


def test_rayleigh_requires_positive_alpha(couette, grid32):
    with pytest.raises(ValueError):
        ss.assemble_rayleigh(couette, 0.0, grid32)


def test_schrodinger_zero_beta_reduces_to_laplacian(couette, grid32):
    op = ss.assemble_schrodinger(couette, ss.SpectralParams(0.0, 0.0, 0.0), grid32)
    np.testing.assert_allclose(op.matrix, -grid32.d2[1:-1, 1:-1], atol=0)


@functools.cache
def _couette_spectrum_over_beta(beta):
    grid = ss.build_grid(2 * ladder_start(beta))
    op = ss.assemble_schrodinger(ss.couette(), ss.SpectralParams(0.0, beta, 0.0), grid)
    return ss.eigenvalues(op) / beta


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("beta", [1e3, 1e4, 1e5, 1e6])
def test_couette_wall_modes_match_airy_zeros(beta, k):
    # Near each wall -d2 + i*beta*x is the half-line Airy operator, so the
    # k-th pair of leftmost eigenvalues over beta is
    # -+i + beta^(-1/3)|a_k| e^(+-i pi/3), exact up to terms exponentially
    # small in beta^(1/3).  Measured error for k <= 3: at most 1.6e-12 of the
    # layer width beta^(-1/3)|a_k|; the bound leaves a factor 60.
    with mpmath.workdps(30):
        a_k = abs(float(mpmath.airyaizero(k)))
    pair = _couette_spectrum_over_beta(beta)[2 * k - 2 : 2 * k]
    lower, upper = sorted(pair, key=lambda z: z.imag)
    layer = beta ** (-1.0 / 3.0) * a_k
    turn = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    assert abs(lower - (-1j + layer * turn)) <= 1e-10 * layer
    assert abs(upper - (1j + layer * turn.conjugate())) <= 1e-10 * layer


def test_schrodinger_termwise(cubic01, grid32):
    beta, lam = 250.0, 0.3 - 0.2j
    op = ss.assemble_schrodinger(cubic01, ss.SpectralParams(0.0, beta, lam), grid32)
    x = grid32.nodes[1:-1]
    expected = (
        -grid32.d2[1:-1, 1:-1]
        + 1j * beta * np.diag(cubic01.u(x))
        - beta * lam * np.eye(len(x))
    )
    np.testing.assert_allclose(op.matrix, expected, atol=1e-13)


def test_orr_sommerfeld_termwise(cubic01, grid32):
    alpha, beta, lam = 1.2, 300.0, 0.1 + 0.05j
    op = ss.assemble_orr_sommerfeld(
        cubic01, ss.SpectralParams(alpha, beta, lam), grid32
    )
    x = grid32.nodes
    eye = np.eye(len(x))
    helm = -grid32.d2 + alpha**2 * eye
    adv = -grid32.d2 + 1j * beta * np.diag(cubic01.u(x) + 1j * lam)
    full = adv @ helm + 1j * beta * np.diag(cubic01.deriv(x, 2))
    expected, mask = clamped_reduce(full, grid32)
    np.testing.assert_allclose(op.matrix, expected, atol=0)
    np.testing.assert_array_equal(op.bc_rows, mask)
    assert op.bc == "clamped"


def test_orr_sommerfeld_acts_correctly_on_clamped_polynomial(couette, grid64):
    # p = (1 - x^2)^2 satisfies all four wall conditions; the interior rows of
    # the assembled matrix must reproduce the analytic image of p.
    alpha, beta, lam = 1.0, 50.0, 0.2j
    op = ss.assemble_orr_sommerfeld(couette, ss.SpectralParams(alpha, beta, lam), grid64)
    x = grid64.nodes
    p = (1 - x**2) ** 2
    # (-d2 + a^2) p with p'''' = 24, p'' = 12 x^2 - 4
    hp = -(12 * x**2 - 4) + alpha**2 * p
    # advective factor applied analytically: (-d2 + i b (U + i lam)) hp
    hp_dd = -24.0 + alpha**2 * (12 * x**2 - 4)
    image = -hp_dd + 1j * beta * (x + 1j * lam) * hp
    got = op.matrix @ p
    keep = ~op.bc_rows
    np.testing.assert_allclose(got[keep], image[keep], atol=1e-9)
    np.testing.assert_allclose(got[op.bc_rows], 0.0, atol=1e-12)


def test_integration_by_parts_quadrature_identity(grid64):
    # <-p'', q> = <p', q'> for polynomials vanishing at the walls, since
    # Clenshaw-Curtis integrates low-degree polynomials exactly.
    x = grid64.nodes
    p = (1 - x**2) ** 2
    q = x * (1 - x**2)
    lhs = np.sum(grid64.weights * (-(grid64.d2 @ p)) * q)
    rhs = np.sum(grid64.weights * (grid64.d1 @ p) * (grid64.d1 @ q))
    assert abs(lhs - rhs) < 1e-11


def test_spectral_params_validation():
    with pytest.raises(ValueError):
        ss.SpectralParams(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ss.SpectralParams(0.0, -2.0, 0.0)
    p = ss.SpectralParams(1.0, 10.0, 0.25 - 0.5j)
    assert p.mu == 0.25
    assert p.nu == -0.5


def test_orr_sommerfeld_requires_positive_beta(couette, grid32):
    with pytest.raises(ValueError):
        ss.assemble_orr_sommerfeld(couette, ss.SpectralParams(1.0, 0.0, 0.0), grid32)


def test_wavenumber_ceiling(couette, grid32):
    # alpha^2 overflows past about 1e154; the ceiling keeps far below that
    ss.SpectralParams(1e6, 1.0, 0.0)
    ss.assemble_rayleigh(couette, 1e6, grid32)
    for alpha in (1.000001e6, 1e200):
        with pytest.raises(ValueError, match="exceeds 1e"):
            ss.SpectralParams(alpha, 1.0, 0.0)
        with pytest.raises(ValueError, match="exceeds 1e"):
            ss.assemble_rayleigh(couette, alpha, grid32)


def test_beta_and_shift_ceilings():
    from shearstab.operators import MAX_BETA, MAX_SHIFT

    ss.SpectralParams(1.0, MAX_BETA, complex(0.0, MAX_SHIFT))
    for beta in (1.000001e12, 1e300):
        with pytest.raises(ValueError, match="rescaled Reynolds number .* exceeds 1e"):
            ss.SpectralParams(1.0, beta, 0.0)
    for lam in (1.000001e6, -1e300, 1e300j, complex(8e5, 8e5)):
        with pytest.raises(ValueError, match="spectral shift .* exceeds 1e"):
            ss.SpectralParams(1.0, 1.0, lam)


def test_orr_sommerfeld_expansion_matches_product_form(cubic01):
    # The O(n^2) expansion against the dense product (-d2 + i b (U + i lam))
    # (-d2 + a^2) + i b U'' it replaces, at a degree where D4 and D2 D2 differ
    # most in rounding.
    grid = ss.build_grid(512)
    alpha, beta, lam = 1.3, 2e5, 0.01 + 0.03j
    op = ss.assemble_orr_sommerfeld(cubic01, ss.SpectralParams(alpha, beta, lam), grid)
    x = grid.nodes
    eye = np.eye(len(x))
    helm = -grid.d2 + alpha**2 * eye
    adv = -grid.d2 + 1j * beta * np.diag(cubic01.u(x) + 1j * lam)
    full = adv @ helm + 1j * beta * np.diag(cubic01.deriv(x, 2))
    expected, _ = clamped_reduce(full, grid)
    row_scale = np.max(np.abs(expected), axis=1)
    row_rel = np.max(np.abs(op.matrix - expected), axis=1) / row_scale
    assert np.max(row_rel) <= 1e-12


def test_rayleigh_generator_matches_explicit_inverse(cubic01, tanh3, grid64):
    # The assembled matrix is the generator L = inv(H) (U H + U'') conjugated
    # by H: U + U'' inv(H).  Check it entrywise, and check that its spectrum
    # is that of L formed with an explicit inverse.
    x = grid64.nodes[1:-1]
    h = -grid64.d2[1:-1, 1:-1] + np.eye(len(x))
    for profile in (cubic01, tanh3):
        op = ss.assemble_rayleigh(profile, 1.0, grid64)
        u, u2 = profile.u(x), profile.deriv(x, 2)
        expected = np.diag(u) + np.diag(u2) @ np.linalg.inv(h)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(op.matrix, expected, rtol=0, atol=1e-12 * scale)

        a = np.diag(u) @ h + np.diag(u2)
        reference = np.linalg.eigvals(np.linalg.inv(h) @ a)
        got = ss.eigenvalues(op)
        # pair the two spectra one to one, nearest first
        rows, cols = linear_sum_assignment(np.abs(reference[:, None] - got[None, :]))
        worst = np.max(np.abs(reference[rows] - got[cols]))
        assert len(rows) == len(reference) == len(got)
        assert worst <= 1e-10 * np.max(np.abs(reference)), profile.id_string()


def test_rayleigh_generator_of_couette_is_diag_u(couette):
    # U'' = 0 leaves diag(U) exactly, so the spectrum is U at the interior
    # nodes and every scan distance to the segment [-1, 1] is exactly zero.
    grid = ss.build_grid(128)
    x = grid.nodes[1:-1]
    op = ss.assemble_rayleigh(couette, 1.0, grid)
    np.testing.assert_array_equal(op.matrix, np.diag(couette.u(x)))
    eigs = ss.eigenvalues(op)
    np.testing.assert_array_equal(eigs.real, np.sort(couette.u(x)))
    np.testing.assert_array_equal(eigs.imag, 0.0)
    scan = ss.rayleigh_spectrum_scan(couette, 1.0)
    assert scan.max_distances == (0.0, 0.0, 0.0)