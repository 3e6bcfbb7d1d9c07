"""The banded ultraspherical route of the Schrodinger and Orr-Sommerfeld rungs."""

import math

import numpy as np
import pytest
from scipy.linalg import eig

import shearstab as ss
from shearstab.chebdiff import _coefficients, _values
from shearstab.spectral import (
    _ASSEMBLERS,
    _banded_numbers,
    ladder_start,
    resolvent_numbers,
)
from shearstab.ultraspherical import TauSystem, _tau_matrix, velocity_series

PROFILES = {"couette": ss.couette(), "cubic(0.1)": ss.cubic(0.1), "tanh(1)": ss.tanh_shear(1.0)}
KINDS = (("schrodinger", 0.0), ("orr_sommerfeld", 1.0))


def _params(kind, alpha, beta):
    """The sweeps' shifts: 0 for Schrodinger, the boundary-layer shift for
    Orr-Sommerfeld."""
    lam = 0.0 if kind == "schrodinger" else ss.margin_constant() * beta ** (-1.0 / 3.0)
    return ss.SpectralParams(alpha, beta, lam)


@pytest.mark.parametrize("name, terms", [("couette", 2), ("cubic(0.1)", 4), ("tanh(1)", 30)])
def test_velocity_series_is_chopped(name, terms):
    assert len(velocity_series(PROFILES[name], ss.build_grid(1724))) == terms


@pytest.mark.parametrize(
    "profile", [ss.tanh_shear(4.0), ss.polynomial((0.2, 1.0, 0.25, 0.05))], ids=["tanh(4)", "poly"]
)
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_tau_matrix_matches_chebyshev_arithmetic(kind, alpha, profile):
    # Column j is the operator applied to phi_j, formed by numpy's Chebyshev
    # products and derivatives, in C^(m) coefficients: q = P^(m) with
    # P = sum_k b_k T_(k+m) / (2^(m-1) (m-1)! (k+m)), so b_k comes from the
    # m-fold antiderivative, to the rounding of those antiderivatives.  The
    # velocity series of tanh_shear(4) on this grid keeps all 40 terms, so
    # the bands of M[U] reach past the last kept row.  That profile is odd;
    # the polynomial's even coefficients reach M[U]'s diagonal and its even
    # Hankel entries.
    n = 40
    series = velocity_series(profile, ss.build_grid(n))
    params = ss.SpectralParams(alpha, 50.0, 0.3 - 0.2j)
    got = _dense(_tau_matrix(kind, series, params, n))
    m, size = (2, n - 1) if kind == "schrodinger" else (4, n - 3)
    cheb = np.polynomial.chebyshev
    c = 1j * params.beta * cheb.chebadd(series, [1j * params.lam])
    want = np.zeros((size, size), dtype=complex)
    for j in range(size):
        k = np.arange(j + 1, dtype=float)
        if m == 2:
            phi = cheb.chebsub(np.eye(j + 1)[j], np.eye(j + 3)[j + 2])
            q = cheb.chebadd(-cheb.chebder(phi, 2), cheb.chebmul(c, phi))
        else:
            k = j
            phi = np.zeros(j + 5)
            phi[[j, j + 2, j + 4]] = 1.0, -2.0 * (k + 2) / (k + 3), (k + 1) / (k + 3)
            helm = cheb.chebsub(alpha**2 * phi, cheb.chebder(phi, 2))
            q = cheb.chebsub(cheb.chebmul(c, helm), cheb.chebder(helm, 2))
            q = cheb.chebadd(q, cheb.chebmul(1j * params.beta * cheb.chebder(series, 2), phi))
        anti = np.zeros(size + 2 * m, dtype=complex)
        integ = cheb.chebint(q, m)[: size + m]
        anti[: len(integ)] = integ
        scale = 2.0 ** (m - 1) * math.factorial(m - 1)
        want[:, j] = scale * (np.arange(size) + m) * anti[m : size + m]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_solve_inverts_the_operator_on_a_known_solution(kind, alpha):
    # u = (1 - x^2)^2 exp(x) satisfies both wall conditions; its forcing is
    # taken with the collocation matrices at n = 128, which resolve it to
    # rounding
    grid = ss.build_grid(128)
    x, profile = grid.nodes, ss.cubic(0.1)
    u = (1 - x**2) ** 2 * np.exp(x)
    params = ss.SpectralParams(alpha, 10.0, 0.1 + 0.2j)
    c = 1j * params.beta * (profile.u(x) + 1j * params.lam)
    if kind == "schrodinger":
        f = -grid.d2 @ u + c * u
    else:
        d2u = grid.d2 @ u
        f = grid.d4 @ u - (alpha**2 + c) * d2u
        f += (alpha**2 * c + 1j * params.beta * profile.deriv(x, 2)) * u
    system = TauSystem(kind, velocity_series(profile, grid), params, 128)
    got = _values(system.solve(_coefficients(f)))
    np.testing.assert_allclose(got, u, atol=1e-9)


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_adjoint_solve_is_the_adjoint(kind, alpha):
    rng = np.random.default_rng(3)
    series = velocity_series(ss.tanh_shear(1.0), ss.build_grid(200))
    system = TauSystem(kind, series, _params(kind, alpha, 1e5), 200)
    a, b = (rng.standard_normal((201, 2)) @ np.array([1.0, 1j]) for _ in range(2))
    lhs = np.vdot(b, system.solve(a))
    assert np.vdot(system.solve_h(b), a) == pytest.approx(lhs, rel=1e-13)


# Every rung of these ladders is resolved: the ladder starts at 862 for
# beta = 1e7, so n = 512 is left out there (the two discretizations then
# differ by their truncation errors, 4e-4 to 3e-3).
DUAL = [(n, beta) for n in (512, 1024, 2048) for beta in (1e5, 1e7) if n >= ladder_start(beta)]


@pytest.mark.parametrize("n, beta", DUAL)
@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_banded_rung_matches_dense_rung(kind, alpha, name, n, beta):
    profile, params, grid = PROFILES[name], _params(kind, alpha, beta), ss.build_grid(n)
    dense = resolvent_numbers(_ASSEMBLERS[kind](profile, params, grid))
    banded = _banded_numbers(velocity_series(profile, grid), params, kind, grid, None)
    assert set(banded) == set(dense)
    assert banded["singular"] is dense["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert banded[key] == pytest.approx(dense[key], rel=1e-8), key


def _dense(band):
    """The matrix held in gbtrf's band storage."""
    ab, kl, ku = band
    size = ab.shape[1]
    out = np.zeros((size, size), dtype=complex)
    for row in range(kl, ab.shape[0]):
        offset = kl + ku - row
        j = np.arange(max(0, offset), min(size, size + offset))
        out[j - offset, j] = ab[row, j]
    return out


@pytest.mark.parametrize("n", [64, 100])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_shift_on_the_discrete_spectrum_is_singular(kind, alpha, n):
    # The tau matrix is affine in the shift, B(lam) = B0 + lam C; take the
    # eigenvalue of the pencil nearest 0 and one step of two-sided Rayleigh
    # quotient iteration, so B(lam) is singular to rounding.
    profile, beta, grid = ss.cubic(0.1), 1.0, ss.build_grid(n)
    series = velocity_series(profile, grid)
    b0, b1 = (
        _dense(_tau_matrix(kind, series, ss.SpectralParams(alpha, beta, lam), n))
        for lam in (0.0, 1.0)
    )
    c = b1 - b0
    w, left, right = eig(b0, -c, left=True, right=True)
    i = np.flatnonzero(np.isfinite(w))[np.argmin(np.abs(w[np.isfinite(w)]))]
    lam = w[i]
    x = np.linalg.solve(b0 + lam * c, c @ right[:, i])
    y = np.linalg.solve((b0 + lam * c).conj().T, c.conj().T @ left[:, i])
    lam = -(y.conj() @ b0 @ x) / (y.conj() @ c @ x)
    on = _banded_numbers(series, ss.SpectralParams(alpha, beta, lam), kind, grid, None)
    near = _banded_numbers(series, ss.SpectralParams(alpha, beta, lam + 0.1), kind, grid, None)
    assert on["singular"] and not near["singular"]


def test_long_velocity_series_keep_the_dense_rung(monkeypatch):
    # tanh_shear(1) keeps 30 terms: n = 372 < 16 * 29 stays dense, n = 744
    # goes banded; Couette's two terms go banded from n = 160 on.
    from shearstab import spectral

    routes = []
    real = spectral._banded_numbers

    def banded(series, *args):
        routes.append(len(series))
        return real(series, *args)

    monkeypatch.setattr(spectral, "_banded_numbers", banded)
    sample = ss.resolvent_sample(ss.tanh_shear(1.0), ss.SpectralParams(0.0, 8e5, 0.0), "schrodinger")
    assert (ladder_start(8e5), sample.n_used, sample.converged) == (372, 744, True)
    assert routes == [30]
    routes.clear()
    ss.resolvent_sample(ss.couette(), ss.SpectralParams(0.0, 8e5, 0.0), "schrodinger")
    assert routes == [2, 2]


def test_ladders_keep_their_rungs():
    os_rows = ss.os_boundary_sweep(ss.cubic(0.1)).rows
    assert [r.n_used for r in os_rows] == [174, 254, 372, 546, 800, 1176, 1724]
    schr_rows = ss.schrodinger_sweep(ss.couette()).rows
    assert [r.n_used for r in schr_rows] == [128, 128, 174, 254, 372, 546, 800, 1176, 1724]
    assert all(r.converged for r in os_rows + schr_rows)


def test_orr_sommerfeld_needs_positive_beta(couette):
    with pytest.raises(ValueError, match="needs beta > 0"):
        TauSystem("orr_sommerfeld", np.array([0.0, 1.0]), ss.SpectralParams(1.0, 0.0, 0.0), 64)
