"""The banded ultraspherical route of the Schrodinger and Orr-Sommerfeld rungs."""

import math

import numpy as np
import pytest
from scipy.linalg import eig, lapack

import shearstab as ss
from shearstab import spectral, ultraspherical
from shearstab.spectral import (
    _ASSEMBLERS,
    _MATRIX_STEP_MAX_DEGREE,
    _SINGULAR_RTOL,
    _banded_numbers,
    ladder_start,
    resolvent_numbers,
)
from shearstab.ultraspherical import (
    TauSystem,
    _dct_maps,
    _gather,
    _gather_t,
    _structure,
    _tau_matrix,
    node_maps,
    velocity_series,
)

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


def _solve(system, grid):
    """The weighted solution map of a tau system through ``_dct_maps``: data
    x = W f on the data nodes to W u on every node, and its adjoint."""
    (forcing, forcing_h), (values, values_h), _ = _dct_maps(system.order, grid)
    return (
        lambda x: values(system.backsolve(forcing(x))),
        lambda y: forcing_h(system.backsolve(values_h(y), 2)),
    )


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_solve_inverts_the_operator_on_a_known_solution(kind, alpha):
    # u = (1 - x^2)^(m + 6) exp(x) satisfies both wall conditions, and its
    # forcing vanishes to sixth order at the walls, so it is zero to
    # rounding off the data nodes; the forcing is taken with the collocation
    # matrices at n = 128, which resolve it to rounding
    grid = ss.build_grid(128)
    x, profile, m = grid.nodes, ss.cubic(0.1), ultraspherical.ORDERS[kind]
    u = (1 - x**2) ** (m + 6) * np.exp(x)
    params = ss.SpectralParams(alpha, 10.0, 0.1 + 0.2j)
    c = 1j * params.beta * (profile.u(x) + 1j * params.lam)
    if kind == "schrodinger":
        f = -grid.d2 @ u + c * u
    else:
        d2u = grid.d2 @ u
        f = grid.d4 @ u - (alpha**2 + c) * d2u
        f += (alpha**2 * c + 1j * params.beta * profile.deriv(x, 2)) * u
    system = TauSystem(kind, velocity_series(profile, grid), params, 128)
    ws, data = np.sqrt(grid.weights), slice(m // 2, 129 - m // 2)
    got = _solve(system, grid)[0](ws[data] * f[data]) / ws
    np.testing.assert_allclose(got, u, atol=1e-9)


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_adjoint_solve_is_the_adjoint(kind, alpha):
    rng = np.random.default_rng(3)
    grid = ss.build_grid(200)
    series = velocity_series(ss.tanh_shear(1.0), grid)
    system = TauSystem(kind, series, _params(kind, alpha, 1e5), 200)
    solve, solve_h = _solve(system, grid)
    a = _complex(rng, 201 - system.order)
    b = _complex(rng, 201)
    lhs = np.vdot(b, solve(a))
    assert np.vdot(solve_h(b), a) == pytest.approx(lhs, rel=1e-13)


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


@pytest.mark.parametrize("beta", [1.0, 1e4, 1e5])
@pytest.mark.parametrize("n", [64, 100])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_shift_on_the_discrete_spectrum_is_singular(kind, alpha, n, beta):
    # The tau matrix is affine in the shift, B(lam) = B0 + lam C; take the
    # eigenvalue of the pencil nearest 0 and one step of two-sided Rayleigh
    # quotient iteration, so B(lam) is singular to rounding.  Clamped rungs
    # at moderate beta keep solve norms of only 1e8 to 1e10 there, so the
    # rule must rest on the condition estimate, not on a norm cap.
    profile, grid = ss.cubic(0.1), ss.build_grid(n)
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


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _basis_coefficients(m, n):
    """The basis phi_0 .. phi_(n-m) as columns of T coefficients, degree n."""
    size = n + 1 - m
    q = np.zeros((n + 1, size))
    for k in range(size):
        if m == 2:
            q[[k, k + 2], k] = 1.0, -1.0
        else:
            q[[k, k + 2, k + 4], k] = 1.0, -2.0 * (k + 2) / (k + 3), (k + 1) / (k + 3)
    return q


def _conversion_rows(m, n):
    """The kept rows of S = S_(m-1) ... S_0, T coefficients to C^(m), dense:
    T_0 = C^(1)_0, T_k = (C^(1)_k - C^(1)_(k-2)) / 2, and
    C^(l)_k = l / (l + k) (C^(l+1)_k - C^(l+1)_(k-2))."""
    k = np.arange(n + 1, dtype=float)
    s = np.eye(n + 1)
    for lam in range(m):
        diag = np.where(k == 0, 1.0, 0.5) if lam == 0 else lam / (lam + k)
        step = np.diag(diag) - np.diag(diag[2:], 2)
        s = step @ s
    return s[: n + 1 - m]


@pytest.mark.parametrize("n", [160, 192])
@pytest.mark.parametrize("m", [2, 4])
def test_node_maps_match_closed_forms(m, n):
    # numpy's Chebyshev evaluation, derivative and interpolation, with W the
    # square-root weights: values = W phi_k(x_j), slopes = W phi_k'(x_j), and
    # forcing = the kept rows of S on the interpolation coefficients of
    # f = x / W on the data nodes m/2 .. n - m/2, zero on the others
    cheb = np.polynomial.chebyshev
    grid = ss.build_grid(n)
    x, ws = grid.nodes, np.sqrt(grid.weights)
    q = _basis_coefficients(m, n)
    data = np.arange(m // 2, n + 1 - m // 2)
    data_values = np.zeros((n + 1, data.size))
    data_values[data, np.arange(data.size)] = 1.0 / ws[data]
    coef = np.linalg.solve(cheb.chebvander(x, n), data_values)
    want = (
        _conversion_rows(m, n) @ coef,
        ws[:, None] * cheb.chebval(x, q).T,
        ws[:, None] * cheb.chebval(x, cheb.chebder(q)).T,
    )
    for got, ref in zip(node_maps(m, grid), want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 255])
@pytest.mark.parametrize("m", [2, 4])
def test_gather_and_its_transpose_are_adjoint(m, n):
    # <y, G x> = <G^T y, x> for the kept rows of S and for the basis Q^T,
    # on a vector and on a block along axis 0
    rng = np.random.default_rng(m * n)
    st = _structure(m, n)
    for diagonals in (st.conv_rows, st.basis_terms):
        for cols in ((), (3,)):
            x = _complex(rng, (n + 1,) + cols)
            y = _complex(rng, (st.size,) + cols)
            lhs = np.vdot(y, _gather(diagonals, x, st.size))
            rhs = np.vdot(_gather_t(diagonals, y, n + 1), x)
            assert rhs == pytest.approx(lhs, rel=1e-13)


def test_node_maps_keep_only_the_latest_shape():
    # at most two sets are ever alive: the held one and the one a rung
    # still uses while the next is built
    first = node_maps(2, ss.build_grid(160))
    assert node_maps(2, ss.build_grid(160)) is first
    for m, n in ((4, 160), (2, 170), (4, 170)):
        node_maps(m, ss.build_grid(n))
        assert list(ultraspherical._NODE_MAPS) == [(m, n)]
    assert node_maps(2, ss.build_grid(160)) is not first


@pytest.mark.parametrize("n", [_MATRIX_STEP_MAX_DEGREE, _MATRIX_STEP_MAX_DEGREE + 1])
@pytest.mark.parametrize("route", ["banded", "dense"])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_matrix_step_rungs_match_the_dct_step(monkeypatch, kind, alpha, route, n):
    # a rung at the cap takes the matrix step and one past it the DCT step;
    # both agree with the DCT step forced on
    profile, params, grid = ss.cubic(0.1), ss.SpectralParams(alpha, 1e4, -0.1 + 0.5j), ss.build_grid(n)

    def rung():
        if route == "banded":
            return _banded_numbers(velocity_series(profile, grid), params, kind, grid, None)
        return resolvent_numbers(_ASSEMBLERS[kind](profile, params, grid))

    ultraspherical._NODE_MAPS.clear()
    fast = rung()
    built = len(ultraspherical._NODE_MAPS)
    assert built == (route == "banded" and n <= _MATRIX_STEP_MAX_DEGREE)
    monkeypatch.setattr(spectral, "_MATRIX_STEP_MAX_DEGREE", 0)
    slow = rung()
    assert fast["singular"] is slow["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert fast[key] == pytest.approx(slow[key], rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_small_banded_rung_lanczos_norms_equal_its_explicit_svds(explicit_tau_norms, kind, alpha):
    # a small banded rung is measured by Lanczos, as a collocation rung is;
    # the SVDs of its explicit solution operator agree
    grid, params = ss.build_grid(64), ss.SpectralParams(alpha, 1e4, -0.1 + 0.5j)
    series = velocity_series(ss.cubic(0.1), grid)
    lanczos = _banded_numbers(series, params, kind, grid, None)
    explicit = explicit_tau_norms(kind, series, params, grid)
    assert lanczos["singular"] is False
    for key, value in zip(("norm_inv", "norm_d_inv"), explicit):
        assert value == pytest.approx(lanczos[key], rel=1e-12, abs=0.0), key


def _hager_higham(system):
    """The condition estimate as ``TauSystem.rcond`` first wrote it, with a
    new array for every unit vector, sign vector and right-hand side: the
    reference its trimmed form must match."""
    size = system._lu.shape[1]

    def norm_1(x):
        y = system.backsolve(x.astype(complex))
        return float(np.sum(np.abs(y))), y

    def gradient(y):
        a = np.abs(y)
        sign = np.divide(y, a, out=np.ones_like(y), where=a > ultraspherical._SAFE_MIN)
        return np.abs(system.backsolve(sign, 2))

    with np.errstate(all="ignore"):
        est, y = norm_1(np.full(size, 1.0 / size))
        z = gradient(y)
        j = int(np.argmax(z))
        for _ in range(4):
            old, (est, y) = est, norm_1(np.eye(1, size, j)[0])
            if est <= old:
                break
            z = gradient(y)
            last, j = j, int(np.argmax(z))
            if z[last] == z[j]:
                break
        alt = (1.0 + np.arange(size) / max(size - 1, 1)) * (-1.0) ** np.arange(size)
        temp = 2.0 * norm_1(alt)[0] / (3 * size)
        est = est if temp <= est else temp
    if not (est < math.inf and system._anorm):
        return 0.0
    return (1.0 / est) / system._anorm


def _zgbcon(system):
    rcond, info = lapack.zgbcon(system._kl, system._ku, system._lu, system._piv, system._anorm)
    assert info == 0
    return rcond


@pytest.mark.parametrize("n", [174, 1724])
@pytest.mark.parametrize("name", ["couette", "tanh(1)"])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_condition_estimate_matches_lapack_gbcon(kind, alpha, name, n):
    # the same estimator as zgbcon on the same factors, so the two agree far
    # inside 10%, also at 3e-21 (Couette, beta 1e7, n = 1724)
    series = velocity_series(PROFILES[name], ss.build_grid(n))
    for beta, lam in ((1e4, 0.0), (1e4, -0.3 + 0.5j), (1e7, 0.2 - 0.8j)):
        system = TauSystem(kind, series, ss.SpectralParams(alpha, beta, lam), n)
        assert system.rcond() == pytest.approx(_zgbcon(system), rel=0.1)
        assert system.rcond() == pytest.approx(_hager_higham(system), rel=1e-14, abs=0.0)


def test_condition_estimate_keeps_benchmark_shifts_on_their_side(monkeypatch, cpus):
    # Every tau rung of the benchmark's Schrodinger sweep, of an os-boundary
    # sweep and of an 8x8 map of each kind over the outer rectangle of its
    # shift maps: the estimate and zgbcon fall on the same side of
    # _SINGULAR_RTOL, Dirichlet and clamped rungs alike.  On one CPU, so
    # every rung runs in this process, where the spy sees it.
    cpus(1)
    seen = []
    estimate = TauSystem.rcond

    def both(system):
        rcond = estimate(system)
        seen.append((system.order, rcond < _SINGULAR_RTOL, _zgbcon(system) < _SINGULAR_RTOL))
        return rcond

    monkeypatch.setattr(ultraspherical.TauSystem, "rcond", both)
    ss.schrodinger_sweep(ss.couette())
    ss.os_boundary_sweep(ss.cubic(0.1))
    mus, nus = np.linspace(-0.2, 0.2, 8), np.linspace(-1, 1, 8)
    ss.pseudospectrum_grid(ss.couette(), "schrodinger", 0.0, 1e4, mus, nus)
    ss.pseudospectrum_grid(ss.cubic(0.1), "orr_sommerfeld", 1.0, 1e4, mus, nus)
    assert sum(order == 2 for order, _, _ in seen) >= 64
    assert sum(order == 4 for order, _, _ in seen) >= 64
    assert all(a == b for _, a, b in seen)


@pytest.mark.parametrize("pivot", [1e-300, 1e-320])
def test_condition_estimate_survives_a_tiny_pivot(pivot):
    # a last pivot of 1e-300 still gives zgbcon's 1.2e-304; at 1e-320 the
    # solves overflow, and the estimate reads 0 as zgbcon does, with no
    # RuntimeWarning
    system = TauSystem("schrodinger", np.array([0.0, 1.0]), ss.SpectralParams(0.0, 1.0, 0.0), 64)
    system._lu[system._kl + system._ku, -1] = pivot
    assert system.rcond() == pytest.approx(_zgbcon(system), rel=1e-12, abs=0.0)
    assert system.rcond() == pytest.approx(_hager_higham(system), rel=1e-14, abs=0.0)
