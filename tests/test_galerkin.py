"""The banded Legendre-Galerkin rungs of the Schrodinger and Orr-Sommerfeld
resolvents."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre
from scipy.linalg import eig, lapack

import shearstab as ss
from shearstab import galerkin, spectral
from shearstab.galerkin import GalerkinSystem, _matrix, norm_maps, rung_parts, velocity_series
from shearstab.spectral import (
    _ASSEMBLERS,
    _SINGULAR_RTOL,
    _galerkin_numbers,
    ladder_start,
    resolvent_numbers,
)

PROFILES = {"couette": ss.couette(), "cubic(0.1)": ss.cubic(0.1), "tanh(1)": ss.tanh_shear(1.0)}
KINDS = (("schrodinger", 0.0), ("orr_sommerfeld", 1.0))


def _params(kind, alpha, beta):
    """The sweeps' shifts: 0 for Schrodinger, the boundary-layer shift for
    Orr-Sommerfeld."""
    lam = 0.0 if kind == "schrodinger" else ss.margin_constant() * beta ** (-1.0 / 3.0)
    return ss.SpectralParams(alpha, beta, lam)


def _dense(band, rows=None):
    """The matrix held in band storage, square unless ``rows`` is given."""
    ab, kl, ku = band
    cols = ab.shape[1]
    rows = cols if rows is None else rows
    out = np.zeros((rows, cols), dtype=ab.dtype)
    for r in range(ab.shape[0] - kl - ku - 1, ab.shape[0]):
        j = np.arange(cols)
        i = j + r - (ab.shape[0] - kl - 1)
        keep = (i >= 0) & (i < rows)
        out[i[keep], j[keep]] = ab[r, keep]
    return out


def _shen_basis(order, n):
    """Shen's bases as columns of Legendre coefficients, degree n: (L_k -
    L_(k+2)) / sqrt(4k + 6), and d_k (L_k - 2(2k+5)/(2k+7) L_(k+2) +
    (2k+3)/(2k+7) L_(k+4)) with d_k = 1 / sqrt(2 (2k+3)^2 (2k+5))."""
    size = n + 1 - order
    q = np.zeros((n + 1, size))
    for k in range(size):
        if order == 2:
            q[[k, k + 2], k] = np.array([1.0, -1.0]) / math.sqrt(4 * k + 6)
        else:
            d = 1.0 / math.sqrt(2.0 * (2 * k + 3) ** 2 * (2 * k + 5))
            a, b = 2 * (2 * k + 5) / (2 * k + 7), (2 * k + 3) / (2 * k + 7)
            q[[k, k + 2, k + 4], k] = d, -a * d, b * d
    return q


@pytest.mark.parametrize("name, terms", [("couette", 2), ("cubic(0.1)", 4), ("tanh(1)", 30)])
def test_velocity_series_is_chopped(name, terms):
    assert len(velocity_series(PROFILES[name], ss.build_grid(1724))) == terms


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_bands_match_a_gauss_legendre_quadrature_of_the_weak_form(kind, alpha, n, name):
    # Every band of the rung against the same integrals by Gauss-Legendre
    # quadrature of numpy's Legendre series, exact for these polynomial
    # integrands: U is the rung's chopped Chebyshev series (30 terms for
    # tanh(1) at n = 64, the whole 17 at n = 16, so M[U] is wider than the
    # matrix there).  The top-order term is the identity.
    profile, grid = PROFILES[name], ss.build_grid(n)
    order = galerkin.KINDS[kind][0]
    parts = rung_parts(kind, profile, grid)
    series = velocity_series(profile, grid)
    x, w = legendre.leggauss(n + 40)
    q = _shen_basis(order, n)
    phi, slope, curve = (
        legendre.legval(x, legendre.legder(q, m, axis=0)).T for m in (0, 1, 2)
    )
    u, du = chebyshev.chebval(x, series), chebyshev.chebval(x, chebyshev.chebder(series))

    def gram(left, right):
        return left.T @ (w[:, None] * right)

    want = {
        "mass": gram(phi, phi),
        "advection": gram(phi, u[:, None] * phi),
    }
    if order == 4:
        want["stiffness"] = gram(slope, slope)
        want["flux"] = gram(slope, u[:, None] * slope - du[:, None] * phi)
        top = gram(curve, curve)
    else:
        top = gram(slope, slope)
    np.testing.assert_allclose(top, np.eye(n + 1 - order), rtol=0, atol=1e-13)
    for key, ref in want.items():
        got = _dense(getattr(parts, key))
        atol = 1e-14 * max(1.0, np.max(np.abs(ref)))
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol, err_msg=key)
    for key, ref in (("values", phi), ("slopes", slope)):
        # the maps: p coefficients of phi_k and phi_k', evaluated
        coef = _dense((getattr(parts, key), getattr(parts, key).shape[0] - 1, 0), rows=n + 1)
        p = legendre.legval(x, coef * np.sqrt(np.arange(n + 1) + 0.5)[:, None]).T
        np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)), err_msg=key)


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_solve_inverts_the_operator_on_a_known_solution(kind, alpha):
    # u = (1 - x^2)^(m/2) q for a polynomial q of degree 20 lies in the
    # basis's span, so the Galerkin solve of the P_n projection of its
    # forcing gives u back exactly; the forcing is formed by numpy's
    # Legendre arithmetic, with U the cubic x + 0.1 x^3
    n, profile = 64, ss.cubic(0.1)
    order = galerkin.KINDS[kind][0]
    rng = np.random.default_rng(7)
    wall = legendre.legpow(legendre.legsub([1.0], legendre.legmulx([0.0, 1.0])), order // 2)
    u = legendre.legmul(wall, rng.standard_normal(21))
    params = ss.SpectralParams(alpha, 10.0, 0.1 + 0.2j)
    big_u = legendre.poly2leg([0.0, 1.0, 0.0, 0.1])
    c = legendre.legadd(1j * params.beta * big_u, [-params.beta * params.lam])
    d2u = legendre.legder(u, 2)
    if kind == "schrodinger":
        f = legendre.legadd(-d2u, legendre.legmul(c, u))
    else:
        helm = legendre.legmul(legendre.legadd(c, [alpha**2]), d2u)
        zeroth = legendre.legadd(alpha**2 * c, 1j * params.beta * legendre.legder(big_u, 2))
        f = legendre.legsub(legendre.legder(u, 4), helm)
        f = legendre.legadd(f, legendre.legmul(zeroth, u))
    x = np.zeros(n + 1, dtype=complex)
    x[: len(f)] = f[: n + 1] / np.sqrt(np.arange(len(f))[: n + 1] + 0.5)
    parts = rung_parts(kind, profile, ss.build_grid(n))
    (load, _), (values, _), _ = norm_maps(parts)
    got = values(GalerkinSystem(parts, params).backsolve(load(x)))
    want = np.zeros(n + 1, dtype=complex)
    want[: len(u)] = u / np.sqrt(np.arange(len(u)) + 0.5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_adjoint_solve_is_the_adjoint(kind, alpha):
    # the solution maps to values and to slopes, each with its adjoint
    rng = np.random.default_rng(3)
    grid = ss.build_grid(200)
    parts = rung_parts(kind, ss.tanh_shear(1.0), grid)
    system = GalerkinSystem(parts, _params(kind, alpha, 1e5))
    (load, load_h), *outs = norm_maps(parts)
    for out, out_h in outs:
        a, b = _complex(rng, 201), _complex(rng, 201)
        lhs = np.vdot(b, out(system.backsolve(load(a))))
        rhs = np.vdot(load_h(system.backsolve(out_h(b), 2)), a)
        assert rhs == pytest.approx(lhs, rel=1e-13)


# Every rung of these ladders is resolved: the ladder starts at 862 for
# beta = 1e7, so n = 512 is left out there (the two discretizations then
# differ by their truncation errors).
DUAL = [(n, beta) for n in (512, 1024, 2048) for beta in (1e5, 1e7) if n >= ladder_start(beta)]


@pytest.mark.parametrize("n, beta", DUAL)
@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_galerkin_rung_matches_dense_rung(kind, alpha, name, n, beta):
    profile, params, grid = PROFILES[name], _params(kind, alpha, beta), ss.build_grid(n)
    dense = resolvent_numbers(_ASSEMBLERS[kind](profile, params, grid))
    banded = _galerkin_numbers(profile, params, kind, grid, None)
    assert set(banded) == set(dense)
    assert banded["singular"] is dense["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert banded[key] == pytest.approx(dense[key], rel=1e-8), key


@pytest.mark.parametrize("beta", [1.0, 1e4, 1e5])
@pytest.mark.parametrize("n", [64, 100])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_shift_on_the_discrete_spectrum_is_singular(kind, alpha, n, beta):
    # The Galerkin matrix is affine in the shift, B(lam) = B0 + lam C; take
    # the eigenvalue of the pencil nearest 0 and one step of two-sided
    # Rayleigh quotient iteration, so B(lam) is singular to rounding.
    profile, grid = ss.cubic(0.1), ss.build_grid(n)
    parts = rung_parts(kind, profile, grid)
    b0, b1 = (_dense(_matrix(parts, ss.SpectralParams(alpha, beta, lam))) for lam in (0.0, 1.0))
    c = b1 - b0
    w, left, right = eig(b0, -c, left=True, right=True)
    i = np.flatnonzero(np.isfinite(w))[np.argmin(np.abs(w[np.isfinite(w)]))]
    lam = w[i]
    x = np.linalg.solve(b0 + lam * c, c @ right[:, i])
    y = np.linalg.solve((b0 + lam * c).conj().T, c.conj().T @ left[:, i])
    lam = -(y.conj() @ b0 @ x) / (y.conj() @ c @ x)
    on = _galerkin_numbers(profile, ss.SpectralParams(alpha, beta, lam), kind, grid, None)
    near = _galerkin_numbers(profile, ss.SpectralParams(alpha, beta, lam + 0.1), kind, grid, None)
    assert on["singular"] and not near["singular"]


def test_a_long_velocity_series_enters_the_band():
    # tanh_shear(5) keeps 114 terms of U's series, so M[U] is 227 diagonals
    # wide; its ladder converges at 400 -> 800, and norm_inv equals the
    # collocation ladder's 1.5983166254694378e-5
    profile = ss.tanh_shear(5.0)
    assert len(velocity_series(profile, ss.build_grid(400))) == 114
    sample = ss.resolvent_sample(profile, ss.SpectralParams(0.0, 1e6, -0.05 + 0.3j), "schrodinger")
    assert (sample.n_start, sample.n_used, sample.converged) == (400, 800, True)
    assert sample.norm_inv == pytest.approx(1.5983166254694378e-5, rel=1e-12)


def test_ladders_keep_their_rungs():
    os_rows = ss.os_boundary_sweep(ss.cubic(0.1)).rows
    assert [r.n_used for r in os_rows] == [174, 254, 372, 546, 800, 1176, 1724]
    schr_rows = ss.schrodinger_sweep(ss.couette()).rows
    assert [r.n_used for r in schr_rows] == [128, 128, 174, 254, 372, 546, 800, 1176, 1724]
    assert all(r.converged for r in os_rows + schr_rows)


def test_orr_sommerfeld_needs_positive_beta(couette):
    parts = rung_parts("orr_sommerfeld", couette, ss.build_grid(64))
    with pytest.raises(ValueError, match="needs beta > 0"):
        GalerkinSystem(parts, ss.SpectralParams(1.0, 0.0, 0.0))


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_lanczos_norms_equal_the_explicit_svds(explicit_galerkin_norms, kind, alpha):
    # the Lanczos norms of a rung against the SVDs of its explicit solution
    # operator
    grid, profile = ss.build_grid(64), ss.cubic(0.1)
    params = ss.SpectralParams(alpha, 1e4, -0.1 + 0.5j)
    lanczos = _galerkin_numbers(profile, params, kind, grid, None)
    explicit = explicit_galerkin_norms(kind, profile, params, grid)
    assert lanczos["singular"] is False
    for key, value in zip(("norm_inv", "norm_d_inv"), explicit):
        assert value == pytest.approx(lanczos[key], rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("kind, alpha", KINDS)
def test_a_ladder_builds_each_rung_part_once(monkeypatch, cpus, rung_caches, kind, alpha):
    # a 3x3 map at beta 1e4 on one CPU: every ladder runs 87 -> 174, and
    # the shifts share one set of parts per degree; the cache then holds
    # that ladder's two degrees under one key
    cpus(1)
    for cache in rung_caches:
        cache.clear()
    built, build = [], galerkin._build_parts

    def counted(kind, profile, grid):
        built.append(grid.n)
        return build(kind, profile, grid)

    monkeypatch.setattr(galerkin, "_build_parts", counted)
    profile = ss.cubic(0.1)
    mus, nus = np.linspace(-0.2, 0.2, 3), np.linspace(-1.0, 1.0, 3)
    samples = ss.pseudospectrum_grid(profile, kind, alpha, 1e4, mus, nus).samples
    assert {s.n_used for s in samples} == {174}
    assert built == [87, 174]
    assert sorted(galerkin._PARTS) == [((kind, profile), 87), ((kind, profile), 174)]


def _hager_higham(system):
    """The condition estimate as ``rcond`` first wrote it, with a new array
    for every unit vector, sign vector and right-hand side: the reference
    its trimmed form must match."""
    size = system._lu.shape[1]

    def norm_1(x):
        y = system.backsolve(x.astype(complex))
        return float(np.sum(np.abs(y))), y

    def gradient(y):
        a = np.abs(y)
        sign = np.divide(y, a, out=np.ones_like(y), where=a > galerkin._SAFE_MIN)
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
    # inside 10%
    parts = rung_parts(kind, PROFILES[name], ss.build_grid(n))
    for beta, lam in ((1e4, 0.0), (1e4, -0.3 + 0.5j), (1e7, 0.2 - 0.8j)):
        system = GalerkinSystem(parts, ss.SpectralParams(alpha, beta, lam))
        assert system.rcond() == pytest.approx(_zgbcon(system), rel=0.1)
        assert system.rcond() == pytest.approx(_hager_higham(system), rel=1e-14, abs=0.0)


def test_condition_estimate_keeps_benchmark_shifts_on_their_side(monkeypatch, cpus):
    # Every Galerkin rung of the benchmark's Schrodinger sweep, of an
    # os-boundary sweep and of an 8x8 map of each kind over the outer
    # rectangle of its shift maps: the estimate and zgbcon fall on the same
    # side of _SINGULAR_RTOL, Dirichlet and clamped rungs alike.  On one
    # CPU, so every rung runs in this process, where the spy sees it.
    cpus(1)
    seen = []
    estimate = GalerkinSystem.rcond

    def both(system):
        rcond = estimate(system)
        seen.append((rcond < _SINGULAR_RTOL, _zgbcon(system) < _SINGULAR_RTOL))
        return rcond

    monkeypatch.setattr(galerkin.GalerkinSystem, "rcond", both)
    ss.schrodinger_sweep(ss.couette())
    schrodinger = len(seen)
    ss.os_boundary_sweep(ss.cubic(0.1))
    mus, nus = np.linspace(-0.2, 0.2, 8), np.linspace(-1, 1, 8)
    ss.pseudospectrum_grid(ss.couette(), "schrodinger", 0.0, 1e4, mus, nus)
    ss.pseudospectrum_grid(ss.cubic(0.1), "orr_sommerfeld", 1.0, 1e4, mus, nus)
    assert schrodinger >= 9 and len(seen) >= schrodinger + 7 + 128
    assert all(a == b for a, b in seen)


@pytest.mark.parametrize("pivot", [1e-300, 1e-320])
def test_condition_estimate_survives_a_tiny_pivot(pivot):
    # a last pivot of 1e-300 still gives zgbcon's value; at 1e-320 the
    # solves overflow, and the estimate reads 0 as zgbcon does, with no
    # RuntimeWarning
    parts = rung_parts("schrodinger", ss.couette(), ss.build_grid(64))
    system = GalerkinSystem(parts, ss.SpectralParams(0.0, 1.0, 0.0))
    system._lu[system._kl + system._ku, -1] = pivot
    assert system.rcond() == pytest.approx(_zgbcon(system), rel=1e-12, abs=0.0)
    assert system.rcond() == pytest.approx(_hager_higham(system), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [spectral._MATRIX_STEP_MAX_DEGREE, spectral._MATRIX_STEP_MAX_DEGREE + 1])
@pytest.mark.parametrize("kind, alpha", KINDS)
def test_matrix_step_rungs_match_the_dct_step(monkeypatch, kind, alpha, n):
    # a collocation rung at the cap differentiates with d1 and one past it
    # through the DCT; both agree with the DCT step forced on
    profile, params, grid = ss.cubic(0.1), ss.SpectralParams(alpha, 1e4, -0.1 + 0.5j), ss.build_grid(n)
    fast = resolvent_numbers(_ASSEMBLERS[kind](profile, params, grid))
    monkeypatch.setattr(spectral, "_MATRIX_STEP_MAX_DEGREE", 0)
    slow = resolvent_numbers(_ASSEMBLERS[kind](profile, params, grid))
    assert fast["singular"] is slow["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert fast[key] == pytest.approx(slow[key], rel=1e-12, abs=0.0), key
