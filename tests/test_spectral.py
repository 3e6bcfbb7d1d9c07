"""Weighted norms, eigenvalue floors, and resolvent ladders."""

import dataclasses
import math
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigvals, inv, lu_factor, lu_solve
from scipy.optimize import brentq

import shearstab as ss
from shearstab import operators, profile, spectral
from shearstab.chebdiff import LADDER_FLOOR, N_MAX, _derivative, _derivative_t
from shearstab.cli import main
from shearstab.operators import certificate_potential
from shearstab.profile import inflection_values
from shearstab.spectral import (
    _EIG_RTOL,
    _MATRIX_STEP_MAX_DEGREE,
    _certificate_rung,
    _refine,
    _real_matmul,
    eig_floor_ladder,
    ladder_start,
    min_eig_selfadjoint,
    pseudospectrum_grid,
    resolvent_numbers,
    resolvent_sample,
    weighted_norm,
)


def shooting_min_eig(profile, nu, bracket, rtol=1e-11):
    """Smallest Dirichlet eigenvalue of -u'' + q u by shooting: independent
    of collocation entirely (adaptive Runge-Kutta + bisection on u(1))."""

    def miss_distance(lam):
        def rhs(x, y):
            q = float(certificate_potential(profile, nu, np.array([x]))[0])
            return [y[1], (q - lam) * y[0]]

        sol = solve_ivp(
            rhs,
            (-1.0, 1.0),
            [0.0, 1.0],
            method="RK45",
            rtol=rtol,
            atol=1e-13,
            dense_output=False,
        )
        return sol.y[0, -1]

    return brentq(miss_distance, *bracket, xtol=1e-10)


def test_weighted_norm_of_sine(grid64):
    vals = np.sin(np.pi * grid64.nodes)
    assert weighted_norm(grid64, vals) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_couette_is_quarter_pi_squared(couette, grid64):
    op = ss.assemble_certificate_operator(couette, 0.0, grid64)
    val = min_eig_selfadjoint(op)
    assert abs(val - math.pi**2 / 4.0) < 1e-10


def test_min_eig_rejects_clamped_operator(couette, grid32):
    op = ss.assemble_orr_sommerfeld(couette, ss.SpectralParams(1.0, 10.0, 0.0), grid32)
    with pytest.raises(ValueError):
        min_eig_selfadjoint(op)


def test_tanh_certificate_sandwiched_by_potential_bounds(tanh1):
    # q = -2 sech^2(x) lies in [-2, -2 sech^2(1)], so the smallest eigenvalue
    # sits between pi^2/4 - 2 and pi^2/4 - 2 sech^2(1).
    val, n, conv = eig_floor_ladder(tanh1, 0.0)
    assert conv
    base = math.pi**2 / 4.0
    assert base - 2.0 <= val <= base - 2.0 / math.cosh(1.0) ** 2


def test_certificate_floor_matches_shooting_oracle(tanh1, tanh3):
    val1, _, conv1 = eig_floor_ladder(tanh1, 0.0)
    assert conv1
    oracle1 = shooting_min_eig(tanh1, 0.0, (0.4, 1.0))
    assert abs(val1 - oracle1) < 1e-6

    val3, _, conv3 = eig_floor_ladder(tanh3, 0.0)
    assert conv3
    oracle3 = shooting_min_eig(tanh3, 0.0, (-12.0, -5.0))
    assert abs(val3 - oracle3) < 1e-6


def test_eig_floor_ladder_couette_value(couette):
    val, n, conv = eig_floor_ladder(couette, 0.0)
    assert conv
    assert val == pytest.approx(2.4674011002730665, abs=1e-11)
    assert n == 128


def _collocation_ladder(profile, nu):
    """The certificate ladder on dense collocation rungs (min_eig_selfadjoint)."""

    def evaluate(n):
        op = ss.assemble_certificate_operator(profile, nu, ss.build_grid(n))
        return min_eig_selfadjoint(op)

    def agree(prev, cur):
        return abs(cur - prev) <= _EIG_RTOL * max(1.0, abs(cur))

    return _refine(evaluate, LADDER_FLOOR, agree)


def _seeded_certificate_batch():
    """tanh_shear with K in [0.5, 8], cubics and monotone quintics."""
    rng = np.random.default_rng(2024)
    profiles = [ss.tanh_shear(k) for k in rng.uniform(0.5, 8.0, 5)]
    profiles += [ss.cubic(a) for a in rng.uniform(-0.3, 1.0, 4)]
    while len(profiles) < 13:
        box = rng.uniform([-0.15, -0.25, -0.1, -0.1], [0.15, 0.25, 0.1, 0.1])
        try:
            profiles.append(ss.polynomial((0.0, 1.0, *box)))
        except ss.MonotonicityError:
            continue
    return profiles


def test_galerkin_ladders_match_collocation_ladders():
    # 15 velocities; measured to 1.0e-12 relative
    checked = 0
    for profile in _seeded_certificate_batch():
        for nu in inflection_values(profile).sample():
            got, _, conv = eig_floor_ladder(profile, nu)
            ref, _, ref_conv = _collocation_ladder(profile, nu)
            assert conv and ref_conv
            assert abs(got - ref) <= 1e-11 * abs(ref), (profile.id_string(), nu)
            checked += 1
    assert checked >= 13


def test_galerkin_rungs_of_steep_tanh_never_rise():
    # Ritz values on nested bases: -62.86 at n = 16 down to -63.99994238 at 256
    tanh8 = ss.tanh_shear(8.0)
    vals = [_certificate_rung(tanh8, 0.0, n) for n in (16, 32, 64, 128, 256)]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(vals, vals[1:]))


_QUINTIC_CLI = (0.0, 1.0, 0.0, -2.5431315104166665e-06, 0.0, 0.05)


@pytest.mark.parametrize(
    "profile",
    [
        ss.couette(),
        ss.tanh_shear(1.0),
        ss.tanh_shear(8.0),
        ss.tanh_shear(16.0),
        ss.cubic(0.1),
        ss.polynomial(_QUINTIC_CLI),
    ],
    ids=["couette", "tanh1", "tanh8", "tanh16", "cubic0.1", "quintic"],
)
def test_galerkin_rung_quadrature_is_resolved(monkeypatch, profile):
    # The accepted rung on n + 24 Gauss nodes against the same degree on
    # 2n + 64 nodes (measured to 1.3e-15 relative); Couette is pi^2 / 4.
    nu = inflection_values(profile).sample()[0]
    val, n, conv = eig_floor_ladder(profile, nu)
    assert conv
    monkeypatch.setattr(spectral, "_EXTRA_NODES", n + 64)
    tables = spectral._shen_tables.__wrapped__(n)
    monkeypatch.setattr(spectral, "_shen_tables", lambda _: tables)
    ref = _certificate_rung(profile, nu, n)
    assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref))
    if profile.family == "couette":
        assert abs(val - math.pi**2 / 4.0) <= 1e-14


def test_non_finite_certificate_potential_raises(monkeypatch, capsys, couette):
    monkeypatch.setattr(
        spectral, "certificate_potential", lambda profile, nu, x: np.full(len(x), np.nan)
    )
    with pytest.raises(ValueError, match="infs or NaNs"):
        eig_floor_ladder(couette, 0.0)
    assert main(["certify", '{"family": "couette"}']) == 3
    assert capsys.readouterr().out == ""


def test_ladder_start_rule():
    assert ladder_start(1e4) == 87
    assert ladder_start(1e6) == 400
    assert ladder_start(1.0) == 64


def test_ladder_start_caps_at_n_max():
    # 4 * 1e9^(1/3) = 4000 lies above the grid cap
    assert ladder_start(1e9) == N_MAX
    assert ladder_start(1e300) == N_MAX


def test_schrodinger_resolvent_frozen_value(couette):
    sample = resolvent_sample(
        couette, ss.SpectralParams(0.0, 1e5, 0.0), "schrodinger"
    )
    assert sample.converged
    assert not sample.singular
    assert sample.norm_inv * 1e5 ** (2.0 / 3.0) == pytest.approx(
        1.3337654119865912, rel=1e-9
    )
    assert sample.n_start == ladder_start(1e5)


def test_resolvent_norm_inverts_sigma_min(couette):
    sample = resolvent_sample(couette, ss.SpectralParams(0.0, 1e4, 0.0), "schrodinger")
    assert sample.norm_inv == pytest.approx(1.0 / sample.sigma_min, rel=1e-12)


def test_dirichlet_norms_match_explicit_inverse(cubic01):
    # Dual route: build the weighted solution operator explicitly and take
    # its largest singular value.
    grid = ss.build_grid(96)
    params = ss.SpectralParams(0.0, 500.0, 0.1)
    op = ss.assemble_schrodinger(cubic01, params, grid)
    nums = resolvent_numbers(op)
    w_int = np.sqrt(grid.weights[1:-1])
    sol = np.linalg.inv(op.matrix)
    weighted = (w_int[:, None] * sol) / w_int[None, :]
    direct = np.linalg.svd(weighted, compute_uv=False)[0]
    assert nums["norm_inv"] == pytest.approx(direct, rel=1e-10)
    dsol = grid.d1[:, 1:-1] @ sol
    weighted_d = (np.sqrt(grid.weights)[:, None] * dsol) / w_int[None, :]
    direct_d = np.linalg.svd(weighted_d, compute_uv=False)[0]
    assert nums["norm_d_inv"] == pytest.approx(direct_d, rel=1e-10)


def test_clamped_norms_match_unequilibrated_route_at_small_n(couette):
    # At modest degree the row scales are tame enough that a plain inverse
    # agrees with the equilibrated path to many digits.
    grid = ss.build_grid(128)
    params = ss.SpectralParams(1.0, 1e4, 0.05)
    op = ss.assemble_orr_sommerfeld(couette, params, grid)
    nums = resolvent_numbers(op)
    keep = ~op.bc_rows
    sol = np.linalg.inv(op.matrix)[:, keep]
    w_out = np.sqrt(grid.weights)
    w_in = np.sqrt(grid.weights[keep])
    direct = np.linalg.svd((w_out[:, None] * sol) / w_in[None, :], compute_uv=False)[0]
    assert nums["norm_inv"] == pytest.approx(direct, rel=1e-8)


def test_rayleigh_shifted_on_spectrum_is_singular(couette):
    # At lam = 0 the advective factor U vanishes at the channel centre, which
    # is a collocation node for even degree: the matrix has a zero row.
    op = ss.assemble_rayleigh_shifted(
        couette, ss.SpectralParams(1.0, 0.0, 0.0), ss.build_grid(64)
    )
    nums = resolvent_numbers(op)
    assert nums["singular"]
    assert math.isinf(nums["norm_inv"])


def test_resolvent_sample_validation(couette):
    with pytest.raises(ValueError):
        resolvent_sample(couette, ss.SpectralParams(0.0, 1e4, 0.0), "heat_kernel")


def test_orr_sommerfeld_ladder_converges_in_one_doubling(couette):
    ups = ss.margin_constant()
    beta = 1e4
    lam = ups * beta ** (-1.0 / 3.0)
    sample = resolvent_sample(
        couette, ss.SpectralParams(1.0, beta, lam), "orr_sommerfeld"
    )
    assert sample.converged
    assert sample.n_used == 2 * sample.n_start
    assert sample.combined * beta ** (5.0 / 6.0) == pytest.approx(2.9416, abs=2e-3)


def test_pseudospectrum_grid_layout(couette):
    mus = np.array([-0.4, -0.2])
    nus = np.array([0.05, 0.1, 0.2])
    grid = pseudospectrum_grid(couette, "schrodinger", 0.0, 1e4, mus, nus)
    assert grid.norms.shape == (3, 2)
    assert len(grid.samples) == 6
    # samples enumerate nu-major: all mus at nus[0], then nus[1], ...
    lams = [s.lam for s in grid.samples]
    expected = [complex(m, v) for v in nus for m in mus]
    assert lams == expected
    # norms agree with the recorded samples
    for k, s in enumerate(grid.samples):
        i, j = divmod(k, len(mus))
        assert grid.norms[i, j] == s.norm_inv
    assert all(s.converged for s in grid.samples)


def test_rayleigh_shifted_pseudospectrum_samples(couette):
    grid = pseudospectrum_grid(
        couette, "rayleigh_shifted", 1.0, 0.0, (0.5, -2.0), (0.0, 0.1)
    )
    assert len(grid.samples) == 4
    assert all(s.kind == "rayleigh_shifted" for s in grid.samples)
    assert all(s.beta == 0.0 for s in grid.samples)
    assert all(s.converged for s in grid.samples)
    lams = [s.lam for s in grid.samples]
    assert lams == [0.5 + 0.0j, -2.0 + 0.0j, 0.5 + 0.1j, -2.0 + 0.1j]
    # shifts further from the spectrum have smaller resolvent norm
    assert grid.norms[0, 1] < grid.norms[0, 0]


# --- one LU per rung: Lanczos on the matrix step and on the DCT step ---------

DENSE_N = 64
LANCZOS_N = 512


def _weighted_top_sv(rows_w, mat, cols_w):
    return np.linalg.svd((rows_w[:, None] * mat) / cols_w[None, :], compute_uv=False)[0]


@pytest.mark.parametrize("n", [DENSE_N, LANCZOS_N])
def test_dirichlet_norms_match_explicit_inverse_on_both_routes(cubic01, n):
    grid = ss.build_grid(n)
    beta = (n / 8.0) ** 3
    params = ss.SpectralParams(0.0, beta, 0.02 + 0.1j)
    op = ss.assemble_schrodinger(cubic01, params, grid)
    nums = resolvent_numbers(op)
    assert not nums["singular"]
    w_int = np.sqrt(grid.weights[1:-1])
    sol = np.linalg.inv(op.matrix)
    direct = _weighted_top_sv(w_int, sol, w_int)
    direct_d = _weighted_top_sv(np.sqrt(grid.weights), grid.d1[:, 1:-1] @ sol, w_int)
    assert nums["norm_inv"] == pytest.approx(direct, rel=1e-10)
    assert nums["norm_d_inv"] == pytest.approx(direct_d, rel=1e-10)
    assert nums["sigma_min"] == 1.0 / nums["norm_inv"]


@pytest.mark.parametrize("n", [DENSE_N, LANCZOS_N])
def test_clamped_norms_match_explicit_inverse_on_both_routes(cubic01, n):
    # Reference: explicit inverse of the row-equilibrated bordered matrix and
    # full SVDs of the weighted solution operators.
    grid = ss.build_grid(n)
    beta = (n / 8.0) ** 3
    params = ss.SpectralParams(1.0, beta, 0.5 * beta ** (-1.0 / 3.0))
    op = ss.assemble_orr_sommerfeld(cubic01, params, grid)
    nums = resolvent_numbers(op)
    assert not nums["singular"]
    keep = ~op.bc_rows
    d = 1.0 / np.max(np.abs(op.matrix), axis=1)
    sol = np.linalg.inv(d[:, None] * op.matrix)[:, keep] * d[keep][None, :]
    w_out = np.sqrt(grid.weights)
    w_in = np.sqrt(grid.weights[keep])
    direct = _weighted_top_sv(w_out, sol, w_in)
    direct_d = _weighted_top_sv(w_out, grid.d1 @ sol, w_in)
    assert nums["norm_inv"] == pytest.approx(direct, rel=1e-8)
    assert nums["norm_d_inv"] == pytest.approx(direct_d, rel=1e-8)


# shift-map's first Lanczos rung: ladder_start(1e4)
SHIFT_MAP_N = 87


def _explicit_numbers(op):
    """(norm_inv, norm_d_inv, singular) from an explicit inverse and full
    SVDs, judged singular by the rule of resolvent_numbers: the 1-norm
    reciprocal condition number of d A, d the row scaling, below
    _SINGULAR_RTOL."""
    from shearstab.spectral import _SINGULAR_RTOL

    grid, mat = op.grid, op.matrix
    w = np.sqrt(grid.weights)
    if op.bc == "dirichlet":
        sol = np.linalg.inv(mat)
        rcond = 1.0 / (np.linalg.norm(mat, 1) * np.linalg.norm(sol, 1))
        w_in, d_sol = w[1:-1], grid.d1[:, 1:-1] @ sol
        norm_inv = _weighted_top_sv(w_in, sol, w_in)
    else:
        keep = ~op.bc_rows
        d = 1.0 / np.max(np.abs(mat), axis=1)
        scaled = d[:, None] * mat
        inv = np.linalg.inv(scaled)
        rcond = 1.0 / (np.linalg.norm(scaled, 1) * np.linalg.norm(inv, 1))
        sol = inv[:, keep] * d[keep][None, :]
        w_in, d_sol = w[keep], grid.d1 @ sol
        norm_inv = _weighted_top_sv(w, sol, w_in)
    singular = rcond < _SINGULAR_RTOL
    return norm_inv, _weighted_top_sv(w, d_sol, w_in), singular


@pytest.mark.parametrize("beta", [1e4, 1e5])
@pytest.mark.parametrize("bc", ["dirichlet", "clamped"])
def test_lanczos_norms_match_explicit_inverse_near_the_spectrum(
    couette, cubic01, bc, beta
):
    # A 3x3 patch of shifts 1e-3 apart, centred on the discrete eigenvalue
    # nearest 0.1 + 0.5i: large resolvents, as on the shift-map workload.
    assert SHIFT_MAP_N == ladder_start(1e4)
    grid = ss.build_grid(SHIFT_MAP_N)
    if bc == "dirichlet":
        profile, alpha, assemble, rel = couette, 0.0, ss.assemble_schrodinger, 1e-10
    else:
        profile, alpha, assemble, rel = cubic01, 1.0, ss.assemble_orr_sommerfeld, 1e-8

    def op_at(lam):
        return assemble(profile, ss.SpectralParams(alpha, beta, lam), grid)

    # the matrix is affine in the shift: M(lam) = M(0) + lam (M(1) - M(0))
    m0 = op_at(0.0).matrix
    eigs = eigvals(m0, m0 - op_at(1.0).matrix)
    eigs = eigs[np.isfinite(eigs)]
    centre = eigs[np.argmin(np.abs(eigs - (0.1 + 0.5j)))]
    compared = 0
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            op = op_at(centre + 1e-3 * complex(a, b))
            assert op.bc == bc
            nums = resolvent_numbers(op)
            norm_inv, norm_d_inv, singular = _explicit_numbers(op)
            assert nums["singular"] == singular, (a, b)
            if (a, b) == (0, 0):
                assert singular
            if singular:
                continue
            assert nums["norm_inv"] == pytest.approx(norm_inv, rel=rel)
            assert nums["norm_d_inv"] == pytest.approx(norm_d_inv, rel=rel)
            compared += 1
    assert compared >= 8


def _lanczos_ops(couette, cubic01):
    grid = ss.build_grid(LANCZOS_N)
    beta = (LANCZOS_N / 8.0) ** 3
    return [
        ss.assemble_schrodinger(couette, ss.SpectralParams(0.0, beta, 0.05j), grid),
        ss.assemble_orr_sommerfeld(
            cubic01, ss.SpectralParams(1.0, beta, 0.5 * beta ** (-1.0 / 3.0)), grid
        ),
    ]


def test_lanczos_norms_are_bit_identical_across_calls_and_threads(couette, cubic01):
    for op in _lanczos_ops(couette, cubic01):
        first = resolvent_numbers(op)
        again = resolvent_numbers(op)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(resolvent_numbers, op) for _ in range(2)]
            concurrent = [f.result(timeout=120) for f in futures]
        for other in [again, *concurrent]:
            assert other == first


@pytest.mark.parametrize("kind", ["schrodinger", "orr_sommerfeld"])
@pytest.mark.parametrize("n", [87, 174])
def test_lu_solver_matches_lu_solve(cubic01, kind, n):
    # a Dirichlet and a clamped rung (row-equilibrated as resolvent_numbers
    # does) at a shift of the benchmark's Orr-Sommerfeld map.  The reference
    # runs at the process's thread count: on one thread OpenBLAS getrs takes
    # another kernel, and on the clamped n = 174 rung (1-norm condition
    # about 1e6) the two differ by up to 7e-13.
    params = ss.SpectralParams(1.0, 1e4, complex(-0.1, 0.5))
    op = spectral._ASSEMBLERS[kind](cubic01, params, ss.build_grid(n))
    mat = op.matrix
    if op.bc == "clamped":
        mat = mat / np.max(np.abs(mat), axis=1)[:, None]
    lu, piv = lu_factor(mat)
    back = spectral._lu_solver(lu, piv)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(len(piv)) + 1j * rng.standard_normal(len(piv))
    kept = b.copy()
    for trans in (0, 2):
        got, ref = back(b, trans), lu_solve((lu, piv), b, trans=trans)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(b, kept)        # a vector is not overwritten


@pytest.fixture
def blas_counts():
    counts = spectral._openblas_counts()
    if not counts:
        pytest.skip("no OpenBLAS thread-count entry points in this process")
    saved = [get() for get, _ in counts]
    yield counts
    for (_, set_count), count in zip(counts, saved):
        set_count(count)


def test_drivers_give_the_same_bits_on_one_and_two_blas_threads(blas_counts, couette, cubic01):
    # each driver at settings whose outputs move with the thread count when
    # it is not held at one
    runs = {
        "pseudo": lambda: pseudospectrum_grid(
            couette, "rayleigh_shifted", 1.0, 1e4, [-0.15, 0.12], [-0.7, 0.6]
        ),
        "os-boundary": lambda: ss.os_boundary_sweep(cubic01, betas=(1e4, 10**4.5)),
        "schrodinger": lambda: ss.schrodinger_sweep(couette, betas=(1e3, 10**3.5)),
        "l1-approx": lambda: ss.l1_approximation_sweep(ss.tanh_shear(1.0), betas=(1e4,)),
        "rayleigh-scan": lambda: ss.rayleigh_spectrum_scan(ss.tanh_shear(3.0), 1.0),
        "certify": lambda: ss.certify_profile(ss.tanh_shear(2.0)),
    }
    results = {name: [] for name in runs}
    for count in (2, 1):
        for _, set_count in blas_counts:
            set_count(count)
        for name, run in runs.items():
            results[name].append(pickle.dumps(run()))
            assert [get() for get, _ in blas_counts] == [count] * len(blas_counts), name
    for name, (two, one) in results.items():
        assert two == one, name


def test_rayleigh_shifted_on_spectrum_is_singular_above_crossover(couette):
    # Even degree: the centre node is a collocation point, where U + i*lam = 0
    # leaves an exactly zero row.
    op = ss.assemble_rayleigh_shifted(
        couette, ss.SpectralParams(1.0, 0.0, 0.0), ss.build_grid(LANCZOS_N)
    )
    nums = resolvent_numbers(op)
    assert nums["singular"]
    assert math.isinf(nums["norm_inv"])
    assert math.isinf(nums["norm_d_inv"])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_operator_raises_above_crossover(couette, cubic01, bad):
    for op in _lanczos_ops(couette, cubic01):
        mat = op.matrix.copy()
        mat[LANCZOS_N // 3, LANCZOS_N // 2] = bad
        with pytest.raises(ValueError):
            resolvent_numbers(dataclasses.replace(op, matrix=mat))


def test_refine_ladder_rules():
    from shearstab.spectral import _refine

    seen = []

    def evaluate(n):
        seen.append(n)
        return 1.0 / n

    # agreement on the second pair returns the finer rung, converged
    value, n, converged = _refine(evaluate, 16, lambda p, c: abs(c - p) < 0.02)
    assert (seen, value, n, converged) == ([16, 32, 64], 1.0 / 64, 64, True)
    # no agreement: the ladder stops at N_MAX, its last rung unconverged
    seen.clear()
    assert _refine(evaluate, 16, lambda p, c: False) == (1.0 / N_MAX, N_MAX, False)
    assert seen == [16, 32, 64, 128, 256, 512, 1024, 2048]
    # a start whose doubling would pass N_MAX: one rung, unconverged
    seen.clear()
    assert _refine(evaluate, 1536, lambda p, c: True) == (1.0 / 1536, 1536, False)
    assert seen == [1536]


# --- Golub-Kahan-Lanczos on operators with known singular values -------------


def _synthetic(singular_values, m=40, k=30, seed=5):
    """A = Q1 diag(s) Q2^H with random unitary Q1 (m x m) and Q2 (k x k)."""
    rng = np.random.default_rng(seed)

    def unitary(size):
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        q, _ = np.linalg.qr(z)
        return q

    s = np.zeros((m, k))
    rank = len(singular_values)
    s[np.arange(rank), np.arange(rank)] = singular_values
    q2 = unitary(k)
    return unitary(m) @ s @ q2.conj().T, q2


def _run_top_singular(a, v0):
    from shearstab.spectral import _top_singular

    steps = []

    def apply(x):
        steps.append(1)
        return a @ x

    theta, v = _top_singular(apply, lambda y: a.conj().T @ y, v0)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.linalg.norm(a @ v) == pytest.approx(theta, rel=1e-12)
    return theta, len(steps)


RAMP = np.linspace(1.0, 2.0, 30).astype(complex)
CLUSTER = [1.0, 1.0 - 1e-8] + list(np.linspace(0.9, 0.1, 28))


def test_top_singular_lands_inside_a_close_cluster():
    # From a generic start one Krylov sequence cannot split 1 and 1 - 1e-8
    # before the bound on the tail is met: the value is a mixture of the two,
    # inside the cluster, and the tail error is below the bound.
    a, _ = _synthetic(CLUSTER)
    theta, _ = _run_top_singular(a, RAMP)
    assert CLUSTER[1] * (1.0 - 1e-12) <= theta <= CLUSTER[0] * (1.0 + 1e-12)


def test_top_singular_resolves_a_cluster_it_has_split():
    # A start in the span of the two cluster vectors: the second step sees
    # both, the Ritz gap drops to 1e-8, and the bound holds the recurrence
    # until r <= 3e-11.  Stopping on one Ritz value would return the mixture.
    a, q2 = _synthetic(CLUSTER)
    theta, _ = _run_top_singular(a, q2[:, 0] + 2.0 * q2[:, 1])
    assert theta == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("in_range", [False, True])
def test_top_singular_stops_on_breakdown(in_range):
    # Rank 3: a generic start also has a null-space part, so alpha breaks
    # down at step 4; a start inside the range makes beta break down at 3.
    a, q2 = _synthetic([3.0, 2.0, 1.0])
    v0 = q2[:, :3] @ np.array([1.0, 1.0, 1.0]) if in_range else RAMP
    theta, steps = _run_top_singular(a, v0)
    assert theta == pytest.approx(3.0, rel=1e-12)
    assert steps == (3 if in_range else 4)


def test_top_singular_of_a_zero_operator_returns_the_unit_start():
    # A v0 = 0 exactly: theta is 0, and the right vector is the normalized
    # start, so a ladder never hands the next rung a zero warm start.
    from shearstab.spectral import _top_singular

    a = np.zeros((40, 30), dtype=complex)
    theta, v = _top_singular(lambda x: a @ x, lambda y: a.conj().T @ y, RAMP)
    assert (theta, v.tolist()) == (0.0, (RAMP / np.linalg.norm(RAMP)).tolist())


def test_a_clustered_rung_matches_its_explicit_svds(couette):
    # A dominant real shift clusters the top singular values of the solve
    # (1/1002.5, 1/1009.9, ...): the recurrence runs past its first 60
    # steps until its gap bound holds, and the ladder converges at 128.
    params = ss.SpectralParams(0.0, 1.0, -1000.0)
    sample = resolvent_sample(couette, params, "schrodinger")
    assert (sample.n_used, sample.converged, sample.singular) == (128, True, False)
    assert sample.norm_inv == pytest.approx(9.9754e-4, rel=1e-4)
    op = ss.assemble_schrodinger(couette, params, ss.build_grid(128))
    nums = resolvent_numbers(op)
    norm_inv, norm_d_inv, singular = _explicit_numbers(op)
    assert nums["singular"] is False and not singular
    assert nums["norm_inv"] == pytest.approx(norm_inv, rel=1e-12, abs=0.0)
    assert nums["norm_d_inv"] == pytest.approx(norm_d_inv, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("route, size", [("dense", 192), ("galerkin", 194)])
def test_a_clustered_rung_past_the_matrix_steps_is_measured(
    couette, explicit_galerkin_norms, monkeypatch, route, size
):
    # Couette at beta 1e4, lam -100: the top singular values of the solve
    # cluster so tightly that the first recurrence fills its Krylov space,
    # one step per datum of n = 193: its 192 interior nodes on the dense
    # route, its 194 Legendre coefficients on the Galerkin one.  The rung is
    # measured, not singular, and its norms equal the SVDs of its explicit
    # solution operator.
    params, grid = ss.SpectralParams(0.0, 1e4, -100.0), ss.build_grid(_MATRIX_STEP_MAX_DEGREE + 1)
    steps, top_singular = [], spectral._top_singular

    def counted(apply, apply_h, v0):
        steps.append(0)

        def step(x):
            steps[-1] += 1
            return apply(x)

        return top_singular(step, apply_h, v0)

    monkeypatch.setattr(spectral, "_top_singular", counted)
    if route == "galerkin":
        nums = spectral._galerkin_numbers(couette, params, "schrodinger", grid, None)
        norm_inv, norm_d_inv = explicit_galerkin_norms("schrodinger", couette, params, grid)
    else:
        op = ss.assemble_schrodinger(couette, params, grid)
        nums = resolvent_numbers(op)
        norm_inv, norm_d_inv, singular = _explicit_numbers(op)
        assert not singular
    assert steps[0] == size
    assert nums["singular"] is False
    assert nums["norm_inv"] == pytest.approx(norm_inv, rel=1e-12, abs=0.0)
    assert nums["norm_d_inv"] == pytest.approx(norm_d_inv, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta, lam", [(1e4, -100.0), (1e5, -10.0)])
def test_a_far_left_shift_reaches_the_supremum_of_its_derivative_norm(couette, beta, lam):
    # Couette Schrodinger with Dirichlet walls and lam real, far left: from
    # ||u'||^2 + b |lam| ||u||^2 = Re (f, u), ||u'|| <= ||f|| / (2 sqrt(b |lam|)),
    # and the ladder converges to that bound
    sample = resolvent_sample(couette, ss.SpectralParams(0.0, beta, lam), "schrodinger")
    assert sample.converged and not sample.singular
    assert sample.norm_d_inv == pytest.approx(1.0 / (2.0 * math.sqrt(beta * abs(lam))), rel=1e-3)


@pytest.mark.parametrize("lam", [-0.2 + 0.5j, -0.2 - 0.5j])
def test_a_marginal_rung_measures_its_derivative_norm(couette, lam):
    # Couette Schrodinger at beta 5e4 on the ladder's first rung, n = 148,
    # against collocation's 5.0000e-3 at the same degree; a discretization
    # that measures its data by node values but solves for their
    # interpolant read 5.6057e-3 here
    params = ss.SpectralParams(0.0, 5e4, lam)
    assert ladder_start(params.beta) == 148
    nums = spectral._galerkin_numbers(couette, params, "schrodinger", ss.build_grid(148), None)
    assert nums["norm_d_inv"] == pytest.approx(5.0000e-3, rel=1e-6)


def _top_ritz(alphas: np.ndarray, betas: np.ndarray):
    """theta_1, theta_2 (for j >= 1), p_j and q of B = diag(alphas) +
    diag(betas, 1), as in ``_top_singular``, from the top two eigenpairs of
    the Golub-Kahan tridiagonal of [[0, B], [B^T, 0]]: zero diagonal,
    off-diagonal (alpha_0, beta_0, ..., alpha_j), eigenvalues +-sigma_i and
    top eigenvector (q_0, p_0, q_1, p_1, ...) / sqrt(2) (``_ritz_pairs``)."""
    off = np.zeros(2 * alphas.shape[0])
    off[0::2], off[1:-1:2] = alphas, betas
    vals, vecs = spectral._ritz_pairs(off)
    top = math.sqrt(2.0) * vecs[:, 1]
    return vals[1], vals[0], top[-1], top[0::2]


@pytest.mark.parametrize("breakdown", [False, True])
def test_tridiagonal_ritz_step_matches_the_bidiagonal_svd(breakdown):
    # The Golub-Kahan tridiagonal gives theta_1, theta_2, the last entry of
    # the top left vector and the top right vector of the bidiagonal B.
    rng = np.random.default_rng(23)
    for k in [1, 2, 3, *rng.integers(4, 62, size=20)]:
        alphas, betas = rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2.0, k - 1)
        if breakdown and k > 1:
            alphas[-1] = 0.0        # the step where alpha broke down
        left, sigma, right_h = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        theta, theta_2, p_j, q = _top_ritz(alphas, betas)
        assert theta == pytest.approx(sigma[0], rel=1e-13, abs=1e-14)
        if k > 1:
            assert theta_2 == pytest.approx(sigma[1], rel=1e-13, abs=1e-14)
        gap = sigma[0] - (sigma[1] if k > 1 else 0.0)
        tol = 1e-14 / gap + 1e-13
        assert abs(abs(p_j) - abs(left[-1, 0])) <= tol
        sign = 1.0 if q @ right_h[0] > 0.0 else -1.0
        assert np.max(np.abs(sign * q - right_h[0])) <= tol


def _reference_top_singular(apply, apply_h, v0):
    """``_top_singular`` as one loop that keeps alphas and betas apart and
    calls ``_top_ritz(alphas[: j + 1], betas[:j])`` at every step, with
    ``np.linalg.norm`` and bases of ``len(v0)`` rows from the start: the
    bits the running tridiagonal and the doubling bases must keep."""
    from shearstab.spectral import _GKL_RTOL, _orthogonalize
    from scipy.linalg import get_blas_funcs

    steps = v0.shape[0]
    vs = np.zeros((steps + 1, v0.shape[0]), dtype=v0.dtype)
    vs[0] = v0 / np.linalg.norm(v0)
    u = apply(vs[0])
    us = np.zeros((steps, u.shape[0]), dtype=u.dtype)
    (gemv,) = get_blas_funcs(("gemv",), (vs, us))
    alphas, betas = np.zeros(steps), np.zeros(steps)
    theta = 0.0
    for j in range(steps):
        u = _orthogonalize(u, us[:j], gemv)
        alphas[j] = np.linalg.norm(u)
        if alphas[j] > _GKL_RTOL * theta:
            us[j] = u / alphas[j]
            p = _orthogonalize(apply_h(us[j]), vs[: j + 1], gemv)
            betas[j] = np.linalg.norm(p)
        else:
            alphas[j] = 0.0
        head, tail = alphas[: j + 1].copy(), betas[:j].copy()
        theta, theta_2, p_j, q = _top_ritz(alphas[: j + 1], betas[:j])
        assert np.array_equal(alphas[: j + 1], head) and np.array_equal(betas[:j], tail)
        r = betas[j] * abs(p_j)
        if j + 1 == steps or betas[j] <= _GKL_RTOL * theta or (
            j and r * r <= _GKL_RTOL * theta * (theta - theta_2)
        ):
            return float(theta), (q @ vs[: j + 1] if theta else vs[0])
        vs[j + 1] = p / betas[j]
        u = apply(vs[j + 1])


@pytest.mark.parametrize(
    "values, start",
    [
        (CLUSTER, "ramp"),
        (CLUSTER, "split"),
        ([3.0, 2.0, 1.0], "ramp"),
        ([3.0, 2.0, 1.0], "split"),
        (list(np.linspace(2.0, 0.1, 30)), "ramp"),
        ([0.0], "ramp"),
    ],
)
@pytest.mark.parametrize("start_rows", [spectral._GKL_START_ROWS, 1])
def test_top_singular_keeps_the_bits_of_a_ritz_step_per_iteration(
    monkeypatch, values, start, start_rows
):
    # The running Golub-Kahan tridiagonal, the inline norms and the late top
    # Ritz vector give the same bits as a fresh _top_ritz call on the
    # alphas and betas at every step, on the synthetic operators (cluster,
    # breakdown of alpha and of beta, a spread spectrum, zero), also when
    # bases that start with one row double whenever they are full.
    from shearstab.spectral import _top_singular

    monkeypatch.setattr(spectral, "_GKL_START_ROWS", start_rows)
    a, q2 = _synthetic(values)
    v0 = RAMP if start == "ramp" else (q2[:, :3] @ np.array([1.0, 2.0, 1.0])).astype(complex)
    ops = (lambda x: a @ x, lambda y: a.conj().T @ y, v0)
    theta, v = _top_singular(*ops)
    ref_theta, ref_v = _reference_top_singular(*ops)
    assert (type(theta), theta.hex()) == (float, ref_theta.hex())
    assert v.tobytes() == ref_v.tobytes()


def test_ritz_pairs_ignore_the_entry_past_the_tridiagonal():
    # scipy's dstemr reads the last entry of e, and writes into e: a caller's
    # running array keeps its values, and a nonzero entry past the
    # tridiagonal leaves the eigenpairs unchanged
    from shearstab.spectral import _ritz_pairs

    rng = np.random.default_rng(10)
    off = np.zeros(10)
    off[:-1] = rng.uniform(0.5, 2.0, 9)
    kept = off.copy()
    vals, vecs = _ritz_pairs(off)
    assert np.array_equal(off, kept)
    off[-1] = 3.0
    again = _ritz_pairs(off)
    assert np.array_equal(again[0][:2], vals[:2]) and np.array_equal(again[1], vecs)
    ref = np.linalg.eigvalsh(np.diag(kept[:-1], 1) + np.diag(kept[:-1], -1))
    assert vals[:2] == pytest.approx(ref[-2:], rel=1e-13)


def _bits(sample):
    return [repr(v) for v in dataclasses.astuple(sample)]


@pytest.mark.parametrize("beta", [1e4, 5e4])
@pytest.mark.parametrize(
    "kind, profile, alpha",
    [("schrodinger", ss.couette(), 0.0), ("orr_sommerfeld", ss.cubic(0.1), 1.0)],
)
def test_a_map_sample_does_not_depend_on_the_map(rung_caches, kind, profile, alpha, beta):
    # The shifts of a map share each rung's shift-free parts.  Every sample
    # of a 3x3 map equals, field for field and bit for bit, the same shift
    # sampled alone with every such part built cold: ladders 87 -> 174 at
    # beta 1e4, and 148 -> 296 at 5e4
    mus, nus = np.linspace(-0.2, 0.2, 3), np.linspace(-1.0, 1.0, 3)
    for cache in rung_caches:
        cache.clear()
    samples = pseudospectrum_grid(profile, kind, alpha, beta, mus, nus).samples
    assert {s.n_start for s in samples} == {ladder_start(beta)}
    assert 2 * ladder_start(beta) in {s.n_used for s in samples}
    for sample in samples:
        for cache in rung_caches:
            cache.clear()
        with spectral._one_blas_thread():      # as pseudospectrum_grid runs
            alone = resolvent_sample(profile, ss.SpectralParams(alpha, beta, sample.lam), kind)
        assert _bits(alone) == _bits(sample)


def test_rung_caches_hold_one_ladder_after_a_sweep(rung_caches, cpus, cubic01):
    # the Galerkin parts cache keeps the rungs of the latest ladder that
    # used it: one key, degrees one doubling chain.  The last ladder of the
    # default os-boundary sweep (beta 1e7) is 862 -> 1724, and no rung of
    # the sweep builds collocation node values.  On one CPU, so every
    # ladder runs in this process.
    from shearstab import galerkin

    cpus(1)
    for cache in rung_caches:
        cache.clear()
    ss.os_boundary_sweep(cubic01)
    assert {key for key, _ in galerkin._PARTS} == {("orr_sommerfeld", cubic01)}
    assert sorted(n for _, n in galerkin._PARTS) == [862, 1724]
    assert not operators._NODE_VALUES


@pytest.mark.parametrize(
    "kind, profile, alpha",
    [("schrodinger", ss.couette(), 0.0), ("orr_sommerfeld", ss.cubic(0.1), 1.0)],
)
def test_warm_start_matches_cold_start_on_the_top_rung(kind, profile, alpha):
    # The 862 -> 1724 rung pair of a beta = 1e7 ladder: the warm start
    # zero-pads the 863 Legendre coefficients of the lower rung's vectors
    from shearstab.spectral import _galerkin_numbers, _StartVectors

    beta = 1e7
    assert ladder_start(beta) == 862
    lam = 0.0 if kind == "schrodinger" else ss.margin_constant() * beta ** (-1.0 / 3.0)
    params = ss.SpectralParams(alpha, beta, lam)
    lower, top = ss.build_grid(862), ss.build_grid(1724)
    start = _StartVectors()
    _galerkin_numbers(profile, params, kind, lower, start)
    assert [f.shape for f in start.values] == [(863,), (863,)]
    warm = _galerkin_numbers(profile, params, kind, top, start)
    cold = _galerkin_numbers(profile, params, kind, top, None)
    assert set(warm) == set(cold)
    assert warm["singular"] == cold["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert warm[key] == pytest.approx(cold[key], rel=1e-11)


@pytest.mark.parametrize("n", [LADDER_FLOOR, 87, _MATRIX_STEP_MAX_DEGREE])
def test_d1_step_matches_the_dct_derivative(n):
    # the dense route's matrix step: d1 and its transpose, each one real
    # product on a complex vector, against the DCT derivative they replace
    grid = ss.build_grid(n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    for fast, ref in ((_real_matmul(grid.d1, f), _derivative(f)),
                      (_real_matmul(grid.d1.T, f), _derivative_t(f))):
        assert np.linalg.norm(fast - ref) <= 1e-13 * np.linalg.norm(ref)
    real = f.real.copy()
    assert np.array_equal(_real_matmul(grid.d1, real), grid.d1 @ real)


def test_real_matmul_matches_matmul_along_axis_0():
    # one real product on the real and imaginary parts side by side, for a
    # vector, a C-ordered block and a Fortran-ordered one (as gbtrs returns)
    rng = np.random.default_rng(41)
    mat = rng.standard_normal((7, 5))
    vector = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    block = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for x in (vector, block, np.asfortranarray(block)):
        got = _real_matmul(mat, x)
        assert got.shape == (7,) + x.shape[1:]
        assert np.linalg.norm(got - mat @ x) <= 1e-15 * np.linalg.norm(mat @ x)


def _rayleigh_reference(profile, alpha, grid):
    """diag(U) + diag(U'') inv(H) with one dense inverse of H = -d2 + a^2."""
    x = grid.nodes[1:-1]
    mat = inv(-grid.d2[1:-1, 1:-1] + alpha**2 * np.eye(len(x)))
    mat *= profile.deriv(x, 2)[:, None]
    mat[np.diag_indices_from(mat)] += profile.u(x)
    return mat


def test_rayleigh_without_parity_takes_the_general_route():
    # c2 != 0: U is not odd, so the matrix is the one dense inverse of H and
    # the spectrum the one dense solve, bit for bit
    profile = ss.polynomial((0.0, 1.0, 0.01, 0.0, 0.0, 0.05))
    grid = ss.build_grid(128)
    op = ss.assemble_rayleigh(profile, 1.0, grid)
    np.testing.assert_array_equal(op.matrix, _rayleigh_reference(profile, 1.0, grid))
    np.testing.assert_array_equal(
        ss.eigenvalues(op), np.sort_complex(eigvals(op.matrix))
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_map_deals_items_round_robin_and_keeps_their_order(cpus):
    forks = cpus(3)
    ran = spectral._forked_map(lambda x: (x, os.getpid()), range(7))
    assert [x for x, _ in ran] == list(range(7))
    assert [pid for _, pid in ran] == [os.getpid(), *forks] * 2 + [os.getpid()]
    assert len(forks) == 2
    assert spectral._forked_map(lambda x: x, []) == []
    assert spectral._forked_map(lambda x: -x, [5]) == [-5]
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize(
    "kind, profile, alpha",
    [("schrodinger", ss.couette(), 0.0), ("orr_sommerfeld", ss.cubic(0.1), 1.0)],
)
def test_forked_map_equals_the_serial_map(cpus, kind, profile, alpha):
    # an 8x8 map over the outer rectangle of the benchmark's shift maps
    mus, nus = np.linspace(-0.2, 0.2, 8), np.linspace(-1.0, 1.0, 8)
    maps = []
    for count in (2, 1):
        forks = cpus(count)
        grid = pseudospectrum_grid(profile, kind, alpha, 1e4, mus, nus)
        assert len(forks) == 1
        maps.append(([_bits(s) for s in grid.samples], grid.norms))
    assert maps[0][0] == maps[1][0]
    np.testing.assert_array_equal(maps[0][1], maps[1][1])
    _no_child_left()


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize(
    "failures",
    [
        # item 3 is the child's, item 6 the caller's, and the reverse
        {3: profile.DomainError("at 3"), 6: operators.InflectionError("at 6")},
        {2: profile.MonotonicityError("at 2"), 5: np.linalg.LinAlgError("at 5")},
    ],
)
def test_a_failing_map_raises_the_earliest_failure(monkeypatch, cpus, couette, count, failures):
    mus, nus = np.linspace(-0.2, 0.2, 3), np.linspace(-1.0, 1.0, 3)
    lams = [complex(mu, nu) for nu in nus for mu in mus]

    def sample(profile, params, kind):
        item = lams.index(params.lam)
        if item in failures:
            raise failures[item]
        return spectral.ResolventSample(kind, 0.0, 1e4, params.lam, 8, 8, True, False, 1, 1, 1)

    monkeypatch.setattr(spectral, "resolvent_sample", sample)
    forks = cpus(count)
    first = failures[min(failures)]
    with pytest.raises(type(first), match=f"^{first}$"):
        pseudospectrum_grid(couette, "schrodinger", 0.0, 1e4, mus, nus)
    assert len(forks) == count - 1
    _no_child_left()


def test_a_worker_that_ends_without_results_raises(cpus):
    forks = cpus(2)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        spectral._forked_map(lambda x: os._exit(3) if x == 1 else x, range(4))
    assert len(forks) == 1
    _no_child_left()


def test_forked_map_stays_serial_beside_another_thread(cpus, couette):
    # a child could inherit a lock that the other thread holds
    forks = cpus(2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        grid = pseudospectrum_grid(couette, "schrodinger", 0.0, 1e4, [-0.1, 0.1], [0.5])
    finally:
        stop.set()
        other.join()
    assert len(grid.samples) == 2
    assert forks == []


def test_resolvent_sample_runs_on_one_blas_thread(blas_counts, couette):
    # a 3x3 Couette map at beta 5e4, where most direct calls on two OpenBLAS
    # threads differed from the map's samples in their last digits
    for _, set_count in blas_counts:
        set_count(2)
    mus, nus = np.linspace(-0.2, 0.2, 3), np.linspace(-1.0, 1.0, 3)
    grid = pseudospectrum_grid(couette, "schrodinger", 0.0, 5e4, mus, nus)
    for sample in grid.samples:
        alone = resolvent_sample(couette, ss.SpectralParams(0.0, 5e4, sample.lam), "schrodinger")
        assert _bits(alone) == _bits(sample)
    assert [get() for get, _ in blas_counts] == [2] * len(blas_counts)


def test_one_blas_thread_sets_only_counts_above_one(monkeypatch):
    # a set after a fork restarts OpenBLAS's pool, so a count already at one
    # is left alone, and so is every count inside a nested guard
    counts, sets = [1, 2], []

    def setter(i):
        def set_count(count):
            sets.append((i, count))
            counts[i] = count

        return set_count

    fake = tuple((lambda i=i: counts[i], setter(i)) for i in range(2))
    monkeypatch.setattr(spectral, "_openblas_counts", lambda: fake)
    with spectral._one_blas_thread():
        assert counts == [1, 1]
        with spectral._one_blas_thread():
            pass
        assert sets == [(1, 1)]
    assert sets == [(1, 1), (1, 2)]
    assert counts == [1, 2]
