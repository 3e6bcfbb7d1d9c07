"""Weighted norms, eigenvalue floors, and resolvent ladders."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigvals
from scipy.optimize import brentq

import shearstab as ss
from shearstab.chebdiff import N_MAX
from shearstab.operators import certificate_potential
from shearstab.spectral import (
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


# --- one LU per rung: dense SVDs below the crossover, Lanczos above ----------

DENSE_N = 64
LANCZOS_N = 512


def _weighted_top_sv(rows_w, mat, cols_w):
    return np.linalg.svd((rows_w[:, None] * mat) / cols_w[None, :], compute_uv=False)[0]


def test_route_degrees_straddle_crossover():
    from shearstab.spectral import _LANCZOS_MIN_DEGREE

    assert DENSE_N < _LANCZOS_MIN_DEGREE <= LANCZOS_N


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
    SVDs, judged singular by the rules of resolvent_numbers."""
    from shearstab.spectral import _SINGULAR_RTOL, _SOLVE_NORM_CAP

    grid, mat = op.grid, op.matrix
    w = np.sqrt(grid.weights)
    if op.bc == "dirichlet":
        sol = np.linalg.inv(mat)
        rcond = 1.0 / (np.linalg.norm(mat, 1) * np.linalg.norm(sol, 1))
        w_in, d_sol = w[1:-1], grid.d1[:, 1:-1] @ sol
        norm_inv = _weighted_top_sv(w_in, sol, w_in)
        singular = rcond < _SINGULAR_RTOL
    else:
        keep = ~op.bc_rows
        d = 1.0 / np.max(np.abs(mat), axis=1)
        sol = np.linalg.inv(d[:, None] * mat)[:, keep] * d[keep][None, :]
        w_in, d_sol = w[keep], grid.d1 @ sol
        norm_inv = _weighted_top_sv(w, sol, w_in)
        singular = norm_inv > _SOLVE_NORM_CAP
    return norm_inv, _weighted_top_sv(w, d_sol, w_in), singular


@pytest.mark.parametrize("beta", [1e4, 1e5])
@pytest.mark.parametrize("bc", ["dirichlet", "clamped"])
def test_lanczos_norms_match_explicit_inverse_near_the_spectrum(
    couette, cubic01, bc, beta
):
    # A 3x3 patch of shifts 1e-3 apart, centred on the discrete eigenvalue
    # nearest 0.1 + 0.5i: large resolvents, as on the shift-map workload.
    from shearstab.spectral import _LANCZOS_MIN_DEGREE

    assert _LANCZOS_MIN_DEGREE <= SHIFT_MAP_N == ladder_start(1e4)
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


def test_lanczos_at_the_step_cap_leaves_the_rung_unmeasurable(couette):
    # A dominant real shift clusters the top singular values of the solve
    # (1/1002.5, 1/1009.9, ...), and 60 steps cannot meet the gap bound from
    # n = 128 on: those rungs are singular, and the ladder ends unconverged
    # at the cap instead of raising.
    sample = resolvent_sample(couette, ss.SpectralParams(0.0, 1.0, -1000.0), "schrodinger")
    assert sample.singular and not sample.converged
    assert sample.n_used == N_MAX
    assert sample.norm_inv == sample.norm_d_inv == math.inf


def test_top_singular_raises_at_the_step_cap(monkeypatch):
    from shearstab import spectral

    monkeypatch.setattr(spectral, "_GKL_MAX_STEPS", 3)
    a, _ = _synthetic(CLUSTER)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        spectral._top_singular(lambda x: a @ x, lambda y: a.conj().T @ y, RAMP)


@pytest.mark.parametrize(
    "kind, profile, alpha",
    [("schrodinger", ss.couette(), 0.0), ("orr_sommerfeld", ss.cubic(0.1), 1.0)],
)
def test_warm_start_matches_cold_start_on_the_top_rung(kind, profile, alpha):
    # The 862 -> 1724 rung pair of a beta = 1e7 ladder, both on the banded
    # route.
    from shearstab.spectral import _BANDED_MIN_DEGREE, _StartVectors, _banded_numbers
    from shearstab.ultraspherical import velocity_series

    beta = 1e7
    assert _BANDED_MIN_DEGREE <= ladder_start(beta) == 862
    lam = 0.0 if kind == "schrodinger" else ss.margin_constant() * beta ** (-1.0 / 3.0)
    params = ss.SpectralParams(alpha, beta, lam)
    lower, top = ss.build_grid(862), ss.build_grid(1724)
    series = velocity_series(profile, top)
    start = _StartVectors()
    _banded_numbers(velocity_series(profile, lower), params, kind, lower, start)
    assert [f.shape for f in start.values] == [(863,), (863,)]
    warm = _banded_numbers(series, params, kind, top, start)
    cold = _banded_numbers(series, params, kind, top, None)
    assert set(warm) == set(cold)
    assert warm["singular"] == cold["singular"] is False
    for key in ("norm_inv", "norm_d_inv"):
        assert warm[key] == pytest.approx(cold[key], rel=1e-11)
