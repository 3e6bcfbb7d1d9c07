"""Wall-concentrated Airy modes and their operator residuals."""

import math

import mpmath
import numpy as np
import pytest

import shearstab as ss
from shearstab.airy import (
    NormalizationError,
    quasimode,
    quasimode_residual,
)
from shearstab.spectral import ladder_start, weighted_norm

mpmath.mp.dps = 40

# Matched shifts: Im(lam) sits 0.05 inside each wall velocity so the mode
# concentrates at its own wall.
LOWER = ss.SpectralParams(1.0, 1e4, 0.02 - 0.95j)
UPPER = ss.SpectralParams(1.0, 1e4, 0.02 + 0.95j)


def test_wall_value_is_exactly_one(couette, grid64):
    lower = quasimode(couette, LOWER, "lower", grid64)
    upper = quasimode(couette, UPPER, "upper", grid64)
    assert lower.samples[-1] == 1.0 + 0.0j  # node -1 is the last entry
    assert upper.samples[0] == 1.0 + 0.0j


def test_lam_side_matches_wall_shift(couette, grid64):
    qm = quasimode(couette, LOWER, "lower", grid64)
    assert qm.lam_side == pytest.approx(0.02 + 0.05j, abs=1e-15)
    assert qm.slope == 1.0
    qm = quasimode(couette, UPPER, "upper", grid64)
    assert qm.lam_side == pytest.approx(0.02 - 0.05j, abs=1e-15)


def test_cutoff_confines_mode_to_its_half(couette, grid64):
    x = grid64.nodes
    lower = quasimode(couette, LOWER, "lower", grid64, cutoff=True)
    assert np.all(lower.samples[x >= 0.0] == 0.0)
    assert np.all(lower.samples[x <= -0.5] != 0.0)
    upper = quasimode(couette, UPPER, "upper", grid64, cutoff=True)
    assert np.all(upper.samples[x <= 0.0] == 0.0)


def test_uncut_mode_decays_across_channel(couette):
    grid = ss.build_grid(512)
    params = ss.SpectralParams(1.0, 1e6, 0.02 - 0.95j)
    qm = quasimode(couette, params, "lower", grid, cutoff=False)
    mid = np.argmin(np.abs(grid.nodes))
    assert abs(qm.samples[mid]) <= 1e-6


def test_samples_match_mpmath_airy_ratio(couette):
    # Independent route: psi(x) = Ai(c[(1+x) + i lam_side]) / Ai(c i lam_side)
    # with c = beta^(1/3) e^{i pi/6} for the couette slope J = 1.
    grid = ss.build_grid(64)
    qm = quasimode(couette, LOWER, "lower", grid, cutoff=False)
    c = complex(mpmath.mpf(1e4) ** (mpmath.mpf(1) / 3) * mpmath.exp(1j * mpmath.pi / 6))
    lam_side = 0.02 + 0.05j
    z0 = c * 1j * lam_side
    denom = mpmath.airyai(z0)
    for idx in (60, 55, 48, 40):
        x = grid.nodes[idx]
        exact = complex(mpmath.airyai(c * ((1.0 + x) + 1j * lam_side)) / denom)
        got = complex(qm.samples[idx])
        assert abs(got - exact) <= 1e-10 * max(abs(exact), 1e-30), idx


def test_upper_mode_mirrors_lower_for_odd_profile(couette, grid64):
    # Couette is odd, so the upper mode at the mirrored shift is the
    # conjugate of the lower mode under x -> -x.
    lower = quasimode(couette, LOWER, "lower", grid64, cutoff=False)
    upper = quasimode(couette, UPPER, "upper", grid64, cutoff=False)
    np.testing.assert_allclose(
        upper.samples, np.conj(lower.samples[::-1]), atol=1e-14
    )


def test_quasimode_validation(couette, grid64):
    with pytest.raises(ValueError):
        quasimode(couette, LOWER, "sideways", grid64)
    with pytest.raises(ValueError):
        quasimode(couette, ss.SpectralParams(1.0, 0.0, 0.0), "lower", grid64)


def test_deep_underflow_raises_normalization_error(couette):
    grid = ss.build_grid(173)
    params = ss.SpectralParams(1.0, 1e7, 0.02 - 5.0j)
    with pytest.raises(NormalizationError):
        quasimode(couette, params, "lower", grid)


def test_samples_are_read_only(couette, grid64):
    qm = quasimode(couette, LOWER, "lower", grid64)
    with pytest.raises(ValueError):
        qm.samples[0] = 0.0


@pytest.mark.parametrize("side,params", [("lower", LOWER), ("upper", UPPER)])
def test_couette_residual_small(couette, side, params):
    grid = ss.build_grid(2 * ladder_start(params.beta))
    res = quasimode_residual(couette, params, side, grid)
    assert res.backward_relative <= 1e-8
    # linear profile: the closed-form image vanishes identically
    assert math.isinf(res.forward_relative)


@pytest.mark.parametrize("side,params", [("lower", LOWER), ("upper", UPPER)])
def test_cubic_residual_small(cubic01, side, params):
    grid = ss.build_grid(2 * ladder_start(params.beta))
    res = quasimode_residual(cubic01, params, side, grid)
    assert res.backward_relative <= 1e-6
    assert res.forward_relative <= 1e-2


def test_forward_identity_against_mpmath(cubic01):
    # The image of the uncut mode under -d2 + i b (U + i lam) has the closed
    # form i b [U - U(wall) - J (x - wall)] psi; verify the mode itself obeys
    # the Airy equation by evaluating that identity with mpmath derivatives.
    beta = 1e4
    grid = ss.build_grid(96)
    qm = quasimode(cubic01, LOWER, "lower", grid, cutoff=False)
    j = qm.slope
    lam_side = qm.lam_side
    c = complex(
        mpmath.mpf(j * beta) ** (mpmath.mpf(1) / 3) * mpmath.exp(1j * mpmath.pi / 6)
    )
    z0 = c * 1j * lam_side / j
    denom = mpmath.airyai(z0)
    psi = lambda t: mpmath.airyai(c * ((1.0 + t) + 1j * lam_side / j)) / denom
    for x in (-0.98, -0.9, -0.8):
        # psi'' = i b (J (x - wall) + i lam_side) psi: the wall velocity is
        # absorbed into lam_side, leaving a pure linear-shear equation.
        second = mpmath.diff(psi, mpmath.mpf(x), 2)
        linear = 1j * beta * (j * (x + 1.0) + 1j * complex(lam_side)) * psi(
            mpmath.mpf(x)
        )
        residual = complex(second - linear)
        scale = max(1.0, abs(complex(linear)))
        assert abs(residual) <= 1e-9 * scale, x


def test_norm_scaling_with_beta(couette):
    # With a shift pinned to the wall velocity (|lam_side| beta^(1/3) << 1)
    # the mode is an Airy profile of width beta^(-1/3), so its weighted L2
    # norm shrinks like beta^(-1/6).  Off-wall shifts instead develop an
    # oscillatory plateau of width |lam_side| and the norm saturates.
    norms = []
    for beta in (1e4, 1e6):
        grid = ss.build_grid(2 * ladder_start(beta))
        params = ss.SpectralParams(1.0, beta, 0.002 - 1.0j)
        qm = quasimode(couette, params, "lower", grid, cutoff=False)
        norms.append(weighted_norm(grid, qm.samples))
    ratio = norms[0] / norms[1]
    # beta grew by 100, so the norm should shrink by about 100^(1/6) = 2.15
    assert 1.8 <= ratio <= 2.6
