"""Scaling sweeps: slope fits, bound ratios, and their validation."""

import math

import numpy as np
import pytest

import shearstab as ss
from shearstab.sweeps import (
    data_preset,
    fit_slope,
    l1_approximation_sweep,
    margin_constant,
    os_boundary_sweep,
    os_large_alpha_sweep,
    os_large_lambda_check,
    schrodinger_sweep,
    weighted_data_sweep,
)


def test_fit_slope_recovers_power_law():
    xs = np.logspace(2, 6, 9)
    ys = 3.7 * xs ** (-0.825)
    fit = fit_slope(xs, ys)
    assert fit.slope == pytest.approx(-0.825, abs=1e-12)
    assert fit.rms_residual < 1e-12
    assert fit.n_points == 9


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([1e3, 1e4, 1e5], [1.0, 2.0, 3.0])  # too few points
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])  # < one decade
    with pytest.raises(ValueError):
        fit_slope([1e3, 1e4, 1e5, 1e6], [1.0, -2.0, 3.0, 4.0])  # nonpositive


def test_margin_constant_value():
    # half of min(smallest zero-free real part, half the first Airy zero)
    assert margin_constant() == pytest.approx(0.5313128979878329, abs=1e-12)
    assert margin_constant(0.9) == pytest.approx(0.9 * 1.0626257959756658, rel=1e-12)
    with pytest.raises(ValueError):
        margin_constant(0.0)
    with pytest.raises(ValueError):
        margin_constant(0.95)


def test_data_presets():
    exp = data_preset("exp")
    assert exp.name == "exp"
    assert exp.f(0.3) == pytest.approx(math.exp(0.3), rel=1e-15)
    trig_a = data_preset("trig", seed=7)
    trig_b = data_preset("trig", seed=7)
    assert trig_a.f(0.25) == trig_b.f(0.25)
    assert trig_a.f(0.25) != data_preset("trig", seed=8).f(0.25)
    # derivative consistency of the random trig polynomial
    h = 1e-6
    fd = (trig_a.f(0.3 + h) - trig_a.f(0.3 - h)) / (2 * h)
    assert trig_a.fp(0.3) == pytest.approx(fd, abs=1e-8)
    with pytest.raises(ValueError):
        data_preset("gaussian")


def test_schrodinger_sweep_reduced_betas(couette):
    res = schrodinger_sweep(couette, betas=np.logspace(3, 5, 5))
    assert res.kind == "schrodinger"
    assert res.passed
    assert res.checks["all_converged"]
    assert res.checks["slope_in_band"]
    assert res.fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-4)
    for row in res.rows:
        assert row.metric * row.beta ** (2.0 / 3.0) == pytest.approx(
            1.3337654119865912, rel=1e-6
        )
        assert row.bound_ratio == pytest.approx(2.3815116377556658, rel=1e-6)


def test_schrodinger_sweep_rejects_shift_beyond_margin(couette):
    with pytest.raises(ValueError):
        schrodinger_sweep(couette, betas=(1e3, 1e4, 1e5, 1e6), lam=1.0)


def test_l1_approximation_sweep_frozen_ratios(couette):
    res = l1_approximation_sweep(couette)
    assert res.kind == "l1_approximation"
    assert res.passed
    assert res.checks["span_under_5"]
    got = [row.bound_ratio for row in res.rows]
    expected = [1.607043, 1.699771, 1.760515]
    np.testing.assert_allclose(got, expected, rtol=1e-5)
    assert res.span == pytest.approx(1.0955, abs=1e-3)
    assert res.bound_ratio_max == pytest.approx(1.760515, rel=1e-5)


def test_l1_approximation_other_data(couette):
    for name, seed in (("affine", None), ("trig", 20260819)):
        res = l1_approximation_sweep(couette, data=data_preset(name, seed=seed))
        assert res.passed, name
        assert res.span < 1.2


def test_l1_approximation_rejects_growing_shift(couette):
    with pytest.raises(ValueError):
        l1_approximation_sweep(couette, lam=0.1)


def test_weighted_data_sweep_frozen_ratios(couette):
    res = weighted_data_sweep(couette)
    assert res.passed
    got = [row.bound_ratio for row in res.rows]
    np.testing.assert_allclose(got, [1.112449, 1.065544, 1.037523], rtol=1e-5)
    assert res.span == pytest.approx(1.0722, abs=1e-3)


def test_os_large_lambda_span(couette):
    res = os_large_lambda_check(couette)
    assert res.passed
    assert res.checks["span_under_10"]
    assert res.span == pytest.approx(1.0017, abs=1e-3)
    got = [row.bound_ratio for row in res.rows]
    np.testing.assert_allclose(got, [0.740111, 0.740902, 0.741352], rtol=1e-5)


def test_os_large_lambda_validation(couette):
    with pytest.raises(ValueError):
        os_large_lambda_check(couette, lams=(-2.0,))  # |lam| below threshold
    with pytest.raises(ValueError):
        os_large_lambda_check(couette, lams=(30.0,))  # too close to the range of i U


def test_os_large_alpha_sweep(couette):
    res = os_large_alpha_sweep(couette, alphas=(2.0, 4.0, 8.0, 16.0), beta=1e5)
    assert res.passed
    assert res.span == pytest.approx(7.3188, abs=1e-2)


def test_os_large_alpha_validation(couette):
    with pytest.raises(ValueError):
        os_large_alpha_sweep(couette, alphas=(1.0, 2.0), beta=1e5)  # below minimum
    with pytest.raises(ValueError):
        os_large_alpha_sweep(couette, alphas=(4.0, 2.0), beta=1e5)  # not increasing


def test_os_boundary_sweep_validation(couette):
    with pytest.raises(ValueError):
        os_boundary_sweep(couette, alpha=7.0)  # above alpha_max
    with pytest.raises(ValueError):
        os_boundary_sweep(couette, betas=())


def test_sweep_result_shape(couette):
    res = os_large_lambda_check(couette)
    assert res.converged_fraction == 1.0
    assert not res.degraded
    assert res.profile_id == "couette"
    assert all(row.n_used >= 64 for row in res.rows)


def test_direct_solve_ladder_start_is_clamped_to_the_grid_cap(couette):
    # 4 * 1e9^(1/3) = 4000 lies above the 2048 cap, so ladder_start(1e9) is
    # the cap: the row is solved once there and reported unconverged, so the
    # sweep is degraded
    res = l1_approximation_sweep(couette, betas=(1e9,))
    (row,) = res.rows
    assert (row.n_used, row.converged) == (2048, False)
    assert res.degraded and not res.passed
    assert math.isfinite(row.bound_ratio) and row.bound_ratio > 0.0


@pytest.mark.parametrize(
    "sweep, empty",
    [
        (schrodinger_sweep, {"betas": ()}),
        (l1_approximation_sweep, {"betas": ()}),
        (weighted_data_sweep, {"betas": ()}),
        (os_boundary_sweep, {"betas": ()}),
        (os_large_lambda_check, {"lams": ()}),
    ],
)
def test_empty_sweep_is_rejected(couette, sweep, empty):
    with pytest.raises(ValueError, match="at least one operating point"):
        sweep(couette, **empty)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda p, b: schrodinger_sweep(p, betas=b),
        lambda p, b: os_boundary_sweep(p, betas=b),
        lambda p, b: l1_approximation_sweep(p, betas=b),
        lambda p, b: weighted_data_sweep(p, betas=b),
        lambda p, b: os_large_alpha_sweep(p, [2.0, 4.0], b[-1]),
        lambda p, b: os_large_lambda_check(p, beta=b[-1]),
    ],
    ids=["schrodinger", "os-boundary", "l1-approx", "weighted", "os-alpha", "os-lambda"],
)
def test_sweeps_refuse_beta_above_ceiling_before_any_row(couette, monkeypatch, sweep):
    from shearstab import sweeps

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(sweeps, "resolvent_sample", no_rows)
    monkeypatch.setattr(sweeps, "_refine", no_rows)
    with pytest.raises(ValueError, match="beta 1e\\+300 exceeds 1e\\+12"):
        sweep(couette, [1e4, 1e5, 1e6, 1e300])
