"""Shear profiles: evaluation, monotonicity, velocity inversion, inflection sets."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shearstab as ss
from shearstab.profile import (
    DomainError,
    MonotonicityError,
    eval_derivatives,
    inflection_values,
    monotonicity_margin,
    x_of_nu,
)


def test_couette_derivatives(couette):
    xs = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(couette.deriv(xs, 0), xs, atol=0)
    np.testing.assert_allclose(couette.deriv(xs, 1), 1.0, atol=0)
    for order in (2, 3, 4):
        np.testing.assert_allclose(couette.deriv(xs, order), 0.0, atol=0)


def test_cubic_derivatives(cubic01):
    xs = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(cubic01.deriv(xs, 0), xs + 0.1 * xs**3, rtol=1e-15)
    np.testing.assert_allclose(cubic01.deriv(xs, 1), 1 + 0.3 * xs**2, rtol=1e-15)
    np.testing.assert_allclose(cubic01.deriv(xs, 2), 0.6 * xs, rtol=1e-15)
    np.testing.assert_allclose(cubic01.deriv(xs, 3), 0.6, rtol=1e-15)
    np.testing.assert_allclose(cubic01.deriv(xs, 4), 0.0, atol=0)


def test_tanh_derivatives_against_mpmath(tanh3):
    mpmath.mp.dps = 40
    k = mpmath.mpf(3)
    scale = mpmath.tanh(k)
    for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
        f = lambda t: mpmath.tanh(k * t) / scale
        for order in range(5):
            exact = float(mpmath.diff(f, mpmath.mpf(x), order))
            got = float(tanh3.deriv(x, order))
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (x, order)


def test_eval_derivatives_tuple(cubic01):
    vals = eval_derivatives(cubic01, 0.5)
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.5 + 0.1 * 0.125, rel=1e-15)


def test_deriv_rejects_outside_domain(couette):
    with pytest.raises(DomainError):
        couette.deriv(1.5, 0)
    with pytest.raises(DomainError):
        couette.deriv(np.array([0.0, -1.001]), 1)


def test_monotonicity_margin_closed_forms(couette, cubic01):
    assert monotonicity_margin(couette) == pytest.approx(1.0, abs=1e-14)
    # U' = 1 + 0.3 x^2 has its minimum 1 at x = 0.
    assert monotonicity_margin(cubic01) == pytest.approx(1.0, abs=1e-12)
    # U' = K sech^2(Kx)/tanh(K) is smallest at the walls.
    k = 2.0
    t2 = ss.tanh_shear(k)
    exact = k / (math.cosh(k) ** 2 * math.tanh(k))
    assert monotonicity_margin(t2) == pytest.approx(exact, rel=1e-12)


def test_non_monotone_profiles_rejected():
    with pytest.raises(MonotonicityError):
        ss.cubic(-0.5)
    with pytest.raises(MonotonicityError):
        ss.polynomial((0.0, 1.0, 0.0, -1.0))


@pytest.mark.parametrize("k", [356.0, 400.0, 800.0])
def test_very_steep_tanh_is_rejected_without_overflow_warning(k):
    # cosh(K x)^2 overflows near the walls; U' there is 0, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MonotonicityError):
            ss.tanh_shear(k)


_FACTORIES = [
    (ss.cubic, lambda v: (v,)),
    (ss.tanh_shear, lambda v: (v,)),
    (ss.polynomial, lambda v: ((0.0, 1.0, v),)),
    (ss.polynomial, lambda v: ((0.0, v),)),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("factory,args", _FACTORIES)
def test_non_finite_parameters_rejected_before_arithmetic(factory, args, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            factory(*args(value))


@pytest.mark.parametrize(
    "factory,arg",
    [(ss.cubic, None), (ss.cubic, 10**400), (ss.tanh_shear, [2.0]), (ss.polynomial, 5)],
)
def test_non_numeric_parameters_are_value_errors(factory, arg):
    with pytest.raises(ValueError, match="must be real numbers"):
        factory(arg)


def test_parameter_ranges():
    # benchmark corners sit inside the ranges
    for k in (0.5, 8.0, 355.0):
        ss.tanh_shear(k)
    for a in (-0.3, 1.0, 1e6):
        ss.cubic(a)
    ss.polynomial((0.0, 1.0, 0.15, 0.25, 0.1, 0.1))
    ss.polynomial((0.0, 1e-6))
    ss.polynomial((0.0, 1.0, 0.0, 1e6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exceeds"):
            ss.cubic(1e300)
        with pytest.raises(ValueError, match="exceed"):
            ss.cubic(1.000001e6)
        with pytest.raises(ValueError, match="exceed"):
            ss.polynomial((0.0, 1e300))
        with pytest.raises(ValueError, match="exceed"):
            ss.polynomial((0.0, 1.0, -2e6))
        # U' below 1e-6 somewhere on [-1, 1]: the Taylor form divides by U'^2
        for coeffs in ((0.0, 1e-7), (0.0, 1e-300, 0.0, 1.0), (0.0, 1e-200)):
            with pytest.raises(MonotonicityError):
                ss.polynomial(coeffs)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        ss.polynomial(())
    with pytest.raises(ValueError):
        ss.polynomial((0.0,) * 15)
    with pytest.raises(ValueError):
        ss.tanh_shear(-1.0)


@given(nu=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_x_of_nu_roundtrip_tanh(nu):
    prof = ss.tanh_shear(2.0)
    x = x_of_nu(prof, nu)
    assert -1.0 <= x <= 1.0
    assert abs(prof.u(x) - nu) <= 1e-12


def test_x_of_nu_endpoints_exact(cubic01):
    assert x_of_nu(cubic01, -1.1) == -1.0
    assert x_of_nu(cubic01, 1.1) == 1.0
    with pytest.raises(DomainError):
        x_of_nu(cubic01, 1.2)


def test_inflection_set_couette_is_full_interval(couette):
    info = inflection_values(couette)
    assert not info.is_empty()
    assert info.points == ()
    assert info.intervals == ((-1.0, 1.0),)
    sampled = info.sample(interval_density=5)
    np.testing.assert_allclose(sampled, np.linspace(-1, 1, 5), atol=1e-15)


def test_inflection_set_cubic_single_point(cubic01):
    # U'' = 0.6 x crosses zero exactly at a scan node; the detector must not
    # miss roots that land on nodes of the scan grid.
    info = inflection_values(cubic01)
    assert len(info.points) == 1
    assert info.intervals == ()
    pt = info.points[0]
    assert abs(pt.x) <= 1e-12
    assert abs(pt.nu) <= 1e-12
    assert pt.u3 == pytest.approx(0.6, rel=1e-9)
    assert not pt.degenerate


def test_inflection_set_tanh_single_point(tanh1):
    info = inflection_values(tanh1)
    assert len(info.points) == 1
    assert abs(info.points[0].x) <= 1e-12
    assert not info.points[0].degenerate


def test_inflection_set_empty_for_convex_profile():
    # U = x + x^2/4 is monotone with U'' = 1/2 everywhere.
    prof = ss.polynomial((0.0, 1.0, 0.25))
    info = inflection_values(prof)
    assert info.is_empty()
    assert info.sample().size == 0


def test_degenerate_inflection_flagged():
    # U = x + x^4/8: U'' = 1.5 x^2 touches zero at 0 without crossing;
    # U''' (0) = 0 marks the crossing degenerate.
    prof = ss.polynomial((0.0, 1.0, 0.0, 0.0, 0.125))
    info = inflection_values(prof)
    assert len(info.points) == 1
    assert info.points[0].degenerate


def test_sample_density_validation(couette):
    info = inflection_values(couette)
    with pytest.raises(ValueError):
        info.sample(interval_density=1)


def test_id_string_and_params(cubic01, tanh1):
    assert cubic01.id_string() == "cubic(a=0.1)"
    assert cubic01.param_dict() == {"family": "cubic", "a": 0.1}
    assert tanh1.id_string() == "tanh_shear(K=1.0)"


def test_second_derivative_matches_finite_differences(tanh3):
    h = 1e-5
    for x in (-0.5, 0.2, 0.7):
        fd = (tanh3.u(x + h) - 2 * tanh3.u(x) + tanh3.u(x - h)) / h**2
        assert abs(tanh3.deriv(x, 2) - fd) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("k", [16.0, 32.0])
def test_steep_tanh_walls_are_not_flat(k):
    # U'' is about 1e-11 (K = 16) or smaller at the walls but never zero:
    # the only inflection value is nu = 0.
    info = inflection_values(ss.tanh_shear(k))
    assert info.intervals == ()
    assert [p.nu for p in info.points] == [0.0]
    assert not info.points[0].degenerate


def test_tiny_cubic_term_is_one_point_not_an_interval():
    # U''' = 6e-11 at the crossing: small, but U'' is zero only at x = 0.
    info = inflection_values(ss.polynomial((0.0, 1.0, 0.0, 1e-11)))
    assert info.intervals == ()
    assert [(p.x, p.nu) for p in info.points] == [(0.0, 0.0)]
    assert not info.points[0].degenerate
