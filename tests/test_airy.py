"""Airy evaluation, the rotation identity, and tail-integral zero hunting."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

import shearstab as ss
from shearstab import airy
from shearstab.airy import (
    AI_AT_ZERO,
    AI_PRIME_AT_ZERO,
    TAIL_AT_ZERO,
    _ai,
    _box_corners,
    _f_prime,
    _hunt,
    _newton_zero,
    _radial_values,
    _tail_sum,
    airy_ai,
    airy_ai_prime,
    airy_tail_integral,
    airy_zeros,
    rotation_identity_residual,
    tail_zero_margin,
)

mpmath.mp.dps = 30

# Verified locations of every zero of the rotated tail integral inside the
# search rectangle (0.05, 10) x (-10, 10); the margin is the smallest real
# part.  Found by winding-number bisection on the Hankel kernel, verified by
# the Gauss-Legendre panel sum of `airy_tail_integral` on the AMOS kernel.
FROZEN_MARGIN = 1.0626257959756658
FROZEN_ZEROS = (
    1.0626257959756658 + 4.1288430029031975j,
    2.5026019962191395 + 6.404945421133896j,
    3.044370030763962 + 2.9846824354831867j,
    3.6759265141683213 + 8.305704748750411j,
    4.295544446445203 + 5.369789614854372j,
    5.354988051666741 + 7.3362981180897515j,
    6.306720835697342 + 9.077862528649002j,
)


def test_airy_constants_match_gamma_closed_forms():
    exact_ai = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    exact_aip = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert abs(AI_AT_ZERO - exact_ai) < 1e-15
    assert abs(AI_PRIME_AT_ZERO - exact_aip) < 1e-15
    assert abs(airy_ai(0.0) - exact_ai) < 1e-12
    assert abs(airy_ai_prime(0.0) - exact_aip) < 1e-12


def test_airy_against_mpmath_on_complex_points():
    rng = np.random.default_rng(11)
    pts = 4.0 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    for z in pts:
        exact = complex(mpmath.airyai(complex(z)))
        got = airy_ai(z)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_airy_on_negative_axis_with_signed_zero():
    # conj(-3 + 0j) is -3 - 0j: Ai and Ai' are real there, whatever the sign
    for x in (0.5, 3.0, 9.0):
        w = np.conj(np.array([complex(-x, 0.0)]))
        assert abs(airy_ai(w)[0] - float(mpmath.airyai(-x))) <= 1e-12
        assert abs(airy_ai_prime(w)[0] - float(mpmath.airyai(-x, 1))) <= 1e-12


def test_airy_zeros_against_mpmath():
    got = airy_zeros(10)
    for k, z in enumerate(got, start=1):
        exact = float(mpmath.airyaizero(k))
        assert abs(z - exact) <= 1e-10, k


def test_airy_zeros_are_actual_roots():
    for z in airy_zeros(6):
        assert abs(airy_ai(float(z))) < 1e-13


def test_airy_zeros_validation():
    with pytest.raises(ValueError):
        airy_zeros(0)
    with pytest.raises(ValueError):
        airy_zeros(51)


def test_rotation_identity_seeded_points():
    rng = np.random.default_rng(20260819)
    u = rng.random(100)
    ang = rng.random(100)
    pts = 8.0 * np.sqrt(u) * np.exp(2j * np.pi * ang)
    worst = max(rotation_identity_residual(z) for z in pts)
    assert worst <= 1e-11


def _kernel_points():
    rays = [2 * math.pi / 3 + d for d in (-1e-15, 0.0, 1e-15)]
    rays += [-r for r in rays]
    pts = [r * np.exp(1j * a) for r in (1e-8, 0.3, 2.0, 7.5, 15.0) for a in rays]
    pts += [airy._ROT3 * r for r in (1e-8, 0.5, 3.0, 9.0, 15.0)]
    pts += [complex(-x, 0.0) for x in (1e-8, 0.5, 1.0, 3.0, 5.5, 9.0, 14.7)]
    pts += [complex(-x, -0.0) for x in (0.5, 3.0, 9.0)]
    pts += [r * np.exp(1j * a) for r in np.geomspace(1e-8, 15.0, 10)
            for a in np.linspace(-math.pi, math.pi, 13)]
    return np.array(pts)


def test_search_kernel_against_mpmath():
    # the rays arg w = +-2 pi/3 (and 1e-15 rad off them), where zeta meets
    # K's cut; the negative real axis with either signed zero, where
    # arg(-i zeta) meets the Hankel cut; |w| from 1e-8 to 15 all round
    pts = _kernel_points()
    got = _ai(pts)
    for w, value in zip(pts, got):
        exact = complex(mpmath.airyai(mpmath.mpc(w.real, w.imag)))
        assert abs(value - exact) <= 1e-12 * abs(exact), w
    assert _ai(0.0) == AI_AT_ZERO
    assert _ai(np.zeros(3, dtype=complex)).tolist() == [AI_AT_ZERO] * 3


def test_search_kernel_matches_amos_on_search_contour(monkeypatch):
    cache: dict = {}
    _hunt(0.05 - 10j, 10.0 + 10j, 0, cache)
    pts = list(cache)
    assert len(pts) > 100
    w = airy._ROT3 * np.array(pts)
    amos = special.airy(w)[0]
    assert np.max(np.abs(_ai(w) - amos) / np.maximum(np.abs(amos), 1.0)) <= 1e-12
    # the radial values on each kernel, scaled as under panel halving
    ours = np.array([cache[p] for p in pts])
    monkeypatch.setattr(airy, "_ai", lambda z: special.airy(z)[0])
    theirs = _radial_values(pts)
    scale = np.maximum(np.abs(theirs), 1.0 / 3.0)
    assert np.max(np.abs(ours - theirs) / scale) <= 1e-12


def test_tail_zeros_agree_across_kernels(monkeypatch):
    ours = tail_zero_margin()
    monkeypatch.setattr(airy, "_TAIL_CACHE", {})
    monkeypatch.setattr(airy, "_ai", lambda z: special.airy(z)[0])
    amos = tail_zero_margin()
    assert len(ours.zeros) == len(amos.zeros) == 7
    for a, b in zip(ours.zeros, amos.zeros):
        assert abs(a - b) <= 1e-12
    assert abs(ours.margin - amos.margin) <= 1e-12
    assert max(ours.residuals) <= 1e-10


def _halved_panels(monkeypatch):
    """The panel rule on panels half as long, with a fresh cache."""
    monkeypatch.setattr(airy, "_MAX_PANEL", airy._MAX_PANEL / 2)
    monkeypatch.setattr(airy, "_TAIL_CACHE", {})


def test_tail_integral_stable_under_panel_halving(monkeypatch):
    # The panel rule against itself on half-length panels.  Next to a tail
    # zero A0 cancels down from an integrand that reaches |Ai| ~ 7e3 on the
    # path, so the rounding floor of any rule there is eps times the
    # integral of |Ai| along the path; that integral joins the scale, and is
    # below 1/2 at the first three points.
    zeros = tail_zero_margin().zeros
    points = [0.0, 1.0 + 1.0j, 2.0 - 0.5j] + [1j * zk for zk in zeros]
    coarse_sums = [_tail_sum(z) for z in points]
    _halved_panels(monkeypatch)
    for z, coarse in zip(points, coarse_sums):
        fine = _tail_sum(z)
        cut = airy._decay_cut(z)
        path = airy._ROT6 * (z + np.linspace(0.0, cut, 4001))
        mass = cut * np.mean(np.abs(airy_ai(path)))
        assert abs(coarse - fine) <= 1e-13 * max(abs(coarse), 1.0 / 3.0, mass), z
    assert airy_tail_integral(1.0 + 1.0j) == _tail_sum(1.0 + 1.0j)


def test_tail_integral_at_zero_is_one_third():
    assert abs(airy_tail_integral(0.0) - TAIL_AT_ZERO) < 1e-10
    assert TAIL_AT_ZERO == pytest.approx(1.0 / 3.0, abs=0)


def test_tail_integral_against_mpmath_quadrature():
    rot = complex(mpmath.exp(1j * mpmath.pi / 6))
    for z in (0.5, 1.0 + 1.0j, 2.0 - 0.5j):
        exact = complex(
            rot
            * mpmath.quad(
                lambda t: mpmath.airyai(rot * (z + t)), [0, mpmath.inf]
            )
        )
        got = airy_tail_integral(z)
        assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact)), z


def test_tail_integral_decays_along_real_axis():
    vals = [abs(airy_tail_integral(t)) for t in (0.0, 2.0, 4.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_f_prime_matches_difference_quotient():
    # the search's derivative against the quadrature route, F(z) = A0(iz)
    def f(z):
        return airy_tail_integral(1j * z)

    h = 1e-6
    for z in (0.2 - 0.3j, -1.5j, 1.0 - 2.0j):
        fd = (f(z + h) - f(z - h)) / (2 * h)
        exact = _f_prime(z)
        assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))


def test_tail_zero_margin_frozen_values():
    res = tail_zero_margin()
    assert res.margin == pytest.approx(FROZEN_MARGIN, abs=1e-9)
    assert len(res.zeros) == len(FROZEN_ZEROS)
    for got, exp in zip(res.zeros, FROZEN_ZEROS):
        assert abs(got - exp) <= 1e-8, exp
    assert all(r <= 1e-10 for r in res.residuals)
    assert res.rectangle == (0.05, 10.0, -10.0, 10.0)


def test_tail_zero_margin_stable_under_refinement(monkeypatch):
    coarse = tail_zero_margin()
    _halved_panels(monkeypatch)
    fine = tail_zero_margin()
    assert abs(coarse.margin - fine.margin) < 1e-11
    assert len(coarse.zeros) == len(fine.zeros)


def _mp_tail_value(z):
    """F(z) = A0(iz) as 1/3 plus the integral of F' along [0, z], in mpmath."""
    rot6 = mpmath.exp(1j * mpmath.pi / 6)
    rot3 = mpmath.exp(2j * mpmath.pi / 3)
    z = mpmath.mpc(z)
    integral = mpmath.quad(
        lambda s: -1j * rot6 * mpmath.airyai(rot3 * s), [0, z / 2, z]
    )
    return complex(mpmath.mpf(1) / 3 + integral)


def test_radial_values_against_mpmath():
    # rectangle corners, the largest |F| on it (7e7 at z = 10), then a point
    # where |F| is about 1e-8: the error budget is relative to max(|F|, 1/3),
    # the size of the anchor value
    z0 = FROZEN_ZEROS[0]
    near = z0 + 1e-8 / abs(_f_prime(z0))
    pts = [0.05 - 10j, 10.0 - 10j, 10.0 + 10j, 0.05 + 10j, 10.0 + 0j, near]
    got = _radial_values(pts)
    for z, value in zip(pts, got):
        exact = _mp_tail_value(z)
        assert abs(value - exact) <= 1e-12 * max(abs(exact), 1.0 / 3.0), z
    assert 0.5e-8 < abs(_mp_tail_value(near)) < 2e-8


def test_radial_values_stable_under_panel_halving(monkeypatch):
    cache: dict = {}
    _hunt(0.05 - 10j, 10.0 + 10j, 0, cache)
    pts = list(cache)
    coarse = np.array([cache[p] for p in pts])
    _halved_panels(monkeypatch)
    fine = _radial_values(pts)
    assert len(pts) > 100
    scale = np.maximum(np.abs(coarse), 1.0 / 3.0)
    assert np.max(np.abs(fine - coarse) / scale) <= 1e-12


def test_radial_values_in_batches_match_one_point_at_a_time():
    # one kernel call holds at most 49,152 nodes, whatever the rule
    assert airy._PANEL_BATCH * airy._GL_NODES.size <= 49_152
    rng = np.random.default_rng(2207)
    pts = rng.uniform(0.05, 10.0, 2500) + 1j * rng.uniform(-10.0, 10.0, 2500)
    panels = np.ceil(np.abs(pts) / airy._MAX_PANEL).sum()
    assert panels > 2 * airy._PANEL_BATCH
    batched = _radial_values(pts)
    single = np.array([_radial_values([z])[0] for z in pts])
    scale = np.maximum(np.abs(single), 1.0 / 3.0)
    assert np.max(np.abs(batched - single) / scale) <= 1e-15


def test_cold_search_kernel_work(monkeypatch):
    # a cold default search on its Hankel kernel and the re-check on AMOS,
    # counted in nodes; a 12-point rule on panels <= 0.7 needs 96,948 and
    # 3,936, more than twice the bounds
    counts = {"hankel": 0, "amos": 0}

    def counted(name, kernel):
        def call(w):
            counts[name] += np.size(w)
            return kernel(w)
        return call

    monkeypatch.setattr(airy, "_TAIL_CACHE", {})
    monkeypatch.setattr(airy, "_ai", counted("hankel", airy._ai))
    monkeypatch.setattr(airy, "_amos_airy", counted("amos", airy._amos_airy))
    assert len(tail_zero_margin().zeros) == 7
    assert 0 < counts["hankel"] <= 45_000
    assert 0 < counts["amos"] <= 1_600


def test_tail_zero_margin_accepts_list_rectangle():
    assert tail_zero_margin(rectangle=[0.05, 10, -10, 10]) == tail_zero_margin()
    small = [0.5, 2.0, 3.0, 5.0]
    res = tail_zero_margin(rectangle=small)
    assert res == tail_zero_margin(rectangle=tuple(small))
    assert res.rectangle == (0.5, 2.0, 3.0, 5.0)
    assert abs(res.margin - FROZEN_MARGIN) <= 1e-9
    with pytest.raises(ValueError):
        tail_zero_margin(rectangle=[0.05, math.inf, -10.0, 10.0])


def test_tail_zeros_verified_by_quadrature_route():
    # Dual route: each reported zero must kill the integral computed by the
    # AMOS panel sum along the +real path, measured as a Newton step length.
    res = tail_zero_margin()
    assert len(res.zeros) == 7
    for z in res.zeros:
        val = airy_tail_integral(1j * z)
        slope = abs(_f_prime(z))
        assert abs(val) / slope < 1e-10


def test_winding_counts_past_a_corner_where_f_is_small():
    # |F| decays to 8.3e-13 at 0.05 - 14i, but the Newton step |F/F'| there
    # is 0.27: the corner is no zero, and the box around it holds none
    corner = 0.05 - 14j
    assert abs(_radial_values([corner])[0]) < 1e-12
    assert airy._winding(_box_corners(corner, 1.0 - 13j), {}) == 0


def test_newton_zero_gives_up_on_a_diverging_start():
    # |F'| is 4e-62 at -32 - 24i, so the first step lands near |z| = 2e46,
    # where F' is nan and the quadrature cannot run
    assert _newton_zero(complex(-32.0, -24.0)) is None


def test_wide_rectangle_reaches_the_quadrature_recheck():
    # on (0.05, 14) x (-14, 14) the search finds 13 zeros; the one at
    # 8.79 + 13.56i misses _VERIFY_TOL on the independent route
    with pytest.raises(RuntimeError, match="independent quadrature rejects a zero"):
        tail_zero_margin((0.05, 14.0, -14.0, 14.0))
