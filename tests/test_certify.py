"""Certificates over inflection sets and advective spectrum scans."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import shearstab as ss
from shearstab.certify import certify_profile, rayleigh_spectrum_scan
from shearstab.profile import inflection_values
from shearstab.spectral import eig_floor_ladder


def test_couette_certifies_at_quarter_pi_squared(couette):
    res = certify_profile(couette)
    assert res.verdict == "certified"
    assert res.certified
    assert not res.vacuous
    assert len(res.entries) == 33
    assert abs(res.sigma0 - math.pi**2 / 4.0) <= 1e-8
    assert all(e.converged for e in res.entries)
    assert all(e.n_used <= 128 for e in res.entries)
    # zero curvature: every velocity gives the same pure Laplacian floor
    vals = {e.lam_min for e in res.entries}
    assert max(vals) - min(vals) < 1e-12


def test_cubic_certifies_with_positive_floor(cubic01):
    res = certify_profile(cubic01)
    assert res.verdict == "certified"
    assert len(res.entries) == 1
    assert res.sigma0 == pytest.approx(3.059792130660803, rel=1e-9)


def test_tanh_gentle_certifies(tanh1):
    res = certify_profile(tanh1)
    assert res.verdict == "certified"
    assert res.sigma0 == pytest.approx(0.6820433200380469, rel=1e-9)


def test_tanh_steep_fails_certificate(tanh3):
    res = certify_profile(tanh3)
    assert res.verdict == "not_certified"
    assert not res.certified
    assert res.sigma0 == pytest.approx(-8.817781830015184, rel=1e-9)
    assert res.sigma0 < -5.0


def test_convex_profile_is_vacuously_certified():
    prof = ss.polynomial((0.0, 1.0, 0.25))
    res = certify_profile(prof)
    assert res.verdict == "certified"
    assert res.vacuous
    assert res.entries == ()
    assert math.isinf(res.sigma0)


def test_certify_is_deterministic(tanh1):
    a = certify_profile(tanh1)
    b = certify_profile(tanh1)
    assert a == b


def test_certify_margin_controls_verdict(couette):
    # An absurd positivity margin turns a healthy certificate inconclusive.
    res = certify_profile(couette, margin=10.0)
    assert res.verdict == "inconclusive"


def test_certify_validation(couette):
    with pytest.raises(ValueError):
        certify_profile(couette, interval_density=1)
    with pytest.raises(ValueError):
        certify_profile(couette, margin=-1.0)


def test_rayleigh_scan_couette_spectrum_stays_on_segment(couette):
    scan = rayleigh_spectrum_scan(couette, 1.0)
    assert scan.segment == (-1.0, 1.0)
    assert scan.n_list == (128, 256, 512)
    assert scan.monotone
    assert scan.persistent_offsets == ()
    assert all(d <= 1e-4 for d in scan.max_distances)
    non_increasing = all(
        b <= a for a, b in zip(scan.max_distances, scan.max_distances[1:])
    )
    assert non_increasing


def _rayleigh_shooting(profile, alpha, c0, c1, tol=1e-13):
    """Eigenvalue c of (U - c)(phi'' - alpha^2 phi) - U'' phi = 0, phi(+-1) = 0.

    Integrates phi(-1) = 0, phi'(-1) = 1 in complex arithmetic and takes
    secant steps on c until phi(1) vanishes.  Im c > 0 keeps U - c off zero.
    """

    def miss(c):
        sol = solve_ivp(
            lambda x, y: [y[1], (alpha**2 + profile.deriv(x, 2) / (profile.u(x) - c)) * y[0]],
            (-1.0, 1.0),
            [0j, 1.0 + 0j],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        return sol.y[0, -1]

    f0, f1 = miss(c0), miss(c1)
    for _ in range(40):
        c0, c1, f0 = c1, c1 - f1 * (c1 - c0) / (f1 - f0), f1
        f1 = miss(c1)
        if abs(c1 - c0) <= tol:
            return c1
    raise AssertionError(f"secant did not settle: c = {c1!r}")


def test_rayleigh_scan_finds_the_shooting_mode_of_steep_tanh(tanh3):
    # An independent oracle for an unstable mode: the inflectional tanh
    # shear with K = 3 has one at alpha = 1, and the scan must report it
    # and its conjugate as its only persistent offsets.
    c = _rayleigh_shooting(tanh3, 1.0, 0.4j, 0.42j)
    assert c.imag > 0.4
    scan = rayleigh_spectrum_scan(tanh3, 1.0)
    assert not scan.monotone
    offsets = sorted(scan.persistent_offsets, key=lambda z: z.imag)
    assert len(offsets) == 2
    assert abs(offsets[0] - c.conjugate()) <= 1e-9
    assert abs(offsets[1] - c) <= 1e-9


def test_rayleigh_scan_validation(couette):
    with pytest.raises(ValueError):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(128,))
    with pytest.raises(ValueError):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(256, 128, 512))


@pytest.fixture
def eig_calls(monkeypatch):
    """Count the eigen-solves behind the certificate ladders."""
    from shearstab import spectral

    calls = []
    solve = spectral.min_eig_selfadjoint

    def counted(op):
        calls.append(op.grid.n)
        return solve(op)

    monkeypatch.setattr(spectral, "min_eig_selfadjoint", counted)
    return calls


@pytest.mark.parametrize("density", [33, 129])
def test_couette_solves_each_rung_operator_once(couette, eig_calls, density):
    # U'' = 0: the operator is -d2 at every velocity, one per grid degree.
    res = certify_profile(couette, interval_density=density)
    assert len(res.entries) == density
    assert sorted(eig_calls) == [64, 128]
    assert {e.lam_min for e in res.entries} == {res.sigma0}


# U = x - x^3/24 + x^5/20: U'' = x (x^2 - 1/4), three inflection points
_QUINTIC3 = (0.0, 1.0, 0.0, -1.0 / 24.0, 0.0, 1.0 / 20.0)


def test_distinct_rung_operators_are_never_merged(eig_calls):
    res = certify_profile(ss.polynomial(_QUINTIC3))
    assert len(res.entries) == 3
    rungs = sum(int(math.log2(e.n_used // 64)) + 1 for e in res.entries)
    assert len(eig_calls) == rungs


@pytest.fixture
def ladder_calls(monkeypatch):
    """Record the velocity of every certificate ladder a certificate runs."""
    from shearstab import certify

    calls = []
    ladder = certify.eig_floor_ladder

    def counted(profile, nu):
        calls.append(nu)
        return ladder(profile, nu)

    monkeypatch.setattr(certify, "eig_floor_ladder", counted)
    return calls


@pytest.mark.parametrize(
    "profile, density, ladders",
    [(ss.couette(), 33, 1), (ss.couette(), 129, 1), (ss.polynomial(_QUINTIC3), 33, 3)],
    ids=["couette33", "couette129", "quintic3"],
)
def test_one_ladder_per_flat_set_and_per_point(ladder_calls, profile, density, ladders):
    # a flat set has U'' = 0: one ladder serves every sampled velocity
    res = certify_profile(profile, interval_density=density)
    assert len(ladder_calls) == ladders
    assert ladder_calls == [e.nu for e in res.entries[:ladders]]


@pytest.mark.parametrize(
    "profile", [ss.couette(), ss.polynomial(_QUINTIC3)], ids=["couette", "quintic3"]
)
def test_memoized_entries_equal_plain_ladders(profile):
    res = certify_profile(profile)
    nus = inflection_values(profile).sample()
    plain = [eig_floor_ladder(profile, nu) for nu in nus]
    assert [(e.nu, e.lam_min, e.n_used, e.converged) for e in res.entries] == [
        (float(nu), *ladder) for nu, ladder in zip(nus, plain)
    ]


def test_certify_still_validates_threads(couette):
    with pytest.raises(ValueError):
        certify_profile(couette, threads=0)
    assert certify_profile(couette, threads=2) == certify_profile(couette, threads=1)


@pytest.mark.parametrize("k", [16.0, 32.0])
def test_steep_tanh_is_not_certified_at_its_one_inflection(k):
    # The Poschl-Teller well -2 K^2 sech^2(K x) has ground state -K^2 on the
    # line; on [-1, 1] the walls shift it by far less than the tolerance.
    res = certify_profile(ss.tanh_shear(k))
    assert res.verdict == "not_certified"
    assert [e.nu for e in res.entries] == [0.0]
    assert res.sigma0 == pytest.approx(-k * k, rel=1e-9)


def test_tiny_cubic_term_certifies_at_one_point():
    res = certify_profile(ss.polynomial((0.0, 1.0, 0.0, 1e-11)))
    assert res.verdict == "certified"
    assert [e.nu for e in res.entries] == [0.0]
    assert res.sigma0 == pytest.approx(math.pi**2 / 4.0, rel=1e-9)
