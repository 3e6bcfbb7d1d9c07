"""Certificates over inflection sets and advective spectrum scans."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigvals

import shearstab as ss
from shearstab import certify, spectral
from shearstab.certify import (
    _rayleigh_spectrum,
    _shen_tables,
    certify_profile,
    rayleigh_spectrum_scan,
)
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
    with pytest.raises(ValueError, match="interval density"):
        certify_profile(prof, interval_density=1)


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
    assert scan.n_list == (64, 128, 256)
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
    # the converged mode's distance grows 0.41759727602 -> 0.41759729356,
    # by its discretization error of 1.75e-8, far below _OFF_TOL
    assert scan.monotone
    offsets = sorted(scan.persistent_offsets, key=lambda z: z.imag)
    assert len(offsets) == 2
    assert abs(offsets[0] - c.conjugate()) <= 1e-9
    assert abs(offsets[1] - c) <= 1e-9


def test_rayleigh_scan_validation(couette):
    with pytest.raises(ValueError):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(128,))
    with pytest.raises(ValueError):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(256, 128, 512))


def test_rayleigh_scan_rejects_degrees_outside_the_grid_range(couette):
    with pytest.raises(ValueError, match="outside"):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(4, 16))
    with pytest.raises(ValueError, match="outside"):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(64, 4096))
    with pytest.raises(TypeError):
        rayleigh_spectrum_scan(couette, 1.0, n_list=(64.0, 128.0))


# U'' = x (x^2 - 2^-16): odd, with three inflection values on scan nodes
_ODD_QUINTIC = (0.0, 1.0, 0.0, -2.5431315104166665e-06, 0.0, 0.05)


def _shen_mass(n):
    """The scan's closed-form mass matrix int psi_j psi_k."""
    _, _, _, diag, upper = _shen_tables(n)
    return np.diag(diag) + np.diag(upper, 2) + np.diag(upper, -2)


@pytest.mark.parametrize("n", [16, 65, 128, 256])
def test_shen_mass_matrix_matches_its_quadrature(n):
    x, w, basis, _, _ = _shen_tables(n)
    deriv, value = basis[:, : len(x)], basis[:, len(x) :]
    assert np.max(np.abs((value * w) @ value.T - _shen_mass(n))) <= 1e-15
    # the stiffness matrix is the identity (measured to 7e-14 at n = 256)
    assert np.max(np.abs((deriv * w) @ deriv.T - np.eye(n - 1))) <= 2e-13


@pytest.mark.parametrize("n", [128, 129])
@pytest.mark.parametrize(
    "profile",
    [
        ss.tanh_shear(3.0),
        ss.cubic(0.3),
        ss.polynomial(_ODD_QUINTIC),
        ss.polynomial((0.0, 1.0, 0.05, -0.1, 0.02, 0.05)),
    ],
    ids=["tanh3", "cubic0.3", "odd-quintic", "quintic"],
)
def test_rayleigh_pencil_split_matches_the_full_solve(profile, n):
    # The dense pencil A phi = c B phi at alpha = 1 from the node tables,
    # solved by QZ.  An odd profile's A has zero same-parity blocks, and the scan takes
    # +-sqrt(eig(YX)) from half of it; n - 1 basis functions, odd at n = 128
    # (with one exact 0) and even at n = 129.  Other profiles take
    # eig(B^-1 A) with B^-1 from its two tridiagonal blocks.
    x, w, basis, _, _ = _shen_tables(n)
    deriv, value = basis[:, : len(x)], basis[:, len(x) :]
    u = profile.u(x)
    a = (deriv * (w * u) + value * (w * profile.deriv(x, 1))) @ deriv.T
    a += (value * (w * (u + profile.deriv(x, 2)))) @ value.T
    same = max(np.max(np.abs(a[0::2, 0::2])), np.max(np.abs(a[1::2, 1::2])))
    assert (same <= 1e-15 * np.max(np.abs(a))) == profile.odd

    got = _rayleigh_spectrum(profile, 1.0, n)
    dense = eigvals(a, np.eye(n - 1) + _shen_mass(n))
    assert len(got) == len(dense) == n - 1
    scale = np.max(np.abs(dense))
    gap = np.abs(got[:, None] - dense[None, :])
    assert np.max(np.min(gap, axis=1)) <= 1e-12 * scale
    assert np.max(np.min(gap, axis=0)) <= 1e-12 * scale


def _collocation_spectrum(profile, alpha, n):
    return ss.eigenvalues(ss.assemble_rayleigh(profile, alpha, ss.build_grid(n)))


@pytest.mark.parametrize(
    "profile, alpha",
    [
        (ss.couette(), 1.0),
        (ss.cubic(0.1), 1.5),
        (ss.tanh_shear(1.3), 0.5),
        (ss.tanh_shear(2.0), 0.5),
        (ss.tanh_shear(8.0), 1.0),
        (ss.polynomial(_ODD_QUINTIC), 1.0),
        (ss.polynomial((0.0, 1.0, 0.05, -0.1, 0.02, 0.05)), 1.0),
    ],
    ids=["couette", "cubic0.1", "tanh1.3", "tanh2", "tanh8", "odd-quintic", "quintic"],
)
def test_rayleigh_scan_agrees_with_the_collocation_scan(monkeypatch, profile, alpha):
    # The same scan on the collocation generator U + U'' H^-1 at twice the
    # degrees: the verdict matches, and so does the finest distance wherever
    # the collocation one has settled.  tanh_shear(1.3) at alpha = 0.5 is a
    # near-neutral mode that neither route resolves (exit 2 on both).
    scan = rayleigh_spectrum_scan(profile, alpha)
    monkeypatch.setattr(certify, "_rayleigh_spectrum", _collocation_spectrum)
    ref = rayleigh_spectrum_scan(profile, alpha, n_list=(128, 256, 512))
    assert scan.monotone == ref.monotone
    assert len(scan.persistent_offsets) == len(ref.persistent_offsets)
    if abs(ref.max_distances[-1] - ref.max_distances[-2]) <= 1e-9:
        assert abs(scan.max_distances[-1] - ref.max_distances[-1]) <= 1e-9


# U'' = c (x - x0)^2 with U'(-1) = 1: the curvature touches 0 between the
# nodes of the inflection search without changing sign; (coefficients, x0,
# sigma0 from the n = 128 ladder)
_TANGENT_QUARTICS = {
    "c0.5": (
        (0.0, 1.3616666666666666, 0.0225, -0.049999999999999996, 0.041666666666666664),
        0.3,
        2.3538165,
    ),
    "c20": ((0.0, 4.466666666666667, 0.4, 1.3333333333333333, 1.6666666666666667), -0.2, 2.9568562),
    "c200": ((0.0, 198.16666666666666, 20.25, -30.0, 16.666666666666668), 0.45, 1.9858698),
}


@pytest.mark.parametrize("name", list(_TANGENT_QUARTICS))
def test_certify_covers_a_tangent_zero_of_the_curvature(name):
    coeffs, x0, sigma0 = _TANGENT_QUARTICS[name]
    profile = ss.polynomial(coeffs)
    (point,) = inflection_values(profile).points
    assert point.degenerate
    assert abs(point.x - x0) <= 1e-9
    res = certify_profile(profile)
    assert not res.vacuous
    (entry,) = res.entries
    assert (entry.n_used, entry.converged) == (128, True)
    assert entry.nu == pytest.approx(float(profile.u(x0)), abs=1e-9)
    assert res.sigma0 == pytest.approx(sigma0, abs=1e-7)
    # comparison with the constant potentials min q and max q
    xs = np.linspace(-1.0, 1.0, 4001)
    xs = xs[np.abs(xs - x0) > 1e-6]
    q = profile.deriv(xs, 2) / (profile.u(xs) - entry.nu)
    assert math.pi**2 / 4 + q.min() <= res.sigma0 <= math.pi**2 / 4 + q.max()


def _curvature_roots(coeffs):
    """Real roots in [-1, 1] of U'' for U = sum c_k x^k, from the eigenvalues
    of its companion matrix.  A tangent zero comes back as a pair split by
    about sqrt(eps), two close reals or a conjugate pair, whose mean is the
    double root to rounding."""
    roots = np.polynomial.Polynomial(coeffs).deriv(2).roots()
    roots = np.sort(roots[np.abs(roots.imag) <= 1e-6].real)
    clusters: list[list[float]] = []
    for r in roots:
        if clusters and r - clusters[-1][-1] <= 1e-6:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    return [x for x in map(np.mean, clusters) if -1.0 <= x <= 1.0]


def test_polynomial_inflection_values_match_curvature_roots():
    # an independent check of the scan: monotone quintics from the
    # stability benchmark's coefficient box, and the tangent quartics
    rng = np.random.default_rng(2211)
    cases = [coeffs for coeffs, _, _ in _TANGENT_QUARTICS.values()]
    quintics = 0
    while quintics < 120:
        box = rng.uniform([-0.15, -0.25, -0.1, -0.1], [0.15, 0.25, 0.1, 0.1])
        coeffs = (0.0, 1.0, *box)
        try:
            ss.polynomial(coeffs)
        except ss.MonotonicityError:
            continue
        cases.append(coeffs)
        quintics += 1
    for coeffs in cases:
        profile = ss.polynomial(coeffs)
        got = [p.nu for p in inflection_values(profile).points]
        want = [float(profile.u(x)) for x in _curvature_roots(coeffs)]
        assert len(got) == len(want), coeffs
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-9, coeffs


@pytest.fixture
def eig_calls(monkeypatch):
    """Count the eigen-solves behind the certificate ladders."""
    from shearstab import spectral

    calls = []
    solve = spectral._certificate_rung

    def counted(profile, nu, n):
        calls.append(n)
        return solve(profile, nu, n)

    monkeypatch.setattr(spectral, "_certificate_rung", counted)
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


def test_certify_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, cubic01):
    counts = spectral._openblas_counts()
    if not counts:
        pytest.skip("no OpenBLAS thread-count entry points in this process")
    before = [get() for get, _ in counts]
    seen = []

    def ladder(*args, **kwargs):
        seen.append([get() for get, _ in counts])
        return eig_floor_ladder(*args, **kwargs)

    plain = certify_profile.__wrapped__(cubic01)
    monkeypatch.setattr(certify, "eig_floor_ladder", ladder)
    assert certify_profile(cubic01) == plain
    assert seen and all(s == [1] * len(counts) for s in seen)
    assert [get() for get, _ in counts] == before


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
