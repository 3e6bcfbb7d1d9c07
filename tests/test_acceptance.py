"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line to the terminal (bypassing
pytest capture) so the battery reads as a checklist.  Oracles are either
closed forms, arbitrary-precision recomputation, or an independent
shooting eigensolver; no expected value is taken from the library itself.
"""

import json
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import gamma

from shearstab import (
    SpectralParams,
    airy_ai,
    airy_ai_prime,
    airy_tail_integral,
    airy_zeros,
    assemble_schrodinger,
    build_grid,
    certify_profile,
    couette,
    cubic,
    eigenvalues,
    l1_approximation_sweep,
    os_boundary_sweep,
    os_large_lambda_check,
    rayleigh_spectrum_scan,
    rotation_identity_residual,
    schrodinger_sweep,
    tanh_shear,
)
from shearstab.cli import main
from shearstab.spectral import ladder_start


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(number, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({name}): PASS")

    return _report


def shooting_min_eig(q, bracket):
    """Smallest Dirichlet eigenvalue of -u'' + q(x) u on [-1, 1] by shooting."""

    def endpoint(lam):
        def rhs(x, y):
            return [y[1], (q(x) - lam) * y[0]]

        sol = solve_ivp(rhs, (-1.0, 1.0), [0.0, 1.0], method="RK45",
                        rtol=1e-11, atol=1e-13)
        return sol.y[0, -1]

    return brentq(endpoint, *bracket, xtol=1e-10)


def test_01_couette_certificate(report, capsys):
    with report(1, "couette-certificate"):
        t0 = time.monotonic()
        result = certify_profile(couette())
        exit_code = main(["certify", '{"family": "couette"}'])
        elapsed = time.monotonic() - t0
        assert result.verdict == "certified"
        assert abs(result.sigma0 - math.pi ** 2 / 4) <= 1e-8
        assert max(e.n_used for e in result.entries) <= 128
        assert exit_code == 0
        assert elapsed < 5.0


def test_02_tanh_certificates(report):
    with report(2, "tanh-certificates"):
        cases = [
            (1.0, "certified", (0.4, 1.0)),
            (3.0, "not_certified", (-12.0, -5.0)),
        ]
        for k, verdict, bracket in cases:
            t0 = time.monotonic()
            result = certify_profile(tanh_shear(k))
            elapsed = time.monotonic() - t0
            assert result.verdict == verdict
            oracle = shooting_min_eig(
                lambda x, _k=k: -2.0 * _k ** 2 / math.cosh(_k * x) ** 2, bracket
            )
            assert abs(result.sigma0 - oracle) <= 1e-6
            assert elapsed < 30.0
        assert 0.46 < certify_profile(tanh_shear(1.0)).sigma0 < 2.47
        assert certify_profile(tanh_shear(3.0)).sigma0 < -5.0


def test_03_airy_kernel(report):
    with report(3, "airy-kernel"):
        ai0 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / gamma(1.0 / 3.0)
        assert abs(airy_ai(0.0) - ai0) <= 1e-12
        assert abs(airy_ai_prime(0.0) - aip0) <= 1e-12

        zeros = airy_zeros(10)
        with mpmath.workdps(30):
            for k, z in enumerate(zeros, start=1):
                assert abs(z - float(mpmath.airyaizero(k))) <= 1e-10

        assert abs(airy_tail_integral(0.0) - 1.0 / 3.0) <= 1e-10

        rng = np.random.default_rng(20260819)
        for _ in range(100):
            radius = 8.0 * math.sqrt(rng.uniform())
            angle = 2.0 * math.pi * rng.uniform()
            z = radius * complex(math.cos(angle), math.sin(angle))
            assert rotation_identity_residual(z) <= 1e-11


def test_04_couette_wall_modes(report):
    # For U = x the Schrodinger operator -d2 + i*beta*x near each wall is the
    # half-line Airy operator, so the two leftmost eigenvalues over beta are
    # -+i + beta^(-1/3)|a1| e^(+-i pi/3), exact up to terms exponentially
    # small in beta^(1/3).  Measured error: at most 1.8e-13 of the layer
    # width beta^(-1/3)|a1| at both betas; the bound leaves a factor 50.
    with report(4, "couette-wall-modes"):
        with mpmath.workdps(30):
            a1 = abs(float(mpmath.airyaizero(1)))
        for beta in (1e4, 1e5):
            grid = build_grid(2 * ladder_start(beta))
            op = assemble_schrodinger(couette(), SpectralParams(0.0, beta, 0.0), grid)
            lower, upper = sorted(eigenvalues(op)[:2] / beta, key=lambda z: z.imag)
            layer = beta ** (-1.0 / 3.0) * a1
            turn = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
            assert abs(lower - (-1j + layer * turn)) <= 1e-11 * layer
            assert abs(upper - (1j + layer * turn.conjugate())) <= 1e-11 * layer


def test_05_schrodinger_scaling(report):
    with report(5, "schrodinger-scaling"):
        t0 = time.monotonic()
        result = schrodinger_sweep(couette())
        elapsed = time.monotonic() - t0
        assert result.fit is not None
        assert -0.72 <= result.fit.slope <= -0.61
        assert result.converged_fraction == 1.0
        assert result.passed
        assert elapsed < 180.0


def test_06_l1_approximation(report):
    with report(6, "l1-approximation"):
        result = l1_approximation_sweep(couette())
        assert result.converged_fraction == 1.0
        assert result.span < 5.0


def test_07_os_boundary_scaling(report):
    with report(7, "os-boundary-scaling"):
        t0 = time.monotonic()
        for profile in (couette(), cubic(0.1)):
            result = os_boundary_sweep(profile)
            assert result.fit is not None
            assert result.fit.slope <= -5.0 / 6.0 + 0.08
            assert result.converged_fraction == 1.0
            for row in result.rows:
                assert row.n_used <= 2 * ladder_start(row.beta)
        elapsed = time.monotonic() - t0
        assert elapsed < 900.0


def test_08_large_shift_bound(report):
    with report(8, "large-shift-bound"):
        result = os_large_lambda_check(couette())
        assert result.converged_fraction == 1.0
        assert result.span < 10.0
        assert result.checks["span_under_10"]


def test_09_rayleigh_spectrum(report):
    with report(9, "rayleigh-spectrum"):
        scan = rayleigh_spectrum_scan(couette(), alpha=1.0)
        assert scan.n_list == (64, 128, 256)
        assert scan.segment == (-1.0, 1.0)
        distances = scan.max_distances
        assert distances[-1] <= 1e-4
        for earlier, later in zip(distances, distances[1:]):
            assert later <= earlier
        assert scan.monotone
        assert not scan.persistent_offsets


def test_10_determinism(report, tmp_path, capsys):
    with report(10, "determinism"):
        commands = {
            "certify": ["certify", '{"family": "couette"}'],
            "scan": ["rayleigh-scan", '{"family": "couette"}',
                     "--n-list", "128,256"],
            "lamcheck": ["sweep", "os-lambda", '{"family": "couette"}',
                         "--beta", "1e5"],
            "pseudo": ["pseudo", '{"family": "couette"}', "--kind",
                       "schrodinger", "--beta", "1e4",
                       "--mu-range", "-0.5", "-0.1", "2",
                       "--nu-range", "0.05", "0.2", "2"],
        }
        for label, argv in commands.items():
            first = tmp_path / f"{label}_a.json"
            second = tmp_path / f"{label}_b.json"
            assert main(argv + ["--json", str(first)]) == 0
            assert main(argv + ["--json", str(second)]) == 0
            blob = first.read_bytes()
            assert blob == second.read_bytes()
            assert json.loads(blob)["tool"]["name"] == "shearstab"

        csv_a = tmp_path / "pseudo_a.csv"
        csv_b = tmp_path / "pseudo_b.csv"
        assert main(commands["pseudo"] + ["--csv", str(csv_a)]) == 0
        assert main(commands["pseudo"] + ["--csv", str(csv_b)]) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
