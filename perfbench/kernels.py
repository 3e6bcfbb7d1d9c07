"""Fixed-degree kernel table, timed in a fresh process.

Each public kernel is timed on fixed inputs at n in {128, 512, 1724}; 1724 is
the top rung of the acceptance sweeps.  The advection strength at degree n
is beta = (n/8)^3, the grid a boundary layer of width beta^(-1/3) needs, and
the clamped shift is lam = 0.5 beta^(-1/3), the boundary-layer shift the
sweep uses.  Eigen-solves stop at n = 512, the largest degree the
certificate and scan drivers reach.  build_grid and tail_zero_margin are
timed once, cold, because the package caches their results; the rest report
the median of a few calls.  The inputs are the same for every workload.
"""

from __future__ import annotations

import math
import statistics
import time

DEGREES = (128, 512, 1724)
EIG_DEGREES = (128, 512)
REPEATS = {128: 5, 512: 3, 1724: 1}


def _median_time(fn, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run() -> dict:
    import shearstab as ss
    from workloads import Checks

    checks = Checks()
    table = {}
    t0 = time.perf_counter()
    ss.tail_zero_margin()
    table["airy.tail_zero_margin_s"] = time.perf_counter() - t0

    quintic = ss.polynomial([0.0, 1.0, 0.0, 0.05, 0.0, -0.02])
    table["profile.inflection_values_s"], infl = _median_time(
        lambda: ss.inflection_values(quintic), 5)
    checks.add("oracle", len(infl.points) == 3, f"quintic inflections {infl}")

    couette, cubic = ss.couette(), ss.cubic(0.1)
    for n in DEGREES:
        reps = REPEATS[n]
        beta = (n / 8.0) ** 3
        t0 = time.perf_counter()
        grid = ss.build_grid(n)
        table[f"chebdiff.build_grid.n{n}_s"] = time.perf_counter() - t0

        os_params = ss.SpectralParams(alpha=1.0, beta=beta, lam=0.5 * beta ** (-1.0 / 3.0))
        table[f"operators.assemble_orr_sommerfeld.n{n}_s"], os_op = _median_time(
            lambda: ss.assemble_orr_sommerfeld(cubic, os_params, grid), reps)
        schr_params = ss.SpectralParams(alpha=0.0, beta=beta, lam=0.0)
        table[f"operators.assemble_schrodinger.n{n}_s"], schr_op = _median_time(
            lambda: ss.assemble_schrodinger(couette, schr_params, grid), reps)
        for bc, op in (("clamped", os_op), ("dirichlet", schr_op)):
            table[f"spectral.resolvent_numbers.{bc}.n{n}_s"], nums = _median_time(
                lambda: ss.resolvent_numbers(op), reps)
            checks.add(
                "band",
                not nums["singular"] and math.isfinite(nums["norm_inv"]) and nums["norm_inv"] > 0,
                f"{bc} n={n} {nums}",
            )

        if n in EIG_DEGREES:
            cert = ss.assemble_certificate_operator(couette, 0.0, grid)
            table[f"spectral.min_eig_selfadjoint.n{n}_s"], lam_min = _median_time(
                lambda: ss.min_eig_selfadjoint(cert), reps)
            checks.add("oracle", abs(lam_min - math.pi**2 / 4.0) <= 1e-8,
                       f"couette min eig n={n} {lam_min!r}")
            ray = ss.assemble_rayleigh(couette, 1.0, grid)
            table[f"spectral.eigenvalues.rayleigh.n{n}_s"], eigs = _median_time(
                lambda: ss.eigenvalues(ray), reps)
            checks.add("band", bool(abs(eigs.imag).max() <= 1e-4),
                       f"couette rayleigh n={n} max |imag| {abs(eigs.imag).max()!r}")
    return {"kernels": table, "checks": checks.counts, "failures": checks.failures}
