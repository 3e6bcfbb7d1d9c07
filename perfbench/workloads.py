"""The three benchmark workloads: seeded inputs, driver calls and checks.

Every workload is a closed loop with one client: the calls below run one at
a time, and the only threads are the package's own pool, sized explicitly.

* stability-batch -- certificates over a seeded batch of profiles plus a few
  inviscid spectrum scans.  Many small eigen-solves, root finding, per-call
  overhead and pool scheduling; no resolvent norm and no Airy code.
* beta-sweep -- the two resolvent decay laws at acceptance settings.  Dense
  n = 862 -> 1724 rungs dominate; serial; needs the Airy tail-zero margin.
* shift-map -- two 8x8 pseudospectrum maps through the CLI with --json and
  --csv.  128 independent moderate ladders on the thread pool, plus CLI
  parsing, serialization and byte stability.

Each workload's `solve` is the timed region.  `check` runs afterwards and
never reuses a number it is checking as its own reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Checks"]

QUARTER_PI2 = math.pi**2 / 4.0   # smallest Dirichlet eigenvalue of -d2 on [-1, 1]


class Checks:
    """Attempted and failed checks by kind, plus the first few failures."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def add(self, kind: str, ok: bool, what: str) -> None:
        self.merge({kind: [1, int(not ok)]}, [] if ok else [f"{kind}: {what}"])

    def merge(self, counts: dict, failures: list[str]) -> None:
        for kind, (attempted, failed) in counts.items():
            tally = self.counts.setdefault(kind, [0, 0])
            tally[0] += attempted
            tally[1] += failed
        self.failures += failures[: 20 - len(self.failures)]

    def totals(self) -> tuple[int, int]:
        return (sum(a for a, _ in self.counts.values()),
                sum(f for _, f in self.counts.values()))


# ---------------------------------------------------------------------------
# independent references


def shooting_min_eig(q, bracket, rtol=1e-11, atol=1e-13):
    """Smallest Dirichlet eigenvalue of -u'' + q(x) u on [-1, 1] by shooting.

    Integrates u(-1) = 0, u'(-1) = 1 and finds the root of u(1) in the
    bracket.  Sturm's theorem makes it the smallest eigenvalue exactly when
    the solution just below the root has no zero inside (-1, 1); that is
    checked too, so a bracket holding a higher eigenvalue fails.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def shoot(lam):
        return solve_ivp(
            lambda x, y: [y[1], (q(x) - lam) * y[0]],
            (-1.0, 1.0),
            [0.0, 1.0],
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )

    root = brentq(lambda lam: shoot(lam).y[0, -1], *bracket, xtol=1e-10)
    below = shoot(root - 1e-3 * max(1.0, abs(root)))
    xs = np.linspace(-1.0, 1.0, 4001)[1:-1]
    nodal = bool(np.any(below.sol(xs)[0] <= 0.0))
    return root, not nodal


def _poly_coeffs(profile) -> np.ndarray | None:
    """Power-series coefficients of a polynomial family profile, else None."""
    params = dict(profile.params)
    if profile.family == "couette":
        return np.array([0.0, 1.0])
    if profile.family == "cubic":
        return np.array([0.0, 1.0, 0.0, params["a"]])
    if profile.family == "polynomial":
        return np.array([params[f"c{i}"] for i in range(len(params))])
    return None


def _inflections(profile) -> list[tuple[float, float]]:
    """(x, U(x)) at each sign change of U'' in (-1, 1), from numpy's roots."""
    coeffs = _poly_coeffs(profile)
    if coeffs is None:   # tanh shear: U'' = 0 only at x = 0, where U = 0
        return [(0.0, 0.0)]
    u = np.polynomial.Polynomial(coeffs)
    u2 = u.deriv(2)
    if u2.degree() < 1 or not np.any(u2.coef):
        return []
    found = []
    for r in u2.roots():
        if abs(r.imag) < 1e-12 and -1.0 <= r.real <= 1.0 and u2.deriv()(r.real) != 0.0:
            found.append((float(r.real), float(u(r.real))))
    return sorted(found)


def potential_band(profile, x_nu: float, nu: float) -> tuple[float, float]:
    """[min q, max q] of q = U''/(U - nu) on [-1, 1].

    Comparison with the constant potentials min q and max q encloses the
    smallest certificate eigenvalue in [pi^2/4 + min q, pi^2/4 + max q].
    """
    coeffs = _poly_coeffs(profile)
    if coeffs is None:
        k = dict(profile.params)["K"]
        return -2.0 * k * k, -2.0 * k * k / math.cosh(k) ** 2
    u = np.polynomial.Polynomial(coeffs)
    xs = np.linspace(-1.0, 1.0, 8001)
    xs = xs[np.abs(xs - x_nu) > 1e-3]
    q = u.deriv(2)(xs) / (u(xs) - nu)
    limit = u.deriv(3)(x_nu) / u.deriv(1)(x_nu)   # removable singularity
    lo, hi = min(float(q.min()), limit), max(float(q.max()), limit)
    slack = 1e-3 * (1.0 + max(abs(lo), abs(hi)))
    return lo - slack, hi + slack


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])


# ---------------------------------------------------------------------------
# stability-batch


class StabilityBatch:
    """Certificates over a seeded profile batch, plus inviscid scans."""

    name = "stability-batch"
    primes_airy = False
    couette_density = 129
    batch = 6            # profiles per family, besides the one Couette flow
    oracles = 2          # tanh profiles checked against the shooting solver

    def make_inputs(self, ss, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        profiles = [ss.couette()]
        profiles += [ss.tanh_shear(k) for k in rng.uniform(0.5, 8.0, self.batch)]
        profiles += [ss.cubic(a) for a in rng.uniform(-0.3, 1.0, self.batch)]
        while len(profiles) < 1 + 3 * self.batch:
            coeffs = [0.0, 1.0, *rng.uniform([-0.15, -0.25, -0.1, -0.1], [0.15, 0.25, 0.1, 0.1])]
            try:
                quintic = ss.polynomial(coeffs)
            except ss.MonotonicityError:
                continue
            if 1 <= len(_inflections(quintic)) <= 3:
                profiles.append(quintic)
        family = [p.family for p in profiles]
        tanh_idx = [i for i, f in enumerate(family) if f == "tanh_shear"]
        # one scan per non-Couette family: a quintic scan takes about twice as
        # long as a tanh or cubic one, so a fixed mix keeps the pass cost from
        # varying with the seed
        scan_idx = [int(rng.choice([i for i, g in enumerate(family) if g == f]))
                    for f in ("tanh_shear", "cubic", "polynomial")]
        return {
            "profiles": profiles,
            "scan_idx": scan_idx,
            "oracle_idx": sorted(rng.choice(tanh_idx, self.oracles, replace=False).tolist()),
        }

    def solve(self, ss, inputs, call, threads: int, work_dir: Path, tag: str):
        certs = []
        for i, profile in enumerate(inputs["profiles"]):
            density = {"interval_density": self.couette_density} if i == 0 else {}
            certs.append(
                call("certify.certify_profile", ss.certify_profile, profile,
                     threads=threads, pooled=True, **density)
            )
        scans = [
            call("certify.rayleigh_spectrum_scan", ss.rayleigh_spectrum_scan,
                 inputs["profiles"][i], 1.0)
            for i in inputs["scan_idx"]
        ]
        return {"certs": certs, "scans": scans}

    def check(self, ss, inputs, outputs, checks: Checks, oracles: bool) -> dict:
        profiles = inputs["profiles"]
        for profile, cert in zip(profiles, outputs["certs"]):
            pid = profile.id_string()
            expected = _inflections(profile)
            if profile.family == "couette":
                checks.add("oracle", abs(cert.sigma0 - QUARTER_PI2) <= 1e-8,
                           f"{pid} sigma0 {cert.sigma0!r} != pi^2/4")
                expected = [(None, nu) for nu in np.linspace(-1.0, 1.0, self.couette_density)]
            checks.add(
                "oracle",
                len(cert.entries) == len(expected)
                and all(abs(e.nu - nu) <= 1e-9 for e, (_, nu) in zip(cert.entries, expected)),
                f"{pid} inflection velocities {[e.nu for e in cert.entries]} vs {expected}",
            )
            for entry, (x_nu, nu) in zip(cert.entries, expected):
                checks.add("ladder", entry.converged, f"{pid} nu={entry.nu} unconverged")
                if x_nu is None:
                    lo = hi = 0.0
                    tol = 1e-8
                else:
                    lo, hi = potential_band(profile, x_nu, nu)
                    tol = 0.0
                checks.add(
                    "band",
                    QUARTER_PI2 + lo - tol <= entry.lam_min <= QUARTER_PI2 + hi + tol,
                    f"{pid} nu={entry.nu} lam_min {entry.lam_min!r} outside "
                    f"[{QUARTER_PI2 + lo!r}, {QUARTER_PI2 + hi!r}]",
                )
            sigma0 = min(e.lam_min for e in cert.entries) if cert.entries else math.inf
            if not all(e.converged for e in cert.entries):
                want = "inconclusive"
            else:
                want = "certified" if sigma0 > cert.margin else (
                    "not_certified" if sigma0 < 0.0 else "inconclusive")
            checks.add("band", cert.verdict == want and cert.sigma0 == sigma0,
                       f"{pid} verdict {cert.verdict} sigma0 {cert.sigma0!r}")
        for i, scan in zip(inputs["scan_idx"], outputs["scans"]):
            cert = outputs["certs"][i]
            ok = len(scan.max_distances) == 3 and all(
                math.isfinite(d) for d in scan.max_distances)
            if cert.verdict == "certified":
                ok = ok and not scan.persistent_offsets and scan.max_distances[-1] <= 1e-4
            checks.add("band", ok, f"{scan.profile_id} scan {scan.max_distances} "
                       f"persistent={len(scan.persistent_offsets)} verdict={cert.verdict}")
        for i in inputs["oracle_idx"] if oracles else ():
            profile = profiles[i]
            k = dict(profile.params)["K"]
            sigma0 = outputs["certs"][i].sigma0
            half = 0.05 * (1.0 + abs(sigma0))
            try:
                ref, lowest = shooting_min_eig(
                    lambda x: -2.0 * k * k / math.cosh(k * x) ** 2,
                    (sigma0 - half, sigma0 + half),
                )
                ok = lowest and abs(sigma0 - ref) <= 1e-6
            except ValueError:   # no sign change: the bracket holds no eigenvalue
                ref, ok = None, False
            checks.add("oracle", ok, f"{profile.id_string()} sigma0 {sigma0!r} vs shooting {ref!r}")
        return {}


# ---------------------------------------------------------------------------
# beta-sweep


class BetaSweep:
    """Both resolvent decay laws at the default acceptance betas."""

    name = "beta-sweep"
    primes_airy = True
    # every profile here passes os_boundary_sweep at the default betas
    os_profiles = (("couette", ()), ("cubic", (0.05,)), ("cubic", (0.1,)), ("cubic", (0.2,)))

    def make_inputs(self, ss, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        family, args = self.os_profiles[int(rng.integers(len(self.os_profiles)))]
        return {"os_profile": getattr(ss, family)(*args), "schrodinger_profile": ss.couette()}

    def solve(self, ss, inputs, call, threads: int, work_dir: Path, tag: str):
        return {
            "os": call("sweeps.os_boundary_sweep", ss.os_boundary_sweep, inputs["os_profile"]),
            "schrodinger": call("sweeps.schrodinger_sweep", ss.schrodinger_sweep,
                                inputs["schrodinger_profile"]),
        }

    def check(self, ss, inputs, outputs, checks: Checks, oracles: bool) -> dict:
        for label, result in outputs.items():
            for row in result.rows:
                checks.add("ladder", row.converged and math.isfinite(row.metric) and row.metric > 0,
                           f"{label} beta={row.beta} converged={row.converged} metric={row.metric!r}")
        schr, os_ = outputs["schrodinger"], outputs["os"]
        for label, result in outputs.items():
            slope = _fit_slope([r.beta for r in result.rows], [r.metric for r in result.rows])
            checks.add("band", result.fit is not None and abs(result.fit.slope - slope) <= 1e-9,
                       f"{label} fitted slope {result.fit} vs {slope!r}")
            if label == "schrodinger":
                checks.add("band", -0.72 <= slope <= -0.61, f"schrodinger slope {slope!r}")
            else:
                checks.add("band", slope <= -5.0 / 6.0 + 0.08, f"os slope {slope!r}")
        checks.add("band", bool(os_.checks.get("single_doubling")),
                   f"os single_doubling {os_.checks}")
        checks.add("band", schr.passed and os_.passed, f"passed {schr.checks} {os_.checks}")
        return {}


# ---------------------------------------------------------------------------
# shift-map


class ShiftMap:
    """Two 8x8 pseudospectrum maps through the CLI, with --json and --csv."""

    name = "shift-map"
    primes_airy = False
    beta = 1e4       # at 1e5 some Schrodinger shifts come back singular
    points = 8
    maps = (
        ("schrodinger", {"family": "couette"}, 0.0),
        ("orr_sommerfeld", {"family": "cubic", "a": 0.1}, 1.0),
    )

    def make_inputs(self, ss, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        mu = (rng.uniform(-0.2, -0.05), rng.uniform(0.05, 0.2))
        nu = (rng.uniform(-1.0, -0.25), rng.uniform(0.25, 1.0))
        return {"mu": [float(v) for v in mu], "nu": [float(v) for v in nu]}

    def argv(self, inputs, kind, config, alpha, threads, json_path, csv_path):
        count = str(self.points)
        return [
            "--threads", str(threads), "pseudo", json.dumps(config),
            "--kind", kind, "--alpha", repr(alpha), "--beta", repr(self.beta),
            "--mu-range", repr(inputs["mu"][0]), repr(inputs["mu"][1]), count,
            "--nu-range", repr(inputs["nu"][0]), repr(inputs["nu"][1]), count,
            "--json", str(json_path), "--csv", str(csv_path),
        ]

    def solve(self, ss, inputs, call, threads: int, work_dir: Path, tag: str):
        from shearstab import cli

        runs = []
        for kind, config, alpha in self.maps:
            json_path = work_dir / f"{tag}-{kind}.json"
            csv_path = work_dir / f"{tag}-{kind}.csv"
            argv = self.argv(inputs, kind, config, alpha, threads, json_path, csv_path)
            code = call("cli.main", cli.main, argv, pooled=True)
            runs.append({"kind": kind, "code": code, "json": json_path, "csv": csv_path})
        return runs

    def check(self, ss, inputs, outputs, checks: Checks, oracles: bool) -> dict:
        from shearstab import cli

        digests = {}
        for run in outputs:
            kind = run["kind"]
            checks.add("exit_code", run["code"] == 0, f"pseudo {kind} exit {run['code']}")
            for suffix in ("json", "csv"):
                path = run[suffix]
                digests[f"{kind}.{suffix}"] = (
                    hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                )
            samples = (
                json.loads(run["json"].read_text())["result"]["samples"]
                if run["json"].exists() else []
            )
            checks.add("ladder", len(samples) == self.points**2,
                       f"pseudo {kind} wrote {len(samples)} samples")
            for s in samples:
                checks.add("ladder", s["converged"] and not s["singular"],
                           f"pseudo {kind} lam={s['lam']} converged={s['converged']} "
                           f"singular={s['singular']}")
        # a profile key the family does not take is a usage error: exit 3
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["pseudo", json.dumps({"family": "couette", "a": 1.0})])
        checks.add("exit_code", code == 3, f"bad profile key exit {code}")
        return digests


WORKLOADS = {w.name: w for w in (StabilityBatch(), BetaSweep(), ShiftMap())}
