"""Scaling-law sweeps over the rescaled Reynolds number.

Each sweep drives one operator family across a range of beta (or shifts, or
wavenumbers), extracts a norm or a solve-versus-comparator error, and
normalizes it by the power law the resolvent analysis predicts.  A healthy
sweep shows a flat normalized column (bounded span) and, where a law is
fitted, a log-log slope inside the stated band.

* advective Schrodinger  -u'' + i b U u - b lam u : norm ~ b^(-2/3)
* boundary-shift fourth order operator            : norm ~ b^(-5/6)
* L1 critical-layer comparator                    : error ~ ||f||_H1 / b
* velocity-weighted data                          : energy ~ ||f||_2 / b
* large shifts                                    : norm ~ 1/(b |lam|)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve

from .airy import airy_zeros, tail_zero_margin
from .chebdiff import _derivative, build_grid
from .operators import MAX_BETA, SpectralParams, assemble_schrodinger
from .profile import Profile, x_of_nu
from .spectral import (
    RESOLVENT_RTOL,
    _forked_map,
    _one_blas_thread,
    _refine,
    ladder_start,
    resolvent_sample,
    weighted_norm,
)

__all__ = [
    "SlopeFit",
    "fit_slope",
    "margin_constant",
    "SmoothData",
    "data_preset",
    "SweepRow",
    "SweepResult",
    "schrodinger_sweep",
    "l1_approximation_sweep",
    "weighted_data_sweep",
    "os_boundary_sweep",
    "os_large_alpha_sweep",
    "os_large_lambda_check",
]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power law y ~ C x^slope in log10 coordinates."""

    slope: float
    intercept: float
    rms_residual: float
    n_points: int


def fit_slope(xs, ys) -> SlopeFit:
    """Fit log10(y) = slope*log10(x) + intercept.

    Requires at least 4 strictly positive samples spanning a full decade in
    x, otherwise the slope is numerically meaningless and a ValueError says
    so rather than returning garbage.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("samples must be two equal-length 1-d sequences")
    if len(xs) < 4:
        raise ValueError(f"need at least 4 samples for a slope, got {len(xs)}")
    if np.min(xs) <= 0.0 or np.min(ys) <= 0.0 or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise ValueError("samples must be finite and positive")
    if np.max(xs) / np.min(xs) < 10.0:
        raise ValueError("abscissa spread is under one decade")
    design = np.vstack([np.log10(xs), np.ones_like(xs)]).T
    target = np.log10(ys)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    return SlopeFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        rms_residual=rms,
        n_points=len(xs),
    )


def _try_fit(xs, ys) -> SlopeFit | None:
    try:
        return fit_slope(xs, ys)
    except ValueError:
        return None


def margin_constant(fraction: float = 0.5) -> float:
    """Safe shift scale: fraction * min(tail-zero margin, |first Ai zero|/2).

    Shifts lam = (this constant) * beta^(-1/3) keep both wall modes decaying
    and stay clear of every resonance the tail integral can produce, with
    `fraction` of headroom.  Requires 0 < fraction <= 0.9.
    """
    if not 0.0 < fraction <= 0.9:
        raise ValueError(f"fraction must lie in (0, 0.9], got {fraction}")
    cap = min(tail_zero_margin().margin, abs(float(airy_zeros(1)[0])) / 2.0)
    return fraction * cap


@dataclass(frozen=True)
class SmoothData:
    """Forcing profile with a closed-form derivative."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fp: Callable[[np.ndarray], np.ndarray]


def data_preset(name: str = "exp", seed: int | None = None) -> SmoothData:
    """Built-in forcing profiles: 'exp', 'affine', or seeded 'trig'.

    The trig preset draws degree-4 random trigonometric coefficients from a
    seeded generator, so the same seed always produces the same data.
    """
    if name == "exp":
        return SmoothData("exp", np.exp, np.exp)
    if name == "affine":
        return SmoothData(
            "affine",
            lambda x: 2.0 + np.asarray(x, dtype=float),
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
        )
    if name == "trig":
        if seed is None:
            raise ValueError("trig data needs a seed")
        rng = np.random.default_rng(seed)
        degree = 4
        a = rng.standard_normal(degree + 1) / (1.0 + np.arange(degree + 1)) ** 2
        b = rng.standard_normal(degree) / (1.0 + np.arange(1, degree + 1)) ** 2
        ks = np.arange(1, degree + 1, dtype=float)

        def f(x):
            x = np.asarray(x, dtype=float)
            kx = np.multiply.outer(ks, x)
            return 2.0 + a[0] + np.tensordot(a[1:], np.cos(kx), 1) + np.tensordot(
                b, np.sin(kx), 1
            )

        def fp(x):
            x = np.asarray(x, dtype=float)
            kx = np.multiply.outer(ks, x)
            return np.tensordot(-a[1:] * ks, np.sin(kx), 1) + np.tensordot(
                b * ks, np.cos(kx), 1
            )

        return SmoothData(f"trig[{seed}]", f, fp)
    raise ValueError(f"unknown data preset {name!r}")


@dataclass(frozen=True)
class SweepRow:
    """One operating point of a sweep."""

    beta: float
    alpha: float
    lam: complex
    n_used: int
    converged: bool
    metric: float
    bound_ratio: float


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows plus the fitted law and normalized-column diagnostics.

    span is max/min of the bound ratios; checks holds the sweep's named
    pass/fail observations; degraded flags a sweep where fewer than 80% of
    the rows reached grid convergence, or where a named check had nothing
    to test (a slope check without a fit, a span over a single row).  Such
    a check is recorded as failed.
    """

    kind: str
    profile_id: str
    rows: tuple[SweepRow, ...]
    fit: SlopeFit | None
    bound_ratio_max: float
    span: float
    converged_fraction: float
    degraded: bool
    checks: dict
    meta: dict

    @property
    def passed(self) -> bool:
        return not self.degraded and all(self.checks.values())


def _betas(betas) -> list[float]:
    """Sweep betas as floats; each must be finite, positive and at most
    ``MAX_BETA``, checked before any row is computed."""
    betas = [float(b) for b in betas]
    for beta in betas:
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be finite and positive, got {beta}")
        if beta > MAX_BETA:
            raise ValueError(f"beta {beta!r} exceeds {MAX_BETA:g}")
    return betas


def _row(params: SpectralParams, n_used, converged, metric, bound_ratio) -> SweepRow:
    return SweepRow(
        beta=params.beta,
        alpha=params.alpha,
        lam=params.lam,
        n_used=n_used,
        converged=converged,
        metric=metric,
        bound_ratio=bound_ratio,
    )


def _finish(kind, profile, rows, meta, fit_on=None, span_limit=None, **extra):
    """The SweepResult of a sweep's rows.

    Fits the metric against the row field ``fit_on`` when one is named.
    Checks are all_converged, then span_under_<span_limit> when a limit is
    given, then ``extra`` in order: a bool as it stands, a callable on the
    fitted slope.  A span check over one row, or a slope check without a
    fit, tests nothing: it fails and the result is degraded.
    """
    if not rows:
        raise ValueError("a sweep needs at least one operating point")
    ratios = [r.bound_ratio for r in rows]
    finite = [r for r in ratios if math.isfinite(r) and r > 0.0]
    span = (max(finite) / min(finite)) if len(finite) == len(ratios) else math.inf
    conv = sum(r.converged for r in rows) / len(rows)
    xs = [getattr(r, fit_on) for r in rows] if fit_on else None
    fit = _try_fit(xs, [r.metric for r in rows]) if xs else None
    checks = {"all_converged": all(r.converged for r in rows)}
    untested = False
    if span_limit is not None:
        untested = len(rows) < 2
        checks[f"span_under_{span_limit}"] = not untested and span < span_limit
    for name, check in extra.items():
        if not callable(check):
            checks[name] = check
        else:
            untested = untested or fit is None
            checks[name] = fit is not None and check(fit.slope)
    return SweepResult(
        kind=kind,
        profile_id=profile.id_string(),
        rows=tuple(rows),
        fit=fit,
        bound_ratio_max=max(ratios),
        span=span,
        converged_fraction=conv,
        degraded=conv < 0.8 or untested,
        checks=checks,
        meta=meta,
    )


@_one_blas_thread()
def _sample_rows(profile, kind, points, measure) -> list[SweepRow]:
    """One row per operating point from its resolvent ladder;
    measure(params, sample) -> (metric, bound_ratio).  The points are dealt
    over one worker process per CPU (``spectral._forked_map``)."""

    def row(params):
        s = resolvent_sample(profile, params, kind)
        return _row(params, s.n_used, s.converged, *measure(params, s))

    return _forked_map(row, points)


@_one_blas_thread()
def _solve_rows(profile, betas, lam, rhs_of, metric_of, data_norm):
    """One row per beta from a direct solve of the advective operator.

    (-d2 + i*b*U - b*lam) w = rhs_of(nodes) is solved on the grid ladder
    until metric_of(grid, w, beta) settles to RESOLVENT_RTOL, with w
    zero-extended to the full grid.  The bound ratio is metric * beta /
    data_norm(grid) on the accepted grid.  Returns the rows and those norms.
    The betas are dealt over one worker process per CPU
    (``spectral._forked_map``).
    """

    def agree(prev, cur):
        return abs(cur[0] - prev[0]) <= RESOLVENT_RTOL * max(prev[0], 1e-300)

    def row(beta):
        params = SpectralParams(0.0, beta, lam)

        def evaluate(n):
            grid = build_grid(n)
            op = assemble_schrodinger(profile, params, grid)
            rhs = np.asarray(rhs_of(grid.nodes), dtype=complex)
            w = np.zeros(grid.n + 1, dtype=complex)
            w[1:-1] = solve(op.matrix, rhs[1:-1])
            return metric_of(grid, w, params.beta), grid

        start = ladder_start(params.beta)
        (metric, grid), n_used, converged = _refine(evaluate, start, agree)
        norm = data_norm(grid)
        return _row(params, n_used, converged, metric, metric * params.beta / norm), norm

    rows = _forked_map(row, betas)
    return [r for r, _ in rows], [norm for _, norm in rows]


_DEFAULT_SCHRODINGER_BETAS = tuple(np.logspace(3.0, 7.0, 9))
_DEFAULT_OS_BETAS = tuple(np.logspace(4.0, 7.0, 7))
_SCHRODINGER_BAND = (-0.72, -0.61)
# The fourth-order sweeps' ranges: boundary-shift wavenumbers in
# (0, _ALPHA_MAX] and slopes at most _SLOPE_LIMIT, short-wave wavenumbers
# from _ALPHA_MIN on, far shifts with |lam| from _LAM_MIN on.
_ALPHA_MAX = 5.0
_SLOPE_LIMIT = -5.0 / 6.0 + 0.08
_ALPHA_MIN = 2.0
_LAM_MIN = 5.0


def schrodinger_sweep(
    profile: Profile,
    betas=_DEFAULT_SCHRODINGER_BETAS,
    lam: complex = 0.0,
    margin_fraction: float = 0.5,
) -> SweepResult:
    """Resolvent norm of -d2 + i*b*U - b*lam across beta.

    The fitted slope of the norm should sit near -2/3, the critical-layer
    exponent.  Each row also carries the normalized bound ratio
    (norm + sqrt(r)*derivative norm) / r with r = min(margin/|mu*b|,
    b^(-2/3)), which the theory predicts stays bounded.
    """
    betas = _betas(betas)
    lam = complex(lam)
    upsilon = margin_constant(margin_fraction)
    for beta in betas:
        if lam.real * beta ** (1.0 / 3.0) >= upsilon:
            raise ValueError(
                f"shift real part {lam.real} exceeds the safe scale at beta {beta}"
            )

    def measure(params, s):
        r = params.beta ** (-2.0 / 3.0)
        if lam.real != 0.0:
            r = min(upsilon / abs(lam.real * params.beta), r)
        return s.norm_inv, (s.norm_inv + math.sqrt(r) * s.norm_d_inv) / r

    points = [SpectralParams(0.0, beta, lam) for beta in betas]
    rows = _sample_rows(profile, "schrodinger", points, measure)
    lo, hi = _SCHRODINGER_BAND
    return _finish(
        "schrodinger",
        profile,
        rows,
        {"band": _SCHRODINGER_BAND, "upsilon": upsilon, "lam": lam},
        fit_on="beta",
        slope_in_band=lambda slope: lo <= slope <= hi,
    )


def l1_approximation_sweep(
    profile: Profile,
    betas=(1e4, 1e5, 1e6),
    lam: complex = 0.0,
    data: SmoothData | None = None,
) -> SweepResult:
    """Critical-layer comparator error in L1 across beta.

    Solves (-d2 + i*b*U - b*lam) w = f and compares w against the
    regularized advective response -i f(x_c) / (b [U - nu - i r]), r =
    max(-mu, b^(-1/3)), concentrated at the critical point x_c where
    U = nu.  The L1 error times b, normalized by the H1 norm of f, should
    stay bounded across beta.
    """
    lam = complex(lam)
    if lam.real > 0.0:
        raise ValueError("shift real part must be nonpositive")
    data = data or data_preset("exp")
    betas = _betas(betas)
    xc = x_of_nu(profile, lam.imag)
    f_at_xc = float(np.asarray(data.f(np.array([xc])))[0])

    def metric_of(grid, w, beta):
        reg = max(-lam.real, beta ** (-1.0 / 3.0))
        comp = 1j * f_at_xc / (beta * (profile.u(grid.nodes) - lam.imag - 1j * reg))
        return float(np.sum(grid.weights * np.abs(w + comp)))

    def h1_norm(grid):
        fv = np.asarray(data.f(grid.nodes), dtype=float)
        fpv = np.asarray(data.fp(grid.nodes), dtype=float)
        return math.sqrt(np.sum(grid.weights * (fv**2 + fpv**2)))

    rows, h1 = _solve_rows(profile, betas, lam, data.f, metric_of, h1_norm)
    return _finish(
        "l1_approximation",
        profile,
        rows,
        {"data": data.name, "critical_point": xc, "h1_norms": dict(zip(betas, h1))},
        span_limit=5,
    )


def weighted_data_sweep(
    profile: Profile,
    betas=(1e4, 1e5, 1e6),
    lam: complex = 0.0,
    data: SmoothData | None = None,
) -> SweepResult:
    """Energy response to velocity-weighted data across beta.

    Solves (-d2 + i*b*U - b*lam) w = (U - nu) f.  Multiplying the data by
    the local advection speed cancels the critical-layer peak, so
    (||w||_2 + b^(-1/2) ||w'||_2) * b / ||f||_2 should stay bounded.
    """
    lam = complex(lam)
    if lam.real > 0.0:
        raise ValueError("shift real part must be nonpositive")
    data = data or data_preset("exp")

    def metric_of(grid, w, beta):
        dw = _derivative(w)
        return weighted_norm(grid, w) + beta ** (-0.5) * weighted_norm(grid, dw)

    rows, _ = _solve_rows(
        profile,
        _betas(betas),
        lam,
        lambda x: (profile.u(x) - lam.imag) * data.f(x),
        metric_of,
        lambda grid: weighted_norm(grid, np.asarray(data.f(grid.nodes), dtype=float)),
    )
    return _finish("weighted_data", profile, rows, {"data": data.name}, span_limit=5)


def os_boundary_sweep(
    profile: Profile,
    alpha: float = 1.0,
    betas=_DEFAULT_OS_BETAS,
    margin_fraction: float = 0.5,
) -> SweepResult:
    """Fourth-order operator norms at the boundary-layer shift.

    Sets lam = (margin constant) * b^(-1/3), where wall modes still decay,
    and sweeps b.  The combined solve + derivative norm should fall like
    b^(-5/6); the fitted slope must not exceed _SLOPE_LIMIT, and every row
    must converge within a single grid doubling.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= _ALPHA_MAX:
        raise ValueError(f"wavenumber {alpha} outside (0, {_ALPHA_MAX}]")
    betas = _betas(betas)
    upsilon = margin_constant(margin_fraction)

    def measure(params, s):
        return s.combined, s.combined * params.beta ** (5.0 / 6.0)

    points = [SpectralParams(alpha, b, upsilon * b ** (-1.0 / 3.0)) for b in betas]
    rows = _sample_rows(profile, "orr_sommerfeld", points, measure)
    return _finish(
        "os_boundary",
        profile,
        rows,
        {
            "upsilon_eff": upsilon,
            "fraction": margin_fraction,
            "slope_limit": _SLOPE_LIMIT,
        },
        fit_on="beta",
        single_doubling=all(
            r.converged and r.n_used <= 2 * ladder_start(r.beta) for r in rows
        ),
        slope_at_most=lambda slope: slope <= _SLOPE_LIMIT,
    )


def os_large_alpha_sweep(
    profile: Profile,
    alphas,
    beta: float,
    margin_fraction: float = 0.5,
) -> SweepResult:
    """Short-wave regime: solve norm times alpha^(1/2) b^(5/6) should flatten.

    Requires strictly increasing wavenumbers, all at least _ALPHA_MIN, so the
    sweep actually probes the short-wave asymptotics.
    """
    alphas = [float(a) for a in alphas]
    (beta,) = _betas([beta])
    if not alphas or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("wavenumbers must be strictly increasing")
    if alphas[0] < _ALPHA_MIN:
        raise ValueError(f"short-wave sweep needs alpha >= {_ALPHA_MIN}")
    upsilon = margin_constant(margin_fraction)
    lam = upsilon * beta ** (-1.0 / 3.0)

    def measure(params, s):
        metric = s.norm_inv * math.sqrt(params.alpha) * beta ** (5.0 / 6.0)
        return metric, metric

    points = [SpectralParams(a, beta, lam) for a in alphas]
    rows = _sample_rows(profile, "orr_sommerfeld", points, measure)
    return _finish(
        "os_large_alpha",
        profile,
        rows,
        {"upsilon_eff": upsilon, "beta": beta},
        fit_on="alpha",
        span_limit=10,
    )


def os_large_lambda_check(
    profile: Profile,
    alpha: float = 1.0,
    beta: float = 1e5,
    lams=(-10.0, complex(-30.0, 5.0), 40.0j),
) -> SweepResult:
    """Far-shift regime: combined norm times b |lam| should be O(1).

    Every shift must satisfy |lam| >= _LAM_MIN and Re(lam) < 1, keeping the
    check inside the falloff region of the resolvent.
    """
    lams = [complex(v) for v in lams]
    for lam in lams:
        if abs(lam) < _LAM_MIN:
            raise ValueError(f"|{lam}| below the far-shift threshold {_LAM_MIN}")
        if lam.real >= 1.0:
            raise ValueError(f"shift {lam} has real part >= 1")
    (beta,) = _betas([beta])

    def measure(params, s):
        metric = s.combined * beta * abs(params.lam)
        return metric, metric

    points = [SpectralParams(alpha, beta, lam) for lam in lams]
    rows = _sample_rows(profile, "orr_sommerfeld", points, measure)
    return _finish("os_large_lambda", profile, rows, {"beta": beta}, span_limit=10)
