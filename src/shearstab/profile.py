"""Monotone channel shear profiles on [-1, 1].

A profile is the base velocity U with derivatives up to fourth order.  The
toolkit only certifies strictly increasing profiles, so construction checks a
positive lower bound on U' by default.  Inflection analysis locates the
velocity values at which U'' vanishes: isolated crossings and whole intervals
(identically vanishing curvature) are both supported, since the linear
profile's inflection set is all of [U(-1), U(1)].

Parameters must be finite and inside their family's range, which keeps U
through U'''' and the Taylor form of the certificate potential finite:

* cubic: -1/3 < a <= 1e6 (the lower bound is monotonicity);
* tanh_shear: K > 0; from K of about 355.58 on, U'(+-1) underflows to 0 and
  the monotonicity check rejects the profile;
* polynomial: every |c_k| <= 1e6, and U' >= 1e-6 on [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import brentq

__all__ = [
    "Profile",
    "couette",
    "cubic",
    "tanh_shear",
    "polynomial",
    "InflectionPoint",
    "InflectionSet",
    "DomainError",
    "MonotonicityError",
    "x_of_nu",
    "inflection_values",
]

MAX_POLY_DEGREE = 12
MAX_COEFF = 1e6          # largest cubic a and polynomial |c_k|
MIN_POLY_SLOPE = 1e-6    # smallest U' of a polynomial on [-1, 1]


class DomainError(ValueError):
    """Argument outside the channel [-1, 1] or the velocity range."""


class MonotonicityError(ValueError):
    """Profile is not strictly increasing on [-1, 1]."""


def _params(family: str, values) -> tuple[float, ...]:
    """The parameters as finite floats, else ValueError before any arithmetic."""
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{family} parameters must be real numbers: {exc}") from None
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{family} parameters must be finite, got {out}")
    return out


def _poly_derivs(coeffs: tuple[float, ...]) -> list[Polynomial]:
    p = Polynomial(coeffs)
    out = [p]
    for _ in range(4):
        p = p.deriv()
        out.append(p)
    return out


@dataclass(frozen=True)
class Profile:
    """Shear profile; build via the couette/cubic/tanh_shear/polynomial factories."""

    family: str
    params: tuple[tuple[str, float], ...] = ()
    _polys: tuple = field(default=(), repr=False, compare=False)

    # -- factories ---------------------------------------------------------

    @staticmethod
    def couette() -> "Profile":
        """U(x) = x."""
        return Profile(
            family="couette",
            params=(),
            _polys=tuple(_poly_derivs((0.0, 1.0))),
        )

    @staticmethod
    def cubic(a: float) -> "Profile":
        """U(x) = x + a x^3; monotone for a > -1/3, single inflection at 0."""
        (a,) = _params("cubic", (a,))
        if a > MAX_COEFF:
            raise ValueError(f"cubic a = {a!r} exceeds {MAX_COEFF:g}")
        p = Profile(
            family="cubic",
            params=(("a", a),),
            _polys=tuple(_poly_derivs((0.0, 1.0, 0.0, a))),
        )
        p._check_monotone()
        return p

    @staticmethod
    def tanh_shear(k: float, check_monotone: bool = True) -> "Profile":
        """U(x) = tanh(Kx)/tanh(K), the normalized hyperbolic shear layer."""
        (k,) = _params("tanh_shear", (k,))
        if not k > 0:
            raise ValueError(f"steepness must be positive, got {k}")
        p = Profile(family="tanh_shear", params=(("K", k),))
        if check_monotone:
            p._check_monotone()
        return p

    @staticmethod
    def polynomial(coeffs, check_monotone: bool = True) -> "Profile":
        """U(x) = sum coeffs[k] x^k, degree <= 12, every |coeffs[k]| <= 1e6.

        With check_monotone, U' must also be at least 1e-6 on [-1, 1].
        """
        coeffs = _params("polynomial", coeffs)
        if len(coeffs) == 0:
            raise ValueError("empty coefficient list")
        if len(coeffs) - 1 > MAX_POLY_DEGREE:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds {MAX_POLY_DEGREE}"
            )
        if max(map(abs, coeffs)) > MAX_COEFF:
            raise ValueError(f"polynomial coefficients {coeffs} exceed {MAX_COEFF:g}")
        p = Profile(
            family="polynomial",
            params=tuple((f"c{i}", c) for i, c in enumerate(coeffs)),
            _polys=tuple(_poly_derivs(coeffs)),
        )
        if check_monotone:
            p._check_monotone(MIN_POLY_SLOPE)
        return p

    # -- evaluation --------------------------------------------------------

    def _tanh_k(self) -> float:
        return dict(self.params)["K"]

    def deriv(self, x, order: int = 0):
        """U^(order)(x) for order 0..4, vectorized; raises DomainError off [-1,1]."""
        if not 0 <= order <= 4:
            raise ValueError(f"derivative order {order} not in 0..4")
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise DomainError("profile evaluated outside [-1, 1]")
        if self._polys:
            return self._polys[order](x)
        k = self._tanh_k()
        t = np.tanh(k * x)
        with np.errstate(over="ignore"):   # cosh^2 -> inf gives the limit 0
            s2 = 1.0 / np.cosh(k * x) ** 2
        norm = np.tanh(k)
        if order == 0:
            return t / norm
        if order == 1:
            return k * s2 / norm
        if order == 2:
            return -2.0 * k**2 * s2 * t / norm
        if order == 3:
            return -2.0 * k**3 * s2 * (s2 - 2.0 * t**2) / norm
        return 8.0 * k**4 * s2 * t * (2.0 * s2 - t**2) / norm

    def u(self, x):
        return self.deriv(x, 0)

    def id_string(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}({inner})"

    def param_dict(self) -> dict:
        return {"family": self.family, **{k: v for k, v in self.params}}

    def _check_monotone(self, floor: float = 0.0) -> None:
        m = monotonicity_margin(self)
        if not (m > 0.0 and m >= floor):
            raise MonotonicityError(
                f"{self.id_string()} is not strictly increasing "
                f"(min U' = {m:.3e}, floor {floor:g})"
            )


# the factories read more naturally as free functions
couette = Profile.couette
cubic = Profile.cubic
tanh_shear = Profile.tanh_shear
polynomial = Profile.polynomial


def eval_derivatives(profile: Profile, x):
    """(U, U', U'', U''', U'''') at x."""
    return tuple(profile.deriv(x, k) for k in range(5))


def monotonicity_margin(profile: Profile, refinement: int = 256) -> float:
    """min over [-1,1] of U', from a scan grid polished at interior critical points.

    Interior minima of U' sit where U'' crosses zero; each scan-cell sign
    change of U'' is bracketed and refined, and endpoints are always included.
    """
    xs = np.linspace(-1.0, 1.0, refinement + 1)
    u1 = profile.deriv(xs, 1)
    candidates = [u1[0], u1[-1], float(u1.min())]
    u2 = profile.deriv(xs, 2)
    sign = np.sign(u2)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        r = brentq(lambda t: profile.deriv(t, 2), xs[i], xs[i + 1], xtol=1e-14)
        candidates.append(float(profile.deriv(r, 1)))
    return float(min(candidates))


def x_of_nu(profile: Profile, nu: float) -> float:
    """The unique x with U(x) = nu; requires nu in [U(-1), U(1)]."""
    lo, hi = profile.u(-1.0), profile.u(1.0)
    if not lo - 1e-12 <= nu <= hi + 1e-12:
        raise DomainError(f"velocity {nu} outside profile range [{lo}, {hi}]")
    nu = min(max(nu, lo), hi)
    if nu == lo:
        return -1.0
    if nu == hi:
        return 1.0
    x = brentq(lambda t: profile.u(t) - nu, -1.0, 1.0, xtol=1e-15)
    # one Newton step squeezes the residual to the last bit
    d = profile.deriv(x, 1)
    if d != 0.0:
        x = min(1.0, max(-1.0, x - (profile.u(x) - nu) / d))
    return float(x)


@dataclass(frozen=True)
class InflectionPoint:
    nu: float
    x: float
    u3: float            # U''' at the crossing
    degenerate: bool     # |U'''| below tolerance: flat crossing


@dataclass(frozen=True)
class InflectionSet:
    """Velocity values with vanishing curvature: isolated points and intervals."""

    points: tuple[InflectionPoint, ...]
    intervals: tuple[tuple[float, float], ...]

    def is_empty(self) -> bool:
        return not self.points and not self.intervals

    def sample(self, interval_density: int = 33) -> np.ndarray:
        """All isolated values plus an inclusive uniform sample of each interval."""
        if interval_density < 2:
            raise ValueError("interval density must be at least 2")
        vals = [p.nu for p in self.points]
        for lo, hi in self.intervals:
            vals.extend(np.linspace(lo, hi, interval_density))
        return np.array(sorted(vals))


def inflection_values(
    profile: Profile,
    tol_root: float = 1e-11,
    scan_points: int = 512,
) -> InflectionSet:
    """Locate the inflection set of U in velocity coordinates.

    A run of at least three scan nodes where U'' is exactly zero is reported
    as an interval.  Every family is analytic, so U'' vanishes on an
    interval only where it vanishes identically; a small nonzero U'' (about
    1e-11 at the walls of tanh_shear(16)) is no interval.  Isolated sign
    changes are polished by bisection plus one Newton step and flagged as
    degenerate when U''' also vanishes there.
    """
    xs = np.linspace(-1.0, 1.0, scan_points + 1)
    u2 = profile.deriv(xs, 2)
    scale = float(np.max(np.abs(u2)))
    flat = u2 == 0.0

    intervals: list[tuple[float, float]] = []
    runs: list[tuple[int, int]] = []
    i = 0
    while i <= scan_points:
        if flat[i]:
            j = i
            while j + 1 <= scan_points and flat[j + 1]:
                j += 1
            if j - i >= 2:  # at least three consecutive flat nodes
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    for i, j in runs:
        intervals.append((float(profile.u(xs[i])), float(profile.u(xs[j]))))

    def inside_run(idx: int) -> bool:
        return any(i <= idx <= j for i, j in runs)

    sign = np.sign(np.where(flat, 0.0, u2))
    roots: list[float] = []
    # scan nodes sitting exactly on a root (outside flat runs) are roots
    for i in range(scan_points + 1):
        if flat[i] and not inside_run(i):
            roots.append(float(xs[i]))
    for i in range(scan_points):
        if sign[i] * sign[i + 1] < 0 and not (inside_run(i) or inside_run(i + 1)):
            roots.append(
                brentq(lambda t: profile.deriv(t, 2), xs[i], xs[i + 1], xtol=1e-14)
            )

    points: list[InflectionPoint] = []
    for r in sorted(roots):
        u3 = profile.deriv(r, 3)
        if u3 != 0.0:
            r = min(1.0, max(-1.0, r - profile.deriv(r, 2) / u3))
            u3 = profile.deriv(r, 3)
        if abs(profile.deriv(r, 2)) > tol_root * max(1.0, scale):
            continue
        if points and abs(r - points[-1].x) <= 1e-9:
            continue
        points.append(
            InflectionPoint(
                nu=float(profile.u(r)),
                x=float(r),
                u3=float(u3),
                degenerate=bool(abs(u3) <= tol_root * max(1.0, scale)),
            )
        )

    # points swallowed by an interval are duplicates of its sampling
    pruned = tuple(
        p
        for p in points
        if not any(lo - 1e-12 <= p.nu <= hi + 1e-12 for lo, hi in intervals)
    )
    return InflectionSet(points=pruned, intervals=tuple(intervals))
