"""Monotone channel shear profiles on [-1, 1].

A profile is the base velocity U with derivatives up to fourth order.  The
toolkit only certifies strictly increasing profiles, so construction checks a
positive lower bound on U'.  Inflection analysis locates the velocity values
at which U'' vanishes: isolated points, or the whole range [U(-1), U(1)] when
the curvature vanishes identically, as for the linear profile.

Parameters must be finite and inside their family's range, which keeps U
through U'''' and the Taylor form of the certificate potential finite:

* cubic: -1/3 < a <= 1e6 (the lower bound is monotonicity);
* tanh_shear: 1e-6 <= K <= 1e6; a subnormal K x would cost tanh(Kx)/tanh(K)
  its digits, and from K of about 355.58 on, U'(+-1) underflows to 0 and
  the monotonicity check rejects the profile;
* polynomial: every |c_k| <= 1e6, and U' >= 1e-6 on [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

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
MAX_COEFF = 1e6          # largest cubic a, tanh_shear K and polynomial |c_k|,
                         # and 1 / MAX_COEFF the smallest tanh_shear K
MIN_POLY_SLOPE = 1e-6    # smallest U' of a polynomial on [-1, 1]
MAX_INTERVAL_DENSITY = 100_000   # most samples of one flat curvature interval
# scan cells of the monotonicity check and of the inflection search, and the
# largest |U''| at a polished root, relative to max(1, max |U''|), that still
# counts as an inflection (a degenerate one when |U'''| is that small too)
_MONOTONE_CELLS = 256
_INFLECTION_CELLS = 512
_ROOT_TOL = 1e-11
_ROOT_STEPS = 120        # cap on the steps of one bracketed root search


class DomainError(ValueError):
    """Argument outside the channel [-1, 1] or the velocity range."""


class MonotonicityError(ValueError):
    """Profile is not strictly increasing on [-1, 1]."""


def _real(value) -> float:
    """float(value) for a number; strings and booleans are refused, since
    float() would read "0.1" as 0.1 and True as 1.0."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _params(family: str, values) -> tuple[float, ...]:
    """The parameters as finite floats, else ValueError before any arithmetic.

    A string of coefficients is refused too, rather than read one character
    at a time.
    """
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError(f"{values!r} is a string, not a list of numbers")
        out = tuple(_real(v) for v in values)
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
    def tanh_shear(k: float) -> "Profile":
        """U(x) = tanh(Kx)/tanh(K), the normalized hyperbolic shear layer."""
        (k,) = _params("tanh_shear", (k,))
        if not 1.0 / MAX_COEFF <= k <= MAX_COEFF:
            raise ValueError(
                f"steepness K = {k!r} outside [{1.0 / MAX_COEFF:g}, {MAX_COEFF:g}]"
            )
        p = Profile(family="tanh_shear", params=(("K", k),))
        p._check_monotone()
        return p

    @staticmethod
    def polynomial(coeffs) -> "Profile":
        """U(x) = sum coeffs[k] x^k, degree <= 12, every |coeffs[k]| <= 1e6,
        and U' at least 1e-6 on [-1, 1]."""
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

    @property
    def odd(self) -> bool:
        """U(-x) = -U(x): every family but a polynomial with an even c_k != 0."""
        return self.family != "polynomial" or not any(c for _, c in self.params[::2])

    def id_string(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}({inner})"

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


def _roots(profile, order: int, target: float, xs: np.ndarray, xtol: float) -> list[float]:
    """The t on the increasing nodes ``xs`` with U^(order)(t) = target: each
    node where the difference is zero, and one root in each cell where it
    changes sign, by Newton steps on U^(order + 1) that bisect instead when a
    step would leave the shrinking bracket or not halve the step before
    (``rtsafe``, Numerical Recipes 9.4).  A search stops at a Newton step of
    at most ``xtol`` (taken, so it polishes the root), at a bracket 2 ``xtol``
    wide or after ``_ROOT_STEPS`` steps."""
    fs = profile.deriv(xs, order) - target
    roots = [float(x) for x in xs[fs == 0.0]]
    for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
        lo, hi = xs[i], xs[i + 1]
        x, step = 0.5 * (lo + hi), hi - lo
        for _ in range(_ROOT_STEPS):
            f = float(profile.deriv(x, order)) - target
            lo, hi = (x, hi) if (f < 0.0) == (fs[i] < 0.0) else (lo, x)
            slope = float(profile.deriv(x, order + 1))
            newton = f / slope if slope else math.inf
            if abs(newton) <= xtol:
                x = min(max(x - newton, lo), hi)
                break
            if lo < x - newton < hi and 2.0 * abs(newton) <= step:
                step, x = abs(newton), x - newton
            else:
                step = 0.5 * (hi - lo)
                x = lo + step
                if step <= xtol:
                    break
        roots.append(float(x))
    return roots


def monotonicity_margin(profile: Profile) -> float:
    """min over [-1,1] of U', from a scan grid polished at interior critical points.

    Interior minima of U' sit where U'' crosses zero; each scan-cell sign
    change of U'' is refined by ``_roots``, and every scan node, the
    endpoints included, is a candidate too.
    """
    xs = np.linspace(-1.0, 1.0, _MONOTONE_CELLS + 1)
    roots = _roots(profile, 2, 0.0, xs, 1e-14)
    return float(np.min(profile.deriv(np.append(xs, roots), 1)))


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
    return _roots(profile, 0, nu, np.array([-1.0, 1.0]), 1e-15)[0]


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
        if not 2 <= interval_density <= MAX_INTERVAL_DENSITY:
            raise ValueError(
                f"interval density must be in [2, {MAX_INTERVAL_DENSITY}], "
                f"got {interval_density}"
            )
        vals = [p.nu for p in self.points]
        for lo, hi in self.intervals:
            vals.extend(np.linspace(lo, hi, interval_density))
        return np.array(sorted(vals))


def inflection_values(profile: Profile) -> InflectionSet:
    """Locate the inflection set of U in velocity coordinates.

    Every family is analytic, so U'' vanishes on an interval only where it
    vanishes identically: the set is all of [U(-1), U(1)] when U'' is
    exactly zero at every scan node.  Otherwise each node where U'' is
    exactly zero is an isolated root, and so is each sign change between
    neighbouring nodes (``_roots``).  A root is flagged degenerate when
    U''' also vanishes there.  A tangent zero, where U'' touches 0 without
    changing sign, is a critical point of U'': each sign change of U''' at
    which |U''| is within the root tolerance is kept too, as degenerate.
    Points within 1e-9 of one kept before are dropped.
    """
    xs = np.linspace(-1.0, 1.0, _INFLECTION_CELLS + 1)
    u2 = profile.deriv(xs, 2)
    if not np.any(u2):
        interval = (float(profile.u(xs[0])), float(profile.u(xs[-1])))
        return InflectionSet(points=(), intervals=(interval,))
    tol = _ROOT_TOL * max(1.0, float(np.max(np.abs(u2))))
    # sign changes of U'', then the critical points of U'' (sign changes of
    # U'''), where a tangent zero sits
    candidates = [(r, False) for r in sorted(_roots(profile, 2, 0.0, xs, 1e-14))]
    candidates += [(r, True) for r in _roots(profile, 3, 0.0, xs, 1e-14)]
    points: list[InflectionPoint] = []
    for r, tangent in candidates:
        u3 = profile.deriv(r, 3)
        if abs(profile.deriv(r, 2)) > tol:
            continue
        if any(abs(r - p.x) <= 1e-9 for p in points):
            continue
        points.append(
            InflectionPoint(
                nu=float(profile.u(r)),
                x=float(r),
                u3=float(u3),
                degenerate=bool(tangent or abs(u3) <= tol),
            )
        )
    points.sort(key=lambda p: p.x)
    return InflectionSet(points=tuple(points), intervals=())
