"""Airy special functions, a rotated tail integral, and its zeros.

The advective resolvent near a wall linearizes to an Airy equation, so this
module carries everything Airy-flavoured:

* `airy_ai` / `airy_ai_prime`: complex Airy kernel (vectorized).
* `airy_zeros`: negative real zeros of Ai by guarded Newton refinement.
* `airy_tail_integral`: A0(z) = e^{i pi/6} * integral of Ai(e^{i pi/6} t)
  over t from z to +infinity along the +real direction.
* `tail_zero_margin`: locates every zero of z -> A0(i z) inside a search
  rectangle in the right half plane and reports the smallest real part.
  That margin limits how far a spectral shift may approach the imaginary
  axis before wall modes stop decaying.

Zero hunting runs two independent evaluation routes that share no Airy
kernel.  The search evaluates F(z) = A0(iz) by batched radial quadrature:
each contour point is integrated along its own straight path from the
origin, with a 24-point Gauss-Legendre rule on panels of length at most 4,
and the panels of a whole contour pass share vectorized kernel calls.  The
integrand is entire and its phase grows slowly along each path, so the
rule converges geometrically on such long panels.  On the contour points
of the default search it agrees with a 32-point rule on the same panels,
and with itself on half-length panels, to 8.5e-14 * max(|F|, 1/3); against
mpmath at the rectangle corners and next to a zero it errs by at most
3.5e-14 on that scale.  Its kernel `_ai` computes Ai alone, from the Bessel
identity Ai(w) = pi^-1 sqrt(w/3) K_{1/3}(zeta) with zeta = (2/3) w^(3/2),
written as one Hankel function of -i zeta (DLMF 9.6.1, 10.27.8).  Newton
polishing starts at the first box that winds exactly once.
`airy_tail_integral` then re-verifies every reported zero on the other
route: the same 24-point panel rule, but on the AMOS kernel `special.airy`
and along the path from iz in the +real direction, not from the origin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "airy_zeros",
    "rotation_identity_residual",
    "airy_tail_integral",
    "TailZeroResult",
    "tail_zero_margin",
]

_ROT6 = cmath.exp(1j * math.pi / 6.0)      # e^{i pi/6}
_ROT3 = cmath.exp(2j * math.pi / 3.0)      # e^{2 pi i/3}

AI_AT_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AI_PRIME_AT_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
TAIL_AT_ZERO = 1.0 / 3.0

# the panel rule of both tail-integral routes: 24 Gauss-Legendre points on
# panels of length at most _MAX_PANEL
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_MAX_PANEL = 4.0


def _amos_airy(z):
    # AMOS reads a negative real z with imaginary part -0.0 as lying below
    # its cut and returns a wrong value (Ai(-3 - 0j) = 0.19 + 0.10i); adding
    # 0j turns each -0.0 part into +0.0 and leaves every value as it is
    return special.airy(np.asarray(z, dtype=complex) + 0j)


def airy_ai(z):
    """Ai(z) for real or complex argument, elementwise."""
    return _amos_airy(z)[0]


def airy_ai_prime(z):
    """Ai'(z) for real or complex argument, elementwise."""
    return _amos_airy(z)[1]


def airy_zeros(kmax: int) -> np.ndarray:
    """First kmax zeros of Ai on the negative real axis, descending from -2.33.

    Starts from the classical asymptotic formula a_k ~ -T(3 pi (4k-1)/8),
    T(t) = t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4), then polishes each guess by
    Newton on the kernel itself.
    """
    if not 1 <= kmax <= 50:
        raise ValueError(f"kmax must be in [1, 50], got {kmax}")
    zeros = np.empty(kmax)
    for k in range(1, kmax + 1):
        t = 3.0 * math.pi * (4 * k - 1) / 8.0
        guess = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 / t**2 - 5.0 / 36.0 / t**4)
        x = guess
        for _ in range(60):
            ai, aip, _, _ = special.airy(x)
            step = ai / aip
            x -= step
            if abs(step) < 1e-14 * max(1.0, abs(x)):
                break
        else:
            raise RuntimeError(f"zero {k} did not converge from guess {guess}")
        if abs(x - guess) > 0.05 * max(1.0, abs(guess)):
            raise RuntimeError(f"zero {k} strayed from its asymptotic guess")
        zeros[k - 1] = x
    return zeros


def rotation_identity_residual(z: complex) -> float:
    """|Ai(z) + w Ai(wz) + w^2 Ai(w^2 z)| / max(1, largest term), w = e^{2 pi i/3}.

    The connection formula says the sum vanishes identically; the residual is
    normalized because one rotated copy always sits in a growth sector where
    |Ai| can reach 1e6 and the sum inherits its rounding.
    """
    w = _ROT3
    terms = (
        complex(special.airy(complex(z))[0]),
        w * complex(special.airy(w * z)[0]),
        w * w * complex(special.airy(w * w * z)[0]),
    )
    scale = max(1.0, max(abs(t) for t in terms))
    return abs(sum(terms)) / scale


# ---------------------------------------------------------------------------
# rotated tail integral


def _decay_cut(z: complex) -> float:
    """Offset s beyond which |Ai(e^{i pi/6}(z+s))| is below ~1e-20."""
    s = 4.0
    while s < 80.0:
        w = _ROT6 * (z + s)
        if abs(w) > 2.0 and (2.0 / 3.0 * w * cmath.sqrt(w)).real > 46.0:
            return s
        s += 2.0
    return 80.0


def _tail_sum(z: complex) -> complex:
    """A0(z) by the 24-point Gauss-Legendre sum over equal panels of length
    at most _MAX_PANEL on [z, z + _decay_cut(z)], every node in one AMOS call."""
    cut = _decay_cut(z)
    npan = math.ceil(cut / _MAX_PANEL)
    half = 0.5 * cut / npan
    offsets = half * (2.0 * np.arange(npan)[:, None] + 1.0 + _GL_NODES)
    values = _amos_airy(_ROT6 * (z + offsets))[0]
    return complex(_ROT6 * half * np.sum(values @ _GL_WEIGHTS))


def airy_tail_integral(z: complex) -> complex:
    """A0(z) = e^{i pi/6} * integral_z^inf Ai(e^{i pi/6} t) dt.

    The path leaves z in the +real direction, along which the rotated
    argument enters the decay sector, so truncation at `_decay_cut` offsets
    costs less than 1e-19.  The integral is a fixed 24-point Gauss-Legendre
    sum on panels of length at most 4 with the AMOS kernel.  Halving the
    panels changes it by at most 2e-15 times the integral of |Ai| along the
    path, which is rounding: next to the tail zeros that integral reaches
    4e4 while A0 itself vanishes.
    """
    return _tail_sum(complex(z))


# ---------------------------------------------------------------------------
# zeros of F(z) = A0(iz) in the right half plane

_PANEL_BATCH = 2048     # panels per kernel call: bounds the node array
_H2_FACTOR = -0.5j * cmath.exp(-1j * math.pi / 6.0) / math.sqrt(3.0)


def _ai(w) -> np.ndarray:
    """Ai(w) elementwise from a single Hankel function per point.

    Ai(w) = pi^-1 sqrt(w/3) K_{1/3}(zeta) with zeta = (2/3) w^(3/2) (DLMF
    9.6.1), and K_{1/3}(zeta) = -(pi i/2) e^{-i pi/6} H2_{1/3}(-i zeta) (DLMF
    10.27.8).  On the closed upper half plane -i zeta stays in
    -pi/2 <= arg <= pi, so one identity covers 0 <= arg w <= pi, across the
    ray arg w = 2 pi/3 where zeta itself meets K's cut; the lower half plane
    follows from Ai(conj w) = conj Ai(w).  AMOS `special.airy` also forms
    Ai', Bi and Bi', which the zero search never reads.
    """
    w = np.asarray(w, dtype=complex)
    v = w.real + 1j * np.abs(w.imag)       # upper half plane, +0 on the axis
    root = np.sqrt(v)
    # -i zeta = (2/3)(bc + ad) + (2/3)(bd - ac) i for v = a + ib, b >= 0, and
    # root = c + id, c, d >= 0.  Its real part is negative only if a < 0, and
    # then each rounded product in its imaginary part is >= 0, so no point
    # lands below H2's cut on the negative real axis
    t = (-2.0j / 3.0) * v * root
    zero = v == 0.0
    val = _H2_FACTOR * root * special.hankel2(1.0 / 3.0, np.where(zero, 1.0, t))
    val = np.where(zero, AI_AT_ZERO, val)
    return np.where(w.imag < 0.0, val.conj(), val)


def _radial_values(points) -> np.ndarray:
    """F(z) = A0(iz) at each point, integrated from F(0) = 1/3 along the ray.

    F'(z) = -i e^{i pi/6} Ai(e^{2 pi i/3} z) is entire, so each value is the
    anchor plus a 24-point Gauss-Legendre sum over equal panels of length at
    most _MAX_PANEL on the straight path from the origin.  The panels of all
    points share vectorized kernel calls, `_PANEL_BATCH` panels per call, so
    one call holds at most 49,152 nodes.

    Radial paths matter: along a ray the rotated Airy argument keeps a fixed
    phase, so the integrand magnitude peaks at the endpoint and the result
    carries relative accuracy.  Chaining points together instead would drag
    absolute error from high-magnitude regions (|F| reaches 7e7 at z = 10
    on the default search rectangle) into low ones (|F| ~ 2e-8 at its
    corner 0.05 - 10i), wrecking the phase.
    """
    z = np.asarray(points, dtype=complex).reshape(-1)
    npan = np.maximum(1, np.ceil(np.abs(z) / _MAX_PANEL)).astype(np.intp)
    first = np.cumsum(npan) - npan
    owner = np.repeat(np.arange(z.size), npan)
    step = z[owner] / npan[owner]
    half = 0.5 * step
    mid = step * (np.arange(owner.size) - first[owner] + 0.5)
    sums = np.empty(owner.size, dtype=complex)
    for lo in range(0, owner.size, _PANEL_BATCH):
        sl = slice(lo, lo + _PANEL_BATCH)
        nodes = mid[sl, None] + half[sl, None] * _GL_NODES
        sums[sl] = half[sl] * (_ai(_ROT3 * nodes) @ _GL_WEIGHTS)
    return TAIL_AT_ZERO - 1j * _ROT6 * np.add.reduceat(sums, first)


def _f_prime(z: complex) -> complex:
    return -1j * _ROT6 * complex(special.airy(_ROT3 * complex(z))[0])


def _winding(corners: list[complex], cache: dict) -> int:
    """Winding number of F around a closed polygon, or raise if a zero sits
    too close to the boundary for phase tracking to settle.  `cache` maps
    contour points to F values; each pass evaluates its new points at once.

    A contour point lies on a zero when its Newton step |F/F'| is below
    1e-12.  F' is only evaluated where |F| < 1e-12 too: at the corner
    0.05 - 14i |F| decays to 8e-13, but the Newton step there is 0.27."""
    pts: list[complex] = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        seg = max(2, math.ceil(abs(b - a) / 0.5))
        pts.extend(a + (b - a) * k / seg for k in range(seg))
    for _ in range(40):
        missing = [p for p in pts if p not in cache]
        if missing:
            cache.update(zip(missing, _radial_values(missing).tolist()))
        vals = [cache[p] for p in pts]
        if any(abs(v) < 1e-12 and abs(v) < 1e-12 * abs(_f_prime(p)) for p, v in zip(pts, vals)):
            raise RuntimeError("contour passes through a zero")
        jumps = [
            cmath.phase(vals[(i + 1) % len(vals)] / vals[i])
            for i in range(len(vals))
        ]
        bad = [i for i, j in enumerate(jumps) if abs(j) >= 1.0]
        if not bad:
            return round(sum(jumps) / (2.0 * math.pi))
        refined: list[complex] = []
        bad_set = set(bad)
        for i, p in enumerate(pts):
            refined.append(p)
            if i in bad_set:
                refined.append(0.5 * (p + pts[(i + 1) % len(pts)]))
        if len(refined) == len(pts) or len(refined) > 200_000:
            break
        pts = refined
    raise RuntimeError("phase tracking failed: zero too close to a contour")


def _newton_zero(start: complex) -> complex | None:
    """Newton's method on F from start, or None if it has not settled in 60
    steps or meets an iterate where F' is zero or not finite: a diverging
    iterate (F' is nan at |z| = 2e46) never reaches the quadrature."""
    z = complex(start)
    for _ in range(60):
        dz = _f_prime(z)
        if dz == 0.0 or not cmath.isfinite(dz):
            return None
        step = complex(_radial_values([z])[0]) / dz
        z = z - step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            return complex(z)
    return None


def _box_corners(lo: complex, hi: complex) -> list[complex]:
    return [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]


def _hunt(lo: complex, hi: complex, depth: int, cache: dict) -> list[complex]:
    if depth > 48:
        raise RuntimeError(f"zero search exceeded subdivision depth at {lo}..{hi}")
    try:
        w = _winding(_box_corners(lo, hi), cache)
    except RuntimeError:
        if depth == 0:
            raise
        # nudge the box so its boundary clears the offending zero
        shift = complex(1.7e-7 * (depth + 1), 1.3e-7 * (depth + 1))
        return _hunt(lo - shift, hi + shift, depth + 1, cache)
    if w == 0:
        return []
    if w == 1:
        # one zero inside: a Newton limit that stays in the box is that zero
        z = _newton_zero(0.5 * (lo + hi))
        pad = 1e-9
        if (
            z is not None
            and lo.real - pad <= z.real <= hi.real + pad
            and lo.imag - pad <= z.imag <= hi.imag + pad
        ):
            return [z]
    if max(hi.real - lo.real, hi.imag - lo.imag) < 1e-6:
        raise RuntimeError(f"zero cluster did not separate near {0.5 * (lo + hi)}")
    mid = 0.5 * (lo + hi)
    quads = [
        (lo, mid),
        (complex(mid.real, lo.imag), complex(hi.real, mid.imag)),
        (complex(lo.real, mid.imag), complex(mid.real, hi.imag)),
        (mid, hi),
    ]
    found: list[complex] = []
    for qlo, qhi in quads:
        found.extend(_hunt(qlo, qhi, depth + 1, cache))
    return found


@dataclass(frozen=True)
class TailZeroResult:
    """All zeros of z -> A0(iz) inside the search rectangle."""

    margin: float                    # smallest real part among the zeros
    zeros: tuple[complex, ...]       # sorted by real part
    rectangle: tuple[float, float, float, float]   # re_lo, re_hi, im_lo, im_hi
    residuals: tuple[float, ...]     # |F|/|F'| at each zero, F by quadrature:
                                     # a Newton estimate of the location error


_TAIL_CACHE: dict[tuple, TailZeroResult] = {}
# largest Newton location-error estimate |F|/|F'| the quadrature re-check accepts
_VERIFY_TOL = 1e-10


def tail_zero_margin(
    rectangle: tuple[float, float, float, float] = (0.05, 10.0, -10.0, 10.0),
) -> TailZeroResult:
    """Locate every zero of F(z) = A0(iz) in the rectangle and the margin.

    The search subdivides by argument-principle winding counts, polishes with
    Newton as soon as a box winds exactly once (rejecting a limit that escapes
    its box, which is then subdivided further), deduplicates, checks
    the total against the winding count of the whole rectangle, and finally
    re-evaluates each zero with `airy_tail_integral`, which shares neither
    kernel nor path with the search, demanding a Newton location-error
    estimate |F|/|F'| at most _VERIFY_TOL.  Results are cached per
    rectangle.
    """
    rect = tuple(map(float, rectangle))
    if rect in _TAIL_CACHE:
        return _TAIL_CACHE[rect]
    re_lo, re_hi, im_lo, im_hi = rect
    finite = all(map(math.isfinite, rect))
    if not (finite and re_lo > 0.0 and re_hi > re_lo and im_hi > im_lo):
        raise ValueError(f"bad search rectangle {rectangle}")
    lo = complex(re_lo, im_lo)
    hi = complex(re_hi, im_hi)
    cache: dict = {}
    raw = _hunt(lo, hi, 0, cache)
    zeros: list[complex] = []
    for z in sorted(raw, key=lambda v: (v.real, v.imag)):
        inside = (
            re_lo - 1e-6 <= z.real <= re_hi + 1e-6
            and im_lo - 1e-6 <= z.imag <= im_hi + 1e-6
        )
        if inside and all(abs(z - seen) > 1e-8 for seen in zeros):
            zeros.append(z)
    expected = _winding(_box_corners(lo, hi), cache)
    if len(zeros) != expected:
        raise RuntimeError(
            f"found {len(zeros)} zeros but the rectangle winds {expected} times"
        )
    if not zeros:
        raise RuntimeError("search rectangle contains no zeros; margin undefined")
    residuals = tuple(
        abs(airy_tail_integral(1j * z)) / abs(_f_prime(z)) for z in zeros
    )
    worst = max(residuals)
    if worst > _VERIFY_TOL:
        raise RuntimeError(
            f"independent quadrature rejects a zero: residual {worst:.3e}"
        )
    result = TailZeroResult(
        margin=float(min(z.real for z in zeros)),
        zeros=tuple(zeros),
        rectangle=rect,
        residuals=tuple(float(r) for r in residuals),
    )
    _TAIL_CACHE[rect] = result
    return result
