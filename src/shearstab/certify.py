"""Stability certificates and inviscid spectrum scans.

A monotone profile is certified when the Schrodinger-type operator
-d2 + U''/(U - nu) with Dirichlet walls is positive for every velocity nu
that the curvature vanishes at (the inflection set).  Positivity of the
smallest eigenvalue, uniformly over that set, rules out inviscid neutral
modes and with them the large-Reynolds instability route.

The Rayleigh scan complements the certificate: it computes the spectrum of
the inviscid evolution generator L = H^-1 (U H + U''), H = -d2 + alpha^2,
and measures how far eigenvalues stray from the real segment [U(-1), U(1)],
tracking which excursions persist as the grid is refined.  It solves the
generator conjugated by H, U + U'' H^-1, which has the same spectrum.
Where U and U'' are exactly odd on the nodes (Couette, cubic, tanh_shear,
odd polynomials), ``assemble_rayleigh`` makes that matrix exactly
anti-centrosymmetric, and ``spectral.eigenvalues`` takes its spectrum from
one real eigen-solve of half the size, +-sqrt(eig(YX)).  The certificate
ladders keep their full-size solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebdiff import build_grid
from .operators import assemble_rayleigh
from .profile import Profile, inflection_values
from .spectral import _check_threads, eig_floor_ladder, eigenvalues

__all__ = [
    "CertificateEntry",
    "CertificateResult",
    "certify_profile",
    "RayleighScan",
    "rayleigh_spectrum_scan",
]


@dataclass(frozen=True)
class CertificateEntry:
    """Smallest certificate eigenvalue at one sampled velocity."""

    nu: float
    lam_min: float
    n_used: int
    converged: bool


@dataclass(frozen=True)
class CertificateResult:
    """Verdict over the whole inflection set.

    sigma0 is the infimum of the sampled smallest eigenvalues (inf when the
    inflection set is empty and the certificate holds vacuously).  Verdicts:
    'certified' when sigma0 clears the margin with every entry converged,
    'not_certified' when sigma0 is negative, 'inconclusive' otherwise.
    """

    profile_id: str
    verdict: str
    sigma0: float
    margin: float
    entries: tuple[CertificateEntry, ...]
    vacuous: bool
    interval_density: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def certify_profile(
    profile: Profile,
    interval_density: int = 33,
    margin: float = 1e-6,
    threads: int | None = None,
) -> CertificateResult:
    """Certify positivity of -d2 + U''/(U - nu) over the inflection set.

    Velocities come from the profile's inflection set: isolated inflection
    values directly, flat curvature intervals (where U'' is exactly zero on
    the scan) through an inclusive linspace of `interval_density` points
    each.  Each isolated value gets its own eigenvalue ladder.  A flat
    interval has U'' = 0, so the operator is -d2 at every velocity: one
    ladder serves all of its samples, and Couette takes two eigen-solves
    (n = 64 and 128) at any density.  `threads` is validated (at least 1)
    and has no effect: a thread pool here bought at most 1.10x on 2 cores.
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    _check_threads(threads)
    infset = inflection_values(profile)
    if infset.is_empty():
        return CertificateResult(
            profile_id=profile.id_string(),
            verdict="certified",
            sigma0=math.inf,
            margin=margin,
            entries=(),
            vacuous=True,
            interval_density=interval_density,
        )
    nus = infset.sample(interval_density=interval_density)
    if infset.intervals:
        ladders = [eig_floor_ladder(profile, nus[0])] * len(nus)
    else:
        ladders = [eig_floor_ladder(profile, nu) for nu in nus]
    entries = tuple(
        CertificateEntry(float(nu), *ladder) for nu, ladder in zip(nus, ladders)
    )

    sigma0 = min(e.lam_min for e in entries)
    if not all(e.converged for e in entries):
        verdict = "inconclusive"
    elif sigma0 > margin:
        verdict = "certified"
    elif sigma0 < 0.0:
        verdict = "not_certified"
    else:
        verdict = "inconclusive"
    return CertificateResult(
        profile_id=profile.id_string(),
        verdict=verdict,
        sigma0=sigma0,
        margin=margin,
        entries=entries,
        vacuous=False,
        interval_density=interval_density,
    )


def _segment_distance(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Euclidean distance from complex points to the segment [lo, hi] x {0}."""
    dx = np.maximum(np.maximum(lo - z.real, z.real - hi), 0.0)
    return np.hypot(dx, z.imag)


# Rayleigh scan: distance from the velocity segment past which an eigenvalue
# is off it, and the relative and absolute parts of the cross-grid match
_OFF_TOL = 1e-3
_MATCH_RTOL = 0.1
_MATCH_FLOOR = 1e-3


@dataclass(frozen=True)
class RayleighScan:
    """Inviscid generator spectrum versus grid resolution.

    max_distances[i] is the largest distance from any eigenvalue at degree
    n_list[i] to the real velocity segment; persistent_offsets collects
    finest-grid eigenvalues that stand off the segment AND reappear at every
    coarser degree, the signature of a genuine unstable mode rather than a
    discretization artifact.
    """

    profile_id: str
    alpha: float
    n_list: tuple[int, ...]
    segment: tuple[float, float]
    max_distances: tuple[float, ...]
    monotone: bool
    persistent_offsets: tuple[complex, ...]


def rayleigh_spectrum_scan(
    profile: Profile,
    alpha: float,
    n_list: tuple[int, ...] = (128, 256, 512),
) -> RayleighScan:
    """Spectrum of the generator H^-1(U H + U'') across resolutions,
    H = -d2 + alpha^2, taken from its H-conjugate U + U'' H^-1.

    An eigenvalue stands off the segment beyond ``_OFF_TOL``; a finest-grid
    one persists when every coarser grid has an off-segment eigenvalue
    within ``_MATCH_RTOL |z| + _MATCH_FLOOR`` of it.
    """
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    lo, hi = float(profile.u(-1.0)), float(profile.u(1.0))
    spectra = []
    for n in n_list:
        op = assemble_rayleigh(profile, alpha, build_grid(n))
        spectra.append(eigenvalues(op))
    dists = [_segment_distance(s, lo, hi) for s in spectra]
    max_dists = tuple(float(d.max()) for d in dists)
    monotone = all(b <= a for a, b in zip(max_dists, max_dists[1:]))

    fine = spectra[-1][dists[-1] > _OFF_TOL]
    persistent = []
    for z in fine:
        tol = _MATCH_RTOL * abs(z) + _MATCH_FLOOR
        if all(
            np.min(np.abs(eigs[dist > _OFF_TOL] - z), initial=math.inf) <= tol
            for eigs, dist in zip(spectra[:-1], dists[:-1])
        ):
            persistent.append(complex(z))
    return RayleighScan(
        profile_id=profile.id_string(),
        alpha=float(alpha),
        n_list=tuple(int(n) for n in n_list),
        segment=(lo, hi),
        max_distances=max_dists,
        monotone=monotone,
        persistent_offsets=tuple(persistent),
    )
