"""Stability certificates and inviscid spectrum scans.

A monotone profile is certified when the Schrodinger-type operator
-d2 + U''/(U - nu) with Dirichlet walls is positive for every velocity nu
that the curvature vanishes at (the inflection set).  Positivity of the
smallest eigenvalue, uniformly over that set, rules out inviscid neutral
modes and with them the large-Reynolds instability route.  Each velocity's
eigenvalue comes from ``spectral.eig_floor_ladder``: symmetric Galerkin
solves on Shen's Legendre basis, degree-doubled until two agree.

The Rayleigh scan complements the certificate: it measures how far the
spectrum of the inviscid problem (U - c)(-phi'' + alpha^2 phi) + U'' phi = 0
strays from the real segment [U(-1), U(1)], and which excursions persist as
the degree is raised.  It solves the Galerkin pencil A phi = c B phi on
Shen's Legendre basis, whose mass matrix B splits into two tridiagonal
blocks by parity; for an odd U, A couples only opposite parities, and the
spectrum comes from one real eigen-solve of half the size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals
from scipy.linalg.lapack import dptsv

from .chebdiff import N_MAX, N_MIN
from .operators import _positive_wavenumber
from .profile import Profile, inflection_values
from .spectral import _check_threads, _one_blas_thread, _shen_tables, eig_floor_ladder

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


@_one_blas_thread()
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
    (n = 64 and 128) at any density.  Each ladder rung is one symmetric
    Legendre-Galerkin solve for the top eigenvalue of a shifted-and-inverted
    pencil, run on one OpenBLAS thread.  A non-finite potential raises
    ValueError.  `threads` is validated (at least 1) and has no effect: a
    thread pool here bought at most 1.10x on 2 cores.
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    _check_threads(threads)
    infset = inflection_values(profile)
    # sampled first, so a density is refused alike with or without inflections
    nus = infset.sample(interval_density=interval_density)
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


def _mass_solve(diag, upper, alpha: float, rhs: np.ndarray, parity: int) -> np.ndarray:
    """B^-1 rhs on one parity's basis functions, B = I + alpha^2 M (LAPACK ptsv)."""
    a2 = alpha * alpha
    _, _, sol, info = dptsv(1.0 + a2 * diag[parity::2], a2 * upper[parity::2], rhs)
    if info:
        raise np.linalg.LinAlgError(f"mass matrix solve failed, ptsv info {info}")
    return sol


def _rayleigh_spectrum(profile: Profile, alpha: float, n: int) -> np.ndarray:
    """The n - 1 eigenvalues c, sorted by (real, imag), of A phi = c B phi on
    the degree-n Shen basis: A_jk = int U (psi_k' psi_j' + alpha^2 psi_k psi_j)
    + U' psi_k' psi_j + U'' psi_k psi_j, B = I + alpha^2 M.  An odd U leaves
    A's same-parity blocks zero, so B^-1 A is [[0, X], [Y, 0]] by parity and
    the spectrum is +-sqrt(eig(YX)), plus one 0 when X has the more rows."""
    x, w, basis, diag, upper = _shen_tables(n)
    q, u = len(x), profile.u(x)
    left = np.hstack([basis[:, :q] * (w * u) + basis[:, q:] * (w * profile.deriv(x, 1)),
                      basis[:, q:] * (w * (alpha * alpha * u + profile.deriv(x, 2)))])
    if profile.odd:
        xe = _mass_solve(diag, upper, alpha, left[0::2] @ basis[1::2].T, 0)
        yo = _mass_solve(diag, upper, alpha, left[1::2] @ basis[0::2].T, 1)
        # eigvals returns complex values, so a negative eigenvalue of YX has
        # imaginary roots rather than a RuntimeWarning and NaN
        roots = np.sqrt(eigvals(yo @ xe))
        spectrum = np.concatenate([roots, -roots, np.zeros(len(xe) - len(yo))])
    else:
        pencil = left @ basis.T
        pencil[0::2] = _mass_solve(diag, upper, alpha, pencil[0::2], 0)
        pencil[1::2] = _mass_solve(diag, upper, alpha, pencil[1::2], 1)
        spectrum = eigvals(pencil, overwrite_a=True)
    return np.sort_complex(spectrum)


@dataclass(frozen=True)
class RayleighScan:
    """Inviscid spectrum versus basis degree.

    max_distances[i] is the largest distance from any eigenvalue at degree
    n_list[i] to the real velocity segment, and monotone says no step in n
    raised it by more than ``_OFF_TOL``; persistent_offsets collects
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


@_one_blas_thread()
def rayleigh_spectrum_scan(
    profile: Profile,
    alpha: float,
    n_list: tuple[int, ...] = (64, 128, 256),
) -> RayleighScan:
    """Spectrum of (U - c)(-phi'' + alpha^2 phi) + U'' phi = 0, phi(+-1) = 0,
    at the basis degrees ``n_list``, from its Galerkin pencil (``_rayleigh_spectrum``).

    An eigenvalue stands off the segment beyond ``_OFF_TOL``; a finest-grid
    one persists when every coarser grid has an off-segment eigenvalue
    within ``_MATCH_RTOL |z| + _MATCH_FLOOR`` of it.  Growth of the largest
    distance within ``_OFF_TOL`` still counts as monotone: a converged
    unstable mode moves by its discretization error, whose sign says
    nothing.  Runs on one OpenBLAS thread.
    """
    alpha = _positive_wavenumber(alpha)
    n_list = tuple(map(operator.index, n_list))
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    if not (N_MIN <= n_list[0] and n_list[-1] <= N_MAX):
        raise ValueError(f"degrees {n_list} outside [{N_MIN}, {N_MAX}]")
    lo, hi = float(profile.u(-1.0)), float(profile.u(1.0))
    spectra = [_rayleigh_spectrum(profile, alpha, n) for n in n_list]
    dists = [_segment_distance(s, lo, hi) for s in spectra]
    max_dists = tuple(float(d.max()) for d in dists)
    monotone = all(b <= a + _OFF_TOL for a, b in zip(max_dists, max_dists[1:]))

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
        alpha=alpha,
        n_list=n_list,
        segment=(lo, hi),
        max_distances=max_dists,
        monotone=monotone,
        persistent_offsets=tuple(persistent),
    )
