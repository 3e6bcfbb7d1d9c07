"""Discrete operators of the stability problem on collocation grids.

Five assemblers, all returning dense matrices with their boundary treatment:

* certificate operator  -u'' + [U''/(U - nu)] u        (Dirichlet, real)
* shifted inviscid      (U + i*lam)(-u'' + a^2 u) + U'' u   (Dirichlet)
* inviscid generator    U + U'' H^-1, H = -d2 + a^2: the generator
                        H^-1 (U H + U'') conjugated by H    (Dirichlet, real)
* advective Schrodinger -u'' + i*b*U u - b*lam u            (Dirichlet)
* Orr-Sommerfeld        (-d2 + i*b*(U+i*lam))(-d2 + a^2) + i*b*U''  (clamped)

The certificate potential U''/(U - nu) has a removable singularity at the
critical point; within ``_TAYLOR_WINDOW`` of it the quotient switches to its
Taylor form so that no digits are lost to 0/0 cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import inv

from .chebdiff import ChebGrid, _ladder_cached, clamped_reduce
from .profile import DomainError, Profile, x_of_nu

__all__ = [
    "SpectralParams",
    "AssembledOperator",
    "InflectionError",
    "certificate_potential",
    "assemble_certificate_operator",
    "assemble_rayleigh_shifted",
    "assemble_rayleigh",
    "assemble_schrodinger",
    "assemble_orr_sommerfeld",
]


# largest wavenumber: alpha^2 stays far from overflow in every assembler
MAX_WAVENUMBER = 1e6
# largest rescaled Reynolds number and largest |shift|: every product of
# alpha^2, beta and lam in an operator stays below 1e30
MAX_BETA = 1e12
MAX_SHIFT = 1e6
# half-width of the Taylor window around the critical point
_TAYLOR_WINDOW = 1e-4
# largest |U''| at the critical point, relative to max(1, max |U''|), that
# still counts as an inflection
_INFLECTION_TOL = 1e-8


class InflectionError(ValueError):
    """Critical point is not an inflection: the potential is genuinely singular."""


@dataclass(frozen=True)
class SpectralParams:
    """Wavenumber alpha, rescaled Reynolds number beta, spectral shift lam."""

    alpha: float
    beta: float
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "lam", complex(self.lam))
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"wavenumber must be finite and >= 0, got {self.alpha}")
        if self.alpha > MAX_WAVENUMBER:
            raise ValueError(f"wavenumber {self.alpha!r} exceeds {MAX_WAVENUMBER:g}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(
                f"rescaled Reynolds number must be finite and >= 0, got {self.beta}"
            )
        if self.beta > MAX_BETA:
            raise ValueError(
                f"rescaled Reynolds number {self.beta!r} exceeds {MAX_BETA:g}"
            )
        if not cmath.isfinite(self.lam):
            raise ValueError(f"spectral shift must be finite, got {self.lam}")
        if abs(self.lam) > MAX_SHIFT:
            raise ValueError(f"spectral shift {self.lam} exceeds {MAX_SHIFT:g} in modulus")

    @property
    def mu(self) -> float:
        return self.lam.real

    @property
    def nu(self) -> float:
        return self.lam.imag


@dataclass(frozen=True)
class AssembledOperator:
    """Dense operator matrix plus the data spectral routines need."""

    matrix: np.ndarray
    kind: str           # certificate | rayleigh_shifted | rayleigh | schrodinger | orr_sommerfeld
    bc: str             # dirichlet | clamped
    grid: ChebGrid
    bc_rows: np.ndarray | None = None   # mask of bordered rows (clamped only)

    def __repr__(self) -> str:
        return (
            f"AssembledOperator(kind={self.kind!r}, bc={self.bc!r}, "
            f"n={self.grid.n}, shape={self.matrix.shape})"
        )


def certificate_potential(profile: Profile, nu: float, x: np.ndarray) -> np.ndarray:
    """U''/(U - nu) with the removable singularity filled by its Taylor form.

    Within |x - x_nu| <= _TAYLOR_WINDOW the quotient is evaluated as
    U'''/U' + (x - x_nu) * [U''''/(2 U') - U''' U''/(2 U'^2)] at the critical
    point, the first two terms of the expansion that survives U''(x_nu) = 0.
    """
    nu = float(nu)
    xc = x_of_nu(profile, nu)
    u1c = profile.deriv(xc, 1)
    u2c = profile.deriv(xc, 2)
    u3c = profile.deriv(xc, 3)
    u4c = profile.deriv(xc, 4)
    x = np.asarray(x, dtype=float)
    u2 = profile.deriv(x, 2)
    scale = max(1.0, abs(float(np.max(np.abs(u2)))))
    if abs(u2c) > _INFLECTION_TOL * scale:
        raise InflectionError(
            f"velocity {nu}: curvature {u2c:.3e} at critical point x={xc:.6f} "
            "does not vanish"
        )
    u = profile.u(x)
    near = np.abs(x - xc) <= _TAYLOR_WINDOW
    den = u - nu
    den_safe = np.where(near, 1.0, den)
    q = np.where(near, 0.0, u2 / den_safe)
    if np.any(near):
        taylor = u3c / u1c + (x - xc) * (
            u4c / (2.0 * u1c) - u3c * u2c / (2.0 * u1c**2)
        )
        q = np.where(near, taylor, q)
    return q


def _positive_wavenumber(alpha) -> float:
    """alpha as a float, else ValueError unless 0 < alpha <= MAX_WAVENUMBER."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"wavenumber must be positive, got {alpha}")
    if alpha > MAX_WAVENUMBER:
        raise ValueError(f"wavenumber {alpha!r} exceeds {MAX_WAVENUMBER:g}")
    return alpha


def _minus_d2(grid: ChebGrid, dtype=float) -> np.ndarray:
    """-d2 on the interior nodes (homogeneous Dirichlet) in one new array;
    the assemblers add their diagonal terms to it in place."""
    mat = np.zeros((grid.n - 1, grid.n - 1), dtype=dtype)
    np.negative(grid.d2[1:-1, 1:-1], out=mat.real)
    return mat


def _helmholtz(grid: ChebGrid, alpha: float) -> np.ndarray:
    """H = -d2 + alpha^2 on the interior nodes (homogeneous Dirichlet)."""
    h = _minus_d2(grid)
    h[np.diag_indices_from(h)] += alpha**2
    return h


def assemble_certificate_operator(
    profile: Profile, nu: float, grid: ChebGrid
) -> AssembledOperator:
    """-d2 + diag(U''/(U - nu)) on interior nodes, homogeneous Dirichlet."""
    q = certificate_potential(profile, nu, grid.nodes[1:-1])
    mat = _minus_d2(grid)
    mat[np.diag_indices_from(mat)] += q
    return AssembledOperator(matrix=mat, kind="certificate", bc="dirichlet", grid=grid)


def assemble_rayleigh_shifted(
    profile: Profile,
    params: SpectralParams,
    grid: ChebGrid,
) -> AssembledOperator:
    """(U + i*lam)(-d2 + a^2) + U'' on interior nodes (Dirichlet)."""
    xi = grid.nodes[1:-1]
    mat = (profile.u(xi) + 1j * params.lam)[:, None] * _helmholtz(grid, params.alpha)
    # a row whose factor has a zero part holds signed zeros; adding +0.0
    # makes them all +0.0, so the bytes do not depend on how rows are scaled
    mat += 0.0
    mat[np.diag_indices_from(mat)] += profile.deriv(xi, 2)
    return AssembledOperator(
        matrix=mat, kind="rayleigh_shifted", bc="dirichlet", grid=grid
    )


def assemble_rayleigh(
    profile: Profile,
    alpha: float,
    grid: ChebGrid,
) -> AssembledOperator:
    """diag(U) + diag(U'') H^-1 on interior nodes, H the Dirichlet Helmholtz
    operator -d2 + alpha^2.

    This is the inviscid evolution generator L = H^-1 (diag(U) H + diag(U''))
    conjugated by H, so it has exactly the spectrum of L.  It is built from
    the inverse of H, the discrete Green's matrix, with its rows scaled by
    U''; the eigen-solve needs a dense matrix anyway.  With U'' = 0
    (Couette) the matrix is diag(U) exactly.

    The scan solves a Galerkin form instead; this matrix is its test reference.
    """
    alpha = _positive_wavenumber(alpha)
    xi = grid.nodes[1:-1]
    mat = inv(_helmholtz(grid, alpha), overwrite_a=True)
    mat *= profile.deriv(xi, 2)[:, None]
    mat[np.diag_indices_from(mat)] += profile.u(xi)
    return AssembledOperator(matrix=mat, kind="rayleigh", bc="dirichlet", grid=grid)


# U and U'' on the nodes of the latest ladder's dense rungs (``_node_values``)
_NODE_VALUES: dict = {}


def _node_values(profile: Profile, grid: ChebGrid) -> tuple[np.ndarray, np.ndarray]:
    """U and U'' on every node: what no shift, alpha or beta changes in a dense rung."""
    return _ladder_cached(
        _NODE_VALUES, profile, grid.n, lambda: (profile.u(grid.nodes), profile.deriv(grid.nodes, 2))
    )


def assemble_schrodinger(
    profile: Profile,
    params: SpectralParams,
    grid: ChebGrid,
) -> AssembledOperator:
    """-d2 + i*beta*diag(U) - beta*lam on interior nodes (Dirichlet)."""
    u = _node_values(profile, grid)[0][1:-1]
    mat = _minus_d2(grid, complex)
    mat[np.diag_indices_from(mat)] += 1j * params.beta * u - params.beta * params.lam
    return AssembledOperator(matrix=mat, kind="schrodinger", bc="dirichlet", grid=grid)


def assemble_orr_sommerfeld(
    profile: Profile,
    params: SpectralParams,
    grid: ChebGrid,
) -> AssembledOperator:
    """(-d2 + i*b*(U + i*lam)) (-d2 + a^2) + i*b*U'', clamped bordering.

    The product is expanded as D4 - a^2 D2 - diag(c) D2 + diag(a^2 c + i*b*U''),
    c = i*b*(U + i*lam), with the grid's own D4 standing in for D2 D2, so
    assembly costs O(n^2) instead of a dense matrix product.  The wavenumber
    enters only through alpha^2, so the assembled matrix is bit-for-bit
    identical under alpha -> -alpha.
    """
    if not params.beta > 0.0:
        raise ValueError("fourth-order operator needs beta > 0")
    a2 = params.alpha * params.alpha
    u, u2 = _node_values(profile, grid)
    c = 1j * params.beta * (u + 1j * params.lam)
    full = np.empty((grid.n + 1, grid.n + 1), dtype=complex)
    full.real = grid.d4 - a2 * grid.d2 - c.real[:, None] * grid.d2
    full.imag = -c.imag[:, None] * grid.d2
    full[np.diag_indices_from(full)] += a2 * c + 1j * params.beta * u2
    mat, mask = clamped_reduce(full, grid)
    return AssembledOperator(
        matrix=mat, kind="orr_sommerfeld", bc="clamped", grid=grid, bc_rows=mask
    )
