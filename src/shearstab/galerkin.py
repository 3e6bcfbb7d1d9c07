"""Banded Legendre-Galerkin rungs for the viscous resolvents.

The advective Schrodinger operator -u'' + i*b*(U + i*lam) u (Dirichlet) and
the clamped Orr-Sommerfeld operator (-d2 + i*b*(U + i*lam))(-d2 + a^2) +
i*b*U'' are solved in their weak forms on Shen's Legendre bases (Shen,
"Efficient spectral-Galerkin method I/II", SIAM J. Sci. Comput. 15, 1994,
and 16, 1995), in the orthonormal Legendre polynomials
p_k = sqrt(k + 1/2) L_k of degree <= n:

* Dirichlet: phi_k = (L_k - L_(k+2)) / sqrt(4k + 6), k <= n - 2, with
  phi_k' = -p_(k+1), so int phi_j' phi_k' is the identity.
* Clamped: phi_k = d_k (L_k - 2(2k+5)/(2k+7) L_(k+2) + (2k+3)/(2k+7) L_(k+4)),
  k <= n - 4, d_k = 1 / ((2k + 3) sqrt(4k + 10)), with phi_k' =
  (L_(k+3) - L_(k+1)) / sqrt(4k + 10) and phi_k'' = p_(k+2), so
  int phi_j'' phi_k'' is the identity.

V and V_1 hold the p coefficients of the phi_k and phi_k', one to three
diagonals each.  U enters as its chopped Chebyshev series on the rung's
nodes (2 terms for Couette flow, 4 for a cubic, 30 for ``tanh_shear(1)``);
M[U], multiplication by U in p coefficients, is U(J) for the symmetric
Jacobi matrix J of the p_k, formed by Clenshaw's recurrence.  The weak
forms are

* Schrodinger: I + i b V^T M[U] V - b lam V^T V;
* Orr-Sommerfeld: I + (a^2 - b lam) V_1^T V_1 - a^2 b lam V^T V
  + i b [V_1^T (M[U] V_1 - M[U'] V) + a^2 V^T M[U] V].  Integrating
  U'' u - U u'' = (U' u)' - (U u')' by parts leaves U' only, so U'' is never
  formed.

With d the degree of U's series, the system has d + m/2 + 2 lower and upper
diagonals (m the order), and building it costs O(d^2 n).  LAPACK ``gbtrf``
factors it with partial pivoting, and ``gbtrs`` solves with it and with its
adjoint.

Data f of degree <= n are measured in L2 through their p coefficients x,
and load the system as V^T x; a solution c has ||u|| = ||V c|| and
||u'|| = ||V_1 c||.  Each of these maps is a band of one to three
diagonals, applied in O(n) by BLAS ``gbmv``.  The parts that no shift, beta
or alpha changes are built once per degree and kept for one ladder
(``chebdiff._ladder_cached``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev
from scipy.linalg import blas, lapack

from .chebdiff import ChebGrid, _coefficients, _ladder_cached
from .operators import SpectralParams
from .profile import Profile

__all__ = ["KINDS", "GalerkinSystem", "RungParts", "norm_maps", "rung_parts", "velocity_series"]

# trailing Chebyshev coefficients of U below this fraction of the largest
# are dropped
_CHOP_RTOL = 4e-16
# moduli below this have no sign in the condition estimate (LAPACK's safmin)
_SAFE_MIN = np.finfo(float).tiny


def _dirichlet(k: np.ndarray) -> tuple[dict, dict]:
    s = 1.0 / np.sqrt(4.0 * k + 6.0)
    return {0: s, 2: -s}, {1: -(2.0 * k + 3.0) * s}


def _clamped(k: np.ndarray) -> tuple[dict, dict]:
    s = 1.0 / np.sqrt(4.0 * k + 10.0)
    d = s / (2.0 * k + 3.0)
    phi = {0: d, 2: -2.0 * (2 * k + 5) / (2 * k + 7) * d, 4: (2 * k + 3) / (2 * k + 7) * d}
    return phi, {1: -s, 3: s}


# each banded kind's order and basis: phi_k and phi_k' as {r: w_r}, the
# terms w_r[k] L_(k+r)
KINDS = {"schrodinger": (2, _dirichlet), "orr_sommerfeld": (4, _clamped)}


class _Band(NamedTuple):
    """A square banded matrix in LAPACK band storage:
    ab[ku + i - j, j] = A[i, j]."""

    ab: np.ndarray
    kl: int
    ku: int


def _band(size: int, diagonals: dict) -> _Band:
    """Band of the given diagonals, {offset j - i: values by column j}; the
    entries that fall outside the matrix are zero."""
    ku, kl = max(0, max(diagonals)), max(0, -min(diagonals))
    ab = np.zeros((kl + ku + 1, size))
    cols = np.arange(size)
    for offset, values in diagonals.items():
        inside = (cols >= offset) & (cols - offset < size)
        ab[ku - offset] = np.where(inside, values, 0.0)
    return _Band(ab, kl, ku)


def _matmul(a: _Band, b: _Band) -> _Band:
    """a @ b, one vectorized update per diagonal of b:
    C[i, j] += A[i, j - o] B[j - o, j] for the diagonal at offset o.  Only
    the entries of b inside the matrix are read."""
    size = a.ab.shape[1]
    kl, ku = a.kl + b.kl, a.ku + b.ku
    out = np.zeros((kl + ku + 1, size), dtype=np.result_type(a.ab, b.ab))
    rows = a.ab.shape[0]
    for offset in range(-b.kl, b.ku + 1):
        shift = b.ku - offset
        diag = b.ab[shift]
        if not np.count_nonzero(diag):
            continue
        lo, hi = max(0, offset), min(size, size + offset)
        out[shift : shift + rows, lo:hi] += a.ab[:, lo - offset : hi - offset] * diag[lo:hi]
    return _Band(out, kl, ku)


def _combine(*terms, fill: bool = False) -> _Band:
    """sum c * band over (c, band) pairs; with ``fill``, under kl rows of
    zeros for the fill-in of pivoting, the storage ``gbtrf`` factors."""
    kl = max(b.kl for _, b in terms)
    ku = max(b.ku for _, b in terms)
    top = kl if fill else 0
    dtype = np.result_type(*(c for c, _ in terms), *(b.ab for _, b in terms))
    out = np.zeros((top + kl + ku + 1, terms[0][1].ab.shape[1]), dtype=dtype)
    for c, b in terms:
        out[top + ku - b.ku : top + ku - b.ku + b.ab.shape[0]] += c * b.ab
    return _Band(out, kl, ku)


def _transpose(a: _Band) -> _Band:
    """a^T: the diagonal at offset o moves to -o, each entry A[j - o, j] to
    column j - o.  The entries outside the matrix are zero."""
    size = a.ab.shape[1]
    out = np.zeros_like(a.ab)
    for offset in range(-a.kl, a.ku + 1):
        lo, hi = max(0, offset), min(size, size + offset)
        out[a.kl + offset, lo - offset : hi - offset] = a.ab[a.ku - offset, lo:hi]
    return _Band(out, a.ku, a.kl)


def _multiplication(series: np.ndarray, size: int) -> _Band:
    """M[f], multiplication by the Chebyshev series f in p coefficients: f(J)
    by Clenshaw's recurrence b_k = f_k I + 2 b_(k+1) J - b_(k+2), f(J) =
    f_0 I + b_1 J - b_2, on the symmetric Jacobi matrix J of
    x p_k = a_(k+1) p_(k+1) + a_k p_(k-1), a_k = k / sqrt(4k^2 - 1).  An
    entry (i, j) of a degree-d polynomial in the size-s truncation of J is
    exact when i + j + d < 2s; callers pad the size for the entries they
    read."""
    a = np.arange(1, size + 1) / np.sqrt(4.0 * np.arange(1, size + 1) ** 2 - 1.0)
    jacobi = _band(size, {-1: a, 1: np.roll(a, 1)})
    eye = _band(size, {0: 1.0})
    b1, b2 = _combine((series[-1], eye)), _combine((0.0, eye))
    for k in range(len(series) - 2, -1, -1):
        step = _matmul(b1, jacobi)
        b1, b2 = _combine((series[k], eye), (2.0 if k else 1.0, step), (-1.0, b2)), b1
    return b1


def velocity_series(profile: Profile, grid: ChebGrid) -> np.ndarray:
    """Chebyshev coefficients of U on the grid's nodes, without the trailing
    ones below ``_CHOP_RTOL``."""
    coef = _coefficients(profile.u(grid.nodes))
    big = np.flatnonzero(np.abs(coef) > _CHOP_RTOL * np.max(np.abs(coef)))
    return coef[: big[-1] + 1] if big.size else coef[:1]


class RungParts(NamedTuple):
    """What no shift, beta or alpha changes in a degree-n rung of one kind
    and profile.  ``values`` and ``slopes`` hold V and V_1, (n + 1) x size,
    in ``gbmv`` storage with ku = 0, size = n + 1 - order; the bands are
    size x size."""

    order: int
    values: np.ndarray
    slopes: np.ndarray
    mass: _Band                     # V^T V
    advection: _Band                # V^T M[U] V
    stiffness: _Band | None = None  # V_1^T V_1 (clamped only)
    flux: _Band | None = None       # V_1^T (M[U] V_1 - M[U'] V) (clamped only)


_PARTS: dict = {}


def rung_parts(kind: str, profile: Profile, grid: ChebGrid) -> RungParts:
    """The shift-free parts of the degree-``grid.n`` rung of ``kind``,
    read-only and kept for the rungs of one ladder (key: kind and
    profile)."""
    return _ladder_cached(
        _PARTS, (kind, profile), grid.n, lambda: _build_parts(kind, profile, grid)
    )


def _build_parts(kind: str, profile: Profile, grid: ChebGrid) -> RungParts:
    order, basis = KINDS[kind]
    n = grid.n
    count = n + 1 - order
    series = velocity_series(profile, grid)
    # padded so that every entry of M[U] the products read is exact
    pad = n + 1 + len(series)
    k = np.arange(count, dtype=float)
    # L_j = sqrt(2 / (2j + 1)) p_j
    values, slopes = (
        _band(pad, {-r: np.pad(w * np.sqrt(2.0 / (2 * (k + r) + 1)), (0, pad - count))
                    for r, w in terms.items()})
        for terms in basis(k)
    )
    values_t = _transpose(values)
    mu = _multiplication(series, pad)
    bands = [_matmul(values_t, values), _matmul(values_t, _matmul(mu, values))]
    if order == 4:
        slopes_t = _transpose(slopes)
        mu1 = _multiplication(chebyshev.chebder(series), pad)
        flux = _combine((1.0, _matmul(mu, slopes)), (-1.0, _matmul(mu1, values)))
        bands += [_matmul(slopes_t, slopes), _matmul(slopes_t, flux)]
    bands = [_Band(b.ab[:, :count], b.kl, b.ku) for b in bands]
    for b in bands:
        b.ab.setflags(write=False)
    maps = (values.ab[:, :count].astype(complex), slopes.ab[:, :count].astype(complex))
    return RungParts(order, *maps, *bands)


def _matrix(parts: RungParts, params: SpectralParams) -> _Band:
    """The square Galerkin matrix of a rung at ``params``, in the storage
    ``gbtrf`` factors: kl rows on top for the fill-in of pivoting."""
    b, a2, shift = params.beta, params.alpha * params.alpha, params.beta * params.lam
    eye = _band(parts.mass.ab.shape[1], {0: 1.0})
    if parts.order == 2:
        return _combine((1.0, eye), (1j * b, parts.advection), (-shift, parts.mass), fill=True)
    return _combine(
        (1.0, eye), (a2 - shift, parts.stiffness), (-a2 * shift, parts.mass),
        (1j * b, parts.flux), (1j * b * a2, parts.advection), fill=True,
    )


class GalerkinSystem:
    """The factored Galerkin system of a rung at ``params``, from its
    ``RungParts``.

    ``backsolve`` solves with the square system, loads to basis
    coefficients, or with its adjoint.  ``singular`` is set when ``gbtrf``
    met an exactly zero pivot, and the solves are then meaningless.
    """

    def __init__(self, parts: RungParts, params: SpectralParams):
        if parts.order == 4 and not params.beta > 0.0:
            raise ValueError("fourth-order operator needs beta > 0")
        ab, self._kl, self._ku = _matrix(parts, params)
        if not np.all(np.isfinite(ab)):
            raise ValueError("operator matrix must not contain infs or NaNs")
        self._anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
        self._lu, self._piv, info = lapack.zgbtrf(ab, self._kl, self._ku, overwrite_ab=True)
        self.singular = info > 0

    def rcond(self) -> float:
        """Reciprocal 1-norm condition number, 1 / (||A||_1 ||A^-1||_1), with
        ||A^-1||_1 estimated step for step as LAPACK's ``zgbcon`` does
        (``zlacn2``: Hager 1984, Higham 1988), but from ``gbtrs`` solves on
        the factored band: 4 to 11 of them, with A and with A^H.  A solve
        that overflows reads as 0."""
        size = self._lu.shape[1]

        def norm_1(x):                      # x complex: the solve overwrites it
            y = self.backsolve(x)
            return float(np.abs(y).sum()), y

        def gradient(y):
            # |A^-H sign(y)|: its largest entry picks the next unit vector
            a = np.abs(y)
            sign = np.divide(y, a, out=np.ones_like(y), where=a > _SAFE_MIN)
            return np.abs(self.backsolve(sign, 2))

        with np.errstate(all="ignore"):     # overflow leaves est inf or nan
            est, y = norm_1(np.full(size, 1.0 / size, dtype=complex))
            z = gradient(y)
            j = int(z.argmax())
            for _ in range(4):
                old, (est, y) = est, norm_1(np.eye(1, size, j, dtype=complex)[0])
                if est <= old:
                    break
                z = gradient(y)
                last, j = j, int(z.argmax())
                if z[last] == z[j]:
                    break
            alt = np.zeros(size, dtype=complex)
            alt.real = 1.0 + np.arange(size) / max(size - 1, 1)
            alt.real[1::2] *= -1.0          # times (-1)^k
            temp = 2.0 * norm_1(alt)[0] / (3 * size)
            est = est if temp <= est else temp      # a nan carries through
        if not (est < math.inf and self._anorm):
            return 0.0
        return (1.0 / est) / self._anorm

    def backsolve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """The square system solved (``trans`` 0) or its adjoint (2):
        loads to basis coefficients, along axis 0."""
        x, info = lapack.zgbtrs(
            self._lu, self._kl, self._ku, rhs, self._piv, trans=trans, overwrite_b=True
        )
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gbtrs")
        return x


def norm_maps(parts: RungParts):
    """The (apply, adjoint) pairs of a rung's three maps on vectors: the p
    coefficients x of the data to the load V^T x, and basis coefficients c
    to V c and V_1 c, whose norms are ||u|| and ||u'||."""
    count = parts.values.shape[1]
    rows = count + parts.order

    def band(ab):
        kl = ab.shape[0] - 1
        return (
            lambda c: blas.zgbmv(rows, count, kl, 0, 1.0, ab, c),
            lambda y: blas.zgbmv(rows, count, kl, 0, 1.0, ab, y, trans=2),
        )

    (values, values_t), slopes = band(parts.values), band(parts.slopes)
    return (values_t, values), (values, values_t), slopes
