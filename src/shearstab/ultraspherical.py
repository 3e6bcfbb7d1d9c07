"""Banded ultraspherical systems for the viscous resolvent rungs.

The advective Schrodinger operator -u'' + i*b*(U + i*lam) u (Dirichlet) and
the clamped Orr-Sommerfeld operator (-d2 + i*b*(U + i*lam))(-d2 + a^2) +
i*b*U'' act on Chebyshev coefficients, following Olver and Townsend, "A fast
and well-conditioned spectral method" (SIAM Review 55, 2013):

* D_m maps T coefficients to C^(m) coefficients:
  T_k^(m) = 2^(m-1) (m-1)! k C^(m)_(k-m).
* S_0 converts T to C^(1) and S_l converts C^(l) to C^(l+1); each has two
  diagonals, at offsets 0 and 2.
* M[f] multiplies by a Chebyshev series f on T coefficients, before any
  conversion: a Toeplitz-plus-Hankel band, M_ij = (f_|i-j| + f_(i+j)) / 2
  (their section 2).  The Orr-Sommerfeld rows take U u'' - U'' u in the
  conservative form (U u)'' - 2 (U' u)', so the i*b*U'' term cancels and U''
  is never formed.

The walls are built into the basis, as in Shen, "Efficient spectral-Galerkin
method II" (SIAM J. Sci. Comput. 16, 1995): phi_k = T_k - T_(k+2) vanishes at
both walls, and phi_k = T_k - 2(k+2)/(k+3) T_(k+2) + (k+1)/(k+3) T_(k+4)
vanishes there with its derivative.  A degree-n rung of an order-m operator
keeps the first n + 1 - m rows of its C^(m) equation (tau method), so the
system is square and banded, with no boundary rows.  LAPACK ``gbtrf``
factors it with partial pivoting, and ``gbtrs`` solves with it and with its
adjoint.

U enters as its Chebyshev series on the rung's nodes, chopped at
``_CHOP_RTOL`` relative: 2 terms for Couette flow, 4 for a cubic, 30 for
``tanh_shear(1)``.  With d its degree, the system has d + m lower and
d + 2m upper diagonals, and building it costs O(dn).  Bands are built with
numpy straight into LAPACK band storage.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev
from scipy.linalg import lapack

from .chebdiff import ChebGrid, _coefficients
from .operators import SpectralParams
from .profile import Profile

__all__ = ["ORDERS", "TauSystem", "velocity_series"]

# trailing Chebyshev coefficients of U below this fraction of the largest
# are dropped
_CHOP_RTOL = 4e-16
# order of each banded kind's operator
ORDERS = {"schrodinger": 2, "orr_sommerfeld": 4}


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


def _differentiation(m: int, size: int) -> _Band:
    """D_m: T coefficients to C^(m) coefficients of the m-th derivative."""
    k = np.arange(size, dtype=float)
    return _band(size, {m: 2.0 ** (m - 1) * math.factorial(m - 1) * k})


def _conversion(lam: int, size: int) -> _Band:
    """S_lam: C^(lam) coefficients to C^(lam+1), C^(0) meaning T."""
    if lam == 0:
        diag = np.full(size, 0.5)
        diag[0] = 1.0
        return _band(size, {0: diag, 2: np.full(size, -0.5)})
    k = np.arange(size, dtype=float)
    return _band(size, {0: lam / (lam + k), 2: -lam / (lam + k)})


def _multiplication(f: np.ndarray, size: int) -> _Band:
    """M[f]: multiplication by the Chebyshev series f (degree d) on T
    coefficients, M_ij = (f_|i-j| + f_(i+j)) / 2: the Hankel term enters
    from row 1 on, and f_0 sits whole on the diagonal.  kl = ku = d.

    The storage entries outside the matrix hold Toeplitz values, not zeros:
    M is only ever the right factor of ``_matmul``, which reads none of
    them."""
    d = f.shape[0] - 1
    toeplitz = 0.5 * np.concatenate((f[::-1], f[1:]))
    toeplitz[d] = f[0]
    ab = np.repeat(toeplitz[:, None], size, axis=1)
    rows, cols, terms = _hankel(d)
    ab[rows, cols] += 0.5 * f[terms]
    return _Band(ab, d, d)


@functools.lru_cache(maxsize=64)
def _hankel(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Storage rows, columns and series terms of M[f]'s Hankel entries:
    rows i = 1..d of the matrix, columns j with i + j <= d."""
    i, j = np.nonzero(np.add.outer(np.arange(1, d + 1), np.arange(d + 1)) <= d)
    return d + 1 + i - j, j, i + j + 1


def _kept(band: _Band, rows: int) -> _Band:
    """band with every row from ``rows`` on set to zero."""
    i = np.arange(band.ab.shape[0])[:, None] - band.ku + np.arange(band.ab.shape[1])
    return _Band(np.where(i < rows, band.ab, 0.0), band.kl, band.ku)


class _Sparse:
    """A rows x cols matrix of a few diagonals, A[i, i + o] = w_o[i], applied
    to the columns of x (or its transpose applied) by one gather."""

    def __init__(self, rows: int, cols: int, diagonals: dict):
        offsets = np.array(list(diagonals))[:, None]
        w = np.array([np.broadcast_to(v, rows) for v in diagonals.values()])
        i, j = np.arange(rows), np.arange(cols)
        inside = (i + offsets >= 0) & (i + offsets < cols)
        self._fwd = (np.where(inside, i + offsets, cols), np.where(inside, w, 0.0))
        src = j - offsets
        inside = (src >= 0) & (src < rows)
        picked = np.take_along_axis(w, np.clip(src, 0, rows - 1), axis=1)
        self._adj = (np.where(inside, src, rows), np.where(inside, picked, 0.0))

    @staticmethod
    def _apply(idx, w, x):
        padded = np.concatenate((x, np.zeros((1,) + x.shape[1:], dtype=x.dtype)))
        return np.sum(w.reshape(w.shape + (1,) * (x.ndim - 1)) * padded[idx], axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._apply(*self._fwd, x)

    def t(self, x: np.ndarray) -> np.ndarray:
        """A^T x."""
        return self._apply(*self._adj, x)


def velocity_series(profile: Profile, grid: ChebGrid) -> np.ndarray:
    """Chebyshev coefficients of U interpolated on the grid's nodes, without
    the trailing ones below ``_CHOP_RTOL`` of the largest."""
    coef = _coefficients(profile.u(grid.nodes))
    big = np.flatnonzero(np.abs(coef) > _CHOP_RTOL * np.max(np.abs(coef)))
    return coef[: big[-1] + 1] if big.size else coef[:1]


class _Structure(NamedTuple):
    """The parts of an order-m, degree-n system that no parameter changes.
    Bands are square, n + m + 1 wide: the T coefficients that the kept rows
    of the conversion reach.  The maps into C^(m) have every row past the
    kept ones zeroed, and so has every product they start."""

    size: int           # unknowns and kept rows, n + 1 - m
    basis: _Band        # Q, the basis phi in T coefficients
    conv: _Band         # S, the conversion T -> C^(m)
    second: _Band       # S_3 S_2 D_2 (clamped only)
    first: _Band        # S_3 S_2 S_1 D_1 (clamped only)
    on_basis: tuple     # D_m Q, S Q and S_3 S_2 D_2 Q (clamped only)
    conv_map: _Sparse   # forcing coefficients to the kept rows of S f
    basis_map: _Sparse  # phi coefficients to T coefficients


@functools.lru_cache(maxsize=64)
def _structure(m: int, n: int) -> _Structure:
    """The parameter-free parts of an order-m, degree-n system, cached: the
    rungs of every shift of a map share them."""
    size, pad = n + 1 - m, n + m + 1
    k = np.arange(size, dtype=float)
    if m == 2:
        basis = {0: np.ones(size), 2: -np.ones(size)}
    else:
        basis = {0: np.ones(size), 2: -2.0 * (k + 2) / (k + 3), 4: (k + 1) / (k + 3)}
    # to_top[lam] = S_(m-1) ... S_lam, C^(lam) to C^(m)
    to_top = {m - 1: _kept(_conversion(m - 1, pad), size)}
    for lam in range(m - 2, -1, -1):
        to_top[lam] = _matmul(to_top[lam + 1], _conversion(lam, pad))
    conv = to_top[0]
    q = _band(pad, {-o: np.pad(w, (0, pad - size)) for o, w in basis.items()})
    top = _kept(_differentiation(m, pad), size)
    second = _matmul(to_top[2], _differentiation(2, pad)) if m == 4 else None
    st = _Structure(
        size=size,
        basis=q,
        conv=conv,
        second=second,
        first=_matmul(to_top[1], _differentiation(1, pad)) if m == 4 else None,
        on_basis=tuple(_matmul(a, q) for a in (top, conv, second) if a is not None),
        conv_map=_Sparse(
            size, n + 1, {o: conv.ab[conv.ku - o, o : o + size] for o in range(0, conv.ku + 1, 2)}
        ),
        basis_map=_Sparse(n + 1, size, {-o: np.pad(w, (o, m - o)) for o, w in basis.items()}),
    )
    # every rung of this shape shares these arrays
    for band in (q, conv, second, st.first, *st.on_basis):
        if band is not None:
            band.ab.setflags(write=False)
    return st


def _tau_matrix(kind: str, series: np.ndarray, params: SpectralParams, n: int) -> _Band:
    """The square tau matrix of ``kind`` on the basis phi, for U's Chebyshev
    ``series``, in the storage ``gbtrf`` factors: kl rows on top for the
    fill-in of pivoting."""
    m = ORDERS[kind]
    st = _structure(m, n)
    pad = st.conv.ab.shape[1]
    b, a2, shift = params.beta, params.alpha * params.alpha, params.beta * params.lam
    mu = _multiplication(series, pad)
    if m == 2:
        # -D_2 Q - b lam S Q + i b S M[U] Q in C^(2), S = S_1 S_0
        top_q, conv_q = st.on_basis
        u_q = _matmul(_matmul(st.conv, mu), st.basis)
        terms = ((-1.0, top_q), (-shift, conv_q), (1j * b, u_q))
    else:
        # U u'' - U'' u = (U u)'' - 2 (U' u)' turns the operator into
        # (D_4 + (b lam - a^2) S_3 S_2 D_2 - a^2 b lam S
        #  + i b [(a^2 S - S_3 S_2 D_2) M[U] + 2 S_3 S_2 S_1 D_1 M[U']]) Q
        # in C^(4), S = S_3 S_2 S_1 S_0
        top_q, conv_q, second_q = st.on_basis
        helm = _combine((a2, st.conv), (-1.0, st.second))
        mu1 = _multiplication(chebyshev.chebder(series), pad)
        flux = _combine((1.0, _matmul(helm, mu)), (2.0, _matmul(st.first, mu1)))
        u_q = _matmul(flux, st.basis)
        terms = ((1.0, top_q), (shift - a2, second_q), (-a2 * shift, conv_q), (1j * b, u_q))
    ab, kl, ku = _combine(*terms, fill=True)
    return _Band(ab[:, : st.size], kl, ku)


class TauSystem:
    """The factored degree-``n`` tau system of ``kind`` at ``params``, for
    U's Chebyshev ``series`` (``velocity_series``).

    ``solve`` maps the T coefficients of a forcing (degree n, along axis 0)
    to those of the solution; ``solve_h`` is its adjoint.  ``singular`` is
    set when ``gbtrf`` met an exactly zero pivot, and the solves are then
    meaningless.
    """

    def __init__(self, kind: str, series: np.ndarray, params: SpectralParams, n: int):
        if kind == "orr_sommerfeld" and not params.beta > 0.0:
            raise ValueError("fourth-order operator needs beta > 0")
        self.n, self.order = n, ORDERS[kind]
        ab, self._kl, self._ku = _tau_matrix(kind, series, params, n)
        if not np.all(np.isfinite(ab)):
            raise ValueError("operator matrix must not contain infs or NaNs")
        self._anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
        self._lu, self._piv, info = lapack.zgbtrf(ab, self._kl, self._ku, overwrite_ab=True)
        self.singular = info > 0
        st = _structure(self.order, n)
        self._conv, self._basis = st.conv_map, st.basis_map

    def rcond(self) -> float:
        """LAPACK's estimate of the reciprocal 1-norm condition number."""
        rcond, _ = lapack.zgbcon(self._kl, self._ku, self._lu, self._piv, self._anorm)
        return float(rcond)

    def _backsolve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        x, info = lapack.zgbtrs(
            self._lu, self._kl, self._ku, rhs, self._piv, trans=trans, overwrite_b=True
        )
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gbtrs")
        return x

    def solve(self, coef: np.ndarray) -> np.ndarray:
        return self._basis(self._backsolve(self._conv(coef), 0))

    def solve_h(self, coef: np.ndarray) -> np.ndarray:
        return self._conv.t(self._backsolve(self._basis.t(coef), 2))

