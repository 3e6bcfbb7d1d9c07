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

Three maps join a system to node values: weighted data to its kept rows,
and basis coefficients to weighted values and to weighted derivative
values.  ``_dct_maps`` applies them through type-1 DCTs and one diagonal
gather on the kept rows of the conversion and on the basis; ``node_maps``
applies those same maps to the identity, for the small rungs that use them
as dense matrices.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev
from scipy.linalg import lapack

from .chebdiff import ChebGrid, _coef_derivative, _coef_derivative_t, _coefficients, _values
from .chebdiff import _ladder_cached
from .operators import SpectralParams
from .profile import Profile

__all__ = ["ORDERS", "TauSystem", "node_maps", "velocity_series"]

# trailing Chebyshev coefficients of U below this fraction of the largest
# are dropped
_CHOP_RTOL = 4e-16
# order of each banded kind's operator
ORDERS = {"schrodinger": 2, "orr_sommerfeld": 4}
# moduli below this have no sign in the condition estimate (LAPACK's safmin)
_SAFE_MIN = np.finfo(float).tiny
# Up to this degree a rung's node maps are dense real matrices, one BLAS
# call each (the grid's d1 on the dense route, ``node_maps`` on the banded
# one); above it, type-1 DCTs.  Measured (see
# CHANGES.md) at n = 160-192, medians of 15 runs over 3 shifts per kind: a
# banded rung with cached node maps, as every rung after the first of its
# shape finds them, takes 0.50-0.61x the DCT step, and a single-use rung
# that builds them 0.98-1.66x; dense rungs gain up to n = 300.  Only these
# small tau rungs keep their U band: a large one would hold memory through
# its Lanczos steps, and rebuilds in a small share of its time.
_MATRIX_STEP_MAX_DEGREE = 192


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
    # the Hankel entries: rows i = 1..d of the matrix, columns j with i + j <= d
    i, j = np.nonzero(np.add.outer(np.arange(1, d + 1), np.arange(d + 1)) <= d)
    ab[d + 1 + i - j, j] += 0.5 * f[i + j + 1]
    return _Band(ab, d, d)


def _kept(band: _Band, rows: int) -> _Band:
    """band with every row from ``rows`` on set to zero."""
    i = np.arange(band.ab.shape[0])[:, None] - band.ku + np.arange(band.ab.shape[1])
    return _Band(np.where(i < rows, band.ab, 0.0), band.kl, band.ku)


# shift-free parts of the latest ladder's tau rungs, per degree
_SERIES: dict = {}
_U_BANDS: dict = {}


def velocity_series(profile: Profile, grid: ChebGrid) -> np.ndarray:
    """Chebyshev coefficients of U on the grid's nodes, read-only and built
    once per ladder rung, without the trailing ones below ``_CHOP_RTOL``."""

    def build():
        coef = _coefficients(profile.u(grid.nodes))
        big = np.flatnonzero(np.abs(coef) > _CHOP_RTOL * np.max(np.abs(coef)))
        return coef[: big[-1] + 1] if big.size else coef[:1]

    return _ladder_cached(_SERIES, profile, grid.n, build)


class _Structure(NamedTuple):
    """The parts of an order-m, degree-n system that no parameter changes.
    Bands are square, n + m + 1 wide: the T coefficients that the kept rows
    of the conversion reach.  The maps into C^(m) have every row past the
    kept ones zeroed, and so has every product they start.  ``_gather``
    reads S and Q as (offset o, weights w_o) pairs: S_(i, i+o) = w_o[i] on
    the kept rows, and phi_k = sum_o w_o[k] T_(k+o)."""

    size: int           # unknowns and kept rows, n + 1 - m
    basis: _Band        # Q, the basis phi in T coefficients
    conv: _Band         # S, the conversion T -> C^(m)
    second: _Band       # S_3 S_2 D_2 (clamped only)
    first: _Band        # S_3 S_2 S_1 D_1 (clamped only)
    on_basis: tuple     # D_m Q, S Q and S_3 S_2 D_2 Q (clamped only)
    conv_rows: tuple    # the kept rows of S
    basis_terms: tuple  # the columns of Q


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
        conv_rows=tuple((o, conv.ab[conv.ku - o, o : o + size]) for o in range(0, conv.ku + 1, 2)),
        basis_terms=tuple(basis.items()),
    )
    # every rung of this shape shares these arrays
    for band in (q, conv, second, st.first, *st.on_basis):
        if band is not None:
            band.ab.setflags(write=False)
    return st


def _gather(diagonals, x: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum_o w_o[i] x[i + o] for i < size, along axis 0, from the
    (o, w_o) pairs ``diagonals``, the first at offset 0; entries past the
    end of x count as zero.  Used for the kept rows of S on T coefficients
    and for Q^T."""
    col = (-1,) + (1,) * (x.ndim - 1)
    (_, w), *rest = diagonals
    out = w.reshape(col) * x[:size]
    for o, w in rest:
        k = min(size, x.shape[0] - o)
        out[:k] += w[:k].reshape(col) * x[o : o + k]
    return out


def _gather_t(diagonals, y: np.ndarray, length: int) -> np.ndarray:
    """The transpose of ``_gather`` onto ``length`` entries along axis 0:
    S^T on kept rows, or Q on basis coefficients."""
    col = (-1,) + (1,) * (y.ndim - 1)
    out = np.zeros((length,) + y.shape[1:], dtype=np.result_type(y, diagonals[0][1]))
    for o, w in diagonals:
        k = min(w.shape[0], length - o)
        out[o : o + k] += w[:k].reshape(col) * y[:k]
    return out


def _u_band(st: _Structure, series: np.ndarray, a2: float) -> _Band:
    """The U terms of ``_tau_matrix`` over their factor i b, which no beta or
    shift changes: S M[U] Q (order 2) or the Orr-Sommerfeld flux times Q."""
    pad = st.conv.ab.shape[1]
    mu = _multiplication(series, pad)
    if st.second is None:
        return _matmul(_matmul(st.conv, mu), st.basis)
    helm = _combine((a2, st.conv), (-1.0, st.second))
    mu1 = _multiplication(chebyshev.chebder(series), pad)
    flux = _combine((1.0, _matmul(helm, mu)), (2.0, _matmul(st.first, mu1)))
    return _matmul(flux, st.basis)


def _tau_matrix(kind: str, series: np.ndarray, params: SpectralParams, n: int) -> _Band:
    """The square tau matrix of ``kind`` on the basis phi, for U's Chebyshev
    ``series``, in the storage ``gbtrf`` factors: kl rows on top for the
    fill-in of pivoting."""
    st = _structure(ORDERS[kind], n)
    b, a2, shift = params.beta, params.alpha * params.alpha, params.beta * params.lam
    build, key = functools.partial(_u_band, st, series, a2), (kind, series.tobytes(), a2)
    u_q = build() if n > _MATRIX_STEP_MAX_DEGREE else _ladder_cached(_U_BANDS, key, n, build)
    if kind == "schrodinger":
        # -D_2 Q - b lam S Q + i b S M[U] Q in C^(2), S = S_1 S_0
        top_q, conv_q = st.on_basis
        terms = ((-1.0, top_q), (-shift, conv_q), (1j * b, u_q))
    else:
        # U u'' - U'' u = (U u)'' - 2 (U' u)' turns the operator into
        # (D_4 + (b lam - a^2) S_3 S_2 D_2 - a^2 b lam S
        #  + i b [(a^2 S - S_3 S_2 D_2) M[U] + 2 S_3 S_2 S_1 D_1 M[U']]) Q
        # in C^(4), S = S_3 S_2 S_1 S_0
        top_q, conv_q, second_q = st.on_basis
        terms = ((1.0, top_q), (shift - a2, second_q), (-a2 * shift, conv_q), (1j * b, u_q))
    ab, kl, ku = _combine(*terms, fill=True)
    return _Band(ab[:, : st.size], kl, ku)


class TauSystem:
    """The factored degree-``n`` tau system of ``kind`` at ``params``, for
    U's Chebyshev ``series`` (``velocity_series``).

    ``backsolve`` solves with the square system, kept rows to basis
    coefficients, or with its adjoint.  ``singular`` is set when ``gbtrf``
    met an exactly zero pivot, and the solves are then meaningless.
    """

    def __init__(self, kind: str, series: np.ndarray, params: SpectralParams, n: int):
        if kind == "orr_sommerfeld" and not params.beta > 0.0:
            raise ValueError("fourth-order operator needs beta > 0")
        self.order = ORDERS[kind]
        ab, self._kl, self._ku = _tau_matrix(kind, series, params, n)
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
        kept rows to basis coefficients, along axis 0."""
        x, info = lapack.zgbtrs(
            self._lu, self._kl, self._ku, rhs, self._piv, trans=trans, overwrite_b=True
        )
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gbtrs")
        return x


# the node maps of the latest ladder's tau rungs, per (order, degree)
_NODE_MAPS: dict = {}


def node_maps(m: int, grid: ChebGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node maps of an order-m tau system on the degree-n ``grid`` as
    dense real matrices: (forcing, values, slopes).

    With W the square-root Clenshaw-Curtis weights, ``forcing`` takes
    weighted data x = W f on the nodes m/2 .. n - m/2 (f zero on the others)
    to the kept rows of S a, a the Chebyshev coefficients of f; ``values``
    takes basis coefficients c to W sum c_k phi_k on every node, and
    ``slopes`` to W (sum c_k phi_k)'.  Each is the map of ``_dct_maps``
    applied to the identity, read-only, and kept for the rungs of one
    ladder only.
    """
    size = grid.n + 1 - m
    return _ladder_cached(
        _NODE_MAPS, m, grid.n, lambda: tuple(apply(np.eye(size)) for apply, _ in _dct_maps(m, grid))
    )


def _dct_maps(m: int, grid: ChebGrid):
    """The maps of ``node_maps`` as (apply, adjoint) pairs along axis 0,
    without a matrix: type-1 DCTs between node values and Chebyshev
    coefficients, ``_coef_derivative`` and the structure's gathers, each
    O(n log n) or O(n) per application."""
    n, st = grid.n, _structure(m, grid.n)
    ws, data = np.sqrt(grid.weights), slice(m // 2, n + 1 - m // 2)
    ws_in, conv, basis = ws[data], st.conv_rows, st.basis_terms

    def forcing(x):
        f = np.zeros((n + 1,) + x.shape[1:], dtype=x.dtype)
        f[data] = (x.T / ws_in).T
        return _gather(conv, _coefficients(f), st.size)

    def forcing_h(z):
        # the coefficient map is symmetric
        return (_coefficients(_gather_t(conv, z, n + 1))[data].T / ws_in).T

    def values(c):
        return (ws * _values(_gather_t(basis, c, n + 1)).T).T

    def values_h(y):
        return _gather(basis, _values((ws * y.T).T), st.size)

    def slopes(c):
        return (ws * _values(_coef_derivative(_gather_t(basis, c, n + 1))).T).T

    def slopes_h(y):
        return _gather(basis, _coef_derivative_t(_values((ws * y.T).T)), st.size)

    return (forcing, forcing_h), (values, values_h), (slopes, slopes_h)
