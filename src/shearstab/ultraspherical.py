"""Banded ultraspherical systems for the viscous resolvent rungs.

The advective Schrodinger operator -u'' + i*b*(U + i*lam) u (Dirichlet) and
the clamped Orr-Sommerfeld operator (-d2 + i*b*(U + i*lam))(-d2 + a^2) +
i*b*U'' act on Chebyshev coefficients, following Olver and Townsend, "A fast
and well-conditioned spectral method" (SIAM Review 55, 2013):

* D_m maps T coefficients to C^(m) coefficients:
  T_k^(m) = 2^(m-1) (m-1)! k C^(m)_(k-m).
* S_0 converts T to C^(1) and S_l converts C^(l) to C^(l+1); each has two
  diagonals, at offsets 0 and 2.
* M_l[f] multiplies by a Chebyshev series f in C^(l): it is
  sum_j f_j T_j(J_l), J_l the Jacobi matrix of x in C^(l), taken by the
  three-term recurrence T_(j+1) = 2 J T_j - T_(j-1).

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
d + 2m upper diagonals.  Bands are built with numpy straight into LAPACK
band storage.
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
    C[i, j] += A[i, j - o] B[j - o, j] for the diagonal at offset o."""
    size = a.ab.shape[1]
    kl, ku = a.kl + b.kl, a.ku + b.ku
    out = np.zeros((kl + ku + 1, size), dtype=np.result_type(a.ab, b.ab))
    rows = a.ab.shape[0]
    for offset in range(-b.kl, b.ku + 1):
        shift = b.ku - offset
        diag = b.ab[shift]
        if not diag.any():
            continue
        lo, hi = max(0, offset), min(size, size + offset)
        out[shift : shift + rows, lo:hi] += a.ab[:, lo - offset : hi - offset] * diag[lo:hi]
    return _Band(out, kl, ku)


def _combine(*terms) -> _Band:
    """sum c * band over (c, band) pairs, complex."""
    kl = max(b.kl for _, b in terms)
    ku = max(b.ku for _, b in terms)
    out = np.zeros((kl + ku + 1, terms[0][1].ab.shape[1]), dtype=complex)
    for c, b in terms:
        out[ku - b.ku : ku - b.ku + b.ab.shape[0]] += c * b.ab
    return _Band(out, kl, ku)


def _differentiation(m: int, size: int) -> _Band:
    """D_m: T coefficients to C^(m) coefficients of the m-th derivative."""
    k = np.arange(size, dtype=float)
    return _band(size, {m: 2.0 ** (m - 1) * math.factorial(m - 1) * k})


def _conversion(lo: int, hi: int, size: int) -> _Band:
    """S_(hi-1) ... S_lo: C^(lo) coefficients to C^(hi), C^(0) meaning T."""
    k = np.arange(size, dtype=float)
    out = None
    for lam in range(lo, hi):
        if lam == 0:
            diag = np.full(size, 0.5)
            diag[0] = 1.0
            step = _band(size, {0: diag, 2: np.full(size, -0.5)})
        else:
            step = _band(size, {0: lam / (lam + k), 2: -lam / (lam + k)})
        out = step if out is None else _matmul(step, out)
    return out


def _jacobi(lam: int, size: int) -> _Band:
    """J_lam: multiplication by x in C^(lam) coefficients, lam >= 1."""
    k = np.arange(size, dtype=float)
    return _band(size, {-1: (k + 1) / (2 * (k + lam)), 1: (k + 2 * lam - 1) / (2 * (k + lam))})


def _multiplication(series: np.ndarray, jacobi: _Band) -> list[np.ndarray]:
    """Band storage of M[f] = sum_j f_j T_j(J) for each row f of ``series``
    (Chebyshev coefficients, one common length d + 1), each with kl = ku = d.

    T_j(J) has bandwidth j and commutes with J, so the recurrence multiplies
    by J on the right, one diagonal at a time.  Entries within d/2 of the
    last row and column differ from the infinite operator's, so callers pad
    the size past the degrees they keep.
    """
    d, size = series.shape[1] - 1, jacobi.ab.shape[1]
    outs = [np.zeros((2 * d + 1, size)) for _ in series]
    prev, cur = _Band(np.ones((1, size)), 0, 0), jacobi
    for j in range(d + 1):
        if j >= 2:
            nxt = _matmul(cur, jacobi)
            nxt.ab[:] *= 2.0
            nxt.ab[2 : 2 + prev.ab.shape[0]] -= prev.ab
            prev, cur = cur, nxt
        term = prev if j == 0 else cur
        for out, f in zip(outs, series):
            out[d - term.ku : d + term.kl + 1] += f[j] * term.ab
    return outs


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
    """The parts of an order-m, degree-n system that no parameter changes."""

    size: int           # unknowns and kept rows, n + 1 - m
    jacobi: _Band       # J_m
    top: _Band          # D_m Q, Q the basis phi in T coefficients
    conv: _Band         # S Q, S the conversion T -> C^(m)
    second: _Band       # S_3 S_2 D_2 Q (clamped only)
    conv_map: _Sparse   # forcing coefficients to the kept rows of S f
    basis_map: _Sparse  # phi coefficients to T coefficients


@functools.lru_cache(maxsize=64)
def _structure(m: int, n: int, d: int) -> _Structure:
    """The parameter-free parts of an order-m, degree-n system whose velocity
    series has degree d, cached: the rungs of every shift of a map share
    them.  Bands run to ``pad`` columns, past the n + m the conversion rows
    reach and the n + d/2 the multiplication recurrence needs exact."""
    size, pad = n + 1 - m, n + m + d + 2
    k = np.arange(size, dtype=float)
    if m == 2:
        basis = {0: np.ones(size), 2: -np.ones(size)}
    else:
        basis = {0: np.ones(size), 2: -2.0 * (k + 2) / (k + 3), 4: (k + 1) / (k + 3)}
    q = _band(pad, {-o: np.pad(w, (0, pad - size)) for o, w in basis.items()})
    conv = _conversion(0, m, pad)
    second = None
    if m == 4:
        second = _matmul(_matmul(_conversion(2, 4, pad), _differentiation(2, pad)), q)
    st = _Structure(
        size=size,
        jacobi=_jacobi(m, pad),
        top=_matmul(_differentiation(m, pad), q),
        conv=_matmul(conv, q),
        second=second,
        conv_map=_Sparse(
            size, n + 1, {o: conv.ab[conv.ku - o, o : o + size] for o in range(0, conv.ku + 1, 2)}
        ),
        basis_map=_Sparse(n + 1, size, {-o: np.pad(w, (o, m - o)) for o, w in basis.items()}),
    )
    # every rung of this shape shares these arrays
    for band in (st.jacobi, st.top, st.conv, st.second):
        if band is not None:
            band.ab.setflags(write=False)
    return st


def _tau_matrix(kind: str, series: np.ndarray, params: SpectralParams, n: int) -> _Band:
    """The square tau matrix of ``kind`` on the basis phi, for U's Chebyshev
    ``series``, in the storage ``gbtrf`` factors: kl rows on top for the
    fill-in of pivoting."""
    m = ORDERS[kind]
    d = max(series.shape[0] - 1, 1)
    st = _structure(m, n, d)
    u = np.zeros((2, d + 1))
    u[0, : series.shape[0]] = series
    b, a2, shift = params.beta, params.alpha * params.alpha, params.beta * params.lam
    if m == 2:
        # -u'' + i b U u - b lam u in C^(2)
        (mu,) = _multiplication(u[:1], st.jacobi)
        op = _combine(
            (-1.0, st.top),
            (-shift, st.conv),
            (1j * b, _matmul(_Band(mu, d, d), st.conv)),
        )
    else:
        # D4 + (b lam - a^2) S D2 - a^2 b lam S4
        # + i b [(a^2 M[U] + M[U'']) S4 - M[U] S D2] in C^(4), S = S_3 S_2
        u[1, : max(series.shape[0] - 2, 1)] = chebyshev.chebder(series, 2)
        mu, mu2 = _multiplication(u, st.jacobi)
        op = _combine(
            (1.0, st.top),
            (shift - a2, st.second),
            (-a2 * shift, st.conv),
            (1j * b, _matmul(_Band(a2 * mu + mu2, d, d), st.conv)),
            (-1j * b, _matmul(_Band(mu, d, d), st.second)),
        )
    size, kl, ku = st.size, op.kl, op.ku
    ab = np.zeros((2 * kl + ku + 1, size), dtype=complex)
    ab[kl:] = op.ab[:, :size]
    rows = np.arange(kl + ku + 1)[:, None] - ku + np.arange(size)[None, :]
    ab[kl:][rows >= size] = 0.0
    return _Band(ab, kl, ku)


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
        st = _structure(self.order, n, max(series.shape[0] - 1, 1))
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

