"""Chebyshev-Gauss-Lobatto collocation grids.

Nodes, differentiation matrices up to fourth order, and Clenshaw-Curtis
quadrature weights on [-1, 1]; the weights come from one type-1 DCT of the
Chebyshev moments, with closed-form end weights, in O(n log n).
Differentiation matrices are built with the trigonometric-identity /
flipping construction and the negative-sum trick for the diagonal, which
keeps the roundoff of high-order matrices well below the naive (x_j - x_k)
formulation.

Node values and Chebyshev coefficients are related by a type-1 DCT, which
gives the first derivative and its transpose in O(n log n) without the
matrix, and resamples a function from one degree to another.

``build_grid`` makes nodes and weights only; a grid's differentiation
matrices are built on first access, all three at once.  The banded resolvent
rungs never touch them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

__all__ = [
    "ChebGrid",
    "build_grid",
    "clamped_reduce",
]

N_MIN = 8
N_MAX = 2048            # also the cap of every grid ladder
LADDER_FLOOR = 64       # smallest starting degree of a ladder or degree rule


@dataclass(frozen=True)
class ChebGrid:
    """Degree-n collocation grid: n+1 nodes, descending from +1 to -1.

    The differentiation matrices ``d1``, ``d2`` and ``d4``, each
    (n+1) x (n+1), are built together on first access to any of them.
    """

    n: int
    nodes: np.ndarray    # shape (n+1,), nodes[0] = 1, nodes[n] = -1
    weights: np.ndarray  # Clenshaw-Curtis weights, sum = 2
    _mats: list = field(default_factory=list, repr=False, compare=False)

    def __repr__(self) -> str:  # keep dataclass repr from dumping arrays
        return f"ChebGrid(n={self.n})"

    def _matrix(self, i: int) -> np.ndarray:
        if not self._mats:
            with _cache_lock:
                if not self._mats:
                    _, mats = _chebdif(self.n, 4, keep=(1, 2, 4))
                    for arr in mats:
                        arr.setflags(write=False)
                    self._mats.extend(mats)
        return self._mats[i]

    @property
    def d1(self) -> np.ndarray:
        """First-derivative matrix."""
        return self._matrix(0)

    @property
    def d2(self) -> np.ndarray:
        return self._matrix(1)

    @property
    def d4(self) -> np.ndarray:
        return self._matrix(2)


# rows of the differentiation matrices built together in ``_chebdif``
_ROW_BLOCK = 32


def _chebdif(
    n_deg: int, m_max: int, keep=None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Nodes and derivative matrices D^1..D^m on the degree-n_deg CGL grid.

    The off-diagonal node differences are formed as
    2 sin((th_j+th_k)/2) sin((th_k-th_j)/2) and the lower half of the matrix
    is obtained by flipping the upper half, so that x_j - x_k never suffers
    cancellation near the boundary.  Diagonals come from the negative row-sum
    identity (each D annihilates constants exactly).

    Row k of D^l depends only on row k of D^(l-1), so the recurrence runs on
    blocks of ``_ROW_BLOCK`` rows, and only the orders in ``keep`` (default
    all) are stored as full matrices and returned, in increasing order.  The
    sine products are taken only for the upper rows the flip reuses, and the
    scaling c_kj = (-1)^(k+j) a_k / a_j (a = 2 at the ends, 1 inside) is an
    outer product of signed powers of two, so every entry is bit-identical
    to building each whole matrix at once.
    """
    keep = range(1, m_max + 1) if keep is None else sorted(keep)
    n = n_deg + 1
    k = np.arange(n)
    th = k * np.pi / n_deg
    x = _nodes(n_deg)
    h = th / 2
    c_row, c_col = (-1.0) ** k, (-1.0) ** k
    c_row[[0, -1]] *= 2.0
    c_col[[0, -1]] *= 0.5
    mats = {ell: np.empty((n, n)) for ell in keep}

    def rows_from(dx: np.ndarray, first: int) -> None:
        # rows first, first + 1, ... of every D^l, from their node differences
        r = np.arange(dx.shape[0])
        diag = (r, first + r)
        z = np.array(dx)
        z[diag] = 1.0
        np.divide(1.0, z, out=z)
        z[diag] = 0.0
        d, nxt, tmp = np.zeros_like(z), np.empty_like(z), np.empty_like(z)
        d[diag] = 1.0
        for ell in range(1, max(keep) + 1):
            # D^l = l z (c diag(D^(l-1)) - D^(l-1)); c d_kk is exact
            np.multiply((c_row[first + r] * d[diag])[:, None], c_col, out=nxt)
            np.subtract(nxt, d, out=nxt)
            np.multiply(z, ell, out=tmp)
            np.multiply(tmp, nxt, out=nxt)
            nxt[diag] = -nxt.sum(axis=1)
            if ell in mats:
                mats[ell][first : first + dx.shape[0]] = nxt
            d, nxt = nxt, d

    n_half, n_ceil = n // 2, (n + 1) // 2
    for a in range(0, n_ceil, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, n_ceil)
        # dx[k, j] = x_k - x_j via cos a - cos b = -2 sin((a+b)/2) sin((a-b)/2);
        # the column-minus-row order of the second factor supplies that minus.
        hk = h[a:b, None]
        dx = 2 * np.sin(hk + h[None, :]) * np.sin(h[None, :] - hk)
        if a < n_half:
            rows_from(dx[: min(b, n_half) - a], a)
        # rows n - b .. n - 1 - a: the same rows flipped both ways, negated
        rows_from(-dx[::-1, ::-1], n - b)
    return x, [mats[ell] for ell in keep]


def _nodes(n_deg: int) -> np.ndarray:
    """The degree-n_deg CGL nodes, descending: identical to cos(k pi / N)
    but symmetric about 0 to the last bit."""
    k = np.arange(n_deg + 1)
    return np.sin(np.pi * (n_deg - 2 * k) / (2 * n_deg))


def _clencurt(n_deg: int) -> np.ndarray:
    """Clenshaw-Curtis weights for the degree-n_deg CGL nodes (sum = 2).

    One type-1 DCT of the Chebyshev moments m_k = 2 / (1 - k^2) (even k; 0
    for odd k), divided by n, gives the interior weights in O(n log n)
    (Waldvogel, BIT 46, 2006); the end weights are 1 / (n^2 - 1) for even n
    and 1 / n^2 for odd n.  Against the same weights summed in long double,
    the largest relative error is 1.4e-13 at n = 1724 and 7.2e-16 at n = 127.
    """
    k = np.arange(0, n_deg + 1, 2)
    moments = np.zeros(n_deg + 1)
    moments[::2] = 2.0 / (1.0 - k**2)
    w = dct(moments, type=1) / n_deg
    w[0] = w[-1] = 1.0 / (n_deg**2 - 1 if n_deg % 2 == 0 else n_deg**2)
    return w


def _dct1(x: np.ndarray) -> np.ndarray:
    """Type-1 DCT along axis 0.  A complex array goes through as its real and
    imaginary parts side by side in one real transform, which at n = 1724
    takes about half the time of scipy's complex route."""
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x, dtype=np.complex128)
        flat = dct(x.view(np.float64).reshape(x.shape[0], -1), type=1, axis=0)
        return flat.view(np.complex128).reshape(x.shape)
    return dct(x, type=1, axis=0)


def _coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (along axis 0) of the interpolant of node values,
    nodes descending from +1 as on a ChebGrid."""
    n = values.shape[0] - 1
    a = _dct1(values) / n
    a[0] /= 2
    a[n] /= 2
    return a


def _values(coef: np.ndarray) -> np.ndarray:
    """Node values sum_k coef_k T_k(x_j) on the degree len(coef) - 1 grid."""
    b = np.array(coef, copy=True)
    b[0] *= 2
    b[-1] *= 2
    return _dct1(b) / 2


def _parity_cumsum(t: np.ndarray, reverse: bool) -> np.ndarray:
    """Cumulative sums along axis 0 over indices of one parity at a time."""
    out = np.empty_like(t)
    for p in (0, 1):
        part = t[p::2][::-1] if reverse else t[p::2]
        part = np.cumsum(part, axis=0)
        out[p::2] = part[::-1] if reverse else part
    return out


def _coef_derivative(a: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (along axis 0) of the derivative of the series
    a: b_k = sum_{j > k, j - k odd} 2 j a_j, b_0 halved."""
    j = np.arange(a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1))
    s = _parity_cumsum(2 * j * a, reverse=True)
    b = np.zeros_like(s)
    b[:-1] = s[1:]
    b[0] /= 2
    return b


def _coef_derivative_t(g: np.ndarray) -> np.ndarray:
    """The transpose of ``_coef_derivative``: its suffix sums become prefix
    sums."""
    j = np.arange(g.shape[0]).reshape((-1,) + (1,) * (g.ndim - 1))
    g = np.array(g)
    g[0] /= 2
    q = _parity_cumsum(g, reverse=False)
    h = np.zeros_like(q)
    h[1:] = 2 * j[1:] * q[:-1]
    return h


def _derivative(values: np.ndarray) -> np.ndarray:
    """grid.d1 @ values in O(n log n): coefficients, their derivative, then
    values."""
    return _values(_coef_derivative(_coefficients(values)))


def _derivative_t(values: np.ndarray) -> np.ndarray:
    """grid.d1.T @ values: the steps of ``_derivative`` transposed in reverse
    order.  The value map cos(pi j k / n) and the coefficient map are both
    symmetric."""
    return _coefficients(_coef_derivative_t(_values(values)))


def _resample(values: np.ndarray, n: int) -> np.ndarray:
    """Node values of the interpolant of ``values`` on the degree-n grid:
    its Chebyshev coefficients truncated or zero-padded to n + 1."""
    a = _coefficients(values)
    coef = np.zeros((n + 1,) + a.shape[1:], dtype=a.dtype)
    m = min(n, a.shape[0] - 1) + 1
    coef[:m] = a[:m]
    return _values(coef)


_cache: dict[int, ChebGrid] = {}
_cache_lock = threading.Lock()


def build_grid(n: int) -> ChebGrid:
    """Return the (cached, immutable) degree-n grid.  Requires 8 <= n <= 2048."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"grid degree must be an integer, got {n!r}")
    n = int(n)
    if not N_MIN <= n <= N_MAX:
        raise ValueError(f"grid degree {n} outside [{N_MIN}, {N_MAX}]")
    with _cache_lock:
        grid = _cache.get(n)
        if grid is None:
            x, w = _nodes(n), _clencurt(n)
            for arr in (x, w):
                arr.setflags(write=False)
            grid = ChebGrid(n=n, nodes=x, weights=w)
            _cache[n] = grid
    return grid


def _ladder_cached(cache: dict, key, n: int, build):
    """``build()`` with its arrays read-only, kept under (key, n) beside one grid ladder's
    rungs only: entries of another key, or of a degree not n times a power of two, go
    before a new one is built.  Racing threads at most build one twice, to the same bits."""
    value = cache.get((key, n))
    if value is None:
        odd = n // (n & -n)
        for old in list(cache):
            if old[0] != key or old[1] // (old[1] & -old[1]) != odd:
                cache.pop(old, None)
        value = build()
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        cache[key, n] = value
    return value


def clamped_reduce(mat: np.ndarray, grid: ChebGrid) -> tuple[np.ndarray, np.ndarray]:
    """Border a full-grid operator with clamped boundary rows.

    Rows 0, 1, n-1, n are replaced by the functionals u(1), u'(1), u'(-1),
    u(-1); a solve against the bordered matrix must zero the right-hand side
    on those rows.  Returns (bordered matrix, boolean mask of boundary rows).
    """
    n = grid.n
    if mat.shape != (n + 1, n + 1):
        raise ValueError(f"matrix shape {mat.shape} does not match grid degree {n}")
    out = np.array(mat, dtype=complex, copy=True)
    mask = np.zeros(n + 1, dtype=bool)
    mask[[0, 1, n - 1, n]] = True
    out[0, :] = 0.0
    out[0, 0] = 1.0
    out[1, :] = grid.d1[0, :]
    out[n - 1, :] = grid.d1[n, :]
    out[n, :] = 0.0
    out[n, n] = 1.0
    return out, mask
