"""Spectral computations: eigenvalues, resolvent norms, grid ladders.

Norms are the continuum L2 norms realized through Clenshaw-Curtis quadrature:
a matrix M acting between node-value spaces is measured as
``diag(sqrt(w_out)) M diag(1/sqrt(w_in))`` in the spectral norm, so reported
operator norms converge to their integral counterparts as the grid grows.

A resolvent rung of the kinds ``schrodinger`` and ``orr_sommerfeld`` from
degree ``_BANDED_MIN_DEGREE`` on solves a banded ultraspherical tau system in
Chebyshev coefficients (``ultraspherical``), factored in O(n) by LAPACK
``gbtrf``.  Every other rung, and every ``rayleigh_shifted`` rung, factors a
dense collocation matrix (``resolvent_numbers``).

Both routes hand their rung to ``_rung_norms``: a factored solve with its
adjoint (two BLAS ``trsv`` sweeps on the ``getrf`` factors, ``_lu_solver``,
or LAPACK ``gbtrs``) and three maps, each with its adjoint, from weighted
data to right-hand-side rows and from the solution to weighted node values
and to weighted derivative values, so the norms are measured on the same
nodes and weights on either route.  Up to the measured degree
``_MATRIX_STEP_MAX_DEGREE`` the maps are cached dense real matrices,
one BLAS product each (the grid's ``d1`` on the collocation route,
``ultraspherical.node_maps`` on the banded one); above it they run through
type-1 DCTs, O(n log n) per application.  Each norm is the top singular
value found by Golub-Kahan-Lanczos bidiagonalization (``_top_singular``)
on the solves and their adjoints, fully reorthogonalized with BLAS
``gemv``.  The recurrence stops once the gap bound
r^2 / (theta_1 - theta_2) on its top Ritz value is at most 1e-13 theta_1,
r = beta_k |e_k^T p| the residual; a rung up to ``_MATRIX_STEP_MAX_DEGREE``
whose recurrence reaches the step cap is measured instead by dense SVDs of
its explicit solution operator, formed from the factorization.  The first
rung of a ladder starts from a fixed ramp, so repeated runs agree bit for
bit; each later rung starts from the previous rung's top right singular
vectors, resampled through their Chebyshev coefficients, and never from
another shift.  On the shift maps' ladders (beta 1e4) the two norms take
about 29 (Schrodinger) and 17 (Orr-Sommerfeld) solves on the cold n = 87
rung, and 8-10 on the warm n = 174 one.  What no shift changes in a rung
(U and U'' on the nodes, U's series, and up to ``_MATRIX_STEP_MAX_DEGREE``
the node maps and tau U band) is built once per degree and shared by the
shifts; each cache keeps one ladder's degrees (``chebdiff._ladder_cached``).

The certificate eigenvalue is not collocated: each rung of
``eig_floor_ladder`` is one symmetric-definite Galerkin solve on Shen's
Legendre basis (``_certificate_rung``), whose node tables ``_shen_tables``
it shares with the Rayleigh scan, and only the top eigenvalue of the
shifted-and-inverted pencil is computed.  ``min_eig_selfadjoint`` keeps the
dense collocation route as a reference.

Both routes judge a rung by one singular rule, for Dirichlet and clamped
walls alike: an exactly zero pivot, or a reciprocal 1-norm condition
estimate (LAPACK ``gecon`` on the scaled LU, ``TauSystem.rcond`` on the
band) below ``_SINGULAR_RTOL`` = 1e3 eps, where eps / rcond reaches
``RESOLVENT_RTOL`` and a norm could no longer be trusted to the ladder's
tolerance.  A singular rung reports sigma_min 0 and infinite norms.

Every quantity of interest is wrapped in the one grid ladder ``_refine``,
which doubles the degree until two consecutive rungs agree under the
caller's rule, so callers receive a converged number plus the resolution
that produced it.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np
from scipy.linalg import eigh, eigvals, get_blas_funcs, get_lapack_funcs, svdvals
from scipy.linalg.lapack import dlaswp, dstemr
from scipy.special import roots_legendre

from .chebdiff import LADDER_FLOOR, N_MAX, _derivative, _derivative_t, _resample, build_grid
from .operators import (
    AssembledOperator,
    SpectralParams,
    assemble_orr_sommerfeld,
    assemble_rayleigh_shifted,
    assemble_schrodinger,
    certificate_potential,
)
from .profile import Profile
from .ultraspherical import ORDERS, TauSystem, _dct_maps, node_maps, velocity_series
from .ultraspherical import _MATRIX_STEP_MAX_DEGREE

__all__ = [
    "weighted_norm",
    "eigenvalues",
    "min_eig_selfadjoint",
    "ResolventSample",
    "resolvent_numbers",
    "resolvent_sample",
    "eig_floor_ladder",
    "PseudospectrumGrid",
    "pseudospectrum_grid",
]

# a reciprocal condition number below this means the shift sits on the
# discrete spectrum and the resolvent number is noise
_SINGULAR_RTOL = 1e3 * np.finfo(float).eps
# Golub-Kahan-Lanczos for the resolvent norms: relative bound on the error
# of the top Ritz value at which the recurrence stops, and the step cap past
# which it gives up (the benchmark's sweeps and shift maps at beta 1e4 and
# 1e5 needed at most 25 steps per norm).
_GKL_RTOL = 1e-13
_GKL_MAX_STEPS = 60
# Consecutive rungs agree when their resolvent norms (or a direct-solve
# metric) differ by at most this fraction, or their certificate eigenvalues
# by at most _EIG_RTOL, absolute below 1 and relative above.
RESOLVENT_RTOL = 1e-3
_EIG_RTOL = 1e-9


def _check_threads(threads: int | None) -> None:
    """Reject a thread count below 1.  Worker processes follow the affinity
    mask, so a valid count has no effect; the parameter stays for callers
    that pass it."""
    if threads is not None and threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")


@cache
def _openblas_counts() -> tuple:
    """(get, set) thread-count entry points of every OpenBLAS loaded in this
    process (numpy's and scipy's wheels ship one each); none off Linux."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split(maxsplit=5)[-1].strip() for ln in fh}
    except OSError:
        return ()
    libs = [ctypes.CDLL(p) for p in sorted(paths) if "openblas" in p.rsplit("/", 1)[-1]]
    names = [f"{p}{{}}_num_threads{s}" for p, s in
             (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))]
    return tuple((getattr(lib, n.format("get")), getattr(lib, n.format("set")))
                 for lib in libs for n in names if hasattr(lib, n.format("set")))


_BLAS_LOCK = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the enclosed solves on one OpenBLAS thread, then restore the counts.

    Every driver runs under it, so results do not depend on the thread
    count.  Serial runs of small (n <= 256) solves took 3-5x longer on two
    threads of a shared 2-vCPU VM, and varied from process to process.  One
    call is slower on one thread: OpenBLAS ``getrs`` with a single
    right-hand side (6.1 against 3.6 us at n = 87, 20.6 against 8.3 us at
    n = 174), so the dense rung solves by ``trsv`` (``_lu_solver``).  The
    count is process-wide, so concurrent holders take turns.  A count
    already at 1 is not set: after a fork, OpenBLAS restarts its pool at the
    next set, and the new threads spin for about 0.1 s (``_forked_map``)."""
    with _BLAS_LOCK:
        saved = [(set_count, get()) for get, set_count in _openblas_counts()]
        saved = [(set_count, count) for set_count, count in saved if count != 1]
        for set_count, _ in saved:
            set_count(1)
        try:
            yield
        finally:
            for set_count, count in saved:
                set_count(count)


def _share(fn, items) -> tuple[list, Exception | None]:
    """fn over items in order up to the first failure: (results, exception
    or None)."""
    results = []
    try:
        for x in items:
            results.append(fn(x))
    except Exception as exc:
        return results, exc
    return results, None


def _forked_map(fn, items) -> list:
    """[fn(x) for x in items], the items dealt round-robin over k processes,
    one per CPU of the affinity mask: the caller and k - 1 ``os.fork``
    children, each sending its results back as one pickle over a pipe.
    Serial when k < 2, off Linux, or beside another Python thread, whose
    locks a child could inherit held.  A failure raises the earliest
    failing item's exception; a child that ends without results raises
    RuntimeError.  Every child is reaped before this returns or raises.
    A child's memory is copy-on-write: its ``ru_maxrss`` read 52-57 MB on
    the benchmark's maps and sweeps, mostly pages shared with the caller."""
    items = list(items)
    k = min(len(os.sched_getaffinity(0)), len(items)) if hasattr(os, "sched_getaffinity") else 1
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    pids, pipes, done = [], [], False
    try:
        for w in range(1, k):
            pipes += os.pipe()                # its read end, then its write end
            pid = os.fork()
            if pid == 0:                      # the child: never returns
                status = 1
                try:
                    os.close(pipes[-2])
                    with open(pipes[-1], "wb") as fh:
                        pickle.dump(_share(fn, items[w::k]), fh)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(pipes.pop())
        shares = [_share(fn, items[::k])]
        for r in pipes:
            with open(r, "rb", closefd=False) as fh:
                shares.append(fh.read())
        done = True
    finally:
        for fd in pipes:
            os.close(fd)
        statuses = []
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, status in zip(pids, statuses):
        if status:
            raise RuntimeError(f"worker process {pid} exited with status {status}")
    shares[1:] = map(pickle.loads, shares[1:])
    failed = [(w + k * len(out), exc) for w, (out, exc) in enumerate(shares) if exc]
    if failed:
        raise min(failed)[1]
    return [shares[i % k][0][i // k] for i in range(len(items))]


def weighted_norm(grid, values) -> float:
    """Quadrature L2 norm of node samples: sqrt(sum w_j |v_j|^2)."""
    values = np.asarray(values)
    return float(np.sqrt(np.sum(grid.weights * np.abs(values) ** 2)))


def eigenvalues(op: AssembledOperator) -> np.ndarray:
    """All eigenvalues of the assembled matrix, sorted by (real, imag)."""
    return np.sort_complex(eigvals(op.matrix))


def min_eig_selfadjoint(op: AssembledOperator) -> float:
    """Smallest eigenvalue of an operator that is self-adjoint in L2.

    The matrix is conjugated by the square-root quadrature weights first;
    that leaves the spectrum untouched but tames the non-normality of the
    collocation discretization.  A complex eigenvalue beyond rounding noise
    means the operator was not self-adjoint and is reported loudly.
    """
    if op.bc != "dirichlet":
        raise ValueError(f"expected a Dirichlet operator, got bc={op.bc!r}")
    ws = np.sqrt(op.grid.weights[1:-1])
    sim = (ws[:, None] * op.matrix) / ws[None, :]
    vals = eigvals(sim)
    scale = max(1.0, float(np.max(np.abs(vals))))
    worst_imag = float(np.max(np.abs(vals.imag)))
    if worst_imag > 1e-9 * scale:
        raise RuntimeError(
            f"spectrum is not real: max |imag| = {worst_imag:.3e} at scale {scale:.3e}"
        )
    return float(np.min(vals.real))


@dataclass(frozen=True)
class ResolventSample:
    """Resolvent norms of one operator at one shift, with ladder metadata.

    norm_inv is the L2 -> L2 norm of the solve; norm_d_inv additionally
    differentiates the solution, measuring data -> d(solution)/dx.
    sigma_min is 1 / norm_inv.  A singular sample (a shift on the discrete
    spectrum, or a rung whose norms could not be measured) has sigma_min 0
    and both norms infinite.
    """

    kind: str
    alpha: float
    beta: float
    lam: complex
    n_start: int
    n_used: int
    converged: bool
    singular: bool
    sigma_min: float
    norm_inv: float
    norm_d_inv: float

    @property
    def combined(self) -> float:
        return self.norm_inv + self.norm_d_inv


class _NoConvergence(RuntimeError):
    """``_top_singular`` reached its step cap."""


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector to the bit, from its own two dots."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _orthogonalize(w: np.ndarray, basis: np.ndarray, gemv) -> np.ndarray:
    """w minus its projection on the orthonormal rows of basis, applied twice
    so the result is orthogonal to working precision.  BLAS ``gemv`` with
    trans=2 takes the inner products straight from the rows, with no
    conjugated copy of them."""
    if basis.shape[0]:
        cols = basis.T
        for _ in range(2):
            w = gemv(-1.0, cols, gemv(1.0, cols, w, trans=2), beta=1.0, y=w)
    return w


def _ritz_pairs(off: np.ndarray):
    """Eigenpairs n - 1 and n (LAPACK ``dstemr``, range 2; O(n) each) of the
    zero-diagonal tridiagonal with off-diagonal off[:-1], n = len(off).
    scipy's wrapper writes into e and reads its last entry: a copy ending in 0."""
    n = off.shape[0]
    e = off.copy()
    e[-1] = 0.0
    _, vals, vecs, info = dstemr(np.zeros(n), e, 2, 0.0, 0.0, n - 1, n)
    if info:
        raise _NoConvergence(f"dstemr failed (info {info})")
    return vals, vecs


def _top_ritz(alphas: np.ndarray, betas: np.ndarray):
    """theta_1, theta_2 (for j >= 1), p_j and q of B = diag(alphas) +
    diag(betas, 1), as in ``_top_singular``, from the top two eigenpairs of
    the Golub-Kahan tridiagonal of [[0, B], [B^T, 0]]: zero diagonal,
    off-diagonal (alpha_0, beta_0, ..., alpha_j), eigenvalues +-sigma_i and
    top eigenvector (q_0, p_0, q_1, p_1, ...) / sqrt(2) (``_ritz_pairs``)."""
    off = np.zeros(2 * alphas.shape[0])
    off[0::2], off[1:-1:2] = alphas, betas
    vals, vecs = _ritz_pairs(off)
    top = math.sqrt(2.0) * vecs[:, 1]
    return vals[1], vals[0], top[-1], top[0::2]


def _top_singular(apply, apply_h, v0: np.ndarray):
    """Largest singular value and right singular vector of A by Golub-Kahan-
    Lanczos bidiagonalization with full reorthogonalization.

    ``apply`` and ``apply_h`` map vectors by A and A^H.  After j steps,
    A V_j = U_j B_j and A^H U_j = V_j B_j^H + beta_j v_{j+1} e_j^T with B_j
    upper bidiagonal.  For the top singular triplet (theta_1, p, q) of B_j
    the residual is r = beta_j |e_j^T p|, and theta_1 is within
    r^2 / (theta_1 - theta_2) of a singular value of A (Larsen, PROPACK,
    1998); the loop stops once that bound is at most ``_GKL_RTOL`` theta_1.
    An alpha or beta that small is a breakdown: the Krylov space is
    invariant to that accuracy, and the Ritz value is final.  If A v0 = 0
    exactly, theta is 0 and every vector is a top right singular vector;
    the normalized start is returned, never the zero vector.
    """
    steps = min(_GKL_MAX_STEPS, v0.shape[0])
    vs = np.zeros((steps + 1, v0.shape[0]), dtype=v0.dtype)
    vs[0] = v0 / _norm(v0)
    u = apply(vs[0])
    us = np.zeros((steps, u.shape[0]), dtype=u.dtype)
    (gemv,) = get_blas_funcs(("gemv",), (vs, us))
    off = np.zeros(2 * steps)
    theta = 0.0
    for j in range(steps):
        u = _orthogonalize(u, us[:j], gemv)
        alpha, beta = _norm(u), 0.0
        if alpha > _GKL_RTOL * theta:         # else a breakdown: off[2j] stays 0
            off[2 * j] = alpha
            np.divide(u, alpha, out=us[j])
            p = _orthogonalize(apply_h(us[j]), vs[: j + 1], gemv)
            beta = _norm(p)
        vals, vecs = _ritz_pairs(off[: 2 * j + 2])
        theta, theta_2 = vals.item(1), vals.item(0)
        r = beta * abs(math.sqrt(2.0) * vecs.item(-1, 1))
        if beta <= _GKL_RTOL * theta or (
            j and r * r <= _GKL_RTOL * theta * (theta - theta_2)
        ):
            q = (math.sqrt(2.0) * vecs[:, 1])[0::2]
            return theta, (q @ vs[: j + 1] if theta else vs[0])
        off[2 * j + 1] = beta
        np.divide(p, beta, out=vs[j + 1])
        u = apply(vs[j + 1])
    raise _NoConvergence(f"Golub-Kahan-Lanczos did not converge in {steps} steps")


def _real_matmul(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x along axis 0 for a real matrix: a complex x goes through as
    its real and imaginary parts side by side in one real product, where
    numpy would first copy mat to complex."""
    if x.dtype != np.complex128:
        return mat @ x
    pairs = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[0], -1)
    return (mat @ pairs).view(np.complex128).reshape(mat.shape[:1] + x.shape[1:])


def _rung_norms(grid, data_nodes, back, maps, dtype, start) -> tuple[float, float]:
    """Weighted norms of one rung's solution map and of its derivative, on
    either route.

    ``back(rhs, trans)`` solves the rung's factored system (``trans`` 0) or
    its adjoint (2).  ``maps`` holds three (apply, adjoint) pairs acting
    along axis 0: weighted data x = W f on ``data_nodes`` to right-hand-side
    rows, the solution to weighted node values W u, and the solution to
    weighted derivative values W u', W the square-root quadrature weights.
    Returns (||W u||, ||W u'||) over unit ||x||.

    Each is a top singular value from ``_top_singular``.  ``start`` carries
    the top right singular vectors from one rung of a ladder to the next,
    as node values; without them each recurrence starts from a fixed ramp.
    A rung up to ``_MATRIX_STEP_MAX_DEGREE`` whose recurrence reaches the
    step cap, as on a tight cluster of top singular values, takes them
    instead as the top singular values of the explicit solution operator,
    solved for every data node at once; above that degree it is
    unmeasurable, both norms infinite, and ``_numbers`` reports it singular.
    """
    n, ws_in = grid.n, np.sqrt(grid.weights)[data_nodes]
    (forcing, forcing_h), *outs = maps
    if start is not None and start.values is not None:
        v0s = [_resample(f, n)[data_nodes] * ws_in for f in start.values]
    else:
        # A fixed ramp keeps repeated runs bit-identical; it has both even
        # and odd parts, so a parity symmetry of the profile cannot make it
        # orthogonal to the top singular vector.
        v0s = [np.linspace(1.0, 2.0, len(ws_in))] * 2
    try:
        found = [
            _top_singular(
                lambda x, out=out: out(back(forcing(x), 0)),
                lambda y, out_h=out_h: forcing_h(back(out_h(y), 2)),
                v0.astype(dtype),
            )
            for (out, out_h), v0 in zip(outs, v0s)
        ]
    except _NoConvergence:
        if n > _MATRIX_STEP_MAX_DEGREE:
            return math.inf, math.inf
        u = back(forcing(np.eye(len(ws_in), dtype=dtype)), 0)
        return tuple(float(svdvals(out(u))[0]) for out, _ in outs)
    if start is not None:
        start.values = []
        for _, v in found:
            f = np.zeros(n + 1, dtype=v.dtype)
            f[data_nodes] = v / ws_in
            start.values.append(f)
    return found[0][0], found[1][0]


_SINGULAR = {
    "sigma_min": 0.0,
    "singular": True,
    "norm_inv": math.inf,
    "norm_d_inv": math.inf,
}


def _numbers(norm_inv: float, norm_d_inv: float) -> dict:
    """The result of a rung from its two norms; a non-finite norm is
    singular."""
    if not (math.isfinite(norm_inv) and math.isfinite(norm_d_inv)):
        return dict(_SINGULAR)
    return {
        "sigma_min": 1.0 / norm_inv,
        "singular": False,
        "norm_inv": norm_inv,
        "norm_d_inv": norm_d_inv,
    }


def _banded_numbers(
    series: np.ndarray, params: SpectralParams, kind: str, grid, start
) -> dict:
    """Resolvent numbers of one rung of a banded kind, from its tau system
    for U's Chebyshev ``series``.

    Norms are measured as on the collocation route: weighted data x = W f
    on the same nodes (the interior for Dirichlet, nodes 2..n-2 for clamped
    walls), f zero on the others, goes to the kept rows; the solution comes
    back to node values, and so does its derivative.  Up to
    ``_MATRIX_STEP_MAX_DEGREE`` those maps are the cached matrices of
    ``node_maps``, above it the matrix-free ``_dct_maps``; ``_rung_norms``
    takes it from there.  The system is singular at an exactly zero pivot
    or a condition estimate (``TauSystem.rcond``) below ``_SINGULAR_RTOL``,
    for either boundary treatment.
    """
    system = TauSystem(kind, series, params, grid.n)
    if system.singular or system.rcond() < _SINGULAR_RTOL:
        return dict(_SINGULAR)
    n, m = grid.n, system.order
    if n <= _MATRIX_STEP_MAX_DEGREE:
        maps = [(partial(_real_matmul, a), partial(_real_matmul, a.T)) for a in node_maps(m, grid)]
    else:
        maps = _dct_maps(m, grid)
    data_nodes = np.arange(m // 2, n + 1 - m // 2)
    return _numbers(*_rung_norms(grid, data_nodes, system.backsolve, maps, complex, start))


def _lu_solver(lu: np.ndarray, piv: np.ndarray):
    """back(b, trans) on the ``getrf`` factors P A = L U: solves A x = b
    (``trans`` 0) or A^H x = b (2); a matrix b is overwritten.

    One right-hand side takes the row permutation, read once from ``laswp``
    on 0..n-1, and two BLAS ``trsv`` sweeps; a matrix of them (the
    explicit-SVD fallback) keeps LAPACK ``getrs``.  The matrix was checked
    before its LU, so neither goes through ``lu_solve``'s checks and
    dispatch on every Lanczos step.
    """
    (getrs,) = get_lapack_funcs(("getrs",), (lu,))
    (trsv,) = get_blas_funcs(("trsv",), (lu,))
    perm = dlaswp(np.arange(len(piv), dtype=float)[:, None], piv)[:, 0].astype(np.intp)
    unperm = np.argsort(perm)

    def back(b, trans):
        if b.ndim == 1 and trans == 0:
            y = trsv(lu, b[perm], lower=1, diag=1, overwrite_x=1)
            return trsv(lu, y, overwrite_x=1)
        if b.ndim == 1:
            y = trsv(lu, b, trans=2)
            return trsv(lu, y, lower=1, trans=2, diag=1, overwrite_x=1)[unperm]
        x, info = getrs(lu, piv, b, trans=trans, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x

    return back


class _StartVectors:
    """Top right singular vectors of the last rung of one ladder, one per
    norm, as node values on that rung's grid.  The next rung starts its
    recurrences from them, resampled; a fresh holder starts from the ramp."""

    values = None


def resolvent_numbers(
    op: AssembledOperator, *, start: _StartVectors | None = None
) -> dict:
    """Raw resolvent norms of one assembled operator (no ladder).

    ``start``, private to ``resolvent_sample``, warm-starts the norms from
    the previous rung of the same ladder and records this rung's vectors.

    One LU of d A, d a row scaling, serves the whole rung.  Unknowns sit on
    grid nodes, equation i on the node of unknown i: the interior for
    Dirichlet operators, every node for the bordered clamped ones.  Data f
    on the rows of the differential equation, weighted as x = W f, become
    the right-hand side d f on those rows, zero elsewhere; the solution u
    is zero off its nodes.  D1 and D1^T act as the grid's ``d1`` up to
    ``_MATRIX_STEP_MAX_DEGREE`` and by DCT above it; ``_rung_norms`` takes
    it from there.  Non-finite entries raise ValueError.

    A Dirichlet matrix is factored as it is (d = 1).  The bordered
    fourth-order matrix mixes unit-scale constraint rows with differentiated
    rows of order n^8, so its rows are equilibrated, d = 1 / max|row|, before
    the LU; a zero row is singular.  Without that the solves carry absolute
    noise from the huge fourth-derivative rows, and the extra
    differentiation in norm_d_inv amplifies it by n^2 -- enough to stall
    ladder convergence past n ~ 800.  The solution operator is unchanged, as
    the data carry the same scaling.

    Either matrix is singular at an exactly zero pivot or when LAPACK's
    1-norm condition estimate of d A, on the same LU, is below
    ``_SINGULAR_RTOL``.
    """
    if op.bc not in ("dirichlet", "clamped"):
        raise ValueError(f"unknown boundary treatment {op.bc!r}")
    mat, grid = np.asarray_chkfinite(op.matrix), op.grid
    if op.bc == "dirichlet":
        d, data_rows, sol_rows = np.ones(mat.shape[0]), slice(None), slice(1, -1)
    else:
        row_max = np.max(np.abs(mat), axis=1)
        if not np.all(row_max):
            return dict(_SINGULAR)
        d, data_rows, sol_rows = 1.0 / row_max, ~op.bc_rows, slice(None)
    scaled = d[:, None] * mat
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (mat,))
    anorm = np.linalg.norm(scaled, 1)
    lu, piv, info = getrf(scaled, overwrite_a=True)
    if info > 0 or gecon(lu, anorm, norm="1")[0] < _SINGULAR_RTOL:
        return dict(_SINGULAR)

    ws = np.sqrt(grid.weights)
    data_nodes = np.arange(grid.n + 1)[sol_rows][data_rows]
    data_scale = d[data_rows] / ws[data_nodes]
    back = _lu_solver(lu, piv)

    def forcing(x):
        rhs = np.zeros(mat.shape[:1] + x.shape[1:], dtype=np.result_type(lu, x))
        rhs[data_rows] = (data_scale * x.T).T
        return rhs

    def on_nodes(u):
        out = np.zeros((grid.n + 1,) + u.shape[1:], dtype=u.dtype)
        out[sol_rows] = u
        return out

    if grid.n <= _MATRIX_STEP_MAX_DEGREE:
        derivative = partial(_real_matmul, grid.d1)
        derivative_t = partial(_real_matmul, grid.d1.T)
    else:
        derivative, derivative_t = _derivative, _derivative_t
    maps = (
        (forcing, lambda z: (data_scale * z[data_rows].T).T),
        (lambda u: (ws * on_nodes(u).T).T, lambda y: (ws * y.T).T[sol_rows]),
        (
            lambda u: (ws * derivative(on_nodes(u)).T).T,
            lambda y: derivative_t((ws * y.T).T)[sol_rows],
        ),
    )
    return _numbers(*_rung_norms(grid, data_nodes, back, maps, lu.dtype, start))


# Rungs of the banded kinds (ultraspherical.ORDERS) from this degree on take
# the banded tau route.  Measured with both routes on the matrix step (see
# CHANGES.md): medians of 9 runs over 3 shifts per kind put a banded rung at
# 0.83-1.04x the dense time at n = 87-100 and 0.43-0.87x from n = 120 on
# when its node maps are cached, and at 0.93-1.35x up to n = 120 and
# 0.65-0.99x from n = 140 on when it builds them.  The degree stays: the
# tau route at n = 87 moves n_used on a few shift-map ladders (CHANGES.md).
_BANDED_MIN_DEGREE = 160
# ... and only while U's chopped Chebyshev series has degree d <= n / 16: the
# tau matrix has about 2d + 3m diagonals, so ``gbtrf`` costs O(d^2 n) and
# each ``gbtrs`` O(dn).  Measured (see CHANGES.md) on tanh_shear profiles,
# the banded rung takes 0.33-0.56x the dense time at n/d = 13-16, 0.55-0.92x
# at n/d = 7-8 and 0.9-1.3x at n/d = 3.7.  The rule stays although dropping
# it would cost at most about 1.3x: without it the Schrodinger ladders of
# tanh_shear(5) and tanh_shear(10) at beta 1e6, lam -0.05 + 0.3i, end at
# n = 1600 instead of 800.
_BANDED_DEGREE_PER_TERM = 16

_ASSEMBLERS = {
    "schrodinger": assemble_schrodinger,
    "rayleigh_shifted": assemble_rayleigh_shifted,
    "orr_sommerfeld": assemble_orr_sommerfeld,
}


def ladder_start(beta: float) -> int:
    """The one degree rule: boundary layers of width beta^(-1/3) need a
    handful of nodes, and Chebyshev clustering gives ~n^2 wall density, so
    ladders start at 4 beta^(1/3) and one doubling reaches ~8 beta^(1/3);
    never below ``LADDER_FLOOR`` nor above ``N_MAX``."""
    return min(N_MAX, max(LADDER_FLOOR, math.ceil(4.0 * float(beta) ** (1.0 / 3.0))))


def _refine(evaluate, n0: int, agree):
    """The grid ladder: evaluate(n) at n = n0, 2n, 4n, ...

    Returns (value, n, True) for the finer value of the first consecutive
    pair with agree(prev, cur), or the last rung as (value, n, False) once
    another doubling would pass ``N_MAX``.  Callers look up the grid,
    assembler and solver inside ``evaluate``, so each rung sees the current
    bindings.
    """
    n = n0
    prev = None
    while True:
        cur = evaluate(n)
        if prev is not None and agree(prev, cur):
            return cur, n, True
        if 2 * n > N_MAX:
            return cur, n, False
        prev = cur
        n *= 2


@_one_blas_thread()
def resolvent_sample(
    profile: Profile, params: SpectralParams, kind: str
) -> ResolventSample:
    """Resolvent norms refined by grid doubling until they settle.

    The ladder starts at ``ladder_start(beta)``.  Successive degrees n and
    2n must agree on norm_inv + norm_d_inv within ``RESOLVENT_RTOL``; the
    accepted value is the finer one.  Hitting ``N_MAX`` without agreement
    returns the last value flagged unconverged.  Rungs of the kinds
    ``schrodinger`` and ``orr_sommerfeld`` from ``_BANDED_MIN_DEGREE`` on
    solve banded tau systems, unless U's series is too long for the degree
    (``_BANDED_DEGREE_PER_TERM``); the others assemble a collocation matrix.
    Each rung starts at its ``build_grid`` call.  It runs on one OpenBLAS
    thread, so a direct call equals the same shift inside a map to the bit.
    """
    if kind not in _ASSEMBLERS:
        raise ValueError(f"unknown operator kind {kind!r}")
    n_start = ladder_start(params.beta)
    start = _StartVectors()

    def evaluate(n):
        grid = build_grid(n)
        if kind in ORDERS and n >= _BANDED_MIN_DEGREE:
            series = velocity_series(profile, grid)
            if n >= _BANDED_DEGREE_PER_TERM * (len(series) - 1):
                return _banded_numbers(series, params, kind, grid, start)
        op = _ASSEMBLERS[kind](profile, params, grid)
        return resolvent_numbers(op, start=start)

    def agree(prev, cur):
        ref = prev["norm_inv"] + prev["norm_d_inv"]
        val = cur["norm_inv"] + cur["norm_d_inv"]
        finite = math.isfinite(ref) and ref > 0.0 and math.isfinite(val)
        return finite and abs(val - ref) <= RESOLVENT_RTOL * ref

    nums, n_used, converged = _refine(evaluate, n_start, agree)
    return ResolventSample(
        kind=kind,
        alpha=params.alpha,
        beta=params.beta,
        lam=params.lam,
        n_start=n_start,
        n_used=n_used,
        converged=converged,
        **nums,
    )


# Gauss-Legendre nodes beyond the basis degree: exact for every polynomial U
# in the Rayleigh pencil.  They also integrate the certificate's potential
# U''/(U - nu), which is not a polynomial: accepted certificate rungs moved
# within 1.3e-15 relative against 2n + 64 nodes, at the same and at the
# doubled degree (Couette, tanh_shear(1, 8, 16), cubic(0.1), a quintic)
_EXTRA_NODES = 24


@lru_cache(maxsize=4)
def _shen_tables(n: int) -> tuple[np.ndarray, ...]:
    """n + ``_EXTRA_NODES`` Gauss-Legendre nodes and weights, [psi', psi] on
    them for the Shen basis psi_k = (L_k - L_{k+2}) / sqrt(4k + 6), k < n - 1,
    and the mass matrix M_jk = int psi_j psi_k as its diagonal and M_{k,k+2};
    int psi_j' psi_k' is the identity (Shen, SIAM J. Sci. Comput. 15, 1994)."""
    m = n + _EXTRA_NODES
    x = roots_legendre(m)[0]
    leg = np.empty((m + 1, m))
    leg[0], leg[1] = 1.0, x
    for k in range(1, m):
        leg[k + 1] = ((2 * k + 1) * x * leg[k] - k * leg[k - 1]) / (k + 1)
    # weights 2 / ((1 - x^2) L_m'^2): scipy's are off by up to 8e-10 relative
    # here and integrate the Legendre Gram matrix 8 to 40 times less exactly
    slope = m * (leg[m - 1] - x * leg[m]) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * slope**2)
    k = np.arange(n - 1)
    scale = np.sqrt(4.0 * k + 6.0)
    # psi_k' = -(2k + 3) L_{k+1} / sqrt(4k + 6)
    deriv = -((2 * k + 3) / scale)[:, None] * leg[1:n]
    basis = np.hstack([deriv, (leg[: n - 1] - leg[2 : n + 1]) / scale[:, None]])
    diag = (2.0 / (2 * k + 1) + 2.0 / (2 * k + 5)) / scale**2
    upper = -2.0 / ((2 * k[:-2] + 5) * scale[:-2] * scale[2:])
    for arr in (x, w, basis, diag, upper):
        arr.setflags(write=False)
    return x, w, basis, diag, upper


def _certificate_rung(profile: Profile, nu: float, n: int) -> float:
    """Smallest eigenvalue of -d2 + q, q = U''/(U - nu), with Dirichlet walls
    on the degree-n Shen basis: the pencil K phi = lam M phi, K = I + Q with
    Q_jk = int q psi_j psi_k on the ``_shen_tables`` nodes.

    Shifted by sigma = min q - 1 below the spectrum, A = K - sigma M is
    positive definite (its Rayleigh quotients exceed 1), so the top
    eigenvalue mu of M phi = mu A phi is one symmetric-definite solve
    (LAPACK ``sygvx``, that one index), and lam = sigma + 1 / mu.  A Ritz
    value: it lies above the operator's and falls as n grows.  A non-finite
    potential raises ValueError.
    """
    x, w, basis, diag, upper = _shen_tables(n)
    psi = basis[:, len(x):]
    q = certificate_potential(profile, nu, x)
    sigma = float(np.min(q)) - 1.0
    a = (psi * (w * (q - sigma))) @ psi.T
    a[np.diag_indices_from(a)] += 1.0
    mass = np.diag(diag) + np.diag(upper, 2) + np.diag(upper, -2)
    mu = eigh(mass, a, eigvals_only=True, subset_by_index=[n - 2, n - 2],
              overwrite_a=True, overwrite_b=True)[0]
    return float(sigma + 1.0 / mu)


def eig_floor_ladder(profile: Profile, nu: float) -> tuple[float, int, bool]:
    """Smallest certificate eigenvalue at velocity nu, degree-doubled to rest.

    Returns (eigenvalue, degree used, converged flag).  Each rung is one
    Legendre-Galerkin solve (``_certificate_rung``) on the Rayleigh scan's
    cached tables.  The ladder runs from ``LADDER_FLOOR`` to ``N_MAX``;
    consecutive degrees agree within ``_EIG_RTOL``, absolute below 1,
    relative above.
    """

    def agree(prev, cur):
        return abs(cur - prev) <= _EIG_RTOL * max(1.0, abs(cur))

    return _refine(lambda n: _certificate_rung(profile, nu, n), LADDER_FLOOR, agree)


@dataclass(frozen=True)
class PseudospectrumGrid:
    """Resolvent norm over a rectangular grid of spectral shifts."""

    kind: str
    alpha: float
    beta: float
    mu_values: np.ndarray
    nu_values: np.ndarray
    norms: np.ndarray            # shape (len(nu_values), len(mu_values))
    samples: tuple[ResolventSample, ...]


@_one_blas_thread()
def pseudospectrum_grid(
    profile: Profile,
    kind: str,
    alpha: float,
    beta: float,
    mu_values,
    nu_values,
) -> PseudospectrumGrid:
    """Map (mu, nu) -> resolvent norm at shifts lam = mu + i nu.

    Each shift runs its own grid ladder on one OpenBLAS thread, and the
    shifts are dealt over one process per CPU of the affinity mask
    (``_forked_map``; serial on one CPU, off Linux, or beside another
    Python thread), so the samples do not depend on the worker count.  A
    thread pool ran 0.79x as fast as one thread, as the Lanczos steps hold
    the interpreter lock; processes do not share it.
    """
    mu_values = np.asarray(mu_values, dtype=float)
    nu_values = np.asarray(nu_values, dtype=float)
    samples = _forked_map(
        lambda lam: resolvent_sample(profile, SpectralParams(alpha, beta, lam), kind),
        [complex(mu, nu) for nu in nu_values for mu in mu_values],
    )
    norms = np.array([s.norm_inv for s in samples]).reshape(
        len(nu_values), len(mu_values)
    )
    return PseudospectrumGrid(
        kind=kind,
        alpha=float(alpha),
        beta=float(beta),
        mu_values=mu_values,
        nu_values=nu_values,
        norms=norms,
        samples=tuple(samples),
    )
