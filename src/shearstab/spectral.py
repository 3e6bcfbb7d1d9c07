"""Spectral computations: eigenvalues, resolvent norms, grid ladders.

Norms are the continuum L2 norms realized through Clenshaw-Curtis quadrature:
a matrix M acting between node-value spaces is measured as
``diag(sqrt(w_out)) M diag(1/sqrt(w_in))`` in the spectral norm, so reported
operator norms converge to their integral counterparts as the grid grows.

Resolvent norms take one LU factorization per rung.  From the measured
crossover degree ``_LANCZOS_MIN_DEGREE`` on, both norms are top singular
values found by Lanczos (``svds``) on the LU solves and their adjoints
(LAPACK ``getrs``), from a fixed start vector so that repeated runs agree
bit for bit.  The Krylov basis holds ``_LANCZOS_BASIS`` = 6 vectors rather
than scipy's default 20: a resolvent call then takes about 37 solves on the
sweep rungs and 63 on the shift maps of the benchmark, against 86 and 92.
Below the crossover, the explicit solution operator is formed from the same
LU and its singular values are taken densely.

Every quantity of interest is wrapped in the one grid ladder ``_refine``,
which doubles the degree until two consecutive rungs agree under the
caller's rule, so callers receive a converged number plus the resolution
that produced it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals, get_lapack_funcs, svdvals
from scipy.sparse.linalg import LinearOperator, svds

from .chebdiff import build_grid
from .operators import (
    AssembledOperator,
    SpectralParams,
    assemble_certificate_operator,
    assemble_orr_sommerfeld,
    assemble_rayleigh_shifted,
    assemble_schrodinger,
)
from .profile import Profile

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
    "thread_count",
]

# a reciprocal condition number below this means the shift sits on the
# discrete spectrum and the resolvent number is noise
_SINGULAR_RTOL = 1e3 * np.finfo(float).eps
# Rungs of at least this degree take their norms from Lanczos on the LU
# solves; below it two dense SVDs of the explicit solution operator are
# faster.  Measured crossover (see CHANGES.md): it sits where OpenBLAS starts
# threading the O(n^3) calls of the dense route.
_LANCZOS_MIN_DEGREE = 80
# Krylov basis of the Lanczos norms.  ARPACK fills the whole basis before
# its first convergence test, so scipy's default of 20 vectors costs ~21
# solve pairs per norm.  Survey of the 626 Lanczos calls made by the
# os-boundary sweeps of couette and cubic(0.05/0.1/0.2), the couette
# Schrodinger sweep and 8x8 shift maps of both kinds at beta 1e4 and 1e5:
# total solves for a basis of 20/10/8/6/5/4/3 vectors were 56,876/39,126/
# 37,420/37,386/41,792/44,612/54,620, with norms equal to 2e-12.
_LANCZOS_BASIS = 6
# solve norms beyond this are treated as a resonance hit (clamped systems)
_SOLVE_NORM_CAP = 1e12


def thread_count(explicit: int | None = None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"thread count must be positive, got {explicit}")
        return int(explicit)
    env = os.environ.get("SHEARSTAB_THREADS", "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"SHEARSTAB_THREADS must be positive, got {env}")
        return value
    return min(4, os.cpu_count() or 1)


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
    sigma_min is 1 / norm_inv, or 0 where the shift was judged singular
    before any norm was taken.
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


def _factor(mat: np.ndarray, overwrite: bool = False):
    """LU of a finite matrix: ``((lu, piv), exactly_singular)``.

    Non-finite entries raise ValueError, as every dense LAPACK driver here
    does.  An exactly zero pivot is reported through the flag rather than as
    the LinAlgWarning ``lu_factor`` would emit.
    """
    mat = np.asarray_chkfinite(mat)
    (getrf,) = get_lapack_funcs(("getrf",), (mat,))
    lu, piv, info = getrf(mat, overwrite_a=overwrite)
    return (lu, piv), info > 0


def _real_matmul(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """d @ z for a real matrix d, without forming a complex copy of d."""
    if not np.iscomplexobj(z):
        return d @ z
    z = np.ascontiguousarray(z)
    out = d @ z.view(np.float64).reshape(z.shape[0], -1)
    return out.view(np.complex128).reshape((d.shape[0],) + z.shape[1:])


def _solution_norms(
    grid, factors, size: int, data_rows, data_scale: np.ndarray, sol_rows
) -> tuple[float, float]:
    """Weighted norms of a solution map and of its derivative.

    Weighted data x (k values) become the right-hand side ``data_scale * x``
    on ``data_rows`` of a system of order ``size``, zero elsewhere; its LU
    ``factors`` give u on ``sol_rows`` of the grid, zero on the other nodes.
    Returns (||W u||, ||W D1 u||) over unit ||x||, W the square-root
    quadrature weights.  Below ``_LANCZOS_MIN_DEGREE`` both norms come from
    SVDs of the explicit solution operator; from there on, from Lanczos on
    the solves and their adjoints.
    """
    ws = np.sqrt(grid.weights)[:, None]
    d1 = grid.d1
    k = data_scale.shape[0]
    dtype = factors[0].dtype

    # x and y are column blocks of the factors' dtype.  _factor checked the
    # matrix already, so the solves call LAPACK directly and skip lu_solve's
    # checks and dispatch on every Lanczos step.
    (getrs,) = get_lapack_funcs(("getrs",), (factors[0],))

    def backsolve(b, trans, overwrite):
        x, info = getrs(*factors, b, trans=trans, overwrite_b=overwrite)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x

    def solve(x):
        rhs = np.zeros((size, x.shape[1]), dtype=np.result_type(dtype, x))
        rhs[data_rows] = data_scale[:, None] * x
        u = np.zeros((grid.n + 1, x.shape[1]), dtype=rhs.dtype)
        u[sol_rows] = backsolve(rhs, 0, True)
        return u

    def solve_h(y):
        sol = backsolve(y[sol_rows], 2, False)
        return data_scale[:, None] * sol[data_rows]

    if grid.n < _LANCZOS_MIN_DEGREE:
        u = solve(np.eye(k))
        norm_inv = svdvals(ws * u)[0]
        norm_d_inv = svdvals(ws * _real_matmul(d1, u))[0]
        return float(norm_inv), float(norm_d_inv)

    # A fixed start vector keeps repeated runs bit-identical.  The ramp has
    # both even and odd parts, so a parity symmetry of the profile cannot
    # make it orthogonal to the top singular vector.
    v0 = np.linspace(1.0, 2.0, k).astype(dtype)

    def top(apply, apply_h):
        op = LinearOperator(
            (grid.n + 1, k),
            matvec=lambda x: apply(x.reshape(k, -1)),
            rmatvec=lambda y: apply_h(y.reshape(-1, 1)),
            matmat=apply,
            dtype=dtype,
        )
        sigma = svds(
            op, k=1, ncv=_LANCZOS_BASIS, v0=v0, return_singular_vectors=False
        )
        return float(sigma[0])

    norm_inv = top(lambda x: ws * solve(x), lambda y: solve_h(ws * y))
    norm_d_inv = top(
        lambda x: ws * _real_matmul(d1, solve(x)),
        lambda y: solve_h(_real_matmul(d1.T, ws * y)),
    )
    return norm_inv, norm_d_inv


_SINGULAR = {
    "sigma_min": 0.0,
    "singular": True,
    "norm_inv": math.inf,
    "norm_d_inv": math.inf,
}


def _dirichlet_numbers(op: AssembledOperator) -> dict:
    # Singularity is judged from LAPACK's 1-norm condition estimate on the
    # same factorization; it tracks the 2-norm ratio sigma_min / sigma_max of
    # the weighted matrix to within a small factor.
    mat = op.matrix
    factors, exact = _factor(mat)
    if exact:
        return dict(_SINGULAR)
    (gecon,) = get_lapack_funcs(("gecon",), (factors[0],))
    rcond, _ = gecon(factors[0], np.linalg.norm(mat, 1), norm="1")
    if rcond < _SINGULAR_RTOL:
        return dict(_SINGULAR)
    ws_int = np.sqrt(op.grid.weights[1:-1])
    norm_inv, norm_d_inv = _solution_norms(
        op.grid, factors, mat.shape[0], slice(None), 1.0 / ws_int, slice(1, -1)
    )
    if not (math.isfinite(norm_inv) and math.isfinite(norm_d_inv)):
        return dict(_SINGULAR)
    return {
        "sigma_min": 1.0 / norm_inv,
        "singular": False,
        "norm_inv": norm_inv,
        "norm_d_inv": norm_d_inv,
    }


def _clamped_numbers(op: AssembledOperator) -> dict:
    # The bordered fourth-order matrix mixes unit-scale constraint rows with
    # differentiated rows of order n^8, so its raw singular values say
    # nothing about resonance.  Judge singularity from the weighted solution
    # operator itself: a shift sitting on the spectrum surfaces as an absurd
    # solve norm (or an exactly zero pivot).
    #
    # Rows must be equilibrated before factorization.  Without it the solves
    # carry absolute noise from the huge fourth-derivative rows, and the
    # extra differentiation in norm_d_inv amplifies that noise by n^2 --
    # enough to stall ladder convergence past n ~ 800.  Scaling row j by
    # 1/max|row j| restores componentwise accuracy; the solution operator is
    # unchanged because data columns are rescaled back afterwards.
    keep = ~op.bc_rows
    row_scale = np.max(np.abs(op.matrix), axis=1)
    if not np.all(np.isfinite(row_scale)):
        raise ValueError("operator matrix must not contain infs or NaNs")
    if np.any(row_scale == 0.0):
        return dict(_SINGULAR)
    d = 1.0 / row_scale
    factors, exact = _factor(d[:, None] * op.matrix, overwrite=True)
    if exact:
        return dict(_SINGULAR)
    ws_in = np.sqrt(op.grid.weights[keep])
    norm_inv, norm_d_inv = _solution_norms(
        op.grid, factors, op.matrix.shape[0], keep, d[keep] / ws_in, slice(None)
    )
    bad = (
        not math.isfinite(norm_inv)
        or not math.isfinite(norm_d_inv)
        or norm_inv > _SOLVE_NORM_CAP
    )
    return {
        "sigma_min": 1.0 / norm_inv if norm_inv > 0.0 else math.inf,
        "singular": bad,
        "norm_inv": norm_inv,
        "norm_d_inv": norm_d_inv,
    }


def resolvent_numbers(op: AssembledOperator) -> dict:
    """Raw resolvent norms of one assembled operator (no ladder)."""
    if op.bc == "dirichlet":
        return _dirichlet_numbers(op)
    if op.bc == "clamped":
        return _clamped_numbers(op)
    raise ValueError(f"unknown boundary treatment {op.bc!r}")


_ASSEMBLERS = {
    "schrodinger": assemble_schrodinger,
    "rayleigh_shifted": assemble_rayleigh_shifted,
    "orr_sommerfeld": assemble_orr_sommerfeld,
}


def ladder_start(beta: float, floor: int = 64) -> int:
    """Initial grid degree: one doubling brings it to ~8 beta^(1/3)."""
    return max(floor, math.ceil(4.0 * float(beta) ** (1.0 / 3.0)))


def _refine(evaluate, n0: int, n_cap: int, agree):
    """The grid ladder: evaluate(n) at n = min(n0, n_cap), 2n, 4n, ...

    Returns (value, n, True) for the finer value of the first consecutive
    pair with agree(prev, cur), or the last rung as (value, n, False) once
    another doubling would pass n_cap.  Callers look up the grid, assembler
    and solver inside ``evaluate``, so each rung sees the current bindings.
    """
    n = min(n0, n_cap)
    prev = None
    while True:
        cur = evaluate(n)
        if prev is not None and agree(prev, cur):
            return cur, n, True
        if 2 * n > n_cap:
            return cur, n, False
        prev = cur
        n *= 2


def resolvent_sample(
    profile: Profile,
    params: SpectralParams,
    kind: str,
    n0: int | None = None,
    rel_tol: float = 1e-3,
    n_cap: int = 2048,
) -> ResolventSample:
    """Resolvent norms refined by grid doubling until they settle.

    Successive degrees n and 2n must agree on norm_inv + norm_d_inv within
    rel_tol; the accepted value is the finer one.  Hitting n_cap without
    agreement returns the last value flagged unconverged.
    """
    if kind not in _ASSEMBLERS:
        raise ValueError(f"unknown operator kind {kind!r}")
    n_start = min(n0 if n0 is not None else ladder_start(params.beta), n_cap)

    def evaluate(n):
        return resolvent_numbers(_ASSEMBLERS[kind](profile, params, build_grid(n)))

    def agree(prev, cur):
        ref = prev["norm_inv"] + prev["norm_d_inv"]
        val = cur["norm_inv"] + cur["norm_d_inv"]
        finite = math.isfinite(ref) and ref > 0.0 and math.isfinite(val)
        return finite and abs(val - ref) <= rel_tol * ref

    nums, n_used, converged = _refine(evaluate, n_start, n_cap, agree)
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


def eig_floor_ladder(
    profile: Profile,
    nu: float,
    n0: int = 64,
    rel_tol: float = 1e-9,
    n_cap: int = 2048,
    singular_window: float = 1e-4,
) -> tuple[float, int, bool]:
    """Smallest certificate eigenvalue at velocity nu, grid-doubled to rest.

    Returns (eigenvalue, degree used, converged flag); agreement between
    consecutive degrees is absolute below 1, relative above.
    """

    def evaluate(n):
        op = assemble_certificate_operator(
            profile, nu, build_grid(n), singular_window=singular_window
        )
        return min_eig_selfadjoint(op)

    def agree(prev, cur):
        return abs(cur - prev) <= rel_tol * max(1.0, abs(cur))

    return _refine(evaluate, n0, n_cap, agree)


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


def pseudospectrum_grid(
    profile: Profile,
    kind: str,
    alpha: float,
    beta: float,
    mu_values,
    nu_values,
    threads: int | None = None,
    **ladder_kwargs,
) -> PseudospectrumGrid:
    """Map (mu, nu) -> resolvent norm at shifts lam = mu + i nu, in parallel.

    Worker threads each run the full grid ladder, and the result does not
    depend on their number.  The pool does not pay off here: the Lanczos
    steps between solves run in Python, and on 2 cores the benchmark's shift
    maps ran 0.74x as fast with 2 threads as with 1.  Dense kernels alone,
    with one BLAS thread, gained 1.36x for LU factor + solve and lost for
    svdvals (0.95x).
    """
    mu_values = np.asarray(mu_values, dtype=float)
    nu_values = np.asarray(nu_values, dtype=float)
    lams = [
        complex(mu, nu) for nu in nu_values for mu in mu_values
    ]

    def work(lam: complex) -> ResolventSample:
        return resolvent_sample(
            profile, SpectralParams(alpha, beta, lam), kind, **ladder_kwargs
        )

    with ThreadPoolExecutor(max_workers=thread_count(threads)) as pool:
        samples = list(pool.map(work, lams))
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
