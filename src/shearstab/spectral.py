"""Spectral computations: eigenvalues, resolvent norms, grid ladders.

Norms are the continuum L2 norms realized through Clenshaw-Curtis quadrature:
a matrix M acting between node-value spaces is measured as
``diag(sqrt(w_out)) M diag(1/sqrt(w_in))`` in the spectral norm, so reported
operator norms converge to their integral counterparts as the grid grows.

A resolvent rung of the kinds ``schrodinger`` and ``orr_sommerfeld`` from
degree ``_BANDED_MIN_DEGREE`` on solves a banded ultraspherical tau system in
Chebyshev coefficients (``ultraspherical``), factored in O(n) by LAPACK
``gbtrf``; data and solutions reach it through type-1 DCTs, so the norms are
measured on the same nodes and weights as on the collocation route.  Every
other rung, and every ``rayleigh_shifted`` rung, factors a dense collocation
matrix (``resolvent_numbers``).

From the measured crossover degree ``_LANCZOS_MIN_DEGREE`` on, each norm is
the top singular value found by Golub-Kahan-Lanczos bidiagonalization
(``_top_singular``) on the solves and their adjoints (LAPACK ``getrs`` or
``gbtrs``), with full reorthogonalization.  The recurrence stops once the gap
bound r^2 / (theta_1 - theta_2) on its top Ritz value is at most
1e-13 theta_1, r = beta_k |e_k^T p| the residual.  D1 and D1^T reach the
solutions through a type-1 DCT, O(n log n) per application.  The first
Lanczos rung of a ladder starts from a fixed ramp, so repeated runs agree bit
for bit; each later rung starts from the previous rung's top right singular
vectors, resampled through their Chebyshev coefficients, and never from
another shift.  A resolvent call on the sweep rungs of the benchmark takes
about 13 solves, against 36 with ARPACK's ``svds``.  Below the crossover, the
explicit solution operator is formed from the same factorization and its
singular values are taken densely.

Every quantity of interest is wrapped in the one grid ladder ``_refine``,
which doubles the degree until two consecutive rungs agree under the
caller's rule, so callers receive a converged number plus the resolution
that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals, get_lapack_funcs, svdvals

from .chebdiff import (
    LADDER_FLOOR,
    N_MAX,
    _coef_derivative,
    _coef_derivative_t,
    _coefficients,
    _derivative,
    _derivative_t,
    _resample,
    _values,
    build_grid,
)
from .operators import (
    AssembledOperator,
    SpectralParams,
    assemble_certificate_operator,
    assemble_orr_sommerfeld,
    assemble_rayleigh_shifted,
    assemble_schrodinger,
)
from .profile import Profile
from .ultraspherical import ORDERS, TauSystem, velocity_series

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
# Rungs of at least this degree take their norms from Golub-Kahan-Lanczos on
# the LU solves; below it two dense SVDs of the explicit solution operator
# are faster.  Measured crossover (see CHANGES.md): the dense route wins at
# n = 64 and loses at n = 76.
_LANCZOS_MIN_DEGREE = 80
# Golub-Kahan-Lanczos for the resolvent norms: relative bound on the error
# of the top Ritz value at which the recurrence stops, and the step cap past
# which it gives up (the benchmark's sweeps and shift maps at beta 1e4 and
# 1e5 needed at most 25 steps per norm).
_GKL_RTOL = 1e-13
_GKL_MAX_STEPS = 60
# solve norms beyond this are treated as a resonance hit (clamped systems)
_SOLVE_NORM_CAP = 1e12
# Consecutive rungs agree when their resolvent norms (or a direct-solve
# metric) differ by at most this fraction, or their certificate eigenvalues
# by at most _EIG_RTOL, absolute below 1 and relative above.
RESOLVENT_RTOL = 1e-3
_EIG_RTOL = 1e-9


def _check_threads(threads: int | None) -> None:
    """Reject a thread count below 1.  The package runs serially, so a valid
    count has no effect; the parameter stays for callers that pass it."""
    if threads is not None and threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")


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


class _NoConvergence(RuntimeError):
    """``_top_singular`` reached its step cap."""


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w minus its projection on the orthonormal rows of basis, applied twice
    so the result is orthogonal to working precision."""
    for _ in range(2):
        w = w - basis.T @ (basis.conj() @ w)
    return w


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
    invariant to that accuracy, and the Ritz value is final.
    """
    steps = min(_GKL_MAX_STEPS, v0.shape[0])
    vs = np.zeros((steps + 1, v0.shape[0]), dtype=v0.dtype)
    vs[0] = v0 / np.linalg.norm(v0)
    u = apply(vs[0])
    us = np.zeros((steps, u.shape[0]), dtype=u.dtype)
    alphas, betas = np.zeros(steps), np.zeros(steps)
    theta = 0.0
    for j in range(steps):
        u = _orthogonalize(u, us[:j])
        alphas[j] = np.linalg.norm(u)
        if alphas[j] > _GKL_RTOL * theta:
            us[j] = u / alphas[j]
            p = _orthogonalize(apply_h(us[j]), vs[: j + 1])
            betas[j] = np.linalg.norm(p)
        else:
            alphas[j] = 0.0
        bidiag = np.diag(alphas[: j + 1]) + np.diag(betas[:j], 1)
        left, sigma, right_h = np.linalg.svd(bidiag)
        theta = sigma[0]
        r = betas[j] * abs(left[j, 0])
        if betas[j] <= _GKL_RTOL * theta or (
            j and r * r <= _GKL_RTOL * theta * (theta - sigma[1])
        ):
            return float(theta), right_h[0].conj() @ vs[: j + 1]
        vs[j + 1] = p / betas[j]
        u = apply(vs[j + 1])
    raise _NoConvergence(f"Golub-Kahan-Lanczos did not converge in {steps} steps")


def _lanczos_norms(n, data_nodes, ws_in, maps, dtype, start) -> tuple[float, float]:
    """Top singular values of the two weighted solution maps ``maps``, each a
    pair (apply, apply_h) of the map from weighted data on ``data_nodes`` and
    its adjoint: the solve and its derivative.  A recurrence that reaches
    ``_GKL_MAX_STEPS`` without meeting its bound, as on a tight cluster of
    top singular values, leaves both norms infinite: the rung is
    unmeasurable, and ``_numbers`` reports it singular.

    ``start`` carries the top right singular vectors from one rung of a
    ladder to the next, as node values; without them each recurrence starts
    from a fixed ramp.
    """
    if start is not None and start.values is not None:
        v0s = [_resample(f, n)[data_nodes] * ws_in for f in start.values]
    else:
        # A fixed ramp keeps repeated runs bit-identical; it has both even
        # and odd parts, so a parity symmetry of the profile cannot make it
        # orthogonal to the top singular vector.
        v0s = [np.linspace(1.0, 2.0, len(ws_in))] * 2
    try:
        found = [
            _top_singular(apply, apply_h, v0.astype(dtype))
            for (apply, apply_h), v0 in zip(maps, v0s)
        ]
    except _NoConvergence:
        return math.inf, math.inf
    if start is not None:
        start.values = []
        for _, v in found:
            f = np.zeros(n + 1, dtype=v.dtype)
            f[data_nodes] = v / ws_in
            start.values.append(f)
    return found[0][0], found[1][0]


def _solution_norms(
    grid, factors, size: int, data_rows, row_scale, sol_rows, start
) -> tuple[float, float]:
    """Weighted norms of a collocation solution map and of its derivative.

    Unknowns of the system of order ``size`` sit on the grid nodes
    ``sol_rows``, equation i on the node of unknown i.  Data f on the nodes
    of ``data_rows``, weighted as x = W f, become the right-hand side
    ``row_scale * f`` on those rows, zero elsewhere; the LU ``factors`` give
    u, zero off ``sol_rows``.  Returns (||W u||, ||W D1 u||) over unit ||x||,
    W the square-root quadrature weights.  Below ``_LANCZOS_MIN_DEGREE`` both
    come from SVDs of the explicit solution operator; from there on, from
    ``_lanczos_norms`` on the solves and their adjoints, with D1 and D1^T
    applied by DCT.
    """
    ws = np.sqrt(grid.weights)
    data_nodes = np.arange(grid.n + 1)[sol_rows][data_rows]
    ws_in = ws[data_nodes]
    data_scale = row_scale / ws_in
    k = data_scale.shape[0]
    dtype = factors[0].dtype

    # _factor checked the matrix already, so the solves call LAPACK directly
    # and skip lu_solve's checks and dispatch on every Lanczos step.
    (getrs,) = get_lapack_funcs(("getrs",), (factors[0],))

    def backsolve(b, trans):
        x, info = getrs(*factors, b, trans=trans, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x

    def solve(x):
        rhs = np.zeros(size, dtype=np.result_type(dtype, x))
        rhs[data_rows] = data_scale * x
        u = np.zeros(grid.n + 1, dtype=rhs.dtype)
        u[sol_rows] = backsolve(rhs, 0)
        return u

    def solve_h(y):
        return data_scale * backsolve(y[sol_rows], 2)[data_rows]

    if grid.n < _LANCZOS_MIN_DEGREE:
        rhs = np.zeros((size, k), dtype=dtype)
        rhs[data_rows] = np.diag(data_scale)
        u = np.zeros((grid.n + 1, k), dtype=dtype)
        u[sol_rows] = backsolve(rhs, 0)
        norm_inv = svdvals(ws[:, None] * u)[0]
        norm_d_inv = svdvals(ws[:, None] * (grid.d1 @ u))[0]
        return float(norm_inv), float(norm_d_inv)

    maps = (
        (lambda x: ws * solve(x), lambda y: solve_h(ws * y)),
        (lambda x: ws * _derivative(solve(x)), lambda y: solve_h(_derivative_t(ws * y))),
    )
    return _lanczos_norms(grid.n, data_nodes, ws_in, maps, dtype, start)


_SINGULAR = {
    "sigma_min": 0.0,
    "singular": True,
    "norm_inv": math.inf,
    "norm_d_inv": math.inf,
}


def _numbers(bc: str, norm_inv: float, norm_d_inv: float) -> dict:
    """The result of a rung from its two norms.  A non-finite norm is
    singular; so is, for clamped operators, a solve norm above
    ``_SOLVE_NORM_CAP``, which still reports its norms."""
    finite = math.isfinite(norm_inv) and math.isfinite(norm_d_inv)
    if bc == "dirichlet":
        if not finite:
            return dict(_SINGULAR)
        return {
            "sigma_min": 1.0 / norm_inv,
            "singular": False,
            "norm_inv": norm_inv,
            "norm_d_inv": norm_d_inv,
        }
    return {
        "sigma_min": 1.0 / norm_inv if norm_inv > 0.0 else math.inf,
        "singular": not finite or norm_inv > _SOLVE_NORM_CAP,
        "norm_inv": norm_inv,
        "norm_d_inv": norm_d_inv,
    }


def _dirichlet_numbers(op: AssembledOperator, start) -> dict:
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
    norms = _solution_norms(
        op.grid, factors, mat.shape[0], slice(None), 1.0, slice(1, -1), start
    )
    return _numbers("dirichlet", *norms)


def _clamped_numbers(op: AssembledOperator, start) -> dict:
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
    norms = _solution_norms(
        op.grid, factors, op.matrix.shape[0], keep, d[keep], slice(None), start
    )
    return _numbers("clamped", *norms)


def _banded_numbers(
    series: np.ndarray, params: SpectralParams, kind: str, grid, start
) -> dict:
    """Resolvent numbers of one rung of a banded kind, from its tau system
    for U's Chebyshev ``series``.

    Norms are measured as on the collocation route: weighted data x = W f
    on the same nodes (the interior for Dirichlet, nodes 2..n-2 for clamped
    walls), f zero on the others, goes to coefficients by DCT; the solution
    comes back to node values by DCT, and its derivative through the
    coefficient recurrence.  Both norms come from ``_lanczos_norms``: these
    rungs start at ``_BANDED_MIN_DEGREE``, above ``_LANCZOS_MIN_DEGREE``.
    A Dirichlet system is singular at an exactly
    zero pivot or a ``gbcon`` estimate below ``_SINGULAR_RTOL``; a clamped
    one at a zero pivot or by the rule of ``_numbers``.
    """
    system = TauSystem(kind, series, params, grid.n)
    bc = "dirichlet" if kind == "schrodinger" else "clamped"
    if system.singular or (bc == "dirichlet" and system.rcond() < _SINGULAR_RTOL):
        return dict(_SINGULAR)
    n, edge = grid.n, system.order // 2
    ws = np.sqrt(grid.weights)
    data_nodes = np.arange(edge, n + 1 - edge)
    ws_in = ws[data_nodes]

    def forcing(x):
        f = np.zeros((n + 1,) + x.shape[1:], dtype=x.dtype)
        f[data_nodes] = (x.T / ws_in).T
        return _coefficients(f)

    def data(a):
        # the adjoint of forcing: the coefficient map is symmetric
        return _coefficients(a)[data_nodes] / ws_in

    maps = (
        (
            lambda x: ws * _values(system.solve(forcing(x))),
            lambda y: data(system.solve_h(_values(ws * y))),
        ),
        (
            lambda x: ws * _values(_coef_derivative(system.solve(forcing(x)))),
            lambda y: data(system.solve_h(_coef_derivative_t(_values(ws * y)))),
        ),
    )
    return _numbers(bc, *_lanczos_norms(n, data_nodes, ws_in, maps, complex, start))


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
    """
    if op.bc == "dirichlet":
        return _dirichlet_numbers(op, start)
    if op.bc == "clamped":
        return _clamped_numbers(op, start)
    raise ValueError(f"unknown boundary treatment {op.bc!r}")


# Rungs of the banded kinds (ultraspherical.ORDERS) from this degree on take
# the banded tau route; below it the dense collocation rung is faster.
# Measured crossover (see CHANGES.md): medians of 9 runs over 3 shifts per
# kind put the banded rung at 1.0-1.5x the dense time for n = 80-140 and at
# 0.6-0.97x from n = 160 on.
_BANDED_MIN_DEGREE = 160
# ... and only while U's chopped Chebyshev series has degree d <= n / 16: the
# tau matrix has about 2d + 3m diagonals, so ``gbtrf`` costs O(d^2 n) and
# each ``gbtrs`` O(dn).  Measured (see CHANGES.md) on tanh_shear profiles,
# the banded rung takes 0.33-0.56x the dense time at n/d = 13-16, 0.55-0.92x
# at n/d = 7-8 and 0.9-1.3x at n/d = 3.7; a new constant would move routes
# that no benchmark workload measures.
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
    Each rung starts at its ``build_grid`` call.
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


def eig_floor_ladder(profile: Profile, nu: float) -> tuple[float, int, bool]:
    """Smallest certificate eigenvalue at velocity nu, grid-doubled to rest.

    Returns (eigenvalue, degree used, converged flag).  The ladder runs from
    ``LADDER_FLOOR`` to ``N_MAX``; consecutive degrees agree within
    ``_EIG_RTOL``, absolute below 1, relative above.
    """

    def evaluate(n):
        op = assemble_certificate_operator(profile, nu, build_grid(n))
        return min_eig_selfadjoint(op)

    def agree(prev, cur):
        return abs(cur - prev) <= _EIG_RTOL * max(1.0, abs(cur))

    return _refine(evaluate, LADDER_FLOOR, agree)


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
) -> PseudospectrumGrid:
    """Map (mu, nu) -> resolvent norm at shifts lam = mu + i nu.

    Each shift runs its own grid ladder, one after another: a thread pool
    here ran 0.79x as fast as one thread on 2 cores, because the Lanczos
    steps between solves run in Python.
    """
    mu_values = np.asarray(mu_values, dtype=float)
    nu_values = np.asarray(nu_values, dtype=float)
    samples = [
        resolvent_sample(profile, SpectralParams(alpha, beta, complex(mu, nu)), kind)
        for nu in nu_values
        for mu in mu_values
    ]
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
