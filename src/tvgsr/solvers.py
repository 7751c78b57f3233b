"""Reconstruction solvers for partially observed time-varying graph signals.

All solvers minimize variants of

    f(X) = 1/2 ||J o X - Y||_F^2 + upsilon/2 * smoothness(X)

where the smoothness term is tr((XD)^T (L + epsilon*I)^beta (XD)) for the
temporal objectives ("sobolev", and its epsilon=0/beta=1 special case
"tgsr") or tr(X^T L X) for the per-snapshot baseline ("gr_static").

The noisy problem is solved with a Fletcher-Reeves conjugate gradient scheme
whose exact line search uses the Hessian action J o V + upsilon * K V D D^T
on the search direction. The noiseless problem is solved by projected
gradient descent on the affine set J o X = Y.

:class:`ProblemOperator` applies that action and the smoothness gradient,
into the caller's array when given ``out=`` (bit-identical to the
allocating call). The CG loop reuses buffers allocated once and reports
why it stopped and how it got there in a :class:`SolveStats`. Messages go
to the ``tvgsr`` logger, which is silent unless logging is configured.

Solvers are deterministic given identical inputs; independent solves may run
concurrently over shared immutable graphs. A ProblemOperator holds scratch
buffers, so each solve builds its own.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, identity
from scipy.sparse.linalg import splu

from .exceptions import InputError, NumericError, ParameterError
from .graphs import Graph, sobolev_power
from .sampling import as_mask_array
from .temporal import TEMPORAL_STEPS, as_signal, difference_operator

OBJECTIVES = ("tgsr", "sobolev", "gr_static")

_TINY_DENOMINATOR = 1e-300
_RESIDUAL_REFRESH = 50  # CG iterations between true-residual replacements of the gradient
_RECORD_CHUNK = 4096  # telemetry rows allocated at a time
_LU_OPTIONS = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})  # gr_static's splu

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``objective="tgsr"`` is the plain Laplacian temporal objective and is
    normalized to epsilon=0, beta=1 so it shares the exact code path of the
    shifted-power objective; ``gr_static`` likewise ignores epsilon/beta.
    Defaults: delta=1e-6, max_iter=20000.
    """

    upsilon: float = 1.0
    epsilon: float = 0.0
    beta: float = 1.0
    delta: float = 1e-6
    max_iter: int = 20000
    objective: str = "sobolev"
    temporal_step: int = 1

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ParameterError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.objective in ("tgsr", "gr_static"):
            object.__setattr__(self, "epsilon", 0.0)
            object.__setattr__(self, "beta", 1.0)
        if self.upsilon < 0:
            raise ParameterError(f"upsilon must be >= 0, got {self.upsilon}")
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if self.delta <= 0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.temporal_step not in TEMPORAL_STEPS:
            raise ParameterError(
                f"temporal_step must be one of {TEMPORAL_STEPS}, got {self.temporal_step}"
            )


@dataclass(frozen=True)
class SolveStats:
    """Telemetry of one FR-CG solve; entry t of each array describes iteration t + 1.

    ``grad_norm`` is ||g|| after the iteration's step, ``dir_norm`` the
    ||d|| of the direction it stepped along, ``mu`` its step and ``gamma``
    the Fletcher-Reeves ratio that formed the next direction (0 where the
    direction was reset). ``restarts`` lists (iteration, reason) for each
    reset, with reason ``periodic`` or ``lost_descent``. ``stop_reason``
    is ``direction_norm``, ``zero_curvature`` or ``max_iter``. ``setup_s``
    covers the input checks and the operator and buffer set-up, and
    ``iterate_s`` the initial gradient and the iterations.
    """

    grad_norm: np.ndarray
    dir_norm: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    restarts: tuple
    hessian_actions: int
    stop_reason: str
    setup_s: float
    iterate_s: float

    def rows(self) -> list:
        """(iteration, grad_norm, dir_norm, mu, gamma, restart reason or "") per iteration."""
        reasons = dict(self.restarts)
        return [(t + 1, *values, reasons.get(t + 1, ""))
                for t, values in enumerate(zip(self.grad_norm, self.dir_norm, self.mu,
                                               self.gamma))]


@dataclass
class SolveResult:
    """Outcome of a solve: reconstruction, iteration count, and traces."""

    x_hat: np.ndarray
    iterations: int
    loss_trace: np.ndarray
    termination: str  # "converged" or "max_iter"
    wall_time: float
    error_trace: np.ndarray | None = None  # ||X^t - reference||_F when requested
    iterates: list | None = None
    unsampled_columns: tuple = ()
    stats: SolveStats | None = None  # FR-CG telemetry; solve_cg only
    # scores on the hidden entries, set by evaluation.reconstruct
    rmse: float | None = None
    mae: float | None = None
    mape: float | None = None
    mape_excluded: int | None = None
    evaluated_entries: int | None = None


def _check_problem(y, mask, graph, min_snapshots=1):
    mask = as_mask_array(mask)
    y = as_signal(y, min_snapshots=min_snapshots)
    if mask.shape != y.shape:
        raise InputError(f"mask shape {mask.shape} does not match signal shape {y.shape}")
    if y.shape[0] != graph.n_nodes:
        raise InputError(f"signal has {y.shape[0]} rows but graph has {graph.n_nodes} nodes")
    return y, mask


class ProblemOperator:
    """Matrix-free operators of one temporal reconstruction problem.

    Applies the Sobolev penalty K = (L + epsilon*I)^beta, the difference
    operator D and the Hessian action J o V + upsilon * K V D D^T without
    forming an N x N or M x M product. Integer beta repeats the CSR action
    of L + epsilon*I, with epsilon written on every diagonal entry so that
    isolated nodes get it too; fractional beta multiplies by the dense
    :func:`sobolev_power`. D and D D^T are the column stencils of
    :class:`~tvgsr.temporal.TemporalOperator`.

    The operator owns scratch buffers for the stencil and the mask product,
    so one instance serves one solve at a time. With ``out=`` an action
    writes into the caller's N x M array; the only N x M array it then
    allocates is the one the sparse product ``K @ V`` returns.
    """

    def __init__(self, graph: Graph, mask, config: SolverConfig):
        n_nodes, n_snapshots = mask.shape
        self.temporal = difference_operator(n_snapshots, config.temporal_step)
        self.mask = mask
        self.upsilon = config.upsilon
        if float(config.beta).is_integer():
            self._penalty = graph.laplacian_csr + config.epsilon * identity(n_nodes, format="csr")
            self._repeats = int(config.beta)
        else:
            self._penalty = sobolev_power(graph.laplacian, config.epsilon, config.beta)
            self._repeats = 1

    def penalty(self, v) -> np.ndarray:
        """(L + epsilon*I)^beta V, as a new array."""
        for _ in range(self._repeats):
            v = self._penalty @ v
        return v

    def smoothness(self, x) -> float:
        """tr((X D)^T (L + epsilon*I)^beta (X D))."""
        diff = self.temporal.apply(x)
        return float(np.sum(diff * self.penalty(diff)))

    @cached_property
    def _scratch(self):
        """Difference, scatter and mask-product buffers, allocated on first use.

        Callers that only need :meth:`smoothness`, such as :func:`objective`,
        never allocate them.
        """
        return tuple(np.empty(self.mask.shape) for _ in range(3))

    def smoothness_gradient(self, x, out=None) -> np.ndarray:
        """(L + epsilon*I)^beta X D D^T, written into ``out`` when given."""
        product = self.penalty(self.temporal.scatter(x, *self._scratch[:2]))
        if out is None:
            return product
        np.copyto(out, product)
        return out

    def hessian_action(self, v, out=None) -> np.ndarray:
        """J o V + upsilon * (L + epsilon*I)^beta V D D^T, written into ``out`` when given.

        ``out`` may be ``v`` itself. The result is bit-identical with and
        without ``out``.
        """
        masked = np.multiply(self.mask, v, out=self._scratch[2])
        product = self.penalty(self.temporal.scatter(v, *self._scratch[:2]))
        if out is None:
            out = product
            out *= self.upsilon
        else:
            np.multiply(product, self.upsilon, out=out)
        out += masked
        return out


def _residual(x_tilde, y, mask, graph):
    """Checked estimate and mask, and the residual J o X - Y, for objective and gradient."""
    x_tilde = as_signal(x_tilde)
    y, mask = _check_problem(y, mask, graph)
    if x_tilde.shape != y.shape:
        raise InputError(f"estimate shape {x_tilde.shape} does not match signal shape {y.shape}")
    return x_tilde, mask, mask * x_tilde - y


def objective(x_tilde, y, mask, graph, config: SolverConfig) -> float:
    """Objective value for the configured reconstruction problem."""
    x_tilde, mask, residual = _residual(x_tilde, y, mask, graph)
    data_term = 0.5 * float(np.sum(residual * residual))
    if config.upsilon == 0.0:
        return data_term
    if config.objective == "gr_static":
        smooth = float(np.sum(x_tilde * (graph.laplacian_csr @ x_tilde)))
    else:
        smooth = ProblemOperator(graph, mask, config).smoothness(x_tilde)
    return data_term + 0.5 * config.upsilon * smooth


def gradient(x_tilde, y, mask, graph, config: SolverConfig) -> np.ndarray:
    """Matrix gradient of :func:`objective` with respect to the estimate."""
    x_tilde, mask, residual = _residual(x_tilde, y, mask, graph)
    if config.upsilon == 0.0:
        return residual
    if config.objective == "gr_static":
        return residual + config.upsilon * (graph.laplacian_csr @ x_tilde)
    problem = ProblemOperator(graph, mask, config)
    return residual + config.upsilon * problem.smoothness_gradient(x_tilde)


def solve_cg(y, mask, graph, config: SolverConfig, reference=None,
             record_iterates=False) -> SolveResult:
    """Conjugate-gradient solve of the noisy reconstruction problem.

    Starts from X = J o Y. Each iteration takes an exact line-search step
    mu = -<d, g> / <d, H d> along the Fletcher-Reeves direction
    d = -g + gamma d_prev, gamma = ||g||^2 / ||g_prev||^2, where H d is the
    Hessian action J o d + upsilon * (L + epsilon*I)^beta d D D^T. The
    direction is reset to steepest descent every N*M iterations
    (``periodic``) or when it is no longer a descent direction
    (``lost_descent``, which also covers a zero previous gradient).
    It stops when ||d||_F <= delta (``direction_norm``), when <d, H d> is
    below 1e-300 in magnitude (``zero_curvature``) or at max_iter
    (``max_iter``); ``termination`` reads ``converged`` for the first two.

    Each iteration makes one Hessian action, h = H d. The gradient follows
    the recurrence g <- g + mu h, and every 50 iterations it is replaced by
    the true residual H X - Y so that rounding cannot accumulate in it. The
    loss comes without another action from the identity
    f(X) = 1/2 <X, g - Y> + 1/2 ||Y||_F^2, which holds because supp(Y) lies
    inside J (the observations are J o Y). A solve of k iterations thus
    makes k + 1 + floor(k / 50) Hessian actions, one more if it stops on
    zero curvature.

    The iterate, gradient, direction and action live in buffers allocated
    once, the actions write into them through ``out=``, and every inner
    product is one ``np.dot`` on raveled views, so an iteration allocates
    no N x M array of its own. ``stats`` holds the per-iteration
    telemetry (see :class:`SolveStats`). A node that is never sampled
    makes the Hessian singular along e_i kron 1; the solve then logs a
    warning on the ``tvgsr`` logger and returns one of the minimizers.

    Parameters
    ----------
    reference : array, optional
        When given, ``error_trace`` records ||X^t - reference||_F alongside
        the objective trace.
    record_iterates : bool
        Keep a copy of every iterate (small problems only).
    """
    if config.objective == "gr_static":
        raise ParameterError("use solve_gr_static for the per-snapshot baseline")
    entry = time.perf_counter()
    y, mask = _check_problem(y, mask, graph, min_snapshots=config.temporal_step + 1)
    _warn_unsampled_nodes(mask)
    observed = mask * y  # the observation model guarantees supp(Y) within the mask
    problem = ProblemOperator(graph, mask, config)
    x = observed.copy()
    g, d, h, work = (np.empty_like(x) for _ in range(4))
    xf, gf, df, hf, wf, of = (a.ravel() for a in (x, g, d, h, work, observed))
    half_observed_sq = 0.5 * float(np.dot(of, of))
    # row t: loss after t iterations, then grad_norm, dir_norm, mu, gamma of iteration t
    record = np.empty((min(config.max_iter, _RECORD_CHUNK) + 1, 5))
    restarts = []

    def loss():
        np.subtract(gf, of, out=wf)
        return 0.5 * float(np.dot(xf, wf)) + half_observed_sq

    start = time.perf_counter()
    problem.hessian_action(x, out=g)
    g -= observed
    actions = 1
    record[0, 0] = loss()
    errors = None if reference is None else [float(np.linalg.norm(x - reference))]
    iterates = [x.copy()] if record_iterates else None

    g_sq = float(np.dot(gf, gf))
    if not np.isfinite(g_sq):
        raise NumericError("non-finite gradient at iteration 0")
    np.negative(g, out=d)
    slope = -g_sq  # <d, g>
    restart_every = x.size
    iterations = 0
    stop_reason = "max_iter"

    for t in range(config.max_iter):
        d_norm = math.sqrt(float(np.dot(df, df)))
        if d_norm <= config.delta:
            stop_reason = "direction_norm"
            break
        problem.hessian_action(d, out=h)
        actions += 1
        denominator = float(np.dot(df, hf))
        if not np.isfinite(denominator):
            raise NumericError(f"non-finite curvature at iteration {t}")
        if abs(denominator) < _TINY_DENOMINATOR:
            stop_reason = "zero_curvature"
            break
        mu = -slope / denominator
        x += np.multiply(d, mu, out=work)
        iterations = t + 1
        if iterations % _RESIDUAL_REFRESH == 0:
            problem.hessian_action(x, out=g)
            actions += 1
            g -= observed
        else:
            g += np.multiply(h, mu, out=work)
        if iterations == len(record):
            record = np.concatenate([record, np.empty_like(record)])
        record[iterations, 0] = loss()
        if errors is not None:
            errors.append(float(np.linalg.norm(x - reference)))
        if iterates is not None:
            iterates.append(x.copy())

        g_new_sq = float(np.dot(gf, gf))
        if not np.isfinite(g_new_sq):
            raise NumericError(f"non-finite gradient at iteration {iterations}")
        restart = None
        if iterations % restart_every == 0:
            restart = "periodic"
        elif g_sq == 0.0:
            restart = "lost_descent"
        else:
            gamma = g_new_sq / g_sq
            d *= gamma
            d -= g
            slope = float(np.dot(df, gf))
            if slope >= 0.0:
                restart = "lost_descent"
        if restart is not None:
            np.negative(g, out=d)
            gamma = 0.0
            slope = -g_new_sq
            restarts.append((iterations, restart))
        record[iterations, 1:] = (math.sqrt(g_new_sq), d_norm, mu, gamma)
        g_sq = g_new_sq

    end = time.perf_counter()
    rows = record[1:iterations + 1]
    stats = SolveStats(
        grad_norm=rows[:, 1].copy(), dir_norm=rows[:, 2].copy(), mu=rows[:, 3].copy(),
        gamma=rows[:, 4].copy(), restarts=tuple(restarts), hessian_actions=actions,
        stop_reason=stop_reason, setup_s=start - entry, iterate_s=end - start)
    _log.debug("solve_cg: %s after %d iterations, %d restarts, %d Hessian actions",
               stop_reason, iterations, len(restarts), actions)
    return SolveResult(
        x_hat=x,
        iterations=iterations,
        loss_trace=record[:iterations + 1, 0].copy(),
        termination="max_iter" if stop_reason == "max_iter" else "converged",
        wall_time=end - start,
        error_trace=None if errors is None else np.asarray(errors),
        iterates=iterates,
        stats=stats,
    )


def _warn_unsampled_nodes(mask):
    """Log a warning when some node is never sampled: H is then singular along e_i kron 1."""
    sampled = mask.any(axis=1)
    if not sampled.all():
        missing = np.flatnonzero(~sampled)
        _log.warning("%d of %d nodes are never sampled (first: %s); the Hessian is singular "
                     "along e_i kron 1 at each, so the reconstruction is not unique",
                     missing.size, mask.shape[0], ", ".join(str(i) for i in missing[:5]))


def solve_noiseless(y, mask, graph, config: SolverConfig, step=None,
                    record_iterates=False) -> SolveResult:
    """Projected-gradient solve of the equality-constrained (noiseless) problem.

    Minimizes the smoothness term subject to J o X = Y. Every iterate keeps
    the sampled entries of Y bit-for-bit: the projection writes Y back into
    the sampled positions, which is the exact-arithmetic meaning of
    Y + V - J o V when supp(Y) lies inside the mask. The default step is
    1 / ((lambda_max(L) + epsilon)^beta * lambda_max(D D^T)), the inverse of
    the smoothness Hessian's largest eigenvalue, which guarantees descent;
    lambda_max(L) comes from the sparse :meth:`Graph.max_eigenvalue`.
    Stops when ||X^{t+1} - X^t||_F <= delta or at max_iter.

    Each iteration applies the penalty once, for the gradient
    G = (L + epsilon*I)^beta X D D^T, written into a reused buffer; the
    loss of X is read from the same gradient as 1/2 <X, G>.
    """
    if config.objective == "gr_static":
        raise ParameterError("the noiseless solver handles temporal objectives only")
    y, mask = _check_problem(y, mask, graph, min_snapshots=config.temporal_step + 1)
    if not np.any(mask > 0):
        raise InputError("mask selects no entries")
    observed = mask * y
    problem = ProblemOperator(graph, mask, config)

    if step is None:
        lam_graph = max(graph.max_eigenvalue(), 0.0)
        curvature = (lam_graph + config.epsilon) ** config.beta * problem.temporal.max_eigenvalue()
        step = 1.0 / curvature if curvature > 0 else 1.0
    elif step <= 0:
        raise ParameterError(f"step must be > 0, got {step}")

    start = time.perf_counter()
    sampled = mask > 0
    x = observed.copy()
    x_next, smooth_gradient, work = (np.empty_like(x) for _ in range(3))
    finite = np.empty(x.shape, dtype=bool)
    gradient_flat, work_flat = smooth_gradient.ravel(), work.ravel()

    def half_smoothness(x):  # 1/2 <X, K X D D^T> from the gradient just computed
        return 0.5 * float(np.dot(x.ravel(), gradient_flat))

    trace = []
    iterates = [x.copy()] if record_iterates else None
    iterations = 0
    termination = "max_iter"
    for t in range(config.max_iter):
        problem.smoothness_gradient(x, out=smooth_gradient)
        if not np.isfinite(smooth_gradient, out=finite).all():
            raise NumericError(f"non-finite gradient at iteration {t}")
        trace.append(half_smoothness(x))
        np.subtract(x, np.multiply(smooth_gradient, step, out=x_next), out=x_next)
        np.copyto(x_next, observed, where=sampled)
        iterations = t + 1
        if iterates is not None:
            iterates.append(x_next.copy())
        np.subtract(x_next, x, out=work)
        update_norm = math.sqrt(float(np.dot(work_flat, work_flat)))
        x, x_next = x_next, x
        if update_norm <= config.delta:
            termination = "converged"
            break
    problem.smoothness_gradient(x, out=smooth_gradient)
    trace.append(half_smoothness(x))

    return SolveResult(
        x_hat=x,
        iterations=iterations,
        loss_trace=np.asarray(trace),
        termination=termination,
        wall_time=time.perf_counter() - start,
        iterates=iterates,
    )


def solve_gr_static(y, mask, graph, config: SolverConfig) -> SolveResult:
    """Per-snapshot graph-regularized baseline (no temporal coupling).

    Each column solves (diag(j_m) + upsilon * L) x = j_m o y_m with one
    sparse LU factorization of that column's system, built from the CSR
    Laplacian. Every diagonal entry of upsilon * L is stored, isolated nodes
    included, so all columns share one sparsity pattern: its fill-reducing
    ordering is found once, and each column factors pre-permuted in that
    order. Columns without any sample cannot be reconstructed by a purely
    spatial method; they are returned as zero vectors and listed in
    ``unsampled_columns``. A column whose system factors as exactly singular
    (for instance a graph component with no sample in that column) takes the
    minimum-norm least-squares solution of its system in dense form; that
    degenerate case is the only one that forms an N x N matrix.
    """
    y, mask = _check_problem(y, mask, graph)
    observed = mask * y
    lap = graph.laplacian_csr
    start = time.perf_counter()
    n = graph.n_nodes
    lap = lap.tocoo()
    nodes = np.arange(n)
    rows, cols = np.concatenate([lap.row, nodes]), np.concatenate([lap.col, nodes])
    values = np.concatenate([config.upsilon * lap.data, np.zeros(n)])
    # The ordering depends on the pattern alone; with zeros off the diagonal and a
    # positive diagonal, the pattern's matrix always factors.
    pattern = coo_matrix(((rows == cols).astype(float), (rows, cols)), shape=(n, n)).tocsc()
    order = splu(pattern, permc_spec="MMD_AT_PLUS_A", **_LU_OPTIONS).perm_c
    inverse = np.argsort(order)
    # upsilon * L in that order: entry (r, c) moves to (order[r], order[c]).
    smoothing = coo_matrix((values, (order[rows], order[cols])), shape=(n, n)).tocsc()
    diagonal = np.flatnonzero(smoothing.indices == np.repeat(nodes, np.diff(smoothing.indptr)))
    x_hat = np.zeros_like(observed)
    skipped = []
    for column in range(observed.shape[1]):
        j = mask[:, column]
        if not np.any(j > 0):
            skipped.append(column)
            continue
        data = smoothing.data.copy()
        data[diagonal] += j[inverse]
        rhs = j * observed[:, column]
        try:
            factor = splu(csc_matrix((data, smoothing.indices, smoothing.indptr), shape=(n, n)),
                          permc_spec="NATURAL", **_LU_OPTIONS)
        except RuntimeError:  # exactly singular
            system = smoothing.toarray()[np.ix_(order, order)]
            system[nodes, nodes] += j
            x_hat[:, column] = np.linalg.lstsq(system, rhs, rcond=None)[0]
        else:
            x_hat[inverse, column] = factor.solve(rhs[inverse])
    return SolveResult(
        x_hat=x_hat,
        iterations=0,
        loss_trace=np.asarray([objective(x_hat, observed, mask, graph, config)]),
        termination="converged",
        wall_time=time.perf_counter() - start,
        unsampled_columns=tuple(skipped),
    )

