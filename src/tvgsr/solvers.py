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

Solvers are deterministic given identical inputs; independent solves may run
concurrently over shared immutable graphs and operators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu

from .exceptions import InputError, NumericError, ParameterError
from .graphs import Graph, sobolev_power
from .sampling import as_mask_array
from .temporal import TEMPORAL_STEPS, as_signal

OBJECTIVES = ("tgsr", "sobolev", "gr_static")

_TINY_DENOMINATOR = 1e-300
_RESIDUAL_REFRESH = 50  # CG iterations between true-residual replacements of the gradient


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
    :func:`sobolev_power`. D and D D^T are column stencils of step s.
    """

    def __init__(self, graph: Graph, mask, config: SolverConfig):
        n_nodes, n_snapshots = mask.shape
        if n_snapshots <= config.temporal_step:
            raise ParameterError(
                f"need more snapshots than the step ({n_snapshots} <= {config.temporal_step})"
            )
        self.mask = mask
        self.upsilon = config.upsilon
        self.step = config.temporal_step
        if float(config.beta).is_integer():
            self._penalty = graph.laplacian_csr + config.epsilon * identity(n_nodes, format="csr")
            self._repeats = int(config.beta)
        else:
            self._penalty = sobolev_power(graph.laplacian, config.epsilon, config.beta)
            self._repeats = 1

    def penalty(self, v) -> np.ndarray:
        """(L + epsilon*I)^beta V."""
        for _ in range(self._repeats):
            v = self._penalty @ v
        return v

    def difference(self, x) -> np.ndarray:
        """X D: column j is x_{j+s} - x_j."""
        return x[:, self.step:] - x[:, :-self.step]

    def smoothness(self, x) -> float:
        """tr((X D)^T (L + epsilon*I)^beta (X D))."""
        diff = self.difference(x)
        return float(np.sum(diff * self.penalty(diff)))

    def smoothness_gradient(self, x) -> np.ndarray:
        """(L + epsilon*I)^beta X D D^T, with Z = X D scattered back by D^T."""
        s = self.step
        diff = self.difference(x)
        scattered = np.zeros_like(x)
        scattered[:, :-s] -= diff
        scattered[:, s:] += diff
        return self.penalty(scattered)

    def hessian_action(self, v) -> np.ndarray:
        """J o V + upsilon * (L + epsilon*I)^beta V D D^T."""
        action = self.smoothness_gradient(v)
        action *= self.upsilon
        action += self.mask * v
        return action

    def temporal_max_eigenvalue(self) -> float:
        """Largest eigenvalue of D D^T.

        D D^T splits into s path-graph Laplacians over the snapshots i, i+s,
        i+2s, ...; the longest has c = ceil(M / s) nodes and the largest
        eigenvalue 2 + 2 cos(pi / c).
        """
        chain = -(-self.mask.shape[1] // self.step)
        return 2.0 + 2.0 * math.cos(math.pi / chain)


def objective(x_tilde, y, mask, graph, config: SolverConfig) -> float:
    """Objective value for the configured reconstruction problem."""
    x_tilde = as_signal(x_tilde)
    y, mask = _check_problem(y, mask, graph)
    if x_tilde.shape != y.shape:
        raise InputError(f"estimate shape {x_tilde.shape} does not match signal shape {y.shape}")
    residual = mask * x_tilde - y
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
    x_tilde = as_signal(x_tilde)
    y, mask = _check_problem(y, mask, graph)
    if x_tilde.shape != y.shape:
        raise InputError(f"estimate shape {x_tilde.shape} does not match signal shape {y.shape}")
    residual = mask * x_tilde - y
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
    d = -g + (||g||^2 / ||g_prev||^2) d_prev, where H d is the Hessian
    action J o d + upsilon * (L + epsilon*I)^beta d D D^T. The direction is
    reset to steepest descent every N*M iterations or on loss of descent.
    Stops when ||d||_F <= delta or at max_iter.

    Each iteration makes one Hessian action, h = H d. The gradient follows
    the recurrence g <- g + mu h, and every 50 iterations it is replaced by
    the true residual H X - Y so that rounding cannot accumulate in it. The
    loss comes without another action from the identity
    f(X) = 1/2 <X, g - Y> + 1/2 ||Y||_F^2, which holds because supp(Y) lies
    inside J (the observations are J o Y). A solve of k iterations thus
    makes k + 1 + floor(k / 50) Hessian actions.

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
    y, mask = _check_problem(y, mask, graph, min_snapshots=config.temporal_step + 1)
    observed = mask * y  # the observation model guarantees supp(Y) within the mask
    problem = ProblemOperator(graph, mask, config)
    half_observed_sq = 0.5 * float(np.sum(observed * observed))

    def loss(x, g):
        return 0.5 * float(np.sum(x * (g - observed))) + half_observed_sq

    start = time.perf_counter()
    x = observed.copy()
    g = problem.hessian_action(x)
    g -= observed
    trace = [loss(x, g)]
    errors = None if reference is None else [float(np.linalg.norm(x - reference))]
    iterates = [x.copy()] if record_iterates else None

    g_sq = float(np.sum(g * g))
    if not np.isfinite(g_sq):
        raise NumericError("non-finite gradient at iteration 0")
    direction = -g
    restart_every = x.size
    iterations = 0
    termination = "max_iter"

    for t in range(config.max_iter):
        if float(np.linalg.norm(direction)) <= config.delta:
            termination = "converged"
            break
        h = problem.hessian_action(direction)
        denominator = float(np.sum(direction * h))
        if not np.isfinite(denominator):
            raise NumericError(f"non-finite curvature at iteration {t}")
        if abs(denominator) < _TINY_DENOMINATOR:
            termination = "converged"
            break
        mu = -float(np.sum(direction * g)) / denominator
        x += mu * direction
        iterations = t + 1
        if iterations % _RESIDUAL_REFRESH == 0:
            g = problem.hessian_action(x)
            g -= observed
        else:
            g += mu * h
        trace.append(loss(x, g))
        if errors is not None:
            errors.append(float(np.linalg.norm(x - reference)))
        if iterates is not None:
            iterates.append(x.copy())

        g_new_sq = float(np.sum(g * g))
        if not np.isfinite(g_new_sq):
            raise NumericError(f"non-finite gradient at iteration {iterations}")
        if iterations % restart_every == 0 or g_sq == 0.0:
            direction = -g
        else:
            gamma = g_new_sq / g_sq
            direction = -g + gamma * direction
            if float(np.sum(direction * g)) >= 0.0:
                direction = -g  # lost descent, restart from steepest descent
        g_sq = g_new_sq

    return SolveResult(
        x_hat=x,
        iterations=iterations,
        loss_trace=np.asarray(trace),
        termination=termination,
        wall_time=time.perf_counter() - start,
        error_trace=None if errors is None else np.asarray(errors),
        iterates=iterates,
    )


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
        curvature = (lam_graph + config.epsilon) ** config.beta * problem.temporal_max_eigenvalue()
        step = 1.0 / curvature if curvature > 0 else 1.0
    elif step <= 0:
        raise ParameterError(f"step must be > 0, got {step}")

    start = time.perf_counter()
    sampled = mask > 0
    x = observed.copy()
    trace = [0.5 * problem.smoothness(x)]
    iterates = [x.copy()] if record_iterates else None
    iterations = 0
    termination = "max_iter"
    for t in range(config.max_iter):
        smooth_gradient = problem.smoothness_gradient(x)
        if not np.all(np.isfinite(smooth_gradient)):
            raise NumericError(f"non-finite gradient at iteration {t}")
        x_next = np.where(sampled, observed, x - step * smooth_gradient)
        iterations = t + 1
        trace.append(0.5 * problem.smoothness(x_next))
        if iterates is not None:
            iterates.append(x_next.copy())
        update_norm = float(np.linalg.norm(x_next - x))
        x = x_next
        if update_norm <= config.delta:
            termination = "converged"
            break

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
    Laplacian. Columns without any sample cannot be reconstructed by a
    purely spatial method; they are returned as zero vectors and listed in
    ``unsampled_columns``. A column whose system factors as exactly singular
    (for instance a graph component with no sample in that column) takes the
    minimum-norm least-squares solution of its system in dense form; that
    degenerate case is the only one that forms an N x N matrix.
    """
    y, mask = _check_problem(y, mask, graph)
    observed = mask * y
    lap = graph.laplacian_csr
    start = time.perf_counter()
    smoothing = config.upsilon * lap
    x_hat = np.zeros_like(observed)
    skipped = []
    for column in range(observed.shape[1]):
        j = mask[:, column]
        if not np.any(j > 0):
            skipped.append(column)
            continue
        system = (diags(j) + smoothing).tocsc()
        rhs = j * observed[:, column]
        try:
            factor = splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular
            x_hat[:, column] = np.linalg.lstsq(system.toarray(), rhs, rcond=None)[0]
        else:
            x_hat[:, column] = factor.solve(rhs)
    residual = mask * x_hat - observed
    loss = 0.5 * float(np.sum(residual * residual)) + \
        0.5 * config.upsilon * float(np.sum(x_hat * (lap @ x_hat)))
    return SolveResult(
        x_hat=x_hat,
        iterations=0,
        loss_trace=np.asarray([loss]),
        termination="converged",
        wall_time=time.perf_counter() - start,
        unsampled_columns=tuple(skipped),
    )

