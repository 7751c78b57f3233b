"""Dense NM x NM analysis: the vectorized Hessian, its spectrum, and the oracle.

The vectorized Hessian of the noisy reconstruction objective is
Q + upsilon * (D D^T) kron (L + epsilon*I)^beta with Q = diag(vec(J)),
using column-major vectorization. Only this module forms it, under a hard
size guard (N*M <= 4000): :func:`hessian` builds it in one NM x NM buffer,
and every eigensolve here reads that matrix. Built on it are condition
numbers of the shifted-power (Sobolev) and plain Laplacian objectives and
checks of their extreme eigenvalues against the additive (Weyl) brackets,
both eigensolving each distinct Hessian of a sweep once, and the dense
eigendecomposition oracle that solves the stationarity system for tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InputError, ParameterError
from .graphs import Graph, _check_symmetric, sobolev_power
from .sampling import as_mask_array
from .solvers import SolverConfig, _check_problem
from .temporal import difference_operator

DENSE_GUARD = 4000  # maximum N*M for dense vectorized systems

_SINGULAR_RATIO = 1e-12  # eigenvalues below this fraction of lambda_max count as zero
_BRACKET_RTOL = 1e-8


def _vec(x) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).ravel(order="F")


def hessian(mask, graph: Graph, op, upsilon, epsilon, beta) -> np.ndarray:
    """The dense vectorized Hessian Q + upsilon * (D D^T) kron (L + epsilon*I)^beta.

    Built in one NM x NM buffer under the N*M <= 4000 guard, with
    Q = diag(vec(J)) added onto the diagonal.
    """
    mask = as_mask_array(mask)
    if mask.shape[0] != graph.n_nodes:
        raise InputError(f"mask has {mask.shape[0]} rows but graph has {graph.n_nodes} nodes")
    if mask.size > DENSE_GUARD:
        raise ParameterError(f"dense Hessian limited to N*M <= {DENSE_GUARD}, got {mask.size}")
    if upsilon < 0:
        raise ParameterError(f"upsilon must be >= 0, got {upsilon}")
    if op.n_snapshots != mask.shape[1]:
        raise InputError(f"operator expects {op.n_snapshots} snapshots, mask has {mask.shape[1]}")
    d = op.matrix
    matrix = np.kron(d @ d.T, sobolev_power(graph.laplacian, epsilon, beta))
    matrix *= upsilon
    matrix += 0.0  # -0.0 to +0.0, as in the sum Q + smoothness: LAPACK's output depends on zero signs
    matrix.flat[::matrix.shape[0] + 1] += _vec(mask)
    return matrix


def _kappa(lam_min, lam_max) -> float:
    if lam_max <= 0 or lam_min < _SINGULAR_RATIO * lam_max:
        return math.inf
    return lam_max / lam_min


def condition_number(matrix) -> float:
    """Eigenvalue ratio lambda_max / lambda_min of a symmetric matrix.

    Returns ``math.inf`` when the matrix is numerically singular
    (lambda_min < 1e-12 * lambda_max), mirroring the divergence of the
    condition number for rank-deficient Hessians. A non-square, non-finite
    or asymmetric matrix raises :class:`InputError`.
    """
    eigenvalues = np.linalg.eigvalsh(_check_symmetric(matrix))
    return _kappa(float(eigenvalues[0]), float(eigenvalues[-1]))


@dataclass(frozen=True)
class EigenvalueBounds:
    """Computed Hessian extremes against their additive spectral brackets."""

    lambda_max: float
    lambda_min: float
    max_bracket: tuple
    min_bracket: tuple
    premise_holds: bool  # the stated eigenvalue conditions behind the brackets
    max_within: bool
    min_within: bool

    @property
    def all_within(self) -> bool:
        return self.max_within and self.min_within

    @property
    def kappa(self) -> float:
        """Condition number, with :func:`condition_number`'s singular rule."""
        return _kappa(self.lambda_min, self.lambda_max)


@dataclass(frozen=True)
class WeylReport:
    """Bracket checks for both objectives plus the ingredient eigenvalues."""

    laplacian: EigenvalueBounds
    sobolev: EigenvalueBounds
    lambda_graph_max: float     # largest Laplacian eigenvalue
    lambda_temporal_max: float  # largest eigenvalue of D D^T
    upsilon: float
    epsilon: float
    beta: float

    @property
    def all_pass(self) -> bool:
        return self.laplacian.all_within and self.sobolev.all_within


def _bracket_check(lam_min, lam_max, penalty_max, lam_temporal, upsilon):
    """Bracket check of the extremes of (1/upsilon) Q + (D D^T) kron K."""
    block_max = penalty_max * lam_temporal
    max_bracket = (block_max, block_max + 1.0 / upsilon)
    min_bracket = (0.0, min(1.0 / upsilon, block_max))
    lam_min, lam_max = lam_min / upsilon, lam_max / upsilon
    tol_max = _BRACKET_RTOL * max(1.0, abs(max_bracket[1]))
    tol_min = _BRACKET_RTOL * max(1.0, abs(min_bracket[1]))
    return EigenvalueBounds(
        lambda_max=lam_max,
        lambda_min=lam_min,
        max_bracket=max_bracket,
        min_bracket=min_bracket,
        premise_holds=penalty_max >= 1.0 and lam_temporal >= 1.0,
        max_within=max_bracket[0] - tol_max <= lam_max <= max_bracket[1] + tol_max,
        min_within=min_bracket[0] - tol_min <= lam_min <= min_bracket[1] + tol_min,
    )


def _hessian_extremes(mask, graph: Graph, op, upsilon):
    """Memoized (epsilon, beta) -> Hessian extremes; the Laplacian Hessian is (0.0, 1.0)."""
    @functools.cache
    def extremes(epsilon, beta):
        eigenvalues = np.linalg.eigvalsh(hessian(mask, graph, op, upsilon, epsilon, beta))
        return float(eigenvalues[0]), float(eigenvalues[-1])
    return extremes


def weyl_sweep(graph: Graph, op, upsilon, beta, epsilon_grid, mask) -> list:
    """Check the extreme Hessian eigenvalues against their analytic brackets.

    Returns one :class:`WeylReport` per grid epsilon. Each distinct Hessian
    is eigensolved once, so E epsilons cost at most E+1 NM x NM eigensolves.
    Both Hessians are examined in the scale-invariant form
    (1/upsilon) Q + (D D^T) kron K, whose extremes are those of
    :func:`hessian` divided by upsilon. The brackets read
    lambda_max in [k_max * d_max, k_max * d_max + 1/upsilon] and
    lambda_min in [0, min(1/upsilon, k_max * d_max)], with k_max the largest
    eigenvalue of the penalty matrix and d_max that of D D^T. The brackets
    are stated under the premise k_max, d_max >= 1; premise status is
    reported alongside pass/fail and violations are never silently ignored.
    """
    epsilon_grid = [float(e) for e in epsilon_grid]
    if not epsilon_grid:
        raise ParameterError("epsilon grid must be nonempty")
    if not np.any(as_mask_array(mask) > 0):
        raise InputError("mask selects no entries (J must be nonzero)")
    if upsilon <= 0:
        raise ParameterError(f"upsilon must be > 0 for bound checks, got {upsilon}")
    extremes = _hessian_extremes(mask, graph, op, upsilon)
    lap_min, lap_max = extremes(0.0, 1.0)  # first, so a bad request raises hessian's errors
    d = op.matrix
    lam_temporal = float(np.linalg.eigvalsh(d @ d.T)[-1])
    lam_graph = max(float(graph.spectrum().eigenvalues[-1]), 0.0)
    laplacian = _bracket_check(lap_min, lap_max, lam_graph, lam_temporal, upsilon)
    reports = []
    for epsilon in epsilon_grid:
        sobolev = _bracket_check(*extremes(epsilon, beta), (lam_graph + epsilon) ** beta,
                                 lam_temporal, upsilon)
        reports.append(WeylReport(laplacian, sobolev, lam_graph, lam_temporal,
                                  float(upsilon), epsilon, float(beta)))
    return reports


def weyl_bounds(graph: Graph, op, upsilon, epsilon, beta, mask) -> WeylReport:
    """:func:`weyl_sweep` at one epsilon: two eigensolves, or one at (0, 1)."""
    return weyl_sweep(graph, op, upsilon, beta, [epsilon], mask)[0]


class SweepPoint(NamedTuple):
    epsilon: float
    kappa_sobolev: float
    kappa_laplacian: float


def condition_sweep(graph: Graph, op, upsilon, beta, epsilon_grid, mask) -> list:
    """Condition numbers of both Hessians over a grid of epsilon values.

    Each row pairs the Laplacian value with the shifted-power value at one
    epsilon; each distinct Hessian is eigensolved once.
    """
    epsilon_grid = [float(e) for e in epsilon_grid]
    if not epsilon_grid:
        raise ParameterError("epsilon grid must be nonempty")
    extremes = _hessian_extremes(mask, graph, op, upsilon)
    kappa_laplacian = _kappa(*extremes(0.0, 1.0))
    return [SweepPoint(epsilon, _kappa(*extremes(epsilon, beta)), kappa_laplacian)
            for epsilon in epsilon_grid]


def eigenvalue_penalization(spec, beta_list) -> np.ndarray:
    """Normalized spectral penalties (lambda_i / lambda_N)^beta.

    Returns an N x len(beta_list) table with rows indexed by eigenvalue and
    one column per beta; every entry lies in [0, 1]. Small negative
    eigenvalues from round-off are clipped to zero before normalization.
    """
    eigenvalues = np.asarray(spec.eigenvalues, dtype=float)
    beta_list = [float(b) for b in beta_list]
    if not beta_list:
        raise ParameterError("beta list must be nonempty")
    if any(b < 0 for b in beta_list):
        raise ParameterError("beta values must be >= 0")
    lam_max = float(eigenvalues[-1])
    if lam_max <= 0:
        raise ParameterError("largest eigenvalue must be positive (edgeless graph?)")
    ratios = np.clip(eigenvalues, 0.0, None) / lam_max
    return np.column_stack([ratios**b for b in beta_list])


@dataclass(frozen=True)
class OracleSolution:
    """Dense stationarity-system solution with a singularity flag."""

    x_hat: np.ndarray
    singular: bool


def dense_oracle_solve(y, mask, graph, config: SolverConfig) -> OracleSolution:
    """Dense solve of the vectorized stationarity system (test oracle).

    With z = vec(X) stacked column-major, the stationary points of the noisy
    objective satisfy H z = Q vec(Y) with H the :func:`hessian` and
    Q = diag(vec(J)). The system is solved through a full
    eigendecomposition; if it is numerically singular (smallest eigenvalue
    below 1e-12 of the largest) the minimum-norm solution is returned and
    flagged. Guarded to N*M <= 4000.
    """
    if config.objective == "gr_static":
        raise ParameterError("the dense oracle covers the temporal objectives only")
    y, mask = _check_problem(y, mask, graph, min_snapshots=config.temporal_step + 1)
    n, m = y.shape
    op = difference_operator(m, config.temporal_step)
    eigenvalues, eigenvectors = np.linalg.eigh(
        hessian(mask, graph, op, config.upsilon, config.epsilon, config.beta))

    largest = float(eigenvalues[-1])
    cutoff = _SINGULAR_RATIO * largest if largest > 0 else np.inf
    keep = eigenvalues > cutoff
    singular = bool(not np.all(keep))
    coefficients = eigenvectors.T @ _vec(mask * y)
    scaled = np.zeros_like(coefficients)
    scaled[keep] = coefficients[keep] / eigenvalues[keep]
    z = eigenvectors @ scaled
    return OracleSolution(x_hat=z.reshape((n, m), order="F"), singular=singular)
