"""Dense NM x NM analysis: the vectorized Hessian, its spectrum, and the oracle.

The vectorized Hessian of the noisy reconstruction objective is
Q + upsilon * (D D^T) kron (L + epsilon*I)^beta with Q = diag(vec(J)),
using column-major vectorization. :func:`hessian` is the only place it is
formed, under a hard size guard (N*M <= 4000); the solvers never form it.
Built on it are condition numbers compared between the shifted-power
(Sobolev) objective and the plain Laplacian objective, checks of the extreme
eigenvalues against the additive (Weyl) brackets obtained from the spectra
of the two summands, and the dense eigendecomposition oracle that solves
the stationarity system for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InputError, ParameterError
from .graphs import Graph, sobolev_power
from .sampling import as_mask_array
from .solvers import SolverConfig, _check_problem
from .temporal import _operator_matrix, difference_operator

DENSE_GUARD = 4000  # maximum N*M for dense vectorized systems

_SINGULAR_RATIO = 1e-12  # eigenvalues below this fraction of lambda_max count as zero
_BRACKET_RTOL = 1e-8


def _vec(x) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).ravel(order="F")


@dataclass(frozen=True)
class HessianSpec:
    """Vectorized Hessian blocks: diagonal data block Q and smoothness block."""

    data_block: np.ndarray        # Q = diag(vec(J))
    smoothness_block: np.ndarray  # upsilon * (D D^T) kron (L + epsilon*I)^beta
    upsilon: float
    epsilon: float
    beta: float

    def full(self) -> np.ndarray:
        return self.data_block + self.smoothness_block


def hessian(mask, graph: Graph, op, upsilon, epsilon, beta) -> HessianSpec:
    """Assemble the dense vectorized Hessian blocks (N*M <= 4000 guard)."""
    mask = as_mask_array(mask)
    if mask.shape[0] != graph.n_nodes:
        raise InputError(f"mask has {mask.shape[0]} rows but graph has {graph.n_nodes} nodes")
    size = mask.size
    if size > DENSE_GUARD:
        raise ParameterError(f"dense Hessian limited to N*M <= {DENSE_GUARD}, got {size}")
    if upsilon < 0:
        raise ParameterError(f"upsilon must be >= 0, got {upsilon}")
    d = _operator_matrix(op)
    if d.shape[0] != mask.shape[1]:
        raise InputError(f"operator expects {d.shape[0]} snapshots, mask has {mask.shape[1]}")
    penalty = sobolev_power(graph.laplacian, epsilon, beta)
    smoothness = np.kron(d @ d.T, penalty)
    smoothness *= upsilon
    return HessianSpec(
        data_block=np.diag(_vec(mask)),
        smoothness_block=smoothness,
        upsilon=float(upsilon),
        epsilon=float(epsilon),
        beta=float(beta),
    )


def _extremes(matrix) -> tuple:
    """(lambda_min, lambda_max) of a symmetric matrix."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def _kappa(lam_min, lam_max) -> float:
    if lam_max <= 0 or lam_min < _SINGULAR_RATIO * lam_max:
        return math.inf
    return lam_max / lam_min


def condition_number(matrix) -> float:
    """Eigenvalue ratio lambda_max / lambda_min of a symmetric matrix.

    Returns ``math.inf`` when the matrix is numerically singular
    (lambda_min < 1e-12 * lambda_max), mirroring the divergence of the
    condition number for rank-deficient Hessians.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"matrix must be square, got shape {matrix.shape}")
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > 1e-10 * scale:
        raise InputError("matrix is not symmetric")
    return _kappa(*_extremes(matrix))


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


def _bracket_check(lam_min, lam_max, block_max, upsilon, premise_holds):
    max_bracket = (block_max, block_max + 1.0 / upsilon)
    min_bracket = (0.0, min(1.0 / upsilon, block_max))
    tol_max = _BRACKET_RTOL * max(1.0, abs(max_bracket[1]))
    tol_min = _BRACKET_RTOL * max(1.0, abs(min_bracket[1]))
    return EigenvalueBounds(
        lambda_max=lam_max,
        lambda_min=lam_min,
        max_bracket=max_bracket,
        min_bracket=min_bracket,
        premise_holds=premise_holds,
        max_within=max_bracket[0] - tol_max <= lam_max <= max_bracket[1] + tol_max,
        min_within=min_bracket[0] - tol_min <= lam_min <= min_bracket[1] + tol_min,
    )


def weyl_bounds(graph: Graph, op, upsilon, epsilon, beta, mask) -> WeylReport:
    """Check the extreme Hessian eigenvalues against their analytic brackets.

    Both Hessians are examined in the scale-invariant form
    (1/upsilon) Q + (D D^T) kron K, whose extremes are those of
    :func:`hessian` divided by upsilon. The brackets read
    lambda_max in [k_max * d_max, k_max * d_max + 1/upsilon] and
    lambda_min in [0, min(1/upsilon, k_max * d_max)], with k_max the largest
    eigenvalue of the penalty matrix and d_max that of D D^T. The brackets
    are stated under the premise k_max, d_max >= 1; premise status is
    reported alongside pass/fail and violations are never silently ignored.
    """
    mask = as_mask_array(mask)
    if not np.any(mask > 0):
        raise InputError("mask selects no entries (J must be nonzero)")
    if upsilon <= 0:
        raise ParameterError(f"upsilon must be > 0 for bound checks, got {upsilon}")
    lap_min, lap_max = _extremes(hessian(mask, graph, op, upsilon, 0.0, 1.0).full())
    sob_min, sob_max = _extremes(hessian(mask, graph, op, upsilon, epsilon, beta).full())
    d = _operator_matrix(op)
    lam_temporal = float(np.linalg.eigvalsh(d @ d.T)[-1])
    lam_graph = max(float(graph.spectrum().eigenvalues[-1]), 0.0)
    penalty_max = (lam_graph + epsilon) ** beta
    return WeylReport(
        laplacian=_bracket_check(
            lap_min / upsilon, lap_max / upsilon, lam_graph * lam_temporal, upsilon,
            premise_holds=lam_graph >= 1.0 and lam_temporal >= 1.0,
        ),
        sobolev=_bracket_check(
            sob_min / upsilon, sob_max / upsilon, penalty_max * lam_temporal, upsilon,
            premise_holds=penalty_max >= 1.0 and lam_temporal >= 1.0,
        ),
        lambda_graph_max=lam_graph,
        lambda_temporal_max=lam_temporal,
        upsilon=float(upsilon),
        epsilon=float(epsilon),
        beta=float(beta),
    )


class SweepPoint(NamedTuple):
    epsilon: float
    kappa_sobolev: float
    kappa_laplacian: float


def condition_sweep(graph: Graph, op, upsilon, beta, epsilon_grid, mask) -> list:
    """Condition numbers of both Hessians over a grid of epsilon values.

    The Laplacian-objective value is epsilon-independent and computed once;
    each row pairs it with the shifted-power value at one epsilon.
    """
    epsilon_grid = [float(e) for e in epsilon_grid]
    if not epsilon_grid:
        raise ParameterError("epsilon grid must be nonempty")

    def kappa(epsilon, power):
        return _kappa(*_extremes(hessian(mask, graph, op, upsilon, epsilon, power).full()))

    kappa_laplacian = kappa(0.0, 1.0)
    return [SweepPoint(epsilon=epsilon, kappa_sobolev=kappa(epsilon, beta),
                       kappa_laplacian=kappa_laplacian) for epsilon in epsilon_grid]


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
        hessian(mask, graph, op, config.upsilon, config.epsilon, config.beta).full())
    rhs = _vec(mask * y)

    largest = float(eigenvalues[-1])
    cutoff = _SINGULAR_RATIO * largest if largest > 0 else np.inf
    keep = eigenvalues > cutoff
    singular = bool(not np.all(keep))
    coefficients = eigenvectors.T @ rhs
    scaled = np.zeros_like(coefficients)
    scaled[keep] = coefficients[keep] / eigenvalues[keep]
    z = eigenvectors @ scaled
    return OracleSolution(x_hat=z.reshape((n, m), order="F"), singular=singular)
