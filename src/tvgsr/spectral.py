"""Dense analysis: the vectorized Hessian, its extreme eigenvalues, and the oracle.

The vectorized Hessian of the noisy reconstruction objective is
Q + upsilon * (D D^T) kron (L + epsilon*I)^beta with Q = diag(vec(J)),
using column-major vectorization. Only this module forms it, under a hard
size guard (N*M <= 4000): :func:`hessian` builds it in one NM x NM buffer.
:func:`_extremes` finds its two extreme eigenvalues by Lanczos on its
Cholesky factor without that buffer. D D^T couples snapshot t only with
t +- s, and K = (L + epsilon*I)^beta couples node i only with the nodes
within beta graph hops, so with every snapshot's nodes in one reverse
Cuthill-McKee order of K the Hessian is a band matrix of half-width
s N + b, b being K's half-bandwidth in that order (N - 1 for a dense K):
:func:`_band` fills that band straight from q = vec(J), D D^T and K, with
the bits of the node-permuted buffer, and its factor costs
O(NM (s N + b)^2) flops, not a full spectrum's 4/3 (NM)^3. The Hessian
is positive semidefinite, so a band that ``dpbtrf`` rejects is singular:
its lambda_min is 0. So the extremes hold the (s N + b + 1) x NM band and
no NM x NM array, and only :func:`hessian` and the oracle, which
eigendecomposes the buffer in place with LAPACK's ``dsyevd``, build one.

Built on the extremes are :func:`weyl_sweep`'s checks of them against the
additive (Weyl) brackets of the shifted-power (Sobolev) and plain Laplacian
objectives, which find the extremes of each distinct Hessian of a sweep
once and carry each Hessian's condition number (``kappa``) beside its
brackets, and the dense eigendecomposition oracle that solves the
stationarity system for tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .exceptions import InputError, NumericError, ParameterError
from .graphs import Graph, _check_symmetric, sobolev_power
from .sampling import as_mask_array
from .solvers import SolverConfig, _check_problem
from .temporal import difference_operator

DENSE_GUARD = 4000  # maximum N*M for dense vectorized systems

_SINGULAR_RATIO = 1e-12  # eigenvalues below this fraction of lambda_max count as zero
_BRACKET_RTOL = 1e-8
_LANCZOS_NCV = 10  # Lanczos basis size; fixed, like the start vector, so reruns repeat their bits


def _vec(x) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).ravel(order="F")


def _checked_mask(mask, graph: Graph, op, upsilon) -> np.ndarray:
    """The 0/1 mask array of a Hessian request, after :func:`hessian`'s checks in its order."""
    mask = as_mask_array(mask)
    if mask.shape[0] != graph.n_nodes:
        raise InputError(f"mask has {mask.shape[0]} rows but graph has {graph.n_nodes} nodes")
    if mask.size > DENSE_GUARD:
        raise ParameterError(f"dense Hessian limited to N*M <= {DENSE_GUARD}, got {mask.size}")
    if not math.isfinite(upsilon) or upsilon < 0:
        raise ParameterError(f"upsilon must be finite and >= 0, got {upsilon}")
    if op.n_snapshots != mask.shape[1]:
        raise InputError(f"operator expects {op.n_snapshots} snapshots, mask has {mask.shape[1]}")
    return mask


def hessian(mask, graph: Graph, op, upsilon, epsilon, beta) -> np.ndarray:
    """The dense vectorized Hessian Q + upsilon * (D D^T) kron (L + epsilon*I)^beta.

    Built in one NM x NM buffer under the N*M <= 4000 guard, with
    Q = diag(vec(J)) added onto the diagonal. A buffer that is not finite
    (K or its product with upsilon overflows) raises :class:`NumericError`.
    """
    mask = _checked_mask(mask, graph, op, upsilon)
    d = op.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports it
        matrix = np.kron(d @ d.T, sobolev_power(graph.laplacian, epsilon, beta))
        matrix *= upsilon
    if not np.all(np.isfinite(matrix)):
        raise NumericError(f"Hessian not finite at upsilon={upsilon}, epsilon={epsilon}, "
                           f"beta={beta}: (L + epsilon*I)^beta or its upsilon multiple overflows")
    matrix += 0.0  # -0.0 to +0.0, as in the sum Q + smoothness: LAPACK's output depends on zero signs
    matrix.flat[::matrix.shape[0] + 1] += _vec(mask)
    return matrix


def _band(mask, ddt, penalty, upsilon, step) -> np.ndarray:
    """The upper band of :func:`hessian` in LAPACK's storage, entry for entry with its bits.

    Returns the Fortran-ordered (width + 1) x NM array ``band`` with
    ``band[width + r - c, c] = H[r, c]`` for 0 <= c - r <= width, where
    width = s N + b and b is the half-bandwidth of ``penalty`` (K), and zeros
    elsewhere. Only the blocks (t, t) and (t, t + s) of D D^T are nonzero:
    they take K's diagonals 0..b and -b..b, laid out one diagonal at a time
    in the band rows of one column block, and each distinct pair of the
    column block's coefficients c in D D^T scales that layout once, as
    fl(fl(c K) upsilon) + 0.0. q goes on the diagonal.
    """
    n, m = mask.shape
    rows, cols = np.nonzero(penalty)
    reach = int(np.abs(rows - cols).max(initial=0))
    width = step * n + reach  # M > s and b < N, so the band is narrower than the matrix
    # K in the band rows of one column block u: entry (i, j) of the block (u, u), i <= j,
    # goes to [j, width - (j - i)], and of the block (u - s, u) to [j, reach - (j - i)]
    own, coupled = np.zeros((2, n, width + 1))
    for offset in range(-reach, reach + 1):
        diagonal = np.diagonal(penalty, offset)
        if offset >= 0:
            own[offset:, width - offset] = diagonal
        coupled[max(offset, 0):n + min(offset, 0), reach - offset] = diagonal
    band = np.zeros((width + 1, n * m), order="F")
    blocks = band.T.reshape(m, n, width + 1)  # [u, j, row]: column u N + j
    # column block u's coefficients of the blocks (u, u) and (u - s, u), 0 when u < s
    coefficients = np.stack([ddt.diagonal(), np.r_[np.zeros(step), ddt.diagonal(step)]])
    pairs, which = np.unique(coefficients, axis=1, return_inverse=True)
    for index, (c, c_coupled) in enumerate(pairs.T):  # an entry is in one part; the other adds +0.0
        blocks[which == index] = (own * c * upsilon + 0.0) + (coupled * c_coupled * upsilon + 0.0)
    blocks[:, :, width] += mask.T
    return band


def _largest_eigenvalue(matvec, size, setting) -> float:
    """ARPACK's largest eigenvalue of a symmetric operator, from a fixed start vector.

    A failed run (no convergence, or a breakdown) or a value that is not
    finite raises :class:`NumericError` naming ``setting``.
    """
    v0 = np.random.default_rng(0).standard_normal(size)
    operator = LinearOperator((size, size), matvec=matvec, dtype=float)
    try:
        value = float(eigsh(operator, k=1, which="LA", v0=v0, ncv=min(size, _LANCZOS_NCV), tol=0,
                            return_eigenvectors=False)[0])
    except ArpackError as exc:  # ArpackNoConvergence included
        raise NumericError(f"Lanczos run failed: {str(exc).strip()} (at {setting})") from exc
    if not math.isfinite(value):
        raise NumericError(f"Lanczos run failed: largest eigenvalue {value} (at {setting})")
    return value


def _extremes(mask, graph: Graph, op, upsilon, epsilon, beta):
    """(lambda_min, lambda_max) of :func:`hessian`, without its full spectrum or any NM x NM array.

    One K = (L + epsilon*I)^beta serves the whole call. With P the reverse
    Cuthill-McKee order of K's nonzero pattern, the band of
    (I_M kron P) H (I_M kron P)^T, which has H's eigenvalues, is built by
    :func:`_band` and Cholesky-factored (``dpbtrf``), and lambda_min is 1/mu,
    with mu the largest eigenvalue of its inverse applied by ``dpbtrs``.
    H is positive semidefinite, so a factor that ``dpbtrf`` rejects means
    lambda_min is 0 to working precision, and 0.0 is returned. lambda_max
    comes from the matrix-free action q v + upsilon vec(K V D D^T) in the
    input order, O(N^2 M) per product. Both are Lanczos runs (ARPACK) to
    machine precision; a failed run raises :class:`NumericError`, as does a
    band that is not finite (K or its product with upsilon overflows),
    before anything is factored.
    """
    mask = _checked_mask(mask, graph, op, upsilon)
    ddt = op.matrix @ op.matrix.T
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports it
        penalty = sobolev_power(graph.laplacian, epsilon, beta)
        order = reverse_cuthill_mckee(csr_matrix(penalty), symmetric_mode=True)
        band = _band(mask[order], ddt, penalty[np.ix_(order, order)], upsilon, op.step)
    setting = f"upsilon={upsilon}, epsilon={epsilon}, beta={beta}"
    if not np.all(np.isfinite(band)):
        raise NumericError(f"Hessian not finite at {setting}: "
                           "(L + epsilon*I)^beta or its upsilon multiple overflows")
    factor, info = dpbtrf(band, overwrite_ab=True)
    q = _vec(mask)
    n_snapshots = ddt.shape[0]

    def action(v):
        transposed = v.reshape(n_snapshots, -1)  # V^T, since vec(V) stacks V's columns
        return q * v + upsilon * (ddt @ transposed @ penalty).ravel()

    if info != 0:  # singular, or indefinite by rounding
        return 0.0, _largest_eigenvalue(action, mask.size, setting)
    mu = _largest_eigenvalue(lambda v: dpbtrs(factor, v)[0], mask.size, setting)
    return 1.0 / mu, _largest_eigenvalue(action, mask.size, setting)


def _kappa(lam_min, lam_max) -> float:
    if lam_max <= 0 or lam_min < _SINGULAR_RATIO * lam_max:
        return math.inf
    return lam_max / lam_min


def condition_number(matrix) -> float:
    """Eigenvalue ratio lambda_max / lambda_min of a symmetric matrix.

    Returns ``math.inf`` when the matrix is numerically singular
    (lambda_min < 1e-12 * lambda_max), mirroring the divergence of the
    condition number for rank-deficient Hessians. A non-square, non-finite
    or asymmetric matrix raises :class:`InputError`. The argument is never
    written to: this eigensolve copies it.
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


def weyl_sweep(graph: Graph, op, upsilon, beta, epsilon_grid, mask) -> list:
    """Check the extreme Hessian eigenvalues against their analytic brackets.

    Returns one :class:`WeylReport` per grid epsilon. The extremes of each
    distinct Hessian are found once, so E epsilons cost at most E+1 band
    factorizations, and no NM x NM array.
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
    if not math.isfinite(1.0 / upsilon):  # the brackets divide by upsilon
        raise ParameterError(f"1/upsilon must be finite for bound checks, got upsilon={upsilon}")
    extremes = functools.cache(lambda eps, power: _extremes(mask, graph, op, upsilon, eps, power))
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
    """:func:`weyl_sweep` at one epsilon: two Hessians' extremes, or one at (0, 1)."""
    return weyl_sweep(graph, op, upsilon, beta, [epsilon], mask)[0]


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
    if not all(math.isfinite(b) and b >= 0 for b in beta_list):
        raise ParameterError(f"beta values must be finite and >= 0, got {beta_list}")
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
    y, mask = _check_problem(y, mask, graph)
    n, m = y.shape
    op = difference_operator(m, config.temporal_step)
    # dsyevd, as in np.linalg.eigh, on the hessian(...) buffer, which it overwrites: the
    # buffer's transpose is the same matrix in Fortran order, since it is bitwise symmetric
    eigenvalues, eigenvectors = linalg.eigh(
        hessian(mask, graph, op, config.upsilon, config.epsilon, config.beta).T,
        overwrite_a=True, check_finite=False, driver="evd")
    # C order, as np.linalg.eigh gives, so the products below run its BLAS kernels and bits;
    # dsyevd's workspace is freed by now, so this copy raises no peak
    eigenvectors = np.ascontiguousarray(eigenvectors)

    largest = float(eigenvalues[-1])
    cutoff = _SINGULAR_RATIO * largest if largest > 0 else np.inf
    keep = eigenvalues > cutoff
    singular = bool(not np.all(keep))
    coefficients = eigenvectors.T @ _vec(mask * y)
    scaled = np.zeros_like(coefficients)
    scaled[keep] = coefficients[keep] / eigenvalues[keep]
    z = eigenvectors @ scaled
    return OracleSolution(x_hat=z.reshape((n, m), order="F"), singular=singular)
