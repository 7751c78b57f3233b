"""Reconstruction solvers for partially observed time-varying graph signals.

All solvers minimize variants of

    f(X) = 1/2 ||J o X - Y||_F^2 + upsilon/2 * smoothness(X)

where the smoothness term is tr((XD)^T (L + epsilon*I)^beta (XD)) for the
temporal objectives ("sobolev", and its epsilon=0/beta=1 special case
"tgsr") or tr(X^T L X) for the per-snapshot baseline ("gr_static").

One conjugate gradient loop with an exact line search solves both temporal
problems. The noisy problem runs it with the Hessian action
J o V + upsilon * K V D D^T. The noiseless problem, the smoothness term
subject to J o X = Y, is an unconstrained quadratic in the unsampled entries
once the samples are fixed; it runs the same loop from J o Y with the
smoothness Hessian K V D D^T zeroed on the samples, so every direction is
zero there and every iterate keeps the samples bit for bit.

By default the loop is preconditioned along the time axis: M keeps the data
term and each node's own temporal chains exactly, with K replaced by its
diagonal, so M is one tridiagonal matrix over the unknowns, factored once by
LAPACK's ``dpttrf``; a singular H's null space is projected out of M^-1 g
(see :func:`_temporal_preconditioner`). ``SolverConfig(preconditioner="none")``
runs the paper's plain Fletcher-Reeves CG.

:class:`ProblemOperator` applies that action and the smoothness gradient
K X D D^T through one body, in place. The loop reuses buffers allocated
once, so an iteration allocates nothing, and it reports why it stopped and
how it got there in a :class:`SolveStats`. Messages go to the ``tvgsr``
logger, which is silent unless logging is configured.

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
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs
from scipy.sparse import _sparsetools, coo_matrix, csc_matrix, identity
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .exceptions import InputError, NumericError, ParameterError
from .graphs import Graph, sobolev_power
from .sampling import as_mask_array
from .temporal import TEMPORAL_STEPS, as_signal, difference_operator

OBJECTIVES = ("tgsr", "sobolev", "gr_static")
PRECONDITIONERS = ("temporal", "none")

_TINY_DENOMINATOR = 1e-300
_RESIDUAL_REFRESH = 50  # CG iterations between true-residual replacements of the gradient
_RECORD_CHUNK = 4096  # telemetry rows allocated at a time
_LU_OPTIONS = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})  # gr_static's splu
_BAND_LIMIT = 128  # widest RCM half-bandwidth that gr_static factors as a band; wider takes splu
_CHAIN_SHIFT = 1e-8  # lifts an unsampled chain's singular block, relative to its coupling

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``objective="tgsr"`` is the plain Laplacian temporal objective and is
    normalized to epsilon=0, beta=1 so it shares the exact code path of the
    shifted-power objective; ``gr_static`` likewise ignores epsilon/beta and
    the preconditioner. ``preconditioner`` is "temporal" (the default) or
    "none", the paper's plain FR-CG, whose iteration counts the paper reports.
    Defaults: delta=1e-6, max_iter=20000.
    """

    upsilon: float = 1.0
    epsilon: float = 0.0
    beta: float = 1.0
    delta: float = 1e-6
    max_iter: int = 20000
    objective: str = "sobolev"
    temporal_step: int = 1
    preconditioner: str = "temporal"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ParameterError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ParameterError(f"preconditioner must be one of {PRECONDITIONERS}, "
                                 f"got {self.preconditioner!r}")
        if self.objective in ("tgsr", "gr_static"):
            object.__setattr__(self, "epsilon", 0.0)
            object.__setattr__(self, "beta", 1.0)
        if self.objective == "gr_static":
            object.__setattr__(self, "preconditioner", "none")
        for name in ("upsilon", "epsilon", "beta", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        for name in ("max_iter", "temporal_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
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
    """Telemetry of one CG solve; entry t of each array describes iteration t + 1.

    ``grad_norm`` is ||g|| after the iteration's step, ``dir_norm`` the
    ||d|| of the direction it stepped along, ``mu`` its step and ``gamma``
    the ratio <g, z> / <g_prev, z_prev> that formed the next direction, with
    z = M^-1 g (z = g without a preconditioner; 0 where the direction was
    reset). ``restarts`` lists (iteration, reason) for each
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
    iterates: list | None = None
    unsampled_columns: tuple = ()
    stats: SolveStats | None = None  # CG telemetry of solve_cg and solve_noiseless
    # scores on the hidden entries, set by evaluation.reconstruct
    rmse: float | None = None
    mae: float | None = None
    mape: float | None = None
    mape_excluded: int | None = None
    evaluated_entries: int | None = None


def _check_problem(y, mask, graph):
    mask = as_mask_array(mask)
    y = as_signal(y)
    if mask.shape != y.shape:
        raise InputError(f"mask shape {mask.shape} does not match signal shape {y.shape}")
    if y.shape[0] != graph.n_nodes:
        raise InputError(f"signal has {y.shape[0]} rows but graph has {graph.n_nodes} nodes")
    return y, mask


class ProblemOperator:
    """Matrix-free operators of one temporal reconstruction problem.

    Applies K = (L + epsilon*I)^beta, the difference operator D, the Hessian
    action J o V + upsilon * K V D D^T and the smoothness gradient K X D D^T
    without forming an N x N or M x M product. Integer beta repeats the CSR
    action of L + epsilon*I, with epsilon on every diagonal entry so that
    isolated nodes get it too, and keeps upsilon * (L + epsilon*I) as a
    second ``data`` array over the same pattern; fractional beta multiplies
    by the dense :func:`sobolev_power`. D and D D^T are the stencils of
    :class:`~tvgsr.temporal.TemporalOperator`. A ``gr_static`` config, which
    has no temporal term, raises :class:`ParameterError`.

    The action and the gradient run one body, which allocates nothing: it
    scatters V D D^T into scratch, applies the first beta - 1 factors there,
    writes J o V (action) or zeros (gradient) into the result, and adds the
    last factor, upsilon * K or K, times the scatter onto it in place, in
    CSR order; fractional beta writes its dense product into the free
    scratch buffer and adds that. :meth:`smoothness` keeps its own K (X D)
    on the N x (M - s) differences, since <X, K X D D^T> would cancel terms
    of the size of |X| |G|.

    The operator owns two scratch buffers, so one instance serves one solve
    at a time. With ``out=`` the action and the gradient write into the
    caller's C-ordered float N x M array, which may be their input itself.
    """

    def __init__(self, graph: Graph, mask, config: SolverConfig):
        if config.objective == "gr_static":
            raise ParameterError("the temporal solvers handle temporal objectives only; "
                                 "use solve_gr_static for the per-snapshot baseline")
        n_nodes, n_snapshots = mask.shape
        self.temporal = difference_operator(n_snapshots, config.temporal_step)
        self.mask = mask
        self.upsilon = config.upsilon
        if float(config.beta).is_integer():
            self._penalty = graph.laplacian_csr + config.epsilon * identity(n_nodes, format="csr")
            self._scaled = self.upsilon * self._penalty.data  # upsilon * (L + eps*I), same pattern
            self._repeats = int(config.beta)
        else:
            self._penalty = sobolev_power(graph.laplacian, config.epsilon, config.beta)
            self._scaled = None
            self._repeats = 1

    def smoothness(self, x) -> float:
        """tr((X D)^T (L + epsilon*I)^beta (X D))."""
        diff = product = self.temporal.apply(x)
        for _ in range(self._repeats):
            product = self._penalty @ product
        return float(np.sum(diff * product))

    @cached_property
    def _scratch(self):
        """Two N x M buffers for the stencil and the penalty factors, allocated on first use.

        Callers that only need :meth:`smoothness`, such as :func:`objective`,
        never allocate them.
        """
        return np.empty(self.mask.shape), np.empty(self.mask.shape)

    def smoothness_gradient(self, x, out=None) -> np.ndarray:
        """(L + epsilon*I)^beta X D D^T, written into ``out`` when given."""
        return self._apply(x, out, hessian=False)

    def hessian_action(self, v, out=None) -> np.ndarray:
        """J o V + upsilon * (L + epsilon*I)^beta V D D^T, written into ``out`` when given.

        ``out`` may be ``v`` itself. The result is bit-identical with and
        without ``out``: the allocating call makes its own ``out`` and runs
        the same steps.
        """
        return self._apply(v, out, hessian=True)

    def _apply(self, v, out, hessian) -> np.ndarray:
        """The one body of the action (``hessian``) and of the gradient; see the class."""
        spare, lifted = self._scratch
        self.temporal.scatter(v, spare, lifted)
        for _ in range(self._repeats - 1):
            spare.fill(0.0)
            _add_product(self._penalty, self._penalty.data, lifted, spare)
            spare, lifted = lifted, spare
        if out is None:
            out = np.empty(self.mask.shape)
        if hessian:
            np.multiply(self.mask, v, out=out)
        else:
            out.fill(0.0)
        if self._scaled is None:  # fractional beta: the dense power, into the free scratch
            np.matmul(self._penalty, lifted, out=spare)
            if hessian:
                spare *= self.upsilon
            out += spare
            return out
        return _add_product(self._penalty, self._scaled if hessian else self._penalty.data,
                            lifted, out)


def _add_product(matrix, data, v, out) -> np.ndarray:
    """out += A V, where A has ``matrix``'s CSR pattern and the values ``data``.

    Runs ``csr_matvecs``, the scipy kernel behind ``matrix @ v``: row i of
    ``out`` gains ``data[k] * v[indices[k]]`` for each stored entry k of row
    i, in CSR order. From a zeroed ``out`` the result is ``matrix @ v`` bit
    for bit. The kernel trusts the sizes it is given, so they are checked
    here. ``out`` must be a C-ordered float array; reshaping it raises
    rather than let the kernel write into a copy.
    """
    n_rows, n_cols = matrix.shape
    if v.shape[0] != n_cols or out.shape != (n_rows, v.shape[1]):
        raise ValueError(f"cannot add a {matrix.shape} matrix times a {v.shape} array "
                         f"into a {out.shape} array")
    _sparsetools.csr_matvecs(n_rows, n_cols, v.shape[1], matrix.indptr, matrix.indices, data,
                             v.ravel(), np.reshape(out, -1, copy=False))
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
    return _loss(*_residual(x_tilde, y, mask, graph), graph, config)


def _loss(x_tilde, mask, residual, graph, config: SolverConfig) -> float:
    """:func:`objective` on checked arrays and their residual J o X - Y."""
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


@np.errstate(over="ignore", invalid="ignore")  # the loop's finiteness checks report overflow
def solve_cg(y, mask, graph, config: SolverConfig, record_iterates=False) -> SolveResult:
    """Conjugate-gradient solve of the noisy reconstruction problem.

    Runs :func:`_fr_cg` from X = J o Y with the Hessian action
    H d = J o d + upsilon * (L + epsilon*I)^beta d D D^T, preconditioned by
    :func:`_temporal_preconditioner` unless the config says "none". A refresh
    sets g = H X - Y and reads the loss from f(X) = 1/2 <X, g - Y> + 1/2 ||Y||_F^2,
    which holds because supp(Y) lies inside J (the observations are J o Y).
    A singular H (:func:`_null_basis`) draws a warning on the ``tvgsr``
    logger, and the solve returns the minimum-norm minimizer, since J o Y and
    every gradient are orthogonal to null(H). With ``record_iterates`` the
    result keeps a copy of every iterate (small problems only). numpy's
    overflow and invalid-value warnings are silenced: a value that overflows
    reaches a gradient or curvature that is not finite, which raises
    :class:`NumericError`.
    """
    entry = time.perf_counter()
    y, mask = _check_problem(y, mask, graph)
    problem = ProblemOperator(graph, mask, config)
    observed = mask * y  # the observation model guarantees supp(Y) within the mask
    of = observed.ravel()
    half_observed_sq = 0.5 * float(np.dot(of, of))

    def refresh(x, g, h):  # g = H X - Y, and the loss from the identity with h as scratch
        problem.hessian_action(x, out=g)
        g -= observed
        hf = h.ravel()
        np.subtract(g.ravel(), of, out=hf)
        return 0.5 * float(np.dot(x.ravel(), hf)) + half_observed_sq

    precondition = _temporal_preconditioner(graph, mask, config, constrained=False)
    return _fr_cg("solve_cg", observed.copy(), problem.hessian_action, refresh, config,
                  entry, record_iterates, precondition)


@np.errstate(over="ignore", invalid="ignore")  # the loop's finiteness checks report overflow
def solve_noiseless(y, mask, graph, config: SolverConfig, record_iterates=False) -> SolveResult:
    """Conjugate-gradient solve of the equality-constrained (noiseless) problem.

    Minimizes 1/2 tr((XD)^T (L + epsilon*I)^beta (XD)) subject to J o X = Y,
    the minimizer of Qiu et al.'s noiseless scheme (IEEE TSP 2017). With the
    samples fixed, this is an unconstrained quadratic in the free entries:
    :func:`_fr_cg` runs from X = J o Y with the smoothness Hessian K V D D^T,
    zeroed on the samples, as its action, and the temporal preconditioner of
    that free block. A refresh reads the loss 1/2 <X, K X D D^T> from the
    gradient and then zeroes the gradient there too. So every direction is
    zero on the samples, and each iterate keeps them bit for bit. The free
    block is singular along null(H); as :func:`solve_cg`, the solve then warns
    and returns the minimum-norm minimizer, and overflow raises
    :class:`NumericError` without numpy's warnings.
    """
    entry = time.perf_counter()
    y, mask = _check_problem(y, mask, graph)
    problem = ProblemOperator(graph, mask, config)
    sampled = mask > 0
    if not sampled.any():
        raise InputError("mask selects no entries")

    def action(v, out):  # the smoothness Hessian on the free entries
        problem.smoothness_gradient(v, out=out)
        np.copyto(out, 0.0, where=sampled)

    def refresh(x, g, h):  # the loss 1/2 <X, K X D D^T>, then g zeroed on the samples
        problem.smoothness_gradient(x, out=g)
        loss = 0.5 * float(np.dot(x.ravel(), g.ravel()))
        np.copyto(g, 0.0, where=sampled)
        return loss

    precondition = _temporal_preconditioner(graph, mask, config, constrained=True)
    return _fr_cg("solve_noiseless", mask * y, action, refresh, config, entry, record_iterates,
                  precondition)


def _null_space(graph, mask, config):
    """N x s flags of the unsampled chains, (i, r) when node i has no sample at any
    t = r (mod s), and :func:`_null_basis`; warns of both."""
    step = config.temporal_step
    chains = np.stack([~np.any(mask[:, r::step] > 0, axis=1) for r in range(step)], axis=1)
    nodes = np.flatnonzero(chains.any(axis=1))
    if nodes.size:
        where = "" if step == 1 else f" on some chain of snapshots t = r (mod {step})"
        _log.warning("%d of %d nodes are never sampled%s (first: %s); the Hessian is singular "
                     "along each unsampled chain's indicator, e_i kron 1 at step 1, so the "
                     "reconstruction is not unique", nodes.size, chains.shape[0], where,
                     ", ".join(str(i) for i in nodes[:5]))
    return chains, _null_basis(graph, mask, config, chains)


def _null_basis(graph, mask, config, chains):
    """(B, solve): a sparse basis B of null(H), rows in C order, and a solve with B^T B.

    None when H is nonsingular, and under ``preconditioner="none"``, which never uses B; the
    levels beyond the unsampled chains are warned of either way. null(H) holds each
    X[i, t] = u(i) (w_C(t) + b_i(t mod s)) that is zero on the samples, with u spanning
    null(L) on node i's component C (ones, or sqrt(degree) for the normalized Laplacian;
    1 on an isolated node): w is free only at epsilon = 0, and b is constant on each (node,
    chain). A sample (i, t) ties b_i(t mod s) to -w_C(t), so join the vertex (i, t mod s)
    to the vertex (C, t). Each connected part P gives v_P[i, t] = u(i) ([(C, t) in P] -
    [(i, t mod s) in P]); on each (component, chain) the parts sum to zero, so all but
    those of (C, t), t < s, are a basis. At epsilon > 0 the vertices (C, t) are one per
    chain, (0, t mod s), all left out, and B is the unsampled chains. Each v_P vanishes on
    the samples, so B also spans the null space of :func:`solve_noiseless`'s free block.
    """
    (n, m), s = mask.shape, config.temporal_step
    if config.epsilon > 0.0 and not chains.any():
        return None
    n_components, labels = (1, np.zeros(n, dtype=int)) if config.epsilon > 0.0 else \
        connected_components(graph.adjacency_csr, directed=False)
    cells = s if config.epsilon > 0.0 else m
    nodes, times = np.nonzero(mask > 0)
    size = n * s + n_components * cells
    joined = coo_matrix((np.ones(nodes.size), (nodes * s + times % s,
                                               n * s + labels[nodes] * cells + times % cells)),
                        shape=(size, size))
    n_parts, part = connected_components(joined, directed=False)
    levels = n_parts - n_components * s - chains.sum()  # B's columns are the parts but (C, t < s)
    if levels > 0:
        _log.warning("%d (graph component, snapshot) levels are undetermined at epsilon = 0, "
                     "such as every forecast snapshot's; the minimum-norm reconstruction gives "
                     "each of them zero mean", levels)
    if n_parts == n_components * s or config.preconditioner == "none":
        return None
    keep = np.ones(n_parts, dtype=bool)
    keep[part[n * s:].reshape(n_components, cells)[:, :s]] = False
    cell = part[n * s + labels[:, None] * cells + np.arange(m) % cells]  # N x M: part of (C, t)
    chain = part[np.arange(n)[:, None] * s + np.arange(m) % s]  # and of (i, t mod s)
    u = np.ones(n) if graph.laplacian_kind == "combinatorial" else \
        np.where(graph.degrees > 0, np.sqrt(graph.degrees), 1.0)
    u = np.broadcast_to(u[:, None], (n, m))
    rows = np.arange(n * m).reshape(n, m)
    column = np.cumsum(keep) - 1
    plus, minus = keep[cell] & (cell != chain), keep[chain] & (cell != chain)
    basis = coo_matrix((np.concatenate([u[plus], -u[minus]]),
                        (np.concatenate([rows[plus], rows[minus]]),
                         column[np.concatenate([cell[plus], chain[minus]])])),
                       shape=(n * m, column[-1] + 1)).tocsr()
    return basis, splu((basis.T @ basis).tocsc(), permc_spec="MMD_AT_PLUS_A", **_LU_OPTIONS).solve


def _temporal_preconditioner(graph, mask, config, constrained):
    """``precondition(g, z)``, writing z = P M^-1 g for :func:`_fr_cg`, or None to run plain.

    M is the Hessian with K replaced by its diagonal (L_ii + epsilon)^beta,
    exact at beta 1: block Jacobi along the time axis. Node i's block is
    J_i + upsilon K_ii D D^T, and D D^T couples t only with t +- s, so with
    each row's snapshots in chain order, by (t mod s, t), M is one
    tridiagonal matrix over the NM unknowns, cut between chains. It is
    factored once by LAPACK's ``dpttrf`` and applied by one ``dpttrs`` per
    call, with a gather into chain order and back at step 2 or 3, into
    buffers allocated here. ``constrained`` builds the noiseless problem's M:
    upsilon is 1, and a sample's row and column are the identity's, so z is
    exactly 0 wherever g is. A zero diagonal entry (K_ii = 0 or upsilon = 0,
    without a sample) becomes 1; g is 0 there. An unsampled chain's block is
    singular along the chain's indicator, as H is: its diagonal is lifted by
    1e-8 of its coupling.

    P = I - B (B^T B)^-1 B^T, I when H is nonsingular, with B from
    :func:`_null_space`, which runs first and so warns of a singular H under
    ``preconditioner="none"`` too. Every g lies in null(H)^perp, so this is
    PCG with P M^-1 P, whose iterates stay there and reach the minimum-norm
    minimizer (Kaasschieter, J. Comput. Appl. Math. 24, 1988). The loop runs
    plain for ``preconditioner="none"`` and when the factorization fails.
    """
    chains, null = _null_space(graph, mask, config)
    if config.preconditioner == "none":
        return None
    m, s = mask.shape[1], config.temporal_step
    coupling = (graph.laplacian_csr.diagonal() + config.epsilon) ** config.beta
    if not constrained:
        coupling *= config.upsilon
    order = np.concatenate([np.arange(r, m, s) for r in range(s)])
    degree = (order >= s).astype(float) + (order + s < m)  # the diagonal of D D^T
    linked = np.append(order[1:] == order[:-1] + s, False)  # position k joins k + 1
    diagonal = coupling[:, None] * degree
    off = -coupling[:, None] * linked
    sampled = mask[:, order] > 0
    if constrained:
        diagonal[sampled] = 1.0
        off[sampled] = 0.0
        off[:, :-1][sampled[:, 1:]] = 0.0
    else:
        diagonal += sampled
    np.add(diagonal, _CHAIN_SHIFT * coupling[:, None], out=diagonal, where=chains[:, order % s])
    diagonal[diagonal == 0.0] = 1.0
    factor_d, factor_e, info = dpttrf(diagonal.ravel(), off.ravel()[:-1],
                                      overwrite_d=1, overwrite_e=1)
    if info != 0:
        _log.debug("dpttrf failed (info %d); running without the temporal preconditioner", info)
        return None
    inverse = np.argsort(order)
    gathered = np.empty(mask.shape) if s > 1 else None
    basis, solve = null or (None, None)

    def precondition(g, z):
        if gathered is None:
            line = z
            np.copyto(z, g)
        else:
            line = gathered
            np.take(g, order, axis=1, out=line, mode="clip")
        dpttrs(factor_d, factor_e, line.ravel(), overwrite_b=1)
        if gathered is not None:
            np.take(line, inverse, axis=1, out=z, mode="clip")
        if basis is not None:  # z -= B (B^T B)^-1 B^T z
            _add_product(basis, basis.data, -solve(basis.T @ z.ravel())[:, None], z.reshape(-1, 1))

    return precondition


def _fr_cg(name, x, action, refresh, config, entry, record_iterates,
           precondition=None) -> SolveResult:
    """The conjugate gradient loop of :func:`solve_cg` and :func:`solve_noiseless`.

    Minimizes a convex quadratic from ``x``, which it updates in place.
    ``action(v, out)`` writes the Hessian times ``v`` into ``out``, and
    ``refresh(x, g, h)`` writes the true gradient at ``x`` into ``g``, with
    ``h`` as scratch, and returns the loss. ``precondition(g, z)`` writes
    z = M^-1 g; without it z is g itself and the loop is the paper's
    Fletcher-Reeves CG, bit for bit. ``entry`` is when the caller began, for
    ``setup_s``.

    Each iteration steps by the exact line search mu = -<d, g> / <d, H d>
    along d = -z + gamma d_prev, gamma = <g, z> / <g_prev, z_prev>
    (||g||^2 / ||g_prev||^2 without a preconditioner). The direction is
    reset to -z every N*M iterations (``periodic``) or when it is no longer
    a descent direction (``lost_descent``, which also covers <g, z> <= 0).
    It stops when ||d||_F <= delta (``direction_norm``), when
    |<d, H d>| < 1e-300 (``zero_curvature``) or at max_iter; ``termination``
    reads ``converged`` for the first two. Near the answer d is about
    -M^-1 g, which for M close to H is the error, so the same delta serves
    both loops. The one action per iteration, h = H d, updates
    g <- g + mu h and the loss f <- f - <d, g>^2 / (2 <d, H d>); every 50
    iterations a refresh replaces both, so rounding cannot accumulate. A
    solve of k iterations thus makes k + 1 + floor(k / 50) actions and
    refreshes, one more if it stops on zero curvature. The iterate,
    gradient, preconditioned gradient, direction and action live in buffers
    allocated once; x <- x + mu d and g <- g + mu h are one BLAS ``daxpy``
    each on raveled views, and every inner product is one ``np.dot``, so an
    iteration allocates nothing.
    """
    g, d, h = (np.empty_like(x) for _ in range(3))
    z = g if precondition is None else np.empty_like(x)
    xf, gf, df, hf, zf = (a.ravel() for a in (x, g, d, h, z))
    # row t: loss after t iterations, then grad_norm, dir_norm, mu, gamma of iteration t
    record = np.empty((min(config.max_iter, _RECORD_CHUNK) + 1, 5))
    restarts = []

    def preconditioned(g_sq):  # <g, z> with z = M^-1 g
        if precondition is None:
            return g_sq
        precondition(g, z)
        return float(np.dot(gf, zf))

    start = time.perf_counter()
    f = record[0, 0] = refresh(x, g, h)
    actions = 1
    iterates = [x.copy()] if record_iterates else None

    g_sq = float(np.dot(gf, gf))
    if not np.isfinite(g_sq):
        raise NumericError("non-finite gradient at iteration 0")
    rho = preconditioned(g_sq)
    np.negative(z, out=d)
    slope = -rho  # <d, g>
    restart_every = x.size
    iterations = 0
    stop_reason = "max_iter"

    for t in range(config.max_iter):
        d_norm = math.sqrt(float(np.dot(df, df)))
        if d_norm <= config.delta:
            stop_reason = "direction_norm"
            break
        action(d, h)
        actions += 1
        denominator = float(np.dot(df, hf))
        if not np.isfinite(denominator):
            raise NumericError(f"non-finite curvature at iteration {t}")
        if abs(denominator) < _TINY_DENOMINATOR:
            stop_reason = "zero_curvature"
            break
        mu = -slope / denominator
        daxpy(df, xf, a=mu)  # x += mu d
        iterations = t + 1
        if iterations % _RESIDUAL_REFRESH == 0:
            f = refresh(x, g, h)
            actions += 1
        else:
            daxpy(hf, gf, a=mu)  # g += mu h
            f -= slope ** 2 / (2.0 * denominator)  # the exact line search's decrease
        if iterations == len(record):
            record = np.concatenate([record, np.empty_like(record)])
        record[iterations, 0] = f
        if iterates is not None:
            iterates.append(x.copy())

        g_new_sq = float(np.dot(gf, gf))
        if not np.isfinite(g_new_sq):
            raise NumericError(f"non-finite gradient at iteration {iterations}")
        rho_new = preconditioned(g_new_sq)
        restart = None
        if iterations % restart_every == 0:
            restart = "periodic"
        elif rho <= 0.0 or rho_new <= 0.0:
            restart = "lost_descent"
        else:
            gamma = rho_new / rho
            d *= gamma
            d -= z
            slope = float(np.dot(df, gf))
            if slope >= 0.0:
                restart = "lost_descent"
        if restart is not None:
            np.negative(z, out=d)
            gamma = 0.0
            slope = -rho_new
            restarts.append((iterations, restart))
        record[iterations, 1:] = (math.sqrt(g_new_sq), d_norm, mu, gamma)
        rho = rho_new

    end = time.perf_counter()
    rows = record[1:iterations + 1]
    stats = SolveStats(
        grad_norm=rows[:, 1].copy(), dir_norm=rows[:, 2].copy(), mu=rows[:, 3].copy(),
        gamma=rows[:, 4].copy(), restarts=tuple(restarts), hessian_actions=actions,
        stop_reason=stop_reason, setup_s=start - entry, iterate_s=end - start)
    _log.debug("%s: %s after %d iterations, %d restarts, %d Hessian actions",
               name, stop_reason, iterations, len(restarts), actions)
    return SolveResult(
        x_hat=x,
        iterations=iterations,
        loss_trace=record[:iterations + 1, 0].copy(),
        termination="max_iter" if stop_reason == "max_iter" else "converged",
        wall_time=end - start,
        iterates=iterates,
        stats=stats,
    )


def solve_gr_static(y, mask, graph, config: SolverConfig) -> SolveResult:
    """Per-snapshot graph-regularized baseline (no temporal coupling).

    Each column solves (diag(j_m) + upsilon * L) x = j_m o y_m, a symmetric
    positive semidefinite system built from the CSR Laplacian. The nodes are
    put in reverse Cuthill-McKee order once per call, which gathers a k-NN
    graph's Laplacian into a narrow band of half-bandwidth b. When b is at
    most ``_BAND_LIMIT``, each column copies the lower band of upsilon * L
    into one reused (b+1) x N buffer, adds j_m to its diagonal and solves by
    LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``). A hub widens the band
    to about N, where the band costs more than a sparse LU and its buffer
    would be N x N, so a graph with b above the limit takes one SuperLU
    factorization per column instead, in a fill-reducing order found once.

    Columns without any sample cannot be reconstructed by a purely spatial
    method; they are returned as zero vectors and listed in
    ``unsampled_columns``. A connected component of upsilon * L (at
    upsilon = 0 each node is its own component) without a sample in a column
    makes that column's system singular, and its minimum-norm answer is
    exactly zero there: such a column solves with 1 in place of j on the
    component's nodes, where the right-hand side is zero, so either path
    returns zeros on the component and the ordinary answer elsewhere. Only
    a column whose system still fails, where ``dpbtrf`` finds it not
    positive definite or the LU factors it as exactly singular, takes the
    minimum-norm least-squares solution in dense form, the only case that
    forms an N x N matrix.
    """
    y, mask = _check_problem(y, mask, graph)
    observed = mask * y
    lap = graph.laplacian_csr
    start = time.perf_counter()
    solve = _band_solver(lap, config.upsilon) or _lu_solver(lap, config.upsilon)
    labels = (np.arange(lap.shape[0]) if config.upsilon == 0.0
              else connected_components(lap, directed=False)[1])
    n_labels = int(labels.max(initial=-1)) + 1
    x_hat = np.zeros_like(observed)
    skipped = []
    for column in range(observed.shape[1]):
        j = mask[:, column]
        if not np.any(j > 0):
            skipped.append(column)
            continue
        rhs = j * observed[:, column]
        unsampled = np.bincount(labels[j > 0], minlength=n_labels)[labels] == 0
        x = solve(j + unsampled, rhs)
        if x is None:  # singular
            system = config.upsilon * lap.toarray()
            system[np.diag_indices_from(system)] += j
            x = np.linalg.lstsq(system, rhs, rcond=None)[0]
        x_hat[:, column] = x
    return SolveResult(
        x_hat=x_hat,
        iterations=0,
        loss_trace=np.asarray([_loss(x_hat, mask, mask * x_hat - observed, graph, config)]),
        termination="converged",
        wall_time=time.perf_counter() - start,
        unsampled_columns=tuple(skipped),
    )


def _band_solver(lap, upsilon):
    """gr_static's per-column solve of (diag(j) + upsilon * L) x = rhs by banded Cholesky
    in RCM order; None if singular.

    Returns None instead of a solver when the ordered Laplacian's half-bandwidth
    exceeds ``_BAND_LIMIT``.
    """
    n = lap.shape[0]
    order = reverse_cuthill_mckee(lap, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    entries = lap.tocoo()
    rows, cols = rank[entries.row], rank[entries.col]
    bandwidth = int(np.abs(rows - cols).max(initial=0))
    if bandwidth > _BAND_LIMIT:
        return None
    template = np.zeros((bandwidth + 1, n), order="F")  # LAPACK's lower band storage
    lower = rows >= cols
    template[rows[lower] - cols[lower], cols[lower]] = upsilon * entries.data[lower]
    band = np.empty_like(template, order="F")

    def solve(j, rhs):
        np.copyto(band, template)
        band[0] += j[order]
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            return None
        solution, _ = dpbtrs(factor, rhs[order], lower=1, overwrite_b=1)
        x = np.empty(n)
        x[order] = solution
        return x

    return solve


def _lu_solver(lap, upsilon):
    """gr_static's per-column solve of (diag(j) + upsilon * L) x = rhs by sparse LU; None
    if the column factors as exactly singular.

    Every diagonal entry of upsilon * L is stored, isolated nodes included, so
    all columns share one sparsity pattern: its fill-reducing ordering is found
    once, and each column factors pre-permuted in that order.
    """
    n = lap.shape[0]
    lap = lap.tocoo()
    nodes = np.arange(n)
    rows, cols = np.concatenate([lap.row, nodes]), np.concatenate([lap.col, nodes])
    values = np.concatenate([upsilon * lap.data, np.zeros(n)])
    # The ordering depends on the pattern alone; with zeros off the diagonal and a
    # positive diagonal, the pattern's matrix always factors.
    pattern = coo_matrix(((rows == cols).astype(float), (rows, cols)), shape=(n, n)).tocsc()
    order = splu(pattern, permc_spec="MMD_AT_PLUS_A", **_LU_OPTIONS).perm_c
    inverse = np.argsort(order)
    # upsilon * L in that order: entry (r, c) moves to (order[r], order[c]).
    smoothing = coo_matrix((values, (order[rows], order[cols])), shape=(n, n)).tocsc()
    diagonal = np.flatnonzero(smoothing.indices == np.repeat(nodes, np.diff(smoothing.indptr)))

    def solve(j, rhs):
        data = smoothing.data.copy()
        data[diagonal] += j[inverse]
        try:
            factor = splu(csc_matrix((data, smoothing.indices, smoothing.indptr), shape=(n, n)),
                          permc_spec="NATURAL", **_LU_OPTIONS)
        except RuntimeError:  # exactly singular
            return None
        x = np.empty(n)
        x[inverse] = factor.solve(rhs[inverse])
        return x

    return solve
