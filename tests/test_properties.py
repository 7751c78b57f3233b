"""Property tests of the Hessian action and the solvers on small random problems (N*M <= 4000)."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tvgsr
from tvgsr import SolverConfig
from conftest import free_block_minimizer


@st.composite
def problems(draw):
    """A k-NN graph, maybe with an isolated node, a mask, observations and a solver setting.

    The isolated node is sampled in every snapshot, since no smoothness term
    reaches it at epsilon=0. At upsilon=0 every entry is sampled, since only
    the data term is left.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 12))
    step = draw(st.integers(1, 3))
    m = draw(st.integers(step + 2, 10))
    kind = draw(st.sampled_from(["combinatorial", "normalized"]))
    isolated = draw(st.booleans())
    config = SolverConfig(upsilon=draw(st.sampled_from([0.0, 0.05, 3.0])),
                          epsilon=draw(st.sampled_from([0.0, 0.1])),
                          beta=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
                          objective="sobolev", temporal_step=step, delta=1e-10)
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a disconnected k-NN graph
        weights = tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(n, 2)),
                                        min(3, n - 1)).adjacency
    mask = (rng.random((n, m)) < 0.7).astype(float)
    if isolated:
        weights = np.pad(weights, ((0, 1), (0, 1)))
        mask = np.vstack([mask, np.ones((1, m))])
    if config.upsilon == 0.0:
        mask[:] = 1.0
    graph = tvgsr.Graph(weights, laplacian_kind=kind)
    y = mask * rng.normal(size=mask.shape)
    return graph, mask, y, config, rng


def dense_hessian(graph, mask, config):
    return tvgsr.spectral.hessian(mask, graph,
                                  tvgsr.difference_operator(mask.shape[1], config.temporal_step),
                                  config.upsilon, config.epsilon, config.beta)


def well_posed(graph, mask, config, kappa=1e6):
    """The Hessian's condition number is at most ``kappa``, 1e6 by default, so 1e-6
    relative accuracy is in reach.

    This also leaves out singular Hessians, such as the one of an unsampled
    snapshot at epsilon=0 or of a never-sampled node. The oracle flags those
    and returns the minimum-norm solution; tests/test_solvers.py checks that
    solve_cg reaches it.
    """
    eigenvalues = np.linalg.eigvalsh(dense_hessian(graph, mask, config))
    return eigenvalues[0] * kappa >= eigenvalues[-1]


def relabel(graph, rng):
    """A random node order and the graph with its nodes renumbered in that order."""
    order = rng.permutation(graph.n_nodes)
    return order, tvgsr.Graph(graph.adjacency[np.ix_(order, order)],
                              laplacian_kind=graph.laplacian_kind)


def relative_difference(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_hessian_action_matches_the_dense_hessian(problem):
    graph, mask, _, config, rng = problem
    n, m = mask.shape
    v = rng.normal(size=(n, m))
    action = tvgsr.solvers.ProblemOperator(graph, mask, config).hessian_action(v)
    dense = dense_hessian(graph, mask, config)
    expected = (dense @ v.ravel(order="F")).reshape((n, m), order="F")
    assert np.abs(action - expected).max() <= 1e-12 * np.abs(dense).max() * np.abs(v).max()


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_solve_cg_matches_the_dense_oracle(problem):
    graph, mask, y, config, _ = problem
    assume(well_posed(graph, mask, config))
    oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
    result = tvgsr.solve_cg(y, mask, graph, config)
    assert result.termination == "converged"
    assert relative_difference(result.x_hat, oracle.x_hat) < 1e-6


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_solve_noiseless_matches_the_free_block_minimizer(problem):
    """With S the smoothness Hessian, the free entries are -pinv(S_FF) S_FS y_S.

    The free blocks drawn here are small and well conditioned: in 400 draws
    every solve agreed within 4e-12, so no draw is filtered out. A never-sampled
    isolated node is not drawn (it is sampled in every snapshot);
    tests/test_solvers.py covers that case.
    """
    graph, mask, y, config, _ = problem
    smoothness = dense_hessian(graph, np.zeros_like(mask),
                               dataclasses.replace(config, upsilon=1.0))
    expected = free_block_minimizer(smoothness, y, mask)
    result = tvgsr.solve_noiseless(y, mask, graph, config)
    assert result.termination == "converged"
    assert np.linalg.norm(result.x_hat - expected) <= 1e-8 * np.linalg.norm(expected)
    assert np.array_equal(result.x_hat[mask > 0], y[mask > 0])


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_relabelling_the_nodes_relabels_the_solution(problem):
    graph, mask, y, config, rng = problem
    assume(well_posed(graph, mask, config))
    order, relabelled = relabel(graph, rng)
    x_hat = tvgsr.solve_cg(y, mask, graph, config).x_hat
    x_relabelled = tvgsr.solve_cg(y[order], mask[order], relabelled, config).x_hat
    assert relative_difference(x_relabelled, x_hat[order]) < 1e-6


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_relabelling_the_nodes_relabels_the_gr_static_solution(problem):
    """gr_static factors in reverse Cuthill-McKee order, which follows the node labels."""
    graph, mask, y, config, rng = problem
    config = dataclasses.replace(config, objective="gr_static")
    order, relabelled = relabel(graph, rng)
    x_hat = tvgsr.solve_gr_static(y, mask, graph, config).x_hat
    x_relabelled = tvgsr.solve_gr_static(y[order], mask[order], relabelled, config).x_hat
    assert relative_difference(x_relabelled, x_hat[order]) <= 1e-12


SCALED_SOLVERS = {  # name -> (objective, beta or None to keep the drawn one, solve)
    "cg_integer_beta": ("sobolev", 2.0, tvgsr.solve_cg),
    "cg_fractional_beta": ("sobolev", 0.5, tvgsr.solve_cg),
    "noiseless": ("sobolev", None, tvgsr.solve_noiseless),
    "gr_static": ("gr_static", None, tvgsr.solve_gr_static),
    "oracle": ("sobolev", None, tvgsr.dense_oracle_solve),
}


def scaled_solves(problem, name, a):
    """The solves of Y and of a Y, the latter at delta scaled by |a|."""
    graph, mask, y, config, _ = problem
    objective, beta, solve = SCALED_SOLVERS[name]
    config = dataclasses.replace(config, objective=objective, beta=beta or config.beta,
                                 max_iter=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = solve(y, mask, graph, config)
        scaled = solve(a * y, mask, graph,
                       dataclasses.replace(config, delta=config.delta * abs(a)))
    return base, scaled


@pytest.mark.parametrize("name", SCALED_SOLVERS)
@settings(max_examples=30, deadline=None)
@given(problem=problems(), k=st.integers(-8, 8))
def test_scaling_y_by_a_power_of_two_scales_the_solution_exactly(name, problem, k):
    a = 2.0 ** k
    base, scaled = scaled_solves(problem, name, a)
    assert np.array_equal(scaled.x_hat, a * base.x_hat)
    assert getattr(scaled, "iterations", None) == getattr(base, "iterations", None)


@pytest.mark.parametrize("name", ["cg_integer_beta", "cg_fractional_beta", "oracle"])
@settings(max_examples=30, deadline=None)
@given(problem=problems())
def test_scaling_y_by_three_scales_the_solution(name, problem):
    """3 Y rounds differently from Y, so two CG runs agree only as far as they resolve x_hat.

    CG is held to Hessians with condition number at most 1e3, where drawn
    problems agreed within 7.3e-10 (1,600 draws). Its iteration count is not
    checked: ||d|| can cross delta at another iteration, as it did in 7 to
    13% of those draws, mostly one iteration apart.
    """
    graph, mask, _, config, _ = problem
    assume(well_posed(graph, mask, dataclasses.replace(
        config, beta=SCALED_SOLVERS[name][1] or config.beta),
        kappa=1e6 if name == "oracle" else 1e3))
    base, scaled = scaled_solves(problem, name, 3.0)
    if name == "oracle":
        assert relative_difference(scaled.x_hat, 3.0 * base.x_hat) <= 1e-12
    else:
        assert base.termination == scaled.termination == "converged"
        assert relative_difference(scaled.x_hat, 3.0 * base.x_hat) <= 1e-8


ADDITIVE_SOLVERS = {  # name -> (objective, solve, largest condition number drawn, bound)
    "cg": ("sobolev", tvgsr.solve_cg, 1e3, 1e-8),
    "gr_static": ("gr_static", tvgsr.solve_gr_static, None, 1e-12),
    "oracle": ("sobolev", tvgsr.dense_oracle_solve, None, 1e-12),
}


@pytest.mark.parametrize("name", ADDITIVE_SOLVERS)
@settings(max_examples=30, deadline=None)
@given(problem=problems())
def test_the_solution_is_additive_in_y(name, problem):
    """x(Y1 + Y2) = x(Y1) + x(Y2). CG is held to the Hessians of the scaling test above."""
    graph, mask, y, config, rng = problem
    objective, solve, kappa, bound = ADDITIVE_SOLVERS[name]
    if kappa is not None:
        assume(well_posed(graph, mask, config, kappa=kappa))
    config = dataclasses.replace(config, objective=objective)
    y2 = mask * rng.normal(size=mask.shape)
    results = [solve(observed, mask, graph, config) for observed in (y, y2, y + y2)]
    if name == "cg":
        assert all(result.termination == "converged" for result in results)
    x1, x2, x_sum = (result.x_hat for result in results)
    assert relative_difference(x1 + x2, x_sum) <= bound


@st.composite
def hessian_problems(draw):
    """A graph, mask and Hessian setting from N*M = 2 up, maybe with an isolated node.

    The mask holds at least one sample, as every entry point requires. The
    isolated node misses one sample, which makes the Hessian singular at
    epsilon=0, so both a factored band and one that ``dpbtrf`` rejects are drawn.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    step = draw(st.integers(1, 3))
    m = draw(st.integers(step + 1, 8))
    weights = np.zeros((n, n))
    if n > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a disconnected k-NN graph
            weights = tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(n, 2)),
                                            min(3, n - 1)).adjacency
    mask = (rng.random((n, m)) < 0.7).astype(float)
    if not mask.any():
        mask[0, 0] = 1.0
    if draw(st.booleans()):
        weights = np.pad(weights, ((0, 1), (0, 1)))
        mask = np.vstack([mask, np.ones((1, m))])
        mask[-1, 0] = 0.0
    graph = tvgsr.Graph(weights, laplacian_kind=draw(st.sampled_from(["combinatorial",
                                                                      "normalized"])))
    return (mask, graph, tvgsr.difference_operator(m, step),
            draw(st.sampled_from([0.05, 0.3, 3.0])), draw(st.sampled_from([0.0, 0.1])),
            draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))


@settings(max_examples=150, deadline=None)
@given(problem=hessian_problems())
def test_hessian_extremes_match_the_dense_spectrum(problem):
    """Lanczos on the band factor, or a rejected factor's 0, within 1e-12 lambda_max of eigvalsh."""
    eigenvalues = np.linalg.eigvalsh(tvgsr.spectral.hessian(*problem))
    lam_min, lam_max = tvgsr.spectral._extremes(*problem)
    bound = 1e-12 * abs(eigenvalues[-1])
    assert abs(lam_min - eigenvalues[0]) <= bound
    assert abs(lam_max - eigenvalues[-1]) <= bound


def copied_band(matrix, width):
    """The upper band of a dense matrix in LAPACK's storage, copied one diagonal at a time."""
    band = np.zeros((width + 1, matrix.shape[0]), order="F")
    for offset in range(width + 1):
        band[width - offset, offset:] = np.diagonal(matrix, offset)
    return band


@settings(max_examples=150, deadline=None)
@given(problem=hessian_problems())
def test_direct_band_equals_the_band_of_the_dense_hessian(problem):
    """Byte for byte: at beta = 1, K's zeros times D D^T's -1 are -0.0 until the buffer's + 0.0."""
    mask, graph, op, upsilon, epsilon, beta = problem
    penalty = tvgsr.sobolev_power(graph.laplacian, epsilon, beta)
    band = tvgsr.spectral._band(mask, op.matrix @ op.matrix.T, penalty, upsilon, op.step)
    want = copied_band(tvgsr.spectral.hessian(*problem), (op.step + 1) * graph.n_nodes - 1)
    assert band.flags.f_contiguous
    assert band.shape == want.shape
    assert band.tobytes(order="F") == want.tobytes(order="F")
