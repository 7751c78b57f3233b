"""Property tests of the Hessian action and the CG solve on small random problems (N*M <= 4000)."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tvgsr
from tvgsr import SolverConfig


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


def well_posed(graph, mask, config):
    """The Hessian's condition number is at most 1e6, so 1e-6 relative accuracy is in reach.

    This also leaves out singular Hessians, such as the one of an unsampled
    snapshot at epsilon=0 or of a never-sampled node. The oracle flags those
    and returns the minimum-norm solution; tests/test_solvers.py checks that
    solve_cg reaches it.
    """
    eigenvalues = np.linalg.eigvalsh(dense_hessian(graph, mask, config))
    return eigenvalues[0] >= 1e-6 * eigenvalues[-1]


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
def test_relabelling_the_nodes_relabels_the_solution(problem):
    graph, mask, y, config, rng = problem
    assume(well_posed(graph, mask, config))
    order = rng.permutation(graph.n_nodes)
    relabelled = tvgsr.Graph(graph.adjacency[np.ix_(order, order)],
                             laplacian_kind=graph.laplacian_kind)
    x_hat = tvgsr.solve_cg(y, mask, graph, config).x_hat
    x_relabelled = tvgsr.solve_cg(y[order], mask[order], relabelled, config).x_hat
    assert relative_difference(x_relabelled, x_hat[order]) < 1e-6
