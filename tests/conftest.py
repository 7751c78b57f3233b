import warnings

import numpy as np
import pytest

import tvgsr


@pytest.fixture
def two_node_graph():
    """Single edge of weight 1."""
    return tvgsr.Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def path_graph3():
    """Path 1-2-3 with unit weights."""
    w = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    return tvgsr.Graph(w)


@pytest.fixture
def geo_graph():
    """Small connected geometric graph for numeric tests."""
    rng = np.random.default_rng(42)
    coords = rng.uniform(0.0, 10.0, size=(8, 2))
    return tvgsr.build_knn_graph(coords, 3)


def random_geometric_graph(rng, n_nodes, k=2):
    coords = rng.uniform(0.0, 10.0, size=(n_nodes, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return tvgsr.build_knn_graph(coords, min(k, n_nodes - 1))


def connected_geometric_graph(rng, n_nodes, k=2):
    """Redraw coordinates until the k-NN graph is connected (standing assumption)."""
    for _ in range(100):
        graph = random_geometric_graph(rng, n_nodes, k)
        if graph.is_connected:
            return graph
    raise RuntimeError("could not draw a connected geometric graph")


def uniqueness_mask(rng, n_nodes, n_snapshots, density=0.6):
    """Draw random-entry masks until both uniqueness conditions hold."""
    for _ in range(200):
        mask = tvgsr.random_entry_mask(
            n_nodes, n_snapshots, density, int(rng.integers(0, 2**31))
        ).mask
        check = tvgsr.check_uniqueness(mask)
        if check.condition1 and check.condition2:
            return mask
    raise RuntimeError("could not draw a uniqueness-satisfying mask")


def free_block_minimizer(smoothness, y, mask):
    """The minimum-norm minimizer of 1/2 vec(X)^T S vec(X) subject to J o X = Y.

    ``smoothness`` is the dense S over column-major vec(X), such as
    ``spectral.hessian`` with a zero mask and upsilon 1. With the samples
    fixed, the free entries are x_F = -pinv(S_FF) S_FS y_S.
    """
    sampled = mask.ravel(order="F") > 0
    x = (mask * y).ravel(order="F")
    free_block = smoothness[np.ix_(~sampled, ~sampled)]
    x[~sampled] = -np.linalg.pinv(free_block) @ (smoothness[np.ix_(~sampled, sampled)]
                                                 @ x[sampled])
    return x.reshape(mask.shape, order="F")
