import pickle
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

import tvgsr
from tvgsr import InputError, ParameterError


def dense_knn_rule(coords, k):
    """The k-NN rule on a full distance matrix, kept as the reference.

    Stable argsort per row (ties to the lower index), self excluded, first k,
    union symmetrization over a set of (min, max) pairs.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    edges = set()
    for i in range(n):
        order = np.argsort(dist[i], kind="stable")
        order = order[order != i]
        for j in order[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    edge_idx = np.array(sorted(edges))
    lengths = dist[edge_idx[:, 0], edge_idx[:, 1]]
    sigma = float(lengths.mean())
    w = np.ones(len(edge_idx)) if sigma == 0.0 else np.exp(-(lengths**2) / sigma**2)
    weights = np.zeros((n, n))
    weights[edge_idx[:, 0], edge_idx[:, 1]] = w
    weights[edge_idx[:, 1], edge_idx[:, 0]] = w
    return weights, sigma


def _lattice(rows, cols, spacing=1.0, offset=0.0):
    grid = np.stack(np.meshgrid(np.arange(cols), np.arange(rows)), axis=-1).reshape(-1, 2)
    return grid * spacing + offset


_KNN_CASES = [
    # lattices: every interior node has four neighbors at one distance
    *[(_lattice(6, 7), k) for k in range(1, 42)],
    (_lattice(5, 5, spacing=0.1, offset=1e5), 4),
    (_lattice(4, 9, spacing=1e-7), 6),
    # duplicated points, some with more copies than k
    (np.repeat(np.random.default_rng(1).uniform(0, 5, size=(10, 2)), 3, axis=0), 5),
    (np.repeat(np.random.default_rng(2).uniform(0, 5, size=(6, 2)), 4, axis=0), 2),
    (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 1),
    (np.array([[1.0, 2.0], [1.0, 2.0]]), 1),
    # integer coordinates on a small box: many ties at many distances
    *[(np.round(np.random.default_rng(3).uniform(0, 4, size=(60, 2))), k)
      for k in (1, 3, 8, 30, 59)],
    *[(np.random.default_rng(4).uniform(0, 100, size=(n, 2)), k)
      for n, k in ((2, 1), (40, 1), (40, 39), (300, 10))],
]


class TestKnnAgainstDenseRule:
    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("case", range(len(_KNN_CASES)))
    def test_adjacency_and_sigma_bit_identical(self, case, kind):
        coords, k = _KNN_CASES[case]
        weights, sigma = dense_knn_rule(coords, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            graph = tvgsr.build_knn_graph(coords, k, laplacian_kind=kind)
        assert np.array_equal(graph.adjacency, weights)
        assert graph.sigma == sigma
        assert np.array_equal(graph.laplacian,
                              tvgsr.Graph(weights, laplacian_kind=kind).laplacian)


class TestBuildKnnGraph:
    def test_two_nodes_kernel_value(self):
        # single edge of length 5 -> sigma = 5, weight exp(-25/25) = exp(-1)
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        graph = tvgsr.build_knn_graph(coords, 1)
        assert graph.sigma == pytest.approx(5.0)
        assert graph.adjacency[0, 1] == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_identical_coordinates_weight_one(self):
        coords = np.array([[1.0, 2.0], [1.0, 2.0]])
        graph = tvgsr.build_knn_graph(coords, 1)
        assert graph.adjacency[0, 1] == 1.0

    def test_three_collinear_union_symmetrization(self):
        # nodes at 0, 1, 3: union edges {(0,1), (1,2)}, sigma = (1+2)/2
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        graph = tvgsr.build_knn_graph(coords, 1)
        assert graph.sigma == pytest.approx(1.5)
        assert graph.adjacency[0, 1] == pytest.approx(np.exp(-1.0 / 2.25), abs=1e-14)
        assert graph.adjacency[1, 2] == pytest.approx(np.exp(-4.0 / 2.25), abs=1e-14)
        assert graph.adjacency[0, 2] == 0.0

    def test_k_out_of_range(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            tvgsr.build_knn_graph(coords, 0)
        with pytest.raises(ParameterError):
            tvgsr.build_knn_graph(coords, 2)

    def test_non_finite_coordinates(self):
        coords = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]])
        with pytest.raises(InputError):
            tvgsr.build_knn_graph(coords, 1)

    def test_symmetrization_property(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 100, size=(20, 2))
        graph = tvgsr.build_knn_graph(coords, 4)
        w = graph.adjacency
        positive = w > 0
        assert np.array_equal(positive, positive.T)
        assert np.array_equal(w, w.T)

    def test_kernel_monotone_in_distance(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(0, 100, size=(15, 2))
        graph = tvgsr.build_knn_graph(coords, 3)
        idx = np.argwhere(np.triu(graph.adjacency) > 0)
        dists = np.linalg.norm(coords[idx[:, 0]] - coords[idx[:, 1]], axis=1)
        weights = graph.adjacency[idx[:, 0], idx[:, 1]]
        order = np.argsort(dists)
        assert np.all(np.diff(weights[order]) <= 1e-15)

    def test_disconnected_warning_and_flag(self):
        # two far clusters, k=1 keeps them apart
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [500.0, 0.0], [500.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            graph = tvgsr.build_knn_graph(coords, 1)
        assert not graph.is_connected
        assert graph.n_components == 2

    def test_duplicate_rows_allowed(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        graph = tvgsr.build_knn_graph(coords, 1)
        assert graph.n_nodes == 3


class TestLaplacian:
    def test_two_node_identity_case(self, two_node_graph):
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(two_node_graph.laplacian, expected)

    def test_row_sums_cancel(self, geo_graph):
        ones = np.ones(geo_graph.n_nodes)
        assert np.abs(geo_graph.laplacian @ ones).max() < 1e-12

    def test_path_graph_by_hand(self, path_graph3):
        expected = np.array([
            [1.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 1.0],
        ])
        assert np.allclose(path_graph3.laplacian, expected)

    def test_symmetry_tolerance(self, geo_graph):
        lap = geo_graph.laplacian
        assert np.abs(lap - lap.T).max() <= 1e-12

    def test_normalized_spectrum_in_0_2(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 50, size=(12, 2))
        graph = tvgsr.build_knn_graph(coords, 3, laplacian_kind="normalized")
        eigenvalues = graph.spectrum().eigenvalues
        assert eigenvalues.min() >= -1e-10
        assert eigenvalues.max() <= 2.0 + 1e-10

    def test_normalized_isolated_node_zero_row(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        graph = tvgsr.Graph(w, laplacian_kind="normalized")
        lap = graph.laplacian
        assert np.all(lap[2] == 0.0)
        assert np.all(lap[:, 2] == 0.0)

    def test_positive_semidefinite(self, geo_graph):
        assert tvgsr.spectrum(geo_graph.laplacian).eigenvalues.min() >= -1e-10

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_max_eigenvalue_matches_dense(self, kind):
        rng = np.random.default_rng(5)
        graph = tvgsr.build_knn_graph(rng.uniform(0, 50, size=(40, 2)), 4, laplacian_kind=kind)
        expected = np.linalg.eigvalsh(graph.laplacian)[-1]
        assert graph.max_eigenvalue() == pytest.approx(expected, rel=1e-13)
        assert graph.max_eigenvalue() == graph.max_eigenvalue()

    def test_max_eigenvalue_small_graphs(self, two_node_graph):
        assert two_node_graph.max_eigenvalue() == pytest.approx(2.0, rel=1e-14)
        assert tvgsr.Graph(np.zeros((1, 1))).max_eigenvalue() == 0.0

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_csr_form_built_lazily_and_equal(self, geo_graph, kind):
        graph = tvgsr.Graph(geo_graph.adjacency, laplacian_kind=kind)
        assert graph._laplacian_csr is None
        assert np.array_equal(graph.laplacian_csr.toarray(), graph.laplacian)
        assert graph.laplacian_csr is graph.laplacian_csr


class TestSpectrum:
    def test_two_node_eigenvalues(self):
        spec = tvgsr.spectrum(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0])

    def test_zero_matrix(self):
        spec = tvgsr.spectrum(np.zeros((4, 4)))
        assert np.all(spec.eigenvalues == 0.0)

    def test_identity_matrix(self):
        spec = tvgsr.spectrum(np.eye(5))
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            tvgsr.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self, geo_graph):
        lap = geo_graph.laplacian
        spec = tvgsr.spectrum(lap)
        u = spec.eigenvectors
        assert np.abs(u.T @ u - np.eye(lap.shape[0])).max() < 1e-10
        rebuilt = (u * spec.eigenvalues) @ u.T
        rel = np.linalg.norm(rebuilt - lap) / np.linalg.norm(lap)
        assert rel < 1e-8

    def test_eigenvalues_ascending(self, geo_graph):
        eigenvalues = geo_graph.spectrum().eigenvalues
        assert np.all(np.diff(eigenvalues) >= -1e-14)


class TestGft:
    def test_eigenvector_maps_to_basis(self, path_graph3):
        spec = path_graph3.spectrum()
        x_hat = tvgsr.gft(spec.eigenvectors[:, 0], spec)
        expected = np.zeros(3)
        expected[0] = 1.0
        assert np.allclose(np.abs(x_hat), expected, atol=1e-12)

    def test_zero_signal(self, path_graph3):
        assert np.all(tvgsr.gft(np.zeros(3), path_graph3.spectrum()) == 0.0)

    def test_round_trip(self, geo_graph):
        rng = np.random.default_rng(9)
        spec = geo_graph.spectrum()
        x = rng.normal(size=geo_graph.n_nodes)
        back = tvgsr.inverse_gft(tvgsr.gft(x, spec), spec)
        assert np.abs(back - x).max() < 1e-10

    def test_dimension_mismatch(self, path_graph3):
        with pytest.raises(InputError):
            tvgsr.gft(np.zeros(4), path_graph3.spectrum())


class TestSobolevPower:
    def test_identity_of_construction(self, geo_graph):
        lap = geo_graph.laplacian
        assert np.array_equal(tvgsr.sobolev_power(lap, 0.0, 1.0), lap)

    def test_direct_addition(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(tvgsr.sobolev_power(lap, 1.0, 1.0), expected)

    def test_square_matches_repeated_multiplication(self, geo_graph):
        lap = geo_graph.laplacian
        shifted = lap + 0.5 * np.eye(lap.shape[0])
        assert np.abs(tvgsr.sobolev_power(lap, 0.5, 2.0) - shifted @ shifted).max() < 1e-10

    def test_spectral_path_matches_multiplication_oracle(self, geo_graph):
        # beta = 5 exceeds the direct-multiplication threshold
        lap = geo_graph.laplacian
        shifted = lap + 0.3 * np.eye(lap.shape[0])
        oracle = np.linalg.matrix_power(shifted, 5)
        result = tvgsr.sobolev_power(lap, 0.3, 5.0)
        assert np.abs(result - oracle).max() / np.abs(oracle).max() < 1e-10

    def test_half_power_squares_back(self, geo_graph):
        lap = geo_graph.laplacian
        root = tvgsr.sobolev_power(lap, 0.7, 0.5)
        assert np.abs(root @ root - (lap + 0.7 * np.eye(lap.shape[0]))).max() < 1e-10

    def test_parameter_errors(self, geo_graph):
        with pytest.raises(ParameterError):
            tvgsr.sobolev_power(geo_graph.laplacian, -0.1, 1.0)
        with pytest.raises(ParameterError):
            tvgsr.sobolev_power(geo_graph.laplacian, 0.0, 0.0)

    def test_symmetric_positive_definite(self, geo_graph):
        for epsilon, beta in ((0.2, 1.0), (0.5, 2.0), (1.0, 1.5)):
            power = tvgsr.sobolev_power(geo_graph.laplacian, epsilon, beta)
            assert np.abs(power - power.T).max() <= 1e-12
            assert np.linalg.eigvalsh(power).min() >= epsilon**beta - 1e-10


class TestGraphValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            tvgsr.Graph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(InputError):
            tvgsr.Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_self_loops(self):
        with pytest.raises(InputError):
            tvgsr.Graph(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_adjacency_is_immutable(self, two_node_graph):
        with pytest.raises(ValueError):
            two_node_graph.adjacency[0, 1] = 5.0

    @pytest.mark.parametrize("weights, message", [
        ([[0.0, 1.0], [2.0, 0.0]], "adjacency is not symmetric"),
        ([[0.0, -1.0], [-1.0, 0.0]], "adjacency weights must be nonnegative"),
        ([[1.0, 1.0], [1.0, 0.0]], "adjacency diagonal must be zero"),
        ([[0.0, np.nan], [np.nan, 0.0]], "adjacency contains non-finite entries"),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], "adjacency must be square"),
    ])
    @pytest.mark.parametrize("form", [np.array, csr_matrix, coo_matrix])
    def test_dense_and_sparse_inputs_rejected_alike(self, weights, message, form):
        with pytest.raises(InputError, match=message):
            tvgsr.Graph(form(np.array(weights)))

    def test_symmetry_tolerance_is_relative_on_sparse_input(self):
        weights = np.array([[0.0, 1e6], [1e6 * (1 + 1e-12), 0.0]])  # 1e-6 apart: within 1e-4
        tvgsr.Graph(csr_matrix(weights))
        weights[1, 0] = 1e6 * (1 + 1e-9)
        with pytest.raises(InputError, match="not symmetric"):
            tvgsr.Graph(csr_matrix(weights))
        one_sided = np.array([[0.0, 1e-12], [0.0, 0.0]])  # stored on one side only
        assert tvgsr.Graph(csr_matrix(one_sided)).n_components == 1
        with pytest.raises(InputError, match="not symmetric"):
            tvgsr.Graph(csr_matrix(one_sided * 1e3))


def dense_rule(weights, kind):
    """The dense construction the CSR graph reproduces: degrees, Laplacian, components."""
    degrees = weights.sum(axis=1)
    lap = np.diag(degrees) - weights
    if kind == "normalized":
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
        scaled = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
        lap = 0.5 * (scaled + scaled.T)
    n_components = connected_components(csr_matrix(weights > 0), directed=False)[0]
    return degrees, lap, csr_matrix(lap), n_components


def bits(array):
    return array.dtype, array.shape, array.tobytes()


@st.composite
def adjacencies(draw):
    """Nonnegative weights with a zero diagonal, symmetric to the 1e-10 tolerance.

    Some nodes are isolated and some graphs disconnected; optionally one
    weight is off its mirror by 1e-13 relative, and one tiny weight has no
    mirror at all.
    """
    n = draw(st.integers(1, 40))
    weight = st.one_of(st.just(0.0), st.just(0.0), st.floats(1e-3, 1e3))
    upper = np.triu(draw(hnp.arrays(np.float64, (n, n), elements=weight)), 1)
    weights = upper + upper.T
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=3))
    weights[isolated, :] = 0.0
    weights[:, isolated] = 0.0
    edges = np.argwhere(np.triu(weights) > 0)
    if len(edges) and draw(st.booleans()):
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        weights[i, j] *= 1.0 + 1e-13
    if n > 1 and draw(st.booleans()):  # a weight within the tolerance, its mirror unset
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if weights[j, i] == 0.0:
            weights[i, j] = 1e-12
    return weights


class TestCsrGraphAgainstDenseRule:
    @settings(max_examples=60, deadline=None)
    @given(weights=adjacencies(), kind=st.sampled_from(["combinatorial", "normalized"]))
    def test_dense_and_sparse_inputs_match_the_dense_rule_bit_for_bit(self, weights, kind):
        degrees, lap, lap_csr, n_components = dense_rule(weights, kind)
        halves = coo_matrix(weights / 2)  # duplicates that sum back to the weights exactly
        duplicated = coo_matrix((np.concatenate([halves.data, halves.data]),
                                 (np.concatenate([halves.row, halves.row]),
                                  np.concatenate([halves.col, halves.col]))), shape=weights.shape)
        for adjacency in (weights, csr_matrix(weights), duplicated):
            graph = tvgsr.Graph(adjacency, laplacian_kind=kind)
            assert bits(graph.adjacency) == bits(weights)
            assert bits(graph.degrees) == bits(degrees)
            assert bits(graph.laplacian) == bits(lap)
            for part in ("data", "indices", "indptr"):
                assert bits(getattr(graph.laplacian_csr, part)) == bits(getattr(lap_csr, part))
            assert graph.n_components == n_components
            assert graph.is_connected == (n_components == 1)

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_large_degree_sums_match_numpy_row_sums(self, kind):
        # rows longer than the dense block and than numpy's pairwise-sum leaves
        rng = np.random.default_rng(7)
        graph = tvgsr.build_knn_graph(rng.uniform(0, 100, size=(3000, 2)), 12,
                                      laplacian_kind=kind)
        weights = graph.adjacency
        assert bits(graph.degrees) == bits(weights.sum(axis=1))
        assert bits(graph.laplacian) == bits(dense_rule(weights, kind)[1])


class TestCsrStorage:
    def test_dense_views_are_read_only_and_built_on_each_access(self, geo_graph):
        for view in ("adjacency", "laplacian"):
            first = getattr(geo_graph, view)
            assert not first.flags.writeable
            assert first is not getattr(geo_graph, view)
            assert np.array_equal(first, getattr(geo_graph, view))
        for array in (geo_graph.adjacency_csr.data, geo_graph.adjacency_csr.indices,
                      geo_graph.adjacency_csr.indptr, geo_graph.degrees):
            assert not array.flags.writeable

    def test_input_is_copied(self):
        weights = csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        graph = tvgsr.Graph(weights)
        weights.data[:] = 5.0
        assert graph.adjacency[0, 1] == 1.0

    def test_build_and_laplacian_allocate_no_dense_matrix(self):
        n = 5000
        coords = np.random.default_rng(8).uniform(0.0, 100.0, size=(n, 2))
        tracemalloc.start()
        try:
            graph = tvgsr.build_knn_graph(coords, 10)
            graph.laplacian_csr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10

    def test_pickle_carries_no_dense_matrix(self):
        graph = tvgsr.build_knn_graph(np.random.default_rng(9).uniform(0, 100, (1000, 2)), 10)
        graph.laplacian_csr
        assert len(pickle.dumps(graph)) < 1_000_000
        small = tvgsr.build_knn_graph(np.random.default_rng(10).uniform(0, 100, (60, 2)), 4)
        small.laplacian_csr
        size = len(pickle.dumps(small))
        spectrum = small.spectrum()
        assert len(pickle.dumps(small)) == size  # the cached spectrum is not shipped
        copy = pickle.loads(pickle.dumps(small))
        assert np.array_equal(copy.spectrum().eigenvalues, spectrum.eigenvalues)
        assert bits(copy.laplacian) == bits(small.laplacian)

    def test_unpickled_arrays_stay_read_only(self, geo_graph):
        def arrays(graph):
            csr, lap = graph.adjacency_csr, graph._laplacian_csr
            return (csr.data, csr.indices, csr.indptr, graph.degrees,
                    lap.data, lap.indices, lap.indptr)

        fresh = tvgsr.Graph(geo_graph.adjacency_csr)
        assert fresh._laplacian_csr is None
        copy = pickle.loads(pickle.dumps(fresh))
        assert copy._laplacian_csr is None and not copy.degrees.flags.writeable
        geo_graph.laplacian_csr
        copy = pickle.loads(pickle.dumps(geo_graph))
        assert all(not array.flags.writeable for array in arrays(copy))
        assert bits(copy.laplacian) == bits(geo_graph.laplacian)
