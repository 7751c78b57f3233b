import tracemalloc

import numpy as np
import pytest

import tvgsr
from tvgsr import InputError, ParameterError


class TestDifferenceOperator:
    def test_one_step_matrix(self):
        op = tvgsr.difference_operator(3, 1)
        assert np.array_equal(op.matrix, np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]))

    def test_two_step_single_column(self):
        op = tvgsr.difference_operator(3, 2)
        assert np.array_equal(op.matrix, np.array([[-1.0], [0.0], [1.0]]))

    def test_column_sums_zero(self):
        for m, s in ((5, 1), (6, 2), (7, 3)):
            op = tvgsr.difference_operator(m, s)
            assert np.all(op.matrix.sum(axis=0) == 0.0)
            # exactly two nonzeros per column, s rows apart
            for j in range(op.n_differences):
                col = op.matrix[:, j]
                assert col[j] == -1.0 and col[j + s] == 1.0
                assert np.count_nonzero(col) == 2

    def test_too_few_snapshots(self):
        with pytest.raises(ParameterError):
            tvgsr.difference_operator(2, 2)

    def test_invalid_step(self):
        with pytest.raises(ParameterError):
            tvgsr.difference_operator(10, 4)

    def test_matrix_is_read_only(self):
        op = tvgsr.difference_operator(6, 2)
        assert not op.matrix.flags.writeable
        assert op.matrix is not op.matrix

    def test_stores_no_dense_matrix(self):
        tracemalloc.start()
        try:
            op = tvgsr.difference_operator(10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert op.n_differences == 10**6 - 1

    def test_scatter_matches_dense(self):
        rng = np.random.default_rng(3)
        for s in (1, 2, 3):
            for m in (s + 1, s + 2, 9):
                op = tvgsr.difference_operator(m, s)
                x = rng.normal(size=(5, m))
                out = op.scatter(x, np.full_like(x, np.nan), np.full_like(x, np.nan))
                assert np.allclose(out, x @ op.matrix @ op.matrix.T, rtol=0, atol=1e-14)


class TestTemporalDifference:
    def test_constant_in_time_is_zero(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
        diff = tvgsr.temporal_difference(x, tvgsr.difference_operator(4, 1))
        assert np.all(diff == 0.0)

    def test_direct_subtraction(self):
        x = np.array([[0.0, 1.0], [0.0, 2.0]])
        diff = tvgsr.temporal_difference(x, tvgsr.difference_operator(2, 1))
        assert np.array_equal(diff, np.array([[1.0], [2.0]]))

    def test_linear_ramp_telescopes(self):
        v = np.array([1.0, -2.0, 0.5])
        x = np.column_stack([t * v for t in range(5)])
        diff = tvgsr.temporal_difference(x, tvgsr.difference_operator(5, 1))
        assert np.allclose(diff, np.tile(v[:, None], (1, 4)))

    def test_single_snapshot_rejected(self):
        with pytest.raises(ParameterError):
            tvgsr.temporal_difference(np.ones((3, 1)), tvgsr.difference_operator(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            tvgsr.temporal_difference(np.ones((3, 4)), tvgsr.difference_operator(5, 1))

    def test_stencil_equals_dense_product_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(max(2, s + 1), 321))
            x = rng.normal(size=(int(rng.integers(1, 8)), m))
            op = tvgsr.difference_operator(m, s)
            assert tvgsr.temporal_difference(x, op).tobytes() == (x @ op.matrix).tobytes()


def two_snapshots(d):
    """A signal whose one 1-step difference column is d, so its smoothness is a form in d."""
    d = np.asarray(d, dtype=float)
    return np.column_stack([np.zeros_like(d), d])


class TestSobolevSmoothness:
    def test_constant_in_time(self, geo_graph):
        x = np.tile(np.arange(geo_graph.n_nodes, dtype=float)[:, None], (1, 5))
        op = tvgsr.difference_operator(5, 1)
        assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.4, 1.0) == 0.0

    def test_reduction_to_laplacian_smoothness(self, geo_graph):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(geo_graph.n_nodes, 4))
        op = tvgsr.difference_operator(4, 1)
        diff = x @ op.matrix
        expected = float(np.sum(diff * (geo_graph.laplacian @ diff)))
        assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.0, 1.0) == pytest.approx(
            expected, abs=1e-10)

    def test_trace_equals_columnwise_sum(self, geo_graph):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(geo_graph.n_nodes, 5))
        op = tvgsr.difference_operator(5, 1)
        diff = x @ op.matrix
        power = tvgsr.sobolev_power(geo_graph.laplacian, 0.2, 2.0)
        column_sum = sum(diff[:, t] @ (power @ diff[:, t]) for t in range(diff.shape[1]))
        assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.2, 2.0) == pytest.approx(
            column_sum, abs=1e-10)

    def test_nonnegative(self, geo_graph):
        rng = np.random.default_rng(14)
        for step in (1, 2, 3):
            x = rng.normal(size=(geo_graph.n_nodes, 6))
            op = tvgsr.difference_operator(6, step)
            assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.1, 1.5) >= -1e-10

    def test_single_edge_by_hand(self, two_node_graph):
        # L + 0.5 I = [[1.5, -1], [-1, 1.5]], whose quadratic form at [1, 0] is 1.5
        value = tvgsr.sobolev_smoothness(two_snapshots([1.0, 0.0]), tvgsr.difference_operator(2, 1),
                                         two_node_graph.laplacian, 0.5, 1.0)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_constant_difference_value(self, geo_graph):
        # L 1 = 0, so (L + eps I)^beta 1 = eps^beta 1 and the form is N eps^beta
        n = geo_graph.n_nodes
        x, op = two_snapshots(np.ones(n)), tvgsr.difference_operator(2, 1)
        for epsilon, beta in ((0.5, 1.0), (0.25, 2.0), (0.8, 1.5)):
            assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, epsilon, beta) == (
                pytest.approx(n * epsilon**beta, rel=1e-8))

    def test_scaling_is_quadratic(self, geo_graph):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(geo_graph.n_nodes, 4))
        op = tvgsr.difference_operator(4, 1)
        base = tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.3, 1.5)
        scaled = tvgsr.sobolev_smoothness(3.0 * x, op, geo_graph.laplacian, 0.3, 1.5)
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)

    def test_monotone_in_epsilon(self, geo_graph):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(geo_graph.n_nodes, 3))
        op = tvgsr.difference_operator(3, 1)
        values = [tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, eps, 1.0)
                  for eps in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_monotone_in_beta_when_epsilon_at_least_one(self, geo_graph):
        # every eigenvalue of L + eps I is >= 1, so its powers grow with beta
        rng = np.random.default_rng(17)
        x = rng.normal(size=(geo_graph.n_nodes, 3))
        op = tvgsr.difference_operator(3, 1)
        values = [tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 1.0, beta)
                  for beta in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert np.all(np.diff(values) >= -1e-10)

    def test_time_constant_offset_cancels(self, geo_graph):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(geo_graph.n_nodes, 5))
        offset = rng.normal(size=(geo_graph.n_nodes, 1))
        op = tvgsr.difference_operator(5, 2)
        assert tvgsr.sobolev_smoothness(x + offset, op, geo_graph.laplacian, 0.2, 1.5) == (
            pytest.approx(tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.2, 1.5),
                          rel=1e-10))

    def test_non_finite_parameters_rejected(self, geo_graph):
        x, op = two_snapshots(np.ones(geo_graph.n_nodes)), tvgsr.difference_operator(2, 1)
        for epsilon, beta in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
            with pytest.raises(ParameterError):
                tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, epsilon, beta)

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_sums_the_differences_step_apart(self, geo_graph, step):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(geo_graph.n_nodes, 7))
        power = tvgsr.sobolev_power(geo_graph.laplacian, 0.3, 2.0)
        expected = sum((x[:, j + step] - x[:, j]) @ (power @ (x[:, j + step] - x[:, j]))
                       for j in range(7 - step))
        value = tvgsr.sobolev_smoothness(x, tvgsr.difference_operator(7, step),
                                         geo_graph.laplacian, 0.3, 2.0)
        assert value == pytest.approx(expected, rel=1e-10)


class TestAlphaSmoothnessLevel:
    def test_constant_in_time(self, geo_graph):
        x = np.tile(np.linspace(0, 1, geo_graph.n_nodes)[:, None], (1, 3))
        op = tvgsr.difference_operator(3, 1)
        level = tvgsr.alpha_smoothness_level(x, op, geo_graph.laplacian)
        assert level == pytest.approx(0.0, abs=1e-12)

    def test_two_snapshot_case(self, geo_graph):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(geo_graph.n_nodes, 2))
        op = tvgsr.difference_operator(2, 1)
        d = x[:, 1] - x[:, 0]
        assert tvgsr.alpha_smoothness_level(x, op, geo_graph.laplacian) == pytest.approx(
            d @ (geo_graph.laplacian @ d), abs=1e-10)

    def test_single_edge_by_hand(self, two_node_graph):
        level = tvgsr.alpha_smoothness_level(two_snapshots([1.0, 0.0]),
                                             tvgsr.difference_operator(2, 1),
                                             two_node_graph.laplacian)
        assert level == pytest.approx(1.0)

    def test_path_graph_by_hand(self, path_graph3):
        # edges (1,2) and (2,3) with unit weight: (2-1)^2 + (4-2)^2
        level = tvgsr.alpha_smoothness_level(two_snapshots([1.0, 2.0, 4.0]),
                                             tvgsr.difference_operator(2, 1),
                                             path_graph3.laplacian)
        assert level == pytest.approx(5.0)

    def test_edge_sum_equivalence(self, geo_graph):
        rng = np.random.default_rng(6)
        w = geo_graph.adjacency
        op = tvgsr.difference_operator(2, 1)
        for _ in range(5):
            d = rng.normal(size=geo_graph.n_nodes)
            edge_sum = 0.0
            for i in range(geo_graph.n_nodes):
                for j in range(i + 1, geo_graph.n_nodes):
                    edge_sum += w[i, j] * (d[j] - d[i]) ** 2
            assert tvgsr.alpha_smoothness_level(two_snapshots(d), op, geo_graph.laplacian) == (
                pytest.approx(edge_sum, abs=1e-10))

    def test_normalized_laplacian_edge_sum(self):
        rng = np.random.default_rng(20)
        graph = tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(8, 2)), 3,
                                      laplacian_kind="normalized")
        w, scale = graph.adjacency, 1.0 / np.sqrt(graph.degrees)
        d = rng.normal(size=graph.n_nodes)
        edge_sum = sum(w[i, j] * (d[j] * scale[j] - d[i] * scale[i]) ** 2
                       for i in range(graph.n_nodes) for j in range(i + 1, graph.n_nodes))
        level = tvgsr.alpha_smoothness_level(two_snapshots(d), tvgsr.difference_operator(2, 1),
                                             graph.laplacian)
        assert level == pytest.approx(edge_sum, abs=1e-10)

    def test_level_is_the_mean_over_differences(self, geo_graph):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(geo_graph.n_nodes, 6))
        lap = geo_graph.laplacian
        for step in (1, 2, 3):
            columns = [x[:, j + step] - x[:, j] for j in range(6 - step)]
            mean = sum(d @ (lap @ d) for d in columns) / len(columns)
            level = tvgsr.alpha_smoothness_level(x, tvgsr.difference_operator(6, step), lap)
            assert level == pytest.approx(mean, rel=1e-10)

    def test_per_snapshot_constant_shift_cancels(self, geo_graph):
        # L 1 = 0 for the combinatorial Laplacian, so c_t * 1 added to snapshot t is invisible
        rng = np.random.default_rng(21)
        x = rng.normal(size=(geo_graph.n_nodes, 4))
        shifted = x + rng.normal(size=(1, 4))
        op = tvgsr.difference_operator(4, 1)
        assert tvgsr.alpha_smoothness_level(shifted, op, geo_graph.laplacian) == pytest.approx(
            tvgsr.alpha_smoothness_level(x, op, geo_graph.laplacian), rel=1e-10)

    def test_signal_rows_must_match_the_laplacian(self, two_node_graph):
        with pytest.raises(InputError):
            tvgsr.alpha_smoothness_level(np.ones((3, 2)), tvgsr.difference_operator(2, 1),
                                         two_node_graph.laplacian)

    def test_requires_two_snapshots(self, geo_graph):
        with pytest.raises(ParameterError):
            tvgsr.alpha_smoothness_level(np.ones((geo_graph.n_nodes, 1)),
                                         tvgsr.difference_operator(2, 1),
                                         geo_graph.laplacian)


class TestSpectralIdentity:
    def test_trace_penalization_identity(self, geo_graph):
        # tr(X^T L^beta X) equals the GFT-weighted eigenvalue sum
        rng = np.random.default_rng(16)
        spec = geo_graph.spectrum()
        x = rng.normal(size=(geo_graph.n_nodes, 4))
        x_hat = spec.eigenvectors.T @ x
        lam = np.clip(spec.eigenvalues, 0.0, None)
        for beta in (1.0, 2.0, 1.5):
            power = tvgsr.sobolev_power(geo_graph.laplacian, 0.0, beta)
            direct = float(np.sum(x * (power @ x)))
            spectral = float(np.sum(x_hat**2 * lam[:, None] ** beta))
            assert direct == pytest.approx(spectral, rel=1e-8)

    def test_sobolev_smoothness_spectral_form(self, geo_graph):
        # the smoothness weights each GFT coefficient of the differences by (lambda + eps)^beta
        rng = np.random.default_rng(22)
        spec = geo_graph.spectrum()
        x = rng.normal(size=(geo_graph.n_nodes, 5))
        op = tvgsr.difference_operator(5, 1)
        diff_hat = spec.eigenvectors.T @ (x @ op.matrix)
        lam = np.clip(spec.eigenvalues, 0.0, None)
        for epsilon, beta in ((0.1, 1.0), (0.5, 2.0), (0.2, 1.5)):
            spectral = float(np.sum(diff_hat**2 * (lam[:, None] + epsilon) ** beta))
            assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, epsilon, beta) == (
                pytest.approx(spectral, rel=1e-8))
