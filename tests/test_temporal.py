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


class TestLocalVariation:
    def test_constant_signal(self, path_graph3):
        for node in range(3):
            assert tvgsr.local_variation(np.ones(3), path_graph3, node) == 0.0

    def test_single_edge(self, two_node_graph):
        x = np.array([1.0, 0.0])
        assert tvgsr.local_variation(x, two_node_graph, 0) == pytest.approx(1.0)
        assert tvgsr.local_variation(x, two_node_graph, 1) == pytest.approx(1.0)

    def test_isolated_node(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        graph = tvgsr.Graph(w)
        assert tvgsr.local_variation(np.array([1.0, 2.0, 5.0]), graph, 2) == 0.0

    def test_out_of_range(self, two_node_graph):
        with pytest.raises(InputError):
            tvgsr.local_variation(np.zeros(2), two_node_graph, 2)


class TestDirichletForm:
    def test_constant_is_zero(self, path_graph3):
        for p in (1.0, 2.0, 3.0):
            assert tvgsr.dirichlet_form(np.full(3, 4.2), path_graph3, p) == 0.0

    def test_single_edge_p2_matches_quadratic(self, two_node_graph):
        x = np.array([1.0, 0.0])
        value = tvgsr.dirichlet_form(x, two_node_graph, 2.0)
        assert value == pytest.approx(1.0)
        assert value == pytest.approx(
            tvgsr.laplacian_quadratic(x, two_node_graph.laplacian), abs=1e-10)

    def test_single_edge_p1(self, two_node_graph):
        assert tvgsr.dirichlet_form(np.array([1.0, 0.0]), two_node_graph, 1.0) == pytest.approx(2.0)

    def test_p2_equals_quadratic_random(self, geo_graph):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=geo_graph.n_nodes)
            assert tvgsr.dirichlet_form(x, geo_graph, 2.0) == pytest.approx(
                tvgsr.laplacian_quadratic(x, geo_graph.laplacian), abs=1e-10)

    def test_invalid_p(self, two_node_graph):
        with pytest.raises(ParameterError):
            tvgsr.dirichlet_form(np.zeros(2), two_node_graph, 0.0)


class TestLaplacianQuadratic:
    def test_constant_vector(self, geo_graph):
        assert abs(tvgsr.laplacian_quadratic(3.7 * np.ones(geo_graph.n_nodes),
                                             geo_graph.laplacian)) < 1e-10

    def test_single_edge(self, two_node_graph):
        assert tvgsr.laplacian_quadratic(np.array([1.0, 0.0]),
                                         two_node_graph.laplacian) == pytest.approx(1.0)

    def test_edge_sum_equivalence(self, geo_graph):
        rng = np.random.default_rng(6)
        w = geo_graph.adjacency
        for _ in range(5):
            x = rng.normal(size=geo_graph.n_nodes)
            edge_sum = 0.0
            for i in range(geo_graph.n_nodes):
                for j in range(i + 1, geo_graph.n_nodes):
                    edge_sum += w[i, j] * (x[j] - x[i]) ** 2
            assert tvgsr.laplacian_quadratic(x, geo_graph.laplacian) == pytest.approx(
                edge_sum, abs=1e-10)

    def test_dimension_mismatch(self, two_node_graph):
        with pytest.raises(InputError):
            tvgsr.laplacian_quadratic(np.zeros(3), two_node_graph.laplacian)


class TestS2TimeVarying:
    def test_constant_columns(self, geo_graph):
        x = np.tile(np.ones((geo_graph.n_nodes, 1)), (1, 4)) * 2.5
        assert abs(tvgsr.s2_time_varying(x, geo_graph.laplacian)) < 1e-10

    def test_single_column_reduces(self, geo_graph):
        rng = np.random.default_rng(7)
        x = rng.normal(size=geo_graph.n_nodes)
        assert tvgsr.s2_time_varying(x[:, None], geo_graph.laplacian) == pytest.approx(
            tvgsr.laplacian_quadratic(x, geo_graph.laplacian), abs=1e-12)

    def test_trace_equals_column_sum(self, geo_graph):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(geo_graph.n_nodes, 5))
        column_sum = sum(tvgsr.laplacian_quadratic(x[:, t], geo_graph.laplacian)
                         for t in range(5))
        assert tvgsr.s2_time_varying(x, geo_graph.laplacian) == pytest.approx(
            column_sum, abs=1e-10)


class TestSobolevNorm:
    def test_reduction_to_quadratic(self, geo_graph):
        rng = np.random.default_rng(9)
        x = rng.normal(size=geo_graph.n_nodes)
        assert tvgsr.sobolev_norm(x, geo_graph.laplacian, 0.0, 1.0) == pytest.approx(
            tvgsr.laplacian_quadratic(x, geo_graph.laplacian), abs=1e-12)

    def test_constant_vector_value(self, geo_graph):
        # L 1 = 0, so (L + eps I)^beta 1 = eps^beta 1 and the form is N eps^beta
        n = geo_graph.n_nodes
        ones = np.ones(n)
        for epsilon, beta in ((0.5, 1.0), (0.25, 2.0), (0.8, 1.5)):
            assert tvgsr.sobolev_norm(ones, geo_graph.laplacian, epsilon, beta) == pytest.approx(
                n * epsilon**beta, rel=1e-8)

    def test_single_edge_by_hand(self, two_node_graph):
        # [[1.5, -1], [-1, 1.5]] quadratic form at [1, 0] is 1.5
        value = tvgsr.sobolev_norm(np.array([1.0, 0.0]), two_node_graph.laplacian, 0.5, 1.0)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_scaling_quadratic(self, geo_graph):
        rng = np.random.default_rng(10)
        x = rng.normal(size=geo_graph.n_nodes)
        base = tvgsr.sobolev_norm(x, geo_graph.laplacian, 0.3, 1.5)
        scaled = tvgsr.sobolev_norm(3.0 * x, geo_graph.laplacian, 0.3, 1.5)
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)

    def test_monotone_in_epsilon(self, geo_graph):
        rng = np.random.default_rng(11)
        x = rng.normal(size=geo_graph.n_nodes)
        values = [tvgsr.sobolev_norm(x, geo_graph.laplacian, eps, 1.0)
                  for eps in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(values) >= -1e-12)


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
        column_sum = sum(
            tvgsr.sobolev_norm(diff[:, t], geo_graph.laplacian, 0.2, 2.0)
            for t in range(diff.shape[1]))
        assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.2, 2.0) == pytest.approx(
            column_sum, abs=1e-10)

    def test_nonnegative(self, geo_graph):
        rng = np.random.default_rng(14)
        for step in (1, 2, 3):
            x = rng.normal(size=(geo_graph.n_nodes, 6))
            op = tvgsr.difference_operator(6, step)
            assert tvgsr.sobolev_smoothness(x, op, geo_graph.laplacian, 0.1, 1.5) >= -1e-10


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
            tvgsr.laplacian_quadratic(d, geo_graph.laplacian), abs=1e-10)

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
        x_hat = tvgsr.gft(x, spec)
        lam = np.clip(spec.eigenvalues, 0.0, None)
        for beta in (1.0, 2.0, 1.5):
            power = tvgsr.sobolev_power(geo_graph.laplacian, 0.0, beta)
            direct = float(np.sum(x * (power @ x)))
            spectral = float(np.sum(x_hat**2 * lam[:, None] ** beta))
            assert direct == pytest.approx(spectral, rel=1e-8)
