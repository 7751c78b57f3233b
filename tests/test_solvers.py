import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import tvgsr
from tvgsr import InputError, NumericError, ParameterError, SolverConfig
from conftest import connected_geometric_graph, random_geometric_graph, uniqueness_mask


def vectorized_objective(x, y, mask, graph, config):
    """Independent oracle: quadratic form of the column-major vectorized system."""
    penalty = tvgsr.sobolev_power(graph.laplacian, config.epsilon, config.beta)
    op = tvgsr.difference_operator(y.shape[1], config.temporal_step)
    kron_block = np.kron(op.matrix @ op.matrix.T, penalty)
    q = np.diag(mask.ravel(order="F"))
    z = x.ravel(order="F")
    residual = q @ (z - y.ravel(order="F"))
    return 0.5 * float(residual @ residual) + \
        0.5 * config.upsilon * float(z @ (kron_block @ z))


def finite_difference_gradient(x, y, mask, graph, config):
    out = np.zeros_like(x)
    h = 1e-6 * max(1.0, float(np.abs(x).max()))
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            out[i, j] = (tvgsr.objective(xp, y, mask, graph, config)
                         - tvgsr.objective(xm, y, mask, graph, config)) / (2 * h)
    return out


class TestSolverConfig:
    def test_defaults_match_protocol(self):
        config = SolverConfig()
        assert config.delta == 1e-6
        assert config.max_iter == 20000

    def test_tgsr_normalizes_to_laplacian_case(self):
        config = SolverConfig(objective="tgsr", epsilon=0.7, beta=2.0)
        assert config.epsilon == 0.0
        assert config.beta == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(upsilon=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(beta=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(delta=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(objective="banana")
        with pytest.raises(ParameterError):
            SolverConfig(temporal_step=4)


class TestObjective:
    def test_consistent_constant_signal_is_zero(self, geo_graph):
        x = np.tile(np.arange(geo_graph.n_nodes, dtype=float)[:, None], (1, 4))
        mask = tvgsr.random_entry_mask(geo_graph.n_nodes, 4, 0.5, 0).mask
        y = mask * x
        config = SolverConfig(upsilon=2.0, epsilon=0.3, objective="sobolev")
        assert tvgsr.objective(x, y, mask, geo_graph, config) == pytest.approx(0.0, abs=1e-12)

    def test_zero_upsilon_is_data_term(self, geo_graph):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(geo_graph.n_nodes, 3))
        mask = tvgsr.random_entry_mask(geo_graph.n_nodes, 3, 0.6, 1).mask
        y = mask * rng.normal(size=x.shape)
        config = SolverConfig(upsilon=0.0, objective="sobolev")
        expected = 0.5 * float(np.sum((mask * x - y) ** 2))
        assert tvgsr.objective(x, y, mask, geo_graph, config) == pytest.approx(expected)

    def test_matches_vectorized_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        graph = random_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 4, 0.5, 3).mask
        x = rng.normal(size=(6, 4))
        y = mask * rng.normal(size=(6, 4))
        for config in (SolverConfig(upsilon=0.7, epsilon=0.2, beta=1.0, objective="sobolev"),
                       SolverConfig(upsilon=1.3, epsilon=0.5, beta=2.0, objective="sobolev"),
                       SolverConfig(upsilon=0.9, objective="tgsr")):
            direct = tvgsr.objective(x, y, mask, graph, config)
            oracle = vectorized_objective(x, y, mask, graph, config)
            assert direct == pytest.approx(oracle, abs=1e-10)

    def test_tgsr_objective_bit_identical_to_special_case(self, geo_graph):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(geo_graph.n_nodes, 4))
        mask = tvgsr.random_entry_mask(geo_graph.n_nodes, 4, 0.5, 5).mask
        y = mask * rng.normal(size=x.shape)
        value_t = tvgsr.objective(x, y, mask, geo_graph,
                                  SolverConfig(upsilon=0.7, objective="tgsr"))
        value_s = tvgsr.objective(x, y, mask, geo_graph,
                                  SolverConfig(upsilon=0.7, epsilon=0.0, beta=1.0,
                                               objective="sobolev"))
        assert value_t == value_s

    def test_shape_mismatch(self, geo_graph):
        mask = np.ones((geo_graph.n_nodes, 3))
        with pytest.raises(InputError):
            tvgsr.objective(np.ones((geo_graph.n_nodes, 4)), np.ones((geo_graph.n_nodes, 3)),
                            mask, geo_graph, SolverConfig())


class TestGradient:
    def test_zero_upsilon_full_mask(self, geo_graph):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(geo_graph.n_nodes, 3))
        y = rng.normal(size=(geo_graph.n_nodes, 3))
        mask = np.ones_like(x)
        config = SolverConfig(upsilon=0.0, objective="sobolev")
        assert np.allclose(tvgsr.gradient(x, y, mask, geo_graph, config), x - y)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            graph = random_geometric_graph(rng, int(rng.integers(4, 7)), 2)
            m = int(rng.integers(3, 5))
            mask = tvgsr.random_entry_mask(graph.n_nodes, m, 0.5, trial).mask
            x = rng.normal(size=(graph.n_nodes, m))
            y = mask * rng.normal(size=(graph.n_nodes, m))
            config = SolverConfig(upsilon=float(rng.uniform(0.2, 3.0)),
                                  epsilon=float(rng.uniform(0.0, 1.0)),
                                  beta=float(rng.choice([1.0, 1.5, 2.0])),
                                  objective="sobolev")
            analytic = tvgsr.gradient(x, y, mask, graph, config)
            numeric = finite_difference_gradient(x, y, mask, graph, config)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
            assert rel < 1e-5

    def test_vanishes_at_oracle_solution(self):
        rng = np.random.default_rng(5)
        graph = connected_geometric_graph(rng, 6, 2)
        mask = uniqueness_mask(rng, 6, 4)
        y = mask * rng.normal(size=(6, 4))
        config = SolverConfig(upsilon=0.8, epsilon=0.1, objective="sobolev")
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        grad_norm = np.linalg.norm(tvgsr.gradient(oracle.x_hat, y, mask, graph, config))
        assert grad_norm < 1e-6


class TestSolveNoiseless:
    def test_full_mask_returns_observations(self, geo_graph):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(geo_graph.n_nodes, 4))
        mask = np.ones_like(y)
        result = tvgsr.solve_noiseless(y, mask, geo_graph, SolverConfig(objective="sobolev"))
        assert np.array_equal(result.x_hat, y)
        assert result.termination == "converged"

    def test_single_observed_column_spreads(self, geo_graph):
        # strictly convex smoothness (epsilon > 0) forces all columns onto column 1
        rng = np.random.default_rng(7)
        column = rng.normal(size=geo_graph.n_nodes)
        y = np.zeros((geo_graph.n_nodes, 4))
        y[:, 0] = column
        mask = np.zeros_like(y)
        mask[:, 0] = 1.0
        config = SolverConfig(epsilon=0.5, beta=1.0, objective="sobolev",
                              delta=1e-10, max_iter=20000)
        result = tvgsr.solve_noiseless(y, mask, geo_graph, config)
        for t in range(1, 4):
            assert np.abs(result.x_hat[:, t] - column).max() < 1e-4
        assert result.loss_trace[-1] < 1e-8 * result.loss_trace[0] + 1e-12

    def test_samples_bit_exact_every_iteration(self):
        rng = np.random.default_rng(8)
        graph = random_geometric_graph(rng, 7, 2)
        mask = tvgsr.random_entry_mask(7, 5, 0.4, 11).mask
        y = mask * rng.normal(size=(7, 5)) * 100.0
        config = SolverConfig(epsilon=0.2, objective="sobolev", max_iter=50)
        result = tvgsr.solve_noiseless(y, mask, graph, config, record_iterates=True)
        sampled = mask > 0
        for iterate in result.iterates:
            assert np.array_equal(iterate[sampled], y[sampled])

    def test_loss_trace_nonincreasing(self):
        rng = np.random.default_rng(9)
        graph = random_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 4, 0.5, 12).mask
        y = mask * rng.normal(size=(6, 4))
        result = tvgsr.solve_noiseless(y, mask, graph,
                                       SolverConfig(epsilon=0.1, objective="sobolev",
                                                    max_iter=300))
        assert np.all(np.diff(result.loss_trace) <= 1e-9)

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("beta, epsilon", [(1.0, 0.0), (2.0, 0.2), (0.5, 0.1)])
    def test_iterates_match_the_allocating_loop(self, step, beta, epsilon, monkeypatch):
        rng = np.random.default_rng(40)
        graph = connected_geometric_graph(rng, 12, 3)
        mask = tvgsr.random_entry_mask(12, 9, 0.4, 41).mask
        y = mask * rng.normal(size=(12, 9))
        config = SolverConfig(epsilon=epsilon, beta=beta, objective="sobolev",
                              temporal_step=step, max_iter=400, delta=1e-7)
        problem = tvgsr.solvers.ProblemOperator(graph, mask, config)
        step_size = 1.0 / ((graph.max_eigenvalue() + epsilon) ** beta
                           * problem.temporal.max_eigenvalue())
        x, expected = mask * y, [mask * y]
        for _ in range(config.max_iter):
            x_next = np.where(mask > 0, mask * y, x - step_size * problem.smoothness_gradient(x))
            expected.append(x_next)
            done = np.linalg.norm(x_next - x) <= config.delta
            x = x_next
            if done:
                break
        applications = []
        original = tvgsr.solvers.ProblemOperator.penalty

        def counting(self, v):
            applications.append(1)
            return original(self, v)

        monkeypatch.setattr(tvgsr.solvers.ProblemOperator, "penalty", counting)
        result = tvgsr.solve_noiseless(y, mask, graph, config, record_iterates=True)
        assert result.iterations == len(expected) - 1
        assert all(np.array_equal(a, b) for a, b in zip(result.iterates, expected))
        assert np.array_equal(result.x_hat, expected[-1])
        assert len(applications) == result.iterations + 1
        losses = [0.5 * problem.smoothness(iterate) for iterate in expected]
        assert np.allclose(result.loss_trace, losses, rtol=1e-12, atol=1e-14 * losses[0])

    def test_empty_mask_rejected(self, geo_graph):
        y = np.zeros((geo_graph.n_nodes, 3))
        with pytest.raises(InputError):
            tvgsr.solve_noiseless(y, np.zeros_like(y), geo_graph, SolverConfig())

    def test_bad_step_rejected(self, geo_graph):
        y = np.ones((geo_graph.n_nodes, 3))
        with pytest.raises(ParameterError):
            tvgsr.solve_noiseless(y, np.ones_like(y), geo_graph, SolverConfig(), step=-1.0)


class TestSolveCg:
    def test_data_dominated_recovers_observations(self, geo_graph):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(geo_graph.n_nodes, 4))
        mask = np.ones_like(y)
        config = SolverConfig(upsilon=1e-8, epsilon=0.1, objective="sobolev")
        result = tvgsr.solve_cg(y, mask, geo_graph, config)
        rel = np.linalg.norm(result.x_hat - y) / np.linalg.norm(y)
        assert rel < 1e-4

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        graph = connected_geometric_graph(rng, 6, 2)
        mask = uniqueness_mask(rng, 6, 4)
        y = mask * rng.normal(size=(6, 4))
        config = SolverConfig(upsilon=0.5, epsilon=0.1, beta=1.0, objective="sobolev",
                              delta=1e-9)
        result = tvgsr.solve_cg(y, mask, graph, config)
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        rel = np.linalg.norm(result.x_hat - oracle.x_hat) / np.linalg.norm(oracle.x_hat)
        assert result.termination == "converged"
        assert rel < 1e-6

    def test_two_step_operator_matches_oracle(self):
        # the one-step uniqueness conditions do not cover s=2 (a 2-periodic
        # temporal pattern can evade the samples), so redraw until nonsingular
        rng = np.random.default_rng(24)
        graph = connected_geometric_graph(rng, 6, 2)
        config = SolverConfig(upsilon=0.4, epsilon=0.2, objective="sobolev",
                              temporal_step=2, delta=1e-9)
        for _ in range(50):
            mask = uniqueness_mask(rng, 6, 5)
            y = mask * rng.normal(size=(6, 5))
            oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
            if not oracle.singular:
                break
        assert not oracle.singular
        result = tvgsr.solve_cg(y, mask, graph, config)
        rel = np.linalg.norm(result.x_hat - oracle.x_hat) / np.linalg.norm(oracle.x_hat)
        assert rel < 1e-6

    def test_tgsr_is_sobolev_special_case(self):
        rng = np.random.default_rng(12)
        graph = random_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 4, 0.6, 13).mask
        y = mask * rng.normal(size=(6, 4))
        result_t = tvgsr.solve_cg(y, mask, graph,
                                  SolverConfig(upsilon=0.8, objective="tgsr"),
                                  record_iterates=True)
        result_s = tvgsr.solve_cg(y, mask, graph,
                                  SolverConfig(upsilon=0.8, epsilon=0.0, beta=1.0,
                                               objective="sobolev"),
                                  record_iterates=True)
        assert result_t.iterations == result_s.iterations
        for a, b in zip(result_t.iterates, result_s.iterates):
            assert np.abs(a - b).max() <= 1e-12
        assert np.array_equal(result_t.loss_trace, result_s.loss_trace)

    def test_loss_trace_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            graph = random_geometric_graph(rng, int(rng.integers(5, 9)), 2)
            m = int(rng.integers(3, 6))
            mask = tvgsr.random_entry_mask(graph.n_nodes, m, 0.5, trial).mask
            y = mask * rng.normal(size=(graph.n_nodes, m))
            config = SolverConfig(upsilon=float(rng.uniform(0.1, 5.0)),
                                  epsilon=float(rng.uniform(0.0, 0.5)),
                                  objective="sobolev")
            result = tvgsr.solve_cg(y, mask, graph, config)
            assert np.all(np.diff(result.loss_trace) <= 1e-9)
            assert result.loss_trace[-1] <= result.loss_trace[0] + 1e-12
            assert result.iterations <= config.max_iter

    def test_max_iter_termination(self, geo_graph):
        rng = np.random.default_rng(14)
        mask = tvgsr.random_entry_mask(geo_graph.n_nodes, 4, 0.5, 15).mask
        y = mask * rng.normal(size=(geo_graph.n_nodes, 4))
        config = SolverConfig(upsilon=1.0, epsilon=0.1, objective="sobolev", max_iter=3)
        result = tvgsr.solve_cg(y, mask, geo_graph, config)
        assert result.termination == "max_iter"
        assert result.iterations == 3

    def test_error_trace_against_reference(self):
        rng = np.random.default_rng(15)
        graph = connected_geometric_graph(rng, 6, 2)
        mask = uniqueness_mask(rng, 6, 4)
        y = mask * rng.normal(size=(6, 4))
        config = SolverConfig(upsilon=0.5, epsilon=0.1, objective="sobolev")
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        result = tvgsr.solve_cg(y, mask, graph, config, reference=oracle.x_hat)
        assert result.error_trace is not None
        assert len(result.error_trace) == len(result.loss_trace)
        assert result.error_trace[-1] < result.error_trace[0]

    def test_numeric_error_carries_iteration(self, geo_graph):
        # alternating huge snapshots make the squared gradient norm overflow
        y = np.empty((geo_graph.n_nodes, 4))
        y[:, 0::2] = 1e300
        y[:, 1::2] = -1e300
        mask = np.ones_like(y)
        config = SolverConfig(upsilon=1.0, epsilon=0.0, objective="sobolev")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="iteration"):
                tvgsr.solve_cg(y, mask, geo_graph, config)

    def test_gr_static_objective_rejected(self, geo_graph):
        y = np.ones((geo_graph.n_nodes, 3))
        with pytest.raises(ParameterError):
            tvgsr.solve_cg(y, np.ones_like(y), geo_graph, SolverConfig(objective="gr_static"))

    @pytest.mark.parametrize("objective, beta", [("tgsr", 1.0), ("sobolev", 2.0)])
    def test_integer_beta_allocates_no_dense_matrix(self, objective, beta):
        rng = np.random.default_rng(37)
        n = 2000
        graph = tvgsr.build_knn_graph(rng.uniform(0.0, 100.0, size=(n, 2)), 10)
        mask = tvgsr.random_entry_mask(n, 4, 0.5, 38).mask
        y = mask * rng.normal(size=(n, 4))
        config = SolverConfig(upsilon=0.1, epsilon=0.2, beta=beta, objective=objective,
                              max_iter=5)
        tracemalloc.start()
        try:
            tvgsr.solve_cg(y, mask, graph, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10


def dense_gr_static_columns(y, mask, graph, upsilon):
    """Per-column dense solves, with the least-squares answer where LU is singular."""
    x_hat = np.zeros_like(y)
    for column in range(y.shape[1]):
        j = mask[:, column]
        if not np.any(j > 0):
            continue
        system = np.diag(j) + upsilon * graph.laplacian
        rhs = j * y[:, column]
        try:
            x_hat[:, column] = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            x_hat[:, column] = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return x_hat


class TestSolveGrStatic:
    def test_fully_sampled_small_upsilon(self, geo_graph):
        rng = np.random.default_rng(16)
        y = rng.normal(size=(geo_graph.n_nodes, 3))
        mask = np.ones_like(y)
        result = tvgsr.solve_gr_static(y, mask, geo_graph,
                                       SolverConfig(upsilon=1e-10, objective="gr_static"))
        assert np.abs(result.x_hat - y).max() < 1e-6

    def test_unsampled_column_zero_with_flag(self, geo_graph):
        rng = np.random.default_rng(17)
        y = rng.normal(size=(geo_graph.n_nodes, 3))
        mask = np.ones_like(y)
        mask[:, 1] = 0.0
        result = tvgsr.solve_gr_static(mask * y, mask, geo_graph,
                                       SolverConfig(upsilon=0.5, objective="gr_static"))
        assert result.unsampled_columns == (1,)
        assert np.all(result.x_hat[:, 1] == 0.0)

    def test_matches_per_column_dense_oracle(self, geo_graph):
        rng = np.random.default_rng(18)
        n = geo_graph.n_nodes
        mask = tvgsr.random_entry_mask(n, 1, 0.6, 19).mask
        y = mask * rng.normal(size=(n, 1))
        upsilon = 0.7
        result = tvgsr.solve_gr_static(y, mask, geo_graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        j = mask[:, 0]
        oracle = np.linalg.solve(np.diag(j) + upsilon * geo_graph.laplacian, j * y[:, 0])
        assert np.abs(result.x_hat[:, 0] - oracle).max() < 1e-8

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("upsilon", [0.0, 0.05, 3.0])
    def test_every_column_matches_dense_solve(self, kind, upsilon):
        rng = np.random.default_rng(30)
        coords = rng.uniform(0.0, 10.0, size=(40, 2))
        graph = tvgsr.build_knn_graph(coords, 7, laplacian_kind=kind)
        mask = tvgsr.random_entry_mask(40, 6, 0.5, 31).mask.copy()
        mask[:, 2] = 1.0  # a fully sampled column is nonsingular even at upsilon = 0
        y = mask * rng.normal(size=(40, 6))
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        expected = dense_gr_static_columns(y, mask, graph, upsilon)
        for column in range(6):
            scale = np.linalg.norm(expected[:, column])
            error = np.linalg.norm(result.x_hat[:, column] - expected[:, column])
            assert error <= 1e-12 * scale
        objective = tvgsr.objective(result.x_hat, y, mask, graph,
                                    SolverConfig(upsilon=upsilon, objective="gr_static"))
        assert result.loss_trace[0] == pytest.approx(objective, rel=1e-12)

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("upsilon", [0.0, 0.05, 3.0])
    def test_loss_is_the_objective_as_written_out(self, kind, density, upsilon):
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            graph = random_geometric_graph(rng, 15, k=3)
            graph = tvgsr.Graph(graph.adjacency, laplacian_kind=kind)
            mask = tvgsr.random_entry_mask(15, 5, density, seed).mask
            y = mask * rng.normal(size=(15, 5))
            result = tvgsr.solve_gr_static(y, mask, graph,
                                           SolverConfig(upsilon=upsilon, objective="gr_static"))
            x_hat, lap = result.x_hat, graph.laplacian_csr
            residual = mask * x_hat - y
            loss = 0.5 * float(np.sum(residual * residual)) + \
                0.5 * upsilon * float(np.sum(x_hat * (lap @ x_hat)))
            assert result.loss_trace.tolist() == [loss]

    def test_unsampled_component_takes_least_squares_answer(self):
        # a weighted path over nodes 0-5 and a single edge 6-7
        rng = np.random.default_rng(32)
        weights = np.zeros((8, 8))
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (6, 7)]:
            weights[a, b] = weights[b, a] = rng.uniform(0.2, 1.0)
        graph = tvgsr.Graph(weights)
        assert graph.n_components == 2
        y = rng.normal(size=(8, 3))
        mask = np.ones_like(y)
        mask[6:, 1] = 0.0  # second component unsampled in column 1
        mask[0, 1] = 0.0
        y = mask * y
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=0.3, objective="gr_static"))
        system = np.diag(mask[:, 1]) + 0.3 * graph.laplacian
        least_squares = np.linalg.lstsq(system, mask[:, 1] * y[:, 1], rcond=None)[0]
        assert np.array_equal(result.x_hat[:, 1], least_squares)
        assert np.all(result.x_hat[6:, 1] == 0.0)

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("upsilon", [0.0, 0.05, 3.0])
    def test_shared_ordering_matches_per_column_factorization(self, kind, upsilon):
        # one ordering for all columns, against each column ordered on its own
        rng = np.random.default_rng(35)
        graph = tvgsr.build_knn_graph(rng.uniform(0.0, 100.0, size=(60, 2)), 4)
        weights = graph.adjacency.copy()
        weights[[5, 17]] = 0.0
        weights[:, [5, 17]] = 0.0  # isolated nodes: their diagonal is j alone
        graph = tvgsr.Graph(weights, laplacian_kind=kind)
        mask = tvgsr.random_entry_mask(60, 8, 0.5, 36).mask.copy()
        mask[:, 3] = 1.0
        y = mask * rng.normal(size=(60, 8))
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        singular = 0
        for column in range(8):
            j = mask[:, column]
            system = (scipy.sparse.diags(j) + upsilon * graph.laplacian_csr).tocsc()
            rhs = j * y[:, column]
            try:
                expected = scipy.sparse.linalg.splu(
                    system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}).solve(rhs)
            except RuntimeError:
                singular += 1
                expected = np.linalg.lstsq(system.toarray(), rhs, rcond=None)[0]
            error = np.linalg.norm(result.x_hat[:, column] - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)
        assert 0 < singular < 8

    def test_solve_allocates_less_than_a_dense_matrix(self):
        rng = np.random.default_rng(33)
        n = 1000
        graph = tvgsr.build_knn_graph(rng.uniform(0.0, 100.0, size=(n, 2)), 10)
        graph.laplacian_csr
        mask = tvgsr.random_entry_mask(n, 4, 0.5, 34).mask
        y = mask * rng.normal(size=(n, 4))
        config = SolverConfig(upsilon=0.1, objective="gr_static")
        tracemalloc.start()
        try:
            tvgsr.solve_gr_static(y, mask, graph, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestDenseOracle:
    def test_full_mask_zero_upsilon_returns_observations(self, geo_graph):
        rng = np.random.default_rng(19)
        y = rng.normal(size=(geo_graph.n_nodes, 3))
        mask = np.ones_like(y)
        oracle = tvgsr.dense_oracle_solve(y, mask, geo_graph,
                                          SolverConfig(upsilon=0.0, objective="sobolev"))
        assert np.abs(oracle.x_hat - y).max() < 1e-12
        assert not oracle.singular

    def test_gradient_self_consistency(self):
        rng = np.random.default_rng(20)
        graph = connected_geometric_graph(rng, 7, 2)
        mask = uniqueness_mask(rng, 7, 5)
        y = mask * rng.normal(size=(7, 5))
        config = SolverConfig(upsilon=1.5, epsilon=0.2, beta=2.0, objective="sobolev")
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        assert np.linalg.norm(tvgsr.gradient(oracle.x_hat, y, mask, graph, config)) < 1e-8
        matrix = tvgsr.hessian(mask, graph, tvgsr.difference_operator(5, 1), config.upsilon,
                               config.epsilon, config.beta)
        direct = np.linalg.solve(matrix, (mask * y).ravel(order="F")).reshape((7, 5), order="F")
        assert np.abs(oracle.x_hat - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_uniqueness_conditions_give_nonsingular_system(self):
        # random 5 x 4 instances with a uniqueness-conditions mask, plain Laplacian objective
        rng = np.random.default_rng(21)
        config = SolverConfig(upsilon=1.0, objective="tgsr")
        for _ in range(10):
            graph = connected_geometric_graph(rng, 5, 2)
            mask = uniqueness_mask(rng, 5, 4)
            penalty = graph.laplacian
            op = tvgsr.difference_operator(4, 1)
            hessian = np.diag(mask.ravel(order="F")) + \
                config.upsilon * np.kron(op.matrix @ op.matrix.T, penalty)
            eigenvalues = np.linalg.eigvalsh(hessian)
            assert eigenvalues[0] > 1e-10 * eigenvalues[-1]
            oracle = tvgsr.dense_oracle_solve(mask * rng.normal(size=(5, 4)), mask,
                                              graph, config)
            assert not oracle.singular

    def test_singular_flag_for_empty_mask(self, geo_graph):
        y = np.zeros((geo_graph.n_nodes, 3))
        mask = np.zeros_like(y)
        oracle = tvgsr.dense_oracle_solve(y, mask, geo_graph,
                                          SolverConfig(upsilon=1.0, objective="tgsr"))
        assert oracle.singular

    def test_size_guard(self):
        rng = np.random.default_rng(22)
        graph = random_geometric_graph(rng, 70, 3)
        y = np.ones((70, 60))
        mask = np.ones_like(y)
        with pytest.raises(ParameterError):
            tvgsr.dense_oracle_solve(y, mask, graph, SolverConfig())


def graph_with_isolated_node(laplacian_kind):
    """Weighted 5-node cycle plus a sixth node with no edges."""
    rng = np.random.default_rng(30)
    weights = np.zeros((6, 6))
    for i in range(5):
        j = (i + 1) % 5
        weights[i, j] = weights[j, i] = rng.uniform(0.5, 2.0)
    return tvgsr.Graph(weights, laplacian_kind=laplacian_kind)


def long_cg_problem():
    """A problem on which FR-CG runs past two gradient refreshes."""
    rng = np.random.default_rng(33)
    graph = connected_geometric_graph(rng, 30, 3)
    mask = tvgsr.random_entry_mask(30, 20, 0.3, 34).mask
    y = mask * rng.normal(size=(30, 20))
    config = SolverConfig(upsilon=0.05, epsilon=0.01, objective="sobolev", delta=1e-10)
    return y, mask, graph, config


def allocating_action(graph, mask, config, v):
    """The Hessian action as a chain of fresh arrays: zero-filled scatter, then K, upsilon, J."""
    s = config.temporal_step
    if float(config.beta).is_integer():
        shifted = graph.laplacian_csr + config.epsilon * scipy.sparse.identity(
            graph.n_nodes, format="csr")
        penalty = [shifted] * int(config.beta)
    else:
        penalty = [tvgsr.sobolev_power(graph.laplacian, config.epsilon, config.beta)]
    diff = v[:, s:] - v[:, :-s]
    action = np.zeros_like(v)
    action[:, :-s] -= diff
    action[:, s:] += diff
    for factor in penalty:
        action = factor @ action
    action *= config.upsilon
    action += mask * v
    return action


class TestProblemOperator:
    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("m", [4, 6, 9])
    def test_action_into_out_is_bit_identical(self, kind, step, m):
        rng = np.random.default_rng(35)
        graphs = (graph_with_isolated_node(kind),
                  tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(7, 2)), 3,
                                        laplacian_kind=kind))
        for graph in graphs:
            n = graph.n_nodes
            mask = tvgsr.random_entry_mask(n, m, 0.5, 36).mask
            op = tvgsr.difference_operator(m, step)
            for beta in (0.5, 1.0, 2.0, 3.0):
                for epsilon in (0.0, 0.1):
                    config = SolverConfig(upsilon=0.7, epsilon=epsilon, beta=beta,
                                          objective="sobolev", temporal_step=step)
                    problem = tvgsr.solvers.ProblemOperator(graph, mask, config)
                    v = rng.normal(size=(n, m))
                    fresh = problem.hessian_action(v)
                    out = np.full_like(v, np.nan)
                    assert problem.hessian_action(v, out=out) is out
                    assert np.array_equal(out, fresh)
                    assert np.array_equal(out, allocating_action(graph, mask, config, v))
                    in_place = v.copy()
                    problem.hessian_action(in_place, out=in_place)
                    assert np.array_equal(in_place, fresh)
                    dense = tvgsr.spectral.hessian(mask, graph, op, 0.7, epsilon, beta)
                    expected = (dense @ v.ravel(order="F")).reshape((n, m), order="F")
                    assert np.abs(out - expected).max() <= \
                        1e-12 * np.abs(dense).max() * np.abs(v).max()
                    gradient = problem.smoothness_gradient(v, out=np.full_like(v, np.nan))
                    assert np.array_equal(gradient, problem.smoothness_gradient(v))

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_hessian_action_matches_dense_hessian(self, kind, step):
        rng = np.random.default_rng(31)
        graphs = (graph_with_isolated_node(kind),
                  connected_geometric_graph(rng, 7, 2) if kind == "combinatorial"
                  else tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(7, 2)), 3,
                                             laplacian_kind=kind))
        for graph in graphs:
            n, m = graph.n_nodes, 6
            mask = tvgsr.random_entry_mask(n, m, 0.5, 32).mask
            v = rng.normal(size=(n, m))
            op = tvgsr.difference_operator(m, step)
            for beta in (0.5, 1.0, 2.0, 3.0):
                for epsilon in (0.0, 0.1):
                    config = SolverConfig(upsilon=0.7, epsilon=epsilon, beta=beta,
                                          objective="sobolev", temporal_step=step)
                    action = tvgsr.solvers.ProblemOperator(graph, mask, config).hessian_action(v)
                    dense = tvgsr.spectral.hessian(mask, graph, op, 0.7, epsilon, beta)
                    expected = (dense @ v.ravel(order="F")).reshape((n, m), order="F")
                    scale = np.abs(dense).max() * np.abs(v).max()
                    assert np.abs(action - expected).max() <= 1e-12 * scale

    def test_isolated_node_gets_epsilon(self):
        graph = graph_with_isolated_node("combinatorial")
        mask = np.zeros((6, 4))
        v = np.zeros((6, 4))
        v[5] = [0.0, 1.0, 0.0, 0.0]  # D D^T maps this row to (-1, 2, -1, 0)
        config = SolverConfig(upsilon=1.0, epsilon=0.5, beta=2.0, objective="sobolev")
        action = tvgsr.solvers.ProblemOperator(graph, mask, config).hessian_action(v)
        assert np.allclose(action[5], 0.25 * np.array([-1.0, 2.0, -1.0, 0.0]), rtol=1e-15)
        assert np.all(action[:5] == 0.0)

    def test_one_hessian_action_per_iteration(self, monkeypatch):
        y, mask, graph, config = long_cg_problem()
        calls = []
        original = tvgsr.solvers.ProblemOperator.hessian_action

        def counting(self, v, out=None):
            calls.append(1)
            return original(self, v, out=out)

        monkeypatch.setattr(tvgsr.solvers.ProblemOperator, "hessian_action", counting)
        result = tvgsr.solve_cg(y, mask, graph, config)
        assert result.termination == "converged"
        assert result.iterations >= 100
        assert len(calls) == result.iterations + 1 + result.iterations // 50

    def test_free_loss_matches_objective(self):
        y, mask, graph, config = long_cg_problem()
        result = tvgsr.solve_cg(y, mask, graph, config, record_iterates=True)
        assert result.iterations >= 100
        for loss, x in zip(result.loss_trace, result.iterates):
            exact = tvgsr.objective(x, y, mask, graph, config)
            assert abs(loss - exact) <= 1e-10 * abs(exact)

    def test_refresh_keeps_solution_at_oracle(self):
        y, mask, graph, config = long_cg_problem()
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        result = tvgsr.solve_cg(y, mask, graph, config)
        rel = np.linalg.norm(result.x_hat - oracle.x_hat) / np.linalg.norm(oracle.x_hat)
        assert not oracle.singular
        assert rel < 1e-8


def stats_bytes(stats):
    return sum(getattr(stats, name).nbytes for name in ("grad_norm", "dir_norm", "mu", "gamma"))


class TestSolveStats:
    def test_invariants_on_a_long_solve(self):
        y, mask, graph, config = long_cg_problem()
        result = tvgsr.solve_cg(y, mask, graph, config)
        stats, k = result.stats, result.iterations
        assert k >= 100
        for name in ("grad_norm", "dir_norm", "mu", "gamma"):
            assert getattr(stats, name).shape == (k,), name
        assert stats.hessian_actions == k + 1 + k // 50
        assert stats.stop_reason == "direction_norm"
        assert result.termination == "converged"
        assert np.all(stats.dir_norm > config.delta)
        assert np.all(stats.grad_norm >= 0.0) and np.all(stats.mu > 0.0)
        restarted = {iteration for iteration, _ in stats.restarts}
        assert all(stats.gamma[i - 1] == 0.0 for i in restarted)
        assert all(reason in ("periodic", "lost_descent") for _, reason in stats.restarts)
        assert stats.setup_s >= 0.0 and stats.iterate_s >= 0.0
        assert result.wall_time == stats.iterate_s

    def test_grad_norm_is_the_gradient_norm(self):
        y, mask, graph, config = long_cg_problem()
        result = tvgsr.solve_cg(y, mask, graph, config, record_iterates=True)
        for t in (0, 48, 49, 99, result.iterations - 1):
            exact = np.linalg.norm(tvgsr.gradient(result.iterates[t + 1], y, mask, graph, config))
            assert abs(result.stats.grad_norm[t] - exact) <= 1e-8 * exact + 1e-12

    def test_periodic_restarts_at_every_multiple_of_nm(self):
        rng = np.random.default_rng(37)
        graph = connected_geometric_graph(rng, 3, 2)
        mask = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = mask * rng.normal(size=(3, 2))
        config = SolverConfig(upsilon=0.5, epsilon=0.1, objective="sobolev", delta=1e-300,
                              max_iter=40)
        result = tvgsr.solve_cg(y, mask, graph, config)
        stats, k = result.stats, result.iterations
        assert k > 2 * y.size
        periodic = {i for i, reason in stats.restarts if reason == "periodic"}
        assert periodic == set(range(y.size, k + 1, y.size))
        assert (stats.stop_reason == "max_iter") == (result.termination == "max_iter")
        if stats.stop_reason == "max_iter":
            assert stats.hessian_actions == k + 1 + k // 50
        else:  # zero curvature makes one action that takes no step
            assert stats.stop_reason == "zero_curvature"
            assert stats.hessian_actions == k + 2 + k // 50

    def test_max_iter_stop_reason(self, geo_graph):
        mask = tvgsr.random_entry_mask(geo_graph.n_nodes, 4, 0.5, 15).mask
        y = mask * np.random.default_rng(14).normal(size=(geo_graph.n_nodes, 4))
        config = SolverConfig(upsilon=1.0, epsilon=0.1, objective="sobolev", max_iter=3)
        result = tvgsr.solve_cg(y, mask, geo_graph, config)
        assert (result.termination, result.stats.stop_reason) == ("max_iter", "max_iter")
        assert result.stats.hessian_actions == 4
        assert len(result.stats.mu) == 3

    def test_telemetry_grows_past_its_first_chunk(self, monkeypatch):
        y, mask, graph, config = long_cg_problem()
        reference = tvgsr.solve_cg(y, mask, graph, config)
        monkeypatch.setattr(tvgsr.solvers, "_RECORD_CHUNK", 8)
        result = tvgsr.solve_cg(y, mask, graph, config)
        assert result.iterations == reference.iterations > 16
        assert np.array_equal(result.loss_trace, reference.loss_trace)
        for name in ("grad_norm", "dir_norm", "mu", "gamma"):
            assert np.array_equal(getattr(result.stats, name), getattr(reference.stats, name))

    def test_iterations_allocate_no_growing_arrays(self):
        rng = np.random.default_rng(38)
        graph = connected_geometric_graph(rng, 60, 3)
        graph.laplacian_csr
        mask = tvgsr.random_entry_mask(60, 50, 0.3, 39).mask
        y = mask * rng.normal(size=(60, 50))
        peaks, results = [], []
        for max_iter in (20, 400):
            config = SolverConfig(upsilon=0.01, epsilon=0.0, objective="sobolev",
                                  delta=1e-300, max_iter=max_iter)
            tracemalloc.start()
            try:
                results.append(tvgsr.solve_cg(y, mask, graph, config))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [r.iterations for r in results] == [20, 400]
        growth = peaks[1] - peaks[0] - (stats_bytes(results[1].stats)
                                        - stats_bytes(results[0].stats))
        growth -= 5 * 8 * (400 - 20)  # the preallocated telemetry rows
        assert growth < y.nbytes


class TestLogging:
    def test_unsampled_node_warns(self, caplog):
        y, mask, graph, config = long_cg_problem()
        mask = mask.copy()
        mask[[4, 17]] = 0.0
        with caplog.at_level(logging.WARNING, logger="tvgsr"):
            result = tvgsr.solve_cg(mask * y, mask, graph, config)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].name == "tvgsr.solvers"
        assert "2 of 30 nodes are never sampled (first: 4, 17)" in warnings[0].getMessage()
        assert result.termination == "converged"

    def test_sampled_nodes_do_not_warn_and_debug_reports_the_stop(self, caplog):
        y, mask, graph, config = long_cg_problem()
        assert mask.any(axis=1).all()
        with caplog.at_level(logging.DEBUG, logger="tvgsr"):
            result = tvgsr.solve_cg(y, mask, graph, config)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        message = caplog.records[0].getMessage()
        assert f"direction_norm after {result.iterations} iterations" in message
        assert f"{len(result.stats.restarts)} restarts" in message


class TestObjectiveInputChecks:
    @pytest.mark.parametrize("objective", ["sobolev", "gr_static"])
    def test_objective_and_gradient_reject_the_same_inputs(self, geo_graph, objective):
        n = geo_graph.n_nodes
        config = SolverConfig(upsilon=0.5, epsilon=0.1, objective=objective)
        y, mask = np.ones((n, 4)), np.ones((n, 4))
        bad = [(np.ones((n, 3)), y, mask), (y, y, np.ones((n, 3))),
               (np.ones((n + 1, 4)), np.ones((n + 1, 4)), np.ones((n + 1, 4))),
               (y, y, np.full((n, 4), 0.5))]
        for x, y_bad, mask_bad in bad:
            messages = []
            for function in (tvgsr.objective, tvgsr.gradient):
                with pytest.raises(InputError) as info:
                    function(x, y_bad, mask_bad, geo_graph, config)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
