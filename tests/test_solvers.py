import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse
import scipy.sparse.linalg

import tvgsr
from tvgsr import InputError, NumericError, ParameterError, SolverConfig
from conftest import (connected_geometric_graph, free_block_minimizer, random_geometric_graph,
                      uniqueness_mask)


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
        for bad in ({"upsilon": np.nan}, {"upsilon": np.inf}, {"epsilon": np.nan},
                    {"epsilon": np.inf}, {"beta": np.nan}, {"beta": np.inf},
                    {"delta": np.nan}, {"delta": np.inf}, {"max_iter": 10.5},
                    {"max_iter": 10.0}, {"max_iter": True}, {"temporal_step": 1.0},
                    {"temporal_step": True}):
            with pytest.raises(ParameterError):
                SolverConfig(**bad)
        assert SolverConfig(max_iter=np.int64(5), temporal_step=np.int32(2)).max_iter == 5


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

    def test_gr_static_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            graph = random_geometric_graph(rng, int(rng.integers(4, 7)), 2)
            m = int(rng.integers(3, 5))
            mask = tvgsr.random_entry_mask(graph.n_nodes, m, 0.5, trial).mask
            x = rng.normal(size=(graph.n_nodes, m))
            y = mask * rng.normal(size=(graph.n_nodes, m))
            config = SolverConfig(upsilon=float(rng.uniform(0.2, 3.0)), objective="gr_static")
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
    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_iterates_match_the_allocating_loop(self, step, beta, epsilon, preconditioner,
                                                monkeypatch):
        # CG on the free entries with fresh arrays every iteration; each update is BLAS
        # daxpy on a copy, so FR-CG rounds as the in-place loop does, bit for bit. The
        # preconditioned loop is checked against M^-1 applied node by node with
        # solve_banded, which rounds otherwise, so its iterates agree to 1e-12.
        rng = np.random.default_rng(40)
        graph = connected_geometric_graph(rng, 12, 3)
        mask = tvgsr.random_entry_mask(12, 9, 0.4, 41).mask
        y = mask * rng.normal(size=(12, 9))
        config = SolverConfig(epsilon=epsilon, beta=beta, objective="sobolev",
                              temporal_step=step, max_iter=400, delta=1e-7,
                              preconditioner=preconditioner)
        problem = tvgsr.solvers.ProblemOperator(graph, mask, config)
        solve = (lambda g: g) if preconditioner == "none" else \
            banded_preconditioner(graph, mask, config)

        def projected_gradient(v):
            return np.where(mask > 0, 0.0, problem.smoothness_gradient(v))

        def plus(x, a, v):
            x = x.copy()
            scipy.linalg.blas.daxpy(v.ravel(), x.ravel(), a=a)
            return x

        x = mask * y
        g = projected_gradient(x)
        z = solve(g)
        d, expected = -z, [x]
        for t in range(1, config.max_iter + 1):
            if np.sqrt(np.vdot(d, d)) <= config.delta:
                break
            h = projected_gradient(d)
            mu = -np.vdot(d, g) / np.vdot(d, h)
            x = plus(x, mu, d)
            expected.append(x)
            g_next = projected_gradient(x) if t % 50 == 0 else plus(g, mu, h)
            z_next = solve(g_next)
            d = (np.vdot(g_next, z_next) / np.vdot(g, z)) * d - z_next
            g, z = g_next, z_next
        applications = []
        original = tvgsr.solvers.ProblemOperator.smoothness_gradient

        def counting(self, x, out=None):
            applications.append(1)
            return original(self, x, out=out)

        monkeypatch.setattr(tvgsr.solvers.ProblemOperator, "smoothness_gradient", counting)
        result = tvgsr.solve_noiseless(y, mask, graph, config, record_iterates=True)
        k = result.iterations
        assert k == len(expected) - 1 and result.stats.restarts == ()
        if preconditioner == "none":
            assert all(np.array_equal(a, b) for a, b in zip(result.iterates, expected))
            assert np.array_equal(result.x_hat, expected[-1])
        else:
            scale = np.abs(expected[-1]).max()
            assert all(np.abs(a - b).max() <= 1e-12 * scale
                       for a, b in zip(result.iterates, expected))
            assert all(np.array_equal(a[mask > 0], y[mask > 0]) for a in result.iterates)
        assert len(applications) == k + 1 + k // 50 == result.stats.hessian_actions
        losses = [0.5 * problem.smoothness(iterate) for iterate in expected]
        assert np.allclose(result.loss_trace, losses, rtol=1e-12, atol=1e-14 * losses[0])

    def test_empty_mask_rejected(self, geo_graph):
        y = np.zeros((geo_graph.n_nodes, 3))
        with pytest.raises(InputError):
            tvgsr.solve_noiseless(y, np.zeros_like(y), geo_graph, SolverConfig())

    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_stats_count_one_product_per_iteration_and_each_refresh(self, monkeypatch,
                                                                    preconditioner):
        y, mask, graph, config = long_cg_problem(preconditioner)
        calls = []
        original = tvgsr.solvers.ProblemOperator.smoothness_gradient

        def counting(self, x, out=None):
            calls.append(1)
            return original(self, x, out=out)

        monkeypatch.setattr(tvgsr.solvers.ProblemOperator, "smoothness_gradient", counting)
        result = tvgsr.solve_noiseless(y, mask, graph, config)
        stats, k = result.stats, result.iterations
        assert k >= 100
        assert (result.termination, stats.stop_reason) == ("converged", "direction_norm")
        assert stats.hessian_actions == k + 1 + k // 50 == len(calls)
        assert stats.dir_norm.shape == (k,) and np.all(stats.dir_norm > config.delta)
        assert np.all(np.diff(result.loss_trace) <= 1e-12 * result.loss_trace[0])

    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_never_sampled_node_warns_and_gives_the_minimum_norm_minimizer(self, caplog,
                                                                           beta, epsilon):
        # e_i kron 1 is a null direction of the free block; J o Y and every projected
        # gradient are orthogonal to it, so CG never moves along it.
        config = SolverConfig(epsilon=epsilon, beta=beta, delta=1e-12)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            graph = connected_geometric_graph(rng, 6, 2)
            mask = uniqueness_mask(rng, 6, 5).copy()
            node = rng.integers(6)
            mask[node] = 0.0
            y = mask * rng.normal(size=mask.shape)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tvgsr"):
                result = tvgsr.solve_noiseless(y, mask, graph, config)
            messages = [r.getMessage() for r in caplog.records]
            assert len(messages) == 1
            assert f"1 of 6 nodes are never sampled (first: {node})" in messages[0]
            smoothness = tvgsr.spectral.hessian(np.zeros_like(mask), graph,
                                                tvgsr.difference_operator(5, 1), 1.0, epsilon,
                                                beta)
            expected = free_block_minimizer(smoothness, y, mask)
            scale = np.linalg.norm(expected)
            assert result.termination == "converged"
            assert np.linalg.norm(result.x_hat - expected) <= 1e-8 * scale
            assert abs(result.x_hat[node].sum()) <= 1e-10 * scale
            assert np.array_equal(result.x_hat[mask > 0], y[mask > 0])

    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    def test_iterations_allocate_no_signal_sized_array(self, beta, monkeypatch):
        y, mask, graph, config = allocation_problem(beta, max_iter=12)
        growth = iteration_growth(monkeypatch, "smoothness_gradient",
                                  lambda: tvgsr.solve_noiseless(y, mask, graph, config))
        assert len(growth) == 11
        assert max(growth) < y.nbytes


def banded_preconditioner(graph, mask, config):
    """M^-1 of the noiseless problem, node by node with ``solve_banded``: fresh arrays, in the
    natural snapshot order.

    Node i's block is (L_ii + epsilon)^beta D D^T on its free entries, with a
    sample's row and column those of the identity. A chain t = r (mod s)
    without a sample is lifted by 1e-8 times the coupling, and its part of
    the answer is projected to zero mean.
    """
    s, (n, m) = config.temporal_step, mask.shape
    difference = tvgsr.difference_operator(m, s).matrix
    dd = difference @ difference.T
    coupling = (graph.laplacian_csr.diagonal() + config.epsilon) ** config.beta
    blocks = []
    for i in range(n):
        free = mask[i] == 0
        block = coupling[i] * dd * np.outer(free, free)
        block[~free, ~free] = 1.0
        chains = [np.arange(r, m, s) for r in range(s) if free[r::s].all()]
        for chain in chains:
            block[chain, chain] += 1e-8 * coupling[i]
        band = np.zeros((2 * s + 1, m))
        for offset in range(-s, s + 1):
            band[s - offset, max(offset, 0):m + min(offset, 0)] = np.diagonal(block, offset)
        blocks.append((band, chains))

    def solve(g):
        z = np.empty_like(g)
        for i, (band, chains) in enumerate(blocks):
            z[i] = scipy.linalg.solve_banded((s, s), band, g[i])
            for chain in chains:
                z[i, chain] -= z[i, chain].mean()
        return z

    return solve


def allocation_problem(beta, max_iter):
    rng = np.random.default_rng(42)
    n, m = 200, 50
    graph = connected_geometric_graph(rng, n, 5)
    graph.laplacian_csr
    mask = tvgsr.random_entry_mask(n, m, 0.5, 43).mask
    y = mask * rng.normal(size=(n, m))
    config = SolverConfig(upsilon=0.01, epsilon=0.1, beta=beta, objective="sobolev",
                          max_iter=max_iter, delta=1e-300)
    return y, mask, graph, config


def iteration_growth(monkeypatch, method, solve):
    """Traced bytes each iteration allocates above its start, from the second iteration on.

    ``method`` is the ProblemOperator method that runs once per iteration, so
    the span from one call's entry to the next covers a whole iteration. The
    first span also holds the operator's scratch buffers and is left out.
    """
    original = getattr(tvgsr.solvers.ProblemOperator, method)
    entries = []

    def measuring(self, v, out=None):
        entries.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return original(self, v, out=out)

    monkeypatch.setattr(tvgsr.solvers.ProblemOperator, method, measuring)
    tracemalloc.start()
    try:
        solve()
    finally:
        tracemalloc.stop()
    return [peak - start for (start, _), (_, peak) in zip(entries[1:], entries[2:])]


class TestSolveCg:
    def test_data_dominated_recovers_observations(self, geo_graph):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(geo_graph.n_nodes, 4))
        mask = np.ones_like(y)
        config = SolverConfig(upsilon=1e-8, epsilon=0.1, objective="sobolev")
        result = tvgsr.solve_cg(y, mask, geo_graph, config)
        rel = np.linalg.norm(result.x_hat - y) / np.linalg.norm(y)
        assert rel < 1e-4

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_matches_dense_oracle(self, kind, step, beta, preconditioner):
        # redraw until the oracle is nonsingular: the one-step uniqueness conditions do not
        # cover s = 2 or 3
        rng = np.random.default_rng(11)
        graph = tvgsr.Graph(connected_geometric_graph(rng, 6, 2).adjacency_csr,
                            laplacian_kind=kind)
        config = SolverConfig(upsilon=0.5, epsilon=0.1, beta=beta, objective="sobolev",
                              temporal_step=step, delta=1e-9, preconditioner=preconditioner)
        for _ in range(50):
            mask = uniqueness_mask(rng, 6, 7)
            y = mask * rng.normal(size=(6, 7))
            oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
            if not oracle.singular:
                break
        assert not oracle.singular
        result = tvgsr.solve_cg(y, mask, graph, config)
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
        result = tvgsr.solve_cg(y, mask, graph, config, record_iterates=True)
        errors = [np.linalg.norm(x - oracle.x_hat) for x in result.iterates]
        assert result.iterates is not None
        assert len(errors) == len(result.loss_trace)
        assert errors[-1] < errors[0]

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

    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_never_sampled_node_gives_the_minimum_norm_minimizer(self, beta, epsilon):
        # e_i kron 1 is a null direction of H; J o Y and every gradient are orthogonal
        # to it, so CG never moves along it.
        config = SolverConfig(upsilon=0.5, epsilon=epsilon, beta=beta, delta=1e-12)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            graph = connected_geometric_graph(rng, 6, 2)
            mask = uniqueness_mask(rng, 6, 5).copy()
            node = rng.integers(6)
            mask[node] = 0.0
            y = mask * rng.normal(size=mask.shape)
            oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
            result = tvgsr.solve_cg(y, mask, graph, config)
            assert oracle.singular
            assert result.termination == "converged"
            scale = np.linalg.norm(oracle.x_hat)
            assert np.linalg.norm(result.x_hat - oracle.x_hat) <= 1e-8 * scale
            assert abs(result.x_hat[node].sum()) <= 1e-10 * scale

    def test_gr_static_objective_rejected(self, geo_graph):
        y = np.ones((geo_graph.n_nodes, 3))
        with pytest.raises(ParameterError):
            tvgsr.solve_cg(y, np.ones_like(y), geo_graph, SolverConfig(objective="gr_static"))

    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    def test_iterations_allocate_no_signal_sized_array(self, beta, monkeypatch):
        # iterations 50 and 100 refresh the gradient with a second action
        y, mask, graph, config = allocation_problem(beta, max_iter=120)
        growth = iteration_growth(monkeypatch, "hessian_action",
                                  lambda: tvgsr.solve_cg(y, mask, graph, config))
        assert len(growth) == 121
        assert max(growth) < y.nbytes

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


def minimum_norm_answers(y, mask, graph, config):
    """solve_cg's and solve_noiseless's answers, each with its dense minimum-norm answer."""
    op = tvgsr.difference_operator(mask.shape[1], config.temporal_step)
    smoothness = tvgsr.spectral.hessian(np.zeros_like(mask), graph, op, 1.0, config.epsilon,
                                        config.beta)
    return ((tvgsr.solve_cg(y, mask, graph, config),
             tvgsr.dense_oracle_solve(y, mask, graph, config).x_hat),
            (tvgsr.solve_noiseless(y, mask, graph, config),
             free_block_minimizer(smoothness, y, mask)))


def assert_minimum_norm(y, mask, graph, config):
    for result, expected in minimum_norm_answers(y, mask, graph, config):
        scale = np.linalg.norm(expected)
        assert result.termination == "converged"
        assert np.linalg.norm(result.x_hat - expected) <= 1e-8 * scale


def two_step_chain_problem():
    """12 x 8 at step 2, where node 3 is sampled on even snapshots only."""
    rng = np.random.default_rng(50)
    graph = connected_geometric_graph(rng, 12, 3)
    mask = uniqueness_mask(rng, 12, 8).copy()
    mask[3] = 0.0
    mask[3, ::2] = 1.0
    y = mask * rng.normal(size=mask.shape)
    return y, mask, graph


@pytest.mark.parametrize("preconditioner", ["none", "temporal"])
class TestDegenerateProblems:
    """Singular and degenerate problems give the minimum-norm answer with either loop."""

    def test_unsampled_chain_at_step_two_warns_and_gives_the_minimum_norm(self, caplog,
                                                                          preconditioner):
        y, mask, graph = two_step_chain_problem()
        config = SolverConfig(upsilon=0.5, epsilon=0.1, temporal_step=2, delta=1e-12,
                              preconditioner=preconditioner)
        assert tvgsr.dense_oracle_solve(y, mask, graph, config).singular
        with caplog.at_level(logging.WARNING, logger="tvgsr"):
            assert_minimum_norm(y, mask, graph, config)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2  # one per solve
        assert all("1 of 12 nodes are never sampled on some chain of snapshots t = r (mod 2) "
                   "(first: 3)" in message for message in messages)

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("everywhere", [True, False])
    def test_isolated_node_at_zero_epsilon(self, preconditioner, kind, everywhere):
        # K_ii = 0 on the isolated node; sampled everywhere, the preconditioner runs with
        # its block's zero diagonal set to 1; otherwise e_i kron e_t joins null(H)
        graph = graph_with_isolated_node(kind)
        rng = np.random.default_rng(51)
        mask = uniqueness_mask(rng, 6, 5).copy()
        mask[5] = 1.0 if everywhere else np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        y = mask * rng.normal(size=mask.shape)
        config = SolverConfig(upsilon=0.5, epsilon=0.0, beta=1.5, delta=1e-12,
                              preconditioner=preconditioner)
        assert_minimum_norm(y, mask, graph, config)

    def test_zero_upsilon_returns_the_observations(self, preconditioner):
        rng = np.random.default_rng(52)
        graph = connected_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 5, 0.5, 53).mask
        y = mask * rng.normal(size=mask.shape)
        config = SolverConfig(upsilon=0.0, epsilon=0.1, delta=1e-12,
                              preconditioner=preconditioner)
        result = tvgsr.solve_cg(y, mask, graph, config)
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        assert np.linalg.norm(result.x_hat - oracle.x_hat) <= 1e-8 * np.linalg.norm(oracle.x_hat)
        assert np.array_equal(result.x_hat, y)

    def test_tgsr_forecast_is_singular_and_gives_the_minimum_norm(self, preconditioner):
        # every forecast snapshot t holds 1_C kron e_t in null(H) at epsilon = 0
        rng = np.random.default_rng(54)
        graph = connected_geometric_graph(rng, 6, 2)
        mask = tvgsr.forecasting_mask(6, 7, 2).mask
        y = mask * rng.normal(size=mask.shape)
        config = SolverConfig(upsilon=0.5, objective="tgsr", delta=1e-12,
                              preconditioner=preconditioner)
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        result = tvgsr.solve_cg(y, mask, graph, config)
        assert oracle.singular and result.termination == "converged"
        assert np.linalg.norm(result.x_hat - oracle.x_hat) <= 1e-8 * np.linalg.norm(oracle.x_hat)


class TestTemporalPreconditioner:
    def test_default_is_temporal_and_cuts_the_iterations(self):
        y, mask, graph, config = long_cg_problem()
        plain = tvgsr.solve_cg(y, mask, graph,
                               dataclasses.replace(config, preconditioner="none"))
        preconditioned = tvgsr.solve_cg(y, mask, graph, config)
        assert SolverConfig().preconditioner == "temporal" == config.preconditioner
        assert 3 * preconditioned.iterations < plain.iterations
        scale = np.linalg.norm(plain.x_hat)
        assert np.linalg.norm(preconditioned.x_hat - plain.x_hat) <= 1e-8 * scale

    def test_gr_static_normalizes_to_none(self):
        assert SolverConfig(objective="gr_static").preconditioner == "none"
        with pytest.raises(ParameterError, match="preconditioner"):
            SolverConfig(preconditioner="jacobi")

    def test_falls_back_to_the_plain_loop_bit_for_bit(self, monkeypatch, caplog):
        rng = np.random.default_rng(55)
        graph = connected_geometric_graph(rng, 8, 3)
        mask = tvgsr.random_entry_mask(8, 6, 0.6, 56).mask
        monkeypatch.setattr(tvgsr.solvers, "dpttrf", lambda d, e, **_: (d, e, 1))
        y = mask * rng.normal(size=mask.shape)
        config = SolverConfig(upsilon=0.5, epsilon=0.0)
        with caplog.at_level(logging.DEBUG, logger="tvgsr"):
            results = [tvgsr.solve_cg(y, mask, graph, dataclasses.replace(
                config, preconditioner=preconditioner)) for preconditioner in ("none", "temporal")]
        assert np.array_equal(results[0].x_hat, results[1].x_hat)
        assert np.array_equal(results[0].loss_trace, results[1].loss_trace)
        assert any("without the temporal preconditioner" in r.getMessage()
                   for r in caplog.records)

    def test_null_basis_spans_the_dense_null_space(self):
        # isolated and never-sampled nodes, and (component, snapshot) cells without a sample
        rng = np.random.default_rng(59)
        extra_levels = set()  # whether null(H) holds more than the unsampled chains
        for trial in range(120):
            n, step = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            m = int(rng.integers(step + 1, step + 5))
            weights = np.triu((rng.random((n, n)) < 0.35) * rng.uniform(0.2, 1.0, (n, n)), 1)
            graph = tvgsr.Graph(weights + weights.T, ("combinatorial", "normalized")[trial % 2])
            mask = (rng.random((n, m)) < rng.uniform(0.3, 1.0)).astype(float)
            mask[int(rng.integers(n))] = 0.0
            mask[:, int(rng.integers(m))] = 0.0
            mask[0, 0] = 1.0
            config = SolverConfig(upsilon=0.5, epsilon=(0.0, 0.1)[trial // 2 % 2],
                                  temporal_step=step, delta=1e-13)
            op = tvgsr.difference_operator(m, step)
            hessian = tvgsr.spectral.hessian(mask, graph, op, config.upsilon, config.epsilon, 1.0)
            eigenvalues = np.linalg.eigvalsh(hessian)
            dimension = int(np.sum(eigenvalues < 1e-10 * eigenvalues[-1]))
            chains, null = tvgsr.solvers._null_space(graph, mask, config)
            basis = np.zeros((n * m, 0)) if null is None else null[0].toarray()
            assert basis.shape[1] == dimension
            columns = basis.reshape(n, m, -1).transpose(1, 0, 2).reshape(n * m, -1)  # F order
            assert np.abs(hessian @ columns).max(initial=0.0) <= 1e-12 * np.abs(hessian).max()
            y = mask * rng.normal(size=mask.shape)
            for result, expected in minimum_norm_answers(y, mask, graph, config):
                assert result.termination == "converged"
                assert np.linalg.norm(result.x_hat - expected) <= 1e-10 * np.linalg.norm(expected)
            extra_levels.add(dimension > chains.sum())
        assert extra_levels == {True, False}

    @pytest.mark.parametrize("objective, beta", [("tgsr", 1.0), ("sobolev", 1.5)])
    def test_a_tgsr_snapshot_mask_runs_preconditioned(self, caplog, objective, beta):
        # at epsilon 0, 1 kron e_t joins null(H) for each of the mask's unsampled snapshots
        rng = np.random.default_rng(60)
        graph = connected_geometric_graph(rng, 30, 4)
        mask = tvgsr.snapshot_mask(30, 40, 0.5, 61).mask
        y = mask * rng.normal(size=mask.shape)
        config = SolverConfig(upsilon=0.05, beta=beta, objective=objective, delta=1e-10)
        with caplog.at_level(logging.WARNING, logger="tvgsr"):
            plain, projected = (tvgsr.solve_cg(y, mask, graph, dataclasses.replace(
                config, preconditioner=preconditioner)) for preconditioner in ("none", "temporal"))
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        assert oracle.singular and projected.termination == "converged"
        assert 3 * projected.iterations < plain.iterations
        scale = np.linalg.norm(oracle.x_hat)
        assert np.linalg.norm(projected.x_hat - oracle.x_hat) <= 1e-8 * scale
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["20 (graph component, snapshot) levels are undetermined at "
                            "epsilon = 0, such as every forecast snapshot's; the minimum-norm "
                            "reconstruction gives each of them zero mean"] * 2

    @pytest.mark.parametrize("solve", [tvgsr.solve_cg, tvgsr.solve_noiseless])
    def test_a_plain_solve_builds_no_null_basis(self, monkeypatch, caplog, solve):
        # "none" never uses B, so no splu factors B^T B; the levels are counted all the same
        rng = np.random.default_rng(60)
        graph = connected_geometric_graph(rng, 30, 4)
        mask = tvgsr.snapshot_mask(30, 40, 0.5, 61).mask
        y = mask * rng.normal(size=mask.shape)
        factored = []
        splu = tvgsr.solvers.splu
        monkeypatch.setattr(tvgsr.solvers, "splu",
                            lambda *args, **kwargs: factored.append(1) or splu(*args, **kwargs))
        calls, messages = {}, {}
        for preconditioner in ("none", "temporal"):
            config = SolverConfig(upsilon=0.05, objective="tgsr", delta=1e-10,
                                  preconditioner=preconditioner)
            factored.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tvgsr"):
                solve(y, mask, graph, config)
            calls[preconditioner] = len(factored)
            messages[preconditioner] = [r.getMessage() for r in caplog.records]
        assert calls == {"none": 0, "temporal": 1}
        assert messages["none"] == messages["temporal"] == [
            "20 (graph component, snapshot) levels are undetermined at epsilon = 0, such as "
            "every forecast snapshot's; the minimum-norm reconstruction gives each of them "
            "zero mean"]

    def test_noiseless_samples_stay_bit_exact(self):
        y, mask, graph, config = long_cg_problem()
        result = tvgsr.solve_noiseless(y, mask, graph, config, record_iterates=True)
        assert result.termination == "converged"
        assert all(np.array_equal(x[mask > 0], y[mask > 0]) for x in result.iterates)


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


def banded_graph(rng, n, width):
    """Each node joined to all within ``width`` labels, shuffled: RCM half-bandwidth ``width``."""
    offsets = range(1, width + 1)
    weights = scipy.sparse.diags([rng.uniform(0.2, 1.0, n - d) for d in offsets], offsets,
                                 shape=(n, n))
    shuffle = rng.permutation(n)
    return tvgsr.Graph((weights + weights.T).tocsr()[shuffle][:, shuffle])


def star_graph(rng, n):
    """A hub joined to every other node: no ordering gives it a narrow band."""
    weights = scipy.sparse.coo_matrix((rng.uniform(0.2, 1.0, n - 1),
                                       (np.zeros(n - 1, dtype=int), np.arange(1, n))),
                                      shape=(n, n))
    return tvgsr.Graph((weights + weights.T).tocsr())


def band_factorizations(monkeypatch):
    """A list that grows by one for each banded Cholesky factorization gr_static runs."""
    calls = []
    factor = tvgsr.solvers.dpbtrf

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(tvgsr.solvers, "dpbtrf", counting)
    return calls


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

    def test_unsampled_component_takes_least_squares_answer(self, monkeypatch):
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
        calls = band_factorizations(monkeypatch)
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=0.3, objective="gr_static"))
        assert len(calls) == 3
        system = np.diag(mask[:, 1]) + 0.3 * graph.laplacian
        least_squares = np.linalg.lstsq(system, mask[:, 1] * y[:, 1], rcond=None)[0]
        error = np.linalg.norm(result.x_hat[:, 1] - least_squares)
        assert error <= 1e-12 * np.linalg.norm(least_squares)
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

    @pytest.mark.parametrize("shape, band_path", [("band at the limit", True),
                                                  ("band past the limit", False),
                                                  ("star", False)])
    @pytest.mark.parametrize("upsilon", [0.05, 3.0])
    def test_both_sides_of_the_band_limit_match_dense_solve(self, monkeypatch, shape,
                                                            band_path, upsilon):
        rng = np.random.default_rng(50)
        limit = tvgsr.solvers._BAND_LIMIT
        n = 2 * limit + 40
        graph = {"band at the limit": lambda: banded_graph(rng, n, limit),
                 "band past the limit": lambda: banded_graph(rng, n, limit + 1),
                 "star": lambda: star_graph(rng, n)}[shape]()
        mask = tvgsr.random_entry_mask(n, 4, 0.5, 51).mask
        y = mask * rng.normal(size=(n, 4))
        calls = band_factorizations(monkeypatch)
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        assert len(calls) == (4 if band_path else 0)
        expected = dense_gr_static_columns(y, mask, graph, upsilon)
        for column in range(4):
            error = np.linalg.norm(result.x_hat[:, column] - expected[:, column])
            assert error <= 1e-12 * np.linalg.norm(expected[:, column])

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("upsilon", [0.05, 3.0])
    def test_band_path_gives_singular_columns_the_least_squares_answer(self, monkeypatch,
                                                                       kind, upsilon):
        # two clusters far apart, and isolated nodes 5 and 17
        rng = np.random.default_rng(52)
        coords = np.vstack([rng.uniform(0.0, 10.0, (40, 2)), rng.uniform(1e3, 1e3 + 10.0, (8, 2))])
        with pytest.warns(RuntimeWarning, match="disconnected"):
            weights = tvgsr.build_knn_graph(coords, 4).adjacency.copy()
        weights[[5, 17]] = 0.0
        weights[:, [5, 17]] = 0.0
        graph = tvgsr.Graph(weights, laplacian_kind=kind)
        assert graph.n_components == 4
        mask = tvgsr.random_entry_mask(48, 6, 0.6, 53).mask.copy()
        mask[[5, 17, 40], :] = 1.0
        mask[40:, 1] = 0.0  # the second cluster has no sample in column 1
        mask[17, 2] = 0.0  # nor has an isolated node in column 2
        y = mask * rng.normal(size=(48, 6))
        calls = band_factorizations(monkeypatch)
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        assert len(calls) == 6
        assert np.all(result.x_hat[40:, 1] == 0.0) and result.x_hat[17, 2] == 0.0
        for column in range(6):
            j = mask[:, column]
            system = np.diag(j) + upsilon * graph.laplacian
            rhs = j * y[:, column]
            if column in (1, 2):
                expected = np.linalg.lstsq(system, rhs, rcond=None)[0]
            else:
                expected = np.linalg.solve(system, rhs)
            error = np.linalg.norm(result.x_hat[:, column] - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("upsilon", [0.05, 3.0])
    def test_lu_path_gives_unsampled_components_zeros_without_least_squares(self, monkeypatch,
                                                                           upsilon):
        # a band past the limit, and a separate five-node path
        rng = np.random.default_rng(58)
        limit = tvgsr.solvers._BAND_LIMIT
        wide = banded_graph(rng, 2 * limit + 40, limit + 1).adjacency_csr
        path = scipy.sparse.diags([rng.uniform(0.2, 1.0, 4)], [1], shape=(5, 5))
        graph = tvgsr.Graph(scipy.sparse.block_diag([wide, path + path.T]).tocsr())
        n = graph.n_nodes
        mask = tvgsr.random_entry_mask(n, 4, 0.5, 59).mask.copy()
        mask[-5:, [0, 2]] = 0.0  # the path has no sample in columns 0 and 2
        mask[-5:, 1] = 1.0
        y = mask * rng.normal(size=(n, 4))
        expected = dense_gr_static_columns(y, mask, graph, upsilon)
        calls = band_factorizations(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        result = tvgsr.solve_gr_static(y, mask, graph,
                                       SolverConfig(upsilon=upsilon, objective="gr_static"))
        assert len(calls) == 0
        assert np.all(result.x_hat[-5:, [0, 2]] == 0.0)
        for column in range(4):
            error = np.linalg.norm(result.x_hat[:, column] - expected[:, column])
            assert error <= 1e-12 * np.linalg.norm(expected[:, column])

    def test_failed_band_factorization_is_a_numeric_failure(self, monkeypatch):
        rng = np.random.default_rng(54)
        graph = connected_geometric_graph(rng, 30, k=4)
        mask = tvgsr.random_entry_mask(30, 3, 0.5, 55).mask
        y = mask * rng.normal(size=(30, 3))
        monkeypatch.setattr(tvgsr.solvers, "dpbtrf", lambda band, **options: (band, 1))
        with pytest.raises(NumericError, match="upsilon=0.3"):
            tvgsr.solve_gr_static(y, mask, graph, SolverConfig(upsilon=0.3, objective="gr_static"))

    def test_singular_lu_factorization_is_a_numeric_failure(self, monkeypatch):
        rng = np.random.default_rng(60)
        graph = star_graph(rng, 2 * tvgsr.solvers._BAND_LIMIT + 40)
        mask = tvgsr.random_entry_mask(graph.n_nodes, 3, 0.5, 61).mask
        y = mask * rng.normal(size=mask.shape)
        splu = tvgsr.solvers.splu

        def singular(matrix, permc_spec, **options):  # the per-column factorizations
            if permc_spec == "NATURAL":
                raise RuntimeError("Factor is exactly singular")
            return splu(matrix, permc_spec=permc_spec, **options)

        monkeypatch.setattr(tvgsr.solvers, "splu", singular)
        with pytest.raises(NumericError, match="upsilon=0.3"):
            tvgsr.solve_gr_static(y, mask, graph, SolverConfig(upsilon=0.3, objective="gr_static"))

    def test_star_solve_allocates_less_than_a_dense_matrix(self):
        rng = np.random.default_rng(56)
        n = 1000
        graph = star_graph(rng, n)
        graph.laplacian_csr
        mask = tvgsr.random_entry_mask(n, 4, 0.5, 57).mask
        y = mask * rng.normal(size=(n, 4))
        config = SolverConfig(upsilon=0.1, objective="gr_static")
        tracemalloc.start()
        try:
            tvgsr.solve_gr_static(y, mask, graph, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

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

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_unsampled_snapshot_at_zero_epsilon_is_singular(self, beta):
        # The node-constant signal on a snapshot without samples is a null direction of
        # the Hessian at epsilon=0; (L + 0*I)^beta must not lift it to a rounding-level
        # positive eigenvalue, which the oracle would then divide by.
        config = SolverConfig(upsilon=0.05, epsilon=0.0, beta=beta, delta=1e-10)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            graph = random_geometric_graph(rng, 3, 2)
            mask = (rng.random((3, 8)) < 0.7).astype(float)
            mask[:, rng.integers(8)] = 0.0
            y = mask * rng.normal(size=mask.shape)
            oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
            result = tvgsr.solve_cg(y, mask, graph, config)
            assert oracle.singular
            error = np.linalg.norm(result.x_hat - oracle.x_hat)
            assert error <= 1e-8 * np.linalg.norm(oracle.x_hat)

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


def long_cg_problem(preconditioner="temporal"):
    """A problem on which CG runs past two gradient refreshes, with either preconditioner.

    beta 2 keeps the temporal preconditioner, which leaves out the graph's
    coupling, at about 370 iterations (FR-CG takes about 1,200).
    """
    rng = np.random.default_rng(33)
    graph = connected_geometric_graph(rng, 30, 3)
    mask = tvgsr.random_entry_mask(30, 20, 0.3, 34).mask
    y = mask * rng.normal(size=(30, 20))
    config = SolverConfig(upsilon=0.05, epsilon=0.01, beta=2.0, objective="sobolev",
                          delta=1e-10, preconditioner=preconditioner)
    return y, mask, graph, config


def allocating_action(graph, mask, config, v):
    """The Hessian action as fresh arrays: zero-filled scatter, all but the last factor of K,
    then J o V plus each stored entry of upsilon * K, row by row in CSR order.

    Fractional beta scales its dense product by upsilon and adds it to J o V.
    """
    s = config.temporal_step
    diff = v[:, s:] - v[:, :-s]
    scattered = np.zeros_like(v)
    scattered[:, :-s] -= diff
    scattered[:, s:] += diff
    action = mask * v
    if not float(config.beta).is_integer():
        penalty = tvgsr.sobolev_power(graph.laplacian, config.epsilon, config.beta)
        return action + config.upsilon * (penalty @ scattered)
    shifted = graph.laplacian_csr + config.epsilon * scipy.sparse.identity(
        graph.n_nodes, format="csr")
    for _ in range(int(config.beta) - 1):
        scattered = shifted @ scattered
    scaled = config.upsilon * shifted.data
    for row in range(graph.n_nodes):
        for k in range(shifted.indptr[row], shifted.indptr[row + 1]):
            action[row] += scaled[k] * scattered[shifted.indices[k]]
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

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("m", [1, 5])
    def test_add_product_into_zeros_is_the_sparse_product(self, index_dtype, m):
        rng = np.random.default_rng(39)
        matrix = scipy.sparse.random(9, 7, density=0.4, format="csr", random_state=40)
        matrix = scipy.sparse.csr_matrix(matrix.toarray() * (np.arange(9) != 4)[:, None])
        matrix.indptr = matrix.indptr.astype(index_dtype)
        matrix.indices = matrix.indices.astype(index_dtype)
        assert matrix.indptr[4] == matrix.indptr[5]  # row 4 stores no entry
        v = rng.normal(size=(7, m))
        out = np.zeros((9, m))
        assert tvgsr.solvers._add_product(matrix, matrix.data, v, out) is out
        assert np.array_equal(out, matrix @ v)
        transposed = np.zeros((5, 9)).T  # no flat view: the kernel would write into a copy
        with pytest.raises(ValueError):
            tvgsr.solvers._add_product(matrix, matrix.data, rng.normal(size=(7, 5)), transposed)
        for rows, columns in ((6, m), (9, m + 1)):  # sizes the kernel would read past
            with pytest.raises(ValueError):
                tvgsr.solvers._add_product(matrix, matrix.data, v[:rows], np.zeros((9, columns)))

    def test_daxpy_updates_the_raveled_buffers_in_place(self):
        x, d = np.zeros((6, 4)), np.ones((6, 4))
        xf = x.ravel()
        assert tvgsr.solvers.daxpy(d.ravel(), xf, a=0.5) is xf
        assert np.all(x == 0.5)

    def test_isolated_node_gets_epsilon(self):
        graph = graph_with_isolated_node("combinatorial")
        mask = np.zeros((6, 4))
        v = np.zeros((6, 4))
        v[5] = [0.0, 1.0, 0.0, 0.0]  # D D^T maps this row to (-1, 2, -1, 0)
        config = SolverConfig(upsilon=1.0, epsilon=0.5, beta=2.0, objective="sobolev")
        action = tvgsr.solvers.ProblemOperator(graph, mask, config).hessian_action(v)
        assert np.allclose(action[5], 0.25 * np.array([-1.0, 2.0, -1.0, 0.0]), rtol=1e-15)
        assert np.all(action[:5] == 0.0)

    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_one_hessian_action_per_iteration(self, monkeypatch, preconditioner):
        y, mask, graph, config = long_cg_problem(preconditioner)
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

    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_free_loss_matches_objective(self, preconditioner):
        y, mask, graph, config = long_cg_problem(preconditioner)
        result = tvgsr.solve_cg(y, mask, graph, config, record_iterates=True)
        assert result.iterations >= 100
        for loss, x in zip(result.loss_trace, result.iterates):
            exact = tvgsr.objective(x, y, mask, graph, config)
            assert abs(loss - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_loss_recurrence_tracks_the_objective(self, preconditioner):
        # between refreshes the loss falls by the line search's exact decrease
        y, mask, graph, config = long_cg_problem(preconditioner)
        result = tvgsr.solve_cg(y, mask, graph, config, record_iterates=True)
        assert result.iterations > 2 * 50
        for loss, x in zip(result.loss_trace, result.iterates):
            exact = tvgsr.objective(x, y, mask, graph, config)
            assert abs(loss - exact) <= 1e-12 * abs(exact)

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
    @pytest.mark.parametrize("preconditioner", ["none", "temporal"])
    def test_invariants_on_a_long_solve(self, preconditioner):
        y, mask, graph, config = long_cg_problem(preconditioner)
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
