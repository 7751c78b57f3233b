import dataclasses
import math
import os

import numpy as np
import pytest

import tvgsr
from tvgsr import InputError, ParameterError, SolverConfig
from tvgsr.evaluation import mask_seed


@pytest.fixture(scope="module")
def small_setup():
    dataset, graph = tvgsr.synth_dataset(n_nodes=25, k=3, n_snapshots=8, alpha=1.0, seed=4)
    return dataset, graph


def two_method_plan(levels=(0.5,), repetitions=2, regime="random_entry", base_seed=3):
    return tvgsr.ExperimentPlan(
        regime=regime,
        levels=levels,
        repetitions=repetitions,
        methods={
            "tgsr": SolverConfig(upsilon=0.5, objective="tgsr"),
            "sobolev": SolverConfig(upsilon=0.5, epsilon=0.1, objective="sobolev"),
        },
        base_seed=base_seed,
    )


class TestMetrics:
    def test_identical_vectors_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert tvgsr.rmse(x, x) == 0.0
        assert tvgsr.mae(x, x) == 0.0
        assert tvgsr.mape(x, x) == 0.0

    def test_hand_arithmetic(self):
        x_hat = np.array([0.0, 0.0])
        x_star = np.array([3.0, 4.0])
        assert tvgsr.rmse(x_hat, x_star) == pytest.approx(math.sqrt(12.5))
        assert tvgsr.mae(x_hat, x_star) == pytest.approx(3.5)

    def test_mape_excludes_zero_truth(self):
        truth = np.array([0.0, 2.0])
        assert np.count_nonzero(truth == 0) == 1
        assert tvgsr.mape(np.array([5.0, 1.0]), truth) == pytest.approx(0.5)

    def test_mape_all_excluded_is_nan(self):
        truth = np.array([0.0])
        assert math.isnan(tvgsr.mape(np.array([1.0]), truth))
        assert np.count_nonzero(truth == 0) == 1

    def test_mape_is_fraction_not_percent(self):
        assert tvgsr.mape(np.array([1.1]), np.array([1.0])) == pytest.approx(0.1)

    def test_symmetry_of_rmse_and_mae(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert tvgsr.rmse(a, b) == tvgsr.rmse(b, a)
        assert tvgsr.mae(a, b) == tvgsr.mae(b, a)

    def test_mape_not_symmetric(self):
        a, b = np.array([2.0]), np.array([4.0])
        assert tvgsr.mape(a, b) != tvgsr.mape(b, a)

    def test_errors(self):
        with pytest.raises(InputError):
            tvgsr.rmse(np.zeros(2), np.zeros(3))
        with pytest.raises(InputError):
            tvgsr.mae(np.array([]), np.array([]))


class TestMaskSeed:
    def test_stable_value(self):
        # frozen blake2b-derived value; a change here breaks reproducibility
        assert mask_seed(0, "random_entry", 0.5, 0) == mask_seed(0, "random_entry", 0.5, 0)
        assert mask_seed(0, "random_entry", 0.5, 0) != mask_seed(0, "random_entry", 0.5, 1)
        assert mask_seed(0, "random_entry", 0.5, 0) != mask_seed(0, "snapshot", 0.5, 0)
        assert mask_seed(0, "random_entry", 0.5, 0) != mask_seed(1, "random_entry", 0.5, 0)

    def test_is_64_bit(self):
        value = mask_seed(123, "forecasting", 3, 7)
        assert 0 <= value < 2**64


class TestExperimentPlan:
    def test_validation(self):
        with pytest.raises(ParameterError):
            two_method_plan(levels=())
        with pytest.raises(ParameterError):
            two_method_plan(levels=(1.5,))
        with pytest.raises(ParameterError):
            two_method_plan(levels=(0.5,), repetitions=0)
        with pytest.raises(ParameterError):
            tvgsr.ExperimentPlan(regime="forecasting", levels=(11,), repetitions=1,
                                 methods={"tgsr": SolverConfig(objective="tgsr")})
        with pytest.raises(ParameterError):
            tvgsr.ExperimentPlan(regime="bogus", levels=(0.5,), repetitions=1,
                                 methods={"tgsr": SolverConfig(objective="tgsr")})

    @pytest.mark.parametrize("regime, levels", [("random_entry", (0.5, 0.7, 0.5)),
                                                ("forecasting", (2, 2.0))])
    def test_repeated_level_is_rejected(self, regime, levels):
        # each cell would run, and write its raw and aggregate rows, once per copy
        with pytest.raises(ParameterError, match="once"):
            two_method_plan(levels=levels, regime=regime)


class TestRunExperiment:
    def test_full_density_perfect_reconstruction(self, small_setup):
        dataset, graph = small_setup
        plan = two_method_plan(levels=(1.0,), repetitions=1)
        result = tvgsr.run_experiment(plan, dataset, graph)
        for row in result.rows:
            assert row.rmse <= 1e-8

    def test_deterministic_given_base_seed(self, small_setup):
        dataset, graph = small_setup
        plan = two_method_plan()
        plan = dataclasses.replace(plan, methods={**plan.methods, "sobolev_eps0": SolverConfig(
            upsilon=0.5, epsilon=0.0, beta=1.0, objective="sobolev")})
        a = tvgsr.run_experiment(plan, dataset, graph)
        b = tvgsr.run_experiment(plan, dataset, graph)
        assert a.mask_digests == b.mask_digests
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.rmse == row_b.rmse
            assert row_a.mae == row_b.mae
            assert row_a.iterations == row_b.iterations
        # at eps 0, beta 1 the shifted-power objective is tgsr, iteration for iteration
        iterations = {name: [r.iterations for r in a.rows if r.method == name]
                      for name in ("tgsr", "sobolev_eps0")}
        assert iterations["tgsr"] == iterations["sobolev_eps0"]

    def test_aggregates_are_arithmetic_means(self, small_setup):
        dataset, graph = small_setup
        plan = two_method_plan(levels=(0.4, 0.7), repetitions=3)
        result = tvgsr.run_experiment(plan, dataset, graph)
        for aggregate in result.aggregates:
            rows = [r for r in result.rows
                    if r.method == aggregate.method and r.level == aggregate.level]
            assert len(rows) == plan.repetitions
            assert aggregate.rmse == pytest.approx(np.mean([r.rmse for r in rows]), abs=1e-12)
            assert aggregate.iterations == pytest.approx(
                np.mean([r.iterations for r in rows]), abs=1e-12)

    def test_row_cardinality_and_order(self, small_setup):
        dataset, graph = small_setup
        plan = two_method_plan(levels=(0.4, 0.7), repetitions=2)
        result = tvgsr.run_experiment(plan, dataset, graph)
        assert len(result.rows) == 2 * 2 * 2
        keys = [(r.method, r.level, r.repetition) for r in result.rows]
        expected = [(m, l, r) for m in ("tgsr", "sobolev") for l in (0.4, 0.7)
                    for r in range(2)]
        assert keys == expected

    def test_table_rows_list_their_fields_in_header_order(self):
        columns = {"density_or_horizon": "level"}
        for row, header in ((tvgsr.evaluation.ResultRow, tvgsr.evaluation.RAW_HEADER),
                            (tvgsr.evaluation.AggregateRow,
                             tvgsr.evaluation.AGGREGATE_HEADER)):
            assert [f.name for f in dataclasses.fields(row)] == \
                [columns.get(name, name) for name in header]

    def test_forecasting_regime(self, small_setup):
        dataset, graph = small_setup
        plan = tvgsr.ExperimentPlan(
            regime="forecasting", levels=(1, 2), repetitions=2,
            methods={"sobolev": SolverConfig(upsilon=0.5, epsilon=0.1, objective="sobolev")},
            base_seed=1)
        result = tvgsr.run_experiment(plan, dataset, graph)
        assert len(result.rows) == 4
        # repetitions of a forecasting level share the deterministic mask
        assert result.mask_digests[(1, 0)] == result.mask_digests[(1, 1)]

    def test_gr_static_method_supported(self, small_setup):
        dataset, graph = small_setup
        plan = tvgsr.ExperimentPlan(
            regime="random_entry", levels=(0.6,), repetitions=1,
            methods={"gr": SolverConfig(upsilon=0.1, objective="gr_static")},
            base_seed=2)
        result = tvgsr.run_experiment(plan, dataset, graph)
        assert result.rows[0].iterations == 0
        assert result.rows[0].rmse > 0.0

    def test_parallel_matches_sequential(self, small_setup):
        dataset, graph = small_setup
        plan = two_method_plan(levels=(0.5,), repetitions=2)
        seq = tvgsr.run_experiment(plan, dataset, graph, jobs=1)
        par = tvgsr.run_experiment(plan, dataset, graph, jobs=2)
        assert seq.mask_digests == par.mask_digests
        for row_s, row_p in zip(seq.rows, par.rows):
            assert row_s.rmse == row_p.rmse
            assert row_s.iterations == row_p.iterations


    def test_workers_get_the_graph_once(self, small_setup, tmp_path, monkeypatch):
        dataset, graph = small_setup
        fresh = tvgsr.Graph(graph.adjacency)  # built with its Laplacian, before the count starts
        builds = tmp_path / "builds.txt"
        original = tvgsr.graphs.laplacian

        def counting(g):
            with open(builds, "a") as fh:  # forked workers append here too
                fh.write(f"{os.getpid()}\n")
            return original(g)

        monkeypatch.setattr(tvgsr.graphs, "laplacian", counting)
        plan = two_method_plan(levels=(0.5,), repetitions=4)
        par = tvgsr.run_experiment(plan, dataset, fresh, jobs=2)
        assert not builds.exists()  # no worker rebuilds the Laplacian
        seq = tvgsr.run_experiment(plan, dataset, fresh, jobs=1)

        def written(result, tag):
            tables = []
            for write in (tvgsr.evaluation.write_raw_results,
                          tvgsr.evaluation.write_aggregate_results):
                path = tmp_path / f"{tag}-{write.__name__}.csv"
                write(path, result)
                lines = path.read_text().split("\n")
                drop = lines[0].split(",").index("wall_time_s")
                tables.append([[c for i, c in enumerate(line.split(",")) if i != drop]
                               for line in lines])
            return tables

        assert written(par, "par") == written(seq, "seq")

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, small_setup, jobs):
        dataset, graph = small_setup
        with pytest.raises(ParameterError, match="jobs must be >= 1"):
            tvgsr.run_experiment(two_method_plan(), dataset, graph, jobs=jobs)

    @pytest.mark.parametrize("jobs, levels, repetitions, workers", [
        (8, (0.5,), 3, 3), (2, (0.5,), 4, 2), (5, (0.4, 0.7), 1, 2), (3, (0.5,), 3, 3)])
    def test_pool_starts_no_more_workers_than_cells(self, small_setup, monkeypatch, jobs,
                                                    levels, repetitions, workers):
        dataset, graph = small_setup
        started = []

        class InProcessPool:
            """Records its size and runs the cells in this process, so no worker starts."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(tvgsr.evaluation, "_worker_problem", ())
        monkeypatch.setattr(tvgsr.evaluation, "ProcessPoolExecutor", InProcessPool)
        plan = two_method_plan(levels=levels, repetitions=repetitions)
        pooled = tvgsr.run_experiment(plan, dataset, graph, jobs=jobs)
        assert started == [workers]
        seq = tvgsr.run_experiment(plan, dataset, graph, jobs=1)
        assert pooled.mask_digests == seq.mask_digests

        def untimed(rows):
            return [dataclasses.replace(row, wall_time_s=0.0) for row in rows]

        assert untimed(pooled.rows) == untimed(seq.rows)


class TestTuneParameters:
    def test_deterministic_and_in_grid(self, small_setup):
        dataset, graph = small_setup
        config = SolverConfig(objective="sobolev")
        grid_u = (0.1, 1.0)
        grid_e = (0.05, 0.2)
        a = tvgsr.tune_parameters(dataset, graph, config, 0.5, seed=77,
                                  upsilon_grid=grid_u, epsilon_grid=grid_e)
        b = tvgsr.tune_parameters(dataset, graph, config, 0.5, seed=77,
                                  upsilon_grid=grid_u, epsilon_grid=grid_e)
        assert a == b
        assert a.upsilon in grid_u
        assert a.epsilon in grid_e

    def test_tgsr_ignores_epsilon_grid(self, small_setup):
        dataset, graph = small_setup
        result = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="tgsr"),
                                       0.5, seed=78, upsilon_grid=(0.1, 1.0),
                                       epsilon_grid=(0.3, 0.6))
        assert result.epsilon == 0.0

    def test_iterations_criterion(self, small_setup):
        dataset, graph = small_setup
        result = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="sobolev"),
                                       0.5, seed=79, upsilon_grid=(0.5,),
                                       epsilon_grid=(0.05, 0.5), criterion="iterations")
        assert float(result.score).is_integer()

    def test_empty_grids_raise(self, small_setup):
        dataset, graph = small_setup
        for config, grids in ((SolverConfig(objective="sobolev"), ((), (0.1,))),
                              (SolverConfig(objective="sobolev"), ((0.5,), ())),
                              (SolverConfig(objective="tgsr"), ((), (0.1,)))):
            with pytest.raises(ParameterError, match="non-empty"):
                tvgsr.tune_parameters(dataset, graph, config, 0.5, seed=80,
                                      upsilon_grid=grids[0], epsilon_grid=grids[1])

    def test_tgsr_ignores_an_empty_epsilon_grid(self, small_setup):
        dataset, graph = small_setup
        result = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="tgsr"), 0.5,
                                       seed=81, upsilon_grid=(0.5,), epsilon_grid=())
        assert (result.upsilon, result.epsilon) == (0.5, 0.0)


def old_reconstruct(signal, mask, graph, config):
    """The mask -> solve -> score steps each caller used to repeat."""
    observed = mask * signal
    if config.objective == "gr_static":
        result = tvgsr.solve_gr_static(observed, mask, graph, config)
    else:
        result = tvgsr.solve_cg(observed, mask, graph, config)
    eval_index = mask == 0
    if not np.any(eval_index):
        scores = (0.0, 0.0, 0.0, 0)
    else:
        estimate, reference = result.x_hat[eval_index], signal[eval_index]
        scores = (tvgsr.rmse(estimate, reference), tvgsr.mae(estimate, reference),
                  tvgsr.mape(estimate, reference), int(np.count_nonzero(reference == 0)))
    return result, scores + (int(eval_index.sum()),)


class TestReconstruct:
    CONFIGS = (SolverConfig(upsilon=0.5, epsilon=0.1, objective="sobolev"),
               SolverConfig(upsilon=0.5, epsilon=0.2, beta=2.0, temporal_step=2,
                            objective="sobolev"),
               SolverConfig(upsilon=0.5, objective="tgsr"),
               SolverConfig(upsilon=0.1, objective="gr_static"))

    def check(self, signal, mask, graph, config):
        got = tvgsr.evaluation.reconstruct(signal, mask, graph, config)
        want, scores = old_reconstruct(signal, mask, graph, config)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert np.array_equal(got.loss_trace, want.loss_trace)
        assert (got.iterations, got.termination) == (want.iterations, want.termination)
        assert (got.rmse, got.mae, got.mape, got.mape_excluded, got.evaluated_entries) == scores
        for value, want_value in zip((got.rmse, got.mae, got.mape), scores):
            assert type(value) is type(want_value) is float
        return got

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_the_per_caller_steps(self, small_setup, config):
        dataset, graph = small_setup
        for seed in (1, 2):
            mask = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5,
                                           seed).mask
            got = self.check(dataset.signal, mask, graph, config)
            assert got.evaluated_entries == int((mask == 0).sum()) > 0

    @pytest.mark.parametrize("config", CONFIGS)
    def test_nothing_hidden_scores_zero(self, small_setup, config):
        dataset, graph = small_setup
        got = self.check(dataset.signal, np.ones(dataset.signal.shape), graph, config)
        assert (got.rmse, got.mae, got.mape, got.mape_excluded, got.evaluated_entries) == \
            (0.0, 0.0, 0.0, 0, 0)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_zero_truth_among_hidden_is_excluded_from_mape(self, small_setup, config):
        dataset, graph = small_setup
        mask = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5, 3).mask
        signal = dataset.signal.copy()
        hidden = np.argwhere(mask == 0)[:4]
        signal[tuple(hidden.T)] = 0.0
        got = self.check(signal, mask, graph, config)
        assert got.mape_excluded == 4

    def test_solvers_are_looked_up_at_call_time(self, small_setup, monkeypatch):
        dataset, graph = small_setup
        calls = []

        def counting(name):
            original = getattr(tvgsr.evaluation, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("solve_cg", "solve_gr_static"):
            monkeypatch.setattr(tvgsr.evaluation, name, counting(name))
        mask = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5, 4).mask
        for config in self.CONFIGS:
            tvgsr.evaluation.reconstruct(dataset.signal, mask, graph, config)
        assert calls == ["solve_cg", "solve_cg", "solve_cg", "solve_gr_static"]

    @pytest.mark.parametrize("config", CONFIGS[:3])
    def test_a_temporal_solve_checks_its_inputs_once(self, small_setup, config, monkeypatch):
        # gr_static's loss comes from objective(), which checks its own inputs
        dataset, graph = small_setup
        original = tvgsr.solvers._check_problem
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(tvgsr.solvers, "_check_problem", counting)
        mask = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5, 6).mask
        tvgsr.evaluation.reconstruct(dataset.signal, mask, graph, config)
        assert len(calls) == 1

    def test_a_gr_static_solve_checks_its_inputs_once(self, small_setup, monkeypatch):
        dataset, graph = small_setup
        original = tvgsr.solvers._check_problem
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(tvgsr.solvers, "_check_problem", counting)
        mask = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5, 6).mask
        tvgsr.evaluation.reconstruct(dataset.signal, mask, graph, self.CONFIGS[3])
        assert len(calls) == 1

    @pytest.mark.parametrize("config", CONFIGS)
    def test_mask_of_the_wrong_shape_is_an_input_error(self, small_setup, config):
        dataset, graph = small_setup
        mask = np.ones((dataset.n_nodes, dataset.n_snapshots - 1))
        with pytest.raises(InputError, match="does not match signal shape"):
            tvgsr.evaluation.reconstruct(dataset.signal, mask, graph, config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_sampling_mask_is_accepted(self, small_setup, config):
        dataset, graph = small_setup
        sampling = tvgsr.random_entry_mask(dataset.n_nodes, dataset.n_snapshots, 0.5, 5)
        got = tvgsr.evaluation.reconstruct(dataset.signal, sampling, graph, config)
        want = self.check(dataset.signal, sampling.mask, graph, config)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert (got.rmse, got.mae, got.mape, got.evaluated_entries) == \
            (want.rmse, want.mae, want.mape, want.evaluated_entries)
