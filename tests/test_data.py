import math

import numpy as np
import pytest

import tvgsr
from tvgsr import InputError, ParameterError, ParseError
from tvgsr import textio


class TestSynthGraph:
    def test_defaults_and_range(self):
        coords, graph = tvgsr.synth_graph(seed=0)
        assert coords.shape == (100, 2)
        assert graph.n_nodes == 100
        assert coords.min() >= 0.0
        assert coords.max() <= 100.0

    def test_seeded_determinism(self):
        a, _ = tvgsr.synth_graph(n_nodes=30, k=3, seed=5)
        b, _ = tvgsr.synth_graph(n_nodes=30, k=3, seed=5)
        assert np.array_equal(a, b)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            tvgsr.synth_graph(n_nodes=1)
        for bad in ({"side": 0.0}, {"side": math.nan}, {"side": math.inf}, {"seed": -1}):
            with pytest.raises(ParameterError):
                tvgsr.synth_graph(**bad)


@pytest.fixture(scope="module")
def graph():
    _, built = tvgsr.synth_graph(n_nodes=60, k=4, seed=7)
    assert built.is_connected
    return built


class TestSynthSignal:
    def test_first_snapshot_energy(self, graph):
        signal = tvgsr.synth_signal(graph, 10, alpha=1.0, seed=0)
        assert np.sum(signal[:, 0] ** 2) == pytest.approx(1e4, rel=1e-8)

    def test_innovation_norms_exact(self, graph):
        alpha = 3.25
        _, innovations = tvgsr.synth_signal(graph, 8, alpha, seed=1,
                                            return_innovations=True)
        norms = np.linalg.norm(innovations, axis=0)
        assert np.abs(norms - alpha).max() <= 1e-12 * alpha

    def test_alpha_smoothness_membership(self, graph):
        alpha = 2.0
        signal = tvgsr.synth_signal(graph, 12, alpha, seed=2)
        op = tvgsr.difference_operator(12, 1)
        level = tvgsr.alpha_smoothness_level(signal, op, graph.laplacian)
        assert level <= alpha**2 + 1e-8

    def test_first_snapshot_is_low_frequency(self, graph):
        signal = tvgsr.synth_signal(graph, 5, alpha=1.0, seed=3)
        coefficients = graph.spectrum().eigenvectors.T @ signal[:, 0]
        assert np.abs(coefficients[11:]).max() <= 1e-10

    def test_differences_orthogonal_to_constant(self, graph):
        # L^{-1/2} annihilates the constant mode
        signal = tvgsr.synth_signal(graph, 9, alpha=5.0, seed=4)
        diffs = tvgsr.temporal_difference(signal, tvgsr.difference_operator(9, 1))
        assert np.abs(diffs.sum(axis=0)).max() <= 1e-8

    def test_zero_alpha_constant_in_time(self, graph):
        signal = tvgsr.synth_signal(graph, 6, alpha=0.0, seed=5)
        diffs = tvgsr.temporal_difference(signal, tvgsr.difference_operator(6, 1))
        assert np.all(diffs == 0.0)

    def test_distinct_seeds_distinct_first_snapshots(self, graph):
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        for a, b in pairs:
            xa = tvgsr.synth_signal(graph, 3, 1.0, seed=a)
            xb = tvgsr.synth_signal(graph, 3, 1.0, seed=b)
            assert not np.array_equal(xa[:, 0], xb[:, 0])

    def test_disconnected_graph_rejected(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [500.0, 0.0], [500.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            graph = tvgsr.build_knn_graph(coords, 1)
        with pytest.raises(InputError):
            tvgsr.synth_signal(graph, 4, 1.0)

    def test_too_few_snapshots(self, graph):
        with pytest.raises(ParameterError):
            tvgsr.synth_signal(graph, 1, 1.0)

    def test_negative_seed_rejected(self, graph):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            tvgsr.synth_signal(graph, 4, 1.0, seed=-1)


class TestLoadDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-50, 50, size=(3, 2))
        signal = rng.normal(size=(3, 5)) * 1e3
        coords_path = tmp_path / "coords.csv"
        signal_path = tmp_path / "signal.csv"
        textio.write_coordinates(coords_path, coords)
        textio.write_matrix(signal_path, signal)
        dataset = tvgsr.load_dataset(coords_path, signal_path)
        assert np.array_equal(dataset.coords, coords)
        assert np.array_equal(dataset.signal, signal)

    def test_row_count_mismatch_names_both(self, tmp_path):
        textio.write_coordinates(tmp_path / "c.csv", np.zeros((3, 2)))
        textio.write_matrix(tmp_path / "s.csv", np.zeros((2, 4)))
        with pytest.raises(InputError, match="3.*2"):
            tvgsr.load_dataset(tmp_path / "c.csv", tmp_path / "s.csv")

    def test_non_numeric_cell_cites_position(self, tmp_path):
        textio.write_coordinates(tmp_path / "c.csv", np.zeros((2, 2)))
        (tmp_path / "s.csv").write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            tvgsr.load_dataset(tmp_path / "c.csv", tmp_path / "s.csv")

    def test_nonfinite_entries_are_rejected_with_their_indices(self, tmp_path):
        textio.write_coordinates(tmp_path / "c.csv", np.zeros((2, 2)))
        (tmp_path / "s.csv").write_text("1.0,nan\n3.0,4.0\n")
        with pytest.raises(InputError, match=r"1 non-finite entries at .* \[\(0, 1\)\]"):
            tvgsr.load_dataset(tmp_path / "c.csv", tmp_path / "s.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            tvgsr.load_dataset(tmp_path / "missing.csv", tmp_path / "also_missing.csv")


class TestCumulativeToDaily:
    def test_constant_cumulative(self):
        x = np.full((2, 4), 7.0)
        assert np.all(tvgsr.cumulative_to_daily(x) == 0.0)

    def test_simple_counts(self):
        assert np.array_equal(tvgsr.cumulative_to_daily(np.array([[0.0, 1.0, 3.0]])),
                              np.array([[1.0, 2.0]]))

    def test_equals_temporal_difference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        expected = tvgsr.temporal_difference(x, tvgsr.difference_operator(6, 1))
        assert np.array_equal(tvgsr.cumulative_to_daily(x), expected)

    def test_single_snapshot_rejected(self):
        with pytest.raises(ParameterError):
            tvgsr.cumulative_to_daily(np.ones((3, 1)))


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(InputError):
            tvgsr.Dataset(coords=np.zeros((3, 2)), signal=np.zeros((4, 2)))

    def test_synth_dataset_deterministic(self):
        a, _ = tvgsr.synth_dataset(n_nodes=20, k=3, n_snapshots=5, alpha=0.5, seed=9)
        b, _ = tvgsr.synth_dataset(n_nodes=20, k=3, n_snapshots=5, alpha=0.5, seed=9)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.coords, b.coords)
