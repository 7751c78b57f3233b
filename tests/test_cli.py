import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvgsr
from tvgsr import textio
from tvgsr.cli import main


def read_kv(path):
    return textio.read_keyvalues(path)


@pytest.fixture
def toy_files(tmp_path):
    """Three-node coordinate file plus a smooth signal."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    signal = np.array([
        [1.0, 1.1, 1.2, 1.3],
        [0.9, 1.0, 1.1, 1.2],
        [1.1, 1.2, 1.3, 1.4],
    ])
    coords_path = tmp_path / "coords.csv"
    signal_path = tmp_path / "signal.csv"
    textio.write_coordinates(coords_path, coords)
    textio.write_matrix(signal_path, signal)
    return str(coords_path), str(signal_path)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = main(["synth", "--n", "30", "--k", "3", "--snapshots", "6",
                 "--alpha", "0.5", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


class TestBuildGraph:
    def test_toy_adjacency_symmetric(self, toy_files, tmp_path):
        coords_path, _ = toy_files
        out = tmp_path / "graph"
        assert main(["build-graph", "--coords", coords_path, "--k", "1",
                     "--out", str(out)]) == 0
        weights = textio.read_matrix(out / "adjacency.csv")
        assert np.array_equal(weights, weights.T)
        assert weights.shape == (3, 3)

    def test_default_k_recorded_in_manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        coords_path = tmp_path / "c.csv"
        textio.write_coordinates(coords_path, rng.uniform(0, 10, size=(15, 2)))
        out = tmp_path / "graph"
        assert main(["build-graph", "--coords", str(coords_path), "--out", str(out)]) == 0
        manifest = read_kv(out / "manifest.txt")
        assert manifest["k"] == "10"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["build-graph", "--coords", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "g")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, toy_files):
        coords_path, _ = toy_files
        assert main(["build-graph", "--coords", coords_path]) == 1


class TestNotUtf8:
    """A text input holding a byte that is not UTF-8 is a parse error (exit 2) naming its line."""

    @pytest.mark.parametrize("reader, line", [("signal", 3), ("coords", 3), ("plan", 3),
                                              ("signal", 1)],
                             ids=["signal", "coords", "plan", "signal-line-1"])
    def test_exit_2_names_the_line(self, toy_files, tmp_path, capsys, reader, line):
        coords_path, signal_path = toy_files
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5\nrepetitions=1\nmethods=tgsr\n")
        paths = {"signal": signal_path, "coords": coords_path, "plan": str(plan_path)}
        lines = Path(paths[reader]).read_bytes().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        Path(paths[reader]).write_bytes(b"\n".join(lines))
        code = main(["benchmark", "--plan", str(plan_path), "--coords", coords_path,
                     "--signal", signal_path, "--k", "1", "--out", str(tmp_path / "b")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"tvgsr: parse error: {paths[reader]}: line {line}: not UTF-8 text (byte 0xff)\n")


class TestSynth:
    def test_default_node_count_shape(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--snapshots", "4", "--alpha", "1.0",
                     "--out", str(out)]) == 0
        signal = textio.read_matrix(out / "signal.csv")
        assert signal.shape == (100, 4)

    def test_same_seed_identical_files(self, tmp_path):
        args = ["synth", "--n", "25", "--k", "3", "--snapshots", "5",
                "--alpha", "0.3", "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("coords.csv", "signal.csv", "adjacency.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_alpha_constant_in_time(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--n", "20", "--k", "3", "--snapshots", "5",
                     "--alpha", "0.0", "--out", str(out)]) == 0
        signal = textio.read_matrix(out / "signal.csv")
        assert np.all(signal == signal[:, :1])


class TestSample:
    def test_mask_from_signal_shape(self, synth_dir, tmp_path):
        out = tmp_path / "mask"
        assert main(["sample", "--signal", str(synth_dir / "signal.csv"),
                     "--regime", "random_entry", "--density", "0.5",
                     "--seed", "2", "--out", str(out)]) == 0
        mask = textio.read_mask(out / "mask.csv")
        assert mask.shape == (30, 6)
        assert np.all(mask.sum(axis=0) == 15)

    def test_forecasting_mask(self, tmp_path):
        out = tmp_path / "mask"
        assert main(["sample", "--n-nodes", "4", "--snapshots", "6",
                     "--regime", "forecasting", "--horizon", "2",
                     "--out", str(out)]) == 0
        mask = textio.read_mask(out / "mask.csv")
        assert np.array_equal(mask.sum(axis=0), [4, 4, 4, 4, 0, 0])
        echo = read_kv(out / "config.txt")
        assert echo["uniqueness_condition2"] == "False"

    def test_needs_shape_information(self, tmp_path):
        assert main(["sample", "--regime", "random_entry", "--density", "0.5",
                     "--out", str(tmp_path / "m")]) == 1


class TestReconstruct:
    def test_tgsr_equals_sobolev_special_case_bitwise(self, synth_dir, tmp_path):
        common = ["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                  "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                  "--regime", "random_entry", "--density", "0.6", "--seed", "5",
                  "--upsilon", "0.5"]
        out_t, out_s = tmp_path / "t", tmp_path / "s"
        assert main(common + ["--objective", "tgsr", "--out", str(out_t)]) == 0
        assert main(common + ["--objective", "sobolev", "--epsilon", "0",
                              "--beta", "1", "--out", str(out_s)]) == 0
        for name in ("x_hat.csv", "loss_trace.csv", "mask.csv"):
            assert (out_t / name).read_bytes() == (out_s / name).read_bytes()
        metrics_t = read_kv(out_t / "metrics.txt")
        metrics_s = read_kv(out_s / "metrics.txt")
        for key in ("rmse", "mae", "mape", "iterations"):
            assert metrics_t[key] == metrics_s[key]

    def test_full_density_perfect(self, synth_dir, tmp_path):
        out = tmp_path / "full"
        assert main(["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--regime", "random_entry", "--density", "1.0",
                     "--objective", "sobolev", "--out", str(out)]) == 0
        metrics = read_kv(out / "metrics.txt")
        assert float(metrics["rmse"]) <= 1e-8
        assert metrics["evaluated_entries"] == "0"

    def test_oracle_check_on_tiny_instance(self, toy_files, tmp_path):
        coords_path, signal_path = toy_files
        out = tmp_path / "r"
        assert main(["reconstruct", "--coords", coords_path, "--signal", signal_path,
                     "--k", "1", "--regime", "random_entry", "--density", "0.7",
                     "--seed", "1", "--objective", "sobolev", "--epsilon", "0.1",
                     "--upsilon", "0.5", "--delta", "1e-9",
                     "--oracle-check", "--out", str(out)]) == 0
        metrics = read_kv(out / "metrics.txt")
        assert float(metrics["oracle_rel_diff"]) < 1e-6

    def test_mask_file_input(self, synth_dir, tmp_path):
        mask = tvgsr.random_entry_mask(30, 6, 0.5, 9).mask
        mask_path = tmp_path / "mask.csv"
        textio.write_mask(mask_path, mask)
        out = tmp_path / "r"
        assert main(["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--mask", str(mask_path), "--objective", "tgsr",
                     "--out", str(out)]) == 0
        x_hat = textio.read_matrix(out / "x_hat.csv")
        assert x_hat.shape == (30, 6)

    def test_missing_signal_exit_2(self, toy_files, tmp_path):
        coords_path, _ = toy_files
        code = main(["reconstruct", "--coords", coords_path,
                     "--signal", str(tmp_path / "missing.csv"),
                     "--regime", "random_entry", "--density", "0.5",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_gr_static_objective(self, synth_dir, tmp_path):
        out = tmp_path / "gr"
        assert main(["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--regime", "random_entry", "--density", "0.6", "--seed", "2",
                     "--objective", "gr_static", "--upsilon", "0.1",
                     "--out", str(out)]) == 0
        metrics = read_kv(out / "metrics.txt")
        assert metrics["iterations"] == "0"
        assert "stop_reason" not in metrics
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("preconditioner, problem", [
        ("none", []), ("temporal", ["--beta", "2", "--upsilon", "1"])])  # both past 50 iterations
    def test_trace_and_telemetry_metrics(self, synth_dir, tmp_path, preconditioner, problem):
        out = tmp_path / "r"
        assert main(["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--regime", "random_entry", "--density", "0.5", "--seed", "4",
                     "--objective", "sobolev", "--upsilon", "0.05", "--delta", "1e-10",
                     "--preconditioner", preconditioner, *problem, "--out", str(out)]) == 0
        metrics = read_kv(out / "metrics.txt")
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,grad_norm,dir_norm,mu,gamma,restart"
        rows = [line.split(",") for line in lines[1:]]
        k = int(metrics["iterations"])
        assert k >= 50
        assert [int(row[0]) for row in rows] == list(range(1, k + 1))
        assert metrics["stop_reason"] == "direction_norm"
        assert int(metrics["hessian_actions"]) == k + 1 + k // 50
        restarts = [row for row in rows if row[5]]
        assert int(metrics["restarts"]) == len(restarts)
        assert all(row[5] in ("periodic", "lost_descent") and float(row[4]) == 0.0
                   for row in restarts)
        assert all(float(row[2]) > 1e-10 for row in rows)
        for name in ("wall_time_s", "setup_s", "iterate_s"):
            assert name not in (out / "trace.csv").read_text()
        assert "setup_s" not in metrics and "iterate_s" not in metrics

    def test_unsampled_node_leaves_stderr_empty(self, synth_dir, tmp_path):
        mask = tvgsr.random_entry_mask(30, 6, 0.5, 9).mask.copy()
        mask[7] = 0.0
        mask_path = tmp_path / "mask.csv"
        textio.write_mask(mask_path, mask)
        src = str(Path(tvgsr.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tvgsr.cli", "reconstruct",
             "--coords", str(synth_dir / "coords.csv"), "--signal", str(synth_dir / "signal.csv"),
             "--k", "3", "--mask", str(mask_path), "--epsilon", "0.1",
             "--out", str(tmp_path / "r")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert (done.stdout, done.stderr) == ("", "")
        assert read_kv(tmp_path / "r" / "metrics.txt")["termination"] == "converged"

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_adjacency_gives_the_coords_bytes(self, synth_dir, tmp_path, kind):
        common = ["reconstruct", "--signal", str(synth_dir / "signal.csv"), "--laplacian", kind,
                  "--regime", "random_entry", "--density", "0.5", "--seed", "2"]
        assert main(common + ["--coords", str(synth_dir / "coords.csv"), "--k", "3",
                              "--out", str(tmp_path / "c")]) == 0
        assert main(common + ["--adjacency", str(synth_dir / "adjacency.csv"),
                              "--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "x_hat.csv").read_bytes() == \
            (tmp_path / "c" / "x_hat.csv").read_bytes()

    def test_coords_with_adjacency_is_usage_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["reconstruct", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--adjacency", str(synth_dir / "adjacency.csv"),
                     "--signal", str(synth_dir / "signal.csv"),
                     "--regime", "random_entry", "--density", "0.5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "tvgsr: usage error: --coords and --adjacency are alternatives; give one\n"
        assert not out.exists()

    @pytest.mark.parametrize("action", ["ignore", "error", "always"])
    def test_overflowing_solve_is_a_numeric_failure(self, synth_dir, tmp_path, capsys, action):
        # upsilon * (L + eps I) overflows in the operator and the preconditioner; numpy's
        # warnings are silenced around the solve, whose finiteness check reports it
        out = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            code = main(["reconstruct", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                         "--signal", str(synth_dir / "signal.csv"), "--regime", "random_entry",
                         "--density", "0.5", "--seed", "2", "--upsilon", "1e308",
                         "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        assert capsys.readouterr().err == \
            "tvgsr: numeric failure: non-finite gradient at iteration 0\n"
        assert not out.exists()


class TestAnalyze:
    def test_three_tables_and_trivial_rows(self, synth_dir, tmp_path, monkeypatch):
        n_nodes, n_snapshots, epsilon_grid = 30, 6, [0.0, 0.1, 0.5]
        _, coords = textio.read_coordinates(synth_dir / "coords.csv")
        graph = tvgsr.build_knn_graph(coords, 3)
        mask = tvgsr.random_entry_mask(n_nodes, n_snapshots, 0.5, 4).mask
        eigensolves = []
        extremes = tvgsr.spectral._extremes

        def counting_extremes(hessian_mask, *args):
            if np.size(hessian_mask) == n_nodes * n_snapshots:
                eigensolves.append(1)
            return extremes(hessian_mask, *args)

        monkeypatch.setattr(tvgsr.spectral, "_extremes", counting_extremes)
        for upsilon in (1.0, 0.3):
            out = tmp_path / f"an{upsilon}"
            eigensolves.clear()
            assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                         "--snapshots", str(n_snapshots), "--regime", "random_entry",
                         "--density", "0.5", "--seed", "4", "--upsilon", str(upsilon),
                         "--beta", "1.0", "--epsilon-grid", ",".join(map(str, epsilon_grid)),
                         "--beta-grid", "0.0,1.0,2.0", "--out", str(out)]) == 0
            # the Laplacian Hessian once, plus each grid Hessian that is not the (0, 1) one
            assert len(eigensolves) == 1 + sum((eps, 1.0) != (0.0, 1.0) for eps in epsilon_grid)

            sweep_lines = (out / "condition_sweep.csv").read_text().strip().split("\n")
            assert sweep_lines[0] == "epsilon,kappa_sobolev,kappa_laplacian"
            first = sweep_lines[1].split(",")
            assert first[0] == "0" and first[1] == first[2]  # identical Hessians at eps = 0

            # the kappa columns are read from the Weyl extremes
            got = textio.read_matrix(out / "condition_sweep.csv")
            want = np.array([[r.epsilon, r.sobolev.kappa, r.laplacian.kappa] for r in
                             tvgsr.weyl_sweep(graph, tvgsr.difference_operator(n_snapshots),
                                              upsilon, 1.0, epsilon_grid, mask)])
            assert np.array_equal(got, want)

            weyl = np.array([row.split(",") for row in
                             (out / "weyl_report.csv").read_text().strip().split("\n")[1:]])
            assert set(weyl[:, -1]) == {"True"} and set(weyl[:, -2]) == {"True"}

            pen = textio.read_matrix(out / "eigenvalue_penalization.csv")
            beta0 = pen[pen[:, 0] == 0.0][0]
            assert np.all(beta0[1:] == 1.0)

    def test_reruns_write_the_same_bytes(self, synth_dir, tmp_path):
        # two runs in this process and one in a fresh process: ARPACK's own random start
        # vector would advance between the first two
        argv = ["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                "--snapshots", "6", "--regime", "random_entry", "--density", "0.5",
                "--seed", "4", "--upsilon", "0.3", "--beta", "1.5",
                "--epsilon-grid", "0,0.1,0.5"]
        outs = [tmp_path / name for name in ("first", "second", "fresh")]
        for out in outs[:2]:
            assert main(argv + ["--out", str(out)]) == 0
        src = str(Path(tvgsr.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "tvgsr.cli", *argv, "--out", str(outs[2])],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("condition_sweep.csv", "weyl_report.csv", "eigenvalue_penalization.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1, name

    def test_zero_density_is_not_replaced_by_default(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--regime", "random_entry", "--density", "0",
                     "--out", str(out)])
        assert code == 1
        assert "mask selects no entries" in capsys.readouterr().err
        assert not (out / "condition_sweep.csv").exists()

    def test_forecasting_without_horizon_is_usage_error(self, synth_dir, tmp_path, capsys):
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--regime", "forecasting",
                     "--out", str(tmp_path / "an")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "forecasting needs --horizon" in err

    @pytest.mark.parametrize("flags, regime, level", [
        ([], "random_entry", 0.5),
        (["--regime", "snapshot"], "snapshot", 0.5),
        (["--regime", "forecasting", "--horizon", "2"], "forecasting", 2),
    ])
    def test_generated_mask_is_the_shared_regime_mask(self, synth_dir, tmp_path, flags, regime,
                                                      level):
        # analyze draws its mask as reconstruct and sample do: random_entry and density 0.5
        # unless set, and a forecast's horizon
        out = tmp_path / "an"
        assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--seed", "4", "--epsilon-grid", "0,0.1", *flags,
                     "--out", str(out)]) == 0
        _, coords = textio.read_coordinates(synth_dir / "coords.csv")
        mask = tvgsr.evaluation.make_regime_mask(regime, 30, 6, level, 4).mask
        want = [(r.epsilon, r.sobolev.kappa, r.laplacian.kappa) for r in tvgsr.weyl_sweep(
            tvgsr.build_knn_graph(coords, 3), tvgsr.difference_operator(6), 1.0, 1.0,
            [0.0, 0.1], mask)]
        assert np.array_equal(textio.read_matrix(out / "condition_sweep.csv"), np.array(want))
        config = read_kv(out / "config.txt")
        assert config["regime"] == regime
        assert ("density" in config) == (regime != "forecasting")

    def test_request_over_the_guard_fails_before_the_spectrum(self, synth_dir, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(tvgsr.Graph, "spectrum", lambda self: pytest.fail("eigensolved"))
        out = tmp_path / "an"
        assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "150", "--out", str(out)]) == 1
        assert f"N*M <= {tvgsr.spectral.DENSE_GUARD}" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_file_with_snapshots_is_usage_error(self, synth_dir, tmp_path, capsys):
        mask_path = tmp_path / "mask.csv"
        textio.write_mask(mask_path, np.ones((30, 6)))
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--mask", str(mask_path), "--snapshots", "5", "--out", str(out)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()
        assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--mask", str(mask_path), "--epsilon-grid", "0.1",
                     "--out", str(out)]) == 0
        assert "snapshots" not in read_kv(out / "config.txt")

    def test_guard_exceeded_exit_1(self, tmp_path):
        rng = np.random.default_rng(1)
        coords_path = tmp_path / "c.csv"
        textio.write_coordinates(coords_path, rng.uniform(0, 100, size=(90, 2)))
        code = main(["analyze", "--coords", str(coords_path), "--k", "5",
                     "--snapshots", "60", "--density", "0.5",
                     "--out", str(tmp_path / "an")])
        assert code == 1

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_adjacency_writes_the_coords_csvs(self, synth_dir, tmp_path, kind):
        common = ["analyze", "--laplacian", kind, "--snapshots", "6", "--density", "0.5",
                  "--seed", "2"]
        assert main(common + ["--coords", str(synth_dir / "coords.csv"), "--k", "3",
                              "--out", str(tmp_path / "c")]) == 0
        assert main(common + ["--adjacency", str(synth_dir / "adjacency.csv"),
                              "--out", str(tmp_path / "a")]) == 0
        for name in ("condition_sweep.csv", "weyl_report.csv", "eigenvalue_penalization.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_coords_with_adjacency_is_usage_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--adjacency", str(synth_dir / "adjacency.csv"), "--snapshots", "6",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "tvgsr: usage error: --coords and --adjacency are alternatives; give one\n"
        assert not out.exists()

    def test_grid_with_a_word_is_usage_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--epsilon-grid", "0,abc", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("tvgsr: usage error: expected a comma-separated "
                                           "list of numbers, got '0,abc'\n")
        assert not out.exists()

    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_overflowing_hessian_is_a_numeric_failure(self, synth_dir, tmp_path, capsys, action):
        # (L + eps I)^1000 overflows; ARPACK used to die on the NaN factor in a traceback, and
        # numpy's overflow warnings are silenced around the power, whose failure is reported
        out = tmp_path / "an"
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                         "--snapshots", "6", "--density", "0.5", "--seed", "2", "--beta", "1e3",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("tvgsr: numeric failure: Hessian not finite")
        assert not out.exists()

    def test_tiny_upsilon_reports_no_false_bracket_violation(self, tmp_path, capsys):
        # H is positive definite, but lambda_max's Lanczos run on the action breaks down at
        # upsilon 1e-160 (ARPACK error 3, at epsilon 0): the run fails as a whole, or every
        # lambda_min is >= 0 and inside its bracket
        data = tmp_path / "data"
        assert main(["synth", "--n", "12", "--k", "3", "--snapshots", "6", "--seed", "1",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(data / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--density", "0.8", "--seed", "2",
                     "--epsilon-grid", "0,0.1", "--upsilon", "1e-160", "--out", str(out)])
        if code == 3:
            assert capsys.readouterr().err.startswith(
                "tvgsr: numeric failure: Lanczos run failed: ")
            assert not out.exists()
        else:
            assert code == 0
            lines = (out / "weyl_report.csv").read_text().strip().split("\n")
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            assert all(float(row["lambda_min"]) >= 0.0 for row in rows)
            assert all(row["min_within"] == "True" for row in rows)

    def test_subnormal_upsilon_is_rejected(self, synth_dir, tmp_path, capsys):
        # 1/upsilon overflows, so the brackets, which divide by upsilon, would be meaningless
        out = tmp_path / "an"
        code = main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--density", "0.5", "--seed", "2",
                     "--upsilon", "1e-320", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "tvgsr: 1/upsilon must be finite for bound checks, got upsilon=1e-320\n"
        assert not out.exists()


def strip_timing(path):
    """The lines of a results table without its ``wall_time_s`` column."""
    lines = path.read_text().strip().split("\n")
    drop = lines[0].split(",").index("wall_time_s")
    return [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines]


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """``synth_dir`` once per module, since hypothesis reruns a test inside one fixture call."""
    out = tmp_path_factory.mktemp("bench-inputs")
    assert main(["synth", "--n", "30", "--k", "3", "--snapshots", "6",
                 "--alpha", "0.5", "--seed", "3", "--out", str(out)]) == 0
    return out


@st.composite
def gr_static_plans(draw):
    """A random_entry plan text with gr_static among its methods."""
    levels = draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
                           min_size=1, max_size=2, unique=True))
    others = draw(st.lists(st.sampled_from(["tgsr", "sobolev"]), max_size=2, unique=True))
    upsilon = draw(st.sampled_from([0.0, 0.05, 0.5]))
    lines = [f"densities={','.join(map(str, levels))}",
             f"repetitions={draw(st.integers(1, 3))}",
             f"base_seed={draw(st.integers(0, 2**31 - 1))}",
             f"methods={','.join(['gr_static', *others])}",
             f"upsilon={upsilon}"]
    if "sobolev" in others:
        lines.append("sobolev.epsilon=0.1")
    return "\n".join(lines) + "\n"


@settings(max_examples=10, deadline=None)
@given(plan=gr_static_plans())
def test_benchmark_tables_do_not_depend_on_jobs(bench_inputs, plan):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        (scratch / "plan.txt").write_text(plan)
        for jobs in ("1", "2"):
            assert main(["benchmark", "--plan", str(scratch / "plan.txt"),
                         "--coords", str(bench_inputs / "coords.csv"),
                         "--signal", str(bench_inputs / "signal.csv"), "--k", "3",
                         "--jobs", jobs, "--out", str(scratch / jobs)]) == 0
        for name in ("raw_results.csv", "aggregate_results.csv"):
            assert strip_timing(scratch / "1" / name) == strip_timing(scratch / "2" / name)


class TestBenchmark:
    def write_plan(self, path, repetitions=2):
        path.write_text(
            "regime=random_entry\n"
            "densities=0.4,0.7\n"
            f"repetitions={repetitions}\n"
            "base_seed=5\n"
            "methods=tgsr,sobolev\n"
            "tgsr.upsilon=0.5\n"
            "sobolev.upsilon=0.5\n"
            "sobolev.epsilon=0.1\n"
        )

    def test_row_cardinality(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        self.write_plan(plan_path)
        out = tmp_path / "bench"
        assert main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)]) == 0
        raw = (out / "raw_results.csv").read_text().strip().split("\n")
        assert raw[0].startswith("method,regime,density_or_horizon,repetition,rmse,mae,"
                                 "mape,iterations,wall_time_s")
        assert len(raw) - 1 == 2 * 2 * 2
        aggregate = (out / "aggregate_results.csv").read_text().strip().split("\n")
        assert len(aggregate) - 1 == 2 * 2

    @pytest.mark.parametrize("action", ["ignore", "error", "always"])
    def test_overflowing_solve_names_its_cell(self, synth_dir, tmp_path, capsys, action):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5\nrepetitions=1\nmethods=sobolev\nupsilon=1e308\n")
        out = tmp_path / "bench"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            code = main(["benchmark", "--plan", str(plan_path),
                         "--coords", str(synth_dir / "coords.csv"),
                         "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                         "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        assert capsys.readouterr().err == (
            "tvgsr: numeric failure: method 'sobolev' at level 0.5 repetition 0: "
            "non-finite gradient at iteration 0\n")
        assert not out.exists()

    def test_rerun_identical_apart_from_timing(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        self.write_plan(plan_path)
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(["benchmark", "--plan", str(plan_path),
                         "--coords", str(synth_dir / "coords.csv"),
                         "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                         "--out", str(out)]) == 0
            outs.append(out)

        for name in ("raw_results.csv", "aggregate_results.csv"):
            assert strip_timing(outs[0] / name) == strip_timing(outs[1] / name)

    def test_config_echo_reproduces_plan(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        self.write_plan(plan_path, repetitions=1)
        out = tmp_path / "bench"
        assert main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)]) == 0
        echo = read_kv(out / "config.txt")
        assert echo["plan.densities"] == "0.4,0.7"
        assert echo["plan.methods"] == "tgsr,sobolev"

    def test_raw_results_report_termination(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        self.write_plan(plan_path, repetitions=1)
        with open(plan_path, "a") as fh:
            fh.write("tgsr.max_iter=2\n")
        out = tmp_path / "bench"
        assert main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)]) == 0
        lines = (out / "raw_results.csv").read_text().strip().split("\n")
        assert lines[0].endswith(",mape_excluded,termination")
        terminations = {tuple(line.split(",")[i] for i in (0, -1)) for line in lines[1:]}
        assert terminations == {("tgsr", "max_iter"), ("sobolev", "converged")}

    def test_plan_leaves_unset_keys_to_solver_defaults(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5\nmethods=tgsr,fine\nupsilon=0.5\n"
                             "fine.objective=sobolev\nfine.delta=1e-9\n")
        plan, _, _ = tvgsr.cli._parse_plan(plan_path)
        assert plan.methods == {
            "tgsr": tvgsr.SolverConfig(upsilon=0.5, objective="tgsr"),
            "fine": tvgsr.SolverConfig(upsilon=0.5, delta=1e-9, objective="sobolev"),
        }

    def test_bad_plan_exit_1(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("regime=random_entry\nmethods=tgsr\n")
        code = main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"),
                     "--out", str(tmp_path / "bench")])
        assert code == 1

    def test_forecasting_plan_with_daily_transform(self, synth_dir, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(
            "regime=forecasting\n"
            "horizons=1,2\n"
            "repetitions=1\n"
            "methods=sobolev\n"
            "sobolev.upsilon=0.5\n"
            "sobolev.epsilon=0.1\n"
            "signal_transform=daily\n"
        )
        out = tmp_path / "bench"
        assert main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)]) == 0
        raw = (out / "raw_results.csv").read_text().strip().split("\n")
        assert len(raw) - 1 == 2
        assert read_kv(out / "config.txt")["signal_transform"] == "daily"


class TestConfigFile:
    def test_flags_override_config(self, toy_files, tmp_path):
        coords_path, _ = toy_files
        config_path = tmp_path / "conf.txt"
        config_path.write_text(f"coords={coords_path}\nk=2\n")
        out = tmp_path / "g"
        assert main(["build-graph", "--config", str(config_path), "--k", "1",
                     "--out", str(out)]) == 0
        manifest = read_kv(out / "manifest.txt")
        assert manifest["k"] == "1"

    def test_config_supplies_defaults(self, toy_files, tmp_path):
        coords_path, _ = toy_files
        config_path = tmp_path / "conf.txt"
        out = tmp_path / "g"
        config_path.write_text(f"coords={coords_path}\nk=2\nout={out}\n")
        assert main(["build-graph", "--config", str(config_path)]) == 0
        assert read_kv(out / "manifest.txt")["k"] == "2"

    def test_config_echo_written(self, toy_files, tmp_path):
        coords_path, _ = toy_files
        out = tmp_path / "g"
        assert main(["build-graph", "--coords", coords_path, "--k", "1",
                     "--out", str(out)]) == 0
        echo = read_kv(out / "config.txt")
        assert echo["command"] == "build-graph"
        assert echo["k"] == "1"

    @pytest.mark.parametrize("command, flags", [
        ("analyze", ["--k", "5", "--snapshots", "4", "--epsilon-grid", "0.1"]),
        ("reconstruct", ["--k", "3", "--signal", "SIGNAL", "--regime", "random_entry",
                         "--density", "0.5"]),
    ])
    def test_rerun_from_own_config_echo(self, synth_dir, tmp_path, command, flags):
        flags = [str(synth_dir / "signal.csv") if f == "SIGNAL" else f for f in flags]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--coords", str(synth_dir / "coords.csv"), *flags,
                     "--out", str(first)]) == 0
        assert "None" not in (first / "config.txt").read_text()
        assert main([command, "--config", str(first / "config.txt"),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            first_kv, second_kv = first / name, second / name
            if name.endswith(".csv"):
                assert first_kv.read_bytes() == second_kv.read_bytes(), name
                continue
            first_kv, second_kv = read_kv(first_kv), read_kv(second_kv)
            for key in ("out", "wall_time_s"):  # the only settings that differ by design
                first_kv.pop(key, None), second_kv.pop(key, None)
            assert first_kv == second_kv, name


    def test_unknown_config_key_is_a_config_error(self, toy_files, tmp_path, capsys):
        coords_path, signal_path = toy_files
        config_path = tmp_path / "conf.txt"
        config_path.write_text(f"coords={coords_path}\nsignal={signal_path}\nepsilom=5\n")
        out = tmp_path / "r"
        code = main(["reconstruct", "--config", str(config_path), "--regime", "random_entry",
                     "--density", "0.5", "--out", str(out)])
        assert code == 1
        assert f"{config_path}: unknown config key 'epsilom'" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_only_keys_round_trip(self, synth_dir, tmp_path):
        # sample echoes uniqueness_condition*, benchmark signal_transform and plan.*
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5\nrepetitions=1\nmethods=tgsr\n"
                             "signal_transform=none\n")
        runs = {
            "sample": ["--signal", str(synth_dir / "signal.csv"), "--density", "0.5"],
            "benchmark": ["--plan", str(plan_path), "--coords", str(synth_dir / "coords.csv"),
                          "--signal", str(synth_dir / "signal.csv"), "--k", "3"],
        }
        for command, flags in runs.items():
            first, second = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
            assert main([command, *flags, "--out", str(first)]) == 0
            echo = read_kv(first / "config.txt")
            assert any(key.startswith(("uniqueness_condition", "plan.")) for key in echo)
            assert main([command, "--config", str(first / "config.txt"),
                         "--out", str(second)]) == 0
            again = read_kv(second / "config.txt")
            assert {**echo, "out": None} == {**again, "out": None}


def parser_options():
    """{command: {option string: (type, choices)}} of the argparse front end."""
    parser = tvgsr.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {option: (action.type, action.choices)
                      for action in subparser._actions for option in action.option_strings
                      if option not in ("-h", "--help")}
            for command, subparser in sub.choices.items()}


GRAPH_KINDS = ("combinatorial", "normalized")
REGIMES = ("random_entry", "snapshot", "forecasting")
OBJECTIVES = ("tgsr", "sobolev", "gr_static")
PRECONDITIONERS = ("temporal", "none")
TEXT = (None, None)  # a string flag: no type conversion, no choices


class TestSettingsTable:
    OPTIONS = {
        "build-graph": {"--config": TEXT, "--coords": TEXT, "--k": (int, None),
                        "--laplacian": (None, GRAPH_KINDS), "--out": TEXT},
        "synth": {"--config": TEXT, "--n": (int, None), "--side": (float, None),
                  "--k": (int, None), "--snapshots": (int, None), "--alpha": (float, None),
                  "--seed": (int, None), "--laplacian": (None, GRAPH_KINDS), "--out": TEXT},
        "sample": {"--config": TEXT, "--signal": TEXT, "--n-nodes": (int, None),
                   "--snapshots": (int, None), "--regime": (None, REGIMES),
                   "--density": (float, None), "--horizon": (int, None),
                   "--seed": (int, None), "--out": TEXT},
        "reconstruct": {"--config": TEXT, "--coords": TEXT, "--signal": TEXT,
                        "--adjacency": TEXT, "--k": (int, None),
                        "--laplacian": (None, GRAPH_KINDS), "--mask": TEXT,
                        "--regime": (None, REGIMES), "--density": (float, None),
                        "--horizon": (int, None), "--seed": (int, None),
                        "--objective": (None, OBJECTIVES), "--upsilon": (float, None),
                        "--epsilon": (float, None), "--beta": (float, None),
                        "--delta": (float, None), "--max-iter": (int, None),
                        "--step": (int, None), "--preconditioner": (None, PRECONDITIONERS),
                        "--out": TEXT, "--oracle-check": TEXT},
        "analyze": {"--config": TEXT, "--coords": TEXT, "--adjacency": TEXT,
                    "--k": (int, None), "--laplacian": (None, GRAPH_KINDS), "--mask": TEXT,
                    "--regime": (None, REGIMES), "--density": (float, None),
                    "--horizon": (int, None), "--seed": (int, None),
                    "--snapshots": (int, None), "--upsilon": (float, None),
                    "--beta": (float, None), "--epsilon-grid": TEXT, "--beta-grid": TEXT,
                    "--step": (int, None), "--out": TEXT},
        "benchmark": {"--config": TEXT, "--plan": TEXT, "--coords": TEXT, "--signal": TEXT,
                      "--k": (int, None), "--laplacian": (None, GRAPH_KINDS),
                      "--jobs": (int, None), "--out": TEXT},
    }

    def test_each_command_keeps_its_flags_types_and_choices(self):
        options = parser_options()
        assert list(options) == list(self.OPTIONS)
        for command, want in self.OPTIONS.items():
            got = {option: (kind, None if choices is None else tuple(choices))
                   for option, (kind, choices) in options[command].items()}
            assert got == want, command

    def test_every_flag_defaults_to_none_so_the_config_file_can_fill_it(self):
        parser = tvgsr.cli.build_parser()
        for command in self.OPTIONS:
            args = parser.parse_args([command])
            assert {key: value for key, value in vars(args).items()
                    if key != "command"} == dict.fromkeys(tvgsr.cli.COMMANDS[command][2],
                                                          None) | {"config": None}

    def test_config_echo_key_order(self, synth_dir, tmp_path):
        coords, signal = str(synth_dir / "coords.csv"), str(synth_dir / "signal.csv")
        mask = tmp_path / "mask"
        plan = tmp_path / "plan.txt"
        plan.write_text("densities=0.5\nrepetitions=1\nmethods=tgsr\n")
        runs = {
            "build-graph": (["--coords", coords, "--k", "3"],
                            ["coords", "k", "laplacian", "out"]),
            "synth": (["--n", "12", "--k", "3", "--snapshots", "4"],
                      ["n", "side", "k", "snapshots", "alpha", "seed", "laplacian", "out"]),
            "sample": (["--signal", signal, "--density", "0.5"],
                       ["signal", "n_nodes", "snapshots", "regime", "density", "seed", "out",
                        "uniqueness_condition1", "uniqueness_condition2"]),
            "reconstruct": (["--coords", coords, "--signal", signal, "--k", "3",
                             "--regime", "random_entry", "--density", "0.5"],
                            ["coords", "signal", "k", "laplacian", "regime", "density", "seed",
                             "objective", "upsilon", "epsilon", "beta", "delta", "max_iter",
                             "step", "preconditioner", "out", "oracle_check"]),
            "analyze": (["--coords", coords, "--k", "3", "--snapshots", "4"],
                        ["coords", "k", "laplacian", "regime", "density", "seed", "snapshots",
                         "upsilon", "beta", "epsilon_grid", "beta_grid", "step", "out"]),
            "benchmark": (["--plan", str(plan), "--coords", coords, "--signal", signal,
                           "--k", "3"],
                          ["plan", "coords", "signal", "k", "laplacian", "jobs", "out",
                           "signal_transform", "plan.densities", "plan.methods",
                           "plan.repetitions"]),
        }
        for command, (flags, keys) in runs.items():
            out = mask if command == "sample" else tmp_path / command
            assert main([command, *flags, "--out", str(out)]) == 0, command
            lines = (out / "config.txt").read_text().splitlines()
            assert [line.split("=", 1)[0] for line in lines] == ["command", *keys], command

    def test_oracle_check_from_the_config_file(self, toy_files, tmp_path):
        coords_path, signal_path = toy_files
        for value, expect in (("True", True), ("yes", True), ("False", False)):
            config = tmp_path / f"conf-{value}.txt"
            config.write_text(f"coords={coords_path}\nsignal={signal_path}\nk=1\n"
                              "regime=random_entry\ndensity=0.7\nseed=1\nepsilon=0.1\n"
                              f"oracle_check={value}\n")
            out = tmp_path / f"r-{value}"
            assert main(["reconstruct", "--config", str(config), "--out", str(out)]) == 0
            assert ("oracle_rel_diff" in read_kv(out / "metrics.txt")) is expect
            assert read_kv(out / "config.txt")["oracle_check"] == str(expect)

    def test_reconstruct_solves_once_through_evaluation(self, synth_dir, tmp_path,
                                                        monkeypatch):
        calls = []
        original = tvgsr.evaluation.solve_cg

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tvgsr.evaluation, "solve_cg", counting)
        assert main(["reconstruct", "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--regime", "random_entry", "--density", "0.5",
                     "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == 1


class TestPlanValues:
    @pytest.mark.parametrize("lines, key", [
        ("regime=forecasting\nhorizons=1.5\n", "horizons"),
        ("densities=0.5,abc\n", "densities"),
        ("densities=0.5\nrepetitions=two\n", "repetitions"),
        ("densities=0.5\nupsilon=x\n", "upsilon"),
    ])
    def test_bad_value_is_a_config_error(self, synth_dir, tmp_path, capsys, lines, key):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(lines + "methods=tgsr\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("tvgsr: ") and "Traceback" not in err
        assert f"{plan_path}: {key}=" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines, key", [
        ("methods=sobolev\nsobolev.epsilom=5\n", "sobolev.epsilom"),
        ("methods=sobolev\ntgsr.upsilon=5\n", "tgsr.upsilon"),
        ("methods=sobolev\nrepetition=5\n", "repetition"),
        ("methods=sobolev\nobjective=tgsr\n", "objective"),
    ])
    def test_unknown_key_is_a_config_error(self, synth_dir, tmp_path, capsys, lines, key):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5\n" + lines)
        out = tmp_path / "bench"
        code = main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{plan_path}: unknown plan key {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("scope", ["method", "global"])
    @pytest.mark.parametrize("field", [f for f in dataclasses.fields(tvgsr.SolverConfig)
                                       if f.name != "objective"], ids=lambda f: f.name)
    def test_every_solver_setting_but_objective_is_a_plan_key(self, tmp_path, field, scope):
        # valid for each field, and not its default
        value = "none" if field.name == "preconditioner" else field.default + 1
        key = f"sobolev.{field.name}" if scope == "method" else field.name
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(f"densities=0.5\nmethods=sobolev\n{key}={value}\n")
        plan, _, _ = tvgsr.cli._parse_plan(plan_path)
        config = plan.methods["sobolev"]
        assert config == dataclasses.replace(tvgsr.SolverConfig(), **{field.name: value})
        assert type(getattr(config, field.name)) is type(field.default)

    @pytest.mark.parametrize("lines, keys", [
        ("densities=0.5\nhorizons=3\n", "densities and horizons"),
        ("levels=0.5\ndensities=0.5\n", "levels and densities"),
        ("levels=0.5\nhorizons=3\n", "levels and horizons"),
    ])
    def test_two_level_keys_are_a_config_error(self, synth_dir, tmp_path, capsys, lines, keys):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(lines + "repetitions=1\nmethods=tgsr\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("tvgsr: ") and f"{plan_path}: plan sets {keys}" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines, key, regime", [
        ("regime=forecasting\ndensities=1,2\n", "densities", "forecasting"),
        ("regime=random_entry\nhorizons=0.5\n", "horizons", "random_entry"),
        ("horizons=0.5\n", "horizons", "random_entry"),
        ("regime=snapshot\nhorizons=1\n", "horizons", "snapshot"),
    ])
    def test_level_key_of_another_regime_is_a_config_error(self, synth_dir, tmp_path, capsys,
                                                           lines, key, regime):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(lines + "repetitions=1\nmethods=tgsr\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"tvgsr: {plan_path}: {key}= does not apply to regime={regime}\n"
        assert not out.exists()

    @pytest.mark.parametrize("regime, levels, parsed", [("random_entry", "0.5", (0.5,)),
                                                        ("snapshot", "0.5", (0.5,)),
                                                        ("forecasting", "1,2", (1, 2))])
    def test_levels_key_applies_to_every_regime(self, tmp_path, regime, levels, parsed):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(f"regime={regime}\nlevels={levels}\nmethods=tgsr\n")
        plan, _, _ = tvgsr.cli._parse_plan(plan_path)
        assert (plan.regime, plan.levels) == (regime, parsed)

    def test_integral_horizons_still_parse(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("regime=forecasting\nhorizons=1,2.0\nmethods=tgsr\n")
        plan, _, _ = tvgsr.cli._parse_plan(plan_path)
        assert plan.levels == (1, 2) and all(type(h) is int for h in plan.levels)


class TestRunLifecycle:
    @pytest.mark.parametrize("case", ["analyze_guard", "analyze_empty_mask",
                                      "oracle_guard", "oracle_gr_static",
                                      "reconstruct_delta_nan", "reconstruct_upsilon_nan",
                                      "reconstruct_epsilon_inf", "analyze_upsilon_nan",
                                      "analyze_upsilon_inf", "analyze_beta_nan",
                                      "analyze_epsilon_grid_nan", "analyze_beta_grid_nan",
                                      "analyze_beta_grid_inf", "benchmark_jobs_zero",
                                      "benchmark_jobs_negative", "synth_seed_negative",
                                      "synth_side_nan", "synth_side_inf",
                                      "sample_random_entry_seed_negative",
                                      "sample_snapshot_seed_negative",
                                      "reconstruct_seed_negative", "analyze_seed_negative",
                                      "sample_nodes_negative", "sample_snapshots_negative"])
    def test_failed_run_leaves_no_output_directory(self, synth_dir, tmp_path, capsys, case):
        coords, signal = str(synth_dir / "coords.csv"), str(synth_dir / "signal.csv")
        wide = tmp_path / "wide.csv"  # 30 x 140 > the dense guard of 4000 entries
        textio.write_matrix(wide, np.random.default_rng(0).normal(size=(30, 140)))
        plan = tmp_path / "plan.txt"
        plan.write_text("densities=0.5\nrepetitions=2\nmethods=tgsr\n")
        benchmark = ["benchmark", "--plan", str(plan), "--coords", coords, "--signal", signal,
                     "--k", "3"]
        analyze = ["analyze", "--coords", coords, "--k", "3", "--regime", "random_entry"]
        reconstruct = ["reconstruct", "--coords", coords, "--k", "3", "--regime", "random_entry",
                       "--density", "0.5", "--max-iter", "5", "--oracle-check"]
        synth = ["synth", "--n", "12", "--k", "3", "--snapshots", "4"]
        sample = ["sample", "--signal", signal, "--density", "0.5", "--regime"]
        argv = {
            "analyze_guard": [*analyze, "--snapshots", "150", "--density", "0.5"],
            "analyze_empty_mask": [*analyze, "--snapshots", "6", "--density", "0"],
            "oracle_guard": [*reconstruct, "--signal", str(wide)],
            "oracle_gr_static": [*reconstruct, "--signal", signal, "--objective", "gr_static"],
            "reconstruct_delta_nan": [*reconstruct, "--signal", signal, "--delta", "nan"],
            "reconstruct_upsilon_nan": [*reconstruct, "--signal", signal, "--upsilon", "nan"],
            "reconstruct_epsilon_inf": [*reconstruct, "--signal", signal, "--epsilon", "inf"],
            "analyze_upsilon_nan": [*analyze, "--snapshots", "6", "--upsilon", "nan"],
            "analyze_upsilon_inf": [*analyze, "--snapshots", "6", "--upsilon", "inf"],
            "analyze_beta_nan": [*analyze, "--snapshots", "6", "--beta", "nan"],
            "analyze_epsilon_grid_nan": [*analyze, "--snapshots", "6", "--epsilon-grid", "0.1,nan"],
            "analyze_beta_grid_nan": [*analyze, "--snapshots", "6", "--beta-grid", "1,nan"],
            "analyze_beta_grid_inf": [*analyze, "--snapshots", "6", "--beta-grid", "1,inf"],
            "benchmark_jobs_zero": [*benchmark, "--jobs", "0"],
            "benchmark_jobs_negative": [*benchmark, "--jobs", "-4"],
            "synth_seed_negative": [*synth, "--seed", "-5"],
            "synth_side_nan": [*synth, "--side", "nan"],
            "synth_side_inf": [*synth, "--side", "inf"],
            "sample_random_entry_seed_negative": [*sample, "random_entry", "--seed", "-3"],
            "sample_snapshot_seed_negative": [*sample, "snapshot", "--seed", "-3"],
            "reconstruct_seed_negative": [*reconstruct, "--signal", signal, "--seed", "-1"],
            "analyze_seed_negative": [*analyze, "--snapshots", "6", "--seed", "-2"],
            "sample_nodes_negative": ["sample", "--n-nodes", "-3", "--snapshots", "4",
                                      "--density", "0.5"],
            "sample_snapshots_negative": ["sample", "--n-nodes", "3", "--snapshots", "-4",
                                          "--density", "0.5"],
        }[case]
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("tvgsr: ")
        assert not out.exists()

    def test_bad_beta_grid_fails_before_the_eigensolves(self, synth_dir, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(tvgsr.cli, "weyl_sweep", lambda *args: pytest.fail("eigensolved"))
        assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--beta-grid", "1,nan",
                     "--out", str(tmp_path / "run")]) == 1
        assert "finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.1,nan", "0,-0.1", ","])
    def test_bad_epsilon_grid_fails_before_the_eigensolves(self, synth_dir, tmp_path, capsys,
                                                           monkeypatch, grid):
        monkeypatch.setattr(tvgsr.cli, "weyl_sweep", lambda *args: pytest.fail("eigensolved"))
        assert main(["analyze", "--coords", str(synth_dir / "coords.csv"), "--k", "3",
                     "--snapshots", "6", "--epsilon-grid", grid,
                     "--out", str(tmp_path / "run")]) == 1
        assert "--epsilon-grid values must be finite and >= 0" in capsys.readouterr().err

    def test_missing_out_is_one_usage_error_for_every_command(self, capsys):
        for command in tvgsr.cli.COMMANDS:
            assert main([command]) == 1
            assert capsys.readouterr().err == f"tvgsr: usage error: {command} requires --out\n"

    def test_hash_in_the_output_path_survives_a_rerun(self, tmp_path):
        out = tmp_path / "s#1"
        assert main(["synth", "--n", "12", "--k", "3", "--snapshots", "4",
                     "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["synth", "--config", str(out / "config.txt")]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s#1"]

    @pytest.mark.parametrize("flag, name", [("--coords", "a #1.csv"), ("--out", "run\nnext")])
    def test_setting_config_txt_cannot_carry_is_a_usage_error(self, toy_files, tmp_path,
                                                              capsys, flag, name):
        coords, _ = toy_files
        argv = {"--coords": coords, "--k": "1", "--out": str(tmp_path / "g"),
                flag: str(tmp_path / name)}
        assert main(["build-graph", *(token for item in argv.items() for token in item)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coords.csv", "signal.csv"]

    @pytest.mark.parametrize("name", ["s ", "s\t"])
    def test_output_path_with_trailing_whitespace_is_a_usage_error(self, tmp_path, capsys, name):
        # config.txt strips values, so a rerun from it would write somewhere else
        argv = ["synth", "--n", "12", "--k", "3", "--snapshots", "4"]
        assert main([*argv, "--out", str(tmp_path / "ws" / name)]) == 1
        assert "leading or trailing whitespace" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_plan_level_is_a_config_error(self, synth_dir, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("densities=0.5,0.5\nrepetitions=1\nmethods=tgsr\n")
        out = tmp_path / "bench"
        assert main(["benchmark", "--plan", str(plan_path),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--signal", str(synth_dir / "signal.csv"), "--k", "3",
                     "--out", str(out)]) == 1
        assert "once" in capsys.readouterr().err
        assert not out.exists()
