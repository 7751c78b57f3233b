"""Each output check accepts tvgsr's outputs today and rejects a perturbed copy.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
The workloads run here at small sizes; the checks are the benchmark's own.
"""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

import reference as ref
from workloads import Analyze, Checks, CovidShaped, LargeGraph

import tvgsr
from tvgsr import cli, textio


def run(workload, tmp_path, seed=3):
    inputs = workload.generate(seed, str(tmp_path / "inputs"))
    out = str(tmp_path / "op")
    assert cli.main(workload.op_argv(inputs, 0, out)) == 0
    return inputs, {0: out}


def failures(workload, inputs, outputs):
    checks = Checks()
    workload.check(inputs, outputs, checks)
    return checks.failures


def scale_csv(path, factor):
    textio.write_matrix(path, textio.read_matrix(path) * factor)


def edit_table(path, key, value, field, change):
    """Apply ``change`` to ``field`` of the first row whose ``key`` column reads ``value``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if r[key] == value or _same_number(r[key], value))
    row[field] = repr(float(change(float(row[field]))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _same_number(text, value):
    try:
        return float(text) == float(value)
    except ValueError:
        return False


def test_reference_graph_and_masks_match_tvgsr():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 100, size=(60, 2))
    lap, adjacency = ref.knn_laplacian(coords, 5)
    graph = tvgsr.build_knn_graph(coords, 5)
    assert np.array_equal(adjacency.toarray(), graph.adjacency)
    np.testing.assert_allclose(lap.toarray(), graph.laplacian, rtol=0, atol=1e-13)
    for seed in (0, 7, 123456789):
        np.testing.assert_array_equal(ref.random_entry_mask(60, 9, 0.5, seed),
                                      tvgsr.random_entry_mask(60, 9, 0.5, seed).mask)
    assert ref.cell_seed(5, "random_entry", 0.5, 1) == \
        tvgsr.evaluation.mask_seed(5, "random_entry", 0.5, 1)


def test_reference_solves_match_the_dense_oracle():
    dataset, graph = tvgsr.synth_dataset(n_nodes=30, k=4, n_snapshots=8, seed=2)
    mask = ref.random_entry_mask(30, 8, 0.5, 4)
    lap = ref.knn_laplacian(dataset.coords, 4)[0]
    for epsilon in (0.0, 0.3):
        config = tvgsr.SolverConfig(upsilon=0.5, epsilon=epsilon, objective="sobolev")
        oracle = tvgsr.dense_oracle_solve(mask * dataset.signal, mask, graph, config).x_hat
        x_ref = ref.solve_sobolev(dataset.signal, mask, lap, 0.5, epsilon)
        assert ref.rel_diff(x_ref, oracle) < 1e-10
    static = tvgsr.solve_gr_static(mask * dataset.signal, mask, graph,
                                   tvgsr.SolverConfig(upsilon=0.5, objective="gr_static"))
    assert ref.rel_diff(ref.solve_static(dataset.signal, mask, lap, 0.5), static.x_hat) < 1e-10


def test_covid_shaped_check(tmp_path):
    workload = CovidShaped("covid-shaped", n_nodes=40, n_snapshots=15, k=5, ops_per_round=1)
    inputs, outputs = run(workload, tmp_path)
    assert failures(workload, inputs, outputs) == []

    x_hat = os.path.join(outputs[0], "x_hat.csv")
    scale_csv(x_hat, 1 + 1e-5)
    found = failures(workload, inputs, outputs)
    assert any("reference solve" in f for f in found)
    assert any("rmse in metrics.txt" in f for f in found)

    scale_csv(x_hat, 1 / (1 + 1e-5))
    scale_csv(os.path.join(outputs[0], "mask.csv"), 0.0)
    assert any("mask.csv" in f for f in failures(workload, inputs, outputs))


def test_large_graph_check(tmp_path):
    workload = LargeGraph("large-graph", n_nodes=60, n_snapshots=10, k=5, ops_per_round=1)
    inputs, outputs = run(workload, tmp_path)
    assert failures(workload, inputs, outputs) == []

    aggregate = os.path.join(outputs[0], "aggregate_results.csv")
    edit_table(aggregate, "method", "tgsr", "rmse", lambda v: v * (1 + 1e-9))
    assert any("aggregate tgsr rmse" in f for f in failures(workload, inputs, outputs))

    # Move one raw RMSE and its aggregate together: only the reference solve can tell.
    inputs, outputs = run(workload, tmp_path / "again")
    raw = os.path.join(outputs[0], "raw_results.csv")
    aggregate = os.path.join(outputs[0], "aggregate_results.csv")
    edit_table(raw, "method", "sobolev", "rmse", lambda v: v * 1.01)
    with open(raw, encoding="utf-8", newline="") as fh:
        mean = np.mean([float(r["rmse"]) for r in csv.DictReader(fh) if r["method"] == "sobolev"])
    edit_table(aggregate, "method", "sobolev", "rmse", lambda v: mean)
    found = failures(workload, inputs, outputs)
    assert found and all("sobolev rmse of cell" in f for f in found)


def test_analyze_check(tmp_path):
    workload = Analyze("analyze", n_nodes=30, n_snapshots=10, k=4, ops_per_round=1, upsilon=1.0)
    inputs, outputs = run(workload, tmp_path)
    assert failures(workload, inputs, outputs) == []

    sweep = os.path.join(outputs[0], "condition_sweep.csv")
    edit_table(sweep, "epsilon", 0.1, "kappa_sobolev", lambda v: v * (1 + 1e-6))
    assert any("kappa_sobolev at eps=0.1" in f for f in failures(workload, inputs, outputs))

    inputs, outputs = run(workload, tmp_path / "weyl")
    weyl = os.path.join(outputs[0], "weyl_report.csv")
    edit_table(weyl, "objective", "laplacian", "lambda_max", lambda v: v * (1 + 1e-6))
    assert any("Weyl laplacian" in f for f in failures(workload, inputs, outputs))

    inputs, outputs = run(workload, tmp_path / "penalty")
    penalties = os.path.join(outputs[0], "eigenvalue_penalization.csv")
    edit_table(penalties, "beta", 2.0, "lambda_30", lambda v: 1.5)
    assert any("outside [0, 1]" in f for f in failures(workload, inputs, outputs))


@pytest.mark.parametrize("name", ["covid-shaped", "large-graph", "analyze"])
def test_inputs_repeat_for_a_seed(tmp_path, name):
    from workloads import WORKLOADS

    first = WORKLOADS[name].generate(4, str(tmp_path / "a"))
    second = WORKLOADS[name].generate(4, str(tmp_path / "b"))
    assert first["sha256"] == second["sha256"]
    assert [op["seed"] for op in first["ops"]] == [op["seed"] for op in second["ops"]]
