"""tools/bench_trajectory.py folds perfbench result.json files into BENCH_trajectory.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, op_s, setup_s=0.05, rss=88.0, trace=False,
              src_lines=2900, correct=True, failed=0, calibration=None):
    run = {"workload": workload, "seed": seed, "trace": trace, "correct": correct,
           "failed": failed, "attempted": 30, "facts": {"src_lines": src_lines}}
    if calibration is not None:
        run["calibration_ms"] = calibration
    if trace:
        run["metrics"] = {"solvers.iteration_ms": {"value": 1.5, "unit": "ms"}}
    else:
        run["metrics"] = {"op_s_p50": {"value": op_s, "unit": "s"},
                          "setup_s": {"value": setup_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}
    path = directory / f"{workload}-seed{seed}-trace{int(trace)}"
    path.mkdir(parents=True)
    (path / "result.json").write_text(json.dumps(run))
    return path


def test_folds_untraced_runs_per_workload(tool, tmp_path):
    runs = [write_run(tmp_path, "covid-shaped", seed, op, setup_s=0.01 * i, failed=i == 4)
            for i, (seed, op) in enumerate([(3, 0.6), (1, 0.5), (2, 0.9), (4, 0.7), (5, 0.8)])]
    runs.append(write_run(tmp_path, "covid-shaped", 6, None, trace=True))
    runs.append(write_run(tmp_path, "analyze", 9, 2.0, rss=108.0, correct=False))
    out = tmp_path / "BENCH_trajectory.json"
    assert tool.main([*map(str, runs), "--commit", "abc1234", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert [e["workload"] for e in entries] == ["covid-shaped", "analyze"]
    covid, analyze = entries
    assert covid["commit"] == "abc1234"
    assert covid["seeds"] == [1, 2, 3, 4, 5] and covid["runs"] == 5
    assert covid["src_lines"] == 2900 and covid["correct"] and covid["failed"] == 1
    assert covid["metrics"]["op_s_p50"] == {"median": 0.7, "q1": 0.6, "q3": 0.8, "unit": "s"}
    assert covid["metrics"]["setup_s"]["median"] == pytest.approx(0.02)
    assert covid["metrics"]["peak_rss_mb"] == {"median": 88.0, "q1": 88.0, "q3": 88.0,
                                               "unit": "MB"}
    assert analyze["metrics"]["op_s_p50"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "unit": "s"}
    assert not analyze["correct"]


def test_calibration_folds_only_when_every_run_has_samples(tool, tmp_path):
    samples = {1: [0.8, 0.9], 2: [1.2, 1.0, 1.1], 3: [0.7, 0.5], 4: [0.9, 1.3]}
    runs = [write_run(tmp_path, "analyze", seed, 1.0, calibration=samples[seed])
            for seed in samples]
    runs.append(write_run(tmp_path, "analyze", 5, 1.0, trace=True))  # traced: not folded
    runs.append(write_run(tmp_path, "covid-shaped", 1, 0.5, calibration=[0.8, 0.9]))
    runs.append(write_run(tmp_path, "covid-shaped", 2, 0.5))  # an older result.json
    analyze, covid = tool.fold(tool.load_runs(runs), "c1")
    # per-run medians 0.85, 1.1, 0.6 and 1.1; across runs: median 0.975, quartiles 0.7875, 1.1
    assert analyze["calibration_ms"] == pytest.approx({"median": 0.975, "q1": 0.7875,
                                                       "q3": 1.1})
    assert "calibration_ms" not in covid


def test_refolding_replaces_and_new_seeds_append(tool, tmp_path):
    out = tmp_path / "BENCH_trajectory.json"
    first = write_run(tmp_path / "a", "covid-shaped", 1, 0.5)
    tool.main([str(first / "result.json"), "--commit", "c1", "--out", str(out)])
    tool.main([str(first), "--commit", "c1", "--out", str(out)])
    assert len(json.loads(out.read_text())["entries"]) == 1
    second = write_run(tmp_path / "b", "covid-shaped", 2, 0.4)
    tool.main([str(second), "--commit", "c1", "--out", str(out)])
    tool.main([str(second), "--commit", "c2", "--out", str(out)])
    entries = json.loads(out.read_text())["entries"]
    assert [(e["commit"], e["seeds"]) for e in entries] == [("c1", [1]), ("c1", [2]),
                                                            ("c2", [2])]


def test_mixed_sources_are_refused(tool, tmp_path):
    runs = [write_run(tmp_path, "covid-shaped", 1, 0.5, src_lines=2900),
            write_run(tmp_path, "covid-shaped", 2, 0.5, src_lines=2800)]
    with pytest.raises(ValueError, match="fold one commit at a time"):
        tool.fold(tool.load_runs(runs), "c1")


def test_committed_trajectory_is_well_formed():
    trajectory = json.loads((TOOL.parent.parent / "BENCH_trajectory.json").read_text())
    for entry in trajectory["entries"]:
        assert {"commit", "workload", "seeds", "runs", "src_lines", "metrics",
                "source"} <= set(entry)
        assert entry["workload"] in ("covid-shaped", "large-graph", "analyze")
        op = entry["metrics"]["op_s_p50"]
        assert op["median"] > 0.0
        if op["q1"] is not None:
            assert op["q1"] <= op["median"] <= op["q3"]
