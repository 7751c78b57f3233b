#!/usr/bin/env python3
"""Fold perfbench results into the committed benchmark trajectory.

    python3 tools/bench_trajectory.py [--commit REV] [--out BENCH_trajectory.json] [RUN ...]

Each RUN is a perfbench run directory or its ``result.json``; the default
is every ``.perfbench_out/*/result.json``. Traced runs are skipped, since
they report per-layer metrics instead of the end-to-end ones. The untraced
runs are grouped by workload, and each group becomes one entry: the commit,
the workload, the seeds, the run count, the ``src/`` line count the runs
recorded, whether every run was correct, the failed operations, and the
median and quartiles across runs of ``op_s_p50``, ``setup_s`` and
``peak_rss_mb``. When every run of the group recorded ``calibration_ms``
samples (a fixed BLAS product timed before and after the window: how fast
the machine ran), the entry also holds the median and quartiles across runs
of each run's median sample, so entries measured at different times can be
told apart from machine drift. An entry replaces an earlier one with the same commit,
workload and seeds; any other is appended. ``--commit`` defaults to
``git describe --always --dirty`` of the repository, so runs of an
uncommitted tree are labelled ``<parent>-dirty``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_s_p50", "setup_s", "peak_rss_mb")


def summary(values):
    """Median and inclusive quartiles of one metric across runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def load_runs(paths):
    runs = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            path = path / "result.json"
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def fold(runs, commit):
    """One entry per workload of the untraced runs, in the order the workloads first appear."""
    groups = {}
    for run in runs:
        if not run["trace"]:
            groups.setdefault(run["workload"], []).append(run)
    entries = []
    for workload, group in groups.items():
        lines = {run["facts"]["src_lines"] for run in group}
        if len(lines) != 1:
            raise ValueError(f"{workload}: runs come from sources of {sorted(lines)} lines; "
                             "fold one commit at a time")
        entries.append({
            "commit": commit,
            "workload": workload,
            "seeds": sorted(run["seed"] for run in group),
            "runs": len(group),
            "src_lines": lines.pop(),
            "correct": all(run["correct"] for run in group),
            "failed": sum(run["failed"] for run in group),
            "metrics": {name: {**summary([run["metrics"][name]["value"] for run in group]),
                               "unit": group[0]["metrics"][name]["unit"]}
                        for name in METRICS},
            "source": "perfbench",
        })
        if all(run.get("calibration_ms") for run in group):
            entries[-1]["calibration_ms"] = summary(
                [statistics.median(run["calibration_ms"]) for run in group])
    return entries


def merge(trajectory, entries):
    """Replace entries with the same (commit, workload, seeds), append the others."""
    def key(entry):
        return entry["commit"], entry["workload"], tuple(entry["seeds"])

    index = {key(entry): i for i, entry in enumerate(trajectory["entries"])}
    for entry in entries:
        if key(entry) in index:
            trajectory["entries"][index[key(entry)]] = entry
        else:
            index[key(entry)] = len(trajectory["entries"])
            trajectory["entries"].append(entry)
    return trajectory


def describe():
    return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", help="run directories or result.json files")
    parser.add_argument("--commit", help="commit label (default: git describe --always --dirty)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_trajectory.json"))
    args = parser.parse_args(argv)
    paths = args.runs or sorted((ROOT / ".perfbench_out").glob("*/result.json"))
    if not paths:
        parser.error("no perfbench results to fold")
    entries = fold(load_runs(paths), args.commit or describe())
    out = Path(args.out)
    if out.exists():
        with open(out, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    else:
        trajectory = {"entries": []}
    merge(trajectory, entries)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    for entry in entries:
        op = entry["metrics"]["op_s_p50"]
        print(f"{entry['commit']} {entry['workload']}: {entry['runs']} runs, op_s_p50 "
              f"{op['median']:.3f} s ({op['q1']:.3f}/{op['q3']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
