"""The benchmark's workloads: inputs made from the seed, the operation, set-up and checks.

Each workload reconstructs one fixed synthetic dataset, drawn by
``tvgsr.data.synth_dataset`` with seed ``DATASET_SEED`` and written as text,
as a user would hand it to the CLI. The workload seed draws the sampling
masks, as in the paper's Monte-Carlo protocol: operation ``i`` of a round
uses mask seed ``1000 * seed + i`` (large-graph: plan ``base_seed``).
Checks read the CLI's output files and compare them with computations from
``reference``, which does not use tvgsr.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from tvgsr import textio
from tvgsr.data import load_dataset, synth_dataset
from tvgsr.evaluation import make_regime_mask, mask_seed
from tvgsr.graphs import build_knn_graph
from tvgsr.solvers import SolverConfig

import reference as ref


DATASET_SEED = 0


def op_seeds(seed, count):
    return [1000 * int(seed) + i for i in range(count)]


def read_csv_matrix(path, skip_header=False):
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1 if skip_header else 0)


def read_keyvalues(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checks:
    """Collects failed checks, and the reference differences and CG counts seen on the way."""

    def __init__(self):
        self.failures = []
        self.rel_diffs = []
        self.iterations = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def close(self, got, want, rtol, what):
        return self.expect(ref.close(float(got), float(want), rtol),
                           f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_snapshots: int
    k: int
    ops_per_round: int
    density: float = 0.5
    upsilon: float = 0.01
    epsilon: float = 0.1
    beta: float = 1.0

    # --- inputs -----------------------------------------------------------
    def generate(self, seed, inputs_dir):
        """Write the inputs and ``inputs.json``, which lists each operation's seed and files."""
        os.makedirs(inputs_dir, exist_ok=True)
        dataset, _ = synth_dataset(n_nodes=self.n_nodes, k=self.k,
                                   n_snapshots=self.n_snapshots, seed=DATASET_SEED)
        files = {"coords": os.path.join(inputs_dir, "coords.csv"),
                 "signal": os.path.join(inputs_dir, "signal.csv")}
        textio.write_coordinates(files["coords"], dataset.coords)
        textio.write_matrix(files["signal"], dataset.signal)
        ops = [dict(seed=op_seed, **self.extra_inputs(op_seed, i, inputs_dir))
               for i, op_seed in enumerate(op_seeds(seed, self.ops_per_round))]
        paths = list(files.values()) + [op["plan"] for op in ops if "plan" in op]
        manifest = dict(files, workload=self.name, seed=seed, dataset_seed=DATASET_SEED, ops=ops,
                        sha256={os.path.basename(p): sha256_file(p) for p in paths})
        with open(os.path.join(inputs_dir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        return manifest

    def extra_inputs(self, op_seed, i, inputs_dir):
        return {}

    # --- set-up: read the inputs and build the graph operator ------------------
    def setup(self, inputs):
        dataset = load_dataset(inputs["coords"], inputs["signal"])
        graph = build_knn_graph(dataset.coords, self.k)
        graph.laplacian  # noqa: B018 - builds and caches the Laplacian
        return graph

    # --- the problem the direct kernel timings use -----------------------------
    def probe_mask_seed(self, inputs):
        return inputs["ops"][0]["seed"]

    def solver_config(self):
        return SolverConfig(upsilon=self.upsilon, epsilon=self.epsilon, beta=self.beta,
                            objective="sobolev")

    def reference_laplacian(self, inputs):
        coords = read_csv_matrix(inputs["coords"], skip_header=True)[:, 1:3]
        return ref.knn_laplacian(coords, self.k)[0]


class CovidShaped(Workload):
    """``tvgsr reconstruct`` with sobolev on a 265 x 302 problem, k=10."""

    def op_argv(self, inputs, i, out_dir):
        return ["reconstruct", "--coords", inputs["coords"], "--signal", inputs["signal"],
                "--k", str(self.k), "--regime", "random_entry", "--density", str(self.density),
                "--seed", str(inputs["ops"][i]["seed"]), "--objective", "sobolev",
                "--upsilon", str(self.upsilon), "--epsilon", str(self.epsilon),
                "--beta", str(self.beta), "--out", out_dir]

    def check(self, inputs, out_dirs, checks):
        truth = read_csv_matrix(inputs["signal"])
        lap = self.reference_laplacian(inputs)
        n, m = truth.shape
        for i, out in out_dirs.items():
            mask = ref.random_entry_mask(n, m, self.density, inputs["ops"][i]["seed"])
            written = read_csv_matrix(os.path.join(out, "mask.csv"))
            if not checks.expect(np.array_equal(written, mask), f"{out}: mask.csv differs "
                                 "from the regenerated mask"):
                continue
            x_hat = read_csv_matrix(os.path.join(out, "x_hat.csv"))
            x_ref = ref.solve_sobolev(truth, mask, lap, self.upsilon, self.epsilon, self.beta)
            diff = ref.rel_diff(x_hat, x_ref)
            checks.rel_diffs.append(diff)
            checks.expect(diff <= 1e-6, f"{out}: x_hat differs from the reference solve "
                          f"by {diff:.3g} relative (limit 1e-6)")
            metrics = read_keyvalues(os.path.join(out, "metrics.txt"))
            checks.iterations.append(int(metrics["iterations"]))
            checks.close(metrics["rmse"], ref.rmse_hidden(x_hat, truth, mask), 1e-12,
                         f"{out}: rmse in metrics.txt")


class LargeGraph(Workload):
    """``tvgsr benchmark --jobs 2``: tgsr, sobolev and gr_static at N=1000, M=40."""

    repetitions = 2
    methods = ("tgsr", "sobolev", "gr_static")

    @staticmethod
    def jobs():
        return min(2, len(os.sched_getaffinity(0)))

    def extra_inputs(self, op_seed, i, inputs_dir):
        path = os.path.join(inputs_dir, f"plan-{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"regime=random_entry\nlevels={self.density}\n"
                     f"repetitions={self.repetitions}\nmethods={','.join(self.methods)}\n"
                     f"tgsr.upsilon={self.upsilon}\nsobolev.upsilon={self.upsilon}\n"
                     f"sobolev.epsilon={self.epsilon}\ngr_static.upsilon={self.upsilon}\n"
                     f"base_seed={op_seed}\n")
        return {"plan": path}

    def op_argv(self, inputs, i, out_dir):
        return ["benchmark", "--plan", inputs["ops"][i]["plan"], "--coords", inputs["coords"],
                "--signal", inputs["signal"], "--k", str(self.k), "--jobs", str(self.jobs()),
                "--out", out_dir]

    def cell_mask_seed(self, base_seed, repetition=0):
        return ref.cell_seed(base_seed, "random_entry", self.density, repetition)

    def probe_mask_seed(self, inputs):
        return self.cell_mask_seed(inputs["ops"][0]["seed"])

    def check(self, inputs, out_dirs, checks):
        fields = ("rmse", "mae", "mape", "iterations", "wall_time_s")
        for i, out in out_dirs.items():
            raw = read_table(os.path.join(out, "raw_results.csv"))
            aggregate = read_table(os.path.join(out, "aggregate_results.csv"))
            checks.expect(len(raw) == len(self.methods) * self.repetitions
                          and len(aggregate) == len(self.methods),
                          f"{out}: expected {len(self.methods)} methods x "
                          f"{self.repetitions} repetitions, got {len(raw)} raw rows")
            for row in aggregate:
                own = [r for r in raw if r["method"] == row["method"]]
                for field in fields:
                    checks.close(row[field], np.mean([float(r[field]) for r in own]), 1e-12,
                                 f"{out}: aggregate {row['method']} {field}")
        truth = read_csv_matrix(inputs["signal"])
        lap = self.reference_laplacian(inputs)
        n, m = truth.shape
        base = inputs["ops"][0]["seed"]
        mask = ref.random_entry_mask(n, m, self.density, self.cell_mask_seed(base))
        program_mask = make_regime_mask("random_entry", n, m, self.density,
                                        mask_seed(base, "random_entry", self.density, 0)).mask
        checks.expect(ref.sha256(mask) == ref.sha256(program_mask),
                      "large-graph: regenerated cell mask has another sha256 than tvgsr's")
        first = out_dirs.get(0)
        if first is None:
            return
        raw = read_table(os.path.join(first, "raw_results.csv"))
        for method in self.methods:
            if method == "gr_static":
                x_ref = ref.solve_static(truth, mask, lap, self.upsilon)
            else:
                epsilon = self.epsilon if method == "sobolev" else 0.0
                x_ref = ref.solve_sobolev(truth, mask, lap, self.upsilon, epsilon)
            row = next(r for r in raw if r["method"] == method and int(r["repetition"]) == 0)
            # An x_hat within 1e-6 relative of x_ref moves the RMSE by at most this much.
            tol = 1e-6 * np.linalg.norm(x_ref) / np.sqrt(np.count_nonzero(mask == 0))
            want = ref.rmse_hidden(x_ref, truth, mask)
            checks.expect(abs(float(row["rmse"]) - want) <= tol,
                          f"{first}: {method} rmse of cell (0.5, 0): got {row['rmse']}, "
                          f"reference {want!r} (tolerance {tol:.3g})")


class Analyze(Workload):
    """``tvgsr analyze`` on N=100, k=5, 12 snapshots: kappa sweep, Weyl rows, penalization."""

    epsilon_grid = (0.0, 0.01, 0.1, 0.5, 1.0)
    beta_grid = (0.5, 1.0, 2.0)

    def setup(self, inputs):
        _, coords = textio.read_coordinates(inputs["coords"])
        graph = build_knn_graph(coords, self.k)
        graph.laplacian  # noqa: B018 - builds and caches the Laplacian
        graph.spectrum()
        return graph

    def op_argv(self, inputs, i, out_dir):
        return ["analyze", "--coords", inputs["coords"], "--k", str(self.k),
                "--snapshots", str(self.n_snapshots), "--regime", "random_entry",
                "--density", str(self.density), "--seed", str(inputs["ops"][i]["seed"]),
                "--upsilon", str(self.upsilon), "--beta", str(self.beta),
                "--epsilon-grid", ",".join(str(e) for e in self.epsilon_grid),
                "--beta-grid", ",".join(str(b) for b in self.beta_grid), "--out", out_dir]

    def check(self, inputs, out_dirs, checks):
        lap = self.reference_laplacian(inputs).toarray()
        n, m = self.n_nodes, self.n_snapshots
        graph_max = float(np.linalg.eigvalsh(lap)[-1])
        temporal_max = 2.0 - 2.0 * np.cos(np.pi * (m - 1) / m)
        for i, out in out_dirs.items():
            mask = ref.random_entry_mask(n, m, self.density, inputs["ops"][i]["seed"])
            extremes = {eps: ref.extreme_eigenvalues(
                ref.analysis_hessian(mask, lap, self.upsilon, eps, self.beta))
                for eps in self.epsilon_grid}
            lap_lo, lap_hi = extremes[0.0]

            sweep = read_table(os.path.join(out, "condition_sweep.csv"))
            checks.expect([float(r["epsilon"]) for r in sweep] == list(self.epsilon_grid),
                          f"{out}: condition_sweep epsilon column")
            for row in sweep:
                lo, hi = extremes[float(row["epsilon"])]
                checks.close(row["kappa_sobolev"], ref.kappa(lo, hi), 1e-8,
                             f"{out}: kappa_sobolev at eps={row['epsilon']}")
                checks.close(row["kappa_laplacian"], ref.kappa(lap_lo, lap_hi), 1e-8,
                             f"{out}: kappa_laplacian")
            zero = next((r for r in sweep if float(r["epsilon"]) == 0.0), None)
            if checks.expect(zero is not None, f"{out}: no eps=0 row"):
                checks.close(zero["kappa_sobolev"], zero["kappa_laplacian"], 1e-12,
                             f"{out}: kappa_sobolev at eps=0 against kappa_laplacian")

            weyl = read_table(os.path.join(out, "weyl_report.csv"))
            checks.expect(len(weyl) == len(self.epsilon_grid) + 1, f"{out}: Weyl row count")
            for row in weyl:
                eps = float(row["epsilon"])
                lo, hi = extremes[eps]
                block = graph_max if row["objective"] == "laplacian" else \
                    (graph_max + eps) ** self.beta
                block *= temporal_max
                brackets = {"max_bracket_low": block, "max_bracket_high": block + 1 / self.upsilon,
                            "min_bracket_low": 0.0,
                            "min_bracket_high": min(1 / self.upsilon, block)}
                what = f"{out}: Weyl {row['objective']} eps={eps}"
                for key, want in (("lambda_max", hi), ("lambda_min", lo)):
                    # relative, with a floor at the eigensolver's backward error
                    checks.expect(abs(float(row[key]) - want) <= 1e-8 * abs(want) + 1e-12 * hi,
                                  f"{what} {key}: got {row[key]}, reference {want!r}")
                for key, want in brackets.items():
                    checks.expect(abs(float(row[key]) - want) <= 1e-9 * max(1.0, abs(want)),
                                  f"{what} {key}: got {row[key]}, reference {want!r}")
                tol_max = 1e-8 * max(1.0, brackets["max_bracket_high"])
                tol_min = 1e-8 * max(1.0, brackets["min_bracket_high"])
                checks.expect(block - tol_max <= hi <= brackets["max_bracket_high"] + tol_max
                              and -tol_min <= lo <= brackets["min_bracket_high"] + tol_min
                              and row["max_within"] == "True" and row["min_within"] == "True",
                              f"{what}: eigenvalues outside their brackets")

            penalties = read_table(os.path.join(out, "eigenvalue_penalization.csv"))
            checks.expect([float(r["beta"]) for r in penalties] == list(self.beta_grid),
                          f"{out}: penalization beta column")
            values = np.array([[float(v) for key, v in r.items() if key != "beta"]
                               for r in penalties])
            checks.expect(values.shape == (len(self.beta_grid), n)
                          and bool(np.all((values >= 0.0) & (values <= 1.0))),
                          f"{out}: penalization entries outside [0, 1]")


WORKLOADS = {
    "covid-shaped": CovidShaped("covid-shaped", n_nodes=265, n_snapshots=302, k=10,
                                ops_per_round=8),
    "large-graph": LargeGraph("large-graph", n_nodes=1000, n_snapshots=40, k=10,
                              ops_per_round=4),
    "analyze": Analyze("analyze", n_nodes=100, n_snapshots=12, k=5, ops_per_round=4,
                       upsilon=1.0),
}
