"""One benchmark run inside a fresh process: ``generate`` the inputs, or ``measure``.

``measure`` times the workload's operations through ``tvgsr.cli.main``,
in-process, after one warm-up operation. It repeats the set-up calls and
reports their median, reads the peak resident set, then checks every output
against ``reference``. With ``--trace 1`` it alternates untraced and traced
operations, times the layers the operation does not enter directly on the
workload's inputs, and writes the spans to ``spans.json``.

Run it through ``run.py``, which fixes the BLAS thread count before numpy
is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS too, so machine_facts counts it
import tvgsr
from tvgsr import cli, evaluation, graphs, solvers, temporal, textio
from tvgsr.evaluation import ExperimentPlan

import reference as ref
from spans import Tracer, duration
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (9, 200)  # at least 9; more, up to 200, until SETUP_BUDGET_S is spent
SETUP_BUDGET_S = 1.0
KERNEL_REPEATS = 9
ANALYSIS_SIZE = 1200  # N*M of the dense spectral timing on workloads whose op skips it

# metric -> (span name, unit, scale from seconds)
SPAN_METRICS = {
    "textio.read_matrix_s": ("textio.read_matrix", "s", 1.0),
    "textio.write_matrix_s": ("textio.write_matrix", "s", 1.0),
    "data.load_dataset_s": ("data.load_dataset", "s", 1.0),
    "graphs.build_knn_graph_s": ("graphs.build_knn_graph", "s", 1.0),
    "graphs.laplacian_s": ("graphs.laplacian", "s", 1.0),
    "graphs.lap_matmul_ms": ("graphs.lap_matmul", "ms", 1e3),
    "graphs.spectrum_s": ("graphs.spectrum", "s", 1.0),
    "graphs.sobolev_power_s": ("graphs.sobolev_power", "s", 1.0),
    "temporal.temporal_difference_ms": ("temporal.temporal_difference", "ms", 1e3),
    "temporal.sobolev_smoothness_ms": ("temporal.sobolev_smoothness", "ms", 1e3),
    "solvers.solve_cg_s": ("solvers.solve_cg", "s", 1.0),
    "solvers.gradient_ms": ("solvers.gradient", "ms", 1e3),
    "solvers.objective_ms": ("solvers.objective", "ms", 1e3),
    "solvers.solve_gr_static_s": ("solvers.solve_gr_static", "s", 1.0),
    "sampling.mask_ms": ("sampling.mask", "ms", 1e3),
    "spectral.condition_sweep_s": ("spectral.condition_sweep", "s", 1.0),
    "spectral.weyl_bounds_s": ("spectral.weyl_bounds", "s", 1.0),
    "spectral.eigenvalue_penalization_s": ("spectral.eigenvalue_penalization", "s", 1.0),
    "evaluation.run_experiment_s": ("evaluation.run_experiment", "s", 1.0),
}


# --- machine facts -----------------------------------------------------------

def blas_threads():
    """Thread count reported by every OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "tvgsr"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


def calibration_ms():
    """Median time of a fixed BLAS product over half a second: how fast the machine runs now."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((265, 265)), rng.standard_normal((265, 302))
    samples, stop = [], time.perf_counter() + 0.5
    while time.perf_counter() < stop:
        start = time.perf_counter()
        a @ b
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def peak_rss_mb():
    """Largest resident set of this process and of its waited-for workers (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


# --- running operations ------------------------------------------------------

def run_op(argv, tracer=None):
    """Run one CLI operation, inside a ``cli.main`` span when traced; returns (seconds, ok)."""
    gc.collect()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported and counted
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code == 0


def setup_times(workload, inputs):
    """Times of ``SETUP_REPEATS[0]`` set-ups, and of more until ``SETUP_BUDGET_S`` is spent."""
    least, most = SETUP_REPEATS
    times = []
    while len(times) < least or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        gc.collect()
        start = time.perf_counter()
        workload.setup(inputs)
        times.append(time.perf_counter() - start)
    return times


# --- tracing -----------------------------------------------------------------

def install_wrappers(tracer):
    def iterations(args, kwargs, result):
        return {"iterations": result.iterations}

    def experiment(args, kwargs, result):
        return {"solve_s_sum": float(sum(r.wall_time_s for r in result.rows)),
                "jobs": int(kwargs.get("jobs", args[3] if len(args) > 3 else 1))}

    targets = [
        ("tvgsr.textio", "read_matrix", "textio.read_matrix", None),
        ("tvgsr.textio", "write_matrix", "textio.write_matrix", None),
        ("tvgsr.textio", "read_coordinates", "textio.read_coordinates", None),
        ("tvgsr.textio", "write_table", "textio.write_table", None),
        ("tvgsr.cli", "load_dataset", "data.load_dataset", None),
        ("tvgsr.cli", "build_knn_graph", "graphs.build_knn_graph", None),
        ("tvgsr.graphs", "laplacian", "graphs.laplacian", None),
        ("tvgsr.graphs", "spectrum", "graphs.spectrum", None),
        ("tvgsr.graphs", "sobolev_power", "graphs.sobolev_power", None),
        ("tvgsr.spectral", "sobolev_power", "graphs.sobolev_power", None),
        ("tvgsr.solvers", "sobolev_power", "graphs.sobolev_power", None),
        ("tvgsr.temporal", "temporal_difference", "temporal.temporal_difference", None),
        ("tvgsr.temporal", "sobolev_smoothness", "temporal.sobolev_smoothness", None),
        ("tvgsr.cli", "solve_cg", "solvers.solve_cg", iterations),
        ("tvgsr.evaluation", "solve_cg", "solvers.solve_cg", iterations),
        ("tvgsr.cli", "solve_gr_static", "solvers.solve_gr_static", None),
        ("tvgsr.evaluation", "solve_gr_static", "solvers.solve_gr_static", None),
        ("tvgsr.solvers", "gradient", "solvers.gradient", None),
        ("tvgsr.solvers", "objective", "solvers.objective", None),
        ("tvgsr.evaluation", "random_entry_mask", "sampling.mask", None),
        ("tvgsr.cli", "run_experiment", "evaluation.run_experiment", experiment),
        ("tvgsr.cli", "condition_sweep", "spectral.condition_sweep", None),
        ("tvgsr.cli", "weyl_bounds", "spectral.weyl_bounds", None),
        ("tvgsr.cli", "eigenvalue_penalization", "spectral.eigenvalue_penalization", None),
        ("tvgsr.spectral", "condition_number", "spectral.condition_number", None),
    ]
    for module, attr, name, hook in targets:
        tracer.wrap(module, attr, name, hook)


def kernel_probes(workload, inputs, setup_graph, scratch, tracer, checks):
    """Direct calls on this workload's inputs, one per span name: name -> (repeats, call).

    Calls go through the module attributes the wrappers replace, so each
    records its own span; ``lap @ X`` has no function and gets a span here.
    The dense spectral calls use the first ``ANALYSIS_SIZE // N`` snapshots.
    """
    dataset = cli.load_dataset(inputs["coords"], inputs["signal"])
    fresh_graph = cli.build_knn_graph(dataset.coords, workload.k)  # as the CLI would pass it
    signal = dataset.signal
    n, m = signal.shape
    mask = evaluation.make_regime_mask("random_entry", n, m, workload.density,
                                       workload.probe_mask_seed(inputs)).mask
    observed = mask * signal
    config = workload.solver_config()
    lap = setup_graph.laplacian
    op = temporal.difference_operator(m, config.temporal_step)
    cut = max(config.temporal_step + 1, min(m, ANALYSIS_SIZE // n))
    cut_op = temporal.difference_operator(cut, config.temporal_step)
    cut_mask = np.ascontiguousarray(mask[:, :cut])
    plan = ExperimentPlan(regime="random_entry", levels=(workload.density,), repetitions=1,
                          methods={"sobolev": config}, base_seed=inputs["ops"][0]["seed"])

    def solve():
        result = cli.solve_cg(observed, mask, setup_graph, config)
        x_ref = ref.solve_sobolev(signal, mask, workload.reference_laplacian(inputs),
                                  config.upsilon, config.epsilon, config.beta)
        diff = ref.rel_diff(result.x_hat, x_ref)
        checks.rel_diffs.append(diff)
        checks.expect(diff <= 1e-6, f"direct solve_cg differs from the reference by {diff:.3g}")

    def lap_matmul():
        with tracer.span("graphs.lap_matmul"):
            lap @ signal

    many = KERNEL_REPEATS
    return {
        "textio.read_matrix": (many, lambda: textio.read_matrix(inputs["signal"])),
        "textio.write_matrix": (many, lambda: textio.write_matrix(scratch / "x.csv", signal)),
        "data.load_dataset": (many, lambda: cli.load_dataset(inputs["coords"], inputs["signal"])),
        "graphs.build_knn_graph": (3, lambda: cli.build_knn_graph(dataset.coords, workload.k)),
        "graphs.laplacian": (many, lambda: graphs.laplacian(setup_graph)),
        "graphs.lap_matmul": (many, lap_matmul),
        "graphs.spectrum": (3, lambda: graphs.spectrum(lap)),
        "graphs.sobolev_power": (3, lambda: graphs.sobolev_power(lap, config.epsilon,
                                                                 config.beta)),
        "temporal.temporal_difference": (many, lambda: temporal.temporal_difference(signal, op)),
        "temporal.sobolev_smoothness": (many, lambda: temporal.sobolev_smoothness(
            signal, op, lap, config.epsilon, config.beta)),
        "solvers.gradient": (many, lambda: solvers.gradient(observed, observed, mask,
                                                            setup_graph, config)),
        "solvers.objective": (many, lambda: solvers.objective(observed, observed, mask,
                                                              setup_graph, config)),
        "solvers.solve_cg": (1, solve),
        "solvers.solve_gr_static": (1, lambda: cli.solve_gr_static(observed, mask, setup_graph,
                                                                   config)),
        "sampling.mask": (many, lambda: evaluation.make_regime_mask(
            "random_entry", n, m, workload.density, inputs["ops"][0]["seed"])),
        "spectral.condition_sweep": (1, lambda: cli.condition_sweep(
            setup_graph, cut_op, config.upsilon, config.beta, [config.epsilon], cut_mask)),
        "spectral.weyl_bounds": (1, lambda: cli.weyl_bounds(
            setup_graph, cut_op, config.upsilon, config.epsilon, config.beta, cut_mask)),
        "spectral.eigenvalue_penalization": (many, lambda: cli.eigenvalue_penalization(
            setup_graph.spectrum(), [0.5, 1.0, 2.0])),
        "evaluation.run_experiment": (1, lambda: cli.run_experiment(plan, dataset, fresh_graph,
                                                                    jobs=1)),
    }


def spans_named(tracer, name):
    """Spans of ``name`` inside the traced operations, else inside the direct probes."""
    found = [s for r in tracer.roots("cli.main") for s in tracer.under(r, name)]
    return found or [s for r in tracer.roots("probe") for s in tracer.under(r, name)]


def layer_metrics(tracer, graph, checks, pairs):
    metrics = {}
    for metric, (name, unit, scale) in SPAN_METRICS.items():
        metrics[metric] = (statistics.median(duration(s) for s in spans_named(tracer, name))
                           * scale, unit)
    solves = spans_named(tracer, "solvers.solve_cg")
    metrics["solvers.iterations"] = (statistics.median(s["iterations"] for s in solves), "count")
    metrics["solvers.iteration_ms"] = (statistics.median(
        1e3 * duration(s) / max(s["iterations"], 1) for s in solves), "ms")
    metrics["solvers.ref_rel_diff"] = (max(checks.rel_diffs), "ratio")
    runs = spans_named(tracer, "evaluation.run_experiment")
    metrics["evaluation.solve_s_sum"] = (statistics.median(s["solve_s_sum"] for s in runs), "s")
    metrics["evaluation.dispatch_s"] = (statistics.median(
        duration(s) - s["solve_s_sum"] / s["jobs"] for s in runs), "s")
    args, _ = tracer.last_args["evaluation.run_experiment"]
    plan, dataset, task_graph = args[:3]
    task = (plan, dataset, task_graph, plan.levels[0], 0)  # one task as run_experiment sends it
    metrics["evaluation.task_payload_mb"] = (len(pickle.dumps(task)) / 1e6, "MB")
    metrics["graphs.operator_mb"] = ((graph.adjacency.nbytes + graph.laplacian.nbytes) / 1e6,
                                     "MB")
    metrics["cli.glue_s"] = (statistics.median(tracer.self_time(r)
                                               for r in tracer.roots("cli.main")), "s")
    metrics["trace.op_s_p50"] = (statistics.median(t for _, t in pairs), "s")
    metrics["trace.overhead_pct"] = (statistics.median(100.0 * (t / u - 1.0) for u, t in pairs),
                                     "%")
    return metrics


LAYERS = ("textio", "data", "graphs", "temporal", "solvers", "sampling", "spectral",
          "evaluation", "cli")


# --- the two modes -------------------------------------------------------------

def generate(args):
    WORKLOADS[args.workload].generate(args.seed, str(Path(args.dir) / "inputs"))


def measure(args):
    src = (ROOT / "src").resolve()
    if src not in Path(tvgsr.__file__).resolve().parents:
        raise SystemExit(f"tvgsr was imported from {tvgsr.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    run_dir = Path(args.dir)
    with open(run_dir / "inputs" / "inputs.json", encoding="utf-8") as fh:
        inputs = json.load(fh)
    facts = machine_facts()
    trace = bool(args.trace)
    argvs = [workload.op_argv(inputs, i, str(run_dir / "ops" / str(i)))
             for i in range(workload.ops_per_round)]

    phases = {"start": time.perf_counter()}
    counts = {"attempted": 0, "failed": 0}

    def attempt(argv, tracer=None):
        seconds, ok = run_op(argv, tracer)
        counts["attempted"] += 1
        counts["failed"] += not ok
        return seconds, ok

    attempt(workload.op_argv(inputs, 0, str(run_dir / "warmup")))
    graph = workload.setup(inputs)  # for the direct kernel timings
    setups = [] if trace else setup_times(workload, inputs)

    phases["setup"] = time.perf_counter()
    tracer = Tracer() if trace else None
    untraced, pairs, outputs = [], [], {}  # pairs: (untraced, traced) seconds
    calibration = [calibration_ms()]
    start = time.perf_counter()
    while True:  # whole rounds; another only if it fits in the window
        round_start = time.perf_counter()
        for i, argv in enumerate(argvs):
            seconds, ok = attempt(argv)
            if ok and trace:
                install_wrappers(tracer)
                try:
                    traced_seconds, ok = attempt(argv, tracer)
                finally:
                    tracer.unwrap_all()
                if ok:
                    pairs.append((seconds, traced_seconds))
            if ok:
                untraced.append(seconds)
                outputs[i] = argv[-1]
            else:
                outputs.pop(i, None)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    peak = peak_rss_mb()
    calibration.append(calibration_ms())
    phases["window"] = time.perf_counter()
    if not untraced:
        raise SystemExit("no operation succeeded; nothing to measure")

    checks = Checks()
    workload.check(inputs, outputs, checks)
    phases["checks"] = time.perf_counter()
    result = {"correct": not checks.failures, **counts}
    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": trace, "facts": facts, "op_s": untraced, "setup_s": setups,
               "check_failures": checks.failures, "ref_rel_diffs": checks.rel_diffs,
               "iterations": checks.iterations, "calibration_ms": calibration}
    if trace:
        scratch = run_dir / "probe"
        scratch.mkdir(exist_ok=True)
        probes = kernel_probes(workload, inputs, graph, scratch, tracer, checks)
        seen = {s["name"] for r in tracer.roots("cli.main") for s in tracer.spans
                if s["root"] == r["id"]}
        install_wrappers(tracer)
        try:
            with tracer.span("probe"):
                for name, (repeats, call) in probes.items():
                    if name not in seen:
                        for _ in range(repeats):
                            gc.collect()
                            call()
        finally:
            tracer.unwrap_all()
        covered = {s["name"].split(".")[0] for s in tracer.spans}
        missing = [layer for layer in LAYERS if layer not in covered]
        if missing:
            raise SystemExit(f"spans cover no call into {missing}")
        metrics = layer_metrics(tracer, graph, checks, pairs)
        tracer.dump(run_dir / "spans.json", {"workload": workload.name, "seed": args.seed,
                                             "facts": facts})
        result["correct"] = not checks.failures
        phases["probes"] = time.perf_counter()
    else:
        metrics = {"op_s_p50": (statistics.median(untraced), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MB")}
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    marks = list(phases.items())
    details.update(result, phase_s={name: round(t - prev, 3)
                            for (_, prev), (name, t) in zip(marks, marks[1:])})
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="run directory")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    (generate if args.mode == "generate" else measure)(args)


if __name__ == "__main__":
    main()
