"""Command-line front door: build-graph, synth, sample, reconstruct, analyze, benchmark.

Each command declares its settings once, in :data:`COMMANDS`: a table of
``name -> (cast, default[, choices][, help])``. The table generates the
argparse flags (``--`` plus the name with ``_`` as ``-``), and :func:`main`
resolves every setting from the flag, else the ``--config`` key=value file,
else the default. A config key that is not a setting, nor one that
``config.txt`` echoes besides the settings, is a config error.

:func:`main` owns every command's ``--out`` and ``config.txt``. It requires
``--out``, and rejects a setting that ``config.txt`` cannot carry (see
:func:`tvgsr.textio.check_keyvalue`). It then calls the handler with the
settings and an output-path helper, which creates the directory on its first
use. Last it echoes the settings, in table order and then the keys the
handler added, into ``config.txt``, so runs can be reproduced exactly. Each
handler runs everything that can fail before its first write, so a command
that fails on its inputs or in its computation leaves no output directory.
Exit codes: 0 success, 1 usage/config error, 2 I/O or parse error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import textio
from .data import Dataset, cumulative_to_daily, load_dataset, synth_dataset
from .evaluation import (
    ExperimentPlan,
    make_regime_mask,
    reconstruct,
    run_experiment,
    write_aggregate_results,
    write_raw_results,
)
from .exceptions import InputError, NumericError, ParameterError, ParseError
from .graphs import Graph, build_knn_graph
from .sampling import REGIMES, check_uniqueness
from .solvers import (
    OBJECTIVES,
    PRECONDITIONERS,
    SolverConfig,
    solve_cg,  # noqa: F401 - unused here; perfbench traces tvgsr.cli.solve_cg
    solve_gr_static,  # noqa: F401 - unused here; perfbench traces tvgsr.cli.solve_gr_static
)
from .spectral import (
    dense_oracle_solve,
    eigenvalue_penalization,
    weyl_bounds,  # noqa: F401 - unused here; perfbench traces tvgsr.cli.weyl_bounds
    weyl_sweep,
    weyl_sweep as condition_sweep,  # noqa: F401 - perfbench traces tvgsr.cli.condition_sweep
)
from .temporal import difference_operator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

TRACE_HEADER = ("iteration", "grad_norm", "dir_norm", "mu", "gamma", "restart")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _parse_grid(settings, name):
    """Setting ``name``, a comma-separated grid of epsilons or betas, all finite and >= 0."""
    text = settings[name]
    try:
        grid = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated list of numbers, got {text!r}") from exc
    if not grid or not all(math.isfinite(value) and value >= 0 for value in grid):
        raise _UsageError(f"--{name.replace('_', '-')} values must be finite and >= 0, "
                          f"got {text!r}")
    return grid


def _truthy(raw) -> bool:
    """Cast of an on/off setting; its flag stores True and the config file may say so too."""
    return str(raw).lower() in ("1", "true", "yes")


def _resolve(args, config_map, name, cast, default):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config_map:
        raw = config_map[name]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"config key {name}={raw!r}: {exc}") from exc
    return default


def _output(out_dir):
    """``path(name)`` of a file in ``out_dir``, which the first call creates."""
    def path(name):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, name)
    return path


def _build_graph_from_flags(settings):
    if settings.get("adjacency") and settings["coords"]:
        raise _UsageError("--coords and --adjacency are alternatives; give one")
    if settings.get("adjacency"):
        weights = textio.read_matrix(settings["adjacency"])
        return Graph(weights, laplacian_kind=settings["laplacian"])
    if not settings["coords"]:
        raise _UsageError("--coords or --adjacency is required" if "adjacency" in settings
                          else "--coords is required")
    _, coords = textio.read_coordinates(settings["coords"])
    return build_knn_graph(coords, settings["k"], laplacian_kind=settings["laplacian"])


def cmd_build_graph(settings, path):
    graph = _build_graph_from_flags(settings)
    textio.write_matrix(path("adjacency.csv"), graph.adjacency)
    textio.write_keyvalues(path("manifest.txt"), {
        "n_nodes": graph.n_nodes,
        "k": settings["k"],
        "laplacian_kind": graph.laplacian_kind,
        "kernel_bandwidth": graph.sigma,
        "connected": graph.is_connected,
        "n_components": graph.n_components,
        "provenance": settings["coords"],
    })


def cmd_synth(settings, path):
    dataset, graph = synth_dataset(
        n_nodes=settings["n"], side=settings["side"], k=settings["k"],
        n_snapshots=settings["snapshots"], alpha=settings["alpha"],
        seed=settings["seed"], laplacian_kind=settings["laplacian"])
    textio.write_coordinates(path("coords.csv"), dataset.coords)
    textio.write_matrix(path("signal.csv"), dataset.signal)
    textio.write_matrix(path("adjacency.csv"), graph.adjacency)
    textio.write_keyvalues(path("manifest.txt"), {
        "name": "synthetic",
        "units": "a.u.",
        "n_nodes": settings["n"],
        "n_snapshots": settings["snapshots"],
        "alpha": settings["alpha"],
        "seed": settings["seed"],
        "side": settings["side"],
        "k": settings["k"],
        "connected": graph.is_connected,
        "provenance": "synthetic generator",
    })


def _mask_from_flags(settings, n_nodes, n_snapshots, regime=None, density=None):
    """(mask, generated): the --mask file, else a --regime mask at its level and --seed. The
    command's default ``regime``, and ``density`` where the regime reads one, fill unset
    flags; config.txt echoes them."""
    if settings.get("mask"):  # the solvers check its shape
        return textio.read_mask(settings["mask"]), False
    regime = settings["regime"] = settings["regime"] or regime
    if not regime:
        raise _UsageError("either --mask or --regime is required")
    if regime != "forecasting" and settings["density"] is None:
        settings["density"] = density
    level = settings["horizon"] if regime == "forecasting" else settings["density"]
    if level is None:
        raise _UsageError("random_entry/snapshot need --density; forecasting needs --horizon")
    mask = make_regime_mask(regime, n_nodes, n_snapshots, level, settings["seed"])
    return mask.mask, True


def cmd_sample(settings, path):
    if settings["signal"]:
        signal = textio.read_matrix(settings["signal"])
        n_nodes, n_snapshots = signal.shape
    elif settings["n_nodes"] and settings["snapshots"]:
        n_nodes, n_snapshots = settings["n_nodes"], settings["snapshots"]
    else:
        raise _UsageError("sample needs --signal or both --n-nodes and --snapshots")
    mask, _ = _mask_from_flags(settings, n_nodes, n_snapshots)
    check = check_uniqueness(mask)
    textio.write_mask(path("mask.csv"), mask)
    settings.update({
        "n_nodes": n_nodes,
        "snapshots": n_snapshots,
        "uniqueness_condition1": check.condition1,
        "uniqueness_condition2": check.condition2,
    })


def cmd_reconstruct(settings, path):
    if not settings["signal"]:
        raise _UsageError("reconstruct requires --signal")
    signal = textio.read_matrix(settings["signal"])
    graph = _build_graph_from_flags(settings)
    mask, generated = _mask_from_flags(settings, *signal.shape)
    config = SolverConfig(objective=settings["objective"], **{
        key: settings["step" if key == "temporal_step" else key] for key in _PLAN_METHOD_KEYS})
    oracle = dense_oracle_solve(signal, mask, graph, config) if settings["oracle_check"] else None
    result = reconstruct(signal, mask, graph, config)

    metrics = {
        "rmse": result.rmse,
        "mae": result.mae,
        "mape": result.mape,
        "mape_excluded": result.mape_excluded,
        "iterations": result.iterations,
        "termination": result.termination,
        "wall_time_s": result.wall_time,
        "evaluated_entries": result.evaluated_entries,
    }
    if result.stats is not None:
        metrics["stop_reason"] = result.stats.stop_reason
        metrics["restarts"] = len(result.stats.restarts)
        metrics["hessian_actions"] = result.stats.hessian_actions
    if result.unsampled_columns:
        metrics["unsampled_columns"] = ",".join(str(c) for c in result.unsampled_columns)
    if oracle is not None:
        scale = max(float(np.linalg.norm(oracle.x_hat)), 1e-300)
        metrics["oracle_rel_diff"] = float(np.linalg.norm(result.x_hat - oracle.x_hat)) / scale
        metrics["oracle_singular"] = oracle.singular
    textio.write_matrix(path("x_hat.csv"), result.x_hat)
    textio.write_loss_trace(path("loss_trace.csv"), result.loss_trace)
    if generated:
        textio.write_mask(path("mask.csv"), mask)
    if result.stats is not None:
        textio.write_table(path("trace.csv"), TRACE_HEADER, result.stats.rows())
    textio.write_keyvalues(path("metrics.txt"), metrics)


def cmd_analyze(settings, path):
    if settings["mask"] and settings["snapshots"] is not None:
        raise _UsageError("--snapshots sizes a generated mask; a --mask file fixes its own")
    graph = _build_graph_from_flags(settings)
    if not (settings["mask"] or settings["snapshots"]):
        raise _UsageError("analyze needs --mask or --snapshots (to generate one)")
    mask, _ = _mask_from_flags(settings, graph.n_nodes, settings["snapshots"],
                               regime="random_entry", density=0.5)
    epsilon_grid = _parse_grid(settings, "epsilon_grid")
    beta_grid = _parse_grid(settings, "beta_grid")
    op = difference_operator(mask.shape[1], settings["step"])
    # The sweep's checks, N*M guard included, also run before any O(N^3) step. One Weyl
    # report per epsilon; kappa is scale-invariant, so the sweep reads its extremes.
    reports = weyl_sweep(graph, op, settings["upsilon"], settings["beta"], epsilon_grid, mask)
    penalties = eigenvalue_penalization(graph.spectrum(), beta_grid)  # the sweep's cached spectrum
    textio.write_table(path("condition_sweep.csv"),
                       ("epsilon", "kappa_sobolev", "kappa_laplacian"),
                       [(r.epsilon, r.sobolev.kappa, r.laplacian.kappa) for r in reports])

    weyl_header = ("objective", "epsilon", "lambda_max", "lambda_min",
                   "max_bracket_low", "max_bracket_high", "min_bracket_low",
                   "min_bracket_high", "premise_holds", "max_within", "min_within")
    rows = [("laplacian", 0.0, reports[0].laplacian)] + \
        [("sobolev", r.epsilon, r.sobolev) for r in reports]
    weyl_rows = [(name, epsilon, b.lambda_max, b.lambda_min, b.max_bracket[0], b.max_bracket[1],
                  b.min_bracket[0], b.min_bracket[1], b.premise_holds, b.max_within,
                  b.min_within) for name, epsilon, b in rows]
    textio.write_table(path("weyl_report.csv"), weyl_header, weyl_rows)
    pen_header = ["beta"] + [f"lambda_{i + 1}" for i in range(graph.n_nodes)]
    pen_rows = [[beta_grid[j]] + list(penalties[:, j]) for j in range(len(beta_grid))]
    textio.write_table(path("eigenvalue_penalization.csv"), pen_header, pen_rows)


# SolverConfig's fields and their casts; objective is set per method only
_PLAN_METHOD_KEYS = {f.name: type(f.default) for f in fields(SolverConfig)
                     if f.name != "objective"}
_PLAN_KEYS = ("regime", "levels", "densities", "horizons", "methods", "repetitions", "base_seed",
              "signal_transform", *_PLAN_METHOD_KEYS)  # besides "<method>.<key>"


def _horizon(tok) -> int:
    value = float(tok)
    if not value.is_integer():
        raise ValueError(f"horizons must be integers, got {tok}")
    return int(value)


def _parse_plan(path):
    kv = textio.read_keyvalues(path)

    def read(key, cast, default=None):
        """``cast`` of the plan's ``key``; a value it rejects names the plan and the key."""
        if key not in kv:
            return default
        try:
            return cast(kv[key])
        except ValueError as exc:
            raise ParameterError(f"{path}: {key}={kv[key]!r}: {exc}") from exc

    regime = kv.get("regime", "random_entry")
    levels_keys = [key for key in ("levels", "densities", "horizons") if key in kv]
    if not levels_keys:
        raise ParameterError(f"{path}: plan needs a levels=/densities=/horizons= entry")
    if len(levels_keys) > 1:
        raise ParameterError(f"{path}: plan sets {' and '.join(levels_keys)}; "
                             "give the levels under one key")
    misplaced = "densities" if regime == "forecasting" else "horizons"
    if misplaced in kv:
        raise ParameterError(f"{path}: {misplaced}= does not apply to regime={regime}")
    level = _horizon if regime == "forecasting" else float
    levels = read(levels_keys[0], lambda raw: tuple(level(tok) for tok in raw.split(",")))
    method_names = [tok.strip() for tok in kv.get("methods", "").split(",") if tok.strip()]
    if not method_names:
        raise ParameterError(f"{path}: plan needs a methods= entry")
    known = {*_PLAN_KEYS, *(f"{name}.{key}" for name in method_names
                           for key in ("objective", *_PLAN_METHOD_KEYS))}
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise ParameterError(f"{path}: unknown plan key {', '.join(map(repr, unknown))}")
    methods = {}
    for name in method_names:
        prefix = f"{name}."
        objective = kv.get(prefix + "objective", name if name in OBJECTIVES else None)
        if objective is None:
            raise ParameterError(
                f"{path}: method {name!r} needs {prefix}objective= (one of {OBJECTIVES})"
            )
        settings = {}  # keys the plan leaves out take SolverConfig's defaults
        for key, cast in _PLAN_METHOD_KEYS.items():
            value = read(prefix + key if prefix + key in kv else key, cast)
            if value is not None:
                settings[key] = value
        methods[name] = SolverConfig(objective=objective, **settings)
    plan = ExperimentPlan(
        regime=regime,
        levels=levels,
        repetitions=read("repetitions", int, 10),
        methods=methods,
        base_seed=read("base_seed", int, 0),
    )
    transform = kv.get("signal_transform", "none")
    if transform not in ("none", "daily"):
        raise ParameterError(f"{path}: signal_transform must be 'none' or 'daily'")
    return plan, transform, kv


def cmd_benchmark(settings, path):
    if not settings["plan"] or not settings["coords"] or not settings["signal"]:
        raise _UsageError("benchmark requires --plan, --coords, and --signal")
    plan, transform, plan_kv = _parse_plan(settings["plan"])
    dataset = load_dataset(settings["coords"], settings["signal"])
    if transform == "daily":
        dataset = Dataset(coords=dataset.coords, signal=cumulative_to_daily(dataset.signal))
    graph = build_knn_graph(dataset.coords, settings["k"],
                            laplacian_kind=settings["laplacian"])
    result = run_experiment(plan, dataset, graph, jobs=settings["jobs"])
    write_raw_results(path("raw_results.csv"), result)
    write_aggregate_results(path("aggregate_results.csv"), result)
    settings["signal_transform"] = transform
    settings.update((f"plan.{key}", value) for key, value in sorted(plan_kv.items()))


_OUT = (str, None, None, "output directory")
_GRAPH = {  # after --coords (and --adjacency) in the commands that build a graph
    "k": (int, 10, None, "neighbors per node (default 10)"),
    "laplacian": (str, "combinatorial", ("combinatorial", "normalized")),
}
_MASK = {  # a mask file, or a regime with its density or horizon and seed
    "mask": (str, None, None, "mask file; alternative to --regime"),
    "regime": (str, None, REGIMES),
    "density": (float, None),
    "horizon": (int, None),
    "seed": (int, 0),
}

# command -> (handler, help, {setting: (cast, default[, choices][, help])}); a setting's
# flag is "--" plus its name with "_" as "-", and config.txt echoes the settings in this
# order. handler(settings, path) writes its files to path(name) and may add echo keys.
COMMANDS = {
    "build-graph": (cmd_build_graph, "build a k-NN graph from coordinates", {
        "coords": (str, None, None, "coordinate file (node_id,latitude,longitude)"),
        **_GRAPH,
        "out": _OUT,
    }),
    "synth": (cmd_synth, "generate the synthetic dataset", {
        "n": (int, 100, None, "number of nodes (default 100)"),
        "side": (float, 100.0, None, "square side length (default 100)"),
        "k": (int, 5, None, "neighbors per node (default 5)"),
        "snapshots": (int, 30, None, "number of snapshots (default 30)"),
        "alpha": (float, 1.0, None, "innovation norm (default 1.0)"),
        "seed": (int, 0),
        "laplacian": _GRAPH["laplacian"],
        "out": _OUT,
    }),
    "sample": (cmd_sample, "generate a sampling mask", {
        "signal": (str, None, None, "signal file to take the shape from"),
        "n_nodes": (int, None),
        "snapshots": (int, None),
        "regime": (str, "random_entry", REGIMES),
        "density": (float, None),
        "horizon": (int, None),
        "seed": (int, 0),
        "out": _OUT,
    }),
    "reconstruct": (cmd_reconstruct, "reconstruct a masked signal", {
        "coords": (str, None),
        "signal": (str, None),
        "adjacency": (str, None, None, "adjacency file (alternative to --coords)"),
        **_GRAPH,
        **_MASK,
        "objective": (str, "sobolev", OBJECTIVES),
        "upsilon": (float, 1.0),
        "epsilon": (float, 0.1),
        "beta": (float, 1.0),
        "delta": (float, 1e-6),
        "max_iter": (int, 20000),
        "step": (int, 1, None, "temporal difference step (1, 2, or 3)"),
        "preconditioner": (str, "temporal", PRECONDITIONERS,
                           "CG preconditioner; none runs the paper's plain FR-CG"),
        "out": _OUT,
        "oracle_check": (_truthy, False, None,
                         "cross-check against the dense stationarity oracle"),
    }),
    "analyze": (cmd_analyze, "condition numbers, eigenvalue brackets, penalization", {
        "coords": (str, None),
        "adjacency": (str, None),
        **_GRAPH,
        **_MASK,
        "snapshots": (int, None),
        "upsilon": (float, 1.0),
        "beta": (float, 1.0),
        "epsilon_grid": (str, "0.0,0.01,0.05,0.1,0.5,1.0"),
        "beta_grid": (str, "0.5,1.0,2.0"),
        "step": (int, 1),
        "out": _OUT,
    }),
    "benchmark": (cmd_benchmark, "run a Monte-Carlo experiment plan", {
        "plan": (str, None, None, "plan file (key=value)"),
        "coords": (str, None),
        "signal": (str, None),
        **_GRAPH,
        "jobs": (int, 1, None, "parallel Monte-Carlo workers (default 1)"),
        "out": _OUT,
    }),
}


# config.txt keys that are not settings: --config accepts and ignores them
_ECHO_KEYS = ("command", "signal_transform")
_ECHO_PREFIXES = ("uniqueness_condition", "plan.")


def build_parser() -> argparse.ArgumentParser:
    """The argparse front end that :data:`COMMANDS` declares; every flag defaults to None."""
    parser = _Parser(prog="tvgsr",
                     description="Time-varying graph signal reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, table) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key=value file with defaults for any flag")
        for name, (cast, _, *extra) in table.items():
            choices, text = (*extra, None, None)[:2]
            flag = "--" + name.replace("_", "-")
            if cast is _truthy:
                p.add_argument(flag, dest=name, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, dest=name, type=None if cast is str else cast,
                               choices=choices, help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, _, table = COMMANDS[args.command]
        config_map = {} if args.config is None else textio.read_keyvalues(args.config)
        unknown = [key for key in config_map if key not in table and key not in _ECHO_KEYS
                   and not key.startswith(_ECHO_PREFIXES)]
        if unknown:
            raise ParameterError(
                f"{args.config}: unknown config key {', '.join(map(repr, unknown))}")
        settings = {name: _resolve(args, config_map, name, *spec[:2])
                    for name, spec in table.items()}
        if not settings["out"]:
            raise _UsageError(f"{args.command} requires --out")
        try:  # before the handler, so that nothing is written
            for key, value in settings.items():
                textio.check_keyvalue(key, value)
        except InputError as exc:
            raise _UsageError(str(exc)) from exc
        path = _output(settings["out"])
        handler(settings, path)
        # unset (None) settings are left out, so --config can read config.txt back
        textio.write_keyvalues(path("config.txt"), {"command": args.command, **{
            key: value for key, value in settings.items() if value is not None}})
        return EXIT_OK
    except _UsageError as exc:
        print(f"tvgsr: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, InputError) as exc:
        print(f"tvgsr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"tvgsr: parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"tvgsr: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"tvgsr: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
