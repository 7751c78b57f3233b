"""Command-line front door: build-graph, synth, sample, reconstruct, analyze, benchmark.

Every run is fully determined by a flat key=value config file plus explicit
flag overrides (flags win), and each command echoes its resolved settings
into ``config.txt`` inside the output directory so runs can be reproduced
exactly. Exit codes: 0 success, 1 usage/config error, 2 I/O or parse error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import textio
from .data import Dataset, cumulative_to_daily, load_dataset, synth_dataset
from .evaluation import (
    ExperimentPlan,
    make_regime_mask,
    run_experiment,
    write_aggregate_results,
    write_raw_results,
    _score,
)
from .exceptions import InputError, NumericError, ParameterError, ParseError
from .graphs import Graph, build_knn_graph
from .sampling import REGIMES, check_uniqueness
from .solvers import OBJECTIVES, SolverConfig, solve_cg, solve_gr_static
from .spectral import (
    condition_sweep,  # noqa: F401 - unused here; perfbench traces tvgsr.cli.condition_sweep
    dense_oracle_solve,
    eigenvalue_penalization,
    weyl_bounds,  # noqa: F401 - unused here; perfbench traces tvgsr.cli.weyl_bounds
    weyl_sweep,
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


def _parse_float_list(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _load_config_map(path):
    if path is None:
        return {}
    return textio.read_keyvalues(path)


def _resolve(args, config_map, name, cast=str, default=None):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config_map:
        raw = config_map[name]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"config key {name}={raw!r}: {exc}") from exc
    return default


def _prepare_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _echo_config(out_dir, command, settings):
    """Write ``config.txt``; unset (None) settings are left out so --config can read it back."""
    echo = {"command": command}
    echo.update((key, value) for key, value in settings.items() if value is not None)
    textio.write_keyvalues(os.path.join(out_dir, "config.txt"), echo)


def _build_graph_from_flags(settings):
    if settings.get("adjacency"):
        weights = textio.read_matrix(settings["adjacency"])
        return Graph(weights, laplacian_kind=settings["laplacian"])
    _, coords = textio.read_coordinates(settings["coords"])
    return build_knn_graph(coords, settings["k"], laplacian_kind=settings["laplacian"])


def _solver_config(settings) -> SolverConfig:
    return SolverConfig(
        upsilon=settings["upsilon"],
        epsilon=settings["epsilon"],
        beta=settings["beta"],
        delta=settings["delta"],
        max_iter=settings["max_iter"],
        objective=settings["objective"],
        temporal_step=settings["step"],
    )


def cmd_build_graph(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "coords": _resolve(args, config_map, "coords"),
        "k": _resolve(args, config_map, "k", int, 10),
        "laplacian": _resolve(args, config_map, "laplacian", str, "combinatorial"),
        "out": _resolve(args, config_map, "out"),
    }
    if not settings["coords"] or not settings["out"]:
        raise _UsageError("build-graph requires --coords and --out")
    _, coords = textio.read_coordinates(settings["coords"])
    graph = build_knn_graph(coords, settings["k"], laplacian_kind=settings["laplacian"])
    out = _prepare_out_dir(settings["out"])
    textio.write_matrix(os.path.join(out, "adjacency.csv"), graph.adjacency)
    textio.write_keyvalues(os.path.join(out, "manifest.txt"), {
        "n_nodes": graph.n_nodes,
        "k": settings["k"],
        "laplacian_kind": graph.laplacian_kind,
        "kernel_bandwidth": graph.sigma,
        "connected": graph.is_connected,
        "n_components": graph.n_components,
        "provenance": settings["coords"],
    })
    _echo_config(out, "build-graph", settings)
    return EXIT_OK


def cmd_synth(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "n": _resolve(args, config_map, "n", int, 100),
        "side": _resolve(args, config_map, "side", float, 100.0),
        "k": _resolve(args, config_map, "k", int, 5),
        "snapshots": _resolve(args, config_map, "snapshots", int, 30),
        "alpha": _resolve(args, config_map, "alpha", float, 1.0),
        "seed": _resolve(args, config_map, "seed", int, 0),
        "laplacian": _resolve(args, config_map, "laplacian", str, "combinatorial"),
        "out": _resolve(args, config_map, "out"),
    }
    if not settings["out"]:
        raise _UsageError("synth requires --out")
    dataset, graph = synth_dataset(
        n_nodes=settings["n"], side=settings["side"], k=settings["k"],
        n_snapshots=settings["snapshots"], alpha=settings["alpha"],
        seed=settings["seed"], laplacian_kind=settings["laplacian"])
    out = _prepare_out_dir(settings["out"])
    textio.write_coordinates(os.path.join(out, "coords.csv"), dataset.coords)
    textio.write_matrix(os.path.join(out, "signal.csv"), dataset.signal)
    textio.write_matrix(os.path.join(out, "adjacency.csv"), graph.adjacency)
    textio.write_keyvalues(os.path.join(out, "manifest.txt"), {
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
    _echo_config(out, "synth", settings)
    return EXIT_OK


def _mask_from_flags(settings, n_nodes, n_snapshots):
    if settings.get("mask"):
        mask = textio.read_mask(settings["mask"])
        if mask.shape != (n_nodes, n_snapshots):
            raise InputError(
                f"mask shape {mask.shape} does not match signal shape {(n_nodes, n_snapshots)}"
            )
        return mask, False
    regime = settings.get("regime")
    if not regime:
        raise _UsageError("either --mask or --regime is required")
    level = settings["horizon"] if regime == "forecasting" else settings["density"]
    if level is None:
        raise _UsageError("random_entry/snapshot need --density; forecasting needs --horizon")
    mask = make_regime_mask(regime, n_nodes, n_snapshots, level, settings["seed"])
    return mask.mask, True


def cmd_sample(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "signal": _resolve(args, config_map, "signal"),
        "n_nodes": _resolve(args, config_map, "n_nodes", int),
        "snapshots": _resolve(args, config_map, "snapshots", int),
        "regime": _resolve(args, config_map, "regime", str, "random_entry"),
        "density": _resolve(args, config_map, "density", float),
        "horizon": _resolve(args, config_map, "horizon", int),
        "seed": _resolve(args, config_map, "seed", int, 0),
        "out": _resolve(args, config_map, "out"),
    }
    if not settings["out"]:
        raise _UsageError("sample requires --out")
    if settings["signal"]:
        signal = textio.read_matrix(settings["signal"])
        n_nodes, n_snapshots = signal.shape
    elif settings["n_nodes"] and settings["snapshots"]:
        n_nodes, n_snapshots = settings["n_nodes"], settings["snapshots"]
    else:
        raise _UsageError("sample needs --signal or both --n-nodes and --snapshots")
    settings["mask"] = None
    mask, _ = _mask_from_flags(settings, n_nodes, n_snapshots)
    out = _prepare_out_dir(settings["out"])
    textio.write_mask(os.path.join(out, "mask.csv"), mask)
    check = check_uniqueness(mask)
    settings.update({
        "n_nodes": n_nodes,
        "snapshots": n_snapshots,
        "uniqueness_condition1": check.condition1,
        "uniqueness_condition2": check.condition2,
    })
    settings.pop("mask")
    _echo_config(out, "sample", settings)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "coords": _resolve(args, config_map, "coords"),
        "signal": _resolve(args, config_map, "signal"),
        "adjacency": _resolve(args, config_map, "adjacency"),
        "k": _resolve(args, config_map, "k", int, 10),
        "laplacian": _resolve(args, config_map, "laplacian", str, "combinatorial"),
        "mask": _resolve(args, config_map, "mask"),
        "regime": _resolve(args, config_map, "regime"),
        "density": _resolve(args, config_map, "density", float),
        "horizon": _resolve(args, config_map, "horizon", int),
        "seed": _resolve(args, config_map, "seed", int, 0),
        "objective": _resolve(args, config_map, "objective", str, "sobolev"),
        "upsilon": _resolve(args, config_map, "upsilon", float, 1.0),
        "epsilon": _resolve(args, config_map, "epsilon", float, 0.1),
        "beta": _resolve(args, config_map, "beta", float, 1.0),
        "delta": _resolve(args, config_map, "delta", float, 1e-6),
        "max_iter": _resolve(args, config_map, "max_iter", int, 20000),
        "step": _resolve(args, config_map, "step", int, 1),
        "out": _resolve(args, config_map, "out"),
    }
    oracle_check = bool(getattr(args, "oracle_check", False)) or \
        str(config_map.get("oracle_check", "")).lower() in ("1", "true", "yes")
    if not settings["signal"] or not settings["out"]:
        raise _UsageError("reconstruct requires --signal and --out")
    if not settings["coords"] and not settings["adjacency"]:
        raise _UsageError("reconstruct requires --coords or --adjacency")

    signal = textio.read_matrix(settings["signal"])
    graph = _build_graph_from_flags(settings)
    if graph.n_nodes != signal.shape[0]:
        raise InputError(
            f"graph has {graph.n_nodes} nodes but signal has {signal.shape[0]} rows"
        )
    mask, generated = _mask_from_flags(settings, *signal.shape)
    observed = mask * signal
    config = _solver_config(settings)

    if config.objective == "gr_static":
        result = solve_gr_static(observed, mask, graph, config)
    else:
        result = solve_cg(observed, mask, graph, config)

    out = _prepare_out_dir(settings["out"])
    textio.write_matrix(os.path.join(out, "x_hat.csv"), result.x_hat)
    textio.write_loss_trace(os.path.join(out, "loss_trace.csv"), result.loss_trace)
    if generated:
        textio.write_mask(os.path.join(out, "mask.csv"), mask)
    if result.stats is not None:
        textio.write_table(os.path.join(out, "trace.csv"), TRACE_HEADER,
                           result.stats.rows())

    eval_index = mask == 0
    row_rmse, row_mae, row_mape, excluded = _score(result.x_hat, signal, eval_index)
    metrics = {
        "rmse": row_rmse,
        "mae": row_mae,
        "mape": row_mape,
        "mape_excluded": excluded,
        "iterations": result.iterations,
        "termination": result.termination,
        "wall_time_s": result.wall_time,
        "evaluated_entries": int(eval_index.sum()),
    }
    if result.stats is not None:
        metrics["stop_reason"] = result.stats.stop_reason
        metrics["restarts"] = len(result.stats.restarts)
        metrics["hessian_actions"] = result.stats.hessian_actions
    if result.unsampled_columns:
        metrics["unsampled_columns"] = ",".join(str(c) for c in result.unsampled_columns)
    if oracle_check:
        oracle = dense_oracle_solve(observed, mask, graph, config)
        scale = max(float(np.linalg.norm(oracle.x_hat)), 1e-300)
        metrics["oracle_rel_diff"] = float(np.linalg.norm(result.x_hat - oracle.x_hat)) / scale
        metrics["oracle_singular"] = oracle.singular
    textio.write_keyvalues(os.path.join(out, "metrics.txt"), metrics)
    settings["oracle_check"] = oracle_check
    _echo_config(out, "reconstruct", settings)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "coords": _resolve(args, config_map, "coords"),
        "adjacency": _resolve(args, config_map, "adjacency"),
        "k": _resolve(args, config_map, "k", int, 10),
        "laplacian": _resolve(args, config_map, "laplacian", str, "combinatorial"),
        "mask": _resolve(args, config_map, "mask"),
        "regime": _resolve(args, config_map, "regime"),
        "density": _resolve(args, config_map, "density", float),
        "horizon": _resolve(args, config_map, "horizon", int),
        "seed": _resolve(args, config_map, "seed", int, 0),
        "snapshots": _resolve(args, config_map, "snapshots", int),
        "upsilon": _resolve(args, config_map, "upsilon", float, 1.0),
        "beta": _resolve(args, config_map, "beta", float, 1.0),
        "epsilon_grid": _resolve(args, config_map, "epsilon_grid", str,
                                 "0.0,0.01,0.05,0.1,0.5,1.0"),
        "beta_grid": _resolve(args, config_map, "beta_grid", str, "0.5,1.0,2.0"),
        "step": _resolve(args, config_map, "step", int, 1),
        "out": _resolve(args, config_map, "out"),
    }
    if not settings["out"]:
        raise _UsageError("analyze requires --out")
    if not settings["coords"] and not settings["adjacency"]:
        raise _UsageError("analyze requires --coords or --adjacency")
    graph = _build_graph_from_flags(settings)
    if settings["mask"]:
        mask = textio.read_mask(settings["mask"])
        if mask.shape[0] != graph.n_nodes:
            raise InputError(f"mask has {mask.shape[0]} rows, graph has {graph.n_nodes} nodes")
    else:
        if not settings["snapshots"]:
            raise _UsageError("analyze needs --mask or --snapshots (to generate one)")
        regime = settings["regime"] or "random_entry"
        settings["regime"] = regime
        if regime == "forecasting":
            level = settings["horizon"]
        else:
            level = 0.5 if settings["density"] is None else settings["density"]
        if level is None:
            raise _UsageError("forecasting needs --horizon")
        mask_obj = make_regime_mask(regime, graph.n_nodes, settings["snapshots"],
                                    level, settings["seed"])
        mask = mask_obj.mask

    epsilon_grid = _parse_float_list(settings["epsilon_grid"])
    beta_grid = _parse_float_list(settings["beta_grid"])
    op = difference_operator(mask.shape[1], settings["step"])

    out = _prepare_out_dir(settings["out"])
    # One Weyl report per epsilon; kappa is scale-invariant, so the sweep reads its extremes.
    reports = weyl_sweep(graph, op, settings["upsilon"], settings["beta"], epsilon_grid, mask)
    textio.write_table(os.path.join(out, "condition_sweep.csv"),
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
    textio.write_table(os.path.join(out, "weyl_report.csv"), weyl_header, weyl_rows)

    penalties = eigenvalue_penalization(graph.spectrum(), beta_grid)
    pen_header = ["beta"] + [f"lambda_{i + 1}" for i in range(graph.n_nodes)]
    pen_rows = [[beta_grid[j]] + list(penalties[:, j]) for j in range(len(beta_grid))]
    textio.write_table(os.path.join(out, "eigenvalue_penalization.csv"), pen_header, pen_rows)
    _echo_config(out, "analyze", settings)
    return EXIT_OK


_PLAN_METHOD_KEYS = {"upsilon": float, "epsilon": float, "beta": float, "delta": float,
                     "max_iter": int, "temporal_step": int}


def _parse_plan(path):
    kv = textio.read_keyvalues(path)
    regime = kv.get("regime", "random_entry")
    levels_raw = kv.get("levels") or kv.get("densities") or kv.get("horizons")
    if not levels_raw:
        raise ParameterError(f"{path}: plan needs a levels=/densities=/horizons= entry")
    if regime == "forecasting":
        levels = tuple(int(float(tok)) for tok in levels_raw.split(","))
    else:
        levels = tuple(float(tok) for tok in levels_raw.split(","))
    method_names = [tok.strip() for tok in kv.get("methods", "").split(",") if tok.strip()]
    if not method_names:
        raise ParameterError(f"{path}: plan needs a methods= entry")
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
            value = kv.get(prefix + key, kv.get(key))
            if value is not None:
                settings[key] = cast(value)
        methods[name] = SolverConfig(objective=objective, **settings)
    plan = ExperimentPlan(
        regime=regime,
        levels=levels,
        repetitions=int(kv.get("repetitions", 10)),
        methods=methods,
        base_seed=int(kv.get("base_seed", 0)),
    )
    transform = kv.get("signal_transform", "none")
    if transform not in ("none", "daily"):
        raise ParameterError(f"{path}: signal_transform must be 'none' or 'daily'")
    return plan, transform, kv


def cmd_benchmark(args) -> int:
    config_map = _load_config_map(args.config)
    settings = {
        "plan": _resolve(args, config_map, "plan"),
        "coords": _resolve(args, config_map, "coords"),
        "signal": _resolve(args, config_map, "signal"),
        "k": _resolve(args, config_map, "k", int, 10),
        "laplacian": _resolve(args, config_map, "laplacian", str, "combinatorial"),
        "jobs": _resolve(args, config_map, "jobs", int, 1),
        "out": _resolve(args, config_map, "out"),
    }
    if not settings["plan"] or not settings["coords"] or not settings["signal"]:
        raise _UsageError("benchmark requires --plan, --coords, and --signal")
    if not settings["out"]:
        raise _UsageError("benchmark requires --out")
    plan, transform, plan_kv = _parse_plan(settings["plan"])
    dataset = load_dataset(settings["coords"], settings["signal"])
    if transform == "daily":
        dataset = Dataset(coords=dataset.coords, signal=cumulative_to_daily(dataset.signal),
                          name=dataset.name, units=dataset.units)
    graph = build_knn_graph(dataset.coords, settings["k"],
                            laplacian_kind=settings["laplacian"])
    result = run_experiment(plan, dataset, graph, jobs=settings["jobs"])
    out = _prepare_out_dir(settings["out"])
    write_raw_results(os.path.join(out, "raw_results.csv"), result)
    write_aggregate_results(os.path.join(out, "aggregate_results.csv"), result)
    echo = dict(settings)
    echo["signal_transform"] = transform
    for key, value in sorted(plan_kv.items()):
        echo[f"plan.{key}"] = value
    _echo_config(out, "benchmark", echo)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvgsr",
                     description="Time-varying graph signal reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file with defaults for any flag")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("build-graph", help="build a k-NN graph from coordinates")
    add_common(p)
    p.add_argument("--coords", help="coordinate file (node_id,latitude,longitude)")
    p.add_argument("--k", type=int, help="neighbors per node (default 10)")
    p.add_argument("--laplacian", choices=("combinatorial", "normalized"))
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    add_common(p)
    p.add_argument("--n", type=int, help="number of nodes (default 100)")
    p.add_argument("--side", type=float, help="square side length (default 100)")
    p.add_argument("--k", type=int, help="neighbors per node (default 5)")
    p.add_argument("--snapshots", type=int, help="number of snapshots (default 30)")
    p.add_argument("--alpha", type=float, help="innovation norm (default 1.0)")
    p.add_argument("--seed", type=int)
    p.add_argument("--laplacian", choices=("combinatorial", "normalized"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="generate a sampling mask")
    add_common(p)
    p.add_argument("--signal", help="signal file to take the shape from")
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--snapshots", type=int)
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--density", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="reconstruct a masked signal")
    add_common(p)
    p.add_argument("--coords")
    p.add_argument("--adjacency", help="adjacency file (alternative to --coords)")
    p.add_argument("--signal")
    p.add_argument("--k", type=int)
    p.add_argument("--laplacian", choices=("combinatorial", "normalized"))
    p.add_argument("--mask", help="mask file; alternative to --regime")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--density", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--upsilon", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--step", type=int, help="temporal difference step (1, 2, or 3)")
    p.add_argument("--oracle-check", dest="oracle_check", action="store_true",
                   help="cross-check against the dense stationarity oracle")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("analyze", help="condition numbers, eigenvalue brackets, penalization")
    add_common(p)
    p.add_argument("--coords")
    p.add_argument("--adjacency")
    p.add_argument("--k", type=int)
    p.add_argument("--laplacian", choices=("combinatorial", "normalized"))
    p.add_argument("--mask")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--density", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--snapshots", type=int)
    p.add_argument("--upsilon", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon-grid", dest="epsilon_grid")
    p.add_argument("--beta-grid", dest="beta_grid")
    p.add_argument("--step", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("benchmark", help="run a Monte-Carlo experiment plan")
    add_common(p)
    p.add_argument("--plan", help="plan file (key=value)")
    p.add_argument("--coords")
    p.add_argument("--signal")
    p.add_argument("--k", type=int)
    p.add_argument("--laplacian", choices=("combinatorial", "normalized"))
    p.add_argument("--jobs", type=int, help="parallel Monte-Carlo workers (default 1)")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
