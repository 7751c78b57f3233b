"""Error metrics and the Monte-Carlo reconstruction experiment protocol.

Every repetition of an experiment draws one sampling mask that is shared by
all methods, reconstructs from the masked observations, and scores the
result on the non-sampled entries only. Mask seeds derive from a stable
blake2b hash of (base seed, regime, level, repetition), so experiment tables
are reproducible across platforms and safe to compute in parallel.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import textio
from .data import Dataset
from .exceptions import InputError, NumericError, ParameterError
from .sampling import REGIMES, as_mask_array, forecasting_mask, random_entry_mask, snapshot_mask
from .solvers import SolveResult, SolverConfig, solve_cg, solve_gr_static

DEFAULT_UPSILON_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
DEFAULT_EPSILON_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0)

# the columns of raw_results.csv and aggregate_results.csv: ResultRow's and AggregateRow's fields
RAW_HEADER = ("method", "regime", "density_or_horizon", "repetition",
              "rmse", "mae", "mape", "iterations", "wall_time_s", "mape_excluded",
              "termination")
AGGREGATE_HEADER = ("method", "regime", "density_or_horizon", "repetitions",
                    "rmse", "mae", "mape", "iterations", "wall_time_s")


def _flat_pair(x_hat, x_star):
    a = np.asarray(x_hat, dtype=float).ravel()
    b = np.asarray(x_star, dtype=float).ravel()
    if a.shape != b.shape:
        raise InputError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise InputError("empty evaluation set")
    return a, b


def rmse(x_hat, x_star) -> float:
    """Root mean square error."""
    a, b = _flat_pair(x_hat, x_star)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def mae(x_hat, x_star) -> float:
    """Mean absolute error."""
    a, b = _flat_pair(x_hat, x_star)
    return float(np.mean(np.abs(a - b)))


def mape(x_hat, x_star) -> float:
    """Mean absolute percentage error, reported as a fraction (not x100).

    Entries with zero ground truth are excluded. When every entry is
    excluded the value is NaN.
    """
    a, b = _flat_pair(x_hat, x_star)
    valid = b != 0
    if not np.any(valid):
        return math.nan
    return float(np.mean(np.abs((b[valid] - a[valid]) / b[valid])))


def mask_seed(base_seed, regime, level, repetition) -> int:
    """Stable 64-bit seed for the mask of one (regime, level, repetition) cell."""
    payload = f"{int(base_seed)}|{regime}|{float(level).hex()}|{int(repetition)}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class ExperimentPlan:
    """Monte-Carlo experiment description.

    ``levels`` holds distinct sampling densities in (0, 1] for the
    random-entry and snapshot regimes, or distinct integer forecasting
    horizons in 1..10. ``methods`` maps a report label to the solver
    configuration to run; insertion order fixes the report order.
    """

    regime: str
    levels: tuple
    repetitions: int
    methods: dict
    base_seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ParameterError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not self.levels:
            raise ParameterError("at least one density/horizon is required")
        if len(set(self.levels)) != len(self.levels):
            raise ParameterError(f"each density/horizon may be given once, got {self.levels}")
        if self.regime == "forecasting":
            for level in self.levels:
                if int(level) != level or not 1 <= int(level) <= 10:
                    raise ParameterError(f"horizons must be integers in 1..10, got {level}")
        else:
            for level in self.levels:
                if not 0.0 < float(level) <= 1.0:
                    raise ParameterError(f"densities must lie in (0, 1], got {level}")
        if self.repetitions < 1:
            raise ParameterError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.methods:
            raise ParameterError("at least one method is required")
        for name, config in self.methods.items():
            if not isinstance(config, SolverConfig):
                raise ParameterError(f"method {name!r} needs a SolverConfig")


@dataclass(frozen=True)
class ResultRow:
    method: str
    regime: str
    level: float
    repetition: int
    rmse: float
    mae: float
    mape: float
    iterations: int
    wall_time_s: float
    mape_excluded: int
    termination: str


@dataclass(frozen=True)
class AggregateRow:
    method: str
    regime: str
    level: float
    repetitions: int
    rmse: float
    mae: float
    mape: float
    iterations: float
    wall_time_s: float


@dataclass
class ExperimentResult:
    rows: list
    aggregates: list
    mask_digests: dict  # (level, repetition) -> sha256 hex digest


def make_regime_mask(regime, n_nodes, n_snapshots, level, seed):
    """Mask for one experiment cell; forecasting masks ignore the seed."""
    if regime == "random_entry":
        return random_entry_mask(n_nodes, n_snapshots, float(level), seed)
    if regime == "snapshot":
        return snapshot_mask(n_nodes, n_snapshots, float(level), seed)
    if regime == "forecasting":
        return forecasting_mask(n_nodes, n_snapshots, int(level))
    raise ParameterError(f"unknown regime {regime!r}")


def reconstruct(signal, mask, graph, config: SolverConfig) -> SolveResult:
    """Observe ``signal`` through the 0/1 array ``mask``, solve, and score the hidden entries.

    ``gr_static`` runs the per-snapshot :func:`solve_gr_static` and the
    temporal objectives the CG :func:`solve_cg`. The solver gets the
    signal itself, checks it with the mask and graph once, and observes
    ``mask * signal``; ``mask`` may be a :class:`~tvgsr.sampling.SamplingMask`.
    The returned :class:`SolveResult` carries ``rmse``, ``mae``, ``mape``,
    ``mape_excluded`` (hidden entries with zero truth, left out of ``mape``)
    and ``evaluated_entries``, all taken on ``mask == 0``; they are 0 when
    nothing is hidden.
    """
    solve = solve_gr_static if config.objective == "gr_static" else solve_cg
    result = solve(signal, mask, graph, config)
    hidden = as_mask_array(mask) == 0
    result.evaluated_entries = int(hidden.sum())
    result.rmse, result.mae, result.mape, result.mape_excluded = 0.0, 0.0, 0.0, 0
    if result.evaluated_entries:
        estimate, truth = result.x_hat[hidden], np.asarray(signal, dtype=float)[hidden]
        result.rmse, result.mae = rmse(estimate, truth), mae(estimate, truth)
        result.mape, result.mape_excluded = mape(estimate, truth), int(np.count_nonzero(truth == 0))
    return result


def _evaluate_cell(plan, dataset, graph, level, repetition):
    seed = mask_seed(plan.base_seed, plan.regime, level, repetition)
    mask = make_regime_mask(plan.regime, *dataset.signal.shape, level, seed).mask
    digest = hashlib.sha256(mask.tobytes()).hexdigest()
    per_method = {}
    for name, config in plan.methods.items():
        try:
            result = reconstruct(dataset.signal, mask, graph, config)
        except NumericError as exc:
            raise NumericError(
                f"method {name!r} at level {level} repetition {repetition}: {exc}"
            ) from exc
        per_method[name] = ResultRow(
            method=name,
            regime=plan.regime,
            level=float(level),
            repetition=repetition,
            rmse=result.rmse,
            mae=result.mae,
            mape=result.mape,
            iterations=result.iterations,
            wall_time_s=result.wall_time,
            mape_excluded=result.mape_excluded,
            termination=result.termination,
        )
    return (level, repetition), digest, per_method


_worker_problem = ()  # (plan, dataset, graph), set once in each worker process


def _init_worker(plan, dataset, graph):
    global _worker_problem
    _worker_problem = (plan, dataset, graph)


def _evaluate_worker_cell(cell):
    return _evaluate_cell(*_worker_problem, *cell)


def run_experiment(plan: ExperimentPlan, dataset: Dataset, graph, jobs=1) -> ExperimentResult:
    """Run the full Monte-Carlo protocol for one plan.

    Every method inside a repetition sees the identical mask. Repetitions
    are independent work units; with ``jobs > 1`` they run in separate
    processes and the merged output is byte-identical to a sequential run.
    Each worker receives the plan, dataset and graph once, when it starts,
    so a task carries only its (level, repetition) cell.
    """
    if dataset.n_nodes != graph.n_nodes:
        raise InputError(f"dataset has {dataset.n_nodes} nodes, graph has {graph.n_nodes}")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    cells = [(level, repetition)
             for level in plan.levels for repetition in range(plan.repetitions)]
    if jobs > 1:
        # the pool may start all its workers at once, so start no more than there are cells
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells)), initializer=_init_worker,
                                 initargs=(plan, dataset, graph)) as pool:
            outcomes = list(pool.map(_evaluate_worker_cell, cells))
    else:
        outcomes = [_evaluate_cell(plan, dataset, graph, *cell) for cell in cells]

    mask_digests = {key: digest for key, digest, _ in outcomes}
    cell_rows = {key: per_method for key, _, per_method in outcomes}
    rows = []
    aggregates = []
    for name in plan.methods:
        for level in plan.levels:
            level_rows = [cell_rows[(level, rep)][name] for rep in range(plan.repetitions)]
            rows.extend(level_rows)
            means = {field: float(np.mean([getattr(r, field) for r in level_rows]))
                     for field in ("rmse", "mae", "mape", "iterations", "wall_time_s")}
            aggregates.append(AggregateRow(method=name, regime=plan.regime, level=float(level),
                                           repetitions=plan.repetitions, **means))
    return ExperimentResult(rows=rows, aggregates=aggregates, mask_digests=mask_digests)


def write_raw_results(path, result: ExperimentResult):
    textio.write_table(path, RAW_HEADER, [astuple(row) for row in result.rows])


def write_aggregate_results(path, result: ExperimentResult):
    textio.write_table(path, AGGREGATE_HEADER, [astuple(row) for row in result.aggregates])


@dataclass(frozen=True)
class TuneResult:
    upsilon: float
    epsilon: float
    score: float


def tune_parameters(dataset: Dataset, graph, config: SolverConfig, density, seed,
                    upsilon_grid=DEFAULT_UPSILON_GRID, epsilon_grid=DEFAULT_EPSILON_GRID,
                    criterion="rmse") -> TuneResult:
    """Grid-search (upsilon, epsilon) on a single held-out repetition.

    The held-out mask is a random-entry mask of ``density`` drawn from
    ``seed``, which should not reuse evaluation seeds. ``criterion`` is
    "rmse" (non-sampled entries) or "iterations", the CG iterations under
    ``config.preconditioner`` (the paper counts those of "none"). For
    non-sobolev objectives the epsilon grid collapses to the config's own
    epsilon; an empty grid that is searched raises ParameterError. Ties keep the first grid point,
    so tuning is deterministic.
    """
    if criterion not in ("rmse", "iterations"):
        raise ParameterError(f"criterion must be 'rmse' or 'iterations', got {criterion!r}")
    epsilon_values = tuple(epsilon_grid) if config.objective == "sobolev" else (config.epsilon,)
    if len(upsilon_grid) == 0 or not epsilon_values:
        raise ParameterError("tuning needs a non-empty upsilon grid and, for sobolev, "
                             "a non-empty epsilon grid")
    mask = random_entry_mask(dataset.n_nodes, dataset.n_snapshots, density, seed).mask
    best = None
    for upsilon in upsilon_grid:
        for epsilon in epsilon_values:
            candidate = replace(config, upsilon=float(upsilon), epsilon=float(epsilon))
            result = reconstruct(dataset.signal, mask, graph, candidate)
            score = result.rmse if criterion == "rmse" else float(result.iterations)
            if best is None or score < best.score:
                best = TuneResult(upsilon=float(upsilon), epsilon=float(candidate.epsilon),
                                  score=float(score))
    return best
