"""Time-varying graph signal reconstruction from partial samples.

The package reconstructs N x M node-by-snapshot signals observed through a
binary sampling mask by minimizing a data-fit term plus a smoothness penalty
on temporal differences, measured either through the plain graph Laplacian
or through a shifted Laplacian power (graph Sobolev norm). It also ships the
conditioning analysis that explains why the shifted penalty speeds up
conjugate-gradient convergence, a synthetic data generator, sampling-regime
utilities, error metrics, a Monte-Carlo benchmark harness, and a CLI.

The package logs to the ``tvgsr`` logger, which has a ``NullHandler`` and so
prints nothing unless the application configures logging.
"""

import logging

from .data import (
    Dataset,
    cumulative_to_daily,
    load_dataset,
    synth_dataset,
    synth_graph,
    synth_signal,
)
from .evaluation import (
    AggregateRow,
    ConvergenceComparison,
    ExperimentPlan,
    ExperimentResult,
    ResultRow,
    TuneResult,
    convergence_comparison,
    mae,
    mape,
    mask_seed,
    rmse,
    run_experiment,
    tune_parameters,
    write_aggregate_results,
    write_raw_results,
)
from .exceptions import (
    InputError,
    NumericError,
    ParameterError,
    ParseError,
    TvgsrError,
)
from .graphs import (
    Graph,
    Spectrum,
    build_knn_graph,
    gft,
    inverse_gft,
    laplacian,
    sobolev_power,
    spectrum,
)
from .sampling import (
    SamplingMask,
    UniquenessCheck,
    apply_mask,
    check_uniqueness,
    forecasting_mask,
    random_entry_mask,
    snapshot_mask,
)
from .solvers import (
    SolveResult,
    SolveStats,
    SolverConfig,
    gradient,
    objective,
    solve_cg,
    solve_gr_static,
    solve_noiseless,
)
from .spectral import (
    EigenvalueBounds,
    OracleSolution,
    SweepPoint,
    WeylReport,
    condition_number,
    condition_sweep,
    dense_oracle_solve,
    eigenvalue_penalization,
    hessian,
    weyl_bounds,
    weyl_sweep,
)
from .temporal import (
    TemporalOperator,
    alpha_smoothness_level,
    difference_operator,
    dirichlet_form,
    laplacian_quadratic,
    local_variation,
    s2_time_varying,
    sobolev_norm,
    sobolev_smoothness,
    temporal_difference,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AggregateRow",
    "ConvergenceComparison",
    "Dataset",
    "EigenvalueBounds",
    "ExperimentPlan",
    "ExperimentResult",
    "Graph",
    "InputError",
    "NumericError",
    "OracleSolution",
    "ParameterError",
    "ParseError",
    "ResultRow",
    "SamplingMask",
    "SolveResult",
    "SolveStats",
    "SolverConfig",
    "Spectrum",
    "SweepPoint",
    "TemporalOperator",
    "TuneResult",
    "TvgsrError",
    "UniquenessCheck",
    "WeylReport",
    "alpha_smoothness_level",
    "apply_mask",
    "build_knn_graph",
    "check_uniqueness",
    "condition_number",
    "condition_sweep",
    "convergence_comparison",
    "cumulative_to_daily",
    "dense_oracle_solve",
    "difference_operator",
    "dirichlet_form",
    "eigenvalue_penalization",
    "forecasting_mask",
    "gft",
    "gradient",
    "hessian",
    "inverse_gft",
    "laplacian",
    "laplacian_quadratic",
    "load_dataset",
    "local_variation",
    "mae",
    "mape",
    "mask_seed",
    "objective",
    "random_entry_mask",
    "rmse",
    "run_experiment",
    "s2_time_varying",
    "snapshot_mask",
    "sobolev_norm",
    "sobolev_power",
    "sobolev_smoothness",
    "solve_cg",
    "solve_gr_static",
    "solve_noiseless",
    "spectrum",
    "synth_dataset",
    "synth_graph",
    "synth_signal",
    "temporal_difference",
    "tune_parameters",
    "weyl_bounds",
    "weyl_sweep",
    "write_aggregate_results",
    "write_raw_results",
]
