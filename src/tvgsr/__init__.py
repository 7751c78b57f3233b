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
import types

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
    ExperimentPlan,
    ExperimentResult,
    ResultRow,
    TuneResult,
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
    build_knn_graph,
    laplacian,
    sobolev_power,
    spectrum,
)
from .sampling import (
    SamplingMask,
    UniquenessCheck,
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
    WeylReport,
    condition_number,
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
    sobolev_smoothness,
    temporal_difference,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

# Every public name the imports above bind; the submodules themselves are not exports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
