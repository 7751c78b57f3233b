"""Time-varying signals, temporal difference operators, and smoothness functionals.

A time-varying graph signal is an N x M float matrix whose columns are
snapshots. Temporal structure enters through a difference operator D with
one column per pair of snapshots s steps apart: column j has -1 at row j and
+1 at row j+s, so X @ D stacks the columns x_{j+s} - x_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, ParameterError
from .graphs import sobolev_power

TEMPORAL_STEPS = (1, 2, 3)


def as_signal(x, min_snapshots=1) -> np.ndarray:
    """Validate a time-varying signal: 2-D, finite, at least min_snapshots columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"signal must be 2-D (nodes x snapshots), got shape {x.shape}")
    if x.shape[1] < min_snapshots:
        raise ParameterError(
            f"signal needs at least {min_snapshots} snapshots, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("signal contains non-finite entries")
    return x


@dataclass(frozen=True)
class TemporalOperator:
    """The s-step difference operator D on M snapshots, applied as a column stencil.

    Nothing stores D: :attr:`matrix` builds the dense M x (M-s) form on each
    access, for the Kronecker products of the dense analysis.
    """

    n_snapshots: int
    step: int

    @property
    def n_differences(self) -> int:
        return self.n_snapshots - self.step

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only M x (M-s) D, built on each access."""
        matrix = np.zeros((self.n_snapshots, self.n_differences))
        columns = np.arange(self.n_differences)
        matrix[columns, columns] = -1.0
        matrix[columns + self.step, columns] = 1.0
        matrix.setflags(write=False)
        return matrix

    def apply(self, x) -> np.ndarray:
        """X D: column j is x_{j+s} - x_j."""
        return x[:, self.step:] - x[:, :-self.step]

    def scatter(self, x, diff_buffer, out) -> np.ndarray:
        """X D D^T into ``out``: Z = X D, then column j gets z_{j-s} - z_j.

        Both passes run over the raveled rows of C-ordered N x M arrays. The
        difference buffer is N x M with its last s columns zero, so the
        entries that would straddle two rows read as z = 0, as at the ends
        of each chain.
        """
        s = self.step
        flat, diff, scattered = x.ravel(), diff_buffer.ravel(), out.ravel()
        np.subtract(flat[s:], flat[:-s], out=diff[:-s])
        diff_buffer[:, -s:] = 0.0
        np.subtract(diff[:-s], diff[s:], out=scattered[s:])
        np.subtract(0.0, diff[:s], out=scattered[:s])
        return out


def difference_operator(n_snapshots, step=1) -> TemporalOperator:
    """Build the s-step temporal difference operator for M snapshots.

    Column j holds -1 at row j and +1 at row j+s; every column sums to zero.
    Step 1 is the consecutive-difference operator; steps 2 and 3 compare
    snapshots two and three apart.
    """
    if step not in TEMPORAL_STEPS:
        raise ParameterError(f"step must be one of {TEMPORAL_STEPS}, got {step}")
    if n_snapshots <= step:
        raise ParameterError(
            f"need more snapshots than the step ({n_snapshots} <= {step})"
        )
    return TemporalOperator(n_snapshots=n_snapshots, step=step)


def temporal_difference(x, op: TemporalOperator) -> np.ndarray:
    """Column differences X @ D: column j equals x_{j+s} - x_j."""
    x = as_signal(x, min_snapshots=2)
    if x.shape[1] != op.n_snapshots:
        raise InputError(
            f"signal has {x.shape[1]} snapshots but operator expects {op.n_snapshots}"
        )
    return op.apply(x)


def sobolev_smoothness(x, op: TemporalOperator, laplacian_matrix, epsilon, beta) -> float:
    """Temporal-difference smoothness tr((XD)^T (L + epsilon*I)^beta (XD)).

    Equals the sum of squared Sobolev norms of the difference columns; with
    epsilon = 0 and beta = 1 this is the plain Laplacian temporal smoothness.
    """
    diff = temporal_difference(x, op)
    power = sobolev_power(laplacian_matrix, epsilon, beta)
    if diff.shape[0] != power.shape[0]:
        raise InputError(f"signal has {diff.shape[0]} rows, Laplacian is {power.shape[0]} x "
                         f"{power.shape[0]}")
    return float(np.sum(diff * (power @ diff)))


def alpha_smoothness_level(x, op: TemporalOperator, laplacian_matrix) -> float:
    """Per-difference Laplacian smoothness tr((XD)^T L (XD)) / n_differences.

    A signal belongs to the alpha-structured set of smoothly evolving
    signals exactly when this level is <= alpha.
    """
    return sobolev_smoothness(x, op, laplacian_matrix, 0.0, 1.0) / op.n_differences
