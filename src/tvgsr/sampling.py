"""Sampling masks for the three experimental regimes and uniqueness checks.

Masks are binary N x M matrices; an entry of 1 marks an observed value.
Random masks use numpy's seeded PCG64 generator (``default_rng``) with a
Fisher-Yates permutation per column/row choice, so identical parameters and
seed reproduce the same mask on every platform. Per-column sample counts are
exact: round(density * N) with ties rounded half up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InputError, ParameterError

REGIMES = ("random_entry", "snapshot", "forecasting")


@dataclass(frozen=True)
class SamplingMask:
    """Binary sampling matrix, write-protected."""

    mask: np.ndarray

    @property
    def shape(self):
        return self.mask.shape


def as_mask_array(mask) -> np.ndarray:
    """Unwrap a SamplingMask or validate a raw array as a binary mask."""
    if isinstance(mask, SamplingMask):
        return mask.mask
    mask = np.asarray(mask, dtype=float)
    if mask.ndim != 2:
        raise InputError(f"mask must be 2-D, got shape {mask.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InputError("mask entries must be 0 or 1")
    return mask


def unsampled_nodes(mask) -> np.ndarray:
    """Indices of the rows of a checked 0/1 mask array that no snapshot samples."""
    return np.flatnonzero(~mask.any(axis=1))


def _count(density, total) -> int:
    if not 0.0 <= density <= 1.0:
        raise ParameterError(f"density must lie in [0, 1], got {density}")
    return int(math.floor(density * total + 0.5))


def _check_size(n_nodes, n_snapshots):
    if n_nodes < 1 or n_snapshots < 1:
        raise ParameterError(f"a mask needs at least one node and one snapshot, "
                             f"got {n_nodes} x {n_snapshots}")


def check_seed(seed):
    """Reject a negative integer seed, which numpy's seeding refuses with a bare ValueError."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return seed


def random_entry_mask(n_nodes, n_snapshots, density, seed) -> SamplingMask:
    """Sample exactly round(density * N) nodes uniformly in every snapshot."""
    _check_size(n_nodes, n_snapshots)
    per_column = _count(density, n_nodes)
    rng = np.random.default_rng(check_seed(seed))
    mask = np.zeros((n_nodes, n_snapshots))
    for j in range(n_snapshots):
        rows = rng.permutation(n_nodes)[:per_column]
        mask[rows, j] = 1.0
    mask.setflags(write=False)
    return SamplingMask(mask=mask)


def snapshot_mask(n_nodes, n_snapshots, density, seed) -> SamplingMask:
    """Observe round(density * M) whole snapshots chosen uniformly."""
    _check_size(n_nodes, n_snapshots)
    n_columns = _count(density, n_snapshots)
    rng = np.random.default_rng(check_seed(seed))
    columns = rng.permutation(n_snapshots)[:n_columns]
    mask = np.zeros((n_nodes, n_snapshots))
    mask[:, columns] = 1.0
    mask.setflags(write=False)
    return SamplingMask(mask=mask)


def forecasting_mask(n_nodes, n_snapshots, horizon) -> SamplingMask:
    """Observe the first M - horizon snapshots fully; hide the trailing ones."""
    _check_size(n_nodes, n_snapshots)
    if not 1 <= horizon < n_snapshots:
        raise ParameterError(
            f"horizon must satisfy 1 <= t < M, got t={horizon} with M={n_snapshots}"
        )
    mask = np.zeros((n_nodes, n_snapshots))
    mask[:, : n_snapshots - horizon] = 1.0
    mask.setflags(write=False)
    return SamplingMask(mask=mask)


class UniquenessCheck(NamedTuple):
    """Result of the two uniqueness conditions on a sampling matrix."""

    condition1: bool
    condition2: bool
    fiducial_column: int | None


def check_uniqueness(mask) -> UniquenessCheck:
    """Check the two sampling conditions under which reconstruction is unique.

    Condition 1: every node is observed in at least one snapshot (no all-zero
    row). Condition 2: some fiducial snapshot m0 shares an observed node with
    every other snapshot. The first fiducial column found is reported.
    """
    mask = as_mask_array(mask)
    condition1 = unsampled_nodes(mask).size == 0
    links = (mask.T @ mask) > 0
    np.fill_diagonal(links, True)
    fiducial = None
    for m0 in range(mask.shape[1]):
        if links[m0].all():
            fiducial = m0
            break
    return UniquenessCheck(condition1=condition1, condition2=fiducial is not None,
                           fiducial_column=fiducial)
