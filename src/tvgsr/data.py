"""Synthetic dataset generation and ingestion of coordinate/signal files.

The synthetic generator draws node positions uniformly in a square, builds a
k-NN Gaussian-kernel graph, and produces a smoothly evolving signal by the
recursion x_t = x_{t-1} + L^{-1/2} f_t, where L^{-1/2} zeroes the constant
mode and each innovation f_t is white Gaussian rescaled to norm alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .exceptions import InputError, ParameterError
from .graphs import Graph, as_coordinates, build_knn_graph
from .sampling import check_seed
from .temporal import as_signal, difference_operator, temporal_difference

SYNTH_DEFAULT_NODES = 100
SYNTH_DEFAULT_SIDE = 100.0
SYNTH_DEFAULT_KNN = 5
SYNTH_FIRST_SNAPSHOT_ENERGY = 1e4
_LOW_FREQUENCIES = 10


@dataclass
class Dataset:
    """Coordinates plus a time-varying signal with matching node order."""

    coords: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        self.coords = as_coordinates(self.coords)
        self.signal = as_signal(self.signal)
        if self.coords.shape[0] != self.signal.shape[0]:
            raise InputError(
                f"coordinate rows ({self.coords.shape[0]}) do not match "
                f"signal rows ({self.signal.shape[0]})"
            )

    @property
    def n_nodes(self) -> int:
        return self.signal.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.signal.shape[1]


def synth_graph(n_nodes=SYNTH_DEFAULT_NODES, side=SYNTH_DEFAULT_SIDE,
                k=SYNTH_DEFAULT_KNN, seed=0, laplacian_kind="combinatorial"):
    """Random geometric graph: uniform coordinates in [0, side]^2, k-NN edges."""
    if n_nodes < 2:
        raise ParameterError(f"need at least 2 nodes, got {n_nodes}")
    if not (math.isfinite(side) and side > 0):
        raise ParameterError(f"side must be finite and > 0, got {side}")
    rng = np.random.default_rng(check_seed(seed))
    coords = rng.uniform(0.0, side, size=(n_nodes, 2))
    graph = build_knn_graph(coords, k, laplacian_kind=laplacian_kind)
    return coords, graph


def synth_signal(graph: Graph, n_snapshots, alpha, seed=0, return_innovations=False):
    """Generate a smoothly evolving time-varying signal on a connected graph.

    The first snapshot lives in the span of the 10 lowest nonzero-frequency
    eigenvectors (standard Gaussian coefficients rescaled so the squared
    norm equals ``SYNTH_FIRST_SNAPSHOT_ENERGY``). Subsequent snapshots follow
    x_t = x_{t-1} + L^{-1/2} f_t with L^{-1/2} = U diag(0, lambda_2^{-1/2},
    ...) U^T and every innovation f_t rescaled to have norm exactly alpha,
    so the per-difference Laplacian smoothness level never exceeds alpha^2.

    With ``return_innovations`` the (N, M-1) innovation matrix is returned
    alongside the signal, which lets tests verify the norm contract.
    """
    if n_snapshots < 2:
        raise ParameterError(f"need at least 2 snapshots, got {n_snapshots}")
    if alpha < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    spec = graph.spectrum()
    eigenvalues = spec.eigenvalues
    n = graph.n_nodes
    if not graph.is_connected or (n > 1 and eigenvalues[1] <= 1e-12 * max(eigenvalues[-1], 1.0)):
        raise InputError("synthetic generator requires a connected graph (lambda_2 > 0)")

    rng = np.random.default_rng(check_seed(seed))
    n_low = min(_LOW_FREQUENCIES, n - 1)
    coefficients = rng.standard_normal(n_low)
    first = spec.eigenvectors[:, 1:1 + n_low] @ coefficients
    first_norm = float(np.linalg.norm(first))
    if first_norm == 0.0:
        raise ParameterError("degenerate draw for the first snapshot; use another seed")
    first = first * (np.sqrt(SYNTH_FIRST_SNAPSHOT_ENERGY) / first_norm)

    inv_sqrt = np.zeros(n)
    inv_sqrt[1:] = np.clip(eigenvalues[1:], 1e-300, None) ** -0.5
    lap_inv_sqrt = (spec.eigenvectors * inv_sqrt) @ spec.eigenvectors.T

    signal = np.empty((n, n_snapshots))
    signal[:, 0] = first
    innovations = np.empty((n, n_snapshots - 1))
    for t in range(1, n_snapshots):
        f = rng.standard_normal(n)
        if alpha == 0.0:
            f = np.zeros(n)
        else:
            f = f * (alpha / float(np.linalg.norm(f)))
        innovations[:, t - 1] = f
        signal[:, t] = signal[:, t - 1] + lap_inv_sqrt @ f
    if return_innovations:
        return signal, innovations
    return signal


def synth_dataset(n_nodes=SYNTH_DEFAULT_NODES, side=SYNTH_DEFAULT_SIDE, k=SYNTH_DEFAULT_KNN,
                  n_snapshots=30, alpha=1.0, seed=0, laplacian_kind="combinatorial"):
    """Convenience wrapper: build the synthetic graph and signal together.

    The seed is split into independent child streams for the coordinates and
    the signal, so the pair is reproducible as a unit.
    """
    coords_seed, signal_seed = np.random.SeedSequence(check_seed(seed)).spawn(2)
    coords, graph = synth_graph(n_nodes=n_nodes, side=side, k=k, seed=coords_seed,
                                laplacian_kind=laplacian_kind)
    signal = synth_signal(graph, n_snapshots, alpha, seed=signal_seed)
    dataset = Dataset(coords=coords, signal=signal)
    return dataset, graph


def load_dataset(coords_path, signal_path) -> Dataset:
    """Load a dataset from a coordinate file and a signal matrix file.

    Node order is fixed by the coordinate file; the signal file must have one
    row per node. Non-finite signal entries are rejected with their indices.
    """
    _, coords = textio.read_coordinates(coords_path)
    signal = textio.read_matrix(signal_path)
    if coords.shape[0] != signal.shape[0]:
        raise InputError(
            f"row-count mismatch: {coords_path} has {coords.shape[0]} nodes, "
            f"{signal_path} has {signal.shape[0]} rows"
        )
    bad = np.argwhere(~np.isfinite(signal))
    if bad.size:
        shown = [tuple(int(v) for v in idx) for idx in bad[:5]]
        raise InputError(f"{signal_path}: {len(bad)} non-finite entries at (row, column) {shown}")
    return Dataset(coords=coords, signal=signal)


def cumulative_to_daily(x) -> np.ndarray:
    """Differences of consecutive snapshots: cumulative counts become new cases."""
    x = as_signal(x, min_snapshots=2)
    return temporal_difference(x, difference_operator(x.shape[1], 1))
