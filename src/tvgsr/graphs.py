"""Geographic k-NN graphs, Laplacian operators, spectra, and shifted Laplacian powers.

Graphs are built from node coordinates (latitude, longitude treated as planar
Euclidean): each node selects its k nearest neighbors, the edge set is the
symmetrized union of those selections, and edge weights follow a Gaussian
kernel exp(-d^2 / sigma^2) whose bandwidth sigma is the mean length of the
(deduplicated) edge set. Neighbor candidates come from a k-d tree, so the
build forms no N x N distance matrix; the selection itself uses exact
Euclidean distances with ties going to the lower node index.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

from .exceptions import InputError, ParameterError

LAPLACIAN_KINDS = ("combinatorial", "normalized")

_SYMMETRY_RTOL = 1e-10
_RADIUS_SLACK = 1e-9  # relative widening of the k-d tree radius against rounding


def as_coordinates(coords) -> np.ndarray:
    """Validate and return an N x 2 float coordinate array (N >= 2, finite)."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InputError(f"coordinates must be an N x 2 array, got shape {coords.shape}")
    if coords.shape[0] < 2:
        raise InputError("at least two nodes are required")
    if not np.all(np.isfinite(coords)):
        bad_rows = np.unique(np.argwhere(~np.isfinite(coords))[:, 0])
        raise InputError(f"non-finite coordinates at rows {bad_rows[:5].tolist()}")
    return coords


def _check_symmetric(matrix, what="matrix") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"{what} must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InputError(f"{what} contains non-finite entries")
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > _SYMMETRY_RTOL * scale:
        raise InputError(f"{what} is not symmetric")
    return matrix


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix: eigenvalues ascending, U orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.shape[0]


class Graph:
    """Undirected weighted graph with cached Laplacian (dense and CSR) and spectrum.

    Instances are immutable after construction (arrays are write-protected)
    and safe to share across concurrent workers.

    Parameters
    ----------
    adjacency : (N, N) array
        Symmetric nonnegative weights with a zero diagonal.
    laplacian_kind : str
        "combinatorial" for L = D - W, "normalized" for D^{-1/2} L D^{-1/2}.
    coords : (N, 2) array, optional
        Node coordinates, kept for provenance.
    """

    def __init__(self, adjacency, laplacian_kind="combinatorial", coords=None):
        adjacency = _check_symmetric(adjacency, "adjacency")
        if np.any(adjacency < 0):
            raise InputError("adjacency weights must be nonnegative")
        if float(np.abs(np.diag(adjacency)).max(initial=0.0)) > 0:
            raise InputError("adjacency diagonal must be zero (no self loops)")
        if laplacian_kind not in LAPLACIAN_KINDS:
            raise ParameterError(f"laplacian_kind must be one of {LAPLACIAN_KINDS}")
        adjacency = adjacency.copy()
        adjacency.setflags(write=False)
        self.adjacency = adjacency
        self.n_nodes = adjacency.shape[0]
        self.degrees = adjacency.sum(axis=1)
        self.degrees.setflags(write=False)
        self.laplacian_kind = laplacian_kind
        self.coords = None if coords is None else as_coordinates(coords)
        n_components, _ = connected_components(csr_matrix(adjacency > 0), directed=False)
        self.n_components = int(n_components)
        self.is_connected = self.n_components == 1
        self.sigma = None  # kernel bandwidth, set by build_knn_graph
        self._laplacian = None
        self._laplacian_csr = None
        self._spectrum = None

    @property
    def laplacian(self) -> np.ndarray:
        if self._laplacian is None:
            lap = laplacian(self)
            lap.setflags(write=False)
            self._laplacian = lap
        return self._laplacian

    @property
    def laplacian_csr(self) -> csr_matrix:
        """CSR form of :attr:`laplacian`, built on first use."""
        if self._laplacian_csr is None:
            lap = csr_matrix(self.laplacian)
            for array in (lap.data, lap.indices, lap.indptr):
                array.setflags(write=False)
            self._laplacian_csr = lap
        return self._laplacian_csr

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = spectrum(self.laplacian)
        return self._spectrum

    def max_eigenvalue(self) -> float:
        """Largest Laplacian eigenvalue, from a sparse Lanczos solve on the CSR form.

        The start vector is fixed and not constant (the constant vector spans
        the null space of the combinatorial Laplacian), so repeated calls
        return the same value.
        """
        if self.n_nodes == 1:
            return 0.0  # a single node has no edges, so L = [0]
        start = np.random.default_rng(0).standard_normal(self.n_nodes)
        return float(eigsh(self.laplacian_csr, k=1, which="LA", tol=0, v0=start,
                           return_eigenvectors=False)[0])

    def __repr__(self):
        return (
            f"Graph(n_nodes={self.n_nodes}, kind={self.laplacian_kind!r}, "
            f"connected={self.is_connected})"
        )


def build_knn_graph(coords, k, laplacian_kind="combinatorial") -> Graph:
    """Build a k-nearest-neighbor graph with Gaussian-kernel weights.

    Each node selects its k nearest Euclidean neighbors; an edge is kept if
    either endpoint selects the other (union symmetrization). Distance ties
    are broken by lower node index so builds are reproducible. Candidates
    come from a k-d tree and are ranked by exact Euclidean distance, so no
    N x N distance matrix is formed. The kernel bandwidth sigma is the mean
    Euclidean length over the deduplicated edge set; when every edge has
    zero length all weights are 1.

    A disconnected result is allowed but reported with a warning and exposed
    via ``Graph.is_connected``.
    """
    coords = as_coordinates(coords)
    n = coords.shape[0]
    if not isinstance(k, (int, np.integer)) or k <= 0 or k >= n:
        raise ParameterError(f"k must satisfy 0 < k < N, got k={k} with N={n}")

    # Every node within the (k+1)-th tree distance (self included) is a
    # candidate; the slack keeps tree rounding from dropping a tied neighbor.
    tree = cKDTree(coords)
    radii = tree.query(coords, k=k + 1)[0][:, -1] * (1.0 + _RADIUS_SLACK)
    candidates = tree.query_ball_point(coords, radii)
    counts = np.fromiter(map(len, candidates), dtype=np.intp, count=n)
    rows = np.repeat(np.arange(n), counts)
    cols = np.fromiter(itertools.chain.from_iterable(candidates), dtype=np.intp,
                       count=rows.size)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    dist = _distances(coords, rows, cols)

    # Per row, order by (distance, index) and keep the first k.
    order = np.lexsort((cols, dist, rows))
    rows, cols = rows[order], cols[order]
    row_start = np.searchsorted(rows, np.arange(n))
    chosen = np.arange(rows.size) - row_start[rows] < k
    rows, cols = rows[chosen], cols[chosen]

    # Deduplicate (min, max) pairs through the key min*N + max, which sorts
    # the edges lexicographically.
    edge_key = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    lo, hi = np.divmod(edge_key, n)
    lengths = _distances(coords, lo, hi)
    sigma = float(lengths.mean())

    weights = np.zeros((n, n))
    if sigma == 0.0:
        w = np.ones(lo.size)  # all selected edges have zero length
    else:
        w = np.exp(-(lengths**2) / sigma**2)
    weights[lo, hi] = w
    weights[hi, lo] = w

    graph = Graph(weights, laplacian_kind=laplacian_kind, coords=coords)
    graph.sigma = sigma
    if not graph.is_connected:
        warnings.warn(
            f"k-NN graph is disconnected ({graph.n_components} components)",
            RuntimeWarning,
            stacklevel=2,
        )
    return graph


def _distances(coords, rows, cols) -> np.ndarray:
    """Euclidean distances between coords[rows] and coords[cols]."""
    diff = coords[rows] - coords[cols]
    return np.sqrt(np.sum(diff * diff, axis=1))


def laplacian(graph: Graph) -> np.ndarray:
    """Return the graph Laplacian selected by ``graph.laplacian_kind``.

    Combinatorial: L = D - W. Normalized: D^{-1/2} (D - W) D^{-1/2}, where
    isolated nodes (zero degree) contribute zero rows and columns.
    """
    lap = np.diag(graph.degrees) - graph.adjacency
    if graph.laplacian_kind == "combinatorial":
        return lap
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(graph.degrees > 0, 1.0 / np.sqrt(graph.degrees), 0.0)
    scaled = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
    return 0.5 * (scaled + scaled.T)


def spectrum(laplacian_matrix) -> Spectrum:
    """Eigendecomposition of a symmetric matrix with ascending eigenvalues."""
    matrix = _check_symmetric(laplacian_matrix, "Laplacian")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def gft(x, spec: Spectrum) -> np.ndarray:
    """Graph Fourier transform: project onto the Laplacian eigenbasis (U^T x)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spec.n_nodes:
        raise InputError(f"signal has {x.shape[0]} rows, spectrum has {spec.n_nodes} nodes")
    return spec.eigenvectors.T @ x


def inverse_gft(x_hat, spec: Spectrum) -> np.ndarray:
    """Inverse graph Fourier transform (U x_hat)."""
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape[0] != spec.n_nodes:
        raise InputError(f"coefficients have {x_hat.shape[0]} rows, spectrum has {spec.n_nodes} nodes")
    return spec.eigenvectors @ x_hat


def sobolev_power(laplacian_matrix, epsilon, beta) -> np.ndarray:
    """Compute (L + epsilon*I)^beta for a symmetric PSD matrix L.

    Integer beta <= 4 uses direct matrix products, which avoids a full
    eigendecomposition on large graphs; any other beta is evaluated
    spectrally as U diag((lambda + epsilon)^beta) U^T with eigenvalues
    clipped at zero to absorb PSD round-off.
    """
    matrix = _check_symmetric(laplacian_matrix, "Laplacian")
    if epsilon < 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    if beta <= 0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    n = matrix.shape[0]
    if float(beta).is_integer() and beta <= 4:
        power = np.linalg.matrix_power(matrix + epsilon * np.eye(n), int(beta))
    else:
        spec = spectrum(matrix)
        shifted = np.clip(spec.eigenvalues, 0.0, None) + epsilon
        power = (spec.eigenvectors * shifted**beta) @ spec.eigenvectors.T
    return 0.5 * (power + power.T)
