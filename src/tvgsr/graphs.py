"""Geographic k-NN graphs, Laplacian operators, spectra, and shifted Laplacian powers.

Graphs are built from node coordinates (latitude, longitude treated as planar
Euclidean): each node selects its k nearest neighbors, the edge set is the
symmetrized union of those selections, and edge weights follow a Gaussian
kernel exp(-d^2 / sigma^2) whose bandwidth sigma is the mean length of the
(deduplicated) edge set. Neighbor candidates come from a k-d tree, so the
build forms no N x N distance matrix; the selection itself uses exact
Euclidean distances with ties going to the lower node index.

A :class:`Graph` stores one validated CSR adjacency and, built with it, its
degrees and CSR Laplacian; the dense N x N adjacency and Laplacian are
read-only arrays built on each access, for the dense analysis and oracle
paths, and a pickled graph carries no N x N array.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import connected_components
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


def _as_adjacency(adjacency) -> csr_matrix:
    """Validate a dense or sparse adjacency and return a canonical CSR copy without zeros.

    The checks and messages are :func:`_check_symmetric`'s, then nonnegative
    weights and a zero diagonal, all run on the sparse form.
    """
    if issparse(adjacency):
        matrix = csr_matrix(adjacency, dtype=float, copy=True)
        matrix.sum_duplicates()
    else:
        matrix = np.asarray(adjacency, dtype=float)
        matrix = csr_matrix(matrix) if matrix.ndim == 2 else matrix
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"adjacency must be square, got shape {matrix.shape}")
    matrix.eliminate_zeros()
    data = matrix.data
    if not np.all(np.isfinite(data)):
        raise InputError("adjacency contains non-finite entries")
    scale = max(1.0, float(np.abs(data).max(initial=0.0)))
    if float(np.abs((matrix - matrix.T).data).max(initial=0.0)) > _SYMMETRY_RTOL * scale:
        raise InputError("adjacency is not symmetric")
    if np.any(data < 0):
        raise InputError("adjacency weights must be nonnegative")
    if np.any(matrix.diagonal()):
        raise InputError("adjacency diagonal must be zero (no self loops)")
    return matrix


def _frozen(array):
    """Write-protect an array, or the three arrays of a CSR matrix."""
    for part in (array.data, array.indices, array.indptr) if issparse(array) else (array,):
        part.setflags(write=False)
    return array


class Graph:
    """Undirected weighted graph on a CSR adjacency, with its CSR Laplacian and cached spectrum.

    Instances are immutable after construction (arrays are write-protected)
    and safe to share across concurrent workers. The dense ``adjacency`` and
    ``laplacian`` are built on each access; a pickled graph carries the CSR
    Laplacian but neither dense array, nor the cached spectrum.

    Parameters
    ----------
    adjacency : (N, N) array or scipy sparse matrix
        Symmetric nonnegative weights with a zero diagonal.
    laplacian_kind : str
        "combinatorial" for L = D - W, "normalized" for D^{-1/2} L D^{-1/2}.
    """

    def __init__(self, adjacency, laplacian_kind="combinatorial"):
        adjacency = _as_adjacency(adjacency)
        if laplacian_kind not in LAPLACIAN_KINDS:
            raise ParameterError(f"laplacian_kind must be one of {LAPLACIAN_KINDS}")
        self.adjacency_csr = _frozen(adjacency)
        self.n_nodes = adjacency.shape[0]
        self.degrees = _frozen(np.asarray(adjacency.sum(axis=1)).ravel())
        self.laplacian_kind = laplacian_kind
        n_components, _ = connected_components(adjacency, directed=False)
        self.n_components = int(n_components)
        self.is_connected = self.n_components == 1
        self.sigma = None  # kernel bandwidth, set by build_knn_graph
        self.laplacian_csr = _frozen(laplacian(self))
        self._spectrum = None

    def __getstate__(self):
        return dict(self.__dict__, _spectrum=None)

    def __setstate__(self, state):
        """Restore a pickled graph; unpickled arrays come back writable, so protect them again."""
        self.__dict__.update(state)
        for array in (self.adjacency_csr, self.degrees, self.laplacian_csr):
            _frozen(array)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense read-only N x N adjacency, built on each access."""
        return _frozen(self.adjacency_csr.toarray())

    @property
    def laplacian(self) -> np.ndarray:
        """Dense read-only N x N form of :attr:`laplacian_csr`, built on each access."""
        return _frozen(self.laplacian_csr.toarray())

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = spectrum(self.laplacian)
        return self._spectrum

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
    N x N distance matrix is formed, and the edges go straight into a CSR
    adjacency. The kernel bandwidth sigma is the mean Euclidean length over
    the deduplicated edge set; when every edge has zero length all weights
    are 1.

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

    if sigma == 0.0:
        w = np.ones(lo.size)  # all selected edges have zero length
    else:
        w = np.exp(-(lengths**2) / sigma**2)
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(rows * n + cols)  # CSR order of both triangles; the keys are unique
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    weights = csr_matrix((np.concatenate([w, w])[order], cols[order], indptr), shape=(n, n))

    graph = Graph(weights, laplacian_kind=laplacian_kind)
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


def laplacian(graph: Graph) -> csr_matrix:
    """Build the CSR Laplacian selected by ``graph.laplacian_kind`` from the CSR adjacency.

    Combinatorial: L = D - W. Normalized: the symmetric part of
    D^{-1/2} (D - W) D^{-1/2}, where isolated nodes (zero degree) contribute
    zero rows and columns. The degrees are scipy's CSR row sums; on those
    degrees every entry is that of the dense formula, bit for bit, and zeros
    are not stored.
    """
    degrees, n = graph.degrees, graph.n_nodes
    lap = csr_matrix((degrees, np.arange(n), np.arange(n + 1)), shape=(n, n)) - graph.adjacency_csr
    if graph.laplacian_kind == "combinatorial":
        return lap
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    rows = np.repeat(np.arange(n), np.diff(lap.indptr))
    lap.data = inv_sqrt[rows] * lap.data * inv_sqrt[lap.indices]
    lap = 0.5 * (lap + lap.T)
    lap.eliminate_zeros()  # halving can underflow to zero
    return lap


def spectrum(laplacian_matrix):
    """numpy's ``eigh`` result for a symmetric matrix: ascending eigenvalues, orthonormal U."""
    return np.linalg.eigh(_check_symmetric(laplacian_matrix, "Laplacian"))


def sobolev_power(laplacian_matrix, epsilon, beta) -> np.ndarray:
    """Compute (L + epsilon*I)^beta for a symmetric PSD matrix L.

    Integer beta <= 4 uses direct matrix products, which avoids a full
    eigendecomposition on large graphs; any other beta is evaluated
    spectrally as U diag((lambda + epsilon)^beta) U^T, with eigenvalues
    clipped at zero; shifted ones at or below N * eps_machine times the
    largest are null up to rounding and set to zero, which the power would
    otherwise lift (1e-16 becomes 1e-8 at beta = 0.5).
    """
    matrix = _check_symmetric(laplacian_matrix, "Laplacian")
    if not (math.isfinite(epsilon) and math.isfinite(beta)):
        raise ParameterError(f"epsilon and beta must be finite, got {epsilon} and {beta}")
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
        shifted[shifted <= n * np.finfo(float).eps * shifted[-1]] = 0.0
        power = (spec.eigenvectors * shifted**beta) @ spec.eigenvectors.T
    return 0.5 * (power + power.T)
