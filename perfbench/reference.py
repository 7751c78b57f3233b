"""Reference computations made apart from tvgsr, used to check its outputs.

Nothing here imports tvgsr. The graph is rebuilt with a k-d tree, the
reconstruction is solved matrix-free with scipy's conjugate gradient on a
sparse Laplacian and a three-point temporal stencil, and the analysis
Hessian is assembled from a closed-form D D^T. The sampling masks and the
Monte-Carlo mask seeds are regenerated from their documented definitions
(seeded PCG64 permutations per column; blake2b of the cell description).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import LinearOperator, cg, matrix_power, spsolve
from scipy.spatial import cKDTree


def knn_laplacian(coords, k):
    """Combinatorial Laplacian (CSR) of the union-symmetrised k-NN Gaussian graph.

    Edge weights are exp(-d^2 / sigma^2) with sigma the mean length of the
    deduplicated edges. Returns (laplacian, adjacency).
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    dist, idx = cKDTree(coords).query(coords, k=k + 1)
    edges = {}
    for i in range(n):
        picked = [(int(j), float(d)) for d, j in zip(dist[i], idx[i]) if j != i][:k]
        for j, d in picked:
            edges[(min(i, j), max(i, j))] = d
    keys = sorted(edges)
    a = np.array([p[0] for p in keys])
    b = np.array([p[1] for p in keys])
    d = np.array([edges[p] for p in keys])
    sigma = float(d.mean())
    w = np.exp(-(d**2) / sigma**2) if sigma > 0 else np.ones_like(d)
    adjacency = csr_matrix((np.concatenate([w, w]), (np.concatenate([a, b]),
                                                     np.concatenate([b, a]))), shape=(n, n))
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (diags(degrees) - adjacency).tocsr(), adjacency


def random_entry_mask(n_nodes, n_snapshots, density, seed):
    """round(density * N) observed nodes per column, from one PCG64 stream."""
    per_column = int(math.floor(density * n_nodes + 0.5))
    rng = np.random.default_rng(seed)
    mask = np.zeros((n_nodes, n_snapshots))
    for j in range(n_snapshots):
        mask[rng.permutation(n_nodes)[:per_column], j] = 1.0
    return mask


def cell_seed(base_seed, regime, level, repetition):
    """Mask seed of one Monte-Carlo cell: blake2b-64 of the cell description."""
    payload = f"{int(base_seed)}|{regime}|{float(level).hex()}|{int(repetition)}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def sha256(mask):
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=float).tobytes()).hexdigest()


def _stencil(v):
    """V D D^T for the one-step difference operator, without forming D."""
    diff = v[:, 1:] - v[:, :-1]
    out = np.zeros_like(v)
    out[:, :-1] -= diff
    out[:, 1:] += diff
    return out


def solve_sobolev(signal, mask, lap, upsilon, epsilon, beta=1, rtol=1e-13):
    """Minimiser of 1/2||J o X - Y||^2 + upsilon/2 tr((XD)^T (L + eps I)^beta XD).

    Solves the stationarity system J o X + upsilon (L + eps I)^beta X D D^T = J o Y
    with scipy's CG, matrix-free, preconditioned by the inverse diagonal of
    that system. beta must be a positive integer.
    """
    if int(beta) != beta or beta < 1:
        raise ValueError(f"reference solve needs a positive integer beta, got {beta}")
    n, m = signal.shape
    penalty = matrix_power((lap + epsilon * identity(n, format="csr")).tocsr(), int(beta))
    ddt_diagonal = np.full(m, 2.0)
    ddt_diagonal[[0, -1]] = 1.0
    diagonal = (mask + upsilon * np.outer(penalty.diagonal(), ddt_diagonal)).ravel()

    def matvec(z):
        v = z.reshape((n, m))
        return (mask * v + upsilon * (penalty @ _stencil(v))).ravel()

    observed = mask * signal
    operator = LinearOperator((n * m, n * m), matvec=matvec, dtype=float)
    jacobi = LinearOperator((n * m, n * m), matvec=lambda z: z / diagonal, dtype=float)
    z, info = cg(operator, observed.ravel(), x0=observed.ravel(), rtol=rtol, atol=0.0,
                 maxiter=100 * n * m, M=jacobi)
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return z.reshape((n, m))


def solve_static(signal, mask, lap, upsilon):
    """Per-column direct solve of (diag(j) + upsilon L) x = j o y; empty columns stay 0."""
    out = np.zeros_like(signal)
    for col in range(signal.shape[1]):
        j = mask[:, col]
        if j.any():
            out[:, col] = spsolve((diags(j) + upsilon * lap).tocsc(), j * signal[:, col])
    return out


def rmse_hidden(x_hat, truth, mask):
    hidden = mask == 0
    return float(np.sqrt(np.mean((x_hat[hidden] - truth[hidden]) ** 2)))


def rel_diff(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


def path_laplacian(m):
    """D D^T of the one-step difference operator: the path-graph Laplacian."""
    ddt = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    ddt[0, 0] = ddt[-1, -1] = 1.0
    return ddt


def analysis_hessian(mask, lap_dense, upsilon, epsilon, beta=1):
    """Q + upsilon (D D^T kron (L + eps I)^beta), Q = diag(vec(J)) column-major."""
    if int(beta) != beta or beta < 1:
        raise ValueError(f"reference Hessian needs a positive integer beta, got {beta}")
    n, m = mask.shape
    penalty = np.linalg.matrix_power(lap_dense + epsilon * np.eye(n), int(beta))
    return np.diag(mask.ravel(order="F")) + upsilon * np.kron(path_laplacian(m), penalty)


def extreme_eigenvalues(matrix):
    lam = np.linalg.eigvalsh(matrix)
    return float(lam[0]), float(lam[-1])


def kappa(lo, hi):
    """lambda_max / lambda_min, infinite when lambda_min < 1e-12 lambda_max (singular)."""
    return hi / lo if hi > 0 and lo >= 1e-12 * hi else math.inf


def close(a, b, rtol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
