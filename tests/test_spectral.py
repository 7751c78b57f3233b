import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence

import tvgsr
from tvgsr import InputError, NumericError, ParameterError
from conftest import connected_geometric_graph, random_geometric_graph, uniqueness_mask


def unscaled_hessians(graph, op, upsilon, epsilon, beta, mask):
    """In-test oracle: (1/upsilon) Q + (D D^T) kron K for both penalties."""
    ddt = op.matrix @ op.matrix.T
    q = np.diag(mask.ravel(order="F")) / upsilon
    lap_block = q + np.kron(ddt, graph.laplacian)
    sob_block = q + np.kron(ddt, tvgsr.sobolev_power(graph.laplacian, epsilon, beta))
    return lap_block, sob_block


class TestHessian:
    def test_empty_mask_is_pure_kronecker_and_singular(self, path_graph3):
        op = tvgsr.difference_operator(3, 1)
        mask = np.zeros((3, 3))
        matrix = tvgsr.hessian(mask, path_graph3, op, 1.0, 0.0, 1.0)
        expected = np.kron(op.matrix @ op.matrix.T, path_graph3.laplacian)
        assert np.array_equal(matrix, expected)
        assert tvgsr.condition_number(matrix) == math.inf

    def test_full_mask_zero_upsilon_is_identity(self, path_graph3):
        op = tvgsr.difference_operator(3, 1)
        matrix = tvgsr.hessian(np.ones((3, 3)), path_graph3, op, 0.0, 0.0, 1.0)
        assert np.array_equal(matrix, np.eye(9))
        assert tvgsr.condition_number(matrix) == 1.0

    def test_quadratic_form_matches_objective(self, path_graph3):
        # z^T H z equals twice the objective evaluated against Y = 0
        rng = np.random.default_rng(0)
        op = tvgsr.difference_operator(3, 1)
        mask = tvgsr.random_entry_mask(3, 3, 0.6, 1).mask
        upsilon, epsilon, beta = 0.8, 0.3, 1.0
        matrix = tvgsr.hessian(mask, path_graph3, op, upsilon, epsilon, beta)
        x = rng.normal(size=(3, 3))
        z = x.ravel(order="F")
        config = tvgsr.SolverConfig(upsilon=upsilon, epsilon=epsilon, beta=beta,
                                    objective="sobolev")
        doubled = 2.0 * tvgsr.objective(x, np.zeros_like(x), mask, path_graph3, config)
        assert float(z @ matrix @ z) == pytest.approx(doubled, abs=1e-10)

    def test_blocks_are_psd(self):
        rng = np.random.default_rng(1)
        graph = random_geometric_graph(rng, 6, 2)
        op = tvgsr.difference_operator(4, 1)
        mask = tvgsr.random_entry_mask(6, 4, 0.5, 2).mask
        smoothness = tvgsr.hessian(np.zeros_like(mask), graph, op, 1.2, 0.4, 2.0)
        for block in (smoothness, tvgsr.hessian(mask, graph, op, 1.2, 0.4, 2.0)):
            assert np.linalg.eigvalsh(block).min() >= -1e-9

    def test_tgsr_reduction_is_entrywise(self):
        rng = np.random.default_rng(2)
        graph = random_geometric_graph(rng, 5, 2)
        op = tvgsr.difference_operator(3, 1)
        mask = tvgsr.random_entry_mask(5, 3, 0.5, 3).mask
        sob = tvgsr.hessian(mask, graph, op, 1.0, 0.0, 1.0)
        expected = np.diag(mask.ravel(order="F")) + \
            np.kron(op.matrix @ op.matrix.T, graph.laplacian)
        assert np.array_equal(sob, expected)

    def test_size_guard(self):
        rng = np.random.default_rng(3)
        graph = random_geometric_graph(rng, 70, 3)
        op = tvgsr.difference_operator(60, 1)
        with pytest.raises(ParameterError):
            tvgsr.hessian(np.ones((70, 60)), graph, op, 1.0, 0.0, 1.0)

    def test_upsilon_must_be_finite_and_nonnegative(self, path_graph3):
        op = tvgsr.difference_operator(3, 1)
        for upsilon in (np.nan, np.inf, -1.0):
            with pytest.raises(ParameterError, match="finite and >= 0"):
                tvgsr.hessian(np.ones((3, 3)), path_graph3, op, upsilon, 0.0, 1.0)


class TestConditionNumber:
    def test_identity(self):
        assert tvgsr.condition_number(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert tvgsr.condition_number(np.diag([1.0, 10.0])) == pytest.approx(10.0)

    def test_singular_gives_infinity_flag(self):
        assert tvgsr.condition_number(np.diag([0.0, 1.0])) == math.inf

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            tvgsr.condition_number(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for index in ((0, 0), (0, 1)):
            matrix = np.eye(3)
            matrix[index] = bad
            with pytest.raises(InputError, match="non-finite"):
                tvgsr.condition_number(matrix)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        matrix = a @ a.T + 0.5 * np.eye(6)
        base = tvgsr.condition_number(matrix)
        for c in (0.1, 10.0):
            assert tvgsr.condition_number(c * matrix) == pytest.approx(base, rel=1e-10)


class TestWeylBounds:
    def test_random_instances_within_brackets(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 8:
            graph = random_geometric_graph(rng, int(rng.integers(5, 9)), 2)
            m = int(rng.integers(3, 6))
            mask = uniqueness_mask(rng, graph.n_nodes, m)
            report = tvgsr.weyl_bounds(graph, tvgsr.difference_operator(m, 1),
                                       float(rng.uniform(0.2, 5.0)),
                                       float(rng.uniform(0.0, 1.0)),
                                       float(rng.choice([1.0, 2.0])), mask)
            if not (report.laplacian.premise_holds and report.sobolev.premise_holds):
                continue
            assert report.all_pass
            checked += 1

    def test_reduces_to_laplacian_case(self):
        rng = np.random.default_rng(6)
        graph = random_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 4, 0.5, 7).mask
        report = tvgsr.weyl_bounds(graph, tvgsr.difference_operator(4, 1), 1.0, 0.0, 1.0, mask)
        assert report.sobolev.lambda_max == pytest.approx(report.laplacian.lambda_max, rel=1e-12)
        assert report.sobolev.lambda_min == pytest.approx(report.laplacian.lambda_min, abs=1e-12)
        assert report.sobolev.max_bracket == report.laplacian.max_bracket

    def test_extremes_match_in_test_oracle(self):
        rng = np.random.default_rng(7)
        graph = random_geometric_graph(rng, 6, 2)
        op = tvgsr.difference_operator(4, 1)
        mask = uniqueness_mask(rng, 6, 4)
        report = tvgsr.weyl_bounds(graph, op, 0.7, 0.2, 1.0, mask)
        lap_block, sob_block = unscaled_hessians(graph, op, 0.7, 0.2, 1.0, mask)
        assert report.laplacian.lambda_max == pytest.approx(
            np.linalg.eigvalsh(lap_block)[-1], rel=1e-10)
        assert report.sobolev.lambda_min == pytest.approx(
            np.linalg.eigvalsh(sob_block)[0], abs=1e-10)

    def test_zero_mask_rejected(self, path_graph3):
        with pytest.raises(InputError):
            tvgsr.weyl_bounds(path_graph3, tvgsr.difference_operator(3, 1), 1.0, 0.1, 1.0,
                              np.zeros((3, 3)))


class TestConditionSweep:
    def test_epsilon_zero_row_equals_laplacian_exactly(self):
        rng = np.random.default_rng(8)
        graph = random_geometric_graph(rng, 6, 2)
        mask = tvgsr.random_entry_mask(6, 4, 0.5, 9).mask
        reports = tvgsr.weyl_sweep(graph, tvgsr.difference_operator(4, 1),
                                   1.0, 1.0, [0.0], mask)
        assert reports[0].sobolev.kappa == reports[0].laplacian.kappa

    def test_moderate_epsilon_improves_conditioning(self):
        # geometric graph with a half-density mask: some epsilon in [1e-2, 1] wins
        rng = np.random.default_rng(10)
        graph = random_geometric_graph(rng, 20, 3)
        mask = uniqueness_mask(rng, 20, 6, density=0.5)
        reports = tvgsr.weyl_sweep(graph, tvgsr.difference_operator(6, 1), 1.0, 1.0,
                                   [0.01, 0.05, 0.1, 0.5, 1.0], mask)
        kappa_laplacian = reports[0].laplacian.kappa
        assert any(r.sobolev.kappa < kappa_laplacian for r in reports)

    def test_very_large_epsilon_hurts(self):
        rng = np.random.default_rng(11)
        graph = random_geometric_graph(rng, 15, 3)
        mask = uniqueness_mask(rng, 15, 5, density=0.5)
        reports = tvgsr.weyl_sweep(graph, tvgsr.difference_operator(5, 1), 1.0, 1.0,
                                   [1e3], mask)
        assert reports[0].sobolev.kappa > reports[0].laplacian.kappa

    def test_blowup_reaches_infinity_flag(self):
        # beta = 2: by epsilon = 1e6 the smallest eigenvalue is negligible
        rng = np.random.default_rng(12)
        graph = random_geometric_graph(rng, 12, 2)
        mask = uniqueness_mask(rng, 12, 5, density=0.5)
        reports = tvgsr.weyl_sweep(graph, tvgsr.difference_operator(5, 1), 1.0, 2.0,
                                   [1.0, 1e2, 1e4, 1e6], mask)
        kappas = [r.sobolev.kappa for r in reports]
        assert np.all(np.diff(kappas) > 0)
        assert kappas[-1] == math.inf

    def test_empty_grid_rejected(self, path_graph3):
        with pytest.raises(ParameterError):
            tvgsr.weyl_sweep(path_graph3, tvgsr.difference_operator(3, 1), 1.0, 1.0,
                             [], np.ones((3, 3)))

    def test_subnormal_upsilon_rejected_before_any_eigensolve(self, capfd):
        # ARPACK's DLASCL complaints about a subnormal Hessian are written to fd 2 directly
        _, graph = tvgsr.synth_dataset(n_nodes=12, k=3, n_snapshots=6, seed=1)
        mask = tvgsr.random_entry_mask(12, 6, 0.5, 2).mask
        capfd.readouterr()
        with pytest.raises(ParameterError, match=re.escape(
                "1/upsilon must be finite for bound checks, got upsilon=1e-320")):
            tvgsr.weyl_sweep(graph, tvgsr.difference_operator(6, 1), 1e-320, 1.0,
                             [0.0, 0.1], mask)
        assert capfd.readouterr().err == ""


def per_epsilon_extremes(graph, op, upsilon, epsilon, beta, mask):
    """The extremes of one ``hessian(...)``, unmemoized, as every call made before the sweep."""
    return tvgsr.spectral._extremes(mask, graph, op, upsilon, epsilon, beta)


def per_epsilon_weyl(graph, op, upsilon, epsilon, beta, mask):
    """In-test copy of the per-epsilon Weyl report: two eigensolves per call."""
    mask = np.asarray(mask, dtype=float)
    if not np.any(mask > 0):
        raise InputError("mask selects no entries (J must be nonzero)")
    if upsilon <= 0:
        raise ParameterError(f"upsilon must be > 0 for bound checks, got {upsilon}")
    lap_min, lap_max = per_epsilon_extremes(graph, op, upsilon, 0.0, 1.0, mask)
    sob_min, sob_max = per_epsilon_extremes(graph, op, upsilon, epsilon, beta, mask)
    lam_temporal = float(np.linalg.eigvalsh(op.matrix @ op.matrix.T)[-1])
    lam_graph = max(float(graph.spectrum().eigenvalues[-1]), 0.0)
    penalty_max = (lam_graph + epsilon) ** beta

    def check(lam_min, lam_max, block_max, premise_holds):
        max_bracket = (block_max, block_max + 1.0 / upsilon)
        min_bracket = (0.0, min(1.0 / upsilon, block_max))
        tol_max = 1e-8 * max(1.0, abs(max_bracket[1]))
        tol_min = 1e-8 * max(1.0, abs(min_bracket[1]))
        return tvgsr.EigenvalueBounds(
            lambda_max=lam_max, lambda_min=lam_min, max_bracket=max_bracket,
            min_bracket=min_bracket, premise_holds=premise_holds,
            max_within=max_bracket[0] - tol_max <= lam_max <= max_bracket[1] + tol_max,
            min_within=min_bracket[0] - tol_min <= lam_min <= min_bracket[1] + tol_min)

    return tvgsr.WeylReport(
        laplacian=check(lap_min / upsilon, lap_max / upsilon, lam_graph * lam_temporal,
                        lam_graph >= 1.0 and lam_temporal >= 1.0),
        sobolev=check(sob_min / upsilon, sob_max / upsilon, penalty_max * lam_temporal,
                      penalty_max >= 1.0 and lam_temporal >= 1.0),
        lambda_graph_max=lam_graph, lambda_temporal_max=lam_temporal,
        upsilon=float(upsilon), epsilon=float(epsilon), beta=float(beta))


def per_epsilon_kappas(graph, op, upsilon, beta, epsilon_grid, mask):
    """In-test rows (epsilon, kappa_sobolev, kappa_laplacian) of ``analyze``'s condition sweep.

    One eigensolve per row plus the Laplacian's; kappa is read from the extremes divided by
    upsilon, as ``EigenvalueBounds.kappa`` reads it.
    """
    def kappa(epsilon, power):
        lam_min, lam_max = per_epsilon_extremes(graph, op, upsilon, epsilon, power, mask)
        lam_min, lam_max = lam_min / upsilon, lam_max / upsilon
        return math.inf if lam_max <= 0 or lam_min < 1e-12 * lam_max else lam_max / lam_min

    kappa_laplacian = kappa(0.0, 1.0)
    return [(float(e), kappa(float(e), beta), kappa_laplacian) for e in epsilon_grid]


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Count the calls of the one routine that finds a Hessian's extremes, by matrix order."""
    calls = []
    extremes = tvgsr.spectral._extremes

    def counting(mask, *args):
        calls.append(np.size(mask))
        return extremes(mask, *args)

    monkeypatch.setattr(tvgsr.spectral, "_extremes", counting)
    return calls


class TestWeylSweep:
    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("grid", [(0.0, 0.01, 0.1, 0.5, 1.0), (0.3, 0.05), (0.1, 0.0, 0.1)])
    def test_equals_per_epsilon_computation(self, kind, step, beta, grid):
        rng = np.random.default_rng(20 + step)
        coords = rng.uniform(0.0, 10.0, size=(9, 2))
        graph = tvgsr.build_knn_graph(coords, 3, laplacian_kind=kind)
        op = tvgsr.difference_operator(6, step)
        mask = uniqueness_mask(rng, 9, 6, density=0.5)
        for upsilon in (1.0, 0.3):
            want = [per_epsilon_weyl(graph, op, upsilon, e, beta, mask) for e in grid]
            reports = tvgsr.weyl_sweep(graph, op, upsilon, beta, grid, mask)
            assert reports == want
            assert [tvgsr.weyl_bounds(graph, op, upsilon, e, beta, mask) for e in grid] == want
            assert [(r.epsilon, r.sobolev.kappa, r.laplacian.kappa) for r in reports] == \
                per_epsilon_kappas(graph, op, upsilon, beta, grid, mask)

    @pytest.mark.parametrize("beta, grid, distinct", [
        (1.0, [0.0, 0.01, 0.1, 0.5, 1.0], 5),  # the (0, 1) row shares the Laplacian's
        (1.0, [0.1, 0.5, 0.1], 3),
        (2.0, [0.0, 0.1], 3),                   # (0, 2) is not the Laplacian Hessian
    ])
    def test_each_distinct_hessian_eigensolved_once(self, count_eigensolves, beta, grid,
                                                    distinct):
        rng = np.random.default_rng(30)
        graph = random_geometric_graph(rng, 8, 3)
        op = tvgsr.difference_operator(5, 1)
        mask = uniqueness_mask(rng, 8, 5)
        reports = tvgsr.weyl_sweep(graph, op, 0.7, beta, grid, mask)
        assert count_eigensolves.count(40) == distinct
        assert [r.epsilon for r in reports] == grid

    def test_laplacian_row_reuses_its_eigensolve(self):
        rng = np.random.default_rng(31)
        graph = random_geometric_graph(rng, 7, 2)
        mask = uniqueness_mask(rng, 7, 4)
        report = tvgsr.weyl_bounds(graph, tvgsr.difference_operator(4, 1), 0.4, 0.0, 1.0, mask)
        assert report.sobolev == report.laplacian

    def test_rejections_match_per_epsilon_computation(self):
        rng = np.random.default_rng(32)
        big = random_geometric_graph(rng, 70, 3)
        small = random_geometric_graph(rng, 6, 2)
        requests = [
            (big, tvgsr.difference_operator(60, 1), 1.0, np.ones((70, 60))),  # guard
            (small, tvgsr.difference_operator(4, 1), 1.0, np.zeros((6, 4))),  # empty mask
            (small, tvgsr.difference_operator(4, 1), 0.0, np.ones((6, 4))),
            (small, tvgsr.difference_operator(4, 1), -1.0, np.ones((6, 4))),
        ]
        for graph, op, upsilon, mask in requests:
            with pytest.raises((InputError, ParameterError)) as want:
                per_epsilon_weyl(graph, op, upsilon, 0.1, 1.0, mask)
            for call in (lambda: tvgsr.weyl_sweep(graph, op, upsilon, 1.0, [0.1], mask),
                         lambda: tvgsr.weyl_bounds(graph, op, upsilon, 0.1, 1.0, mask)):
                with pytest.raises(want.type, match=re.escape(str(want.value))):
                    call()

    def test_both_assembly_routes_raise_the_same_errors(self):
        rng = np.random.default_rng(33)
        big = random_geometric_graph(rng, 70, 3)
        small = random_geometric_graph(rng, 6, 2)
        requests = [
            (big, tvgsr.difference_operator(60, 1), 1.0, np.ones((70, 60))),  # guard
            (small, tvgsr.difference_operator(4, 1), 1.0, np.ones((5, 4))),   # row count
            (small, tvgsr.difference_operator(5, 1), 1.0, np.ones((6, 4))),   # operator length
        ]
        for graph, op, upsilon, mask in requests:
            with pytest.raises((InputError, ParameterError)) as want:
                tvgsr.hessian(mask, graph, op, upsilon, 0.1, 1.0)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                tvgsr.weyl_sweep(graph, op, upsilon, 1.0, [0.1], mask)


class TestOneBufferAssembly:
    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("upsilon, epsilon, beta", [
        (1.0, 0.0, 1.0), (0.3, 0.1, 1.0), (2.0, 0.0, 2.0), (0.7, 0.2, 1.7), (0.0, 0.1, 1.0)])
    def test_bytes_equal_hessian_full(self, kind, upsilon, epsilon, beta):
        # the graph has an isolated node, so the penalty has an all-zero row
        w = np.zeros((6, 6))
        w[0, 1] = w[1, 2] = w[2, 3] = w[3, 4] = w[1, 4] = 0.8
        graph = tvgsr.Graph(w + w.T, laplacian_kind=kind)
        penalty = tvgsr.sobolev_power(graph.laplacian, epsilon, beta)
        for step in (1, 2, 3):
            op = tvgsr.difference_operator(5, step)
            mask = tvgsr.random_entry_mask(6, 5, 0.5, step).mask
            ddt = op.matrix @ op.matrix.T
            full = np.diag(mask.ravel(order="F")) + upsilon * np.kron(ddt, penalty)
            assert tvgsr.hessian(mask, graph, op, upsilon, epsilon, beta).tobytes() == \
                full.tobytes()

    def test_holds_one_nm_by_nm_array(self):
        rng = np.random.default_rng(34)
        graph = random_geometric_graph(rng, 30, 3)
        op = tvgsr.difference_operator(40, 1)
        mask = tvgsr.random_entry_mask(30, 40, 0.5, 1).mask
        one_matrix = (30 * 40) ** 2 * 8
        tracemalloc.start()
        try:
            tvgsr.hessian(mask, graph, op, 0.5, 0.1, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert one_matrix <= peak < 1.5 * one_matrix

    def test_oracle_unchanged(self):
        # in-test copy of the oracle on hessian(...); equal to the last bit
        rng = np.random.default_rng(35)
        for trial in range(12):
            n, m = int(rng.integers(4, 9)), int(rng.integers(4, 8))
            graph = random_geometric_graph(rng, n, 2)
            mask = tvgsr.random_entry_mask(n, m, 0.6, trial).mask
            y = rng.normal(size=(n, m))
            config = tvgsr.SolverConfig(upsilon=float(rng.uniform(0.1, 2.0)),
                                        epsilon=float(rng.choice([0.0, 0.1, 0.5])),
                                        beta=float(rng.choice([0.5, 1.0, 2.0])),
                                        temporal_step=1 + trial % 2, objective="sobolev")
            op = tvgsr.difference_operator(m, config.temporal_step)
            eigenvalues, eigenvectors = np.linalg.eigh(tvgsr.hessian(
                mask, graph, op, config.upsilon, config.epsilon, config.beta))
            keep = eigenvalues > 1e-12 * eigenvalues[-1]
            coefficients = eigenvectors.T @ (mask * y).ravel(order="F")
            scaled = np.zeros_like(coefficients)
            scaled[keep] = coefficients[keep] / eigenvalues[keep]
            want = (eigenvectors @ scaled).reshape((n, m), order="F")
            got = tvgsr.dense_oracle_solve(y, mask, graph, config)
            assert np.array_equal(got.x_hat, want)
            assert got.singular == (not np.all(keep))


def numpy_oracle(y, mask, graph, config):
    """In-test copy of the oracle through np.linalg.eigh, which copies the Hessian first."""
    n, m = y.shape
    op = tvgsr.difference_operator(m, config.temporal_step)
    eigenvalues, eigenvectors = np.linalg.eigh(tvgsr.hessian(
        mask, graph, op, config.upsilon, config.epsilon, config.beta))
    keep = eigenvalues > 1e-12 * eigenvalues[-1]
    coefficients = eigenvectors.T @ (mask * y).ravel(order="F")
    scaled = np.zeros_like(coefficients)
    scaled[keep] = coefficients[keep] / eigenvalues[keep]
    return (eigenvectors @ scaled).reshape((n, m), order="F"), not np.all(keep)


def isolated_node_problem(kind, step):
    """Six nodes, node 5 isolated and unsampled in snapshot 0: singular at epsilon = 0."""
    w = np.zeros((6, 6))
    w[0, 1] = w[1, 2] = w[2, 3] = w[3, 4] = w[1, 4] = 0.8
    graph = tvgsr.Graph(w + w.T, laplacian_kind=kind)
    mask = tvgsr.random_entry_mask(6, 7, 0.6, step).mask.copy()
    mask[5] = 1.0
    mask[5, 0] = 0.0
    return graph, tvgsr.difference_operator(7, step), mask


class TestInPlaceEigensolve:
    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_sweep_bits_equal_numpy(self, kind, step, beta):
        graph, op, mask = isolated_node_problem(kind, step)
        grid = [0.0, 0.1]
        got = tvgsr.weyl_sweep(graph, op, 0.3, beta, grid, mask)
        want = [per_epsilon_weyl(graph, op, 0.3, e, beta, mask) for e in grid]
        assert got == want

        def numpy_extremes(epsilon, power):
            eigenvalues = np.linalg.eigvalsh(tvgsr.hessian(mask, graph, op, 0.3, epsilon, power))
            return np.array([eigenvalues[0], eigenvalues[-1]]) / 0.3

        # dpbtrf rejects the singular epsilon = 0 Hessians, so their lambda_min reads 0
        for bounds, power in ((got[0].laplacian, 1.0), (got[0].sobolev, beta)):
            reference = numpy_extremes(0.0, power)
            assert bounds.lambda_min == 0.0
            assert abs(bounds.lambda_max - reference[1]) <= 1e-12 * reference[1]
            assert bounds.kappa == math.inf
        reference = numpy_extremes(0.1, beta)
        assert np.abs([got[1].sobolev.lambda_min, got[1].sobolev.lambda_max] - reference).max() \
            <= 1e-12 * reference[1]
        assert [(r.epsilon, r.sobolev.kappa, r.laplacian.kappa) for r in got] == \
            per_epsilon_kappas(graph, op, 0.3, beta, grid, mask)

    def test_unconverged_lanczos_raises_numeric_error(self, monkeypatch):
        graph, op, mask = isolated_node_problem("combinatorial", 1)

        def unconverged(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(tvgsr.spectral, "eigsh", unconverged)
        with pytest.raises(NumericError, match=re.escape(
                "Lanczos run failed: ARPACK error -1: no convergence "
                "(at upsilon=0.3, epsilon=0.1, beta=1.0)")):
            tvgsr.spectral._extremes(mask, graph, op, 0.3, 0.1, 1.0)

    def test_non_finite_lanczos_value_raises_numeric_error(self, monkeypatch):
        graph, op, mask = isolated_node_problem("combinatorial", 1)
        monkeypatch.setattr(tvgsr.spectral, "eigsh", lambda *args, **kwargs: np.array([np.nan]))
        with pytest.raises(NumericError, match=re.escape(
                "Lanczos run failed: largest eigenvalue nan "
                "(at upsilon=0.3, epsilon=0.1, beta=1.0)")):
            tvgsr.spectral._extremes(mask, graph, op, 0.3, 0.1, 1.0)

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_oracle_bits_equal_numpy(self, kind, step, beta):
        graph, _, mask = isolated_node_problem(kind, step)
        y = np.random.default_rng(step).normal(size=mask.shape)
        for epsilon in (0.0, 0.1):
            config = tvgsr.SolverConfig(upsilon=0.3, epsilon=epsilon, beta=beta,
                                        temporal_step=step, objective="sobolev")
            want, singular = numpy_oracle(y, mask, graph, config)
            got = tvgsr.dense_oracle_solve(y, mask, graph, config)
            assert got.x_hat.tobytes() == want.tobytes()
            assert got.singular == singular
            assert singular or epsilon > 0.0  # node 5's unsampled entry at epsilon = 0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_condition_number_leaves_its_argument(self, order):
        graph, op, mask = isolated_node_problem("combinatorial", 1)
        matrix = np.asarray(tvgsr.hessian(mask, graph, op, 0.3, 0.1, 1.0), order=order)
        before = matrix.copy(order=order)
        tvgsr.condition_number(matrix)
        assert matrix.tobytes(order="A") == before.tobytes(order="A")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
    def test_sweep_grows_peak_rss_by_one_nm_by_nm_array(self):
        # A fresh process, since the peak only grows. Its VmHWM, not ru_maxrss: on Linux,
        # ru_maxrss starts from the resident size of the process that started it.
        script = textwrap.dedent("""
            import warnings
            import numpy as np
            import tvgsr

            def peak_kib():
                with open("/proc/self/status") as fh:
                    return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

            warnings.simplefilter("ignore")
            rng = np.random.default_rng(36)
            graph = tvgsr.build_knn_graph(rng.uniform(0.0, 10.0, size=(40, 2)), 4)
            op = tvgsr.difference_operator(40, 1)
            mask = tvgsr.random_entry_mask(40, 40, 0.5, 1).mask
            tvgsr.weyl_sweep(graph, tvgsr.difference_operator(4, 1), 0.5, 1.0, [0.1], mask[:, :4])
            before = peak_kib()
            tvgsr.weyl_sweep(graph, op, 0.5, 1.0, [0.1], mask)
            print(1024 * (peak_kib() - before))
        """)
        src = str(Path(tvgsr.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                              timeout=300)
        assert done.returncode == 0, done.stderr
        one_matrix = 1600 ** 2 * 8  # numpy's eigvalsh copy made this 2.04 arrays
        assert int(done.stdout) < 1.5 * one_matrix


class TestDirectBand:
    def test_nonsingular_extremes_hold_no_nm_by_nm_array(self):
        rng = np.random.default_rng(38)
        graph = random_geometric_graph(rng, 30, 3)
        op = tvgsr.difference_operator(40, 1)
        mask = tvgsr.random_entry_mask(30, 40, 0.5, 1).mask
        one_matrix = (30 * 40) ** 2 * 8
        tracemalloc.start()
        try:
            lam_min, lam_max = tvgsr.spectral._extremes(mask, graph, op, 0.5, 0.1, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < lam_min < lam_max
        assert peak < one_matrix / 4

    def test_singular_extremes_hold_no_nm_by_nm_array(self):
        # Node 29 is isolated and never sampled, so at epsilon 0 and beta 1 its rows of H are
        # exactly zero: dpbtrf meets an exact zero pivot, whatever the rounding elsewhere.
        rng = np.random.default_rng(38)
        weights = np.pad(random_geometric_graph(rng, 29, 3).adjacency, ((0, 1), (0, 1)))
        graph = tvgsr.Graph(weights)
        op = tvgsr.difference_operator(40, 1)
        mask = tvgsr.random_entry_mask(30, 40, 0.5, 1).mask.copy()
        mask[29] = 0.0
        one_matrix = (30 * 40) ** 2 * 8
        tracemalloc.start()
        try:
            lam_min, lam_max = tvgsr.spectral._extremes(mask, graph, op, 0.5, 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lam_min == 0.0
        assert peak < one_matrix / 4
        largest = np.linalg.eigvalsh(tvgsr.hessian(mask, graph, op, 0.5, 0.0, 1.0))[-1]
        assert abs(lam_max - largest) <= 1e-12 * largest

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_band_narrows_to_the_reach_of_k_in_rcm_order(self, monkeypatch, step):
        # K couples beta graph hops at integer beta, so its RCM half-bandwidth b_K is below
        # N - 1 and the factored band has s N + b_K + 1 rows; a fractional beta's K is dense.
        rng = np.random.default_rng(29)
        graph = random_geometric_graph(rng, 30, 3)
        op = tvgsr.difference_operator(12, step)
        mask = tvgsr.random_entry_mask(30, 12, 0.6, 2).mask
        factored = []

        def recording_dpbtrf(band, **kwargs):
            factored.append(band.shape)
            return dpbtrf(band, **kwargs)

        monkeypatch.setattr(tvgsr.spectral, "dpbtrf", recording_dpbtrf)
        for beta in (1.0, 2.0, 1.5):
            penalty = tvgsr.sobolev_power(graph.laplacian, 0.1, beta)
            rank = np.argsort(reverse_cuthill_mckee(csr_matrix(penalty), symmetric_mode=True))
            rows, cols = np.nonzero(penalty)
            reach = int(np.abs(rank[rows] - rank[cols]).max())
            lam_min, lam_max = tvgsr.spectral._extremes(mask, graph, op, 0.5, 0.1, beta)
            assert factored.pop() == (step * 30 + reach + 1, 30 * 12)
            if beta == 1.5:
                assert reach == 29
            else:
                assert step * 30 + reach + 1 < (step + 1) * 30
            eigenvalues = np.linalg.eigvalsh(tvgsr.hessian(mask, graph, op, 0.5, 0.1, beta))
            assert abs(lam_min - eigenvalues[0]) <= 1e-12 * eigenvalues[-1]
            assert abs(lam_max - eigenvalues[-1]) <= 1e-12 * eigenvalues[-1]

    def test_guard_raises_before_allocating(self):
        rng = np.random.default_rng(39)
        graph = random_geometric_graph(rng, 100, 3)
        op = tvgsr.difference_operator(41, 1)
        mask = np.ones((100, 41))  # one NM x NM array would be 134 MB
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=re.escape("N*M <= 4000")):
                tvgsr.weyl_sweep(graph, op, 1.0, 1.5, [0.1], mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_penalty_per_distinct_hessian(self, monkeypatch):
        calls = []
        power = tvgsr.spectral.sobolev_power

        def counting(laplacian, epsilon, beta):
            calls.append((epsilon, beta))
            return power(laplacian, epsilon, beta)

        monkeypatch.setattr(tvgsr.spectral, "sobolev_power", counting)
        rng = np.random.default_rng(40)
        graph = connected_geometric_graph(rng, 8, 3)
        mask = uniqueness_mask(rng, 8, 6)
        reports = tvgsr.weyl_sweep(graph, tvgsr.difference_operator(6, 1), 0.7, 1.5,
                                   [0.0, 0.1, 0.5, 0.1], mask)
        assert all(math.isfinite(r.laplacian.kappa) and math.isfinite(r.sobolev.kappa)
                   for r in reports)  # nonsingular: every Hessian factors
        assert sorted(calls) == [(0.0, 1.0), (0.0, 1.5), (0.1, 1.5), (0.5, 1.5)]


class TestEigenvaluePenalization:
    def test_beta_one_is_normalized_spectrum(self, geo_graph):
        spec = geo_graph.spectrum()
        table = tvgsr.eigenvalue_penalization(spec, [1.0])
        expected = np.clip(spec.eigenvalues, 0.0, None) / spec.eigenvalues[-1]
        assert np.allclose(table[:, 0], expected, atol=1e-14)

    def test_beta_zero_all_ones(self, geo_graph):
        table = tvgsr.eigenvalue_penalization(geo_graph.spectrum(), [0.0])
        assert np.all(table == 1.0)

    def test_beta_two_is_square(self, geo_graph):
        table = tvgsr.eigenvalue_penalization(geo_graph.spectrum(), [1.0, 2.0])
        assert np.abs(table[:, 1] - table[:, 0] ** 2).max() <= 1e-12

    def test_entries_in_unit_interval(self, geo_graph):
        table = tvgsr.eigenvalue_penalization(geo_graph.spectrum(), [0.5, 1.0, 3.0])
        assert table.min() >= 0.0
        assert table.max() <= 1.0 + 1e-15

    def test_edgeless_graph_rejected(self):
        spec = tvgsr.spectrum(np.zeros((3, 3)))
        with pytest.raises(ParameterError):
            tvgsr.eigenvalue_penalization(spec, [1.0])

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_beta_rejected(self, geo_graph, bad):
        with pytest.raises(ParameterError, match="finite and >= 0"):
            tvgsr.eigenvalue_penalization(geo_graph.spectrum(), [1.0, bad])
