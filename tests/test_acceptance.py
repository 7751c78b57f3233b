"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The real-data criterion (10) needs coordinate/signal files supplied through
the TVGSR_COVID_DIR environment variable and is skipped otherwise.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import tvgsr
from tvgsr import SolverConfig
from tvgsr.evaluation import mask_seed
from tvgsr.temporal import difference_operator
from conftest import connected_geometric_graph, random_geometric_graph, uniqueness_mask

SYNTH_SEED = 21


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def held_out_seed(level, index=0):
    # disjoint from the evaluation repetitions used by the experiment protocol
    return mask_seed(SYNTH_SEED, "random_entry", level, 10_000 + index)


@pytest.fixture(scope="module")
def synth100():
    dataset, graph = tvgsr.synth_dataset(n_nodes=100, k=5, n_snapshots=30,
                                         alpha=1.0, seed=SYNTH_SEED)
    assert graph.is_connected
    return dataset, graph


def test_criterion_1_special_case_identity():
    """TGSR and the shifted-power objective at (eps=0, beta=1) iterate identically."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(3, 7))
        graph = random_geometric_graph(rng, n, 2)
        mask = tvgsr.random_entry_mask(n, m, float(rng.uniform(0.3, 0.9)),
                                       int(rng.integers(0, 2**31))).mask
        y = mask * rng.normal(size=(n, m)) * 5.0
        upsilon = float(rng.uniform(0.05, 5.0))
        result_t = tvgsr.solve_cg(y, mask, graph,
                                  SolverConfig(upsilon=upsilon, objective="tgsr"),
                                  record_iterates=True)
        result_s = tvgsr.solve_cg(y, mask, graph,
                                  SolverConfig(upsilon=upsilon, epsilon=0.0, beta=1.0,
                                               objective="sobolev"),
                                  record_iterates=True)
        assert result_t.iterations == result_s.iterations
        divergence = max(float(np.abs(a - b).max())
                         for a, b in zip(result_t.iterates, result_s.iterates))
        worst = max(worst, divergence)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(1, "special-case identity", ok,
                  f"max iterate divergence {worst:.2e}, {elapsed:.1f}s"), worst


def test_criterion_2_oracle_equivalence():
    """Converged CG matches the dense stationarity oracle to 1e-5 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    combos = list(itertools.product((0.1, 1.0, 10.0), (0.0, 0.1, 1.0), (1.0, 2.0)))
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(5, 11))
        m = int(rng.integers(3, 7))
        graph = connected_geometric_graph(rng, n, 2)
        mask = tvgsr.random_entry_mask(n, m, 0.6, int(rng.integers(0, 2**31))).mask
        check = tvgsr.check_uniqueness(mask)
        if not (check.condition1 and check.condition2):
            continue
        upsilon, epsilon, beta = combos[done % len(combos)]
        y = mask * rng.normal(size=(n, m)) * 3.0
        config = SolverConfig(upsilon=upsilon, epsilon=epsilon, beta=beta,
                              objective="sobolev", delta=1e-10)
        result = tvgsr.solve_cg(y, mask, graph, config)
        oracle = tvgsr.dense_oracle_solve(y, mask, graph, config)
        assert result.termination == "converged"
        assert not oracle.singular
        rel = float(np.linalg.norm(result.x_hat - oracle.x_hat)
                    / max(np.linalg.norm(oracle.x_hat), 1e-300))
        worst = max(worst, rel)
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 60.0
    assert report(2, "oracle equivalence", ok,
                  f"worst relative difference {worst:.2e}, {elapsed:.1f}s"), worst


def test_criterion_3_gradient_correctness():
    """Analytic gradient vs central finite differences, 20 instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, 6))
        graph = random_geometric_graph(rng, n, 2)
        mask = tvgsr.random_entry_mask(n, m, 0.5, trial).mask
        x = rng.normal(size=(n, m))
        y = mask * rng.normal(size=(n, m))
        config = SolverConfig(upsilon=float(rng.uniform(0.1, 5.0)),
                              epsilon=float(rng.uniform(0.0, 1.0)),
                              beta=float(rng.choice([1.0, 1.5, 2.0])),
                              objective="sobolev")
        analytic = tvgsr.gradient(x, y, mask, graph, config)
        numeric = np.zeros_like(x)
        h = 1e-6 * max(1.0, float(np.abs(x).max()))
        for i in range(n):
            for j in range(m):
                xp = x.copy()
                xp[i, j] += h
                xm = x.copy()
                xm[i, j] -= h
                numeric[i, j] = (tvgsr.objective(xp, y, mask, graph, config)
                                 - tvgsr.objective(xm, y, mask, graph, config)) / (2 * h)
        rel = float(np.linalg.norm(analytic - numeric)
                    / max(np.linalg.norm(numeric), 1e-300))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    assert report(3, "gradient correctness", ok,
                  f"worst relative error {worst:.2e}, {elapsed:.1f}s"), worst


def test_criterion_4_conditioning_claim():
    """Some eps in [1e-2, 1] beats the plain-Laplacian condition number; eps=1e6 loses."""
    start = time.perf_counter()
    n_nodes, n_snapshots, density = 100, 12, 0.5
    dataset, graph = tvgsr.synth_dataset(n_nodes=n_nodes, k=5, n_snapshots=n_snapshots,
                                         alpha=1.0, seed=SYNTH_SEED)
    mask = None
    for attempt in range(50):
        candidate = tvgsr.random_entry_mask(
            n_nodes, n_snapshots, density,
            mask_seed(SYNTH_SEED, "random_entry", density, 9_000 + attempt)).mask
        check = tvgsr.check_uniqueness(candidate)
        if check.condition1 and check.condition2:
            mask = candidate
            break
    assert mask is not None

    # upsilon tuned per method on a held-out repetition (best RMSE)
    tuned_t = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="tgsr"),
                                    density, held_out_seed(density), epsilon_grid=(0.0,))
    tuned_s = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="sobolev"),
                                    density, held_out_seed(density),
                                    epsilon_grid=(0.01, 0.05, 0.1, 0.5))
    op = difference_operator(n_snapshots, 1)
    kappa_laplacian = tvgsr.weyl_sweep(graph, op, tuned_t.upsilon, 1.0,
                                       [0.0], mask)[0].laplacian.kappa
    sweep = tvgsr.weyl_sweep(graph, op, tuned_s.upsilon, 1.0,
                             [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0], mask)
    blowup = tvgsr.weyl_sweep(graph, op, tuned_s.upsilon, 1.0, [1e6],
                              mask)[0].sobolev.kappa
    dip = any(row.sobolev.kappa < kappa_laplacian for row in sweep)
    elapsed = time.perf_counter() - start
    ok = dip and blowup > kappa_laplacian and elapsed < 120.0
    best = min(row.sobolev.kappa for row in sweep)
    assert report(4, "conditioning claim", ok,
                  f"kappa_L={kappa_laplacian:.3g}, best kappa_S={best:.3g}, "
                  f"kappa_S(1e6)={blowup:.3g}, {elapsed:.1f}s")


def test_criterion_5_convergence_advantage(synth100):
    """Tuned eps gives the shifted-power objective no more iterations than TGSR."""
    start = time.perf_counter()
    dataset, graph = synth100
    density, repetitions = 0.5, 20
    # same upsilon for both methods (tuned for TGSR on a held-out mask), so the
    # comparison isolates the effect of the penalty shift
    # the paper counts plain FR-CG iterations, so every solve here runs unpreconditioned
    tuned = tvgsr.tune_parameters(dataset, graph,
                                  SolverConfig(objective="tgsr", preconditioner="none"),
                                  density, held_out_seed(density), epsilon_grid=(0.0,))
    upsilon = tuned.upsilon
    eps_tuned = tvgsr.tune_parameters(
        dataset, graph, SolverConfig(upsilon=upsilon, objective="sobolev", preconditioner="none"),
        density, held_out_seed(density, 1), upsilon_grid=(upsilon,),
        epsilon_grid=(0.05, 0.1, 0.2, 0.5), criterion="iterations")
    configs = {
        "tgsr": SolverConfig(upsilon=upsilon, objective="tgsr", preconditioner="none"),
        "sobolev": SolverConfig(upsilon=upsilon, epsilon=eps_tuned.epsilon,
                                objective="sobolev", preconditioner="none"),
    }
    result = tvgsr.run_experiment(tvgsr.ExperimentPlan(
        regime="random_entry", levels=(density,), repetitions=repetitions, methods=configs,
        base_seed=SYNTH_SEED), dataset, graph)
    mean = {row.method: row.iterations for row in result.aggregates}
    mean_t, mean_s = mean["tgsr"], mean["sobolev"]
    elapsed = time.perf_counter() - start
    ok = mean_s <= mean_t and elapsed < 300.0
    assert report(5, "convergence advantage", ok,
                  f"mean iterations {mean_s:.1f} (eps={eps_tuned.epsilon}) vs "
                  f"{mean_t:.1f} (tgsr), upsilon={upsilon}, {elapsed:.1f}s")


def test_criterion_6_weyl_bound_verification():
    """Extreme Hessian eigenvalues sit inside the additive spectral brackets."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    checked = 0
    failures = []
    while checked < 30:
        n = int(rng.integers(5, 11))
        m = int(rng.integers(3, 7))
        graph = random_geometric_graph(rng, n, 2)
        mask = uniqueness_mask(rng, n, m)
        upsilon, epsilon = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 1.0))
        report_w = tvgsr.weyl_sweep(graph, difference_operator(m, 1), upsilon,
                                    float(rng.choice([1.0, 2.0])), [epsilon], mask)[0]
        if not (report_w.laplacian.premise_holds and report_w.sobolev.premise_holds):
            continue
        if not report_w.all_pass:
            failures.append(report_w)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(6, "Weyl bound verification", ok,
                  f"30 premise-holding instances, {len(failures)} violations, "
                  f"{elapsed:.1f}s")


def test_criterion_7_synthetic_generator_contract():
    """First-snapshot energy, innovation norms, and the smoothness level bound."""
    start = time.perf_counter()
    _, graph = tvgsr.synth_graph(n_nodes=100, k=5, seed=SYNTH_SEED)
    op = difference_operator(12, 1)
    worst_energy = 0.0
    worst_norm = 0.0
    worst_excess = -math.inf
    for seed in range(10):
        alpha = 0.5 + 0.4 * seed
        signal, innovations = tvgsr.synth_signal(graph, 12, alpha, seed=seed,
                                                 return_innovations=True)
        worst_energy = max(worst_energy, abs(float(np.sum(signal[:, 0] ** 2)) - 1e4))
        norms = np.linalg.norm(innovations, axis=0)
        worst_norm = max(worst_norm, float(np.abs(norms - alpha).max() / alpha))
        level = tvgsr.alpha_smoothness_level(signal, op, graph.laplacian)
        worst_excess = max(worst_excess, level - alpha**2)
    elapsed = time.perf_counter() - start
    ok = (worst_energy <= 1e-4 and worst_norm <= 1e-12 and worst_excess <= 1e-8
          and elapsed < 30.0)
    assert report(7, "synthetic generator contract", ok,
                  f"energy error {worst_energy:.2e}, norm error {worst_norm:.2e}, "
                  f"level excess {worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_8_reconstruction_quality_shape(synth100):
    """RMSE nonincreasing in density; tuned shifted penalty never loses to TGSR."""
    start = time.perf_counter()
    dataset, graph = synth100
    densities = (0.3, 0.45, 0.6, 0.75)
    repetitions = 20

    # upsilon fixed per method from a mid-density held-out repetition; epsilon
    # tuned per density with 0 in the grid (TGSR is the eps = 0 special case)
    upsilon = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="tgsr"),
                                    0.45, held_out_seed(0.45), epsilon_grid=(0.0,)).upsilon
    mean_rmse = {"tgsr": [], "sobolev": []}
    eps_choices = []
    for density in densities:
        eps_tuned = tvgsr.tune_parameters(
            dataset, graph, SolverConfig(upsilon=upsilon, objective="sobolev"),
            density, held_out_seed(density, 2), upsilon_grid=(upsilon,),
            epsilon_grid=(0.0, 0.01, 0.05, 0.1))
        eps_choices.append(eps_tuned.epsilon)
        plan = tvgsr.ExperimentPlan(
            regime="random_entry", levels=(density,), repetitions=repetitions,
            methods={
                "tgsr": SolverConfig(upsilon=upsilon, objective="tgsr"),
                "sobolev": SolverConfig(upsilon=upsilon, epsilon=eps_tuned.epsilon,
                                          objective="sobolev"),
            },
            base_seed=SYNTH_SEED)
        result = tvgsr.run_experiment(plan, dataset, graph)
        for aggregate in result.aggregates:
            mean_rmse[aggregate.method].append(aggregate.rmse)

    curve = mean_rmse["sobolev"]
    nonincreasing = all(curve[i + 1] <= curve[i] * 1.05 for i in range(len(curve) - 1))
    never_worse = all(s <= t for s, t in zip(mean_rmse["sobolev"], mean_rmse["tgsr"]))
    elapsed = time.perf_counter() - start
    ok = nonincreasing and never_worse and elapsed < 300.0
    detail = ", ".join(f"d={d}: {s:.4f} vs {t:.4f} (eps={e})"
                       for d, s, t, e in zip(densities, mean_rmse["sobolev"],
                                             mean_rmse["tgsr"], eps_choices))
    assert report(8, "reconstruction quality shape", ok, detail + f", {elapsed:.1f}s")


def test_criterion_9_noiseless_feasibility():
    """Noiseless CG iterates keep sampled entries bit-for-bit."""
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    for trial in range(10):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(3, 7))
        graph = random_geometric_graph(rng, n, 2)
        mask = tvgsr.random_entry_mask(n, m, 0.5, trial).mask
        if not mask.any():
            continue
        y = mask * rng.normal(size=(n, m)) * 50.0
        config = SolverConfig(epsilon=float(rng.uniform(0.0, 0.5)),
                              objective="sobolev", max_iter=200)
        result = tvgsr.solve_noiseless(y, mask, graph, config, record_iterates=True)
        sampled = mask > 0
        for iterate in result.iterates:
            assert np.array_equal(iterate[sampled], y[sampled])
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert report(9, "noiseless solver feasibility", ok,
                  f"10 instances, all iterates bit-exact on samples, {elapsed:.1f}s")


def test_criterion_10_optional_covid_reproduction():
    """Direction of the real-data comparison; needs user-supplied files."""
    data_dir = os.environ.get("TVGSR_COVID_DIR")
    if not data_dir:
        pytest.skip("set TVGSR_COVID_DIR to a directory with coords.csv and signal.csv")
    coords_path = os.path.join(data_dir, "coords.csv")
    signal_path = os.path.join(data_dir, "signal.csv")
    if not (os.path.exists(coords_path) and os.path.exists(signal_path)):
        pytest.skip(f"coords.csv/signal.csv not found under {data_dir}")
    dataset = tvgsr.load_dataset(coords_path, signal_path)
    graph = tvgsr.build_knn_graph(dataset.coords, 10)
    upsilon_t = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="tgsr"),
                                      0.7, held_out_seed(0.7),
                                      upsilon_grid=(1e-3, 1e-1, 10.0),
                                      epsilon_grid=(0.0,)).upsilon
    tuned_s = tvgsr.tune_parameters(dataset, graph, SolverConfig(objective="sobolev"),
                                    0.7, held_out_seed(0.7),
                                    upsilon_grid=(1e-3, 1e-1, 10.0),
                                    epsilon_grid=(0.0, 0.1, 0.5))
    plan = tvgsr.ExperimentPlan(
        regime="random_entry", levels=(0.5, 0.6, 0.7, 0.8, 0.9, 0.995),
        repetitions=10,
        methods={
            "tgsr": SolverConfig(upsilon=upsilon_t, objective="tgsr"),
            "sobolev": SolverConfig(upsilon=tuned_s.upsilon, epsilon=tuned_s.epsilon,
                                      objective="sobolev"),
        },
        base_seed=SYNTH_SEED)
    result = tvgsr.run_experiment(plan, dataset, graph)
    means = {}
    for method in plan.methods:
        means[method] = float(np.mean([a.rmse for a in result.aggregates
                                       if a.method == method]))
    ok = means["sobolev"] <= means["tgsr"]
    assert report(10, "real-data direction", ok,
                  f"mean RMSE {means['sobolev']:.2f} vs {means['tgsr']:.2f}")
