"""Acceptance gate: one test per criterion, one pass/fail line each."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from lvsim.adversary import (
    SearchConfig,
    kl_drss,
    kl_rss,
    kl_rss_minimized,
    optimal_power_boost,
    optimize_true_location,
    refined_grid_cell,
)
from lvsim.channel import build_covariance, mean_vector, sample_observations
from lvsim.detector import analytic_rates, build_d_matrix, drss_transform, q_function
from lvsim.experiments import (
    builtin_scenario,
    builtin_scenarios,
    detector_spec,
    roc_stage,
    run_scenario,
)

from conftest import CLAIMED, random_setup


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def registry_results():
    return {s.name: run_scenario(s) for s in builtin_scenarios()}


def test_criterion_1_analytic_empirical_agreement(registry_results):
    worst = 0.0
    worst_rec = None
    for result in registry_results.values():
        for mr in result.modes.values():
            for rec in mr.mc_records:
                if rec["sigma"] > worst:
                    worst, worst_rec = rec["sigma"], rec
    ok = worst <= 3.89
    report(
        1,
        ok,
        f"MC vs closed-form rates, 6 scenarios x 2 modes x 5 thresholds at 1e5 "
        f"trials: worst deviation {worst:.2f}σ (gate 3.89σ) at {worst_rec}",
    )


def test_criterion_2_matched_boost_equivalence():
    rng = np.random.default_rng(202)
    worst_kl = 0.0
    worst_rate = 0.0
    for _ in range(100):
        geometry, model, x_t = random_setup(rng)
        lhs = kl_rss_minimized(x_t, geometry, model)
        rhs = kl_drss(x_t, geometry, model)
        worst_kl = max(worst_kl, abs(lhs - rhs) / abs(rhs))
        u = mean_vector(geometry, CLAIMED)
        v = mean_vector(geometry, x_t)
        boost = optimal_power_boost(u, v, model)
        from lvsim.adversary import AttackStrategy

        strat = AttackStrategy(tuple(x_t), boost, lhs)
        rss_spec = detector_spec("rss", geometry, model, strat)
        drss_spec = detector_spec("drss", geometry, model, strat)
        for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
            pr = analytic_rates(rss_spec, lam)
            pd = analytic_rates(drss_spec, lam)
            worst_rate = max(worst_rate, abs(pr.alpha - pd.alpha), abs(pr.beta - pd.beta))
    ok = worst_kl < 1e-9 and worst_rate < 1e-9
    report(
        2,
        ok,
        f"100 random geometries: quadratic-form identity rel err {worst_kl:.2e}, "
        f"rate agreement {worst_rate:.2e} (both < 1e-9)",
    )


def test_criterion_3_suboptimal_boost_dominance():
    rng = np.random.default_rng(303)
    min_margin = np.inf
    for _ in range(100):
        geometry, model, x_t = random_setup(rng)
        u = mean_vector(geometry, CLAIMED)
        v = mean_vector(geometry, x_t)
        boost = optimal_power_boost(u, v, model)
        from lvsim.adversary import AttackStrategy

        drss_s = detector_spec(
            "drss", geometry, model, AttackStrategy(tuple(x_t), boost, 0.0)
        ).separation
        for db in (1.0, 3.0, 10.0):
            for sign in (1.0, -1.0):
                strat = AttackStrategy(tuple(x_t), boost + sign * db, 0.0)
                rss_s = detector_spec("rss", geometry, model, strat).separation
                min_margin = min(min_margin, rss_s - drss_s)
    ok = min_margin > 0.0
    report(
        3,
        ok,
        f"perturbed-boost RSS separation exceeds DRSS on 100 geometries; "
        f"minimum margin {min_margin:.3e} (> 0)",
    )


def test_criterion_4_location_optimizers_coincide():
    scenario = builtin_scenario("fig3")
    model = scenario.shadowing()
    cfg = scenario.search_config()
    a = optimize_true_location("rss", cfg, scenario.geometry, model)
    b = optimize_true_location("drss", cfg, scenario.geometry, model)
    gap = math.dist(a.true_location, b.true_location)
    cell = math.sqrt(2) * refined_grid_cell(cfg)
    rel = abs(a.kl_nats - b.kl_nats) / abs(b.kl_nats)
    ok = gap <= cell and rel < 1e-6
    report(
        4,
        ok,
        f"RSS/DRSS searches: location gap {gap:.3g} m (cell {cell:.3g} m), "
        f"KL rel diff {rel:.2e} (< 1e-6)",
    )


def test_criterion_5_closed_form_boost_vs_numerical():
    rng = np.random.default_rng(505)
    worst = 0.0
    worst_convexity = 0.0
    for _ in range(100):
        geometry, model, x_t = random_setup(rng)
        u = mean_vector(geometry, CLAIMED)
        v = mean_vector(geometry, x_t)
        closed = optimal_power_boost(u, v, model)
        res = minimize_scalar(
            lambda p: kl_rss(p, x_t, geometry, model),
            bounds=(closed - 50.0, closed + 50.0),
            method="bounded",
            options={"xatol": 1e-9},
        )
        worst = max(worst, abs(closed - res.x))
        phi = np.array(
            [kl_rss(p, x_t, geometry, model) for p in closed + np.linspace(-5, 5, 21)]
        )
        worst_convexity = max(worst_convexity, float(-np.diff(phi, 2).min()))
    ok = worst < 1e-6 and worst_convexity <= 1e-9
    report(
        5,
        ok,
        f"closed-form boost vs 1-D minimization on 100 pairs: max gap {worst:.2e} dB "
        f"(< 1e-6); worst convexity violation {worst_convexity:.1e}",
    )


def test_criterion_6_correlation_benefit(registry_results):
    sweep = registry_results["fig4"].sweep
    aucs = [auc for *_, auc in sweep]
    ok = all(b > a for a, b in zip(aucs, aucs[1:]))
    # desk-scale counterpart of the reported detection-rate improvement
    betas = {}
    for dc in (0.0, 50.0):
        scenario = replace(builtin_scenario("fig4"), correlation_distance=dc)
        _, spec, _ = roc_stage(scenario, "rss", scenario.shadowing())
        betas[dc] = float(q_function(norm.isf(0.1) - math.sqrt(spec.separation)))
    ratio = betas[50.0] / betas[0.0]
    report(
        6,
        ok,
        f"AUC strictly increases over D_c {[f'{dc:g}:{auc:.6f}' for _, dc, auc in sweep]}; "
        f"detection-rate ratio at alpha=0.1 (D_c 50 vs 0): {ratio:.3f} (recorded)",
    )


def test_criterion_7_distance_benefit(registry_results):
    sweep = registry_results["fig6"].sweep
    aucs = [auc for *_, auc in sweep]
    ok = all(b > a for a, b in zip(aucs, aucs[1:]))
    report(
        7,
        ok,
        f"AUC strictly increases over r {[f'{r:g}:{auc:.6f}' for _, r, auc in sweep]}",
    )


def test_criterion_8_sampling_fidelity():
    scenario = builtin_scenario("fig1")
    model = scenario.shadowing()
    n = 100_000
    mean = mean_vector(scenario.geometry, CLAIMED)
    samples = sample_observations(model, mean, np.random.default_rng(808), n)

    r = model.covariance
    emp_r = np.cov(samples.T)
    stderr_r = np.sqrt((np.outer(np.diag(r), np.diag(r)) + r**2) / n)
    worst_r = float(np.max(np.abs(emp_r - r) / stderr_r))

    d = build_d_matrix(r)
    emp_d = np.cov(drss_transform(samples).T)
    stderr_d = np.sqrt((np.outer(np.diag(d), np.diag(d)) + d**2) / n)
    worst_d = float(np.max(np.abs(emp_d - d) / stderr_d))

    ok = worst_r <= 5.0 and worst_d <= 5.0
    report(
        8,
        ok,
        f"empirical covariance of 1e5 samples: worst entry {worst_r:.2f}x stderr vs R, "
        f"{worst_d:.2f}x stderr vs D (gate 5x)",
    )
