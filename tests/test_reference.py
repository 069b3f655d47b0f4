"""Cross-checks of the whitened, vectorized algebra against scipy references.

The package itself does not use scipy; these tests recompute every quadratic
form with ``scipy.linalg.cho_solve`` and every Gaussian tail with
``scipy.stats.norm`` and require agreement to rounding.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import norm

import lvsim
from lvsim.adversary import kl_drss, kl_rss, kl_rss_minimized, optimal_power_boost
from lvsim.channel import mean_vector, sample_observations
from lvsim.detector import (
    DetectorSpec,
    analytic_rates,
    build_d_matrix,
    default_threshold_grid,
    drss_transform,
    exact_auc,
    q_function,
    roc_sweep,
)
from lvsim.experiments import builtin_scenarios, detector_spec, resolve_attack
from lvsim.montecarlo import estimate_kl

from conftest import CLAIMED, random_setup

REL = 1e-12


def rel_err(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def quad(cov, b):
    """b^T cov^-1 b through scipy's Cholesky solve."""
    return b @ cho_solve((np.linalg.cholesky(cov), True), b)


@pytest.fixture(scope="module")
def setups():
    rng = np.random.default_rng(1701)
    return [(*random_setup(rng), float(rng.uniform(-20.0, 20.0))) for _ in range(200)]


def test_whitener_inverts_the_cholesky_factor(setups):
    for _, model, _, _ in setups:
        n = model.covariance.shape[0]
        np.testing.assert_allclose(model.whitener @ model.chol_lower, np.eye(n), atol=1e-13)
        b = np.arange(1.0, n + 1.0)
        want = cho_solve((model.chol_lower, True), b)
        assert rel_err(model.solve(b), want) < REL


def test_kl_objectives_match_cho_solve(setups):
    for geometry, model, x_t, p_x in setups:
        r = model.covariance
        u = mean_vector(geometry, CLAIMED)
        v = mean_vector(geometry, x_t)
        g = v - u
        assert rel_err(kl_rss(p_x, x_t, geometry, model), 0.5 * quad(r, p_x + g)) < REL

        ones = np.ones(u.size)
        rinv_ones = cho_solve((np.linalg.cholesky(r), True), ones)
        boost = (u - v) @ rinv_ones / (ones @ rinv_ones)
        assert optimal_power_boost(u, v, model) == pytest.approx(boost, rel=REL, abs=REL)
        # the residual at the optimal boost, free of the q - b^2/a cancellation
        assert rel_err(kl_rss_minimized(x_t, geometry, model), 0.5 * quad(r, boost + g)) < REL

        delta = drss_transform(g)
        assert rel_err(kl_drss(x_t, geometry, model), 0.5 * quad(build_d_matrix(r), delta)) < REL


def test_vectorized_kl_matches_pointwise(setups):
    geometry, model, x_t, p_x = setups[0]
    pts = x_t + np.array([[0.0, 0.0], [40.0, -15.0], [-120.0, 60.0]])
    for fn, args in (
        (kl_rss, (p_x,)),
        (kl_rss_minimized, ()),
        (kl_drss, ()),
    ):
        batch = fn(*args, pts, geometry, model)
        for i, pt in enumerate(pts):
            assert batch[i] == pytest.approx(fn(*args, pt, geometry, model), rel=REL)


def test_estimate_kl_matches_cho_solve(setups):
    for k, (geometry, model, x_t, p_x) in enumerate(setups[:40]):
        est = estimate_kl(x_t, p_x, geometry, model, 500, seed=k)
        u = mean_vector(geometry, CLAIMED)
        m1 = p_x + mean_vector(geometry, x_t)
        y = sample_observations(model, u, np.random.Generator(np.random.Philox(k)), 500)
        factor = (model.chol_lower, True)
        d0, d1 = y - u, y - m1
        ratio = 0.5 * (
            np.einsum("ij,ji->i", d1, cho_solve(factor, d1.T))
            - np.einsum("ij,ji->i", d0, cho_solve(factor, d0.T))
        )
        assert rel_err(est.value, ratio.mean()) < REL
        assert rel_err(est.stderr, ratio.std(ddof=1) / np.sqrt(500)) < REL


def test_detector_direction_matches_cho_solve(setups):
    for geometry, model, x_t, _ in setups:
        u = mean_vector(geometry, CLAIMED)
        v = mean_vector(geometry, x_t)
        for cov, mu0, mu1 in (
            (model.covariance, u, v),
            (build_d_matrix(model.covariance), drss_transform(u), drss_transform(v)),
        ):
            spec = DetectorSpec("rss", mu0, mu1, cov)
            want = cho_solve((np.linalg.cholesky(cov), True), mu1 - mu0)
            assert rel_err(spec._direction, want) < REL
            assert rel_err(spec.separation, (mu1 - mu0) @ want) < REL


def test_q_function_matches_scipy():
    x = np.linspace(-10.0, 20.0, 30_001)
    assert np.max(np.abs(q_function(x) - norm.sf(x)) / norm.sf(x)) < REL


def test_array_rates_equal_scalar_calls(fig1_model):
    spec = DetectorSpec("rss", np.zeros(3), np.arange(1.0, 4.0), fig1_model.covariance)
    lams = np.concatenate((default_threshold_grid(spec.separation), [-1e6, 0.0, 1e6]))
    pairs = analytic_rates(spec, lams)
    assert len(pairs) == lams.size
    for lam, pair in zip(lams, pairs):
        assert pair == analytic_rates(spec, float(lam))


@pytest.fixture(scope="module")
def registry_specs():
    specs = []
    for scenario in builtin_scenarios():
        model = scenario.shadowing()
        for mode in scenario.modes:
            strategy = resolve_attack(scenario, mode, model)
            specs.append(detector_spec(mode, scenario.geometry, model, strategy))
    return specs


def test_exact_auc_is_normal_cdf(registry_specs):
    for spec in registry_specs:
        want = norm.cdf(np.sqrt(spec.separation / 2.0))
        assert exact_auc(spec.separation) == pytest.approx(want, rel=1e-15)


def test_trapezoid_auc_lies_just_below_exact(registry_specs):
    for spec in registry_specs:
        curve = roc_sweep(spec, default_threshold_grid(spec.separation))
        a = np.concatenate(([0.0], [p.alpha for p in curve.points], [1.0]))
        b = np.concatenate(([0.0], [p.beta for p in curve.points], [1.0]))
        trapezoid = float(np.sum(np.diff(a) * (b[1:] + b[:-1]) / 2.0))
        assert curve.auc == exact_auc(spec.separation)
        assert trapezoid < curve.auc < trapezoid + 1e-4


def test_import_does_not_load_scipy():
    src = str(Path(lvsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = "import sys, lvsim, lvsim.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "importing lvsim loaded scipy"
