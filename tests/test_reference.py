"""Cross-checks of the whitened, vectorized algebra against references.

The package itself does not use scipy; these tests recompute every quadratic
form with ``scipy.linalg.cho_solve`` and every Gaussian tail with
``scipy.stats.norm`` and require agreement to rounding.  The location search
and ``mean_vector`` are checked bit for bit against a plain meshgrid /
``np.linalg.norm`` copy kept here, and the stacked ``verify_theorems`` and
stacked searches against the one-geometry-at-a-time loop they replace.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import norm

import lvsim
import lvsim.adversary as adversary
from lvsim.adversary import (
    AttackStrategy,
    SearchConfig,
    default_search_region,
    kl_drss,
    kl_rss,
    kl_rss_minimized,
    optimal_power_boost,
    optimize_true_location,
    refined_grid_cell,
)
from lvsim.channel import (
    GeometryError,
    NetworkGeometry,
    ShadowingModel,
    build_covariance,
    mean_vector,
)
from lvsim.detector import (
    DetectorSpec,
    RatePair,
    analytic_rates,
    build_d_matrix,
    default_threshold_grid,
    drss_transform,
    exact_auc,
    q_function,
    roc_sweep,
)
from lvsim.experiments import (
    MC_LOG_THRESHOLDS,
    CheckResult,
    VerificationReport,
    _VERIFY_BLOCK,
    _random_geometry,
    builtin_scenarios,
    detector_spec,
    resolve_attack,
    verify_theorems,
)

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


def test_boost_column_matches_scalar_calls(setups):
    # verify_theorems scores its boost scan as one column; gemm and gemv
    # round differently, so equality is to rounding, not bit for bit
    for geometry, model, x_t, _ in setups:
        boost = optimal_power_boost(geometry.claimed_mean, mean_vector(geometry, x_t), model)
        p_grid = boost + np.linspace(-5.0, 5.0, 21)
        column = kl_rss(p_grid[:, None], x_t, geometry, model)
        scalar = np.array([kl_rss(p, x_t, geometry, model) for p in p_grid])
        assert column.shape == (21,)
        assert np.max(np.abs(column - scalar) / scalar) <= 1e-14


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
    rates = analytic_rates(spec, lams)
    assert rates.alpha.shape == rates.beta.shape == lams.shape
    for lam, alpha, beta in zip(lams, rates.alpha.tolist(), rates.beta.tolist()):
        assert RatePair(alpha, beta) == analytic_rates(spec, float(lam))


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
        a = np.concatenate(([0.0], curve.alpha, [1.0]))
        b = np.concatenate(([0.0], curve.beta, [1.0]))
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


def reference_mean_vector(geometry, location):
    """mean_vector with the distances taken by np.linalg.norm."""
    loc = np.asarray(location, dtype=float)
    dist = np.linalg.norm(loc[..., None, :] - geometry.bs_positions, axis=-1)
    if np.any(dist == 0.0):
        raise GeometryError("location coincides with a base station")
    return geometry.ref_power_db - 10.0 * geometry.path_loss_exponent * np.log10(
        dist / geometry.ref_distance_m
    )


# the search's refinement schedule, stated here on its own: six passes,
# each halving the half-width
REFERENCE_PASSES = 6
REFERENCE_SHRINK = 0.5


def reference_argmin_lex(points, values):
    """Minimum value; ties within 1e-12 broken by lexicographic (x, y)."""
    vmin = values.min()
    mask = values <= vmin + 1e-12
    hits = mask.nonzero()[0]
    if hits.size == 1:
        return points[hits[0]], float(values[hits[0]])
    cand = points[hits]
    cand_vals = values[hits]
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    best = order[0]
    return cand[best], float(cand_vals[best])


def reference_search(objective, config, geometry, model):
    """The location search built from meshgrid / linspace / vstack grids.

    Feasibility makes one np.linalg.norm pass for the claim and one per
    station; scoring goes through the same public KL objectives.
    """
    evaluate = kl_rss_minimized if objective == "rss" else kl_drss
    xmin, xmax, ymin, ymax = default_search_region(geometry, config.min_distance)
    xc, r = geometry.claimed_location, config.min_distance

    def feasible(pts):
        ok = np.linalg.norm(pts - xc, axis=-1) >= r
        for b in geometry.bs_positions:
            ok &= np.linalg.norm(pts - b, axis=-1) > 0.0
        return ok

    def best(pts):
        pts = pts[feasible(pts)]
        return reference_argmin_lex(pts, np.atleast_1d(evaluate(pts, geometry, model)))

    step = config.coarse_grid_step
    xs = np.arange(xmin, xmax + 0.5 * step, step)
    ys = np.arange(ymin, ymax + 0.5 * step, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    incumbent, value = best(np.column_stack([gx.ravel(), gy.ravel()]))
    half = step
    for _ in range(REFERENCE_PASSES):
        lx = np.clip(np.linspace(incumbent[0] - half, incumbent[0] + half, 9), xmin, xmax)
        ly = np.clip(np.linspace(incumbent[1] - half, incumbent[1] + half, 9), ymin, ymax)
        gx, gy = np.meshgrid(lx, ly, indexing="ij")
        incumbent, value = best(np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), incumbent]))
        half *= REFERENCE_SHRINK
    boost = 0.0
    if objective == "rss":
        u = reference_mean_vector(geometry, geometry.claimed_location)
        boost = optimal_power_boost(u, reference_mean_vector(geometry, incumbent), model)
    return AttackStrategy(
        (float(incumbent[0]), float(incumbent[1])), boost, value, objective == "rss"
    )


@pytest.fixture(scope="module")
def deployments():
    """210 random deployments: r cycles over 50/100/250 m, every 4th has D_c = 0."""
    rng = np.random.default_rng(2718)
    out = []
    for k in range(210):
        geometry, model, _ = random_setup(rng)
        if k % 4 == 0:
            model = build_covariance(geometry, model.sigma_db, 0.0)
        out.append((geometry, model, (50.0, 100.0, 250.0)[k % 3]))
    return out


def test_mean_vector_equals_norm_form_bitwise(deployments):
    rng = np.random.default_rng(5)
    for geometry, _, _ in deployments:
        pts = rng.uniform(-800.0, 800.0, (64, 2))
        np.testing.assert_array_equal(
            mean_vector(geometry, pts), reference_mean_vector(geometry, pts)
        )
        np.testing.assert_array_equal(
            mean_vector(geometry, pts[0]), reference_mean_vector(geometry, pts[0])
        )


def test_search_equals_reference_bitwise(deployments, monkeypatch):
    assert sum(model.correlation_distance == 0.0 for _, model, _ in deployments) >= 50
    for geometry, model, r in deployments:
        config = SearchConfig(min_distance=r)
        for objective in ("rss", "drss"):
            got = optimize_true_location(objective, config, geometry, model)
            with monkeypatch.context() as patch:
                patch.setattr(adversary, "mean_vector", reference_mean_vector)
                want = reference_search(objective, config, geometry, model)
            assert got.true_location == want.true_location
            assert got.kl_nats == want.kl_nats
            assert got.power_boost_db == want.power_boost_db
            assert got.power_boost_relevant == want.power_boost_relevant


@pytest.mark.parametrize("objective", ["rss", "drss"])
def test_search_scores_reference_candidates(deployments, objective, monkeypatch):
    """Every KL call of the search gets the reference's points, bit for bit."""
    name = "kl_rss_minimized" if objective == "rss" else "kl_drss"
    original = getattr(adversary, name)
    calls = []

    def recording(x_t, *args):
        calls.append(np.array(x_t))
        return original(x_t, *args)

    monkeypatch.setattr(adversary, name, recording)
    monkeypatch.setitem(globals(), name, recording)
    for geometry, model, r in deployments[:30]:
        config = SearchConfig(min_distance=r)
        calls.clear()
        optimize_true_location(objective, config, geometry, model)
        got = list(calls)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(adversary, "mean_vector", reference_mean_vector)
            reference_search(objective, config, geometry, model)
        assert len(got) == len(calls) == 1 + REFERENCE_PASSES
        for a, b in zip(got, calls):
            np.testing.assert_array_equal(a, b)


def reference_verify(trials, seed):
    """verify_theorems as a loop over single geometries, one trial at a time.

    Each trial draws its geometry, then runs every check on it through the
    unstacked public functions: two location searches, one per objective.
    """
    rng = np.random.default_rng(seed)

    kl_identity = 0.0
    rate_identity = 0.0
    optimal_kl = 0.0
    optimizer_gap = 0.0
    optimizer_tol = 0.0
    boost_identity = 0.0
    boost_margin = np.inf
    dinv_err = 0.0
    closed_form_err = 0.0

    for _ in range(trials):
        geometry, x_t, sigma, dc, r = _random_geometry(rng)
        model = build_covariance(geometry, sigma, dc)
        u = geometry.claimed_mean
        v = mean_vector(geometry, x_t)
        boost = optimal_power_boost(u, v, model)
        ones = model.whitened_ones
        q = ones @ ones

        lhs = kl_rss_minimized(x_t, geometry, model)
        rhs = kl_drss(x_t, geometry, model)
        kl_identity = max(kl_identity, abs(lhs - rhs) / max(abs(rhs), 1e-300))

        strat = AttackStrategy(tuple(x_t), boost, lhs)
        drss_spec = detector_spec("drss", geometry, model, strat)
        for db in (1.0, 3.0, 10.0):
            for sign in (1.0, -1.0):
                dp = sign * db
                perturbed = AttackStrategy(tuple(x_t), boost + dp, 0.0)
                rss_s = detector_spec("rss", geometry, model, perturbed).separation
                excess = rss_s - drss_spec.separation
                boost_margin = min(boost_margin, excess)
                boost_identity = max(boost_identity, abs(excess - dp**2 * q) / rss_s)

        rss_spec = detector_spec("rss", geometry, model, strat)
        pr = analytic_rates(rss_spec, MC_LOG_THRESHOLDS)
        pd = analytic_rates(drss_spec, MC_LOG_THRESHOLDS)
        gap = np.abs(np.subtract((pr.alpha, pr.beta), (pd.alpha, pd.beta))).max()
        rate_identity = max(rate_identity, float(gap))

        region = default_search_region(geometry, r)
        step = max(region[1] - region[0], region[3] - region[2]) / 25.0
        cfg = SearchConfig(min_distance=r, coarse_grid_step=step)
        best_rss = optimize_true_location("rss", cfg, geometry, model)
        best_drss = optimize_true_location("drss", cfg, geometry, model)
        optimizer_gap = max(
            optimizer_gap,
            math.dist(best_rss.true_location, best_drss.true_location),
        )
        optimal_kl = max(
            optimal_kl,
            abs(best_rss.kl_nats - best_drss.kl_nats) / max(abs(best_drss.kl_nats), 1e-300),
        )
        optimizer_tol = max(optimizer_tol, math.sqrt(2.0) * refined_grid_cell(cfg))

        grid = np.linspace(-5.0, 5.0, 21)
        phi = kl_rss((boost + grid)[:, None], x_t, geometry, model)
        predicted = lhs + 0.5 * grid**2 * q
        boost_identity = max(boost_identity, float((np.abs(phi - predicted) / phi).max()))

        n = geometry.n_stations
        white = build_covariance(geometry, 1.0, 0.0)
        d_mat = build_d_matrix(white.covariance)
        dinv_err = max(
            dinv_err,
            float(
                np.abs(
                    np.linalg.inv(d_mat) - (np.eye(n - 1) - np.ones((n - 1, n - 1)) / n)
                ).max()
            ),
        )
        g = v - u
        expected = 0.5 * (np.sum(g**2) - np.sum(g) ** 2 / n)
        got = kl_rss_minimized(x_t, geometry, white)
        closed_form_err = max(
            closed_form_err, abs(got - expected) / max(abs(expected), 1e-300)
        )

    checks = (
        CheckResult("kl-identity-rss-drss", kl_identity < 1e-9, kl_identity, 1e-9),
        CheckResult("rate-identity-rss-drss", rate_identity < 1e-9, rate_identity, 1e-9),
        CheckResult("optimal-kl-identity-rss-drss", optimal_kl < 1e-9, optimal_kl, 1e-9),
        CheckResult(
            "location-optimizer-coincidence",
            optimizer_gap <= optimizer_tol,
            optimizer_gap,
            optimizer_tol,
        ),
        CheckResult(
            "boost-quadratic-identity",
            boost_identity <= 1e-9 and boost_margin > 0.0,
            float(boost_identity),
            1e-9,
        ),
        CheckResult("uncorrelated-d-inverse", dinv_err < 1e-9, dinv_err, 1e-9),
        CheckResult(
            "uncorrelated-closed-form-kl", closed_form_err < 1e-9, closed_form_err, 1e-9
        ),
    )
    return VerificationReport(checks=checks, trials=trials, seed=seed)


@pytest.mark.parametrize(
    "trials, seed",
    [(100, s) for s in (1, 2, 7, 11)] + [(5, s) for s in range(20)] + [(_VERIFY_BLOCK + 44, 3)],
)
def test_stacked_verify_equals_reference_bitwise(trials, seed):
    # every stacked reduction is a batched matmul whose slices round as the
    # per-geometry products do, so no discrepancy may move; the last case spans
    # two blocks of draws
    got, want = verify_theorems(trials, seed), reference_verify(trials, seed)
    assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]
    assert got.checks == want.checks
    assert got.to_json() == want.to_json()


@pytest.fixture(scope="module")
def deployment_stacks(deployments):
    """The deployments grouped by N: (geometries, models, configs, stacks)."""
    groups = {}
    for geometry, model, r in deployments:
        groups.setdefault(geometry.n_stations, []).append((geometry, model, SearchConfig(r)))
    return [
        (gs, ms, cs, NetworkGeometry.stack(gs), ShadowingModel.stack(ms))
        for gs, ms, cs in (zip(*group) for group in groups.values())
    ]


def test_stacked_search_equals_per_geometry_bitwise(deployment_stacks):
    searched = 0
    for geometries, models, configs, geometry, model in deployment_stacks:
        both = optimize_true_location(("rss", "drss"), configs, geometry, model)
        alone = [optimize_true_location(o, configs, geometry, model) for o in ("rss", "drss")]
        for objective, rows, solo in zip(("rss", "drss"), both, alone):
            assert len(rows) == len(solo) == len(geometries)
            for got, got_solo, g, m, c in zip(rows, solo, geometries, models, configs):
                want = optimize_true_location(objective, c, g, m)
                assert got == got_solo == want
                searched += 1
    assert searched == 420


def test_stacked_specs_equal_per_row_bitwise(deployment_stacks):
    """Spec stacks, as verify_theorems builds them, against one spec per row:
    direction, separation and rates, bit for bit."""
    rng = np.random.default_rng(31)
    offsets = np.array([1.0, -1.0, 3.0, -3.0, 10.0, -10.0])
    checked = 0
    for _, _, _, geometry, model in deployment_stacks:
        t = len(model.covariance)
        angle = rng.uniform(0.0, 2.0 * np.pi, t)
        ray = np.column_stack([np.cos(angle), np.sin(angle)])
        x_t = geometry.claimed_location + rng.uniform(100.0, 300.0, (t, 1)) * ray
        u = geometry.claimed_mean
        v = rng.uniform(-10.0, 10.0, (t, 1)) + mean_vector(geometry, x_t)
        cov, d_cov = model.covariance, build_d_matrix(model.covariance)
        stacks = {
            "rss": DetectorSpec("rss", u, v, cov),
            "drss": DetectorSpec("drss", drss_transform(u), drss_transform(v), d_cov),
            "boosts": DetectorSpec("rss", u[:, None], offsets[:, None] + v[:, None], cov[:, None]),
        }
        rates = {name: analytic_rates(spec, MC_LOG_THRESHOLDS) for name, spec in stacks.items()}
        at_zero = {name: analytic_rates(spec, 0.0) for name, spec in stacks.items()}
        for i in range(t):
            rows = {
                "rss": [DetectorSpec("rss", u[i], v[i], cov[i])],
                "drss": [
                    DetectorSpec("drss", drss_transform(u[i]), drss_transform(v[i]), d_cov[i])
                ],
                "boosts": [DetectorSpec("rss", u[i], b + v[i], cov[i]) for b in offsets],
            }
            for name, specs in rows.items():
                for j, one in enumerate(specs):
                    at = (i, j) if name == "boosts" else (i,)
                    np.testing.assert_array_equal(stacks[name]._direction[at], one._direction)
                    assert stacks[name].separation[at] == one.separation
                    want = analytic_rates(one, MC_LOG_THRESHOLDS)
                    np.testing.assert_array_equal(rates[name].alpha[at], want.alpha)
                    np.testing.assert_array_equal(rates[name].beta[at], want.beta)
                    want = analytic_rates(one, 0.0)
                    assert at_zero[name].alpha[at] == want.alpha
                    assert at_zero[name].beta[at] == want.beta
            checked += 1
    assert checked == 210


def test_stack_that_fits_is_one_search_call(deployment_stacks, monkeypatch):
    # one coarse chunk and one refinement chunk: the search makes one call of
    # each stage, as every single-geometry search does
    calls = []
    for name in ("_coarse", "_refine"):

        def counting(*args, _name=name, _stage=getattr(adversary, name)):
            calls.append(_name)
            return _stage(*args)

        monkeypatch.setattr(adversary, name, counting)
    geometries, models, configs, geometry, model = deployment_stacks[0]
    both = ("rss", "drss")
    want = optimize_true_location(both, configs[0], geometries[0], models[0])
    assert calls == ["_coarse", "_refine"]
    calls.clear()
    monkeypatch.setattr(adversary, "_CHUNK_NODES", 10**7)
    got = optimize_true_location(both, configs, geometry, model)
    assert calls == ["_coarse", "_refine"]
    assert tuple(rows[0] for rows in got) == want


def test_stacked_search_scores_in_chunks(deployment_stacks, monkeypatch):
    # no KL call scores more padded nodes than the chunk cap
    geometries, models, configs, geometry, model = deployment_stacks[0]
    monkeypatch.setattr(adversary, "_CHUNK_NODES", 2000)
    sizes = []
    original = adversary.kl_drss

    def recording(x_t, *args):
        sizes.append(np.shape(x_t))
        return original(x_t, *args)

    monkeypatch.setattr(adversary, "kl_drss", recording)
    rows = optimize_true_location("drss", configs, geometry, model)
    coarse = [shape for shape in sizes if shape[1] > 82]
    assert len(coarse) > 1
    assert sum(shape[0] for shape in coarse) == len(geometries)
    assert all(shape[0] * shape[1] <= 2000 or shape[0] == 1 for shape in coarse)
    refined = [shape for shape in sizes if shape[1] <= 82]
    width = 2000 // 82  # refinement rows per chunk: 82 points each
    assert len(geometries) > width
    assert len(sizes) == len(coarse) + -(-len(geometries) // width) * REFERENCE_PASSES
    assert all(shape[0] * shape[1] <= 2000 for shape in refined)
    assert rows == tuple(
        optimize_true_location("drss", c, g, m) for g, m, c in zip(geometries, models, configs)
    )


def test_two_objective_stacked_search_shares_coarse_chunks(deployment_stacks, monkeypatch):
    # the objectives share each coarse chunk's grid: its RSS and DRSS calls
    # score equal points, those of the one-objective search's chunk, and no
    # call scores more padded nodes than the chunk cap
    geometries, models, configs, geometry, model = deployment_stacks[0]
    monkeypatch.setattr(adversary, "_CHUNK_NODES", 2000)
    calls = {"kl_rss_minimized": [], "kl_drss": []}
    for name, recorded in calls.items():

        def recording(x_t, *args, _calls=recorded, _kl=getattr(adversary, name)):
            _calls.append(np.array(x_t))
            return _kl(x_t, *args)

        monkeypatch.setattr(adversary, name, recording)
    both = optimize_true_location(("rss", "drss"), configs, geometry, model)
    rss, drss = ([x for x in recorded if x.shape[1] > 82] for recorded in calls.values())
    calls["kl_drss"].clear()
    optimize_true_location("drss", configs, geometry, model)
    alone = [x for x in calls["kl_drss"] if x.shape[1] > 82]
    assert len(rss) == len(drss) == len(alone) > 1
    assert sum(len(x) for x in rss) == len(geometries)
    for a, b, c in zip(rss, drss, alone):
        assert len(a) * a.shape[1] <= 2000 or len(a) == 1
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
    for objective, rows in zip(("rss", "drss"), both):
        assert rows == tuple(
            optimize_true_location(objective, c, g, m)
            for g, m, c in zip(geometries, models, configs)
        )
