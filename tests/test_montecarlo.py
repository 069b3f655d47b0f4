import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lvsim.montecarlo
from lvsim.channel import mean_vector, sample_observations
from lvsim.detector import DetectorError, decide, drss_transform
from lvsim.detector import test_statistic as linear_statistic
from lvsim.experiments import (
    MC_LOG_THRESHOLDS,
    AttackPolicy,
    builtin_scenario,
    builtin_scenarios,
    detector_spec,
    resolve_attack,
    run_scenario,
)
from lvsim.montecarlo import (
    _BLOCK_ROWS,
    SUITE_Z,
    PlanError,
    TrialPlan,
    _stream,
    agreement_sigma,
    estimate_rate,
)


@pytest.fixture(scope="module")
def fig2_setup():
    scenario = builtin_scenario("fig2")
    model = scenario.shadowing()
    strategy = resolve_attack(scenario, "drss", model)
    return scenario, model, strategy


@pytest.fixture(scope="module")
def fig2_specs(fig2_setup):
    """Per mode: its attack strategy and the detector spec built for it."""
    scenario, model, _ = fig2_setup
    out = {}
    for mode in ("rss", "drss"):
        strategy = resolve_attack(scenario, mode, model)
        out[mode] = (strategy, detector_spec(mode, scenario.geometry, model, strategy))
    return out


def unblocked_rates(plan, specs, geometry, model, log_thresholds):
    """Reference: all rows in one draw, each threshold compared on its own.
    H1 rows are drawn at the unboosted mean; RSS scores them boosted."""
    mean, boost = geometry.claimed_mean, 0.0
    if plan.hypothesis == "h1":
        mean = mean_vector(geometry, plan.strategy.true_location)
        boost = plan.strategy.power_boost_db
    rng = _stream(plan.seed)
    y = sample_observations(model, mean, rng, plan.n_trials)
    rates = []
    for spec in specs:
        stat = linear_statistic(spec, drss_transform(y) if spec.mode == "drss" else y + boost)
        for lam in log_thresholds:
            accepted = np.count_nonzero(stat >= spec.statistic_threshold(lam))
            rates.append(accepted / plan.n_trials)
    return rates


class TestBlockedScoring:
    @pytest.mark.parametrize(
        "n_trials", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 17]
    )
    def test_rates_equal_one_unblocked_draw(self, fig2_setup, fig2_specs, n_trials):
        scenario, model, _ = fig2_setup
        geometry = scenario.geometry
        specs = tuple(spec for _, spec in fig2_specs.values())
        plans = [(TrialPlan(n_trials, seed=11, hypothesis="h0"), specs)]
        for k, (strategy, spec) in enumerate(fig2_specs.values()):
            plans.append((TrialPlan(n_trials, 12 + k, "h1", strategy), (spec,)))
        for plan, plan_specs in plans:
            got = estimate_rate(plan, plan_specs, geometry, model, MC_LOG_THRESHOLDS)
            assert [emp.rate for emp in got] == unblocked_rates(
                plan, plan_specs, geometry, model, MC_LOG_THRESHOLDS
            )
            assert all(emp.n_trials == n_trials for emp in got)

    def test_peak_memory_independent_of_trials(self, fig2_setup, fig2_specs):
        # one (100_000, 4) draw alone would be 3.2 MB
        scenario, model, _ = fig2_setup
        specs = tuple(spec for _, spec in fig2_specs.values())
        plan = TrialPlan(100_000, seed=13, hypothesis="h0")
        tracemalloc.start()
        try:
            estimate_rate(plan, specs, scenario.geometry, model, MC_LOG_THRESHOLDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestEstimateRate:
    def test_huge_threshold_rejects_everything(self, fig2_setup):
        scenario, model, strategy = fig2_setup
        spec = detector_spec("drss", scenario.geometry, model, strategy)
        for hyp in ("h0", "h1"):
            plan = TrialPlan(5000, seed=1, hypothesis=hyp, strategy=strategy)
            assert estimate_rate(plan, (spec,), scenario.geometry, model, (1e6,))[0].rate == 0.0

    def test_h0_matches_analytic_alpha(self, fig2_setup):
        scenario, model, strategy = fig2_setup
        from lvsim.detector import analytic_rates

        spec = detector_spec("drss", scenario.geometry, model, strategy)
        plan = TrialPlan(100_000, seed=2, hypothesis="h0")
        emp = estimate_rate(plan, (spec,), scenario.geometry, model)[0]
        assert abs(emp.rate - analytic_rates(spec).alpha) <= 3 * emp.stderr

    def test_h1_matches_analytic_beta(self, fig2_setup):
        scenario, model, strategy = fig2_setup
        from lvsim.detector import analytic_rates

        spec = detector_spec("drss", scenario.geometry, model, strategy)
        plan = TrialPlan(100_000, seed=3, hypothesis="h1", strategy=strategy)
        emp = estimate_rate(plan, (spec,), scenario.geometry, model)[0]
        assert abs(emp.rate - analytic_rates(spec).beta) <= 3 * emp.stderr

    def test_h0_rate_is_alpha_not_beta(self, fig2_setup):
        # hypothesis/spec wiring: legitimate traffic through the attack spec
        scenario, model, strategy = fig2_setup
        from lvsim.detector import analytic_rates

        spec = detector_spec("drss", scenario.geometry, model, strategy)
        rates = analytic_rates(spec)
        plan = TrialPlan(100_000, seed=4, hypothesis="h0")
        emp = estimate_rate(plan, (spec,), scenario.geometry, model)[0]
        assert abs(emp.rate - rates.alpha) <= 4 * emp.stderr
        assert abs(emp.rate - rates.beta) > 10 * emp.stderr

    def test_reproducible(self, fig2_setup):
        scenario, model, strategy = fig2_setup
        spec = detector_spec("drss", scenario.geometry, model, strategy)
        plan = TrialPlan(10_000, seed=5, hypothesis="h1", strategy=strategy)
        a = estimate_rate(plan, (spec,), scenario.geometry, model)[0]
        b = estimate_rate(plan, (spec,), scenario.geometry, model)[0]
        assert a == b

    def test_many_specs_score_like_single_calls(self, fig2_setup):
        scenario, model, strategy = fig2_setup
        lams = (-1.0, 0.0, 1.5)
        specs = tuple(
            detector_spec(mode, scenario.geometry, model, strategy) for mode in ("rss", "drss")
        )
        pairs = [(spec, lam) for spec in specs for lam in lams]
        plan = TrialPlan(10_000, seed=6, hypothesis="h0")
        joint = estimate_rate(plan, specs, scenario.geometry, model, lams)
        assert len(joint) == len(pairs)
        for (spec, lam), emp in zip(pairs, joint):
            assert emp == estimate_rate(plan, (spec,), scenario.geometry, model, (lam,))[0]

    @pytest.mark.parametrize("lam", [0.0, -1.5, np.float64(2.0)])
    def test_scalar_threshold_is_one_threshold(self, fig2_setup, lam):
        scenario, model, strategy = fig2_setup
        specs = tuple(
            detector_spec(mode, scenario.geometry, model, strategy) for mode in ("rss", "drss")
        )
        for plan in (
            TrialPlan(5000, seed=7, hypothesis="h0"),
            TrialPlan(5000, seed=8, hypothesis="h1", strategy=strategy),
        ):
            scalar = estimate_rate(plan, specs, scenario.geometry, model, lam)
            assert len(scalar) == len(specs)
            assert scalar == estimate_rate(plan, specs, scenario.geometry, model, (lam,))

    def test_no_thresholds_draw_nothing(self, fig2_setup, fig2_specs, monkeypatch):
        scenario, model, _ = fig2_setup
        specs = tuple(spec for _, spec in fig2_specs.values())
        calls = []
        monkeypatch.setattr(lvsim.montecarlo, "sample_observations", lambda *a: calls.append(a))
        plan = TrialPlan(1000, seed=0, hypothesis="h0")
        assert estimate_rate(plan, specs, scenario.geometry, model, ()) == ()
        assert calls == []

    @pytest.mark.parametrize("lam", [np.nan, [0.0, np.nan]])
    def test_nan_threshold_rejected_as_analytic_rates_does(self, fig2_setup, fig2_specs, lam):
        scenario, model, _ = fig2_setup
        _, spec = fig2_specs["rss"]
        with pytest.raises(DetectorError, match="ln λ is NaN"):
            decide(spec, scenario.geometry.claimed_mean, lam)
        plan = TrialPlan(100, seed=0, hypothesis="h0")
        with pytest.raises(DetectorError, match="ln λ is NaN"):
            estimate_rate(plan, (spec,), scenario.geometry, model, lam)

    def test_threshold_array_read_in_c_order(self, fig2_setup, fig2_specs):
        scenario, model, strategy = fig2_setup
        specs = tuple(spec for _, spec in fig2_specs.values())
        grid = np.array([[-1.0, 0.0], [1.5, 3.0]])
        for plan in (
            TrialPlan(5000, seed=9, hypothesis="h0"),
            TrialPlan(5000, seed=10, hypothesis="h1", strategy=strategy),
        ):
            flat = estimate_rate(plan, specs, scenario.geometry, model, grid.ravel())
            assert len(flat) == len(specs) * grid.size
            for lams in (grid, grid[None], grid.T.copy().T):
                assert estimate_rate(plan, specs, scenario.geometry, model, lams) == flat
            row = estimate_rate(plan, specs, scenario.geometry, model, grid[:1])
            assert row == flat[:2] + flat[4:6]

    def test_h1_without_strategy_rejected(self):
        with pytest.raises(PlanError):
            TrialPlan(100, seed=0, hypothesis="h1")

    def test_bad_plan_fields_rejected(self):
        with pytest.raises(PlanError):
            TrialPlan(0, seed=0, hypothesis="h0")
        with pytest.raises(PlanError):
            TrialPlan(10, seed=0, hypothesis="h2")

    @pytest.mark.parametrize("bad", [1000.0, 2.5, True])
    def test_non_integral_trials_rejected(self, bad):
        with pytest.raises(PlanError, match="n_trials"):
            TrialPlan(bad, seed=0, hypothesis="h0")

    def test_numpy_integer_trials_accepted(self):
        assert TrialPlan(np.int64(10), seed=0, hypothesis="h0").n_trials == 10


class TestDecisionPathKl:
    def test_h0_statistic_mean_matches_kl(self):
        # ln f0(y)/f1(y) = statistic_threshold(0) - T(y), so its H0 mean is
        # the KL divergence the attack strategy reports
        scenario = replace(
            builtin_scenario("fig3"), attack=AttackPolicy("fixed", (550.0, 5.0), 0.0)
        )
        model = scenario.shadowing()
        rng = np.random.default_rng(7)
        y = sample_observations(model, scenario.geometry.claimed_mean, rng, 200_000)
        for mode in ("rss", "drss"):
            strategy = resolve_attack(scenario, mode, model)
            spec = detector_spec(mode, scenario.geometry, model, strategy)
            obs = drss_transform(y) if mode == "drss" else y
            ratio = spec.statistic_threshold(0.0) - linear_statistic(spec, obs)
            stderr = ratio.std(ddof=1) / np.sqrt(ratio.size)
            assert abs(ratio.mean() - strategy.kl_nats) <= SUITE_Z * stderr, mode


class TestAgreementSigma:
    def test_zero_count_against_tiny_rate(self):
        from lvsim.montecarlo import EmpiricalRate

        emp = EmpiricalRate(rate=0.0, stderr=0.0, n_trials=100_000)
        assert agreement_sigma(emp, 3e-7) < 1.0

    def test_large_gap_flags(self):
        from lvsim.montecarlo import EmpiricalRate

        emp = EmpiricalRate(rate=0.5, stderr=0.0016, n_trials=100_000)
        assert agreement_sigma(emp, 0.4) > 3.89


# A draw whose RSS statistic lies closer than this to its threshold, relative
# to max(1, |threshold|), may be decided differently by rounding alone: the
# RSS direction and M^T times the DRSS one agree to about 1e-14 relative.
_DECISION_ROUNDING = 1e-9


def test_rss_and_drss_decide_alike_on_every_shared_draw(monkeypatch):
    # C2 and C3 per observation: at the matched boost both detectors compute
    # one log-likelihood ratio, so on the registry's shared H0 and H1 sets, at
    # full mc_trials, their decisions differ on no draw at any ln λ
    decisions, hypothesis = [], []
    stream, decide_real = lvsim.montecarlo._stream, lvsim.montecarlo.decide

    def keyed_stream(seed):
        hypothesis[:] = [("h0", "h1")[seed.spawn_key[0]]]
        return stream(seed)

    def recording(spec, obs, log_threshold):
        accepted = decide_real(spec, obs, log_threshold)
        thr = spec.statistic_threshold(np.asarray(log_threshold))
        margin = np.abs(linear_statistic(spec, obs)[:, None] - thr) / np.maximum(1.0, np.abs(thr))
        decisions.append((hypothesis[0], spec.mode, accepted, margin))
        return accepted

    monkeypatch.setattr(lvsim.montecarlo, "_stream", keyed_stream)
    monkeypatch.setattr(lvsim.montecarlo, "decide", recording)
    for scenario in builtin_scenarios():
        decisions.clear()
        run_scenario(scenario)
        # per block, the RSS spec then the DRSS spec score the same draws
        assert [d[:2] for d in decisions[1::2]] == [(h, "drss") for h, _, *_ in decisions[::2]]
        assert {d[:2] for d in decisions[::2]} == {("h0", "rss"), ("h1", "rss")}
        for (hyp, _, rss, margin), (_, _, drss, _) in zip(decisions[::2], decisions[1::2]):
            assert rss.shape == (len(rss), len(MC_LOG_THRESHOLDS))
            differ = rss != drss
            assert not np.any(differ & (margin > _DECISION_ROUNDING)), (scenario.name, hyp)
        h1_draws = sum(len(d[2]) for d in decisions[::2] if d[0] == "h1")
        assert h1_draws == scenario.mc_trials == 100_000
