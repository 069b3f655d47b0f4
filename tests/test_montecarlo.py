import tracemalloc

import numpy as np
import pytest

from lvsim.adversary import kl_rss
from lvsim.channel import mean_vector, sample_observations
from lvsim.detector import drss_transform
from lvsim.detector import test_statistic as linear_statistic
from lvsim.experiments import MC_LOG_THRESHOLDS, builtin_scenario, detector_spec, resolve_attack
from lvsim.montecarlo import (
    _BLOCK_ROWS,
    KlEstimate,
    PlanError,
    TrialPlan,
    _stream,
    agreement_sigma,
    estimate_kl,
    estimate_rate,
)

from conftest import CLAIMED


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
    """Reference: all rows in one draw, each threshold compared on its own."""
    if plan.hypothesis == "h0":
        mean = geometry.claimed_mean
    else:
        strategy = plan.strategy
        mean = strategy.power_boost_db + mean_vector(geometry, strategy.true_location)
    rng = _stream(plan.seed)
    y = sample_observations(model, mean, rng, plan.n_trials)
    rates = []
    for spec in specs:
        stat = linear_statistic(spec, drss_transform(y) if spec.mode == "drss" else y)
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


class TestEstimateKl:
    def test_zero_at_legitimate_configuration(self, fig3_geometry, fig3_model):
        est = estimate_kl(CLAIMED, 0.0, fig3_geometry, fig3_model, 20_000, seed=6)
        assert abs(est.value) <= max(3 * est.stderr, 1e-12)

    def test_matches_closed_form(self, fig3_geometry, fig3_model):
        x_t, p_x = [550.0, 5.0], 0.0
        est = estimate_kl(x_t, p_x, fig3_geometry, fig3_model, 1_000_000, seed=7)
        closed = kl_rss(p_x, x_t, fig3_geometry, fig3_model)
        assert abs(est.value - closed) <= 3 * est.stderr

    def test_stderr_scales_inverse_sqrt(self, fig3_geometry, fig3_model):
        x_t = [300.0, 5.0]
        small = estimate_kl(x_t, 2.0, fig3_geometry, fig3_model, 25_000, seed=8)
        large = estimate_kl(x_t, 2.0, fig3_geometry, fig3_model, 100_000, seed=8)
        assert large.stderr == pytest.approx(small.stderr / 2, rel=0.15)

    @pytest.mark.parametrize("bad", [1000.0, 2.5, True])
    def test_non_integral_samples_rejected(self, fig3_geometry, fig3_model, bad):
        with pytest.raises(PlanError, match="n_samples"):
            estimate_kl([300.0, 5.0], 0.0, fig3_geometry, fig3_model, bad, seed=9)

    def test_returns_estimate_object(self, fig3_geometry, fig3_model):
        est = estimate_kl([300.0, 5.0], 0.0, fig3_geometry, fig3_model, 100, seed=9)
        assert isinstance(est, KlEstimate)
        assert est.n_samples == 100


class TestAgreementSigma:
    def test_zero_count_against_tiny_rate(self):
        from lvsim.montecarlo import EmpiricalRate

        emp = EmpiricalRate(rate=0.0, stderr=0.0, n_trials=100_000)
        assert agreement_sigma(emp, 3e-7) < 1.0

    def test_large_gap_flags(self):
        from lvsim.montecarlo import EmpiricalRate

        emp = EmpiricalRate(rate=0.5, stderr=0.0016, n_trials=100_000)
        assert agreement_sigma(emp, 0.4) > 3.89
