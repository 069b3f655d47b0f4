import numpy as np
import pytest

from lvsim.adversary import kl_rss
from lvsim.experiments import builtin_scenario, detector_spec, resolve_attack
from lvsim.montecarlo import (
    KlEstimate,
    PlanError,
    TrialPlan,
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

    def test_h1_without_strategy_rejected(self):
        with pytest.raises(PlanError):
            TrialPlan(100, seed=0, hypothesis="h1")

    def test_bad_plan_fields_rejected(self):
        with pytest.raises(PlanError):
            TrialPlan(0, seed=0, hypothesis="h0")
        with pytest.raises(PlanError):
            TrialPlan(10, seed=0, hypothesis="h2")


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
