import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import multivariate_normal

from lvsim.channel import build_covariance, mean_vector, sample_observations
import lvsim.detector as detector
from lvsim.detector import (
    DegenerateSpecError,
    DetectorError,
    DetectorSpec,
    RatePair,
    analytic_rates,
    build_d_matrix,
    decide,
    default_threshold_grid,
    drss_transform,
    q_function,
    roc_sweep,
    roc_to_csv,
)

from lvsim.detector import test_statistic as linear_statistic

from conftest import CLAIMED


def make_spec(cov, mu0=None, mu1=None, mode="rss"):
    n = cov.shape[0]
    if mu0 is None:
        mu0 = np.zeros(n)
    if mu1 is None:
        mu1 = np.arange(1.0, n + 1.0)
    return DetectorSpec(mode=mode, mu0=mu0, mu1=mu1, cov=cov)


class TestDrssTransform:
    def test_two_element_difference(self):
        np.testing.assert_array_equal(drss_transform([3.0, 1.0]), [2.0])

    @given(st.floats(-1e6, 1e6))
    def test_common_offset_cancels(self, c):
        y = np.array([1.0, -2.5, 4.0, 0.5])
        np.testing.assert_allclose(drss_transform(y + c), drss_transform(y), atol=1e-9)

    def test_transformed_sample_covariance_matches_d(self, fig1_geometry, fig1_model):
        n = 100_000
        mean = mean_vector(fig1_geometry, CLAIMED)
        y = sample_observations(fig1_model, mean, np.random.default_rng(3), n)
        emp = np.cov(drss_transform(y).T)
        d = build_d_matrix(fig1_model.covariance)
        stderr = np.sqrt((np.outer(np.diag(d), np.diag(d)) + d**2) / n)
        assert np.all(np.abs(emp - d) <= 5 * stderr)


class TestDMatrix:
    def test_uncorrelated_structure(self):
        d = build_d_matrix(4.0 * np.eye(5))
        np.testing.assert_array_equal(d, 4.0 * (np.eye(4) + np.ones((4, 4))))

    def test_diagonal_formula(self, fig1_model):
        r = fig1_model.covariance
        d = build_d_matrix(r)
        for m in range(2):
            assert d[m, m] == pytest.approx(2 * (56.25 - r[m, 2]), rel=1e-14)

    def test_positive_definite(self, fig3_model):
        d = build_d_matrix(fig3_model.covariance)
        assert np.all(np.linalg.eigvalsh(d) > 0)


class TestStatistic:
    def test_zero_observation(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        assert linear_statistic(spec, np.zeros(3)) == 0.0

    def test_linearity(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        rng = np.random.default_rng(8)
        y1, y2 = rng.normal(size=(2, 3))
        a, b = 2.5, -1.25
        lhs = linear_statistic(spec, a * y1 + b * y2)
        rhs = a * linear_statistic(spec, y1) + b * linear_statistic(spec, y2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_log_ratio_reconstruction(self, fig1_geometry, fig1_model):
        # oracle: explicit difference of the two Gaussian log densities
        u = mean_vector(fig1_geometry, CLAIMED)
        w = u + np.array([2.0, -1.0, 0.5])
        spec = DetectorSpec(mode="rss", mu0=u, mu1=w, cov=fig1_model.covariance)
        offset = 0.5 * (w - u) @ np.linalg.solve(fig1_model.covariance, w + u)
        rng = np.random.default_rng(9)
        for _ in range(20):
            y = rng.normal(scale=30.0, size=3) + u
            log_ratio = multivariate_normal.logpdf(
                y, w, fig1_model.covariance
            ) - multivariate_normal.logpdf(y, u, fig1_model.covariance)
            assert linear_statistic(spec, y) - offset == pytest.approx(log_ratio, abs=1e-9)

    def test_dimension_mismatch(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        with pytest.raises(DetectorError):
            linear_statistic(spec, np.zeros(4))


class TestDecide:
    def test_means_fall_on_their_sides(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        assert not decide(spec, spec.mu0)
        assert decide(spec, spec.mu1)

    def test_tie_accepts_h1(self):
        e1 = np.array([1.0, 0.0, 0.0])
        spec = make_spec(np.eye(3), mu1=e1)
        # direction e1, threshold 0.5 and y = 0.5 * e1 are dyadic, so y @ c == t exactly
        y = spec.statistic_threshold(0.0) * e1
        assert linear_statistic(spec, y) == spec.statistic_threshold(0.0)
        assert decide(spec, y, 0.0)

    def test_vectorized(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        obs = np.vstack([spec.mu0, spec.mu1])
        np.testing.assert_array_equal(decide(spec, obs), [False, True])

    @pytest.mark.parametrize("shape", [(64,), (4, 16)])
    @pytest.mark.parametrize("log_threshold", [0.0, [-1.0, 0.0, 1.0], [[-1.0, 0.5], [0.0, 1.0]]])
    def test_matches_statistic_outer_threshold(self, shape, log_threshold):
        # direction e1 and statistic thresholds 0.5 + ln λ: dyadic, so the
        # first coordinate hits some thresholds exactly and ties are covered
        e1 = np.array([1.0, 0.0, 0.0])
        spec = make_spec(np.eye(3), mu1=e1)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(*shape, 3))
        obs[..., 0] = rng.choice([-1.5, -0.5, 0.5, 1.0, 1.5, 2.5], size=shape)
        expected = np.greater_equal.outer(
            linear_statistic(spec, obs), spec.statistic_threshold(np.asarray(log_threshold))
        )
        got = decide(spec, obs, log_threshold)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        assert expected.any() and not expected.all()


class TestSpecValidation:
    def test_equal_means_rejected(self, fig1_model):
        with pytest.raises(DegenerateSpecError):
            make_spec(fig1_model.covariance, mu1=np.zeros(3))

    def test_bad_mode_rejected(self, fig1_model):
        with pytest.raises(DetectorError):
            make_spec(fig1_model.covariance, mode="tdoa")

    def test_dimension_mismatch_rejected(self, fig1_model):
        with pytest.raises(DetectorError):
            DetectorSpec(mode="rss", mu0=np.zeros(2), mu1=np.ones(2), cov=fig1_model.covariance)


class TestSpecStacks:
    def test_stack_shape_and_rates(self, fig1_model):
        cov = fig1_model.covariance
        mu1 = np.arange(1.0, 25.0).reshape(4, 2, 3)
        stack = DetectorSpec("rss", np.zeros(3), mu1, cov)
        assert stack.separation.shape == (4, 2)
        rates = analytic_rates(stack, np.linspace(-2.0, 2.0, 5))
        assert rates.alpha.shape == rates.beta.shape == (4, 2, 5)
        assert not rates.alpha.flags.writeable
        assert analytic_rates(stack, 0.5).alpha.shape == (4, 2)

    def test_stacked_d_matrix_equals_per_row(self, fig1_model, fig3_model):
        covs = np.stack([fig1_model.covariance, fig3_model.covariance])
        stacked = build_d_matrix(covs)
        for cov, d in zip(covs, stacked):
            np.testing.assert_array_equal(d, build_d_matrix(cov))

    @pytest.mark.parametrize(
        "mu0, mu1, stack",
        [((2, 3), (3, 3), ()), ((4, 3), (4, 3), (2,))],
        ids=["means", "means-and-covariances"],
    )
    def test_mismatched_stack_shapes_named(self, fig1_model, mu0, mu1, stack):
        cov = np.broadcast_to(fig1_model.covariance, stack + (3, 3))
        with pytest.raises(DetectorError, match="do not broadcast"):
            DetectorSpec("rss", np.zeros(mu0), np.ones(mu1), cov)

    def test_degenerate_row_named(self, fig1_model):
        mu1 = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 5.0, 6.0]])
        with pytest.raises(DegenerateSpecError, match="identical"):
            DetectorSpec("rss", np.zeros(3), mu1, fig1_model.covariance)

    def test_underflowing_row_named(self, fig1_model):
        mu1 = np.array([[1.0, 2.0, 3.0], [1e-300, 0.0, 0.0]])
        with pytest.raises(DegenerateSpecError, match="non-positive separation"):
            DetectorSpec("rss", np.zeros(3), mu1, fig1_model.covariance)

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: decide(spec, np.zeros(3)),
            lambda spec: linear_statistic(spec, np.zeros(3)),
            lambda spec: roc_sweep(spec, [-1.0, 1.0]),
            lambda spec: spec.statistic_threshold(0.0),
        ],
        ids=["decide", "test_statistic", "roc_sweep", "statistic_threshold"],
    )
    def test_one_spec_functions_reject_a_stack(self, fig1_model, call):
        mu1 = np.arange(1.0, 7.0).reshape(2, 3)
        stack = DetectorSpec("rss", np.zeros(3), mu1, fig1_model.covariance)
        with pytest.raises(DetectorError, match="not a stack"):
            call(stack)


class TestAnalyticRates:
    def test_unit_threshold_symmetry(self, fig1_model):
        pair = analytic_rates(make_spec(fig1_model.covariance), 0.0)
        assert pair.beta == pytest.approx(1.0 - pair.alpha, abs=1e-14)

    def test_threshold_limits(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        lo = analytic_rates(spec, log_threshold=1e6)
        hi = analytic_rates(spec, log_threshold=-1e6)
        assert (lo.alpha, lo.beta) == (0.0, 0.0)
        assert (hi.alpha, hi.beta) == (1.0, 1.0)

    def test_infinite_thresholds_give_zero_and_one(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        assert analytic_rates(spec, np.inf) == RatePair(0.0, 0.0)
        assert analytic_rates(spec, -np.inf) == RatePair(1.0, 1.0)

    @pytest.mark.parametrize("lam", [np.nan, [0.0, np.nan], [[np.nan]]])
    def test_nan_threshold_named(self, fig1_model, lam):
        with pytest.raises(DetectorError, match="ln λ is NaN"):
            analytic_rates(make_spec(fig1_model.covariance), lam)

    def test_beta_is_shifted_alpha(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        s = spec.separation
        for lam in (-3.0, -0.5, 0.0, 1.7):
            assert analytic_rates(spec, lam).beta == pytest.approx(
                analytic_rates(spec, lam - s).alpha, rel=1e-12
            )

    def test_strictly_decreasing_in_threshold(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        lams = np.linspace(-4, 4, 30)
        pairs = [analytic_rates(spec, lam) for lam in lams]
        alphas = [p.alpha for p in pairs]
        betas = [p.beta for p in pairs]
        assert np.all(np.diff(alphas) < 0)
        assert np.all(np.diff(betas) < 0)

    def test_scale_coherence(self, fig1_model):
        cov = fig1_model.covariance
        base = make_spec(cov)
        c = 3.7
        scaled = DetectorSpec(
            mode="rss",
            mu0=base.mu0 * np.sqrt(c),
            mu1=base.mu1 * np.sqrt(c),
            cov=c * cov,
        )
        assert scaled.separation == pytest.approx(base.separation, rel=1e-12)
        for lam in (-1.0, 0.4):
            a, b = analytic_rates(base, lam), analytic_rates(scaled, lam)
            assert (a.alpha, a.beta) == pytest.approx((b.alpha, b.beta), rel=1e-12)

    def test_beta_dominates_alpha(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        for lam in np.linspace(-5, 5, 21):
            pair = analytic_rates(spec, lam)
            assert pair.beta >= pair.alpha


class TestRocSweep:
    def test_nan_threshold_named(self, fig1_model):
        with pytest.raises(DetectorError, match="ln λ is NaN"):
            roc_sweep(make_spec(fig1_model.covariance), [np.nan, 1.0])

    def test_auc_above_chance(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        curve = roc_sweep(spec, default_threshold_grid(spec.separation))
        assert curve.auc >= 0.5

    def test_vanishing_separation_approaches_diagonal(self, fig1_model):
        tiny = make_spec(fig1_model.covariance, mu1=np.full(3, 1e-6))
        curve = roc_sweep(tiny, default_threshold_grid(tiny.separation))
        assert curve.auc == pytest.approx(0.5, abs=1e-3)
        for alpha, beta in zip(curve.alpha, curve.beta):
            assert beta == pytest.approx(alpha, abs=1e-3)

    def test_points_sorted_by_alpha(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        curve = roc_sweep(spec, default_threshold_grid(spec.separation, 41))
        alphas = curve.alpha.tolist()
        assert alphas == sorted(alphas)

    def test_csv_round_trip(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        curve = roc_sweep(spec, np.linspace(-3, 3, 13))
        text = roc_to_csv(curve)
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        meta = dict(part.split("=") for part in text.splitlines()[-1][2:].split())
        assert float(meta["auc"]) == pytest.approx(curve.auc, rel=1e-11)
        assert float(meta["s"]) == pytest.approx(curve.separation, rel=1e-11)
        np.testing.assert_array_equal(table[:, 0], curve.thresholds)
        for a, b in zip(curve.alpha, table[:, 1]):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-15)
        for a, b in zip(curve.beta, table[:, 2]):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-15)

    def test_one_tail_call_and_no_per_threshold_pairs(self, fig1_model, monkeypatch):
        spec = make_spec(fig1_model.covariance)
        thresholds = default_threshold_grid(spec.separation)
        tails, pairs = [], []

        def counted_q(x):
            tails.append(np.shape(x))
            return q_function(x)

        def counted_pair(*args, **kwargs):
            pairs.append(RatePair(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(detector, "q_function", counted_q)
        monkeypatch.setattr(detector, "RatePair", counted_pair)
        curve = roc_sweep(spec, thresholds)
        assert tails == [(2, thresholds.size)]
        assert len(pairs) == 1
        assert curve.alpha is pairs[0].alpha and curve.beta is pairs[0].beta

    def test_rate_arrays_read_only_and_equal_scalar_calls(self, fig1_model):
        spec = make_spec(fig1_model.covariance)
        curve = roc_sweep(spec, default_threshold_grid(spec.separation, 41))
        for rates in (curve.alpha, curve.beta):
            assert rates.dtype == np.float64 and rates.shape == (41,)
            assert not rates.flags.writeable
            with pytest.raises(ValueError):
                rates[0] = 0.5
        for lam, alpha, beta in zip(curve.thresholds, curve.alpha, curve.beta):
            pair = analytic_rates(spec, lam)
            assert (alpha, beta) == (pair.alpha, pair.beta)
            assert type(pair.alpha) is float and type(pair.beta) is float


class TestRatePair:
    def test_out_of_range_rejected_in_one_check(self):
        for alpha, beta in ((1.5, 0.5), (0.5, -0.1), (np.nan, 0.5)):
            with pytest.raises(DetectorError):
                RatePair(alpha, beta)
        with pytest.raises(DetectorError):
            RatePair(np.array([0.1, 0.2]), np.array([0.3, 1.0 + 1e-12]))
        RatePair(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_equal_array_pairs(self):
        a = RatePair(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert a == RatePair(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert not a != RatePair(np.array([0.1, 0.2]), np.array([0.3, 0.4]))

    @pytest.mark.parametrize(
        "alpha, beta", [([0.1, 0.2], [0.3, 0.5]), ([0.1, 0.25], [0.3, 0.4]), ([0.1], [0.3])]
    )
    def test_unequal_array_pairs(self, alpha, beta):
        a = RatePair(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert a != RatePair(np.array(alpha), np.array(beta))

    def test_float_pair(self):
        assert RatePair(0.1, 0.3) == RatePair(0.1, 0.3)
        assert RatePair(0.1, 0.3) != RatePair(0.1, 0.4)
        assert RatePair(0.1, 0.3) != (0.1, 0.3)

    @pytest.mark.parametrize("pair", [RatePair(0.1, 0.3), RatePair(np.zeros(2), np.ones(2))])
    def test_unhashable(self, pair):
        with pytest.raises(TypeError, match="unhashable"):
            hash(pair)


@given(st.floats(-8.0, 8.0))
def test_q_function_complement(x):
    assert q_function(-x) == pytest.approx(1.0 - q_function(x), abs=1e-12)


@pytest.mark.parametrize(
    "x",
    [np.float64(0.7), np.linspace(-40.0, 40.0, 9), np.linspace(-6.0, 6.0, 8).reshape(2, 4)],
    ids=["0-d", "k", "2xk"],
)
def test_q_function_is_erfc_element_for_element(x):
    got = q_function(x)
    assert np.shape(got) == np.shape(x) and np.asarray(got).dtype == float
    assert np.ndim(x) or isinstance(got, float)  # a 0-d input gives a scalar
    want = [0.5 * math.erfc(v / math.sqrt(2.0)) for v in np.ravel(x).tolist()]
    assert np.ravel(got).tolist() == want
