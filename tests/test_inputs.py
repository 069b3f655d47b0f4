"""Every number lvsim is handed is checked and converted when it is built.

Each input below was once accepted, or escaped as a bare TypeError or
ValueError; each must now raise its type's named error, naming the field.
"""

from dataclasses import replace

import numpy as np
import pytest

from lvsim.adversary import SearchConfig, SearchError
from lvsim.channel import CovarianceError, GeometryError, NetworkGeometry, build_covariance
from lvsim.experiments import AttackPolicy, ScenarioError, builtin_scenario, verify_theorems
from lvsim.montecarlo import PlanError, TrialPlan

from conftest import CLAIMED, FIG1_BS, make_geometry


def fig1(**changes):
    return replace(builtin_scenario("fig1"), **changes)


def covariance(sigma=5.0, dc=50.0):
    return build_covariance(make_geometry(FIG1_BS), sigma, dc)


def plan(seed):
    return TrialPlan(10, seed=seed, hypothesis="h0")


NUMERIC_STRINGS = [["-250", "10"], ["0", "-10"], ["250", "10"]]

PROBES = [
    (GeometryError, "path loss exponent", lambda: make_geometry(FIG1_BS, gamma=[3.0])),
    (GeometryError, "path loss exponent", lambda: make_geometry(FIG1_BS, gamma="3")),
    (GeometryError, "path loss exponent", lambda: make_geometry(FIG1_BS, gamma=True)),
    (
        GeometryError,
        "bs_positions",
        lambda: NetworkGeometry(NUMERIC_STRINGS, CLAIMED, -10.0, 1.0, 3.0),
    ),
    (CovarianceError, "sigma_db", lambda: covariance(sigma="5")),
    (CovarianceError, "sigma_db", lambda: covariance(sigma=None)),
    (CovarianceError, "sigma_db", lambda: covariance(sigma=np.array([5.0, 5.0]))),
    (CovarianceError, "correlation_distance", lambda: covariance(dc="50")),
    (SearchError, "min_distance", lambda: SearchConfig("100")),
    (SearchError, "min_distance", lambda: SearchConfig(None)),
    (ScenarioError, "true_location", lambda: AttackPolicy("fixed-location", ("a", "b"))),
    (ScenarioError, "true_location", lambda: AttackPolicy("fixed-location", 5.0)),
    (ScenarioError, "power_boost_db", lambda: AttackPolicy("fixed", (650.0, 5.0), "3")),
    (ScenarioError, "dc_values", lambda: fig1(dc_values=("a",))),
    (ScenarioError, "thresholds", lambda: fig1(thresholds=(0.0, "a"))),
    (ScenarioError, "thresholds", lambda: fig1(thresholds=1.0)),
    (ScenarioError, "r_values", lambda: fig1(r_values=("a",))),
    (ScenarioError, "min_distance", lambda: fig1(min_distance="500")),
    (ScenarioError, "sigma_db", lambda: fig1(sigma_db="5")),
    (ScenarioError, "correlation_distance", lambda: fig1(correlation_distance=None)),
    (ScenarioError, "name", lambda: fig1(name=3)),
    (ScenarioError, "modes", lambda: fig1(modes="rss")),
    (PlanError, "seed", lambda: plan("1")),
    (PlanError, "seed", lambda: plan(-1)),
]
PROBE_IDS = [
    "exponent-list",
    "exponent-str",
    "exponent-bool",
    "coordinates-str",
    "cov-sigma-str",
    "cov-sigma-none",
    "cov-sigma-array",
    "cov-dc-str",
    "search-r-str",
    "search-r-none",
    "true-location-str",
    "true-location-number",
    "boost-str",
    "dc-values-str",
    "thresholds-str",
    "thresholds-number",
    "r-values-str",
    "min-distance-str",
    "sigma-str",
    "dc-none",
    "name-int",
    "modes-str",
    "plan-seed-str",
    "plan-seed-negative",
]


@pytest.mark.parametrize("error, field, build", PROBES, ids=PROBE_IDS)
def test_bad_input_raises_its_named_error(error, field, build):
    with pytest.raises(error, match=field):
        build()


@pytest.mark.parametrize(
    "error, field, build",
    [
        (GeometryError, "path loss exponent", lambda: make_geometry(FIG1_BS, gamma=[[1], [1, 2]])),
        (GeometryError, "reference power", lambda: make_geometry(FIG1_BS, p=np.bool_(True))),
        (GeometryError, "reference distance", lambda: make_geometry(FIG1_BS, d=1.0 + 0.0j)),
        (SearchError, "coarse_grid_step", lambda: SearchConfig(100.0, [25.0])),
        (ScenarioError, "mc_trials", lambda: fig1(mc_trials="1000")),
        (ScenarioError, "dc_values", lambda: fig1(dc_values=((1.0, 2.0),))),
        (ScenarioError, "trials", lambda: verify_theorems("5")),
        (PlanError, "n_trials", lambda: TrialPlan(None, seed=0, hypothesis="h0")),
    ],
    ids=["ragged", "numpy-bool", "complex", "step-list", "count-str", "nested", "trials", "none"],
)
def test_other_malformed_numbers_raise_named_errors(error, field, build):
    with pytest.raises(error, match=field):
        build()


class TestIntegersBecomeFloats:
    def test_search_config(self):
        config = SearchConfig(100, np.int64(20))
        assert config == SearchConfig(100.0, 20.0)
        assert type(config.min_distance) is float and type(config.coarse_grid_step) is float

    def test_geometry_scalars(self):
        one = make_geometry(FIG1_BS, p=-10, d=1, gamma=np.int64(3))
        scalars = (one.ref_power_db, one.ref_distance_m, one.path_loss_exponent)
        assert [type(v) for v in scalars] == [float] * 3
        assert one == make_geometry(FIG1_BS)
        stack = make_geometry(np.stack([FIG1_BS] * 2), claimed=[CLAIMED] * 2, gamma=[3, 3])
        assert stack.path_loss_exponent.dtype == float
        np.testing.assert_array_equal(stack.ref_power_db, [-10.0, -10.0])

    def test_integer_coordinates(self):
        geometry = NetworkGeometry([[-250, 10], [0, -10], [250, 10]], (50, 5), -10.0, 1.0, 3.0)
        assert geometry.bs_positions.dtype == float and geometry.claimed_location.dtype == float
        assert geometry == make_geometry(FIG1_BS)

    def test_covariance(self):
        model = covariance(sigma=5, dc=50)
        assert type(model.sigma_db) is float and type(model.correlation_distance) is float
        np.testing.assert_array_equal(model.covariance, covariance().covariance)

    def test_attack_policy(self):
        policy = AttackPolicy("fixed", [600, np.int64(5)], 3)
        assert policy.true_location == (600.0, 5.0)
        assert [type(x) for x in policy.true_location] == [float, float]
        assert type(policy.power_boost_db) is float

    def test_scenario(self):
        scenario = fig1(sigma_db=7, min_distance=500, dc_values=[0, 50], mc_trials=np.int64(1000))
        assert type(scenario.sigma_db) is float and type(scenario.min_distance) is float
        assert scenario.dc_values == (0.0, 50.0) and type(scenario.dc_values[0]) is float
        assert type(scenario.mc_trials) is int and scenario.mc_trials == 1000

    def test_plan(self):
        trial = TrialPlan(np.int64(10), seed=np.uint32(3), hypothesis="h0")
        assert (trial.n_trials, trial.seed) == (10, 3)
        assert type(trial.n_trials) is int and type(trial.seed) is int

    def test_seed_sequence_is_kept(self):
        seed = np.random.SeedSequence(5, spawn_key=(1,))
        assert plan(seed).seed is seed
