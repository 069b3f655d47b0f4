import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import lvsim.adversary as adversary
from lvsim.adversary import (
    SearchConfig,
    SearchError,
    default_search_region,
    kl_drss,
    kl_rss,
    kl_rss_minimized,
    optimal_power_boost,
    optimize_true_location,
    refined_grid_cell,
)
from lvsim.channel import NetworkGeometry, ShadowingModel, build_covariance, mean_vector

from conftest import CLAIMED, make_geometry, random_setup


def boost_oracle(x_t, geometry, model):
    """Independent 1-D numerical minimization of the KL over the boost."""
    res = minimize_scalar(
        lambda p: kl_rss(p, x_t, geometry, model),
        bounds=(-200.0, 200.0),
        method="bounded",
        options={"xatol": 1e-9},
    )
    return res.x


def boxed_geometry(region, r):
    """Three stations whose default search box for radius ``r`` is ``region``:
    corners of ``region`` shrunk by 2r per side."""
    xmin, xmax, ymin, ymax = region
    pad = 2.0 * r
    corners = [[xmin + pad, ymin + pad], [xmax - pad, ymax - pad], [xmin + pad, ymax - pad]]
    return make_geometry(corners)


class TestOptimalPowerBoost:
    def test_zero_when_location_matches_claim(self, fig1_geometry, fig1_model):
        u = mean_vector(fig1_geometry, CLAIMED)
        assert optimal_power_boost(u, u, fig1_model) == 0.0

    def test_uncorrelated_case_is_arithmetic_mean(self, fig1_geometry):
        model = build_covariance(fig1_geometry, 7.5, 0.0)
        u = mean_vector(fig1_geometry, CLAIMED)
        v = mean_vector(fig1_geometry, [600.0, 5.0])
        got = optimal_power_boost(u, v, model)
        assert got == pytest.approx(np.mean(u - v), rel=1e-12)

    def test_matches_numerical_minimization(self, fig1_geometry, fig1_model):
        x_t = [550.0, 5.0]  # on the exclusion circle
        u = mean_vector(fig1_geometry, CLAIMED)
        v = mean_vector(fig1_geometry, x_t)
        closed = optimal_power_boost(u, v, fig1_model)
        assert closed == pytest.approx(boost_oracle(x_t, fig1_geometry, fig1_model), abs=1e-6)

    def test_singular_covariance_raises(self, fig1_geometry):
        u = mean_vector(fig1_geometry, CLAIMED)
        v = mean_vector(fig1_geometry, [600.0, 5.0])
        # infinite correlation distance gives the rank-1 covariance sigma^2 11^T
        with pytest.raises(ValueError):
            optimal_power_boost(u, v, build_covariance(fig1_geometry, 7.5, math.inf))


class TestKlRss:
    def test_zero_at_legitimate_configuration(self, fig1_geometry, fig1_model):
        assert kl_rss(0.0, CLAIMED, fig1_geometry, fig1_model) == pytest.approx(0.0, abs=1e-18)

    def test_nonnegative(self, fig1_geometry, fig1_model):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_t = rng.uniform(-600, 600, 2)
            p = rng.uniform(-30, 30)
            assert kl_rss(p, x_t, fig1_geometry, fig1_model) >= 0.0

    def test_convex_in_boost_with_closed_form_minimum(self, fig1_geometry, fig1_model):
        x_t = [550.0, 5.0]
        u = mean_vector(fig1_geometry, CLAIMED)
        v = mean_vector(fig1_geometry, x_t)
        opt = optimal_power_boost(u, v, fig1_model)
        grid = opt + np.linspace(-10, 10, 41)
        phi = np.array([kl_rss(p, x_t, fig1_geometry, fig1_model) for p in grid])
        assert np.all(np.diff(phi, 2) >= -1e-9)
        kl_min = kl_rss_minimized(x_t, fig1_geometry, fig1_model)
        assert np.all(phi >= kl_min - 1e-12)


class TestMinimizedKl:
    def test_consistency_with_closed_form_boost(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            geometry, model, x_t = random_setup(rng)
            u = mean_vector(geometry, CLAIMED)
            v = mean_vector(geometry, x_t)
            boost = optimal_power_boost(u, v, model)
            direct = kl_rss(boost, x_t, geometry, model)
            closed = kl_rss_minimized(x_t, geometry, model)
            assert closed == pytest.approx(direct, rel=1e-12)

    def test_equals_drss_kl(self):
        # dual-path evaluation of the two quadratic forms
        rng = np.random.default_rng(13)
        for _ in range(10):
            geometry, model, x_t = random_setup(rng)
            lhs = kl_rss_minimized(x_t, geometry, model)
            rhs = kl_drss(x_t, geometry, model)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_fig3_boundary_point_identity(self, fig3_geometry, fig3_model):
        x_t = [CLAIMED[0] + 100.0, CLAIMED[1]]
        lhs = kl_rss_minimized(x_t, fig3_geometry, fig3_model)
        rhs = kl_drss(x_t, fig3_geometry, fig3_model)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_uncorrelated_summation_closed_form(self, fig1_geometry):
        model = build_covariance(fig1_geometry, 1.0, 0.0)
        x_t = [700.0, 5.0]
        g = mean_vector(fig1_geometry, x_t) - mean_vector(fig1_geometry, CLAIMED)
        expected = 0.5 * (np.sum(g**2) - np.sum(g) ** 2 / g.size)
        assert kl_rss_minimized(x_t, fig1_geometry, model) == pytest.approx(expected, rel=1e-12)


class TestClaimedMeanReuse:
    @pytest.mark.parametrize("objective", [kl_rss_minimized, kl_drss])
    def test_batched_call_evaluates_mean_vector_once(
        self, fig1_geometry, fig1_model, monkeypatch, objective
    ):
        calls = []

        def counting(geometry, location):
            calls.append(np.shape(location))
            return mean_vector(geometry, location)

        monkeypatch.setattr(adversary, "mean_vector", counting)
        pts = np.array([[600.0, 5.0], [50.0, 600.0], [-500.0, -40.0]])
        objective(pts, fig1_geometry, fig1_model)
        assert calls == [(3, 2)]


class TestStackedObjectives:
    """Stacked KL objectives and boosts equal the per-geometry calls."""

    @pytest.fixture(scope="class")
    def stack(self):
        rng = np.random.default_rng(44)
        setups = []
        while len(setups) < 6:
            setup = random_setup(rng)
            if setup[0].n_stations == 4:
                setups.append(setup)
        geometries, models, x_t = zip(*setups)
        return (
            setups,
            NetworkGeometry.stack(geometries),
            ShadowingModel.stack(models),
            np.stack(x_t),
        )

    def test_single_points(self, stack):
        setups, geometry, model, x_t = stack
        boosts = optimal_power_boost(geometry.claimed_mean, mean_vector(geometry, x_t), model)
        assert boosts.shape == (6,)
        for objective in (kl_rss_minimized, kl_drss):
            got = objective(x_t, geometry, model)
            assert got.shape == (6,)
            for t, (g, m, x) in enumerate(setups):
                assert got[t] == objective(x, g, m)
        for t, (g, m, x) in enumerate(setups):
            assert boosts[t] == optimal_power_boost(g.claimed_mean, mean_vector(g, x), m)

    def test_point_grids_and_boost_columns(self, stack):
        setups, geometry, model, x_t = stack
        pts = x_t[:, None, :] + np.random.default_rng(5).uniform(-90.0, 90.0, (6, 7, 2))
        p_grid = np.linspace(-5.0, 5.0, 21) + np.arange(6.0)[:, None]
        column = kl_rss(p_grid[..., None], x_t[:, None], geometry, model)
        assert column.shape == (6, 21)
        for t, (g, m, x) in enumerate(setups):
            np.testing.assert_array_equal(column[t], kl_rss(p_grid[t, :, None], x, g, m))
            for objective in (kl_rss_minimized, kl_drss):
                np.testing.assert_array_equal(
                    objective(pts, geometry, model)[t], objective(pts[t], g, m)
                )

    def test_search_takes_one_config_per_row(self, stack):
        _, geometry, model, _ = stack
        with pytest.raises(SearchError, match="6 geometries need as many search configs, got 5"):
            optimize_true_location("drss", [SearchConfig(100.0)] * 5, geometry, model)
        with pytest.raises(SearchError, match="unknown objective"):
            optimize_true_location(("rss", "both"), [SearchConfig(100.0)] * 6, geometry, model)
        with pytest.raises(SearchError, match="one geometry"):
            default_search_region(geometry, 100.0)


class TestKlDrss:
    def test_zero_at_claimed_location(self, fig3_geometry, fig3_model):
        assert kl_drss(CLAIMED, fig3_geometry, fig3_model) == pytest.approx(0.0, abs=1e-18)

    def test_invariant_to_common_power_shift(self, fig3_geometry, fig3_model):
        # shifting the reference power changes v by a constant only
        base = kl_drss([300.0, 5.0], fig3_geometry, fig3_model)
        from conftest import FIG3_BS, make_geometry

        shifted_geo = make_geometry(FIG3_BS, p=-30.0)
        shifted_model = build_covariance(shifted_geo, 5.0, 50.0)
        assert kl_drss([300.0, 5.0], shifted_geo, shifted_model) == pytest.approx(
            base, rel=1e-12
        )


class TestLocationSearch:
    def test_returned_point_beats_coarse_grid(self, fig3_geometry, fig3_model):
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=25.0)
        best = optimize_true_location("rss", cfg, fig3_geometry, fig3_model)
        xmin, xmax, ymin, ymax = default_search_region(fig3_geometry, 100.0)
        xs = np.arange(xmin, xmax + 12.5, 25.0)
        ys = np.arange(ymin, ymax + 12.5, 25.0)
        xc = np.asarray(CLAIMED)
        for x in xs:
            for y in ys:
                pt = np.array([x, y])
                if np.linalg.norm(pt - xc) < 100.0:
                    continue
                assert best.kl_nats <= kl_rss_minimized(pt, fig3_geometry, fig3_model) + 1e-12

    def test_feasibility_constraint_respected(self, fig3_geometry, fig3_model):
        cfg = SearchConfig(min_distance=100.0)
        for objective in ("rss", "drss"):
            strat = optimize_true_location(objective, cfg, fig3_geometry, fig3_model)
            assert math.dist(strat.true_location, CLAIMED) >= 100.0 - 1e-9

    def test_rss_and_drss_find_same_location(self, fig3_geometry, fig3_model):
        cfg = SearchConfig(min_distance=100.0)
        a = optimize_true_location("rss", cfg, fig3_geometry, fig3_model)
        b = optimize_true_location("drss", cfg, fig3_geometry, fig3_model)
        assert math.dist(a.true_location, b.true_location) <= math.sqrt(2) * refined_grid_cell(cfg)
        assert a.power_boost_relevant and not b.power_boost_relevant
        assert b.power_boost_db == 0.0

    def test_shrinking_exclusion_radius_lowers_kl(self, fig3_geometry, fig3_model):
        kls = []
        for r in (250.0, 100.0, 50.0):
            cfg = SearchConfig(min_distance=r)
            kls.append(optimize_true_location("rss", cfg, fig3_geometry, fig3_model).kl_nats)
        assert kls[0] >= kls[1] >= kls[2]

    def test_empty_feasible_region_raises(self):
        # a coarse step wider than the box (49, 500, 4, 500) leaves one node,
        # (49, 4), which lies inside the disc around the claim (50, 5)
        geometry = make_geometry([[249.0, 204.0], [300.0, 260.0], [260.0, 300.0]])
        model = build_covariance(geometry, 5.0, 50.0)
        assert default_search_region(geometry, 100.0) == (49.0, 500.0, 4.0, 500.0)
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=1000.0)
        with pytest.raises(SearchError, match="feasible region is empty"):
            optimize_true_location("rss", cfg, geometry, model)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(min_distance=0.0)
        with pytest.raises(SearchError):
            SearchConfig(min_distance=1.0, coarse_grid_step=0.0)

    def test_drss_search_computes_no_boost(self, fig3_geometry, fig3_model, monkeypatch):
        def no_boost(*args):
            raise AssertionError("a DRSS attack has no power boost to compute")

        monkeypatch.setattr(adversary, "optimal_power_boost", no_boost)
        strat = optimize_true_location("drss", SearchConfig(100.0), fig3_geometry, fig3_model)
        assert strat.power_boost_db == 0.0 and not strat.power_boost_relevant

    def test_refinement_schedule_is_fixed(self):
        # six passes, each halving the half-width, are constants of the search
        assert [f.name for f in fields(SearchConfig)] == ["min_distance", "coarse_grid_step"]
        assert refined_grid_cell(SearchConfig(min_distance=100.0)) == 0.1953125
        assert refined_grid_cell(SearchConfig(min_distance=100.0, coarse_grid_step=8.0)) == 0.0625

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_distance_rejected(self, bad):
        with pytest.raises(SearchError, match="min_distance"):
            SearchConfig(min_distance=bad)

    def test_nan_grid_step_rejected(self):
        with pytest.raises(SearchError, match="coarse_grid_step"):
            SearchConfig(min_distance=1.0, coarse_grid_step=math.nan)

    def test_search_box_is_not_a_setting(self):
        # the box follows from the stations and r alone
        with pytest.raises(TypeError, match="region"):
            SearchConfig(1.0, region=(0.0, 100.0, 0.0, 100.0))

    def test_infinite_grid_step_rejected(self):
        with pytest.raises(SearchError, match="coarse_grid_step"):
            SearchConfig(min_distance=1.0, coarse_grid_step=math.inf)

    def test_huge_coarse_grid_rejected_without_allocating(self):
        geometry = boxed_geometry((0.0, 100.0, 0.0, 100.0), 1.0)
        model = build_covariance(geometry, 5.0, 50.0)
        cfg = SearchConfig(min_distance=1.0, coarse_grid_step=1e-4)
        tracemalloc.start()
        try:
            with pytest.raises(SearchError, match="1,000,002,000,001 points"):
                optimize_true_location("rss", cfg, geometry, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_derived_grid_rejected_without_allocating(self, fig3_geometry, fig3_model):
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=1e-3)
        tracemalloc.start()
        try:
            with pytest.raises(SearchError, match="above the cap of 1,000,000"):
                optimize_true_location("rss", cfg, fig3_geometry, fig3_model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_elongated_grid_at_the_cap_holds_only_its_nodes(self):
        # 1,000,000 x 1 nodes: padding the grid to the square of its longer
        # axis would ask for 10^12 nodes.  Stations on y = 200 give the box
        # (0, 799999200, 0, 400), whose y side is below half the 800 m step
        geometry = make_geometry([[200.0, 200.0], [400000.0, 200.0], [799999000.0, 200.0]])
        model = build_covariance(geometry, 5.0, 50.0)
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=800.0)
        box = default_search_region(geometry, 100.0)
        assert adversary._coarse_shape(box, 800.0) == (1_000_000, 1)
        tracemalloc.start()
        try:
            strat = optimize_true_location("drss", cfg, geometry, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x, y = strat.true_location
        assert box[0] <= x <= box[1] and box[2] <= y <= box[3]
        assert math.dist((x, y), CLAIMED) >= 100.0
        # the grid and the KL call's temporaries take about 170 bytes a node
        assert peak < 256 * 1_000_000

    def test_stack_of_crossed_elongated_grids_is_chunked(self):
        # a row long in x beside a row long in y pads to 2 x 2000 x 2000
        # nodes, far above the chunk cap: each row is searched on its own.
        # At an 800 m step, stations on y = 200 give 2000 x 1 nodes and
        # stations on x = 350 give 1 x 2000
        rows = [
            make_geometry([[200.0, 200.0], [800000.0, 200.0], [1599000.0, 200.0]]),
            make_geometry([[350.0, 200.0], [350.0, 800000.0], [350.0, 1599000.0]]),
        ]
        models = [build_covariance(g, 5.0, 50.0) for g in rows]
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=800.0)
        shapes = [adversary._coarse_shape(default_search_region(g, 100.0), 800.0) for g in rows]
        assert shapes == [(2000, 1), (1, 2000)]
        geometry = NetworkGeometry.stack(rows)
        model = ShadowingModel.stack(models)
        tracemalloc.start()
        try:
            found = optimize_true_location("drss", [cfg] * 2, geometry, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert found == tuple(
            optimize_true_location("drss", cfg, g, m) for g, m in zip(rows, models)
        )

    def test_grid_at_the_cap_is_accepted(self):
        # 1000 x 1000 nodes: exactly the cap
        at_cap = boxed_geometry((0.0, 999.0, 0.0, 999.0), 1.0)
        assert adversary._coarse_shape(default_search_region(at_cap, 1.0), 1.0) == (1000, 1000)
        over = boxed_geometry((0.0, 1000.0, 0.0, 999.0), 1.0)
        cfg = SearchConfig(min_distance=1.0, coarse_grid_step=1.0)
        with pytest.raises(SearchError, match="1,001,000 points"):
            optimize_true_location("rss", cfg, over, build_covariance(over, 5.0, 50.0))


class TestSearchEdges:
    """Grid nodes that land exactly on a station or on the exclusion circle."""

    def test_station_on_coarse_node_is_skipped(self):
        # the station (0, 0) lies 50.25 m from the claim, outside the 50 m disc
        geometry = make_geometry([[-200.0, 0.0], [0.0, 0.0], [200.0, 0.0]])
        model = build_covariance(geometry, 7.5, 50.0)
        cfg = SearchConfig(min_distance=50.0)
        assert default_search_region(geometry, 50.0) == (-300.0, 300.0, -100.0, 100.0)
        assert 0.0 in np.arange(-300.0, 312.5, 25.0) and 0.0 in np.arange(-100.0, 112.5, 25.0)
        for objective in ("rss", "drss"):
            strat = optimize_true_location(objective, cfg, geometry, model)
            assert math.isfinite(strat.kl_nats)
            assert strat.true_location != (0.0, 0.0)

    def test_station_on_refinement_node_is_skipped(self, monkeypatch):
        # coarse nodes are multiples of 200 m, so the first refinement pass
        # (spacing 50 m, +-200 m around the coarse optimum) has nodes on every
        # multiple of 50 m nearby, including the station at (0, -50)
        geometry, model, cfg = refinement_node_case()
        for objective in ("rss", "drss"):
            with monkeypatch.context() as patch:
                patch.setattr(adversary, "_REFINE_PASSES", 0)
                coarse = optimize_true_location(objective, cfg, geometry, model)
            offsets = np.subtract((0.0, -50.0), coarse.true_location)
            assert np.all(np.abs(offsets) <= 200.0) and np.all(offsets % 50.0 == 0.0)
            assert np.any(offsets % 200.0 != 0.0)  # not a coarse node itself
            strat = optimize_true_location(objective, cfg, geometry, model)
            assert math.isfinite(strat.kl_nats)

    def test_station_nodes_in_a_two_objective_stack(self):
        # the refinement case beside a row whose station (0, 0) is a coarse
        # node: both objectives skip the stations of their own row in every
        # stage, as each search on one geometry does
        geometry, model, cfg = refinement_node_case()
        other = make_geometry([[-200.0, 0.0], [0.0, 0.0], [200.0, 0.0]], claimed=[50.0, 0.0])
        rows = [(geometry, model), (other, build_covariance(other, 7.5, 50.0))]
        stack = NetworkGeometry.stack([g for g, _ in rows])
        models = ShadowingModel.stack([m for _, m in rows])
        both = optimize_true_location(("rss", "drss"), [cfg] * 2, stack, models)
        for objective, found in zip(("rss", "drss"), both):
            assert found == tuple(optimize_true_location(objective, cfg, g, m) for g, m in rows)

    @pytest.mark.parametrize("region", [(150.0, 650.0, 5.0, 505.0), (150.0, 900.0, 5.0, 605.0)])
    def test_point_on_exclusion_circle_stays_feasible(self, region):
        # the box's corner (150, 5) is exactly r = 100 m from the claim
        # (50, 5), and the rest of the box lies farther out.  A coarse step
        # wider than the box makes that corner the single coarse node (an
        # infeasible boundary would leave the grid empty), and it stays the
        # incumbent through every pass
        geometry = boxed_geometry(region, 100.0)
        model = build_covariance(geometry, 7.5, 50.0)
        assert default_search_region(geometry, 100.0) == region
        cfg = SearchConfig(min_distance=100.0, coarse_grid_step=4.0 * (region[1] - region[0]))
        for objective in ("rss", "drss"):
            strat = optimize_true_location(objective, cfg, geometry, model)
            assert strat.true_location == (150.0, 5.0)
            assert math.dist(strat.true_location, CLAIMED) == 100.0


def recorded_search(objective, config, geometry, model, monkeypatch):
    """Run the search and return its strategy and the points of every KL call.

    The first call scores the coarse candidates, each later one the
    candidates of one refinement pass.
    """
    name = "kl_rss_minimized" if objective == "rss" else "kl_drss"
    original = getattr(adversary, name)
    calls = []

    def recording(x_t, *args):
        calls.append(np.array(x_t, dtype=float))
        return original(x_t, *args)

    with monkeypatch.context() as patch:
        patch.setattr(adversary, name, recording)
        strat = optimize_true_location(objective, config, geometry, model)
    return strat, calls


def refinement_node_case():
    """A geometry whose first refinement pass puts a node on the station
    (0, -50): its box is (-400, 400, -400, 400) at r = 100, and the coarse
    nodes are multiples of 200 m."""
    geometry = make_geometry(
        [[-200.0, -200.0], [0.0, -50.0], [200.0, 200.0]], claimed=[50.0, 0.0]
    )
    assert default_search_region(geometry, 100.0) == (-400.0, 400.0, -400.0, 400.0)
    model = build_covariance(geometry, 6.0, 50.0)
    return geometry, model, SearchConfig(min_distance=100.0, coarse_grid_step=200.0)


def coarse_nodes(config, geometry):
    xmin, xmax, ymin, ymax = default_search_region(geometry, config.min_distance)
    step = config.coarse_grid_step
    xs = np.arange(xmin, xmax + 0.5 * step, step)
    ys = np.arange(ymin, ymax + 0.5 * step, step)
    return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])


class TestSeparableFeasibility:
    """Station exclusion tested per axis: a node is dropped only when both
    its coordinates coincide with one station's in floating point."""

    # stations within x in [-210, 210] and y in [-10, 10] give the box
    # (-300, 300, -100, 100) at r = 45: coarse nodes on multiples of 25 m
    CFG = SearchConfig(min_distance=45.0)

    @pytest.mark.parametrize(
        "station",
        [(0.0, 10.0), (-12.5, 0.0)],
        ids=["shares-x-column", "shares-y-row"],
    )
    def test_station_on_one_axis_excludes_no_node(self, station, monkeypatch):
        geometry = make_geometry([[-210.0, 10.0], list(station), [210.0, -10.0]])
        model = build_covariance(geometry, 7.5, 50.0)
        nodes = coarse_nodes(self.CFG, geometry)
        assert np.any(nodes[:, 0] == station[0]) != np.any(nodes[:, 1] == station[1])
        outside = nodes[np.linalg.norm(nodes - CLAIMED, axis=-1) >= self.CFG.min_distance]
        monkeypatch.setattr(adversary, "_REFINE_PASSES", 0)
        for objective in ("rss", "drss"):
            _, calls = recorded_search(objective, self.CFG, geometry, model, monkeypatch)
            np.testing.assert_array_equal(calls[0], outside)

    def test_underflowing_offset_is_skipped(self, monkeypatch):
        # 1e-170 squared underflows to 0, so the node (-200, 0) counts as
        # lying on the station; scoring it would raise GeometryError in
        # mean_vector
        geometry = make_geometry([[-210.0, 10.0], [-200.0, 1e-170], [210.0, -10.0]])
        model = build_covariance(geometry, 7.5, 50.0)
        assert (0.0 - 1e-170) ** 2 == 0.0
        nodes = coarse_nodes(self.CFG, geometry)
        outside = nodes[np.linalg.norm(nodes - CLAIMED, axis=-1) >= self.CFG.min_distance]
        want = outside[np.any(outside != (-200.0, 0.0), axis=1)]
        assert len(want) == len(outside) - 1
        for objective in ("rss", "drss"):
            with monkeypatch.context() as patch:
                patch.setattr(adversary, "_REFINE_PASSES", 0)
                strat, calls = recorded_search(objective, self.CFG, geometry, model, patch)
            np.testing.assert_array_equal(calls[0], want)
            assert math.isfinite(strat.kl_nats)
            strat = optimize_true_location(objective, self.CFG, geometry, model)
            assert math.isfinite(strat.kl_nats)

    def test_station_on_refinement_node_skipped_incumbent_kept(self, monkeypatch):
        # the geometry of TestSearchEdges: the first refinement pass has a
        # node on the station at (0, -50)
        station = (0.0, -50.0)
        geometry, model, cfg = refinement_node_case()
        passes = adversary._REFINE_PASSES
        for objective in ("rss", "drss"):
            strat, calls = recorded_search(objective, cfg, geometry, model, monkeypatch)
            assert len(calls) == 1 + passes
            incumbents = []
            for k in range(passes + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(adversary, "_REFINE_PASSES", k)
                    incumbents.append(
                        optimize_true_location(objective, cfg, geometry, model).true_location
                    )
            assert incumbents[-1] == strat.true_location
            first = calls[1]
            # 9 x 9 nodes around the coarse optimum, less the station, plus
            # the incumbent appended last
            x0, y0 = incumbents[0]
            axis_x = np.linspace(x0 - 200.0, x0 + 200.0, 9)
            axis_y = np.linspace(y0 - 200.0, y0 + 200.0, 9)
            assert station[0] in axis_x and station[1] in axis_y
            assert not np.any(np.all(first == station, axis=1))
            for k, cand in enumerate(calls[1:]):
                assert tuple(cand[-1]) == incumbents[k]
