import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lvsim.adversary import SearchConfig, kl_drss, kl_rss, kl_rss_minimized
from lvsim.channel import mean_vector
import lvsim.experiments as experiments
from lvsim.experiments import (
    AttackPolicy,
    Scenario,
    ScenarioError,
    _geometry_groups,
    builtin_scenario,
    builtin_scenarios,
    deployment_geometry,
    detector_spec,
    optimal_auc,
    resolve_attack,
    roc_stage,
    run_scenario,
    verify_theorems,
)

from conftest import CLAIMED, FIG1_BS, FIG3_BS

FIG2_BS = [[201.4, -9.0], [-161.7, 9.3], [-97.4, 1.2], [91.5, 2.4]]

# name, stations, sigma_db, correlation_distance, min_distance, mc_seed,
# dc_values, r_values: the published registry; every other field is default
REGISTRY = [
    ("fig1", FIG1_BS, 7.5, 50.0, 500.0, 11, None, None),
    ("fig2", FIG2_BS, 5.0, 50.0, 100.0, 12, None, None),
    ("fig3", FIG3_BS, 5.0, 50.0, 100.0, 13, None, None),
    ("fig4", FIG1_BS, 7.5, 50.0, 500.0, 14, (0.0, 10.0, 50.0, 200.0), None),
    ("fig5", FIG3_BS, 5.0, 50.0, 100.0, 15, (0.0, 10.0, 50.0, 200.0), None),
    ("fig6", FIG3_BS, 5.0, 50.0, 100.0, 16, None, (100.0, 250.0, 500.0)),
]


class TestRegistry:
    def test_six_scenarios(self):
        names = [s.name for s in builtin_scenarios()]
        assert names == ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]

    def test_fig1_geometry(self):
        s = builtin_scenario("fig1")
        assert s.geometry.n_stations == 3
        np.testing.assert_array_equal(
            s.geometry.bs_positions, [[-250.0, 10.0], [0.0, -10.0], [250.0, 10.0]]
        )
        assert (s.sigma_db, s.correlation_distance, s.min_distance) == (7.5, 50.0, 500.0)

    def test_fig2_parameters(self):
        s = builtin_scenario("fig2")
        assert s.geometry.n_stations == 4
        assert (s.sigma_db, s.min_distance) == (5.0, 100.0)

    def test_shared_deployment_constants(self):
        for s in builtin_scenarios():
            np.testing.assert_array_equal(s.geometry.claimed_location, CLAIMED)
            assert s.geometry.path_loss_exponent == 3.0
            assert s.geometry.ref_power_db == -10.0
            assert s.geometry.ref_distance_m == 1.0

    def test_unknown_name_raises(self):
        with pytest.raises(ScenarioError):
            builtin_scenario("fig9")

    def test_zero_mc_trials_rejected(self):
        with pytest.raises(ScenarioError, match="mc_trials"):
            replace(builtin_scenario("fig3"), mc_trials=0)

    @pytest.mark.parametrize("bad", [1000.0, 2.5, True])
    def test_non_integral_mc_trials_rejected(self, bad):
        with pytest.raises(ScenarioError, match="mc_trials"):
            replace(builtin_scenario("fig3"), mc_trials=bad)

    @pytest.mark.parametrize("bad", [1.5, -1, True])
    def test_invalid_mc_seed_rejected(self, bad):
        with pytest.raises(ScenarioError, match="mc_seed"):
            replace(builtin_scenario("fig3"), mc_seed=bad)

    def test_numpy_integer_mc_trials_accepted(self):
        assert replace(builtin_scenario("fig3"), mc_trials=np.int64(1000)).mc_trials == 1000

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_distance_rejected(self, bad):
        with pytest.raises(ScenarioError, match="min_distance"):
            replace(builtin_scenario("fig3"), min_distance=bad)

    def test_fixed_attack_inside_disc_rejected(self):
        base = builtin_scenario("fig3")
        with pytest.raises(ScenarioError):
            Scenario(
                name="bad",
                geometry=base.geometry,
                sigma_db=5.0,
                correlation_distance=50.0,
                min_distance=100.0,
                attack=AttackPolicy("fixed-location", (100.0, 5.0)),
            )

    @pytest.mark.parametrize("row", REGISTRY, ids=lambda row: row[0])
    def test_registry_values_are_pinned(self, row):
        name, bs, sigma, dc, r, seed, dc_values, r_values = row
        expected = Scenario(
            name=name,
            geometry=deployment_geometry(bs),
            sigma_db=sigma,
            correlation_distance=dc,
            min_distance=r,
            mc_seed=seed,
            dc_values=dc_values,
            r_values=r_values,
        )
        assert builtin_scenario(name) == expected

    @pytest.mark.parametrize("name, base", [("fig4", "fig1"), ("fig5", "fig3"), ("fig6", "fig3")])
    def test_sweeps_differ_from_their_base_only_in_name_sweep_and_seed(self, name, base):
        swept, base = builtin_scenario(name), builtin_scenario(base)
        for f in fields(Scenario):
            if f.name not in ("name", "mc_seed", "dc_values", "r_values"):
                assert getattr(swept, f.name) == getattr(base, f.name), f.name

    def test_scenario_owns_its_search_settings(self):
        # one exclusion radius: the search's is the scenario's min_distance
        base = builtin_scenario("fig3")
        assert base.search_config() == SearchConfig(100.0)
        assert replace(base, coarse_grid_step=20.0).search_config() == SearchConfig(100.0, 20.0)
        with pytest.raises(
            ScenarioError,
            match="^invalid search configuration: min_distance 100.0: coarse grid would hold",
        ):
            replace(base, coarse_grid_step=1e-3)

    @pytest.mark.parametrize(
        "attack",
        [
            AttackPolicy("fixed-location", (201.4, -9.0)),
            AttackPolicy("fixed", (201.4, -9.0), 0.0),
        ],
        ids=["true_location", "fixed"],
    )
    def test_location_on_a_station_rejected_when_built(self, attack):
        # fig2's first station lies outside the 100 m disc
        with pytest.raises(ScenarioError, match=r"base station: \(201\.4, -9\.0\)$"):
            replace(builtin_scenario("fig2"), attack=attack)

    def test_attack_location_with_a_non_finite_mean_rejected(self):
        attack = AttackPolicy("fixed-location", (1e200, 0.0))
        with pytest.raises(ScenarioError, match=r"mean received power is not finite: \(1e\+200"):
            replace(builtin_scenario("fig3"), attack=attack)


class TestScenarioValues:
    """Numbers that would fail only inside a run are rejected when built."""

    # 1e200 squares to inf, 1e-200 to zero and 1e-160 to a subnormal float
    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, math.inf, 1e200, 1e-200, 1e-160])
    def test_sigma_db(self, bad):
        with pytest.raises(ScenarioError, match="sigma_db"):
            replace(builtin_scenario("fig3"), sigma_db=bad)

    @pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
    def test_correlation_distance(self, bad):
        with pytest.raises(ScenarioError, match="correlation_distance"):
            replace(builtin_scenario("fig3"), correlation_distance=bad)

    @pytest.mark.parametrize("bad", [(math.nan,), (-1.0,), (10.0, math.inf)])
    def test_dc_values(self, bad):
        with pytest.raises(ScenarioError, match="dc_values"):
            replace(builtin_scenario("fig3"), dc_values=bad)

    @pytest.mark.parametrize("bad", [(0.0,), (math.nan,), (100.0, -1.0)])
    def test_r_values(self, bad):
        with pytest.raises(ScenarioError, match="r_values"):
            replace(builtin_scenario("fig3"), r_values=bad)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"r_values": (100.0, 1e6)},
                r"r_values entry 1000000\.0: coarse grid would hold 25,603,680,042 points",
            ),
            ({"min_distance": 1e6}, r"min_distance 1000000\.0: coarse grid would hold"),
            ({"coarse_grid_step": 1.0}, r"min_distance 500\.0: coarse grid would hold"),
        ],
        ids=["r_values", "min_distance", "coarse_grid_step"],
    )
    def test_oversized_search_box(self, changes, message):
        # every box a run searches is checked against the coarse-grid cap
        with pytest.raises(ScenarioError, match=f"^invalid search configuration: {message}"):
            replace(builtin_scenario("fig1"), mc_trials=1000, **changes)

    @pytest.mark.parametrize(
        "changes, key, other",
        [({"r_values": (1e200,)}, "r_values entry", "min_distance"),
         ({"min_distance": 1e200}, "min_distance", "r_values")],
        ids=["r_values", "min_distance"],
    )
    def test_huge_radius_gives_a_short_message_naming_its_key(self, changes, key, other):
        # r = 1e200 pads fig1's box to about 1.6e199 nodes per axis: the
        # count of all nodes overflows a float, and its digits would run to 399
        with pytest.raises(ScenarioError) as info:
            replace(builtin_scenario("fig1"), **changes)
        message = str(info.value)
        assert len(message) < 200
        assert message.startswith(f"invalid search configuration: {key} 1e+200: ")
        assert message.endswith(f"raise coarse_grid_step or lower the {key}")
        assert other not in message

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0,), ()])
    def test_thresholds(self, bad):
        with pytest.raises(ScenarioError, match="thresholds"):
            replace(builtin_scenario("fig3"), thresholds=bad)

    def test_infinite_thresholds_accepted(self):
        # ln λ = ±inf is a legal operating point: rates 0 and 1
        scenario = replace(builtin_scenario("fig3"), thresholds=(-math.inf, 0.0, math.inf))
        model = scenario.shadowing()
        curve = roc_stage(scenario, "rss", model)[2]
        assert curve.alpha.tolist()[::2] == [0.0, 1.0]

    @pytest.mark.parametrize("bad", [(), []])
    def test_modes(self, bad):
        with pytest.raises(ScenarioError, match="modes"):
            replace(builtin_scenario("fig3"), modes=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_power_boost_db(self, bad):
        with pytest.raises(ScenarioError, match="power_boost_db"):
            AttackPolicy("fixed", (300.0, 5.0), bad)

    @pytest.mark.parametrize("bad", [(math.nan, 5.0), (300.0, math.inf), (300.0,)])
    def test_true_location(self, bad):
        with pytest.raises(ScenarioError, match="true_location"):
            AttackPolicy("fixed-location", bad)

    @pytest.mark.parametrize(
        "kind, location, boost, field",
        [
            ("optimal", (650.0, 5.0), None, "true_location"),
            ("optimal", None, 3.0, "power_boost_db"),
            ("fixed-location", (650.0, 5.0), 3.0, "power_boost_db"),
        ],
    )
    def test_fields_the_kind_ignores_rejected(self, kind, location, boost, field):
        with pytest.raises(ScenarioError, match=f"^attack kind '{kind}' takes no {field}$"):
            AttackPolicy(kind, location, boost)


class TestExclusionCircle:
    """A location on the circle |x - x_c| = r is judged by the search's
    feasibility arithmetic, sqrt(dx*dx + dy*dy), which math.dist does not
    always round alike."""

    def test_point_the_search_puts_on_the_circle_accepted(self):
        location = (424.4754137815784, 336.3127894801461)
        assert math.dist(location, CLAIMED) < 500.0
        attack = AttackPolicy("fixed-location", location)
        assert replace(builtin_scenario("fig1"), attack=attack).attack.true_location == location

    def test_point_the_search_puts_inside_the_disc_rejected(self):
        location = (-412.4636208875894, -185.07208989101994)
        assert math.dist(location, CLAIMED) == 500.0
        attack = AttackPolicy("fixed-location", location)
        with pytest.raises(
            ScenarioError, match=r"lies 499\.99999999999994 m from the claimed location, inside"
        ):
            replace(builtin_scenario("fig1"), attack=attack)

    def test_agrees_with_the_search_on_circle_points(self):
        rng = np.random.default_rng(19)
        radii = rng.choice([100.0, 250.0, 500.0], 10_000)
        theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        points = CLAIMED + radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        # the search's test, as the bitwise reference search computes it
        feasible = np.linalg.norm(points - CLAIMED, axis=-1) >= radii
        split = 0
        base = builtin_scenario("fig1")
        for (x, y), r, want in zip(points.tolist(), radii.tolist(), feasible.tolist()):
            split += (math.dist((x, y), CLAIMED) >= r) != want
            attack = AttackPolicy("fixed-location", (x, y))
            try:
                replace(base, min_distance=r, attack=attack)
            except ScenarioError:
                assert not want, (x, y, r)
            else:
                assert want, (x, y, r)
        assert split > 0  # math.dist would judge some of these points otherwise


class TestResolveAttack:
    X_T = (300.0, 5.0)

    @pytest.mark.parametrize(
        "policy",
        [AttackPolicy("fixed-location", X_T), AttackPolicy("fixed", X_T, 2.5)],
        ids=lambda p: p.kind,
    )
    def test_fixed_policies(self, policy):
        scenario = replace(builtin_scenario("fig3"), attack=policy)
        model = scenario.shadowing()
        geometry = scenario.geometry
        rss = resolve_attack(scenario, "rss", model)
        drss = resolve_attack(scenario, "drss", model)
        assert rss.true_location == drss.true_location == self.X_T
        assert rss.power_boost_relevant and not drss.power_boost_relevant
        assert drss.power_boost_db == 0.0
        assert drss.kl_nats == kl_drss(self.X_T, geometry, model)
        assert rss.kl_nats == kl_rss(rss.power_boost_db, self.X_T, geometry, model)
        if policy.kind == "fixed":
            assert rss.power_boost_db == 2.5
        else:
            minimized = kl_rss_minimized(self.X_T, geometry, model)
            assert rss.kl_nats == pytest.approx(minimized, rel=1e-9)

    @pytest.mark.parametrize(
        "policy", [AttackPolicy(), AttackPolicy("fixed-location", X_T)], ids=lambda p: p.kind
    )
    def test_unknown_mode_named(self, policy):
        # no mode other than rss and drss may fall through to a DRSS answer
        scenario = replace(builtin_scenario("fig3"), attack=policy)
        model = scenario.shadowing()
        with pytest.raises(ScenarioError, match="^unknown mode: 'bogus'$"):
            resolve_attack(scenario, "bogus", model)
        strategy = resolve_attack(scenario, "drss", model)
        with pytest.raises(ScenarioError, match="^unknown mode: 'bogus'$"):
            detector_spec("bogus", scenario.geometry, model, strategy)


@pytest.fixture(scope="module")
def fig3_result():
    scenario = builtin_scenario("fig3")
    return run_scenario(scenario)


class TestRunScenario:
    def test_fig3_modes_identical(self, fig3_result):
        rss = fig3_result.modes["rss"].roc
        drss = fig3_result.modes["drss"].roc
        for a, b in zip(rss.alpha, drss.alpha):
            assert a == pytest.approx(b, abs=1e-9)
        for a, b in zip(rss.beta, drss.beta):
            assert a == pytest.approx(b, abs=1e-9)

    def test_fig3_mc_within_gate(self, fig3_result):
        for mr in fig3_result.modes.values():
            for rec in mr.mc_records:
                assert rec["sigma"] <= 3.89, rec

    def test_fig6_r_sweep_increasing(self):
        result = run_scenario(builtin_scenario("fig6"))
        assert {parameter for parameter, *_ in result.sweep} == {"min_distance"}
        aucs = [auc for *_, auc in result.sweep]
        assert aucs == sorted(aucs)
        assert len(set(aucs)) == len(aucs)

    def test_one_draw_set_per_distribution(self, monkeypatch):
        import lvsim.montecarlo

        calls = []
        draw = lvsim.montecarlo.sample_observations

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(lvsim.montecarlo, "sample_observations", counting)
        run_scenario(replace(builtin_scenario("fig3"), mc_trials=2000))
        # one H0 set and one H1 set, each shared by both modes
        assert len(calls) == 2

    def test_blocked_draws_cover_each_distribution_once(self, monkeypatch):
        import lvsim.montecarlo

        rows = {}
        draw = lvsim.montecarlo.sample_observations

        def counting(model, mean, rng, n):
            key = np.asarray(mean).tobytes()
            rows[key] = rows.get(key, 0) + n
            return draw(model, mean, rng, n)

        monkeypatch.setattr(lvsim.montecarlo, "sample_observations", counting)
        trials = 2 * lvsim.montecarlo._BLOCK_ROWS + 17
        run_scenario(replace(builtin_scenario("fig3"), mc_trials=trials))
        # H0's mean and the attacker's unboosted mean, each drawn mc_trials rows in all
        assert sorted(rows.values()) == [trials] * 2

    def test_mode_records_independent_of_other_modes(self):
        scenario = replace(builtin_scenario("fig3"), mc_trials=2000)
        both = run_scenario(replace(scenario, modes=("rss", "drss")))
        alone = run_scenario(replace(scenario, modes=("drss",)))
        assert alone.modes["drss"].mc_records == both.modes["drss"].mc_records

    def test_rss_records_independent_of_other_modes(self):
        scenario = replace(builtin_scenario("fig3"), mc_trials=2000)
        both = run_scenario(replace(scenario, modes=("rss", "drss")))
        alone = run_scenario(replace(scenario, modes=("rss",)))
        assert alone.modes["rss"].mc_records == both.modes["rss"].mc_records

    def test_one_h1_set_per_true_location(self, monkeypatch):
        import lvsim.montecarlo

        scenario = replace(builtin_scenario("fig3"), mc_trials=2000)
        moved = replace(scenario, attack=AttackPolicy("fixed-location", TestResolveAttack.X_T))
        real = experiments.resolve_attack

        def resolve(s, mode, model):  # DRSS's attacker stands elsewhere
            return real(moved if mode == "drss" else s, mode, model)

        monkeypatch.setattr(experiments, "resolve_attack", resolve)
        draws = []
        stream = lvsim.montecarlo._stream
        draw = lvsim.montecarlo.sample_observations

        def keyed_stream(seed):
            draws.append([seed.spawn_key])
            return stream(seed)

        def sampling(model, mean, rng, n):
            draws[-1].append(np.asarray(mean).tobytes())
            return draw(model, mean, rng, n)

        monkeypatch.setattr(lvsim.montecarlo, "_stream", keyed_stream)
        monkeypatch.setattr(lvsim.montecarlo, "sample_observations", sampling)
        both = run_scenario(scenario)
        geometry = scenario.geometry
        locations = [both.modes[mode].strategy.true_location for mode in ("rss", "drss")]
        assert locations[0] != locations[1] == TestResolveAttack.X_T
        h1_means = [mean_vector(geometry, loc).tobytes() for loc in locations]
        h0_mean = geometry.claimed_mean.tobytes()
        assert draws == [[(0,), h0_mean], [(1,), h1_means[0]], [(1,), h1_means[1]]]
        for mode in ("rss", "drss"):
            alone = run_scenario(replace(scenario, modes=(mode,)))
            assert alone.modes[mode].mc_records == both.modes[mode].mc_records

    def test_worst_sigma_spans_every_mode(self, fig3_result):
        sigmas = [rec["sigma"] for mr in fig3_result.modes.values() for rec in mr.mc_records]
        assert fig3_result.worst_sigma == max(sigmas) > 0.0
        assert replace(fig3_result, modes={}).worst_sigma == 0.0

    def test_output_files(self, tmp_path):
        scenario = builtin_scenario("fig3")
        run_scenario(scenario, outdir=tmp_path)
        base = tmp_path / "fig3"
        assert (base / "rss_roc.csv").exists()
        assert (base / "drss_roc.csv").exists()
        records = [json.loads(ln) for ln in (base / "mc.jsonl").read_text().splitlines()]
        assert {r["mode"] for r in records} == {"rss", "drss"}
        attack = json.loads((base / "attack.json").read_text())
        assert set(attack) == {"rss", "drss"}
        assert math.dist(attack["rss"]["true_location"], CLAIMED) >= 100.0 - 1e-9


class TestSweepStage:
    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6"])
    def test_rows_equal_per_point_searches_bitwise(self, name, monkeypatch):
        scenario = builtin_scenario(name)
        searches = []
        search = experiments.optimize_true_location

        def counting(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(experiments, "optimize_true_location", counting)
        rows = optimal_auc(scenario)
        assert len(searches) == 1
        monkeypatch.undo()
        points = [("correlation_distance", dc) for dc in scenario.dc_values or ()]
        points += [("min_distance", r) for r in scenario.r_values or ()]
        assert [row[:2] for row in rows] == points
        for parameter, value, auc in rows:
            point = replace(scenario, **{parameter: value})
            assert auc == roc_stage(point, "rss", point.shadowing())[2].auc

    def test_no_sweep_values_give_no_rows(self):
        assert optimal_auc(builtin_scenario("fig3")) == ()


class TestVerifyTheorems:
    def test_all_checks_pass(self):
        report = verify_theorems(trials=20, seed=5)
        assert report.all_passed
        assert [c.name for c in report.checks] == [
            "kl-identity-rss-drss",
            "rate-identity-rss-drss",
            "optimal-kl-identity-rss-drss",
            "location-optimizer-coincidence",
            "boost-quadratic-identity",
            "uncorrelated-d-inverse",
            "uncorrelated-closed-form-kl",
        ]

    def test_perturbed_boost_kl_fails_only_the_quadratic_identity(self, monkeypatch):
        # a KL off by 1e-7 relative on the boost grid breaks the exact identity
        # kl_rss(p) = kl_rss(p*) + (p - p*)^2 1^T R^-1 1 / 2, and nothing else
        original = experiments.kl_rss
        monkeypatch.setattr(experiments, "kl_rss", lambda *args: original(*args) * (1.0 + 1e-7))
        report = verify_theorems(trials=20, seed=5)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["boost-quadratic-identity"]

    def test_perturbed_drss_optimum_fails_only_the_optimal_kl_identity(self, monkeypatch):
        # the optimal RSS and DRSS attacks cost the same KL
        original = experiments.optimize_true_location

        def scaled(*args):
            best_rss, best_drss = original(*args)
            return best_rss, [replace(b, kl_nats=b.kl_nats * (1.0 + 1e-7)) for b in best_drss]

        monkeypatch.setattr(experiments, "optimize_true_location", scaled)
        report = verify_theorems(trials=20, seed=5)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["optimal-kl-identity-rss-drss"]

    def test_deterministic(self):
        a = verify_theorems(trials=5, seed=9)
        b = verify_theorems(trials=5, seed=9)
        assert a == b

    def test_report_serializes(self):
        report = verify_theorems(trials=3, seed=2)
        payload = json.loads(report.to_json())
        assert payload["all_passed"] is True
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_three_detector_specs_per_group(self, monkeypatch):
        # DRSS, the (T, 6) stack of suboptimal boosts and matched RSS, built
        # once per same-N group instead of per geometry
        built = []
        original = experiments.DetectorSpec

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "DetectorSpec", recording)
        report = verify_theorems(trials=40, seed=3)
        groups = list(_geometry_groups(40, 3))
        assert report.all_passed and len(groups) > 1
        assert len(built) == 3 * len(groups)
        sizes = sorted(len(draws) for _, draws in groups)
        assert sorted(spec.separation.shape[0] for spec in built[::3]) == sizes
        assert all(spec.separation.shape[1:] == (6,) for spec in built[1::3])

    def test_invalid_trials(self):
        with pytest.raises(ScenarioError):
            verify_theorems(trials=0, seed=1)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integral_trials_rejected(self, bad):
        with pytest.raises(ScenarioError, match="trials"):
            verify_theorems(bad)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_invalid_seed_rejected(self, bad):
        with pytest.raises(ScenarioError, match="seed"):
            verify_theorems(1, seed=bad)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md (Library example)", "exec"), {})
    assert capsys.readouterr().out
