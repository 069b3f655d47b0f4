import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lvsim
from lvsim import cli
from lvsim.cli import ScenarioFileError, main, parse_scenario_file
from lvsim.experiments import (
    AttackPolicy,
    builtin_scenario,
    builtin_scenarios,
    run_scenario,
    verify_theorems,
)

FIG1_FILE = """\
# corridor deployment, strongest exclusion radius
name = fig1
bs = -250 10
bs = 0 -10
bs = 250 10
sigma_db = 7.5
correlation_distance = 50
min_distance = 500
mc_seed = 11
"""


def write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_roc(path):
    """(ln_lambda, alpha, beta) rows of a written ROC CSV, and its AUC."""
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    auc = float(path.read_text().splitlines()[-1].split("auc=")[1])
    return table, auc


def render(scenario):
    """Scenario file that sets every value of ``scenario`` explicitly."""

    def nums(values):
        return " ".join(repr(float(v)) for v in values)

    g = scenario.geometry
    lines = [f"name = {scenario.name}"]
    lines += [f"bs = {nums(xy)}" for xy in g.bs_positions]
    lines += [
        f"claimed = {nums(g.claimed_location)}",
        f"ref_power_db = {g.ref_power_db!r}",
        f"ref_distance_m = {g.ref_distance_m!r}",
        f"path_loss_exponent = {g.path_loss_exponent!r}",
        f"sigma_db = {scenario.sigma_db!r}",
        f"correlation_distance = {scenario.correlation_distance!r}",
        f"min_distance = {scenario.min_distance!r}",
        f"attack = {scenario.attack.kind}",
        f"modes = {','.join(scenario.modes)}",
        f"mc_trials = {scenario.mc_trials}",
        f"mc_seed = {scenario.mc_seed}",
    ]
    if scenario.attack.true_location is not None:
        lines.append(f"true_location = {nums(scenario.attack.true_location)}")
    if scenario.attack.power_boost_db is not None:
        lines.append(f"power_boost_db = {scenario.attack.power_boost_db!r}")
    for key in ("thresholds", "dc_values", "r_values"):
        if getattr(scenario, key) is not None:
            lines.append(f"{key} = {nums(getattr(scenario, key))}")
    lines.append(f"coarse_grid_step = {scenario.coarse_grid_step!r}")
    return "\n".join(lines) + "\n"


ROUND_TRIP = builtin_scenarios() + [
    replace(
        builtin_scenario("fig3"),
        name="fig3-fixed",
        attack=AttackPolicy("fixed", (300.0, 5.0), 2.5),
        modes=("drss",),
        thresholds=(-1.0, 0.0, 1.5),
        mc_trials=5000,
        coarse_grid_step=10.0,
    )
]

VERIFY_DEFAULTS = {
    name: param.default for name, param in inspect.signature(verify_theorems).parameters.items()
}

# every key whose value is numbers (the README's grammar)
NUMERIC_KEYS = [
    "bs", "claimed", "ref_power_db", "ref_distance_m", "path_loss_exponent", "sigma_db",
    "correlation_distance", "min_distance", "true_location", "power_boost_db", "thresholds",
    "mc_trials", "mc_seed", "coarse_grid_step", "dc_values", "r_values",
]


class TestScenarioFile:
    def test_fig1_file_equals_builtin(self, tmp_path):
        parsed = parse_scenario_file(write(tmp_path, FIG1_FILE))
        assert parsed == builtin_scenario("fig1")

    @pytest.mark.parametrize("scenario", ROUND_TRIP, ids=lambda s: s.name)
    def test_rendered_scenario_parses_back(self, tmp_path, scenario):
        assert parse_scenario_file(write(tmp_path, render(scenario))) == scenario

    @given(
        key=st.sampled_from(NUMERIC_KEYS),
        value=st.sampled_from(["x", "1 x", "--", "0x1p3", "1,,y"]),
        position=st.integers(0, 9),
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # one file, rewritten
    def test_malformed_value_names_key_and_line(self, tmp_path, key, value, position):
        lines = [ln for ln in FIG1_FILE.splitlines() if not ln.startswith(f"{key} =")]
        position = min(position, len(lines))
        lines.insert(position, f"{key} = {value}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ScenarioFileError, match=f"^line {position + 1}: key '{key}' "):
            parse_scenario_file(path)

    def test_search_key_without_min_distance_is_a_missing_key(self, tmp_path):
        text = FIG1_FILE.replace("min_distance = 500\n", "") + "coarse_grid_step = 10\n"
        with pytest.raises(ScenarioFileError, match="missing required key 'min_distance'"):
            parse_scenario_file(write(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, FIG1_FILE + "bandwidth = 20\n")
        with pytest.raises(ScenarioFileError, match="unknown key 'bandwidth'"):
            parse_scenario_file(path)

    @pytest.mark.parametrize("key", ["refine_iterations = 3", "refine_shrink = 0.25"])
    def test_refinement_schedule_is_not_a_key(self, tmp_path, key):
        # the search's six halving passes are constants, not scenario settings
        line = len(FIG1_FILE.splitlines()) + 1
        name = key.split()[0]
        with pytest.raises(ScenarioFileError, match=f"^line {line}: unknown key '{name}'$"):
            parse_scenario_file(write(tmp_path, FIG1_FILE + key + "\n"))

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("attack = bogus\n", "unknown attack kind: 'bogus'"),
            ("attack = fixed\ntrue_location = 650 5\n", "attack kind 'fixed' requires a power"),
            ("true_location = 650 5\n", "attack kind 'optimal' takes no true_location"),
            (
                "attack = fixed-location\ntrue_location = 650 5\npower_boost_db = 3\n",
                "attack kind 'fixed-location' takes no power_boost_db",
            ),
        ],
        ids=["unknown-kind", "fixed-without-boost", "optimal-with-location", "boost-ignored"],
    )
    def test_bad_attack_rejected_with_prefix(self, tmp_path, lines, message):
        with pytest.raises(ScenarioFileError, match=f"^invalid attack: {message}"):
            parse_scenario_file(write(tmp_path, FIG1_FILE + lines))

    def test_fixed_location_inside_disc_rejected(self, tmp_path):
        text = FIG1_FILE + "attack = fixed-location\ntrue_location = 549 5\n"
        with pytest.raises(ScenarioFileError, match="minimum-distance"):
            parse_scenario_file(write(tmp_path, text))

    def test_duplicate_stations_rejected(self, tmp_path):
        text = FIG1_FILE.replace("bs = 0 -10", "bs = -250 10")
        with pytest.raises(ScenarioFileError, match="pairwise distinct"):
            parse_scenario_file(write(tmp_path, text))

    def test_nan_sigma_rejected_when_parsed(self, tmp_path):
        text = FIG1_FILE.replace("sigma_db = 7.5\n", "sigma_db = nan\n")
        with pytest.raises(ScenarioFileError, match="^invalid scenario: sigma_db must be positive"):
            parse_scenario_file(write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        text = FIG1_FILE.replace("sigma_db = 7.5\n", "")
        with pytest.raises(ScenarioFileError, match="sigma_db"):
            parse_scenario_file(write(tmp_path, text))

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ScenarioFileError, match="line 2"):
            parse_scenario_file(write(tmp_path, "name = x\nnot a key value line\n"))

    def test_duplicate_scalar_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioFileError, match="duplicate key"):
            parse_scenario_file(write(tmp_path, FIG1_FILE + "sigma_db = 3\n"))

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("coarse_grid_step = 1e-4\n", "min_distance 500.0: coarse grid would hold"),
            ("r_values = 100 1e6\n", "r_values entry 1000000.0: coarse grid would hold"),
        ],
        ids=["coarse-grid-step", "r-values"],
    )
    def test_bad_search_region_rejected(self, tmp_path, lines, message):
        prefix = "^invalid scenario: invalid search configuration: "
        with pytest.raises(ScenarioFileError, match=f"{prefix}{message}"):
            parse_scenario_file(write(tmp_path, FIG1_FILE + lines))


class TestMain:
    def test_verify_exits_zero(self, tmp_path, capsys):
        code = main(["verify", "--trials", "10", "--seed", "7", "-o", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["all_passed"] is True
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_attack_prints_feasible_strategy(self, capsys):
        import math

        code = main(["attack", "--scenario", "fig1", "--mode", "rss"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_x=" in out and "x_t=[" in out
        coords = out.split("x_t=[")[1].split("]")[0].split(",")
        x, y = (float(c) for c in coords)
        assert math.dist((x, y), (50.0, 5.0)) >= 500.0 - 1e-9

    def test_roc_modes_agree_for_fig3(self, tmp_path):
        code = main(["roc", "--scenario", "fig3", "--modes", "rss,drss", "-o", str(tmp_path)])
        assert code == 0
        rss, drss = (
            read_roc(tmp_path / "fig3" / f"{mode}_roc.csv")[0] for mode in ("rss", "drss")
        )
        for a, b in zip(rss[:, 1], drss[:, 1]):
            assert a == pytest.approx(b, abs=1e-9)
        for a, b in zip(rss[:, 2], drss[:, 2]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["roc", "--scenario", "fig3", "--modes", "rss"]
        main(argv + ["-o", str(tmp_path / "a")])
        main(argv + ["-o", str(tmp_path / "b")])
        assert (tmp_path / "a/fig3/rss_roc.csv").read_bytes() == (
            tmp_path / "b/fig3/rss_roc.csv"
        ).read_bytes()

    def test_emitted_csv_satisfies_curve_invariants(self, tmp_path):
        main(["roc", "--scenario", "fig2", "--modes", "drss", "-o", str(tmp_path)])
        table, auc = read_roc(tmp_path / "fig2" / "drss_roc.csv")
        thresholds, alphas, betas = (table[:, k].tolist() for k in range(3))
        assert alphas == sorted(alphas)
        assert betas == sorted(betas)
        assert thresholds == sorted(thresholds, reverse=True)
        assert 0.5 <= auc <= 1.0

    def test_mc_small_run(self, tmp_path):
        code = main(
            ["mc", "--scenario", "fig3", "--trials", "20000", "-o", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig3" / "mc.jsonl").exists()

    def test_scenario_file_source(self, tmp_path, capsys):
        path = tmp_path / "custom.txt"
        path.write_text(FIG1_FILE.replace("name = fig1", "name = custom"))
        code = main(["attack", "--scenario", str(path), "--mode", "drss"])
        assert code == 0
        assert "custom drss" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "modes, message",
        [("rss,foo", "unknown mode: 'foo'"), ("", "modes must name at least one of rss, drss")],
        ids=["rss,foo", "empty"],
    )
    def test_roc_unknown_mode_exits_one_before_writing(self, tmp_path, capsys, modes, message):
        text = FIG1_FILE + "attack = fixed-location\ntrue_location = 650 5\n"
        argv = ["roc", "--scenario", str(write(tmp_path, text)), "--modes", modes]
        code = main(argv + ["-o", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_scenario_source_exits_one(self, capsys):
        code = main(["attack", "--scenario", "no-such-scenario"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = write_bad = tmp_path / "bad.txt"
        path.write_text("name = x\nwat = 1\n")
        code = main(["attack", "--scenario", str(path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_search_key_without_min_distance_exits_one(self, tmp_path, capsys):
        text = FIG1_FILE.replace("min_distance = 500\n", "") + "coarse_grid_step = 10\n"
        code = main(["attack", "--scenario", str(write(tmp_path, text))])
        assert code == 1
        assert "missing required key 'min_distance'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            "attack = fixed-location\ntrue_location = 201.4 -9\n",
            "attack = fixed\ntrue_location = 201.4 -9\npower_boost_db = 0\n",
        ],
        ids=["true-location", "fixed"],
    )
    def test_location_on_a_station_exits_one(self, tmp_path, capsys, lines):
        # the station lies outside the 100 m disc, so only the station test fails
        text = (
            "name = on-station\nbs = 201.4 -9\nbs = -161.7 9.3\nbs = -97.4 1.2\n"
            "bs = 91.5 2.4\nsigma_db = 5\ncorrelation_distance = 50\nmin_distance = 100\n"
        )
        code = main(["mc", "--scenario", str(write(tmp_path, text + lines)), "-o", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario: location coincides with a base station")
        assert not (tmp_path / "on-station").exists()

    @pytest.mark.parametrize("command", ["roc", "mc"])
    @pytest.mark.parametrize(
        "name", ["../escaped", "ABSOLUTE", "", ".", "..", "a/b", "a\\b", "a\0b"],
        ids=["parent", "absolute", "empty", "dot", "dot-dot", "slash", "backslash", "nul"],
    )
    def test_name_that_leaves_the_output_directory_exits_one(
        self, tmp_path, capsys, monkeypatch, command, name
    ):
        monkeypatch.setattr(cli, "run_scenario", None)  # must not be reached
        name = name.replace("ABSOLUTE", str(tmp_path / "absolute"))
        text = FIG1_FILE.replace("name = fig1\n", f"name = {name}\n") + "mc_trials = 1000\n"
        path = write(tmp_path, text)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--scenario", str(path), "-o", str(tmp_path / "out" / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid scenario: name must be one non-empty path component"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_alt_location_is_not_a_key(self, tmp_path, capsys):
        # alternative-location ROCs are not part of a run
        line = len(FIG1_FILE.splitlines()) + 1
        path = write(tmp_path, FIG1_FILE + "alt_location = 650 5\n")
        assert main(["attack", "--scenario", str(path)]) == 1
        assert f"line {line}: unknown key 'alt_location'" in capsys.readouterr().err

    def test_region_is_not_a_key(self, tmp_path, capsys):
        # the search box follows from the stations and min_distance alone
        line = len(FIG1_FILE.splitlines()) + 1
        path = write(tmp_path, FIG1_FILE + "region = -400 500 -300 300\n")
        assert main(["attack", "--scenario", str(path)]) == 1
        assert f"line {line}: unknown key 'region'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["roc", "mc"])
    def test_oversized_sweep_box_exits_one_before_running(self, tmp_path, capsys, command):
        # r = 1e6 pads fig1's stations to a box of 25,603,680,042 coarse nodes
        text = FIG1_FILE + "r_values = 100 1e6\nmc_trials = 1000\n"
        path = write(tmp_path, text)
        assert main([command, "--scenario", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: invalid scenario: invalid search configuration: r_values entry 1000000.0: "
            "coarse grid would hold 25,603,680,042 points"
        )
        assert not (tmp_path / "out").exists()

    def test_huge_sweep_radius_exits_one_with_a_short_message(self, tmp_path, capsys):
        path = write(tmp_path, FIG1_FILE + "r_values = 100 1e200\nmc_trials = 1000\n")
        assert main(["mc", "--scenario", str(path), "-o", str(tmp_path / "out")]) == 1
        prefix = "error: invalid scenario: "
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{prefix}invalid search configuration: r_values entry 1e+200: ")
        assert len(err) - len(prefix) < 200
        assert err.endswith("lower the r_values entry") and "min_distance" not in err
        assert not (tmp_path / "out").exists()

    def test_sigma_with_an_overflowing_square_exits_one(self, tmp_path, capsys):
        text = FIG1_FILE.replace("sigma_db = 7.5\n", "sigma_db = 1e200\n")
        assert main(["attack", "--scenario", str(write(tmp_path, text))]) == 1
        assert capsys.readouterr().err.startswith("error: invalid scenario: sigma_db")

    @pytest.mark.parametrize(
        "lines, prefix",
        [
            ("path_loss_exponent = 1e308\n", "invalid geometry: mean received power"),
            ("ref_distance_m = 1e-320\n", "invalid geometry: mean received power"),
            ("claimed = 1e200 1e200\n", "invalid geometry: mean received power"),
            (
                "attack = fixed-location\ntrue_location = 1e200 0\n",
                "invalid scenario: mean received power",
            ),
        ],
        ids=["path-loss-exponent", "ref-distance", "claim", "true-location"],
    )
    def test_non_finite_mean_exits_one(self, tmp_path, capsys, lines, prefix):
        assert main(["attack", "--scenario", str(write(tmp_path, FIG1_FILE + lines))]) == 1
        assert capsys.readouterr().err.startswith(f"error: {prefix} is not finite")

    def test_negative_seed_exits_one_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", None)  # must not be reached
        code = main(["mc", "--scenario", "fig3", "--seed", "-1", "-o", str(tmp_path)])
        assert code == 1
        assert "mc_seed" in capsys.readouterr().err
        assert not (tmp_path / "fig3").exists()

    @pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
    def test_roc_writes_the_curves_of_run_scenario(self, tmp_path, name):
        assert main(["roc", "--scenario", name, "-o", str(tmp_path / "roc")]) == 0
        scenario = replace(builtin_scenario(name), mc_trials=1000)
        run_scenario(scenario, outdir=tmp_path / "run")
        for mode in scenario.modes:
            csv = f"{name}/{mode}_roc.csv"
            assert (tmp_path / "roc" / csv).read_bytes() == (tmp_path / "run" / csv).read_bytes()

    def test_zero_mc_trials_exits_one(self, tmp_path, capsys):
        code = main(["mc", "--scenario", "fig3", "--trials", "0", "-o", str(tmp_path)])
        assert code == 1
        assert "mc_trials" in capsys.readouterr().err

    def test_reproduce_passes_its_seed(self, tmp_path, monkeypatch):
        # each scenario runs with the registry's own mc_seed, and verification
        # with the defaults of verify_theorems, which the CLI does not restate
        from types import SimpleNamespace

        mc_seeds, verify_calls = [], []

        def fake_run_scenario(scenario, outdir=None):
            mc_seeds.append(scenario.mc_seed)
            return SimpleNamespace(worst_sigma=0.0)

        def fake_verify_theorems(**kwargs):
            verify_calls.append(kwargs)
            return SimpleNamespace(all_passed=True, to_json=lambda: "{}\n")

        monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
        monkeypatch.setattr(cli, "verify_theorems", fake_verify_theorems)
        assert main(["reproduce", "-o", str(tmp_path)]) == 0
        assert verify_calls == [{}]
        assert mc_seeds == [11, 12, 13, 14, 15, 16]

    @pytest.mark.parametrize(
        "argv, passed",
        [
            ([], {}),
            (["--seed", "7"], {"seed": 7}),
            (["--trials", "3", "--seed", "0"], {"trials": 3, "seed": 0}),
        ],
    )
    def test_verify_passes_only_the_flags_given(self, tmp_path, monkeypatch, argv, passed):
        from types import SimpleNamespace

        calls = []

        def fake_verify_theorems(**kwargs):
            calls.append(kwargs)
            return SimpleNamespace(all_passed=True, to_json=lambda: "{}\n", checks=())

        monkeypatch.setattr(cli, "verify_theorems", fake_verify_theorems)
        assert main(["verify", "-o", str(tmp_path)] + argv) == 0
        assert calls == [passed]

    def test_verify_defaults_are_100_geometries_and_seed_1(self):
        # the README's "100 geometries" for `verify` and `reproduce`
        assert VERIFY_DEFAULTS == {"trials": 100, "seed": 1}

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param(["roc", "--scenario", "fig3"], "--seed", id="--seed"),
            pytest.param(["roc", "--scenario", "fig3"], "--trials", id="--trials"),
            pytest.param(["reproduce"], "--seed", id="reproduce--seed"),
            pytest.param(["reproduce"], "--trials", id="reproduce--trials"),
        ],
    )
    def test_roc_rejects_monte_carlo_flags(self, tmp_path, capsys, command, flag):
        # reproduce runs the registry's own seeds and trial counts
        with pytest.raises(SystemExit) as exc:
            main(command + ["-o", str(tmp_path), flag, "5"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(lvsim.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "lvsim", "verify", "--trials", "1", "-o", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "verification_report.json").exists()
