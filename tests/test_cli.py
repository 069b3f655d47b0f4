import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvsim
from lvsim import cli
from lvsim.cli import ScenarioFileError, main, parse_scenario_file
from lvsim.detector import roc_from_csv
from lvsim.experiments import builtin_scenario

FIG1_FILE = """\
# corridor deployment, strongest exclusion radius
name = fig1
bs = -250 10
bs = 0 -10
bs = 250 10
sigma_db = 7.5
correlation_distance = 50
min_distance = 500
alt_location = 650 5
alt_location = 50 505
mc_seed = 11
"""


def write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestScenarioFile:
    def test_fig1_file_equals_builtin(self, tmp_path):
        parsed = parse_scenario_file(write(tmp_path, FIG1_FILE))
        assert parsed == builtin_scenario("fig1")

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, FIG1_FILE + "bandwidth = 20\n")
        with pytest.raises(ScenarioFileError, match="unknown key 'bandwidth'"):
            parse_scenario_file(path)

    def test_fixed_location_inside_disc_rejected(self, tmp_path):
        text = FIG1_FILE + "attack = fixed-location\ntrue_location = 549 5\n"
        with pytest.raises(ScenarioFileError, match="minimum-distance"):
            parse_scenario_file(write(tmp_path, text))

    def test_duplicate_stations_rejected(self, tmp_path):
        text = FIG1_FILE.replace("bs = 0 -10", "bs = -250 10")
        with pytest.raises(ScenarioFileError, match="pairwise distinct"):
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
            ("region = 0 nan 0 100\n", "finite"),
            ("region = 0 100 0 100\ncoarse_grid_step = 1e-4\n", "coarse grid would hold"),
        ],
    )
    def test_bad_search_region_rejected(self, tmp_path, lines, message):
        with pytest.raises(ScenarioFileError, match=f"invalid search configuration: .*{message}"):
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
        rss = roc_from_csv((tmp_path / "fig3" / "rss_roc.csv").read_text())
        drss = roc_from_csv((tmp_path / "fig3" / "drss_roc.csv").read_text())
        for a, b in zip(rss.alpha, drss.alpha):
            assert a == pytest.approx(b, abs=1e-9)
        for a, b in zip(rss.beta, drss.beta):
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
        curve = roc_from_csv((tmp_path / "fig2" / "drss_roc.csv").read_text())
        alphas = curve.alpha.tolist()
        betas = curve.beta.tolist()
        assert alphas == sorted(alphas)
        assert betas == sorted(betas)
        assert list(curve.thresholds) == sorted(curve.thresholds, reverse=True)
        assert 0.5 <= curve.auc <= 1.0

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

    def test_zero_mc_trials_exits_one(self, tmp_path, capsys):
        code = main(["mc", "--scenario", "fig3", "--trials", "0", "-o", str(tmp_path)])
        assert code == 1
        assert "mc_trials" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, seed", [([], 1), (["--seed", "0"], 0), (["--seed", "7"], 7)])
    def test_reproduce_passes_its_seed(self, tmp_path, monkeypatch, argv, seed):
        from types import SimpleNamespace

        mc_seeds, verify_seeds = [], []

        def fake_run_scenario(scenario, outdir=None):
            mc_seeds.append(scenario.mc_seed)
            return SimpleNamespace(modes={})

        def fake_verify_theorems(trials, seed):
            verify_seeds.append(seed)
            return SimpleNamespace(all_passed=True, to_json=lambda: "{}\n")

        monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
        monkeypatch.setattr(cli, "verify_theorems", fake_verify_theorems)
        assert main(["reproduce", "-o", str(tmp_path)] + argv) == 0
        assert verify_seeds == [seed]
        if argv:
            assert mc_seeds == [seed] * 6
        else:
            assert mc_seeds == [11, 12, 13, 14, 15, 16]

    def test_reproduce_trials_sets_only_monte_carlo_trials(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        mc_trials, verify_trials = [], []

        def fake_run_scenario(scenario, outdir=None):
            mc_trials.append(scenario.mc_trials)
            return SimpleNamespace(modes={})

        def fake_verify_theorems(trials, seed):
            verify_trials.append(trials)
            return SimpleNamespace(all_passed=True, to_json=lambda: "{}\n")

        monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
        monkeypatch.setattr(cli, "verify_theorems", fake_verify_theorems)
        assert main(["reproduce", "-o", str(tmp_path), "--trials", "20000"]) == 0
        assert mc_trials == [20000] * 6
        assert verify_trials == [100]

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_roc_rejects_monte_carlo_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["roc", "--scenario", "fig3", "-o", str(tmp_path), flag, "5"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "fig3").exists()

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
