"""Tests of the benchmark itself: tiny workloads, and checks that fire."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import lvsim  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import TraceCoverageError, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def _run_bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- query ---------------------------------------------------------------


def test_query_tiny_run_passes_its_checks():
    res = workloads.Query(seed=7, batch=4).run_task(0)
    assert (res.attempted, res.failed, len(res.ops)) == (4, 0, 4)
    assert res.problems == []


def test_query_inputs_follow_the_seed():
    def first(seed):
        geometry, sigma, dc, r = workloads.random_deployment(
            workloads.np.random.default_rng([seed, 0])
        )
        return geometry.bs_positions.tolist(), sigma, dc, r

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_query_checks_fire_on_wrong_answers():
    dep = workloads.random_deployment(workloads.np.random.default_rng([7, 0]))
    cfg, strategies, specs, curves = workloads.run_query(*dep)
    assert workloads.query_problems(cfg, strategies, specs, curves) == []

    drss = strategies["drss"]
    wrong_kl = dict(strategies, drss=dataclasses.replace(drss, kl_nats=drss.kl_nats * 1.001 + 1e-6))
    assert workloads.query_problems(cfg, wrong_kl, specs, curves)

    x, y = drss.true_location
    moved = dict(strategies, drss=dataclasses.replace(drss, true_location=(x + 1.0, y)))
    assert any("apart" in p for p in workloads.query_problems(cfg, moved, specs, curves))

    for auc in (0.49, 1.001):
        wrong = dict(curves, rss=dataclasses.replace(curves["rss"], auc=auc))
        assert any("auc" in p for p in workloads.query_problems(cfg, strategies, specs, wrong))
    rounded = dict(curves, rss=dataclasses.replace(curves["rss"], auc=1.0000000000000002))
    assert workloads.query_problems(cfg, strategies, specs, rounded) == []


def test_query_tolerance_is_mixed_absolute_relative():
    # KL of 2e-8 nats: relative gap 1.25e-7, absolute 2.5e-15 -> correct.
    assert workloads._query_close(2e-8, 2e-8 + 2.5e-15)
    assert not workloads._query_close(1.0, 1.0 + 1e-8)
    assert not workloads._query_close(1e3, 1e3 * (1 + 1e-8))


# -- verify --------------------------------------------------------------


def test_verify_tiny_run_passes_every_check():
    res = workloads.Verify(seed=3, trials=2, calls=2).run_task(0)
    assert (res.attempted, res.failed, len(res.ops)) == (2 * workloads.VERIFY_CHECKS, 0, 2)


# -- reproduce -----------------------------------------------------------


def _perturb_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _perturb_csv_cell(path: Path, row: int, col: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_reproduce_counts_a_perturbed_golden_value_as_failed(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    _perturb_json(
        golden / "fig1" / "attack.json",
        lambda d: d["rss"]["true_location"].__setitem__(0, d["rss"]["true_location"][0] + 0.5),
    )
    res = workloads.Reproduce(tmp_path / "work", golden).run_task(0)
    # Seven steps (six scenarios and the verification); only fig1 fails, and
    # only on the perturbed value, so every other comparison passed.
    assert (res.attempted, res.failed, len(res.ops)) == (7, 1, 7)
    assert len(res.problems) == 1 and "rss location" in res.problems[0]
    assert not (tmp_path / "work" / "reproduce-0").exists()


def test_roc_comparison_accepts_exact_auc_and_rejects_wrong_rates(tmp_path):
    want = GOLDEN / "fig3" / "rss_roc.csv"
    got = tmp_path / "rss_roc.csv"
    assert workloads._compare_roc(want, want) == []

    text = want.read_text().splitlines()
    meta = dict(p.split("=") for p in text[-1][2:].split())
    shifted = float(meta["auc"]) + 9.2e-5  # largest trapezoid-to-exact AUC move
    got.write_text("\n".join(text[:-1] + [f"# s={meta['s']} auc={shifted!r}"]) + "\n")
    assert workloads._compare_roc(got, want) == []

    got.write_text(want.read_text())
    _perturb_csv_cell(got, 100, 2, 1e-6)
    assert any("row 99" in p for p in workloads._compare_roc(got, want))


def test_sweep_comparison_rejects_a_wrong_auc(tmp_path):
    want = GOLDEN / "fig4" / "sweep.csv"
    got = tmp_path / "sweep.csv"
    got.write_text(want.read_text())
    _perturb_csv_cell(got, 2, 2, 1e-3)
    assert workloads._compare_sweep(want, want) == []
    assert len(workloads._compare_sweep(got, want)) == 1


def test_monte_carlo_gate_fires_above_3_89_sigma(tmp_path):
    path = tmp_path / "mc.jsonl"
    rec = {"mode": "rss", "hypothesis": "h0", "ln_lambda": 0.0, "sigma": 3.88}
    path.write_text(json.dumps(rec) + "\n")
    assert workloads._check_mc(path) == []
    path.write_text(json.dumps(dict(rec, sigma=3.9)) + "\n")
    assert len(workloads._check_mc(path)) == 1
    path.write_text("")
    assert workloads._check_mc(path) == ["%s: no Monte Carlo records" % path]


# -- tracing -------------------------------------------------------------


def test_tracer_replaces_every_binding_and_restores_them():
    tracer = Tracer(lvsim)
    original = lvsim.channel.mean_vector
    tracer.install()
    try:
        wrapped = lvsim.channel.mean_vector
        assert wrapped is not original
        assert lvsim.experiments.mean_vector is wrapped
        assert lvsim.montecarlo.mean_vector is wrapped
        assert lvsim.adversary.mean_vector is wrapped
        assert lvsim.mean_vector is wrapped
        for mod in tracer.modules:
            for val in vars(mod).values():
                assert tracer.originals.get(id(val)) is not val
    finally:
        tracer.uninstall()
    assert lvsim.experiments.mean_vector is original


def test_tracer_fails_loudly_on_a_binding_it_cannot_replace(monkeypatch):
    tracer = Tracer(lvsim)
    table = {"rss": lvsim.adversary.kl_rss_minimized}
    monkeypatch.setattr(lvsim.experiments, "_OBJECTIVES", table, raising=False)
    with pytest.raises(TraceCoverageError, match="_OBJECTIVES"):
        tracer.install()
    assert lvsim.adversary.kl_rss_minimized is table["rss"]  # rolled back


@pytest.mark.parametrize(
    "workload", [workloads.Query(seed=5, batch=3), workloads.Verify(seed=5, trials=2, calls=2)]
)
def test_traced_run_reports_every_layer_metric(workload):
    tracer = Tracer(lvsim)
    untraced = workload.run_task(0)
    tracer.install()
    try:
        traced = workload.run_task(0)
    finally:
        tracer.uninstall()
    values = worker.per_layer(tracer, [traced], [untraced])
    assert set(values) == _names("per_layer")
    idle = [name for name in worker.STRESS[workload.name] if not values[name] > 0]
    assert idle == []
    assert tracer.n_spans > 0


# -- the command ---------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    res = workloads.Query(seed=1, batch=2).run_task(0)
    assert set(worker.end_to_end([res])) | {"setup_s"} == _names("end_to_end")


def test_command_prints_every_end_to_end_metric():
    out = _run_bench(ROOT, "--workload", "query", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    out = _run_bench(tmp_path, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
