"""Command-line interface: scenario files, ROC/attack/MC/verify workflows."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adversary import SearchConfig, SearchError
from .channel import GeometryError, NetworkGeometry
from .detector import roc_to_csv
from .experiments import (
    MC_LOG_THRESHOLDS,
    AttackPolicy,
    Scenario,
    ScenarioError,
    builtin_scenario,
    builtin_scenarios,
    run_scenario,
    verify_theorems,
)
from .montecarlo import SUITE_Z

__all__ = ["ScenarioFileError", "parse_scenario_file", "main"]

_VERIFY_TRIALS = 100  # random geometries of `verify` by default, of `reproduce` always

# Shared defaults applied when a scenario file omits the common keys.
_DEFAULTS = {
    "claimed": (50.0, 5.0),
    "ref_power_db": -10.0,
    "ref_distance_m": 1.0,
    "path_loss_exponent": 3.0,
}

_SCALAR_KEYS = {
    "name",
    "claimed",
    "ref_power_db",
    "ref_distance_m",
    "path_loss_exponent",
    "sigma_db",
    "correlation_distance",
    "min_distance",
    "attack",
    "true_location",
    "power_boost_db",
    "modes",
    "thresholds",
    "mc_trials",
    "mc_seed",
    "region",
    "coarse_grid_step",
    "refine_iterations",
    "refine_shrink",
    "dc_values",
    "r_values",
}
_REPEATED_KEYS = {"bs", "alt_location"}


class ScenarioFileError(ValueError):
    """Malformed scenario file; message carries line/field diagnostics."""


def _parse_floats(value: str, key: str, line_no: int, count: int | None = None):
    parts = value.replace(",", " ").split()
    try:
        nums = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ScenarioFileError(
            f"line {line_no}: key '{key}' expects numbers, got {value!r}"
        ) from exc
    if count is not None and len(nums) != count:
        raise ScenarioFileError(
            f"line {line_no}: key '{key}' expects {count} numbers, got {len(nums)}"
        )
    return nums


def parse_scenario_file(path: str | Path) -> Scenario:
    """Parse the flat key-value scenario format (grammar in the README).

    Unknown keys are rejected; invariant violations raise with the name of
    the violated constraint.
    """
    path = Path(path)
    scalars: dict = {}
    repeated: dict = {k: [] for k in _REPEATED_KEYS}
    lines: dict = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFileError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _REPEATED_KEYS:
            repeated[key].append((line_no, value))
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise ScenarioFileError(f"line {line_no}: duplicate key '{key}'")
            scalars[key] = value
            lines[key] = line_no
        else:
            raise ScenarioFileError(f"line {line_no}: unknown key '{key}'")

    def require(key, parse=None):
        if key not in scalars:
            raise ScenarioFileError(f"missing required key '{key}'")
        return scalars[key] if parse is None else parse(key)

    def floats(key, count=None, default=None):
        if key not in scalars:
            return default
        return _parse_floats(scalars[key], key, lines[key], count)

    def number(key, default=None, cast=float):
        if key not in scalars:
            return default
        try:
            return cast(scalars[key])
        except ValueError as exc:
            raise ScenarioFileError(
                f"line {lines[key]}: key '{key}' expects a number"
            ) from exc

    name = require("name")
    if not repeated["bs"]:
        raise ScenarioFileError("at least two 'bs' entries are required")
    bs = [_parse_floats(v, "bs", ln, 2) for ln, v in repeated["bs"]]

    try:
        geometry = NetworkGeometry(
            bs_positions=np.asarray(bs, dtype=float),
            claimed_location=np.asarray(floats("claimed", 2, _DEFAULTS["claimed"])),
            ref_power_db=number("ref_power_db", _DEFAULTS["ref_power_db"]),
            ref_distance_m=number("ref_distance_m", _DEFAULTS["ref_distance_m"]),
            path_loss_exponent=number(
                "path_loss_exponent", _DEFAULTS["path_loss_exponent"]
            ),
        )
    except GeometryError as exc:
        raise ScenarioFileError(f"invalid geometry: {exc}") from exc

    attack_kind = scalars.get("attack", "optimal")
    true_location = floats("true_location", 2)
    try:
        attack = AttackPolicy(
            kind=attack_kind,
            true_location=true_location,
            power_boost_db=number("power_boost_db"),
        )
    except ScenarioError as exc:
        raise ScenarioFileError(str(exc)) from exc

    modes = tuple(scalars.get("modes", "rss,drss").replace(",", " ").split())

    search = None
    search_keys = {"region", "coarse_grid_step", "refine_iterations", "refine_shrink"}
    if search_keys & set(scalars):
        try:
            search = SearchConfig(
                min_distance=number("min_distance", cast=float),
                region=floats("region", 4),
                coarse_grid_step=number("coarse_grid_step", 25.0),
                refine_iterations=number("refine_iterations", 6, cast=int),
                refine_shrink=number("refine_shrink", 0.5),
            )
        except SearchError as exc:
            raise ScenarioFileError(f"invalid search configuration: {exc}") from exc

    try:
        return Scenario(
            name=name,
            geometry=geometry,
            sigma_db=require("sigma_db", number),
            correlation_distance=require("correlation_distance", number),
            min_distance=require("min_distance", number),
            attack=attack,
            modes=modes,
            thresholds=floats("thresholds"),
            mc_trials=number("mc_trials", 100_000, cast=int),
            mc_seed=number("mc_seed", 1, cast=int),
            search=search,
            dc_values=floats("dc_values"),
            r_values=floats("r_values"),
            alt_locations=tuple(
                _parse_floats(v, "alt_location", ln, 2) for ln, v in repeated["alt_location"]
            ),
        )
    except ScenarioError as exc:
        raise ScenarioFileError(f"invalid scenario: {exc}") from exc


def _load_scenario(source: str) -> Scenario:
    try:
        return builtin_scenario(source)
    except ScenarioError:
        pass
    if Path(source).exists():
        return parse_scenario_file(source)
    names = ", ".join(s.name for s in builtin_scenarios())
    raise ScenarioFileError(
        f"'{source}' is neither a builtin scenario ({names}) nor an existing file"
    )


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["mc_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["mc_trials"] = args.trials
    if getattr(args, "thresholds", None):
        changes["thresholds"] = tuple(args.thresholds)
    return replace(scenario, **changes) if changes else scenario


def _outdir(args) -> Path:
    if args.outdir is not None:
        return Path(args.outdir)
    return Path(os.environ.get("LVSIM_OUTDIR", "lvsim_out"))


def _cmd_roc(args) -> int:
    from .detector import default_threshold_grid, roc_sweep
    from .experiments import detector_spec, resolve_attack

    scenario = _apply_overrides(_load_scenario(args.scenario), args)
    modes = tuple(args.modes.replace(",", " ").split()) if args.modes else scenario.modes
    model = scenario.shadowing()
    outdir = _outdir(args) / scenario.name
    outdir.mkdir(parents=True, exist_ok=True)
    for mode in modes:
        strategy = resolve_attack(scenario, mode, model)
        spec = detector_spec(mode, scenario.geometry, model, strategy)
        thresholds = (
            scenario.thresholds
            if scenario.thresholds is not None
            else default_threshold_grid(spec.separation)
        )
        curve = roc_sweep(spec, thresholds)
        path = outdir / f"{mode}_roc.csv"
        path.write_text(roc_to_csv(curve))
        print(f"{scenario.name} {mode}: auc={curve.auc:.12g} -> {path}")
    return 0


def _cmd_attack(args) -> int:
    from .experiments import resolve_attack

    scenario = _load_scenario(args.scenario)
    model = scenario.shadowing()
    for mode in (args.mode,) if args.mode else scenario.modes:
        strategy = resolve_attack(scenario, mode, model)
        x, y = strategy.true_location
        print(
            f"{scenario.name} {mode}: x_t=[{x:.12g}, {y:.12g}] "
            f"p_x={strategy.power_boost_db:.12g} dB "
            f"(boost {'applies' if strategy.power_boost_relevant else 'irrelevant'}) "
            f"kl={strategy.kl_nats:.12g} nats"
        )
    return 0


def _cmd_mc(args) -> int:
    scenario = _apply_overrides(_load_scenario(args.scenario), args)
    result = run_scenario(scenario, outdir=_outdir(args))
    worst = 0.0
    for mr in result.modes.values():
        for rec in mr.mc_records:
            worst = max(worst, rec["sigma"])
            print(
                f"{rec['scenario']} {rec['mode']} lnλ={rec['ln_lambda']:+.1f} "
                f"{rec['hypothesis']}: rate={rec['rate']:.6g} "
                f"analytic={rec['analytic']:.6g} ({rec['sigma']:.2f}σ)"
            )
    print(f"worst deviation: {worst:.2f}σ (gate {SUITE_Z}σ)")
    return 0 if worst <= SUITE_Z else 2


def _cmd_verify(args) -> int:
    report = verify_theorems(trials=args.trials, seed=args.seed)
    outdir = _outdir(args)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "verification_report.json").write_text(report.to_json())
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{status}  {check.name}: discrepancy={check.discrepancy:.3g} "
            f"tolerance={check.tolerance:.3g}"
        )
    return 0 if report.all_passed else 2


def _cmd_reproduce(args) -> int:
    outdir = _outdir(args)
    failed = False
    for scenario in builtin_scenarios():
        scenario = _apply_overrides(scenario, args)
        result = run_scenario(scenario, outdir=outdir)
        worst = max(
            (rec["sigma"] for mr in result.modes.values() for rec in mr.mc_records),
            default=0.0,
        )
        print(f"{scenario.name}: worst MC deviation {worst:.2f}σ")
        failed = failed or worst > SUITE_Z
    report = verify_theorems(
        trials=_VERIFY_TRIALS, seed=1 if args.seed is None else args.seed
    )
    (outdir / "verification_report.json").write_text(report.to_json())
    print("verification: " + ("all checks pass" if report.all_passed else "FAILURES"))
    return 2 if failed or not report.all_passed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvsim",
        description="Location-verification detector simulator under correlated shadowing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="builtin name or scenario file path")
        p.add_argument("-o", "--outdir", default=None, help="output directory (default $LVSIM_OUTDIR)")

    p_roc = sub.add_parser("roc", help="analytic ROC curves per mode")
    add_common(p_roc)
    p_roc.add_argument("--modes", default=None, help="comma-separated subset of rss,drss")
    p_roc.add_argument("--thresholds", type=float, nargs="+", default=None)
    p_roc.set_defaults(func=_cmd_roc)

    p_attack = sub.add_parser("attack", help="print the optimal attack strategy")
    p_attack.add_argument("--scenario", required=True)
    p_attack.add_argument("--mode", default=None, choices=("rss", "drss"))
    p_attack.set_defaults(func=_cmd_attack)

    p_mc = sub.add_parser("mc", help="Monte Carlo validation of the analytic rates")
    add_common(p_mc)
    p_mc.add_argument("--seed", type=int, default=None, help="seed override")
    p_mc.add_argument("--trials", type=int, default=None, help="trial-count override")
    p_mc.set_defaults(func=_cmd_mc)

    p_verify = sub.add_parser("verify", help="run the theorem-verification suite")
    p_verify.add_argument("--trials", type=int, default=_VERIFY_TRIALS)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("-o", "--outdir", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run the full scenario registry")
    p_rep.add_argument("-o", "--outdir", default=None)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every lvsim validation error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
