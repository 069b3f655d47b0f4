"""Command-line interface: scenario files, ROC/attack/MC/verify workflows."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .channel import GeometryError
from .detector import roc_to_csv
from .experiments import (
    AttackPolicy,
    Scenario,
    ScenarioError,
    builtin_scenario,
    builtin_scenarios,
    deployment_geometry,
    resolve_attack,
    roc_stage,
    run_scenario,
    verify_theorems,
)
from .montecarlo import SUITE_Z

__all__ = ["ScenarioFileError", "parse_scenario_file", "main"]


class ScenarioFileError(ValueError):
    """Malformed scenario file; message carries line/field diagnostics."""


def _numbers(count=None):
    def parse(value):
        try:
            nums = tuple(float(p) for p in value.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"expects numbers, got {value!r}") from None
        if count is not None and len(nums) != count:
            raise ValueError(f"expects {count} numbers, got {len(nums)}")
        return nums

    return parse


def _number(cast):
    def parse(value):
        try:
            return cast(value)
        except ValueError:
            raise ValueError("expects a number") from None

    return parse


def _words(value):
    return tuple(value.replace(",", " ").split())


# Scenario-file key -> (constructor it feeds, field, value parser).  Only the
# keys a file sets are passed on, so each omitted key takes the default of
# deployment_geometry, AttackPolicy or Scenario.
_KEYS = {
    "name": ("scenario", "name", str),
    "bs": ("geometry", "bs", _numbers(2)),
    "claimed": ("geometry", "claimed", _numbers(2)),
    "ref_power_db": ("geometry", "ref_power_db", _number(float)),
    "ref_distance_m": ("geometry", "ref_distance_m", _number(float)),
    "path_loss_exponent": ("geometry", "path_loss_exponent", _number(float)),
    "sigma_db": ("scenario", "sigma_db", _number(float)),
    "correlation_distance": ("scenario", "correlation_distance", _number(float)),
    "min_distance": ("scenario", "min_distance", _number(float)),
    "attack": ("attack", "kind", str),
    "true_location": ("attack", "true_location", _numbers(2)),
    "power_boost_db": ("attack", "power_boost_db", _number(float)),
    "modes": ("scenario", "modes", _words),
    "thresholds": ("scenario", "thresholds", _numbers()),
    "mc_trials": ("scenario", "mc_trials", _number(int)),
    "mc_seed": ("scenario", "mc_seed", _number(int)),
    "coarse_grid_step": ("scenario", "coarse_grid_step", _number(float)),
    "dc_values": ("scenario", "dc_values", _numbers()),
    "r_values": ("scenario", "r_values", _numbers()),
}
# the Scenario fields without a default that a file sets directly
_REQUIRED_KEYS = tuple(
    f.name for f in fields(Scenario) if f.default is MISSING and f.name in _KEYS
)


def parse_scenario_file(path: str | Path) -> Scenario:
    """Parse the flat key-value scenario format (grammar in the README).

    Unknown keys are rejected; invariant violations raise with the name of
    the violated constraint.
    """
    args = {"geometry": {}, "attack": {}, "scenario": {}}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFileError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ScenarioFileError(f"line {line_no}: unknown key '{key}'")
        target, name, parse = _KEYS[key]
        if key != "bs" and name in args[target]:
            raise ScenarioFileError(f"line {line_no}: duplicate key '{key}'")
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ScenarioFileError(f"line {line_no}: key '{key}' {exc}") from exc
        if key == "bs":  # the one key a file repeats
            parsed = args[target].get(name, ()) + (parsed,)
        args[target][name] = parsed

    scenario = args["scenario"]
    for key in _REQUIRED_KEYS:
        if key not in scenario:
            raise ScenarioFileError(f"missing required key '{key}'")
    if "bs" not in args["geometry"]:
        raise ScenarioFileError("at least two 'bs' entries are required")
    scenario["geometry"] = _build(
        deployment_geometry, args["geometry"], GeometryError, "invalid geometry: "
    )
    if args["attack"]:
        scenario["attack"] = _build(
            AttackPolicy, args["attack"], ScenarioError, "invalid attack: "
        )
    return _build(Scenario, scenario, ScenarioError, "invalid scenario: ")


def _build(constructor, kwargs: dict, error, prefix: str):
    """``constructor(**kwargs)``, with its ``error`` re-raised as a ScenarioFileError."""
    try:
        return constructor(**kwargs)
    except error as exc:
        raise ScenarioFileError(prefix + str(exc)) from exc


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


def _given(args, *names) -> dict:
    """The options among ``names`` that the command line sets, by name."""
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {"mc_" + name: value for name, value in _given(args, "seed", "trials").items()}
    if getattr(args, "thresholds", None):
        changes["thresholds"] = tuple(args.thresholds)
    if getattr(args, "modes", None) is not None:
        changes["modes"] = _words(args.modes)
    return replace(scenario, **changes) if changes else scenario


def _outdir(args) -> Path:
    if args.outdir is not None:
        return Path(args.outdir)
    return Path(os.environ.get("LVSIM_OUTDIR", "lvsim_out"))


def _cmd_roc(args) -> int:
    scenario = _apply_overrides(_load_scenario(args.scenario), args)
    model = scenario.shadowing()
    outdir = _outdir(args) / scenario.name
    outdir.mkdir(parents=True, exist_ok=True)
    for mode in scenario.modes:
        _, _, curve = roc_stage(scenario, mode, model)
        path = outdir / f"{mode}_roc.csv"
        path.write_text(roc_to_csv(curve))
        print(f"{scenario.name} {mode}: auc={curve.auc:.12g} -> {path}")
    return 0


def _cmd_attack(args) -> int:
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
    for mr in result.modes.values():
        for rec in mr.mc_records:
            print(
                f"{rec['scenario']} {rec['mode']} lnλ={rec['ln_lambda']:+.1f} "
                f"{rec['hypothesis']}: rate={rec['rate']:.6g} "
                f"analytic={rec['analytic']:.6g} ({rec['sigma']:.2f}σ)"
            )
    print(f"worst deviation: {result.worst_sigma:.2f}σ (gate {SUITE_Z}σ)")
    return 0 if result.worst_sigma <= SUITE_Z else 2


def _cmd_verify(args) -> int:
    report = verify_theorems(**_given(args, "trials", "seed"))
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
        worst = run_scenario(scenario, outdir=outdir).worst_sigma
        print(f"{scenario.name}: worst MC deviation {worst:.2f}σ")
        failed = failed or worst > SUITE_Z
    report = verify_theorems()
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
    p_verify.add_argument("--trials", type=int, default=None, help="random geometries")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("-o", "--outdir", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run the full scenario registry")
    p_rep.add_argument("-o", "--outdir", default=None)
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
