"""Scenario registry, end-to-end runs, and the theorem-verification suite.

The builtin scenarios reproduce the published figure configurations at desk
scale; ``verify_theorems`` stress-tests the analytic identities on random
geometries.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .adversary import AttackStrategy, SearchConfig, SearchError, default_search_region, kl_drss
from .adversary import kl_rss, kl_rss_minimized, optimal_power_boost, optimize_true_location
from .adversary import _claim_distance, _coarse_shape, refined_grid_cell
from .channel import GeometryError, NetworkGeometry, ShadowingModel, build_covariance, mean_vector
from .channel import _COUNT, _NONNEGATIVE, _POSITIVE, _SEED, _SIGMA, _dot, _finite_mean, _real
from .detector import DetectorSpec, analytic_rates, build_d_matrix, default_threshold_grid
from .detector import drss_transform, exact_auc, roc_sweep, roc_to_csv
from .montecarlo import TrialPlan, agreement_sigma, estimate_rate

__all__ = [
    "ScenarioError",
    "AttackPolicy",
    "Scenario",
    "ModeResult",
    "ScenarioResult",
    "CheckResult",
    "VerificationReport",
    "builtin_scenarios",
    "builtin_scenario",
    "deployment_geometry",
    "detector_spec",
    "resolve_attack",
    "roc_stage",
    "optimal_auc",
    "run_scenario",
    "verify_theorems",
    "MC_LOG_THRESHOLDS",
]

MC_LOG_THRESHOLDS = (-2.0, -1.0, 0.0, 1.0, 2.0)

# Claimed location shared by every published configuration.
_CLAIMED = (50.0, 5.0)

# Correlation distances of the published D_c sweeps (fig4 and fig5).
_DC_SWEEP = (0.0, 10.0, 50.0, 200.0)

# verify_theorems draws and checks its geometries in blocks of this many
# trials, so the stacks it holds stay the same size however many it runs.
_VERIFY_BLOCK = 256


class ScenarioError(ValueError):
    """Invalid scenario definition."""


@dataclass(frozen=True)
class AttackPolicy:
    """How the attacker's strategy is chosen for a run.

    kind "optimal": full search; "fixed-location": given location, optimal
    boost; "fixed": given location and boost.
    """

    kind: str = "optimal"
    true_location: tuple | None = None
    power_boost_db: float | None = None

    def __post_init__(self):
        if self.kind not in ("optimal", "fixed-location", "fixed"):
            raise ScenarioError(f"unknown attack kind: {self.kind!r}")
        if self.kind != "optimal" and self.true_location is None:
            raise ScenarioError(f"attack kind {self.kind!r} requires a true location")
        if self.kind == "fixed" and self.power_boost_db is None:
            raise ScenarioError("attack kind 'fixed' requires a power boost")
        if self.kind == "optimal" and self.true_location is not None:
            raise ScenarioError("attack kind 'optimal' takes no true_location")
        if self.kind != "fixed" and self.power_boost_db is not None:
            raise ScenarioError(f"attack kind {self.kind!r} takes no power_boost_db")
        if self.true_location is not None:
            rule = "two finite numbers", np.isfinite
            loc = _real(self.true_location, "true_location", ScenarioError, rule, (2,))
            vars(self)["true_location"] = tuple(loc.tolist())
        if self.power_boost_db is not None:
            boost = _real(self.power_boost_db, "power_boost_db", ScenarioError)
            vars(self)["power_boost_db"] = boost


# ln λ = ±inf is a legal operating point
_THRESHOLDS = "at least two ln λ values, none NaN", lambda x: len(x) > 1 and ~np.isnan(x)


@dataclass(frozen=True)
class Scenario:
    """One complete experiment configuration; ``min_distance`` and
    ``coarse_grid_step`` are the settings of its attacker search, whose box for
    ``min_distance`` and for each ``r_values`` entry is checked when built."""

    name: str
    geometry: NetworkGeometry
    sigma_db: float
    correlation_distance: float
    min_distance: float
    attack: AttackPolicy = AttackPolicy()
    modes: tuple = ("rss", "drss")
    thresholds: tuple | None = None
    mc_trials: int = 100_000
    mc_seed: int = 1
    coarse_grid_step: float = SearchConfig.coarse_grid_step
    dc_values: tuple | None = None
    r_values: tuple | None = None

    def __post_init__(self):
        # the name is the run's output subdirectory, so it must stay inside -o
        bad = not isinstance(self.name, str) or self.name in ("", ".", "..")
        if bad or not {"/", "\\", "\0"}.isdisjoint(self.name):
            raise ScenarioError(
                "name must be one non-empty path component (no / or \\, not . or .., "
                f"no NUL), got {self.name!r}"
            )
        if isinstance(self.modes, str) or not isinstance(self.modes, Sequence) or not self.modes:
            raise ScenarioError(
                f"modes must name at least one of rss, drss in a sequence, got {self.modes!r}"
            )
        for mode in self.modes:
            _check_mode(mode)
        for key, rule, kind in (  # see channel._real for the rules and forms
            ("sigma_db", _SIGMA, float),
            ("correlation_distance", _NONNEGATIVE, float),
            ("mc_trials", _COUNT, int),
            ("mc_seed", _SEED, int),
            ("thresholds", _THRESHOLDS, (None,)),
            ("dc_values", _NONNEGATIVE, (None,)),
            ("r_values", _POSITIVE, (None,)),
        ):
            value = getattr(self, key)
            if value is not None or kind != (None,):  # an unset sequence is None
                value = _real(value, key, ScenarioError, rule, kind)
                vars(self)[key] = tuple(value.tolist()) if kind == (None,) else value
        radii = [("min_distance", self.min_distance)]
        radii += [("r_values entry", r) for r in self.r_values or ()]
        for key, r in radii:
            try:
                SearchConfig(r, self.coarse_grid_step)
                _coarse_shape(default_search_region(self.geometry, r), self.coarse_grid_step, key)
            except SearchError as exc:
                raise ScenarioError(f"invalid search configuration: {key} {r!r}: {exc}") from None
        vars(self).update(vars(self.search_config()))  # min_distance and the step, as floats
        if (loc := self.attack.true_location) is not None:
            try:
                _finite_mean(self.geometry, loc)
            except GeometryError as exc:
                raise ScenarioError(f"{exc}: {loc}") from None
            d = _claim_distance(loc, self.geometry.claimed_location.tolist())
            if d < self.min_distance:
                raise ScenarioError(
                    f"location {loc} lies {d!r} m from the claimed location, "
                    f"inside the {self.min_distance:.6g} m minimum-distance disc"
                )

    def search_config(self) -> SearchConfig:
        return SearchConfig(self.min_distance, self.coarse_grid_step)

    def shadowing(self, correlation_distance: float | None = None) -> ShadowingModel:
        dc = self.correlation_distance if correlation_distance is None else correlation_distance
        return build_covariance(self.geometry, self.sigma_db, dc)


def _check_mode(mode) -> None:
    if mode not in ("rss", "drss"):
        raise ScenarioError(f"unknown mode: {mode!r}")


def deployment_geometry(
    bs,
    claimed=_CLAIMED,
    ref_power_db: float = -10.0,
    ref_distance_m: float = 1.0,
    path_loss_exponent: float = 3.0,
) -> NetworkGeometry:
    """Stations ``bs`` in the published deployment; every other value has its
    published default (claimed location, 1 m reference power, path-loss law)."""
    return NetworkGeometry(bs, claimed, ref_power_db, ref_distance_m, path_loss_exponent)


def builtin_scenarios() -> list[Scenario]:
    """The six registered experiment configurations: three deployments, fig1
    (corridor), fig2 and fig3 (mixed), then fig4-fig6, which sweep fig1 and fig3."""
    fig1 = Scenario(
        name="fig1",
        geometry=deployment_geometry([[-250.0, 10.0], [0.0, -10.0], [250.0, 10.0]]),
        sigma_db=7.5,
        correlation_distance=50.0,
        min_distance=500.0,
        mc_seed=11,
    )
    fig2 = Scenario(
        name="fig2",
        geometry=deployment_geometry([[201.4, -9.0], [-161.7, 9.3], [-97.4, 1.2], [91.5, 2.4]]),
        sigma_db=5.0,
        correlation_distance=50.0,
        min_distance=100.0,
        mc_seed=12,
    )
    fig3 = Scenario(
        name="fig3",
        geometry=deployment_geometry([[0.0, 10.0], [131.4, -9.3], [20.6, -0.9]]),
        sigma_db=5.0,
        correlation_distance=50.0,
        min_distance=100.0,
        mc_seed=13,
    )
    return [
        fig1,
        fig2,
        fig3,
        replace(fig1, name="fig4", dc_values=_DC_SWEEP, mc_seed=14),
        replace(fig3, name="fig5", dc_values=_DC_SWEEP, mc_seed=15),
        replace(fig3, name="fig6", r_values=(100.0, 250.0, 500.0), mc_seed=16),
    ]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise ScenarioError(f"unknown builtin scenario: {name!r}")


def resolve_attack(
    scenario: Scenario, mode: str, model: ShadowingModel
) -> AttackStrategy:
    """Attacker strategy for one mode under the scenario's attack policy."""
    _check_mode(mode)
    geometry = scenario.geometry
    policy = scenario.attack
    if policy.kind == "optimal":
        return optimize_true_location(mode, scenario.search_config(), geometry, model)
    x_t = policy.true_location  # a tuple of floats, as is any boost
    if mode == "drss":
        return AttackStrategy(x_t, 0.0, kl_drss(x_t, geometry, model), power_boost_relevant=False)
    boost = policy.power_boost_db
    if policy.kind == "fixed-location":
        boost = optimal_power_boost(geometry.claimed_mean, mean_vector(geometry, x_t), model)
    return AttackStrategy(x_t, boost, kl_rss(boost, x_t, geometry, model))


def detector_spec(
    mode: str,
    geometry: NetworkGeometry,
    model: ShadowingModel,
    strategy: AttackStrategy,
) -> DetectorSpec:
    """Detector specification matching a given attack strategy."""
    v = strategy.power_boost_db + mean_vector(geometry, strategy.true_location)
    return _matched_spec(mode, geometry.claimed_mean, v, model.covariance)


def _matched_spec(mode: str, u, v, cov) -> DetectorSpec:
    """Detector of claimed mean ``u`` against attack mean ``v`` under the RSS
    covariance ``cov``; u, v (..., N) and cov (..., N, N) give a spec stack."""
    _check_mode(mode)
    if mode == "rss":
        return DetectorSpec(mode="rss", mu0=u, mu1=v, cov=cov)
    return DetectorSpec(
        mode="drss", mu0=drss_transform(u), mu1=drss_transform(v), cov=build_d_matrix(cov)
    )


def optimal_auc(scenario: Scenario) -> tuple:
    """Exact RSS ROC area under a re-optimized attack at every sweep point:
    (parameter, value, auc) rows, the D_c values first, then the r values.

    Every point is one row of a geometry stack, searched in one call and
    scored by one spec stack: a D_c row with its own model, an r row with its
    own config, whose search box follows from r.
    """
    cfg = scenario.search_config()
    rows = [
        ("correlation_distance", dc, scenario.shadowing(dc), cfg) for dc in scenario.dc_values or ()
    ]
    rows += [
        ("min_distance", r, scenario.shadowing(), replace(cfg, min_distance=r))
        for r in scenario.r_values or ()
    ]
    if not rows:
        return ()
    _, _, models, configs = zip(*rows)
    geometry = NetworkGeometry.stack([scenario.geometry] * len(rows))
    model = ShadowingModel.stack(models)
    strategies = optimize_true_location("rss", configs, geometry, model)
    boosts = np.array([s.power_boost_db for s in strategies])[:, None]
    v = boosts + mean_vector(geometry, np.array([s.true_location for s in strategies]))
    spec = _matched_spec("rss", geometry.claimed_mean, v, model.covariance)
    return tuple(
        (parameter, value, exact_auc(s))
        for (parameter, value, *_), s in zip(rows, spec.separation.tolist())
    )


def roc_stage(scenario: Scenario, mode: str, model: ShadowingModel):
    """One mode's attack, detector spec and analytic ROC; returns (strategy,
    spec, curve).  The curve uses the scenario's thresholds, or the default
    grid of the spec's separation."""
    strategy = resolve_attack(scenario, mode, model)
    spec = detector_spec(mode, scenario.geometry, model, strategy)
    thresholds = (
        scenario.thresholds
        if scenario.thresholds is not None
        else default_threshold_grid(spec.separation)
    )
    return strategy, spec, roc_sweep(spec, thresholds)


@dataclass(frozen=True)
class ModeResult:
    mode: str
    strategy: AttackStrategy
    roc: "RocCurve"  # noqa: F821 - detector.RocCurve
    mc_records: tuple


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    modes: dict
    sweep: tuple = ()  # optimal_auc's (parameter, value, auc) rows

    @property
    def worst_sigma(self) -> float:
        """Largest Monte Carlo deviation over every mode's records (0 if none)."""
        return max(
            (rec["sigma"] for mr in self.modes.values() for rec in mr.mc_records),
            default=0.0,
        )


def run_scenario(scenario: Scenario, outdir: str | Path | None = None) -> ScenarioResult:
    """Full pipeline for one scenario: attack, analytic ROC, MC validation at
    ``MC_LOG_THRESHOLDS``, and the sweep stage.

    The Monte Carlo check scores every mode's spec at every ln λ on one set
    of draws per distribution: one H0 set, and one H1 set per attacker true
    location, drawn at its unboosted mean. RSS scores the H1 set shifted by
    its boost; DRSS scores its difference, which the boost cannot reach.
    Each set's SFC64 stream is ``SeedSequence(mc_seed, spawn_key=(k,))``,
    k = 0 for H0 and 1 for every H1 set, so a mode's records do not depend
    on which other modes run.
    """
    geometry = scenario.geometry
    model = scenario.shadowing()
    analysis = {mode: roc_stage(scenario, mode, model) for mode in scenario.modes}

    def score(hypothesis, modes, strategy=None):
        """``modes``' empirical rates at every ln λ, all on one set of draws."""
        key = ("h0", "h1").index(hypothesis)
        seed = np.random.SeedSequence(scenario.mc_seed, spawn_key=(key,))
        plan = TrialPlan(scenario.mc_trials, seed, hypothesis, strategy)
        specs = [analysis[mode][1] for mode in modes]
        rates = estimate_rate(plan, specs, geometry, model, MC_LOG_THRESHOLDS)
        k = len(MC_LOG_THRESHOLDS)  # mode by mode, then threshold by threshold
        return {mode: rates[i * k : (i + 1) * k] for i, mode in enumerate(modes)}

    empirical = {"h0": score("h0", scenario.modes), "h1": {}}
    locations = {}
    for mode, (strategy, _, _) in analysis.items():
        locations.setdefault(strategy.true_location, []).append(mode)
    for modes in locations.values():
        # the RSS strategy carries the boost the RSS spec scores; DRSS cannot see it
        strategy = analysis["rss" if "rss" in modes else modes[0]][0]
        empirical["h1"].update(score("h1", modes, strategy))

    mode_results = {}
    for mode, (strategy, spec, curve) in analysis.items():
        rates = analytic_rates(spec, MC_LOG_THRESHOLDS)
        analytic = {"h0": rates.alpha.tolist(), "h1": rates.beta.tolist()}
        records = []
        for i, lam in enumerate(MC_LOG_THRESHOLDS):
            for hyp in ("h0", "h1"):
                emp = empirical[hyp][mode][i]
                records.append(
                    {
                        "scenario": scenario.name,
                        "mode": mode,
                        "ln_lambda": lam,
                        "hypothesis": hyp,
                        "n": emp.n_trials,
                        "rate": emp.rate,
                        "stderr": emp.stderr,
                        "analytic": analytic[hyp][i],
                        "sigma": agreement_sigma(emp, analytic[hyp][i]),
                    }
                )
        mode_results[mode] = ModeResult(mode, strategy, curve, tuple(records))

    result = ScenarioResult(scenario=scenario, modes=mode_results, sweep=optimal_auc(scenario))
    if outdir is not None:
        _write_result(result, Path(outdir))
    return result


def _write_result(result: ScenarioResult, outdir: Path) -> None:
    base = outdir / result.scenario.name
    base.mkdir(parents=True, exist_ok=True)
    for mode, mr in result.modes.items():
        (base / f"{mode}_roc.csv").write_text(roc_to_csv(mr.roc))
    with (base / "mc.jsonl").open("w") as fh:
        for mode in result.modes.values():
            for rec in mode.mc_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    attack = {mode: asdict(mr.strategy) for mode, mr in result.modes.items()}
    (base / "attack.json").write_text(json.dumps(attack, sort_keys=True, indent=2) + "\n")
    if result.sweep:
        lines = ["parameter,value,auc"]
        lines += [f"{parameter},{value:.12g},{auc:.12g}" for parameter, value, auc in result.sweep]
        (base / "sweep.csv").write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    discrepancy: float
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    trials: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "discrepancy": c.discrepancy,
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _random_geometry(rng: np.random.Generator):
    """Random deployment in the 500 x 20 m box, path-loss exponent 2-4, feasible attacker."""
    while True:
        n = int(rng.integers(3, 6))
        bs = np.column_stack(
            [rng.uniform(-250.0, 250.0, n), rng.uniform(-10.0, 10.0, n)]
        )
        d = np.linalg.norm(bs[:, None, :] - bs[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        xc = np.asarray(_CLAIMED)
        if d.min() > 1.0 and np.linalg.norm(bs - xc, axis=-1).min() > 1.0:
            break
    r = 100.0
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rho = rng.uniform(r, 3.0 * r)
    x_t = xc + rho * np.array([np.cos(theta), np.sin(theta)])
    sigma = float(rng.uniform(3.0, 10.0))
    dc = float(rng.uniform(0.0, 200.0))
    geometry = deployment_geometry(bs, path_loss_exponent=float(rng.uniform(2.0, 4.0)))
    return geometry, x_t, sigma, dc, r


def _geometry_groups(trials: int, seed: int):
    """verify_theorems' random draws, in their RNG order, taken in blocks of
    ``_VERIFY_BLOCK`` trials and yielded as (N, draws) groups per block."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _VERIFY_BLOCK):
        by_n = {}
        for _ in range(min(_VERIFY_BLOCK, trials - start)):
            draw = _random_geometry(rng)
            by_n.setdefault(draw[0].n_stations, []).append(draw)
        yield from by_n.items()


def verify_theorems(trials: int = 100, seed: int = 1) -> VerificationReport:
    """Stress-test the analytic identities on random geometries.

    Each check aggregates its worst-case discrepancy across all trials.  The
    geometries are drawn in blocks of ``_VERIFY_BLOCK`` trials, and each
    block is checked in stacks of equal N: one stacked call per KL identity
    and boost-grid check, and one location search per stack for both
    objectives.  Each stack builds three detector specs (DRSS, matched RSS,
    and the six suboptimal boosts as a (T, 6) stack), two ``analytic_rates``
    calls and one white model; covariances are built per geometry.
    """
    trials = _real(trials, "trials", ScenarioError, _COUNT, int)
    seed = _real(seed, "seed", ScenarioError, _SEED, int)

    kl_identity = 0.0
    rate_identity = 0.0
    optimal_kl = 0.0
    optimizer_gap = 0.0
    optimizer_tol = 0.0
    boost_identity = 0.0
    boost_margin = np.inf
    dinv_err = 0.0
    closed_form_err = 0.0

    for n, group in _geometry_groups(trials, seed):
        geometries, x_t, sigmas, dcs, radii = zip(*group)
        models = [build_covariance(g, s, dc) for g, s, dc in zip(geometries, sigmas, dcs)]
        geometry, model = NetworkGeometry.stack(geometries), ShadowingModel.stack(models)
        x_t = np.stack(x_t)
        u = geometry.claimed_mean
        v = mean_vector(geometry, x_t)
        boost = optimal_power_boost(u, v, model)
        q = _dot(model.whitened_ones, model.whitened_ones)  # 1^T R^-1 1, shape (T,)

        # Boost-minimized RSS KL equals the DRSS KL for every geometry.
        lhs = kl_rss_minimized(x_t, geometry, model)
        rhs = kl_drss(x_t, geometry, model)
        kl_identity = max(
            kl_identity, float((np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)).max())
        )

        # A boost off the optimum by dp raises the RSS separation (twice the
        # KL) above the DRSS one by exactly dp^2 1^T R^-1 1: a (T, 6) stack of
        # RSS specs, the optimal boost offset by ±1, ±3 and ±10 dB.
        matched = boost[:, None] + v
        drss_spec = _matched_spec("drss", u, matched, model.covariance)
        dp = np.array([1.0, -1.0, 3.0, -3.0, 10.0, -10.0])
        offsets = boost[:, None] + dp
        perturbed = _matched_spec(
            "rss", u[:, None], offsets[..., None] + v[:, None], model.covariance[:, None]
        )
        excess = perturbed.separation - drss_spec.separation[:, None]
        boost_margin = min(boost_margin, float(excess.min()))
        rel = np.abs(excess - dp**2 * q[:, None]) / perturbed.separation
        boost_identity = max(boost_identity, float(rel.max()))

        # Matched-boost RSS and DRSS operating points coincide.
        rss_spec = _matched_spec("rss", u, matched, model.covariance)
        pr = analytic_rates(rss_spec, MC_LOG_THRESHOLDS)
        pd = analytic_rates(drss_spec, MC_LOG_THRESHOLDS)
        gap = np.abs(np.subtract((pr.alpha, pr.beta), (pd.alpha, pd.beta))).max()
        rate_identity = max(rate_identity, float(gap))

        # Both location searches land in the same refined cell, at equal KL.
        configs = []
        for g, r in zip(geometries, radii):
            x0, x1, y0, y1 = default_search_region(g, r)
            configs.append(SearchConfig(r, coarse_grid_step=max(x1 - x0, y1 - y0) / 25.0))
            optimizer_tol = max(optimizer_tol, math.sqrt(2.0) * refined_grid_cell(configs[-1]))
        best_rss, best_drss = optimize_true_location(("rss", "drss"), configs, geometry, model)
        for a, b in zip(best_rss, best_drss):
            optimizer_gap = max(optimizer_gap, math.dist(a.true_location, b.true_location))
            optimal_kl = max(optimal_kl, abs(a.kl_nats - b.kl_nats) / max(abs(b.kl_nats), 1e-300))

        # On a 21-point boost grid, the RSS KL is its minimum plus dp^2 1^T R^-1 1 / 2.
        grid = np.linspace(-5.0, 5.0, 21)
        phi = kl_rss((boost[:, None] + grid)[..., None], x_t[:, None], geometry, model)
        predicted = lhs[:, None] + 0.5 * grid**2 * q[:, None]
        boost_identity = max(boost_identity, float((np.abs(phi - predicted) / phi).max()))

        # Uncorrelated special case: explicit inverse of the differenced
        # covariance, and the summation closed form of the minimized KL.  The
        # white model (sigma 1, D_c 0) depends only on N.
        white = build_covariance(geometries[0], 1.0, 0.0)
        d_inv = np.linalg.inv(build_d_matrix(white.covariance))
        dinv_err = max(
            dinv_err,
            float(np.abs(d_inv - (np.eye(n - 1) - np.ones((n - 1, n - 1)) / n)).max()),
        )
        g = v - u
        expected = 0.5 * (np.sum(g**2, axis=-1) - np.sum(g, axis=-1) ** 2 / n)
        got = kl_rss_minimized(x_t, geometry, ShadowingModel.stack([white] * len(geometries)))
        closed_form_err = max(
            closed_form_err,
            float((np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)).max()),
        )

    checks = (
        CheckResult("kl-identity-rss-drss", kl_identity < 1e-9, kl_identity, 1e-9),
        CheckResult("rate-identity-rss-drss", rate_identity < 1e-9, rate_identity, 1e-9),
        CheckResult("optimal-kl-identity-rss-drss", optimal_kl < 1e-9, optimal_kl, 1e-9),
        CheckResult(
            "location-optimizer-coincidence",
            optimizer_gap <= optimizer_tol,
            optimizer_gap,
            optimizer_tol,
        ),
        CheckResult(
            "boost-quadratic-identity",
            boost_identity <= 1e-9 and boost_margin > 0.0,
            boost_identity,
            1e-9,
        ),
        CheckResult("uncorrelated-d-inverse", dinv_err < 1e-9, dinv_err, 1e-9),
        CheckResult(
            "uncorrelated-closed-form-kl", closed_form_err < 1e-9, closed_form_err, 1e-9
        ),
    )
    return VerificationReport(checks=checks, trials=trials, seed=seed)
