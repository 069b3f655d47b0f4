"""Monte Carlo estimation of detector rates.

Serves as the independent empirical check on every closed-form rate.
A plan names one distribution of observations: H0, or H1 with the attacker
at one true location. ``estimate_rate`` draws one set of observations from
it and scores every detector spec on that same set (common random
numbers), all thresholds from one statistic per spec. H1 is drawn at the
unboosted mean: RSS specs score it shifted by the power boost, DRSS specs
its difference, which no common boost reaches. Observations come in
station-contiguous blocks, each station's draws adjacent in memory, so the
shift, the difference and the statistic run along the trials. Each plan
samples from its own SFC64 stream keyed by its seed, an int or a
``SeedSequence``; ``run_scenario`` keys H0's stream by the scenario seed and
spawn key 0 and every H1 stream by spawn key 1, so a mode's counts do not
depend on which other modes run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .adversary import AttackStrategy
from .channel import NetworkGeometry, ShadowingModel, mean_vector, sample_observations
from .channel import _COUNT, _SEED, _real
from .detector import DetectorSpec, decide, drss_transform

__all__ = [
    "PlanError",
    "TrialPlan",
    "EmpiricalRate",
    "estimate_rate",
    "agreement_sigma",
]

# Family-wise gate for suite-level empirical-vs-analytic comparisons
# (two-sided 1e-4 per comparison).
SUITE_Z = 3.89

# Rows drawn, transformed and scored at a time.  For N <= 8 stations (the
# registry's geometries have 3 or 4) a float64 block is at most 256 KB, so
# it stays in cache and its matmul stays below OpenBLAS's threading
# threshold; larger N gives larger blocks that may thread again, with the
# same results.  Each block is station-contiguous: its _BLOCK_ROWS draws
# per station are adjacent.
# Blocks consume the SFC64 stream in order, so they draw exactly what one
# call for all rows would.
_BLOCK_ROWS = 4096


def _stream(seed) -> np.random.Generator:
    """The generator a plan draws from: an SFC64 stream keyed by ``seed``."""
    return np.random.Generator(np.random.SFC64(seed))


class PlanError(ValueError):
    """Inconsistent trial plan (e.g. H1 without an attack strategy)."""


@dataclass(frozen=True)
class TrialPlan:
    """Specification of one Monte Carlo run."""

    n_trials: int
    seed: int | np.random.SeedSequence
    hypothesis: str  # "h0" | "h1"
    strategy: AttackStrategy | None = None

    def __post_init__(self):
        vars(self)["n_trials"] = _real(self.n_trials, "n_trials", PlanError, _COUNT, int)
        if not isinstance(self.seed, np.random.SeedSequence):
            rule = _SEED[0] + " or a SeedSequence", _SEED[1]
            vars(self)["seed"] = _real(self.seed, "seed", PlanError, rule, int)
        if self.hypothesis not in ("h0", "h1"):
            raise PlanError(f"unknown hypothesis: {self.hypothesis!r}")
        if self.hypothesis == "h1" and self.strategy is None:
            raise PlanError("H1 plans require an attack strategy")


@dataclass(frozen=True)
class EmpiricalRate:
    """Empirical accept rate with its binomial standard error."""

    rate: float
    stderr: float
    n_trials: int


def estimate_rate(
    plan: TrialPlan,
    specs: Sequence[DetectorSpec],
    geometry: NetworkGeometry,
    model: ShadowingModel,
    log_thresholds: float | Sequence[float] = (0.0,),
) -> tuple[EmpiricalRate, ...]:
    """Fraction of trials on which each spec accepts H1 at each ln λ.

    Draws ``plan.n_trials`` RSS observations once, H1 at the strategy's
    unboosted mean, and scores every spec on them, one statistic per spec
    for all thresholds: RSS specs add the strategy's power boost, DRSS
    specs take the difference, which the boost cannot change. ln λ of any
    shape is read in C order, a scalar as one threshold. Returns one rate
    per (spec, threshold), spec by spec, and draws nothing when there is no
    spec or no threshold. Blocks of ``_BLOCK_ROWS`` rows are drawn and
    scored in turn, so no (n_trials, N) array is ever held.
    """
    thresholds = np.ravel(np.asarray(log_thresholds, dtype=float))
    if not specs or not thresholds.size:
        return ()
    n = plan.n_trials
    if plan.hypothesis == "h0":
        mean, boost = geometry.claimed_mean, 0.0
    else:
        mean = mean_vector(geometry, plan.strategy.true_location)
        boost = plan.strategy.power_boost_db
    rng = _stream(plan.seed)
    drss = any(spec.mode == "drss" for spec in specs)
    counts = np.zeros((len(specs), thresholds.size), dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        y = sample_observations(model, mean, rng, min(_BLOCK_ROWS, n - start))
        d = drss_transform(y) if drss else None
        if boost:
            y += boost
        for spec, count in zip(specs, counts):
            accepted = decide(spec, d if spec.mode == "drss" else y, thresholds)
            count += [np.count_nonzero(run) for run in accepted.T]
    rates = []
    for rate in (counts / n).ravel().tolist():
        stderr = float(np.sqrt(rate * (1.0 - rate) / n))
        rates.append(EmpiricalRate(rate=rate, stderr=stderr, n_trials=n))
    return tuple(rates)


def agreement_sigma(empirical: EmpiricalRate, analytic: float) -> float:
    """Deviation of an empirical rate from its analytic value, in sigmas.

    The standard error is taken at the analytic rate so the gate stays
    meaningful when the empirical count is zero.
    """
    se = np.sqrt(analytic * (1.0 - analytic) / empirical.n_trials)
    diff = abs(empirical.rate - analytic)
    if se == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return float(diff / se)
