"""Optimal spoofing strategy for an attacker with full model knowledge.

The attacker minimizes the KL divergence between the legitimate and the
attack-induced observation distributions, choosing a transmit-power boost
(closed form) and a true location (deterministic grid-then-refine search
subject to the minimum-distance constraint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, ShadowingModel, mean_vector

__all__ = [
    "SearchError",
    "AttackStrategy",
    "SearchConfig",
    "default_search_region",
    "optimal_power_boost",
    "kl_rss",
    "kl_rss_minimized",
    "kl_drss",
    "optimize_true_location",
    "refined_grid_cell",
]

_LOCAL_GRID = 9  # points per axis in each refinement pass
_REFINE_PASSES = 6  # refinement passes after the coarse grid
_REFINE_SHRINK = 0.5  # half-width factor from one pass to the next
_TIE_EPS = 1e-12
_MAX_GRID_POINTS = 1_000_000  # coarse-grid cap, checked before allocation


class SearchError(ValueError):
    """Location search cannot run (empty feasible region, bad config)."""


@dataclass(frozen=True)
class AttackStrategy:
    """Attacker's chosen true location and power boost, with its KL cost.

    ``power_boost_relevant`` is False for DRSS attacks, where differencing
    cancels any common boost.
    """

    true_location: tuple
    power_boost_db: float
    kl_nats: float
    power_boost_relevant: bool = True


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search parameters for the attacker's location.

    ``region`` is (xmin, xmax, ymin, ymax); None derives a default from the
    geometry.  ``min_distance`` is the threat model's exclusion radius around
    the claimed location (boundary feasible).
    """

    min_distance: float
    region: tuple | None = None
    coarse_grid_step: float = 25.0

    def __post_init__(self):
        if not 0.0 < self.min_distance < np.inf:
            raise SearchError("min_distance must be positive and finite")
        if not 0.0 < self.coarse_grid_step < np.inf:
            raise SearchError("coarse_grid_step must be positive and finite")
        if self.region is not None:
            try:
                xmin, xmax, ymin, ymax = (float(v) for v in self.region)
            except (TypeError, ValueError) as exc:
                raise SearchError("region must be four numbers (xmin, xmax, ymin, ymax)") from exc
            if not all(map(math.isfinite, (xmin, xmax, ymin, ymax))):
                raise SearchError("region bounds must be finite")
            if not (xmin <= xmax and ymin <= ymax):
                raise SearchError("region must satisfy xmin <= xmax and ymin <= ymax")
            _coarse_shape((xmin, xmax, ymin, ymax), self.coarse_grid_step)


def default_search_region(geometry: NetworkGeometry, min_distance: float) -> tuple:
    """Bounding box of the base stations, expanded by 2r per side."""
    bs = geometry.bs_positions
    pad = 2.0 * min_distance
    return (
        float(bs[:, 0].min() - pad),
        float(bs[:, 0].max() + pad),
        float(bs[:, 1].min() - pad),
        float(bs[:, 1].max() + pad),
    )


def _coarse_shape(region, step: float) -> tuple:
    """(nx, ny) of the coarse grid, computed before anything is allocated.

    Uses ``np.arange``'s length, ceil((stop - start) / step), and raises
    SearchError when nx * ny exceeds the point cap.
    """
    xmin, xmax, ymin, ymax = region
    nx, ny = (
        math.ceil(n) if math.isfinite(n) else math.inf
        for n in ((xmax + 0.5 * step - xmin) / step, (ymax + 0.5 * step - ymin) / step)
    )
    if nx * ny > _MAX_GRID_POINTS:
        raise SearchError(
            f"coarse grid would hold {nx * ny:,} points, above the cap of "
            f"{_MAX_GRID_POINTS:,}; raise coarse_grid_step or shrink the region"
        )
    return nx, ny


def _half_sq_norm(z: np.ndarray):
    """0.5 |z|^2 over the last axis of whitened vectors; a float for one vector."""
    out = 0.5 * np.einsum("...i,...i->...", z, z)
    return float(out) if z.ndim == 1 else out


def optimal_power_boost(u: np.ndarray, v: np.ndarray, model: ShadowingModel) -> float:
    """Closed-form boost minimizing the RSS KL divergence for a fixed location.

    Returns ((u - v)^T R^-1 1) / (1^T R^-1 1), as (W(u - v)) . (W 1) / |W 1|^2.
    """
    ones = model.whitener.sum(axis=1)
    return float((np.asarray(u, dtype=float) - v) @ model.whitener.T @ ones / (ones @ ones))


def kl_rss(p_x, x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """KL divergence seen by the RSS detector for boost ``p_x`` at ``x_t``.

    Equals 0.5 |W (p_x 1 + v - u)|^2; ``x_t`` may be a single point or an
    array of shape (..., 2).  ``p_x`` may be a float or an array of shape
    (..., 1) that broadcasts against the leading axes of ``x_t``:
    ``p_grid[:, None]`` with one point scores a column of boosts.
    """
    v = mean_vector(geometry, x_t)
    return _half_sq_norm((p_x + v - geometry.claimed_mean) @ model.whitener.T)


def kl_rss_minimized(x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """RSS KL divergence after the attacker applies the optimal power boost.

    The boost moves W(v - u) along W 1, so the minimum is half the squared
    residual of W(v - u) after projecting out W 1.  Vectorized over ``x_t``
    of shape (..., 2).
    """
    v = mean_vector(geometry, x_t)
    z = (v - geometry.claimed_mean) @ model.whitener.T
    ones = model.whitener.sum(axis=1)
    unit = ones / np.sqrt(ones @ ones)
    return _half_sq_norm(z - (z @ unit)[..., None] * unit)


def kl_drss(x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """KL divergence seen by the DRSS detector; boost-independent.

    Equals 0.5 |W_D delta|^2 for the differenced mean shift delta.
    Vectorized over ``x_t`` of shape (..., 2).
    """
    g = mean_vector(geometry, x_t) - geometry.claimed_mean
    delta = g[..., :-1] - g[..., -1:]
    return _half_sq_norm(delta @ model.d_whitener.T)


def refined_grid_cell(config: SearchConfig) -> float:
    """Spacing of the final refinement grid (the search's resolution)."""
    spacing = 2.0 * config.coarse_grid_step / (_LOCAL_GRID - 1)
    return spacing * _REFINE_SHRINK ** (_REFINE_PASSES - 1)


def _argmin_lex(points: np.ndarray, values: np.ndarray):
    """Minimum value; ties within 1e-12 broken by lexicographic (x, y)."""
    vmin = values.min()
    mask = values <= vmin + _TIE_EPS
    hits = mask.nonzero()[0]
    if hits.size == 1:
        return points[hits[0]], float(values[hits[0]])
    cand = points[hits]
    cand_vals = values[hits]
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    best = order[0]
    return cand[best], float(cand_vals[best])


def optimize_true_location(
    objective: str,
    config: SearchConfig,
    geometry: NetworkGeometry,
    model: ShadowingModel,
) -> AttackStrategy:
    """Minimize the KL objective over feasible true locations.

    ``objective`` is "rss" (boost-minimized RSS KL) or "drss".  Coarse
    uniform grid over the region excluding the open min-distance disc, then
    ``_REFINE_PASSES`` local refinement passes around the incumbent, each
    with ``_REFINE_SHRINK`` times the previous half-width.
    """
    if objective == "rss":
        evaluate = kl_rss_minimized
    elif objective == "drss":
        evaluate = kl_drss
    else:
        raise SearchError(f"unknown objective: {objective!r}")

    region = (
        config.region
        if config.region is not None
        else default_search_region(geometry, config.min_distance)
    )
    nx, ny = _coarse_shape(region, config.coarse_grid_step)
    xmin, xmax, ymin, ymax = region
    lo, hi = np.array([xmin, ymin], dtype=float), np.array([xmax, ymax], dtype=float)
    xc = geometry.claimed_location
    bs = geometry.bs_positions
    r = config.min_distance

    def feasible(xs, ys):
        # (len(xs), len(ys)) mask of the tensor grid: outside the open disc,
        # with sqrt(dx*dx + dy*dy) bit-identical to np.linalg.norm, and not
        # exactly on a base station (undefined path loss).  ex*ex + ey*ey > 0
        # fails only where both squares are 0, so the station test splits
        # into column and row hits per station.
        dx, dy = xs - xc[0], ys - xc[1]
        ok = np.sqrt((dx * dx)[:, None] + dy * dy) >= r
        ex, ey = xs[:, None] - bs[:, 0], ys[:, None] - bs[:, 1]
        col, row = ex * ex == 0.0, ey * ey == 0.0
        for k in (col.any(axis=0) & row.any(axis=0)).nonzero()[0]:
            ok[np.ix_(col[:, k], row[:, k])] = False
        return ok

    step = config.coarse_grid_step
    xs = np.arange(xmin, xmax + 0.5 * step, step)
    ys = np.arange(ymin, ymax + 0.5 * step, step)
    grid = np.empty((nx, ny, 2))
    grid[..., 0] = xs[:, None]
    grid[..., 1] = ys
    mask = feasible(xs, ys)
    if not mask.any():
        raise SearchError("feasible region is empty")
    pts = grid[mask]
    incumbent, value = _argmin_lex(pts, evaluate(pts, geometry, model))

    # each pass: the 9x9 local grid in (x, y)-lexicographic order, then the
    # incumbent, which stays feasible, in one reused buffer.  Its axes are
    # np.linspace(incumbent - half, incumbent + half, 9), built with the same
    # arithmetic, then clipped to the region.
    local = np.empty((_LOCAL_GRID * _LOCAL_GRID + 1, 2))
    local_grid = local[:-1].reshape(_LOCAL_GRID, _LOCAL_GRID, 2)
    keep = np.ones(local.shape[0], dtype=bool)
    ticks = np.arange(_LOCAL_GRID, dtype=float)[:, None]
    half = step
    for _ in range(_REFINE_PASSES):
        start, stop = incumbent - half, incumbent + half
        spacing = (stop - start) / (_LOCAL_GRID - 1)
        if (spacing == 0.0).any():
            axes = np.linspace(start, stop, _LOCAL_GRID)
        else:
            axes = ticks * spacing
            axes += start
            axes[-1] = stop
        np.maximum(axes, lo, out=axes)
        np.minimum(axes, hi, out=axes)
        local_grid[..., 0] = axes[:, 0, None]
        local_grid[..., 1] = axes[:, 1]
        local[-1] = incumbent
        keep[:-1] = feasible(axes[:, 0], axes[:, 1]).ravel()
        cand = local[keep]
        incumbent, value = _argmin_lex(cand, evaluate(cand, geometry, model))
        half *= _REFINE_SHRINK

    boost = 0.0
    if objective == "rss":
        boost = optimal_power_boost(geometry.claimed_mean, mean_vector(geometry, incumbent), model)
    location = (float(incumbent[0]), float(incumbent[1]))
    return AttackStrategy(location, boost, value, power_boost_relevant=objective == "rss")
