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
from .channel import _POSITIVE, _dot, _per_row, _real

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
# Cap on the padded points one KL call scores: a stack of geometries is
# searched in chunks that keep every KL call's temporaries small.  No call
# scores more unless one row alone does.  At 4096, `lvsim reproduce` peaks at
# the memory of the one-geometry search; at 8192 its maxrss rose by 0.6 MB.
_CHUNK_NODES = 4096


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

    ``min_distance`` is the threat model's exclusion radius r around the
    claimed location (boundary feasible).  The box searched is not a setting:
    it is the stations' bounding box plus 2r per side (``default_search_region``).
    """

    min_distance: float
    coarse_grid_step: float = 25.0

    def __post_init__(self):
        for name in ("min_distance", "coarse_grid_step"):
            object.__setattr__(self, name, _real(getattr(self, name), name, SearchError, _POSITIVE))


def default_search_region(geometry: NetworkGeometry, min_distance: float) -> tuple:
    """Bounding box of one geometry's base stations, expanded by 2r per side."""
    if geometry.bs_positions.ndim != 2:
        raise SearchError("default_search_region takes one geometry, not a stack")
    return _padded_box(geometry.bs_positions, 2.0 * min_distance)


def _padded_box(bs: np.ndarray, pad: float) -> tuple:
    (x0, y0), (x1, y1) = bs.min(axis=0).tolist(), bs.max(axis=0).tolist()
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def _claim_distance(point, claimed) -> float:
    """|point - claimed| as the search's feasibility test computes it,
    sqrt(dx*dx + dy*dy); the point is feasible when this is >= r.  math.dist
    and math.hypot round differently, by one ulp on some circle points."""
    dx, dy = point[0] - claimed[0], point[1] - claimed[1]
    return math.sqrt(dx * dx + dy * dy)


def _coarse_shape(region, step: float, radius: str = "min_distance") -> tuple:
    """(nx, ny) of the coarse grid, computed before anything is allocated.

    Uses ``np.arange``'s length, ceil((stop - start) / step), and raises
    SearchError when nx * ny exceeds the point cap; its hint names
    ``radius``, the setting the box's r came from.  The counts print as
    floats, so the message stays short for any radius: the product prints in
    full below 1e15 and reads inf where it overflows, and the axis counts
    beside it still say how large the grid is.
    """
    xmin, xmax, ymin, ymax = region
    nx, ny = (
        math.ceil(n) if math.isfinite(n) else math.inf
        for n in ((xmax + 0.5 * step - xmin) / step, (ymax + 0.5 * step - ymin) / step)
    )
    if nx * ny > _MAX_GRID_POINTS:
        raise SearchError(
            f"coarse grid would hold {float(nx) * ny:,.16g} points ({nx:,.7g} x "
            f"{ny:,.7g}), above the cap of {_MAX_GRID_POINTS:,}; "
            f"raise coarse_grid_step or lower the {radius}"
        )
    return nx, ny


def _half_sq_norm(z: np.ndarray):
    """0.5 |z|^2 over the last axis of whitened vectors; a float for one vector."""
    out = 0.5 * np.einsum("...i,...i->...", z, z)
    return float(out) if z.ndim == 1 else out


def _whiten(b: np.ndarray, whitener: np.ndarray) -> np.ndarray:
    """W b for every vector on the last axis of ``b``.  A stacked W (T, n, n)
    whitens row t of b (T, ..., n) with W[t], in one batched matmul whose
    slices round as the per-geometry products do."""
    if whitener.ndim == 2:
        return b @ whitener.T
    rows = b.reshape(len(whitener), -1, b.shape[-1])
    return (rows @ np.swapaxes(whitener, -1, -2)).reshape(b.shape)


def _rowwise(w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-geometry vector ``w``, shaped to meet ``target`` (..., n) row by
    row: a stack's (T, n) becomes (T, 1, ..., 1, n)."""
    return _per_row(w, target.ndim) if w.ndim == 2 else w


def optimal_power_boost(u: np.ndarray, v: np.ndarray, model: ShadowingModel):
    """Closed-form boost minimizing the RSS KL divergence for a fixed location.

    Returns ((u - v)^T R^-1 1) / (1^T R^-1 1), as (W(u - v)) . (W 1) / |W 1|^2:
    a float for one geometry, and an array of shape (T,) for u and v of
    shape (T, N) with a model stack.
    """
    ones = model.whitened_ones
    boost = _dot(_whiten(np.asarray(u, dtype=float) - v, model.whitener), ones) / _dot(ones, ones)
    return float(boost) if boost.ndim == 0 else boost


def kl_rss(p_x, x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """KL divergence seen by the RSS detector for boost ``p_x`` at ``x_t``.

    Equals 0.5 |W (p_x 1 + v - u)|^2; ``x_t`` may be a single point or an
    array of shape (..., 2).  ``p_x`` may be a float or an array of shape
    (..., 1) that broadcasts against the leading axes of ``x_t``:
    ``p_grid[:, None]`` with one point scores a column of boosts.  For a
    geometry and model stack, ``x_t`` has shape (T, ..., 2), ``p_x`` shape
    (T, ..., 1), and the result shape (T, ...).
    """
    v = mean_vector(geometry, x_t)
    return _half_sq_norm(_whiten(p_x + v - _rowwise(geometry.claimed_mean, v), model.whitener))


def kl_rss_minimized(x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """RSS KL divergence after the attacker applies the optimal power boost.

    The boost moves W(v - u) along W 1, so the minimum is half the squared
    residual of W(v - u) after projecting out W 1.  Vectorized over ``x_t``
    of shape (..., 2), or (T, ..., 2) for a stack.
    """
    v = mean_vector(geometry, x_t)
    z = _whiten(v - _rowwise(geometry.claimed_mean, v), model.whitener)
    unit = model.whitened_unit
    return _half_sq_norm(z - _dot(z, unit)[..., None] * _rowwise(unit, z))


def kl_drss(x_t, geometry: NetworkGeometry, model: ShadowingModel):
    """KL divergence seen by the DRSS detector; boost-independent.

    Equals 0.5 |W_D delta|^2 for the differenced mean shift delta.
    Vectorized over ``x_t`` of shape (..., 2), or (T, ..., 2) for a stack.
    """
    v = mean_vector(geometry, x_t)
    g = v - _rowwise(geometry.claimed_mean, v)
    delta = g[..., :-1] - g[..., -1:]
    return _half_sq_norm(_whiten(delta, model.d_whitener))


def refined_grid_cell(config: SearchConfig) -> float:
    """Spacing of the final refinement grid (the search's resolution)."""
    spacing = 2.0 * config.coarse_grid_step / (_LOCAL_GRID - 1)
    return spacing * _REFINE_SHRINK ** (_REFINE_PASSES - 1)


def _argmin_rows(points: np.ndarray, values: np.ndarray):
    """Each row's minimum value, ties within 1e-12 broken by lexicographic
    (x, y), then by position.

    ``values`` is (rows, M) and ``points`` (rows, M, 2); returns the winning
    points (rows, 2) and values (rows,).
    """
    rows = np.arange(len(values))
    least = np.minimum.reduce(values, axis=1)
    hit = values <= (least + _TIE_EPS)[:, None]
    if np.count_nonzero(hit) == len(hit):  # one hit per row: its minimum
        return points[rows, hit.argmax(axis=1)], least
    # numpy orders complex numbers as their (real, imag) pairs: a point
    # viewed as x + iy orders lexicographically by (x, y)
    z = points.view(np.complex128)[..., 0]
    hit &= z == np.minimum.reduce(
        z, axis=1, keepdims=True, where=hit, initial=complex(np.inf, np.inf)
    )
    best = hit.argmax(axis=1)
    return points[rows, best], values[rows, best]


def _pack(points: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's kept points (rows, P, 2), in order, padded up to the
    longest row with copies of the row's first kept point.

    A copy has the same point and value as its original, which comes
    first, so it can neither win nor break a tie.
    """
    kept = points[keep]
    counts = np.add.reduce(keep, axis=-1)
    sizes = counts.tolist()  # Python min and max: cheaper for few rows
    if not min(sizes):
        raise SearchError("feasible region is empty")
    widest = max(sizes)
    if len(kept) == len(sizes) * widest:
        return kept.reshape(len(sizes), widest, 2)
    first = np.cumsum(counts) - counts
    j = np.arange(widest)
    return kept[first[:, None] + np.where(j < counts[:, None], j, 0)]


def _chunks(shapes):
    """Contiguous row slices holding at most _CHUNK_NODES padded coarse nodes
    (rows x the chunk's longest x axis x its longest y axis), one row at
    least.  ``shapes`` holds each row's coarse (nx, ny)."""
    start, wx, wy = 0, 0, 0
    for i, (nx, ny) in enumerate(shapes):
        wx, wy = max(wx, nx), max(wy, ny)
        if i > start and (i + 1 - start) * wx * wy > _CHUNK_NODES:
            yield slice(start, i)
            start, wx, wy = i, nx, ny
    yield slice(start, len(shapes))


def optimize_true_location(
    objective,
    config,
    geometry: NetworkGeometry,
    model: ShadowingModel,
):
    """Minimize the KL objective over feasible true locations.

    ``objective`` is "rss" (boost-minimized RSS KL) or "drss", or a tuple of
    them, which gives a tuple of results in the same order; each is scored
    by its own public KL function.  One geometry takes one SearchConfig and
    gives one AttackStrategy; a stack of T geometries takes T configs, one
    per row, and gives a tuple of T strategies.

    The coarse stage scores a uniform grid over each row's
    ``default_search_region`` less the open min-distance disc (the test of
    ``_claim_distance``), in chunks of at most ``_CHUNK_NODES`` padded nodes
    whose grid the objectives share.  The refinement stage then makes
    ``_REFINE_PASSES`` local passes around each incumbent, each with
    ``_REFINE_SHRINK`` times the previous half-width, in chunks of
    ``_CHUNK_NODES // (objectives * 82)`` rows, one at least: a pass scores
    82 points per row and objective.
    """
    objectives = (objective,) if isinstance(objective, str) else tuple(objective)
    if not objectives or any(o not in ("rss", "drss") for o in objectives):
        raise SearchError(f"unknown objective: {objective!r}")
    kls = [kl_rss_minimized if o == "rss" else kl_drss for o in objectives]
    stacked = geometry.bs_positions.ndim == 3
    bs = geometry.bs_positions.reshape(-1, geometry.n_stations, 2)
    configs = (config,) if isinstance(config, SearchConfig) else tuple(config)
    if len(configs) != len(bs):
        raise SearchError(f"{len(bs)} geometries need as many search configs, got {len(configs)}")
    regions = [_padded_box(b, 2.0 * c.min_distance) for c, b in zip(configs, bs)]
    shapes = [_coarse_shape(reg, c.coarse_grid_step) for reg, c in zip(regions, configs)]
    # per row: r, coarse step, xmin, xmax, ymin, ymax
    setting = np.array(
        [(c.min_distance, c.coarse_grid_step, *reg) for c, reg in zip(configs, regions)]
    )

    def rows(chunk):
        if stacked and chunk != slice(0, len(bs)):
            return geometry.take(chunk), model.take(chunk)
        return geometry, model

    # each objective's incumbents and their values, row by row: the coarse
    # stage writes them and the refinement stage updates them in place
    incumbent = np.empty((len(objectives), len(bs), 2))
    value = np.empty((len(objectives), len(bs)))
    for c in _chunks(shapes):
        _coarse(kls, setting[c], *rows(c), incumbent[:, c], value[:, c])
    width = max(1, _CHUNK_NODES // (len(objectives) * (_LOCAL_GRID * _LOCAL_GRID + 1)))
    found = [[] for _ in objectives]
    for i in range(0, len(bs), width):
        chunk = slice(i, min(i + width, len(bs)))
        g, m = rows(chunk)
        at, best = incumbent[:, chunk], value[:, chunk]
        _refine(kls, setting[chunk], g, m, at, best)
        for j, name in enumerate(objectives):
            values = best[j].tolist()
            boosts = [0.0] * len(values)
            if name == "rss":
                v = mean_vector(g, at[j] if stacked else at[j, 0])
                boosts = np.ravel(optimal_power_boost(g.claimed_mean, v, m)).tolist()
            found[j] += [
                AttackStrategy(tuple(x), b, nats, name == "rss")
                for x, b, nats in zip(at[j].tolist(), boosts, values)
            ]
    out = tuple(tuple(strategies) if stacked else strategies[0] for strategies in found)
    return out[0] if isinstance(objective, str) else out


def _tensor_grid(axes, out, geometry, r):
    """Fill ``out`` (..., R, nx, ny, 2) with the tensor grid of each row's
    first nx x and first ny y values of ``axes`` (..., R, n, 2), in (x,
    y)-lexicographic order; row t belongs to geometry t, with radius r[t].

    Returns its feasibility mask (..., R, nx, ny): outside the open disc, by
    _claim_distance's arithmetic (np.linalg.norm's along an axis, bit for
    bit), and not exactly on a base station (undefined path loss).  ex*ex +
    ey*ey > 0 fails only where both squares are 0, so the station test splits
    into per-axis hits.  NaN coordinates fail every comparison: never feasible.
    """
    nx, ny = out.shape[-3:-1]
    out[..., 0] = axes[..., :nx, None, 0]
    out[..., 1] = axes[..., None, :ny, 1]
    d = axes - geometry.claimed_location[..., None, :]
    d *= d
    ok = np.sqrt(d[..., :nx, None, 0] + d[..., None, :ny, 1]) >= r
    e = axes[..., None, :] - geometry.bs_positions[..., None, :, :]
    on = e * e == 0.0
    if on.any():  # most grids put no axis value on a station coordinate
        for *row, station in zip(*on.any(axis=-3).all(axis=-1).nonzero()):
            hit = on[(*row, slice(None), station)]
            ok[tuple(row)][np.ix_(hit[:nx, 0], hit[:ny, 1])] = False
    return ok


def _best(kls, points, geometry, model, incumbent, value):
    """Write each objective's winners among ``points`` into ``incumbent``
    (K, R, 2) and ``value`` (K, R).  ``points`` is (R, M, 2), shared by the
    K objectives, or (K, R, M, 2), one set each.  Each objective's KL
    function scores its points in one call, (M, 2) for one geometry and
    (R, M, 2) for a stack of R."""
    stacked = geometry.bs_positions.ndim == 3
    for j, kl in enumerate(kls):
        pts = points if points.ndim == 3 else points[j]
        values = kl(pts if stacked else pts[0], geometry, model)
        incumbent[j], value[j] = _argmin_rows(pts, values.reshape(len(pts), -1))


def _coarse(kls, setting, geometry, model, incumbent, value):
    """The coarse stage on the R rows of one chunk: one grid, feasibility
    test and pack that every objective shares.  Each row's grid is the
    tensor grid of its np.arange axes, padded with NaN to the chunk's
    longest x axis by its longest y axis.  Writes the K objectives'
    incumbents (K, R, 2) and values (K, R)."""
    lines = [
        (np.arange(x0, x1 + 0.5 * s, s), np.arange(y0, y1 + 0.5 * s, s))
        for _, s, x0, x1, y0, y1 in setting.tolist()
    ]
    nx, ny = (max(len(pair[i]) for pair in lines) for i in (0, 1))
    axes = np.full((len(lines), max(nx, ny), 2), np.nan)
    for t, (ax, ay) in enumerate(lines):
        axes[t, : len(ax), 0] = ax
        axes[t, : len(ay), 1] = ay
    grid = np.empty((len(lines), nx, ny, 2))
    mask = _tensor_grid(axes, grid, geometry, setting[:, 0, None, None])
    points = _pack(grid.reshape(len(lines), -1, 2), mask.reshape(len(lines), -1))
    _best(kls, points, geometry, model, incumbent, value)


def _refine(kls, setting, geometry, model, incumbent, value):
    """The refinement stage on the R rows of one chunk: ``_REFINE_PASSES``
    passes from the K objectives' coarse incumbents (K, R, 2), updated in
    place with their values (K, R).

    Each pass scores, per objective and row, the 9x9 local grid in (x,
    y)-lexicographic order, then the incumbent, which stays feasible.  Its
    axes (K, R, 9, 2) are np.linspace(incumbent - half, incumbent + half, 9)
    by the same arithmetic, clipped to the box.  The spacing underflows to 0
    only for half near 1e-323, which the grid cap rules out, so
    np.linspace's branch for that case is not needed.
    """
    n = _LOCAL_GRID
    k, n_geo = value.shape
    r, half = setting[:, 0, None, None], setting[:, 1, None, None]
    lo, hi = setting[:, None, 2::2], setting[:, None, 3::2]
    local = np.empty((k, n_geo, n * n + 1, 2))
    local_grid = local[..., :-1, :].reshape(k, n_geo, n, n, 2)
    keep = np.ones(local.shape[:-1], dtype=bool)
    rows = local.reshape(k * n_geo, -1, 2), keep.reshape(k * n_geo, -1)
    ticks = np.arange(n, dtype=float)[:, None]
    for _ in range(_REFINE_PASSES):
        at = incumbent[..., None, :]
        low, stop = at - half, at + half
        spacing = (stop - low) / (n - 1)
        axes = ticks * spacing
        axes += low
        axes[..., -1:, :] = stop
        np.maximum(axes, lo, out=axes)
        np.minimum(axes, hi, out=axes)
        keep[..., :-1] = _tensor_grid(axes, local_grid, geometry, r).reshape(k, n_geo, -1)
        local[..., -1:, :] = at
        cand = _pack(*rows)
        _best(kls, cand.reshape(k, n_geo, -1, 2), geometry, model, incumbent, value)
        half = half * _REFINE_SHRINK
