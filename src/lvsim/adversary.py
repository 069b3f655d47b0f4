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

from .channel import NetworkGeometry, ShadowingModel, _dot, _per_row, mean_vector

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
        if not 0.0 < self.min_distance < np.inf:
            raise SearchError("min_distance must be positive and finite")
        if not 0.0 < self.coarse_grid_step < np.inf:
            raise SearchError("coarse_grid_step must be positive and finite")


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
            f"{_MAX_GRID_POINTS:,}; raise coarse_grid_step or lower min_distance"
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


def _argmin_rows(points: np.ndarray, values: np.ndarray, rows: np.ndarray):
    """Each row's minimum value, ties within 1e-12 broken by lexicographic
    (x, y), then by position.

    ``values`` is (rows, M), ``points`` (rows, M, 2) and ``rows`` is
    ``np.arange(len(values))``; returns the winning points (rows, 2) and
    values (rows,).
    """
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


def _chunks(shapes, n_objectives: int):
    """Contiguous row slices holding at most _CHUNK_NODES padded coarse nodes
    (objectives x rows x the chunk's longest x axis x its longest y axis),
    one row at least.  ``shapes`` holds each row's coarse (nx, ny)."""
    start, wx, wy = 0, 0, 0
    for i, (nx, ny) in enumerate(shapes):
        wx, wy = max(wx, nx), max(wy, ny)
        if i > start and n_objectives * (i + 1 - start) * wx * wy > _CHUNK_NODES:
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
    them; the objectives of a tuple share every round of one search, and the
    result is a tuple of their results in the same order.  Each objective is
    scored by its own public KL function.  Coarse uniform grid over each
    row's ``default_search_region`` excluding the open min-distance disc
    (the test of ``_claim_distance``), then ``_REFINE_PASSES``
    local refinement passes around the incumbent, each with
    ``_REFINE_SHRINK`` times the previous half-width.

    One geometry takes one SearchConfig and gives one AttackStrategy.  A
    stack of T geometries takes a sequence of T configs, one per row, and
    gives a tuple of T strategies.  Its coarse round runs in chunks of at
    most ``_CHUNK_NODES`` padded coarse nodes; its refinement passes, which
    score 82 points per row, run in chunks of
    ``_CHUNK_NODES // (objectives * 82)`` rows, one at least.  A stack that
    fits in one chunk of each is searched in one pass over both rounds.
    """
    objectives = (objective,) if isinstance(objective, str) else tuple(objective)
    if not objectives or any(o not in ("rss", "drss") for o in objectives):
        raise SearchError(f"unknown objective: {objective!r}")
    stacked = geometry.bs_positions.ndim == 3
    bs = geometry.bs_positions.reshape(-1, geometry.n_stations, 2)
    configs = (config,) if isinstance(config, SearchConfig) else tuple(config)
    if len(configs) != len(bs):
        raise SearchError(f"{len(bs)} geometries need as many search configs, got {len(configs)}")
    regions = [_padded_box(b, 2.0 * c.min_distance) for c, b in zip(configs, bs)]
    shapes = [_coarse_shape(reg, c.coarse_grid_step) for reg, c in zip(regions, configs)]

    def rows(chunk):
        if stacked and chunk != slice(0, len(bs)):
            return geometry.take(chunk), model.take(chunk)
        return geometry, model

    coarse = list(_chunks(shapes, len(objectives)))
    width = max(1, _CHUNK_NODES // (len(objectives) * (_LOCAL_GRID * _LOCAL_GRID + 1)))
    if len(coarse) == 1 and len(bs) <= width:
        plan = [(slice(0, len(bs)), None)]
    else:
        # every row's coarse incumbent, then its refinement in other chunks
        start = np.concatenate(
            [
                _search_rows(objectives, configs[c], regions[c], *rows(c), refine=False)[0]
                for c in coarse
            ],
            axis=1,
        )
        plan = [
            (slice(i, min(i + width, len(bs))), start[:, i : i + width])
            for i in range(0, len(bs), width)
        ]

    found = [[] for _ in objectives]
    for chunk, begin in plan:
        g, m = rows(chunk)
        incumbent, value = _search_rows(objectives, configs[chunk], regions[chunk], g, m, begin)
        for j, name in enumerate(objectives):
            kls = value[j].tolist()
            boosts = [0.0] * len(kls)
            if name == "rss":
                at = incumbent[j] if stacked else incumbent[j, 0]
                boost = optimal_power_boost(g.claimed_mean, mean_vector(g, at), m)
                boosts = np.ravel(boost).tolist()
            found[j] += [
                AttackStrategy(tuple(x), b, kl, name == "rss")
                for x, b, kl in zip(incumbent[j].tolist(), boosts, kls)
            ]
    out = tuple(tuple(strategies) if stacked else strategies[0] for strategies in found)
    return out[0] if isinstance(objective, str) else out


def _search_rows(objectives, configs, regions, geometry, model, start=None, refine=True):
    """Grid-then-refine search of every objective on every row of one chunk.

    Its rows are the (objective, geometry) pairs, objective-major: they share
    each round's grid build, feasibility test and tie-break, and the points
    each KL call scores are, row for row, those of a search on one geometry.
    ``start`` (K, R, 2), the incumbents of an earlier coarse round, skips
    the coarse round; ``refine=False`` skips the refinement passes.
    Returns the incumbents (K, R, 2) and their values (K, R) for K
    objectives and R geometries.
    """
    evaluate = {"rss": kl_rss_minimized, "drss": kl_drss}
    stacked = geometry.bs_positions.ndim == 3
    k, n_geo = len(objectives), len(configs)
    n_rows = k * n_geo
    parts = [
        (evaluate[name], slice(j * n_geo, (j + 1) * n_geo) if stacked else j)
        for j, name in enumerate(objectives)
    ]
    # per row: r, coarse step, xmin, xmax, ymin, ymax
    setting = np.array(
        [(c.min_distance, c.coarse_grid_step, *reg) for c, reg in zip(configs, regions)] * k,
        dtype=float,
    )
    r, step = setting[:, 0, None, None], setting[:, 1]
    lo, hi = setting[:, None, 2::2], setting[:, None, 3::2]
    bs = geometry.bs_positions.reshape(n_geo, 1, -1, 2)
    xc = geometry.claimed_location.reshape(n_geo, 1, 2)
    if k > 1:
        bs, xc = np.concatenate([bs] * k), np.concatenate([xc] * k)
    rows = np.arange(n_rows)

    def tensor_grid(axes, out):
        # out (rows, nx, ny, 2): the tensor grid of each row's first nx x
        # axis values and first ny y axis values, axes (rows, n, 2) with
        # n >= nx, ny, in (x, y)-lexicographic order.  Returns its
        # feasibility mask (rows, nx, ny): outside the open disc, by
        # _claim_distance's arithmetic (np.linalg.norm's along an axis, bit
        # for bit), and not exactly on a base station (undefined path loss).
        # ex*ex + ey*ey > 0 fails only where both squares are 0, so the
        # station test splits into per-axis hits.  NaN coordinates fail every
        # comparison, so they are never feasible.
        nx, ny = out.shape[1:3]
        out[..., 0] = axes[:, :nx, None, 0]
        out[..., 1] = axes[:, None, :ny, 1]
        d = axes - xc
        d *= d
        ok = np.sqrt(d[:, :nx, None, 0] + d[:, None, :ny, 1]) >= r
        e = axes[:, :, None, :] - bs
        on = e * e == 0.0
        for t, station in zip(*on.any(axis=1).all(axis=-1).nonzero()):
            ok[t][np.ix_(on[t, :nx, station, 0], on[t, :ny, station, 1])] = False
        return ok

    def score(points):
        # points (rows, M, 2) -> values (rows, M), one KL call per objective
        values = [kl(points[part], geometry, model) for kl, part in parts]
        return (values[0] if k == 1 else np.concatenate(values)).reshape(n_rows, -1)

    if start is None:
        # coarse grid: each row's np.arange axes, padded with NaN to the
        # longest axis; the grid spans the longest x axis by the longest y axis
        lines = [
            (np.arange(x0, x1 + 0.5 * s, s), np.arange(y0, y1 + 0.5 * s, s))
            for (x0, x1, y0, y1), s in zip(regions, (c.coarse_grid_step for c in configs))
        ]
        nx, ny = (max(len(pair[i]) for pair in lines) for i in (0, 1))
        axes = np.full((n_geo, max(nx, ny), 2), np.nan)
        for t, (ax, ay) in enumerate(lines):
            axes[t, : len(ax), 0] = ax
            axes[t, : len(ay), 1] = ay
        if k > 1:
            axes = np.concatenate([axes] * k)
        grid = np.empty((n_rows, nx, ny, 2))
        mask = tensor_grid(axes, grid)
        pts = _pack(grid.reshape(n_rows, -1, 2), mask.reshape(n_rows, -1))
        incumbent, value = _argmin_rows(pts, score(pts), rows)
        if not refine:
            return incumbent.reshape(k, n_geo, 2), value.reshape(k, n_geo)
    else:
        incumbent = start.reshape(n_rows, 2)

    # each pass: per row, the 9x9 local grid in (x, y)-lexicographic order,
    # then the incumbent, which stays feasible, in one reused buffer.  Its
    # axes (rows, 9, 2) are np.linspace(incumbent - half, incumbent + half,
    # 9), built with the same arithmetic row by row, then clipped to the
    # box.  The spacing underflows to 0 only for half near 1e-323, which the
    # grid cap rules out, so np.linspace's branch for that case is not needed.
    n = _LOCAL_GRID
    local = np.empty((n_rows, n * n + 1, 2))
    local_grid = local[:, :-1].reshape(n_rows, n, n, 2)
    keep = np.ones(local.shape[:-1], dtype=bool)
    ticks = np.arange(n, dtype=float)[:, None]
    half = step[:, None, None]
    incumbent = incumbent[:, None]
    for _ in range(_REFINE_PASSES):
        low, stop = incumbent - half, incumbent + half
        spacing = (stop - low) / (n - 1)
        axes = ticks * spacing
        axes += low
        axes[:, -1:] = stop
        np.maximum(axes, lo, out=axes)
        np.minimum(axes, hi, out=axes)
        keep[:, :-1] = tensor_grid(axes, local_grid).reshape(n_rows, -1)
        local[:, -1:] = incumbent
        cand = _pack(local, keep)
        incumbent, value = _argmin_rows(cand, score(cand), rows)
        incumbent = incumbent[:, None]
        half = half * _REFINE_SHRINK
    return incumbent.reshape(k, n_geo, 2), value.reshape(k, n_geo)
