"""Network geometry, log-distance path loss, and correlated shadowing.

Shadowing is zero-mean Gaussian in dB with an exponential-decay spatial
correlation: the covariance between two base stations halves every
``correlation_distance`` meters of separation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .detector import build_d_matrix

__all__ = [
    "GeometryError",
    "CovarianceError",
    "NetworkGeometry",
    "ShadowingModel",
    "mean_vector",
    "build_covariance",
    "sample_observation",
    "sample_observations",
]

# Relative diagonal jitter applied only when the exact kernel matrix fails
# to factor (near-duplicate base stations).
_JITTER_REL = 1e-10


class GeometryError(ValueError):
    """Invalid network geometry (duplicate stations, zero distances, ...)."""


class CovarianceError(ValueError):
    """Shadowing covariance is numerically non-positive-definite."""


class _Stackable:
    """One item, or a stack of T items: every field stacked over the rows, so a
    single item's floats (path-loss scalars, σ) are (T,) arrays.  The two types
    differ here only in ``_error`` and ``_noun``; ``__eq__`` leaves both unhashable."""

    @classmethod
    def stack(cls, items):
        """The stack of single items whose fields share their shapes: every field, stacked."""
        if not len(items):
            raise cls._error(f"a {cls._noun} stack needs at least one {cls._noun}")
        names = [f.name for f in fields(cls)]
        shapes = {tuple(getattr(getattr(x, n), "shape", ()) for n in names) for x in items}
        if len(shapes) > 1 or all(shapes.pop()):  # a float has shape (); a stack has no 0-d field
            raise cls._error(f"a {cls._noun} stack needs single items with the same N stations")
        return cls(**{n: np.array([getattr(x, n) for x in items]) for n in names})

    def take(self, rows):
        """The stack of the given rows (a slice, index array or mask) of this stack:
        every attribute, a cached one included, is sliced and keeps its source's
        writeable flag, and nothing is checked or computed again."""
        if not all(np.ndim(getattr(self, f.name)) for f in fields(self)):
            raise self._error(f"take selects rows of a {self._noun} stack, not of one {self._noun}")
        taken = object.__new__(type(self))
        for name, value in vars(self).items():
            vars(taken)[name] = value[rows]
            vars(taken)[name].flags.writeable = value.flags.writeable
        if not len(getattr(taken, fields(taken)[0].name)):
            raise self._error(f"a {self._noun} stack needs at least one {self._noun}")
        return taken

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class NetworkGeometry(_Stackable):
    """Base-station layout plus the user's claimed location.

    Coordinates are 2-D Euclidean, in meters.  ``ref_power_db`` is the
    received power at ``ref_distance_m`` from the transmitter.
    ``claimed_mean`` is the read-only mean vector u at the claimed location,
    ``mean_vector(self, claimed_location)``, computed once when the geometry
    is built.

    A stack of T geometries that share N has ``bs_positions`` of shape
    (T, N, 2), ``claimed_location`` of shape (T, 2), ``claimed_mean`` of
    shape (T, N) and each path-loss scalar of shape (T,): a float given for
    a stack holds for every row.  Each row is checked as one geometry is.
    ``NetworkGeometry.stack`` builds one from single geometries and ``take``
    selects its rows.  One geometry is the unstacked case.
    """

    _error, _noun = GeometryError, "geometry"

    bs_positions: np.ndarray  # (N, 2), or (T, N, 2) for a stack
    claimed_location: np.ndarray  # (2,), or (T, 2)
    ref_power_db: float  # or (T,) for a stack, as are the two below
    ref_distance_m: float
    path_loss_exponent: float

    def __post_init__(self):
        bs = np.atleast_2d(np.asarray(self.bs_positions, dtype=float))
        xc = np.asarray(self.claimed_location, dtype=float)
        if bs.ndim not in (2, 3) or bs.shape[-1] != 2:
            raise GeometryError("bs_positions must be an (N, 2) or (T, N, 2) array")
        if xc.shape != bs.shape[:-2] + (2,):
            if bs.ndim == 3 or xc.size != 2:
                raise GeometryError("claimed_location must hold one 2-D point per geometry")
            xc = xc.reshape(2)
        object.__setattr__(self, "bs_positions", bs)
        object.__setattr__(self, "claimed_location", xc)
        if bs.shape[-2] < 2:
            raise GeometryError("at least two base stations are required")
        if not len(bs):  # one geometry has N >= 2 rows; a stack has T
            raise GeometryError("a geometry stack needs at least one geometry")
        names = ("ref_power_db", "ref_distance_m", "path_loss_exponent")
        if bs.ndim == 3:  # a stack holds each path-loss scalar per row, shape (T,)
            try:
                vars(self).update({n: np.full(len(bs), getattr(self, n), float) for n in names})
            except ValueError as exc:
                raise GeometryError("path-loss parameters must be floats or (T,) arrays") from exc
        scalars = np.array([getattr(self, name) for name in names], dtype=float).reshape(3, -1)
        if not (np.isfinite(bs).all() and np.isfinite(xc).all() and np.isfinite(scalars).all()):
            raise GeometryError("coordinates and path-loss parameters must be finite")
        lowest = scalars.min(axis=1)  # over the rows of a stack
        for low, what in zip(lowest[1:], ("reference distance", "path loss exponent")):
            if low <= 0:
                raise GeometryError(f"{what} must be positive")
        with np.errstate(over="ignore"):  # a distance that overflows is inf, not 0
            d = np.linalg.norm(bs[..., :, None, :] - bs[..., None, :, :], axis=-1)
        d[..., range(bs.shape[-2]), range(bs.shape[-2])] = np.inf
        if (d == 0.0).any():
            raise GeometryError("base-station positions must be pairwise distinct")
        u = _finite_mean(self, xc)  # also rejects a claim on a station
        u.flags.writeable = False
        object.__setattr__(self, "claimed_mean", u)

    @property
    def n_stations(self) -> int:
        return self.bs_positions.shape[-2]

    def __reduce__(self):
        # copies and unpickled geometries are rebuilt through the constructor,
        # so their claimed_mean is recomputed and read-only again
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True, eq=False)
class ShadowingModel(_Stackable):
    """Covariance of the dB shadowing noise across base stations.

    ``covariance`` is N x N symmetric positive definite with every diagonal
    entry equal to ``sigma_db ** 2``; ``chol_lower`` is its lower Cholesky
    factor L; ``whitener`` W = L^-1 turns b^T R^-1 b into |W b|^2, and
    ``d_whitener`` does the same for the differenced covariance D.
    ``diag_jitter`` records any stabilization added to the diagonal (zero in
    the normal case; ``build_covariance`` warns when it adds one).
    ``whitened_ones`` W 1 and its unit W 1 / |W 1| are computed on first use
    and kept.  A model stack holds every field stacked over its rows, as a
    geometry stack does (``ShadowingModel.stack``; ``take`` selects rows).
    """

    _error, _noun = CovarianceError, "model"

    sigma_db: float
    correlation_distance: float
    covariance: np.ndarray
    chol_lower: np.ndarray
    whitener: np.ndarray
    d_whitener: np.ndarray
    diag_jitter: float = 0.0

    @cached_property
    def whitened_ones(self) -> np.ndarray:
        """W 1, shape (N,), or (T, N) for a stack."""
        return self.whitener.sum(axis=-1)

    @cached_property
    def whitened_unit(self) -> np.ndarray:
        """W 1 / |W 1|: a common power boost moves W (v - u) along it."""
        ones = self.whitened_ones
        return ones / np.sqrt(_dot(ones, ones))[..., None]


def mean_vector(geometry: NetworkGeometry, location) -> np.ndarray:
    """Deterministic received power (dB) at every base station.

    ``location`` may be a single 2-D point or an array of shape (..., 2);
    the result has shape (..., N).  For a stack of T geometries,
    ``location`` has shape (T, ..., 2), row t holding points of geometry t,
    and the result has shape (T, ..., N).
    """
    loc = np.asarray(location, dtype=float)
    if loc.shape[-1:] != (2,):
        raise GeometryError("location must be a 2-D point or an array of shape (..., 2)")
    bs = geometry.bs_positions
    p0, d0, n = geometry.ref_power_db, geometry.ref_distance_m, geometry.path_loss_exponent
    if bs.ndim == 3:
        if loc.ndim < 2 or loc.shape[0] != bs.shape[0]:
            raise GeometryError("a geometry stack needs locations of shape (T, ..., 2)")
        bs = _per_row(bs, loc.ndim)
        row = (-1,) + (1,) * (loc.ndim - 1)  # row t's scalars meet its distances (T, ..., N)
        p0, d0, n = p0.reshape(row), d0.reshape(row), n.reshape(row)
    dx = loc[..., 0, None] - bs[..., 0]
    dy = loc[..., 1, None] - bs[..., 1]
    # bit-identical to np.linalg.norm over the coordinate axis, without its
    # per-call overhead
    dist = np.sqrt(dx * dx + dy * dy)
    if np.count_nonzero(dist == 0.0):
        raise GeometryError("location coincides with a base station")
    return p0 - 10.0 * n * np.log10(dist / d0)


def _finite_mean(geometry: NetworkGeometry, location) -> np.ndarray:
    """``mean_vector``, with a GeometryError where any mean overflows to inf or NaN."""
    with np.errstate(all="ignore"):
        mean = mean_vector(geometry, location)
    if not np.isfinite(mean).all():
        raise GeometryError("mean received power is not finite")
    return mean


def _shadowing_variance(sigma_db, error) -> float:
    """``sigma_db ** 2``; raises ``error`` unless σ > 0 and σ² is a finite normal float."""
    square = float(sigma_db) * float(sigma_db)  # inf on overflow, where ** raises
    if not (sigma_db > 0.0 and np.finfo(float).tiny <= square < np.inf):
        raise error(f"sigma_db must be positive with a finite, normal square, got {sigma_db!r}")
    return sigma_db**2


def _dot(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a . w over the last axis of ``a``; a stacked w (T, n) meets row t of
    a (T, ..., n) as w[t], rounding as the per-geometry products do."""
    if w.ndim == 1:
        return a @ w
    return (a.reshape(len(w), -1, a.shape[-1]) @ w[..., None]).reshape(a.shape[:-1])


def _per_row(values: np.ndarray, ndim: int) -> np.ndarray:
    """View stack values (T, *tail) as (T, 1, ..., 1, *tail), with ``ndim - 2``
    unit axes, so that row t meets row t of an array (T, *M, k) of ``ndim``
    dimensions: points or vectors with M middle axes."""
    return values.reshape(values.shape[:1] + (1,) * (ndim - 2) + values.shape[1:])


def build_covariance(
    geometry: NetworkGeometry, sigma_db: float, correlation_distance: float
) -> ShadowingModel:
    """Construct the shadowing covariance for the given geometry.

    ``correlation_distance == 0`` selects the exactly uncorrelated model
    (diagonal covariance) rather than evaluating the degenerate kernel limit.
    """
    var = _shadowing_variance(sigma_db, CovarianceError)
    if not 0.0 <= correlation_distance < np.inf:
        raise CovarianceError("correlation_distance must be nonnegative and finite")
    bs = geometry.bs_positions
    n = geometry.n_stations
    if correlation_distance == 0.0:
        cov = var * np.eye(n)
    else:
        d = np.linalg.norm(bs[:, None, :] - bs[None, :, :], axis=-1)
        with np.errstate(over="ignore"):  # a tiny D_c overflows d / D_c to inf: exp(-inf) = 0
            cov = var * np.exp(-(d / correlation_distance) * np.log(2.0))
        np.fill_diagonal(cov, var)
    jitter = 0.0
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = _JITTER_REL * var
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise CovarianceError(
                "shadowing covariance is not positive definite "
                "(near-duplicate base stations?)"
            ) from exc
        cov = cov + jitter * np.eye(n)
        msg = f"covariance factors only with diagonal jitter {jitter:.3g} on sigma_db^2 = {var:.6g}"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    try:
        d_chol = np.linalg.cholesky(build_d_matrix(cov))
    except np.linalg.LinAlgError as exc:
        raise CovarianceError("differenced covariance is not positive definite") from exc
    return ShadowingModel(
        sigma_db=float(sigma_db),
        correlation_distance=float(correlation_distance),
        covariance=cov,
        chol_lower=chol,
        whitener=np.linalg.inv(chol),
        d_whitener=np.linalg.inv(d_chol),
        diag_jitter=jitter,
    )


def sample_observation(
    model: ShadowingModel, mean: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one dB observation vector: ``mean + L @ z`` with i.i.d. normal z."""
    return sample_observations(model, mean, rng, 1)[0]


def sample_observations(
    model: ShadowingModel, mean: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw ``n`` observation vectors at once, shape (n, N).

    The block is station-contiguous: it is the transpose of L @ z.T, so each
    station's ``n`` values are adjacent in memory and element-wise work on
    the block runs along the trials.  Its values equal ``z @ L.T + mean``
    bit for bit.
    """
    dim = model.chol_lower.shape[0]
    z = rng.standard_normal((n, dim))
    y = (model.chol_lower @ z.T).T
    y += mean
    return y
