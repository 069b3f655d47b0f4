"""Likelihood-ratio detectors on RSS and differential-RSS observations.

Both detectors reduce to a linear test statistic on the observation vector;
false-positive and detection rates then have closed forms through the
Gaussian tail function.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DetectorError",
    "DegenerateSpecError",
    "DetectorSpec",
    "RatePair",
    "RocCurve",
    "q_function",
    "drss_transform",
    "build_d_matrix",
    "test_statistic",
    "decide",
    "analytic_rates",
    "roc_sweep",
    "exact_auc",
    "default_threshold_grid",
    "roc_to_csv",
]


class DetectorError(ValueError):
    """Invalid detector specification or observation."""


class DegenerateSpecError(DetectorError):
    """The two hypothesis means coincide; the LRT carries no information."""


def q_function(x):
    """Gaussian upper-tail probability Q(x) = P(Z > x) for standard normal Z."""
    z = np.asarray(x, dtype=float) / np.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


@dataclass(frozen=True, eq=False)
class DetectorSpec:
    """One configured detector, or a stack of them: mode, hypothesis means
    and covariance.

    ``mode`` is "rss" (N-dimensional observations, covariance R) or "drss"
    ((N-1)-dimensional differenced observations, covariance D).  The
    likelihood-ratio threshold is not part of the spec: every function that
    needs one takes its log, ln λ, as an argument.

    A stack has means of shape (..., n) and a covariance of shape
    (..., n, n) whose leading axes broadcast against each other; its
    ``separation`` is an array of the broadcast stack shape, row for row
    equal to the one-spec values.  ``analytic_rates`` takes a stack;
    ``test_statistic``, ``decide`` and ``roc_sweep`` take one spec.
    """

    mode: str
    mu0: np.ndarray
    mu1: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.mode not in ("rss", "drss"):
            raise DetectorError(f"unknown detector mode: {self.mode!r}")
        mu0 = np.asarray(self.mu0, dtype=float)
        mu1 = np.asarray(self.mu1, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "cov", cov)
        n = mu0.shape[-1:]
        if not n or mu1.shape[-1:] != n or cov.shape[-2:] != n + n:
            raise DetectorError("mean/covariance dimensions are inconsistent")
        # The statistic direction c = cov^-1 (mu1 - mu0), from one batched
        # solve, and the separation s = (mu1 - mu0)^T c.
        try:
            diff = mu1 - mu0
            delta = np.linalg.solve(cov, diff[..., None])
        except np.linalg.LinAlgError as exc:
            raise DetectorError("covariance is singular") from exc
        except ValueError as exc:
            raise DetectorError("stacked means and covariances do not broadcast") from exc
        s = (diff[..., None, :] @ delta)[..., 0, 0]
        if not 0.0 < s.min() < np.inf:  # false for NaN too
            if (diff == 0.0).all(axis=-1).any():
                raise DegenerateSpecError("hypothesis means are identical")
            raise DegenerateSpecError(f"non-positive separation: {s.min()}")
        object.__setattr__(self, "_direction", delta[..., 0])
        object.__setattr__(self, "_separation", float(s) if s.ndim == 0 else s)

    @property
    def separation(self):
        """Squared Mahalanobis distance between the hypothesis means: a float
        for one spec, an array of the stack shape for a stack."""
        return self._separation

    def statistic_threshold(self, log_threshold=0.0):
        """Threshold on the linear statistic equivalent to ln λ (or an array)."""
        _one_spec(self)
        return log_threshold + self._midpoint

    @cached_property
    def _midpoint(self) -> float:
        """The statistic at the midpoint of the means, 0.5 c^T (mu1 + mu0)."""
        return 0.5 * self._direction @ (self.mu1 + self.mu0)


def _one_spec(spec: DetectorSpec) -> None:
    if spec._direction.ndim != 1:
        raise DetectorError("this function takes one detector spec, not a stack")


@dataclass(frozen=True, eq=False)
class RatePair:
    """(false-positive rate, detection rate): floats at one threshold, or
    equal-shape arrays at an array of thresholds.

    Pairs compare by value, field by field; they are unhashable, since the
    fields may be arrays.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray

    __hash__ = None

    def __post_init__(self):
        rates = np.asarray((self.alpha, self.beta), dtype=float)
        if not ((rates >= 0.0) & (rates <= 1.0)).all():
            raise DetectorError("rates must lie in [0, 1]")

    def __eq__(self, other):
        if not isinstance(other, RatePair):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and np.array_equal(self.beta, other.beta)


@dataclass(frozen=True)
class RocCurve:
    """Threshold-swept operating points, sorted by alpha ascending.

    ``alpha`` and ``beta`` are read-only float arrays, one entry per
    threshold.
    """

    thresholds: tuple  # ln(lambda), descending
    alpha: np.ndarray  # ascending
    beta: np.ndarray
    auc: float  # exact: Φ(√(s/2))
    separation: float


def drss_transform(y: np.ndarray) -> np.ndarray:
    """Differential observations: subtract the last element from the others."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 2:
        raise DetectorError("DRSS needs at least two observations")
    return y[..., :-1] - y[..., -1:]


def build_d_matrix(cov: np.ndarray) -> np.ndarray:
    """Covariance of the differenced observations; (..., N, N) gives
    (..., N-1, N-1).

    D_mn = R_NN + R_mn - R_mN - R_nN for m, n = 1..N-1.
    """
    r = np.asarray(cov, dtype=float)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2] or r.shape[-1] < 2:
        raise DetectorError("covariance must be square with N >= 2")
    return r[..., -1:, -1:] + r[..., :-1, :-1] - r[..., :-1, -1:] - r[..., -1:, :-1]


def test_statistic(spec: DetectorSpec, obs: np.ndarray):
    """Linear statistic (mu1 - mu0)^T cov^-1 obs; obs may be (..., dim)."""
    _one_spec(spec)
    obs = np.asarray(obs, dtype=float)
    if obs.shape[-1] != spec.mu0.size:
        raise DetectorError("observation dimension does not match the spec")
    return obs @ spec._direction


def _log_thresholds(log_threshold) -> np.ndarray:
    """ln λ as a float array; a NaN ln λ raises DetectorError."""
    lam = np.asarray(log_threshold, dtype=float)
    if np.isnan(lam).any():
        raise DetectorError("ln λ is NaN; a threshold must be a number or ±inf")
    return lam


def decide(spec: DetectorSpec, obs: np.ndarray, log_threshold=0.0):
    """True where the detector accepts H1 (flags the user as malicious).

    Equality with the threshold decides H1.  The statistic is computed once;
    an array of k thresholds gives decisions of shape (..., k).  A NaN ln λ
    raises DetectorError.
    """
    stat = test_statistic(spec, obs)
    thr = spec.statistic_threshold(_log_thresholds(log_threshold))
    # built with the thresholds outermost, so each threshold's decisions are
    # contiguous, then viewed with the threshold axes last
    k = thr.ndim
    accepted = np.less_equal.outer(thr, stat)
    return accepted.transpose(*range(k, accepted.ndim), *range(k))


def analytic_rates(spec: DetectorSpec, log_threshold=0.0) -> RatePair:
    """Closed-form false-positive and detection rates of the detector.

    A scalar ln λ gives a ``RatePair`` of floats; an array gives, in one
    pass, a ``RatePair`` of read-only arrays of its shape, element for
    element equal to the scalar calls.  A spec stack gives arrays of shape
    stack + ln λ shape, row for row equal to the one-spec calls.  ln λ = ±inf
    gives rates 0 and 1; a NaN ln λ raises DetectorError.
    """
    lam = _log_thresholds(log_threshold)
    s = spec.separation
    if spec._direction.ndim > 1:
        s = s.reshape(s.shape + (1,) * lam.ndim)
    rt = np.sqrt(s)
    # alpha = Q((ln λ + s/2)/√s) and beta = Q((ln λ - s/2)/√s), in one call
    rates = q_function(np.stack(((lam + 0.5 * s) / rt, (lam - 0.5 * s) / rt)))
    if rates.ndim == 1:
        return RatePair(alpha=float(rates[0]), beta=float(rates[1]))
    rates.flags.writeable = False
    return RatePair(alpha=rates[0], beta=rates[1])


def exact_auc(separation: float) -> float:
    """ROC area of the equal-covariance Gaussian LRT: Φ(√(s/2)) = Q(-√(s/2))."""
    return 0.5 * math.erfc(-math.sqrt(0.5 * separation) / math.sqrt(2.0))


def default_threshold_grid(separation: float, n: int = 201) -> np.ndarray:
    """Log-threshold grid spanning roughly alpha, beta in [1e-9, 1 - 1e-9]."""
    half = 0.5 * separation + 6.0 * np.sqrt(separation)
    return np.linspace(-half, half, n)


def roc_sweep(spec: DetectorSpec, thresholds) -> RocCurve:
    """Operating points at every threshold, and the exact AUC."""
    _one_spec(spec)
    thr = np.sort(np.asarray(thresholds, dtype=float))[::-1]
    if thr.size < 2:
        raise DetectorError("need at least two thresholds")
    rates = analytic_rates(spec, thr)
    return RocCurve(
        thresholds=tuple(thr.tolist()),
        alpha=rates.alpha,
        beta=rates.beta,
        auc=exact_auc(spec.separation),
        separation=spec.separation,
    )


def roc_to_csv(curve: RocCurve) -> str:
    """Serialize a curve as CSV with a trailing metadata comment line."""
    buf = io.StringIO()
    buf.write("ln_lambda,alpha,beta\n")
    for t, a, b in zip(curve.thresholds, curve.alpha.tolist(), curve.beta.tolist()):
        buf.write(f"{t:.12g},{a:.12g},{b:.12g}\n")
    buf.write(f"# s={curve.separation:.12g} auc={curve.auc:.12g}\n")
    return buf.getvalue()
