"""Span tracing of lvsim's public functions, from outside the package.

Every function named in a module's ``__all__`` is wrapped once and the
wrapper is bound in *every* lvsim namespace that binds the original
(``experiments`` and ``montecarlo`` call ``mean_vector`` through their own
``from .channel import ...`` bindings, so patching only the defining module
would lose those calls).  ``DetectorSpec.__post_init__`` is wrapped as well,
since that is where a detector spec does its linear solve.

Spans (name, start, end, parent) are kept in flat arrays and written out at
the end.  Self time is accumulated on the fly: a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

SPEC_INIT = "detector.DetectorSpec"


class TraceCoverageError(RuntimeError):
    """A public function escaped the wrapping, or a layer recorded no calls."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(array) -> int:
    """Number of vectors in an array of shape (..., dim)."""
    return math.prod(np.shape(array)[:-1])


class Tracer:
    """Wraps lvsim's public functions; install() and uninstall() per task."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.names: list[str] = []
        self.originals: dict[int, object] = {}  # id(original) -> original
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for mod in self.modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._add(obj, f"{short}.{attr}")
        self._spec_cls = package.detector.DetectorSpec
        self._spec_init = self._spec_cls.__dict__["__post_init__"]
        self._add(self._spec_init, SPEC_INIT)
        self._installed: list[tuple[object, str, object]] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("q")
        self._stack: list[int] = []
        self._child: list[float] = []
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counts: dict[str, float] = {}
        self.scenario_s: dict[str, float] = {}
        self.distributions: set = set()
        self.worst_sigma = 0.0

    # -- recording ---------------------------------------------------------

    def _add(self, fn, qualname: str) -> None:
        nid = len(self.names)
        self.names.append(qualname)
        probe = _PROBES.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.starts)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            tracer.name_ids.append(nid)
            tracer.parents.append(parent)
            tracer.ends.append(math.nan)
            t0 = time.perf_counter()
            tracer.starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.ends[idx] = t1
                tracer._stack.pop()
                dur = t1 - t0
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_time[nid] += dur - tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += dur
            if probe is not None:
                probe(tracer, args, kwargs, result, parent, dur)
            return result

        self.originals[id(fn)] = fn
        self.wrappers[id(fn)] = wrapper

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers everywhere, then prove no original is left."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(val))
                if wrapper is not None and self.originals[id(val)] is val:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        self._installed.append((self._spec_cls, "__post_init__", self._spec_init))
        self._spec_cls.__post_init__ = self.wrappers[id(self._spec_init)]
        try:
            self.check_coverage()
        except TraceCoverageError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def check_coverage(self) -> None:
        """Fail if any lvsim namespace still reaches an unwrapped original.

        Looks at module attributes and one level into module-level
        containers, so a name re-imported under another alias or parked in a
        dispatch table fails here instead of dropping out of the trace.
        """
        leaks = []
        for mod in self.modules:
            for attr, val in vars(mod).items():
                if id(val) in self.originals and self.originals[id(val)] is val:
                    leaks.append(f"{mod.__name__}.{attr}")
                elif isinstance(val, (dict, list, tuple, set, frozenset)):
                    items = val.values() if isinstance(val, dict) else val
                    for item in items:
                        if id(item) in self.originals and self.originals[id(item)] is item:
                            leaks.append(f"{mod.__name__}.{attr}[...]")
        if self._spec_cls.__dict__["__post_init__"] is self._spec_init:
            leaks.append(SPEC_INIT)
        if leaks:
            raise TraceCoverageError("unwrapped lvsim functions: " + ", ".join(sorted(leaks)))

    # -- output ------------------------------------------------------------

    def stat(self, qualname: str) -> tuple[int, float, float]:
        nid = self.names.index(qualname)
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s for name, s in zip(self.names, self.self_time) if name.startswith(prefix))

    @property
    def n_spans(self) -> int:
        return len(self.starts)

    def write_spans(self, path: Path) -> None:
        """Write every span as flat arrays (times relative to the first span)."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        origin = starts.min() if starts.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=starts - origin,
            end=np.frombuffer(self.ends, dtype=np.float64) - origin,
        )


# Probes run after a wrapped call returns and record the work it did.


def _points_probe(key, index, name):
    """Count the vectors in one array argument of the call."""

    def probe(t, args, kwargs, result, parent, dur):
        t.count(key, _points(_arg(args, kwargs, index, name)))

    return probe


def _probe_sample_observations(t, args, kwargs, result, parent, dur):
    t.count("sample_draws", _arg(args, kwargs, 3, "n"))


def _probe_sample_observation(t, args, kwargs, result, parent, dur):
    t.count("sample_draws", 1)


def _probe_build_covariance(t, args, kwargs, result, parent, dur):
    t.count("jitter_rescues", float(result.diag_jitter > 0.0))


def _probe_estimate_rate(t, args, kwargs, result, parent, dur):
    plan = _arg(args, kwargs, 0, "plan")
    geometry = _arg(args, kwargs, 2, "geometry")
    model = _arg(args, kwargs, 3, "model")
    t.count("mc_draws", plan.n_trials)
    strat = plan.strategy if plan.hypothesis == "h1" else None
    # One distribution = one (mean, covariance) pair sampled under one
    # calling span (one scenario run); RSS and DRSS share the H0 draws.
    t.distributions.add(
        (
            parent,
            plan.hypothesis,
            None if strat is None else (tuple(strat.true_location), strat.power_boost_db),
            geometry.bs_positions.tobytes(),
            geometry.claimed_location.tobytes(),
            model.covariance.tobytes(),
        )
    )


def _probe_agreement_sigma(t, args, kwargs, result, parent, dur):
    t.worst_sigma = max(t.worst_sigma, float(result))


def _probe_run_scenario(t, args, kwargs, result, parent, dur):
    name = _arg(args, kwargs, 0, "scenario").name
    t.scenario_s[name] = t.scenario_s.get(name, 0.0) + dur


_PROBES = {
    "channel.mean_vector": _points_probe("mean_vector_points", 1, "location"),
    "channel.sample_observations": _probe_sample_observations,
    "channel.sample_observation": _probe_sample_observation,
    "channel.build_covariance": _probe_build_covariance,
    "detector.decide": _points_probe("decide_obs", 1, "obs"),
    "adversary.kl_rss": _points_probe("kl_points", 1, "x_t"),
    "adversary.kl_rss_minimized": _points_probe("kl_points", 0, "x_t"),
    "adversary.kl_drss": _points_probe("kl_points", 0, "x_t"),
    "montecarlo.estimate_rate": _probe_estimate_rate,
    "montecarlo.agreement_sigma": _probe_agreement_sigma,
    "experiments.run_scenario": _probe_run_scenario,
}
