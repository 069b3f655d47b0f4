"""Benchmark worker: runs one workload in a fresh interpreter.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``; prints one JSON line
with the measured values.  With ``--trace 0`` every task runs untraced and
the values are the end-to-end metrics.  With ``--trace 1`` every task runs
twice on the same inputs, once untraced and once traced (alternating which
goes first), and the values are the per-layer metrics; the difference
between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

# Layer metrics that must be nonzero on the workload meant to stress them.
STRESS = {
    "reproduce": [
        "channel.sample_draws",
        "detector.spec_builds",
        "detector.decide_obs",
        "detector.roc_sweeps",
        "adversary.searches",
        "adversary.kl_points",
        "montecarlo.plans",
        "montecarlo.distributions",
        *(f"experiments.fig{i}_s" for i in range(1, 7)),
        "experiments.sweep_s",
        "experiments.verify_s",
        "experiments.self_s",
        "cli.self_s",
    ],
    "query": [
        "channel.mean_vector_points",
        "channel.covariance_builds",
        "detector.spec_builds",
        "detector.roc_sweeps",
        "detector.analytic_rates_calls",
        "adversary.searches",
        "adversary.kl_points",
    ],
    "verify": [
        "channel.mean_vector_points",
        "channel.covariance_builds",
        "detector.spec_builds",
        "adversary.searches",
        "adversary.kl_calls",
        "experiments.verify_s",
    ],
}


def end_to_end(tasks) -> dict:
    # Operation percentiles are taken within each task, then the median over
    # tasks: a task is a fixed mix of operations, so this does not depend on
    # how many tasks fit in the run (pooled percentiles over reproduce's seven
    # unequal steps jump between steps as the task count changes).
    deciles = [statistics.quantiles(t.ops, n=10, method="inclusive") for t in tasks]
    return {
        "task_s": statistics.median(t.wall for t in tasks),
        "op_p50_ms": 1e3 * statistics.median(d[4] for d in deciles),
        "op_p90_ms": 1e3 * statistics.median(d[8] for d in deciles),
        "cpu_s": statistics.median(t.cpu for t in tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tr, traced, untraced) -> dict:
    """Layer metrics per traced task, from the tracer's spans and probes."""
    n = len(traced)

    def calls(name):
        return tr.stat(name)[0]

    def busy(*names):
        return sum(tr.stat(name)[1] for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    count = tr.counts.get
    sample_s = busy("channel.sample_observations", "channel.sample_observation")
    kl_names = ("adversary.kl_rss", "adversary.kl_rss_minimized", "adversary.kl_drss")
    kl_s = busy(*kl_names)
    plans = calls("montecarlo.estimate_rate")
    untraced_s = statistics.median(t.wall for t in untraced)
    overhead = statistics.median(t.wall for t in traced) - untraced_s
    total = {
        "channel.sample_draws": count("sample_draws", 0.0),
        "channel.sample_s": sample_s,
        "channel.mean_vector_points": count("mean_vector_points", 0.0),
        "channel.mean_vector_s": busy("channel.mean_vector"),
        "channel.covariance_builds": calls("channel.build_covariance"),
        "channel.covariance_s": busy("channel.build_covariance"),
        "channel.jitter_rescues": count("jitter_rescues", 0.0),
        "detector.spec_builds": calls("detector.DetectorSpec"),
        "detector.spec_s": busy("detector.DetectorSpec"),
        "detector.roc_sweeps": calls("detector.roc_sweep"),
        "detector.roc_sweep_s": busy("detector.roc_sweep"),
        "detector.analytic_rates_calls": calls("detector.analytic_rates"),
        "detector.decide_obs": count("decide_obs", 0.0),
        "detector.decide_s": busy("detector.decide"),
        "adversary.searches": calls("adversary.optimize_true_location"),
        "adversary.search_s": busy("adversary.optimize_true_location"),
        "adversary.kl_calls": sum(calls(name) for name in kl_names),
        "adversary.kl_points": count("kl_points", 0.0),
        "adversary.kl_s": kl_s,
        "montecarlo.plans": plans,
        "montecarlo.draws": count("mc_draws", 0.0),
        "montecarlo.estimate_rate_s": busy("montecarlo.estimate_rate"),
        "montecarlo.distributions": len(tr.distributions),
        **{f"experiments.fig{i}_s": tr.scenario_s.get(f"fig{i}", 0.0) for i in range(1, 7)},
        "experiments.sweep_s": busy("experiments.optimal_auc"),
        "experiments.verify_s": busy("experiments.verify_theorems"),
        "experiments.self_s": tr.self_s("experiments"),
        "cli.self_s": tr.self_s("cli"),
        "trace.spans": tr.n_spans,
    }
    out = {name: value / n for name, value in total.items()}
    out.update(
        {
            "channel.sample_draws_per_s": ratio(total["channel.sample_draws"], sample_s),
            "adversary.kl_us_per_point": 1e6 * ratio(kl_s, total["adversary.kl_points"]),
            "montecarlo.useful_share": ratio(len(tr.distributions), plans),
            "montecarlo.worst_sigma": tr.worst_sigma,
            "trace.overhead_s": overhead,
            "trace.overhead_share": ratio(overhead, untraced_s),
        }
    )
    return out


def _import_lvsim():
    """Import the package under test, refusing any copy outside this checkout."""
    try:
        import lvsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lvsim from {ROOT / 'src'}: {exc}")
    where = Path(lvsim.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        sys.exit(f"perfbench: imported lvsim from {where}, not from {ROOT / 'src'}")
    return lvsim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(STRESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lvsim = _import_lvsim()
    import envinfo
    import workloads
    from tracer import Tracer, TraceCoverageError

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{args.trace}"
    workload = workloads.make(args.workload, args.seed, workdir, HERE / "golden")
    tracer = Tracer(lvsim) if args.trace else None

    untraced, traced = [], []
    start = time.perf_counter()
    try:
        k = 0
        while True:
            if tracer is None:
                untraced.append(workload.run_task(k))
            else:  # same inputs twice; even tasks run untraced first, odd traced first
                for traced_turn in (k % 2 == 1, k % 2 == 0):
                    if traced_turn:
                        tracer.install()
                        try:
                            traced.append(workload.run_task(k))
                        finally:
                            tracer.uninstall()
                    else:
                        untraced.append(workload.run_task(k))
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed * (k + 1) / k > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tasks = untraced + traced
    if tracer is None:
        values = end_to_end(untraced)
    else:
        values = per_layer(tracer, traced, untraced)
        idle = [name for name in STRESS[args.workload] if not values[name] > 0]
        if idle:
            raise TraceCoverageError(
                f"layers recorded no work on {args.workload}: {', '.join(idle)}"
            )
        tracer.write_spans(RESULTS / f"{args.workload}-spans.npz")

    attempted = sum(t.attempted for t in tasks)
    failed = sum(t.failed for t in tasks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": len(untraced),
        "ops": sum(len(t.ops) for t in untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for t in tasks for p in t.problems][:50],
        "values": values,
        "environment": envinfo.collect(ROOT),
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
