"""lvsim benchmark: one command per workload, every metric with its unit.

    python3 perfbench/run.py --workload {reproduce,query,verify} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of
this checkout (pure Python, nothing to build).  Set-up time is the median of
several fresh interpreters importing ``lvsim``; the workload itself runs in
one more fresh worker process (``worker.py``).  The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A full record with the
environment is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lvsim; "
    "print(time.perf_counter() - t)"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict) -> float:
    """Median fresh-interpreter ``import lvsim`` time, after one warm-up."""
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise RuntimeError(f"import lvsim failed:\n{out.stderr.strip()}")
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "lvsim" / "__init__.py").is_file():
        return _fail(f"no lvsim sources under {ROOT / 'src'}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = _child_env()
    began = time.perf_counter()
    try:
        setup = setup_seconds(env) if not args.trace else None
        worker = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S - (time.perf_counter() - began),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    if worker.returncode != 0:
        return _fail(f"worker exited with {worker.returncode}:\n{worker.stderr.strip()}")
    record = json.loads(worker.stdout.strip().splitlines()[-1])

    values = dict(record["values"])
    if setup is not None:
        values["setup_s"] = setup
    if set(values) != set(units):
        return _fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    env_line = record["environment"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"tasks={record['tasks']} ops={record['ops']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    print("environment: " + json.dumps(env_line, sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name in units:
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
