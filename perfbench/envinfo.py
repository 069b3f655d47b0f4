"""Environment record written next to every benchmark result.

The benchmark never sets BLAS thread counts itself; it only records them,
so that a change which pins them shows its effect on ``cpu_s`` and
``task_s``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(config_of) -> dict:
    try:
        dep = config_of(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}
    return {"name": dep.get("name"), "version": dep.get("version")}


def _nproc() -> str | None:
    exe = shutil.which("nproc")
    if exe is None:
        return None
    out = subprocess.run([exe], capture_output=True, text=True, timeout=10)
    return out.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = shutil.which("git")
    if git is None or not (root / ".git").exists():
        return None
    out = subprocess.run(
        [git, "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, identifying the code measured.

    Stands in for the commit when the checkout carries no git metadata.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path) -> dict:
    """Versions, BLAS build and thread settings, CPU and code identity."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }
