"""Paths, constants and small statistics shared by the layered benchmark."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch state (server cache/journal dirs); removed after each child.
WORK = HERE / ".work"
#: Default home of run records and span files.
OUT = HERE / "out"

WORKLOADS = ("solve-large", "batch-small", "service-miss", "service-hit")

#: Measured seconds of one run (``run_seconds`` in BENCHMARK.json) and of
#: a ``--smoke`` run.
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 2

#: Worker processes, threads and connections never exceed the core count;
#: the cap of 2 keeps the workloads (and their utilization) the same on
#: larger machines, where the benchmark shares memory with other jobs.
WORKERS = max(1, min(os.cpu_count() or 1, 2))

#: Environment of every workload interpreter: one BLAS/OpenMP thread, the
#: package importable from the checkout.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def canonical(doc: Any) -> str:
    """The one JSON rendering of records: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def src_loc() -> int:
    """Lines in ``src/**/*.py`` -- recorded next to speed, never a metric."""
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC.rglob("*.py"))
    )


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def env_block() -> dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count() or 1,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "src_loc": src_loc(),
    }
