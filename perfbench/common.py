"""Shared plumbing for the repository benchmark: paths, host facts,
statistics, worker subprocesses and memory readings.

Everything the benchmark writes goes under ``.perfbench_work/`` in the
checkout it runs from, and is removed when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Dict, List, Sequence

#: Root of the checkout: the parent of this benchmark's directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Every workload drives the system from one client thread (a closed
#: loop: the next operation starts when the previous one returned).
CLIENT_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot run, or a correctness check failed."""


def require_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path.

    The program is always built from this checkout's sources; a run in a
    directory without them must fail instead of finding some other copy.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_client_threads() -> None:
    cpus = os.cpu_count() or 1
    if CLIENT_THREADS > cpus:
        raise BenchError(
            f"{CLIENT_THREADS} client threads but only {cpus} CPUs")


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: this checkout's sources,
    the SQLite store, and the response cache on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_STORE"] = "sqlite"
    env["REPRO_RESPONSE_CACHE"] = "1"
    return env


@contextmanager
def work_dir(label: str):
    """A fresh scratch directory inside the checkout, removed on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only succeeds once every run is done
        except OSError:
            pass


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans (kept after the run)."""
    directory = os.path.join(WORK_ROOT, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-seed{seed}.json")


def host_info() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "client_threads": CLIENT_THREADS,
    }


# -- statistics --------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


# -- memory ------------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- worker subprocesses -----------------------------------------------------------


def run_worker(args: List[str], timeout_s: float = 170.0) -> dict:
    """Run ``run.py --worker ...`` in a fresh interpreter; return the JSON
    object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--worker", *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=timeout_s,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
