"""Advice read-path benchmark: columnar snapshots vs object rehydration.

Times ``AdvisorSession.advise`` over a store-backed corpus through both
advice engines (ISSUE 10):

* **objects** — the legacy oracle: every request rehydrates matching
  rows into :class:`DataPoint` objects (``json.loads`` + ``from_dict``
  per row) and walks the Pareto front in pure Python.
* **columnar** — the snapshot engine: the store materializes a NumPy
  struct-of-arrays once per dataset generation (``first_request``
  below), after which every request is a snapshot-LRU hit plus
  vectorized risk/Pareto math (``request``).

The headline metric is the **uncached advice request**: a request that
must recompute advice (response-cache miss) on a warmed worker.  The
snapshot is a per-worker resource invalidated by the same change
counters as the ETag cache, so in steady state every such request hits
the LRU; the objects engine pays full rehydration every time.
Acceptance: >= 10x at the 50k-point scale (``BENCH_ADVICE_FLOOR``
overrides; scaled-down runs scale the floor proportionally).  The
uncached *spot* (risk-adjusted) request has its own floor, scaled the
same way.  The snapshot *build* is also timed (``first_request``), and
must at least break even with a single object-path request at
acceptance scale.

``append_then_advise`` times the columnar request that follows an
append of 200 new points in a warm process: the cached snapshot is
extended with just the new rows, so it must beat the full build of
``columnar_first`` by >= 5x at acceptance scale (scaled like the other
floors), and its advice must equal the objects engine's.

Before any clock starts, an equivalence gate asserts both engines
return identical advice (measured and spot capacity) — byte-identical
rows, not approximately equal.  Every measurement runs in its own
subprocess so imports, the OS page cache warm-up, and the snapshot LRU
of one engine cannot bleed into another's numbers.

Results land in ``BENCH_advice_path.json`` at the repo root.

Run standalone::

    python benchmarks/bench_advice_path.py [--points 50000] [--no-check]

or the scaled-down CI smoke::

    python benchmarks/bench_advice_path.py --ci-smoke
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_advice_path.json")

#: The corpus size the >= 10x claim is made at.
ACCEPTANCE_POINTS = 50_000
#: Uncached-request speedup floor at acceptance scale (env-overridable).
SPEEDUP_FLOOR = 10.0
#: Uncached spot (risk-adjusted) request speedup floor at acceptance
#: scale: over 2x below the 120-144x measured at 50k on a 2-vCPU host
#: (``BENCH_advice_path.json``).
SPOT_SPEEDUP_FLOOR = 50.0
#: First columnar request (snapshot build included) must not lose to a
#: single object-path request at acceptance scale.
FIRST_REQUEST_FLOOR = 1.0
#: A columnar request right after an append (snapshot extended by the
#: new rows) vs the first columnar request (full build), at acceptance
#: scale.
APPEND_THEN_ADVISE_FLOOR = 5.0
#: Points appended before each timed append-then-advise request.
APPEND_BATCH = 200
#: Corpus for the CI smoke run (floors scale down with it).
CI_SMOKE_POINTS = 5_000

SKUS = ("Standard_HB120rs_v3", "Standard_HB120rs_v2", "Standard_HC44rs")
NNODES = (1, 2, 4, 8, 16, 32)


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


# -- corpus ---------------------------------------------------------------------


def synthetic_points(n: int, deployment: str, start: int = 0):
    """A mixed corpus: 3 SKUs x 6 node counts, ~9% measured spot rows
    (with preemptions) so the spot advice path exercises both the
    measured-spot passthrough and the modeled-risk branch.  ``start``
    continues the sequence (for appended batches)."""
    from repro.core.dataset import DataPoint

    points = []
    for i in range(start, start + n):
        spot = i % 11 == 0
        points.append(DataPoint(
            appname="lammps",
            sku=SKUS[i % len(SKUS)],
            nnodes=NNODES[i % len(NNODES)],
            ppn=100,
            exec_time_s=100.0 + (i % 997),
            cost_usd=0.01 * (1 + i % 89),
            appinputs={"BOXFACTOR": str(4 + i % 7)},
            tags={"experiment": "bench-advice"},
            capacity="spot" if spot else "ondemand",
            preemptions=i % 3 if spot else 0,
            deployment=deployment,
            timestamp=float(i),
        ))
    return points


def bench_config():
    from repro.core.config import MainConfig

    return MainConfig.from_dict({
        "subscription": "bench-advice",
        "skus": ["Standard_HB120rs_v3"],
        "rgprefix": "benchadvicerg",
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [1, 2],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["4"]},
        "tags": {"experiment": "bench-advice"},
    })


def populate_state(state_dir: str, n_points: int) -> str:
    """Deploy + collect + bulk-load the corpus; returns the deployment."""
    from repro.api.session import AdvisorSession
    from repro.core.statefiles import StateStore

    session = AdvisorSession(store=StateStore(root=state_dir))
    info = session.deploy(bench_config())
    session.collect(deployment=info.name)
    session.data_store(info.name).append_points(
        synthetic_points(n_points, info.name))
    return info.name


# -- equivalence gate -----------------------------------------------------------


def _advise(session, deployment: str, engine: str, capacity=None):
    from repro.api.requests import AdviseRequest

    return session.advise(AdviseRequest(
        deployment=deployment, engine=engine, capacity=capacity or ""))


def assert_same_advice(objects, columnar, capacity) -> None:
    left, right = objects.to_dict(), columnar.to_dict()
    assert left.pop("engine") == "objects"
    assert right.pop("engine") == "columnar"
    left.pop("engine_fallback"), right.pop("engine_fallback")
    assert left == right, (
        f"engines disagree for capacity={capacity!r}"
    )
    assert json.dumps(left, sort_keys=True) == json.dumps(
        right, sort_keys=True)


def check_equivalence(state_dir: str, deployment: str) -> None:
    """Both engines must return byte-identical advice before any timing."""
    from repro.api.session import AdvisorSession
    from repro.core.statefiles import StateStore

    for capacity in (None, "ondemand", "spot"):
        # Fresh sessions per engine: neither may lean on state the
        # other one warmed.
        objects = _advise(
            AdvisorSession(store=StateStore(root=state_dir)),
            deployment, "objects", capacity)
        columnar = _advise(
            AdvisorSession(store=StateStore(root=state_dir)),
            deployment, "columnar", capacity)
        assert_same_advice(objects, columnar, capacity)


# -- measurement (one subprocess per mode) --------------------------------------


def timed_request(mode: str, state_dir: str, deployment: str,
                  capacity: str = "") -> float:
    """Run one measurement mode in a fresh interpreter; returns seconds.

    Modes: ``objects`` / ``columnar`` time a steady-state uncached
    request (one warm-up, then best of 2 — for columnar the warm-up
    builds the snapshot, for objects it only warms the page cache);
    ``columnar-first`` times the first columnar request of the process,
    snapshot build included, after an objects-path warm-up;
    ``append-then-advise`` builds the snapshot, then twice appends
    :data:`APPEND_BATCH` new points and times the next columnar request
    (best of 2), and checks the last one against the objects engine.
    It grows the stored corpus, so it runs last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", mode,
         state_dir, deployment, capacity],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, (
        f"worker {mode} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["seconds"])


def _worker(mode: str, state_dir: str, deployment: str,
            capacity: str) -> None:
    from repro.api.session import AdvisorSession
    from repro.core.statefiles import StateStore

    session = AdvisorSession(store=StateStore(root=state_dir))
    cap = capacity or None

    def once(engine: str) -> float:
        start = time.perf_counter()
        _advise(session, deployment, engine, cap)
        return time.perf_counter() - start

    if mode == "columnar-first":
        once("objects")  # warm imports, sqlite, and the page cache
        seconds = once("columnar")  # snapshot miss: fetch + build + math
    elif mode == "append-then-advise":
        once("columnar")  # builds the snapshot
        store = session.data_store(deployment)
        start = store.count_points()
        seconds = float("inf")
        for batch in range(2):
            store.append_points(synthetic_points(
                APPEND_BATCH, deployment, start + batch * APPEND_BATCH))
            began = time.perf_counter()
            served = _advise(session, deployment, "columnar", cap)
            seconds = min(seconds, time.perf_counter() - began)
        assert_same_advice(_advise(session, deployment, "objects", cap),
                           served, cap)
    else:
        once(mode)  # warm-up (for columnar: builds the snapshot)
        seconds = min(once(mode) for _ in range(2))
    print(json.dumps({"mode": mode, "capacity": capacity,
                      "seconds": seconds}))


# -- entry points ---------------------------------------------------------------


def run_benchmark(n_points: int, check: bool = True,
                  write_results: bool = True):
    scale = min(1.0, n_points / ACCEPTANCE_POINTS)
    floor = _env_float("BENCH_ADVICE_FLOOR",
                       max(2.0, SPEEDUP_FLOOR * scale))
    first_floor = _env_float("BENCH_ADVICE_FIRST_FLOOR",
                             FIRST_REQUEST_FLOOR)
    spot_floor = max(2.0, SPOT_SPEEDUP_FLOOR * scale)
    append_floor = max(2.0, APPEND_THEN_ADVISE_FLOOR * scale)
    workdir = tempfile.mkdtemp(prefix="bench-advice-path-")
    try:
        state_dir = os.path.join(workdir, "state")
        deployment = populate_state(state_dir, n_points)
        check_equivalence(state_dir, deployment)

        timings = {}
        for label, mode, capacity in (
            ("objects", "objects", ""),
            ("columnar_first", "columnar-first", ""),
            ("columnar", "columnar", ""),
            ("objects_spot", "objects", "spot"),
            ("columnar_spot", "columnar", "spot"),
            ("append_then_advise", "append-then-advise", ""),
        ):
            timings[label] = timed_request(mode, state_dir, deployment,
                                           capacity)

        speedups = {
            "uncached_request": timings["objects"] / timings["columnar"],
            "first_request": (timings["objects"]
                              / timings["columnar_first"]),
            "uncached_spot_request": (timings["objects_spot"]
                                      / timings["columnar_spot"]),
            "append_then_advise": (timings["columnar_first"]
                                   / timings["append_then_advise"]),
        }
        results = {
            "host": {"cpu_count": os.cpu_count() or 1,
                     "python": platform.python_version()},
            "config": {"points": n_points,
                       "acceptance_points": ACCEPTANCE_POINTS,
                       "floor": floor, "first_request_floor": first_floor,
                       "spot_floor": spot_floor,
                       "append_then_advise_floor": append_floor,
                       "append_batch": APPEND_BATCH},
            "equivalence": "rows byte-identical "
                           "(measured, ondemand, spot; measured after "
                           "appends)",
            "seconds": timings,
            "speedup": speedups,
        }
        if write_results:
            with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
                json.dump(results, fh, indent=1)
                fh.write("\n")

        print(f"\n=== advice read path @ {n_points} points ===")
        for label in ("objects", "columnar_first", "columnar",
                      "objects_spot", "columnar_spot", "append_then_advise"):
            print(f"{label:18}: {timings[label] * 1e3:9.2f} ms/request")
        print(f"uncached advice speedup: "
              f"{speedups['uncached_request']:.1f}x (floor {floor:.1f}x)")
        print(f"first-request speedup:   "
              f"{speedups['first_request']:.1f}x "
              f"(build amortized after one request)")
        print(f"uncached spot speedup:   "
              f"{speedups['uncached_spot_request']:.1f}x "
              f"(floor {spot_floor:.1f}x)")
        print(f"append-then-advise vs first request: "
              f"{speedups['append_then_advise']:.1f}x "
              f"(floor {append_floor:.1f}x)")

        if check:
            assert speedups["uncached_request"] >= floor, (
                f"uncached advice speedup "
                f"{speedups['uncached_request']:.1f}x below the "
                f"{floor:.1f}x floor"
            )
            assert speedups["uncached_spot_request"] >= spot_floor, (
                f"uncached spot speedup "
                f"{speedups['uncached_spot_request']:.1f}x below the "
                f"{spot_floor:.1f}x floor"
            )
            assert speedups["append_then_advise"] >= append_floor, (
                f"append-then-advise "
                f"{speedups['append_then_advise']:.1f}x vs the first "
                f"columnar request, below the {append_floor:.1f}x floor"
            )
            if n_points >= ACCEPTANCE_POINTS:
                assert speedups["first_request"] >= first_floor, (
                    f"first columnar request (snapshot build) "
                    f"{speedups['first_request']:.2f}x vs objects, "
                    f"below the {first_floor:.2f}x floor"
                )
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _configured_points() -> int:
    return int(os.environ.get("BENCH_ADVICE_POINTS", ACCEPTANCE_POINTS))


def test_advice_path():
    """CI smoke: equivalence gate + scaled speedup floor hold."""
    run_benchmark(_configured_points())


def main(argv=None) -> int:
    import argparse

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--worker":
        _worker(*argv[1:5])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=_configured_points())
    parser.add_argument("--ci-smoke", action="store_true",
                        help=f"scaled-down run ({CI_SMOKE_POINTS} points, "
                             f"proportional floors)")
    parser.add_argument("--no-check", action="store_true",
                        help="report without asserting the floors")
    args = parser.parse_args(argv)
    points = CI_SMOKE_POINTS if args.ci_smoke else args.points
    run_benchmark(points, check=not args.no_check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
