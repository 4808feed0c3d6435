"""Sweep-kernel benchmark: batched engine vs the per-object scheduler (ISSUE 7).

Algorithm 1 evaluated at catalog scale: a 40,800-scenario grid (3,400
``BOXFACTOR`` inputs x the paper's three SKUs x 4 node counts) swept
end-to-end through a real :class:`~repro.core.collector.DataCollector`
— deploy, pool lifecycle, billing, task records, persistence — under
both execution engines:

* **object** — the per-object scheduler: one BatchPool/BatchService
  task walk per scenario, exactly what ``collect`` has always done.
* **batched** — the ``repro.simd`` kernel: scenario physics evaluated
  as numpy column arrays over the same substrate, byte-identical
  output (the bench *verifies* equivalence on a seeded on-demand and
  spot slice before any clock starts).

The headline number is the **default persistence engine** (SQLite
store) end to end, because that is what ``repro collect`` runs: the
per-object walk pays a per-scenario upsert transaction against an
ever-growing table and degrades superlinearly with corpus size, while
the batched kernel's deferred sync stays flat.  Acceptance at the
40,800-scenario scale: >= 10x scenario throughput (measured ~12.5x;
override with ``BENCH_SIM_FLOOR``).  Pure in-memory rows (no store)
are reported for context — the kernel alone is ~7x — but carry no
floor.

A second, smaller **spot** grid (a tenth of the input count, seeded
``EvictionModel`` at 40 evictions/hour/node, checkpoint_restart
recovery) times the vectorized eviction/recovery renewal walk against
the object scheduler's per-attempt walk, in-memory rows on both sides.
Acceptance: >= 3x at the 4,080-scenario spot scale (override with
``BENCH_SIM_SPOT_FLOOR``; grid size with ``BENCH_SIM_SPOT_INPUTS``).

Results land in ``BENCH_sim_kernel.json`` at the repo root.

Run standalone::

    python benchmarks/bench_sim_kernel.py [--inputs 3400] [--no-check]

scaled down for CI (10,200 scenarios, proportionally softer floor)::

    python benchmarks/bench_sim_kernel.py --ci-smoke

or via pytest::

    BENCH_SIM_INPUTS=850 pytest benchmarks/bench_sim_kernel.py -q
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tempfile
import time

from conftest import paper_config
from repro.appkit.plugins import get_plugin
from repro.backends.azurebatch import AzureBatchBackend
from repro.cloud.eviction import EvictionModel
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB
from repro.store.sqlite import SqliteStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_sim_kernel.json")

#: Acceptance floor for the default-store sweep at the 40,800-scenario
#: acceptance scale.  Smaller (smoke) grids use a proportionally softer
#: floor: the object walk's per-append store transactions get *slower*
#: as the corpus grows, so the gap widens with scale.
SQLITE_SPEEDUP_FLOOR = 10.0

#: Scenario count the full floor applies at (3400 inputs x 3 SKUs x 4
#: node counts).
ACCEPTANCE_SCENARIOS = 40_800

#: Acceptance floor for the seeded spot grid: the vectorized renewal
#: walk (eviction draws prefetched per SKU group, pool bookkeeping on
#: the live-node view) must clear 3x end to end over the object
#: scheduler's per-attempt walk.  Override with ``BENCH_SIM_SPOT_FLOOR``.
SPOT_SPEEDUP_FLOOR = 3.0

#: Scenario count the spot floor applies at (340 inputs x 3 SKUs x 4
#: node counts).  The spot walk pays per-preemption simulation work on
#: top of the scenario physics, so its grid is a tenth of the on-demand
#: one; override the input count with ``BENCH_SIM_SPOT_INPUTS``.
SPOT_ACCEPTANCE_SCENARIOS = 4_080

#: Seeded eviction pressure for the spot grid: strong enough that most
#: scenarios absorb at least one preemption, weak enough that
#: checkpoint_restart always completes (the sweep asserts failed == 0).
SPOT_EVICTION_RATE = 40.0
SPOT_EVICTION_SEED = 7

NNODES = [2, 4, 6, 8]


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def grid_config(n_inputs: int):
    """A lammps sweep with ``n_inputs`` distinct BOXFACTOR values."""
    boxfactors = [f"{10 + i * 0.01:.2f}" for i in range(n_inputs)]
    return paper_config("lammps", {"BOXFACTOR": boxfactors}, NNODES,
                        "benchsim")


def run_sweep(config, engine: str, store_backend: str,
              capacity: str = "ondemand"):
    """One end-to-end collect; returns ``(seconds, executed)``."""
    with tempfile.TemporaryDirectory(prefix="bench-sim-") as tmpdir:
        store = (SqliteStore(os.path.join(tmpdir, "state.sqlite"))
                 if store_backend == "sqlite" else None)
        spot_kwargs = {}
        if capacity == "spot":
            spot_kwargs = dict(
                capacity="spot", recovery="checkpoint_restart",
                eviction=EvictionModel(
                    default_rate_per_hour=SPOT_EVICTION_RATE,
                    rates={}, seed=SPOT_EVICTION_SEED),
                max_preemptions=500,
            )
        deployment = Deployer().deploy(config)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch,
                                      capacity=capacity),
            script=get_plugin(config.appname),
            dataset=Dataset(store=store),
            taskdb=TaskDB(store=store),
            deployment_name="benchsim",
            engine=engine,
            **spot_kwargs,
        )
        scenarios = generate_scenarios(config)
        gc.collect()
        start = time.perf_counter()
        report = collector.collect(scenarios)
        elapsed = time.perf_counter() - start
        assert report.engine == engine, (
            f"requested {engine!r} but ran {report.engine!r} "
            f"({report.engine_fallback})"
        )
        assert report.failed == 0, report.failures[:3]
        return elapsed, report.executed


def timed_sweep(engine: str, store_label: str, n_inputs: int,
                capacity: str = "ondemand") -> dict:
    """One measurement, isolated in a fresh interpreter.

    Each (engine, store) pair runs in its own subprocess: a 40k-scenario
    per-object sweep leaves the parent heap fragmented enough to slow a
    following in-process run by ~40%, which would corrupt the comparison
    in whichever direction ran second.  The child warms up on a small
    grid first so one-time costs (imports, numpy initialisation, the
    physics memo tables) are not billed to the timed sweep either.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--worker", engine, store_label, str(n_inputs), capacity],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    )
    assert proc.returncode == 0, (
        f"{engine}/{store_label}/{capacity} sweep failed:\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _worker(engine: str, store_label: str, n_inputs: int,
            capacity: str = "ondemand") -> None:
    store_backend = None if store_label == "none" else store_label
    run_sweep(grid_config(200), engine, store_backend, capacity)  # warm-up
    config = grid_config(n_inputs)
    elapsed, executed = min(
        run_sweep(config, engine, store_backend, capacity)
        for _ in range(2))  # best-of-2
    print(json.dumps({
        "engine": engine,
        "store": store_label,
        "capacity": capacity,
        "scenarios": executed,
        "wall_s": elapsed,
        "us_per_scenario": 1e6 * elapsed / executed,
        "scenarios_per_s": executed / elapsed,
    }))


# -- equivalence gate -----------------------------------------------------------


def _sweep_pair(engine: str, capacity: str = "ondemand",
                recovery: str = "restart", eviction=None):
    config = paper_config("lammps", {"BOXFACTOR": ["12", "20", "24"]},
                          [2, 4], "benchsimeq")
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch,
                                  capacity=capacity),
        script=get_plugin("lammps"),
        dataset=Dataset(), taskdb=TaskDB(),
        deployment_name="benchsimeq",
        capacity=capacity, recovery=recovery, eviction=eviction,
        engine=engine,
    )
    report = collector.collect(generate_scenarios(config))
    return collector, report


def check_equivalence() -> dict:
    """Both engines must produce byte-identical results before any
    throughput comparison means anything.  The object engine runs the
    scheduled walk at one pool, which the batched kernel reproduces."""
    checked = {}
    for label, kwargs in (
        ("ondemand", {}),
        ("spot", {"capacity": "spot", "recovery": "checkpoint_restart",
                  "eviction": EvictionModel(default_rate_per_hour=40.0,
                                            rates={}, seed=7)}),
    ):
        obj, obj_report = _sweep_pair("object", **kwargs)
        bat, bat_report = _sweep_pair("batched", **kwargs)
        assert bat_report.engine == "batched", bat_report.engine_fallback
        points_obj = [p.to_dict() for p in obj.dataset.points()]
        points_bat = [p.to_dict() for p in bat.dataset.points()]
        assert points_obj == points_bat, f"{label}: DataPoints diverge"
        tasks_obj = [t.to_dict() for t in obj.taskdb.all()]
        tasks_bat = [t.to_dict() for t in bat.taskdb.all()]
        assert tasks_obj == tasks_bat, f"{label}: TaskRecords diverge"
        for name in ("task_cost_usd", "preemptions", "makespan_s",
                     "provisioning_overhead_s", "infrastructure_cost_usd"):
            assert getattr(obj_report, name) == getattr(bat_report, name), \
                f"{label}: report field {name} diverges"
        checked[label] = {"points": len(points_obj),
                          "preemptions": bat_report.preemptions}
    return checked


# -- entry points ---------------------------------------------------------------


def run_benchmark(n_inputs: int, check: bool = True,
                  write_results: bool = True) -> dict:
    config = grid_config(n_inputs)
    n_scenarios = n_inputs * len(config.skus) * len(NNODES)
    scale = min(1.0, n_scenarios / ACCEPTANCE_SCENARIOS)
    floor = float(os.environ.get(
        "BENCH_SIM_FLOOR", max(2.5, SQLITE_SPEEDUP_FLOOR * scale)))

    print("equivalence gate: batched == object, byte for byte ...")
    equivalence = check_equivalence()
    print(f"equivalence gate: OK {equivalence}")

    rows = {}
    for store_label in ("sqlite", "none"):
        for engine in ("object", "batched"):
            row = timed_sweep(engine, store_label, n_inputs)
            rows[f"{engine}_{store_label}"] = row
            print(f"{engine:8s} store={store_label:6s}: "
                  f"{row['wall_s']:7.2f} s"
                  f"   {row['us_per_scenario']:8.1f} us/scenario"
                  f"   {row['scenarios_per_s']:9.0f} scenarios/s")

    # Seeded spot grid: the vectorized renewal walk vs the object
    # scheduler's per-attempt walk, in-memory rows (the store is not what
    # a spot sweep stresses — preemption bookkeeping is).
    spot_inputs = _env_int("BENCH_SIM_SPOT_INPUTS", max(25, n_inputs // 10))
    spot_scenarios = spot_inputs * len(config.skus) * len(NNODES)
    spot_scale = min(1.0, spot_scenarios / SPOT_ACCEPTANCE_SCENARIOS)
    spot_floor = float(os.environ.get(
        "BENCH_SIM_SPOT_FLOOR",
        max(2.0, SPOT_SPEEDUP_FLOOR * spot_scale)))
    for engine in ("object", "batched"):
        row = timed_sweep(engine, "none", spot_inputs, capacity="spot")
        rows[f"{engine}_spot"] = row
        print(f"{engine:8s} spot  rate={SPOT_EVICTION_RATE:g}/h: "
              f"{row['wall_s']:7.2f} s"
              f"   {row['us_per_scenario']:8.1f} us/scenario"
              f"   {row['scenarios_per_s']:9.0f} scenarios/s")

    sqlite_speedup = (rows["object_sqlite"]["wall_s"]
                      / rows["batched_sqlite"]["wall_s"])
    memory_speedup = (rows["object_none"]["wall_s"]
                      / rows["batched_none"]["wall_s"])
    spot_speedup = (rows["object_spot"]["wall_s"]
                    / rows["batched_spot"]["wall_s"])
    results = {
        "config": {"inputs": n_inputs, "scenarios": n_scenarios,
                   "skus": list(config.skus), "nnodes": NNODES,
                   "floor": floor,
                   "acceptance_scenarios": ACCEPTANCE_SCENARIOS,
                   "spot_inputs": spot_inputs,
                   "spot_scenarios": spot_scenarios,
                   "spot_floor": spot_floor,
                   "spot_eviction_rate": SPOT_EVICTION_RATE,
                   "spot_eviction_seed": SPOT_EVICTION_SEED,
                   "spot_acceptance_scenarios": SPOT_ACCEPTANCE_SCENARIOS},
        "equivalence": equivalence,
        "sweeps": rows,
        "sqlite_speedup": sqlite_speedup,
        "in_memory_speedup": memory_speedup,
        "spot_speedup": spot_speedup,
    }
    if write_results:
        with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")

    print(f"\n=== sweep kernel @ {n_scenarios} scenarios ===")
    print(f"default-store (sqlite) speedup: {sqlite_speedup:.2f}x "
          f"(floor {floor:.1f}x at this scale)")
    print(f"in-memory kernel speedup:       {memory_speedup:.2f}x "
          f"(context, no floor)")
    print(f"spot renewal-walk speedup:      {spot_speedup:.2f}x "
          f"(floor {spot_floor:.1f}x at {spot_scenarios} scenarios)")

    if check:
        assert sqlite_speedup >= floor, (
            f"batched sweep {sqlite_speedup:.2f}x over the per-object "
            f"scheduler, below the {floor:.1f}x floor at "
            f"{n_scenarios} scenarios"
        )
        assert spot_speedup >= spot_floor, (
            f"batched spot sweep {spot_speedup:.2f}x over the "
            f"object scheduler, below the {spot_floor:.1f}x floor at "
            f"{spot_scenarios} scenarios"
        )
    return results


def test_sim_kernel():
    """CI entry: the scenario-throughput floor holds at the configured
    scale (set ``BENCH_SIM_INPUTS`` to scale the grid)."""
    run_benchmark(_env_int("BENCH_SIM_INPUTS", 3400))


def main(argv=None) -> int:
    import argparse

    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # internal: one isolated timed sweep
        _worker(argv[1], argv[2], int(argv[3]),
                argv[4] if len(argv) > 4 else "ondemand")
        return 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int,
                        default=_env_int("BENCH_SIM_INPUTS", 3400),
                        help="distinct BOXFACTOR values (scenarios = "
                             "inputs x 3 SKUs x 4 node counts)")
    parser.add_argument("--ci-smoke", action="store_true",
                        help="scaled-down grid (10,200 scenarios) with "
                             "a proportionally softer floor")
    parser.add_argument("--no-check", action="store_true",
                        help="report without asserting the floor")
    args = parser.parse_args(argv)
    inputs = 850 if args.ci_smoke else args.inputs
    run_benchmark(inputs, check=not args.no_check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
