"""A7 ablation: spot capacity vs on-demand, across eviction rates.

The paper bills on-demand only; spot capacity is ~70% cheaper but
interruptible, so whether the advisor should recommend it depends on the
eviction rate and the recovery policy.  This ablation sweeps the eviction
rate and asks, at each point, which tier owns the cheapest advice row:

* at low rates spot wins (the discount dwarfs the occasional redo);
* with a plain ``restart`` policy the expected makespan grows like
  ``(e^{lam T} - 1)/lam``, so past a break-even rate the advised config
  flips back to on-demand;
* ``checkpoint_restart`` bounds the loss per eviction to one checkpoint
  interval, keeping spot viable at rates where restart already lost.

It also cross-checks the closed-form expectation against the collector's
actual eviction simulation on one configuration.
"""

from benchmarks.conftest import paper_config, run_sweep
from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.cost import capacity_view, cheapest_capacity
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB

#: Eviction rates swept (interruptions per node-hour).  The high end is
#: deliberately brutal: paper-scale tasks run seconds-to-minutes, so the
#: flip only shows where mean-time-to-eviction approaches the task time.
RATES = [1.0, 10.0, 50.0, 150.0, 400.0]

CHECKPOINT_INTERVAL_S = 30.0
CHECKPOINT_OVERHEAD_S = 5.0


def advised_tier(dataset: Dataset, catalog: PriceCatalog, rate: float,
                 recovery: str,
                 interval_s: float = CHECKPOINT_INTERVAL_S) -> str:
    """Which capacity tier owns the cheapest advice row at this rate."""
    ondemand_rows = Advisor(
        capacity_view(dataset, catalog, "ondemand")
    ).advise()
    spot_rows = Advisor(
        capacity_view(
            dataset, catalog, "spot",
            eviction=EvictionModel.flat(rate),
            recovery=recovery,
            checkpoint_interval_s=interval_s,
            checkpoint_overhead_s=CHECKPOINT_OVERHEAD_S,
        )
    ).advise(objective="effective")
    return cheapest_capacity([
        ("ondemand", ondemand_rows), ("spot", spot_rows),
    ])


def test_ablation_spot_capacity(benchmark):
    config = paper_config("lammps", {"BOXFACTOR": ["30"]},
                          [2, 4, 8], "abspot")
    _, dataset, deployment = run_sweep(config)
    catalog = deployment.provider.prices

    def sweep_rates():
        table = {}
        for rate in RATES:
            table[rate] = {
                recovery: advised_tier(dataset, catalog, rate, recovery)
                for recovery in ("restart", "checkpoint_restart")
            }
        return table

    table = benchmark(sweep_rates)

    print("\n=== Ablation A7: advised capacity tier vs eviction rate ===")
    print(f"    (spot discount {catalog.spot_discount:.0%}, checkpoint "
          f"interval {CHECKPOINT_INTERVAL_S:.0f}s, overhead "
          f"{CHECKPOINT_OVERHEAD_S:.0f}s)")
    print(f"    {'rate (/node-h)':>14} {'restart':>12} "
          f"{'checkpoint_restart':>20}")
    for rate in RATES:
        print(f"    {rate:>14.0f} {table[rate]['restart']:>12} "
              f"{table[rate]['checkpoint_restart']:>20}")

    # The flip: spot advised when evictions are rare, on-demand once the
    # restart tax exceeds the discount.
    assert table[RATES[0]]["restart"] == "spot"
    assert table[RATES[-1]]["restart"] == "ondemand"
    # Checkpointing keeps spot viable at a rate where restart flipped.
    flip = next(r for r in RATES if table[r]["restart"] == "ondemand")
    assert table[flip]["checkpoint_restart"] == "spot"


def test_ablation_rate_vs_checkpoint_interval():
    """The 2-D grid the ISSUE asks for: eviction rate x checkpoint
    interval, advised tier per cell.  Finer checkpointing extends the
    region where spot wins; a huge interval degenerates to restart."""
    config = paper_config("lammps", {"BOXFACTOR": ["30"]},
                          [2, 4, 8], "abspotgrid")
    _, dataset, deployment = run_sweep(config)
    catalog = deployment.provider.prices
    intervals = [5.0, 30.0, 120.0, 1200.0]
    rates = [10.0, 50.0, 150.0, 400.0]

    grid = {
        (rate, interval): advised_tier(
            dataset, catalog, rate, "checkpoint_restart",
            interval_s=interval,
        )
        for rate in rates for interval in intervals
    }

    print("\n=== Ablation A7b: advised tier, eviction rate x checkpoint "
          "interval ===")
    header = " ".join(f"{interval:>9.0f}s" for interval in intervals)
    print(f"    {'rate (/node-h)':>14} {header}")
    for rate in rates:
        cells = " ".join(f"{grid[(rate, i)]:>10}" for i in intervals)
        print(f"    {rate:>14.0f} {cells}")

    # Easy regime: every interval keeps spot advised.
    assert all(grid[(rates[0], i)] == "spot" for i in intervals)
    # Hard regime: the coarsest checkpointing loses to on-demand...
    assert grid[(rates[-1], intervals[-1])] == "ondemand"
    # ...while the finest still salvages spot at some rate where the
    # coarsest already flipped (monotone benefit of checkpointing).
    flip_rate = next(r for r in rates
                     if grid[(r, intervals[-1])] == "ondemand")
    assert grid[(flip_rate, intervals[0])] == "spot"


def test_ablation_expected_vs_simulated():
    """The closed-form expectation tracks the actual eviction simulation."""
    config = paper_config("lammps", {"BOXFACTOR": ["30"]}, [2], "abspotsim")
    rate = 40.0
    seeds = range(16)

    by_sku: dict = {}
    for seed in seeds:
        deployment = Deployer().deploy(paper_config(
            "lammps", {"BOXFACTOR": ["30"]}, [2], f"abspotsim{seed}"))
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch,
                                      capacity="spot"),
            script=apps.create(config.appname),
            dataset=Dataset(), taskdb=TaskDB(),
            capacity="spot", recovery="checkpoint_restart",
            checkpoint_interval_s=CHECKPOINT_INTERVAL_S,
            checkpoint_overhead_s=CHECKPOINT_OVERHEAD_S,
            eviction=EvictionModel.flat(rate, seed=seed),
            max_preemptions=500,
        )
        report = collector.collect(generate_scenarios(config))
        assert report.failed == 0
        for p in collector.dataset:
            entry = by_sku.setdefault(p.sku, {"realized": [], "exec": [],
                                              "preemptions": []})
            entry["realized"].append(p.makespan_s)
            entry["exec"].append(p.exec_time_s)
            entry["preemptions"].append(p.preemptions)

    from repro.core.cost import expected_spot_runtime

    print()
    for sku, entry in sorted(by_sku.items()):
        mean_realized = sum(entry["realized"]) / len(entry["realized"])
        mean_preempt = (sum(entry["preemptions"])
                        / len(entry["preemptions"]))
        # Expected work time is identical across seeds (no noise model).
        expected = expected_spot_runtime(
            entry["exec"][0], rate * 2,  # task-level rate: 2 nodes
            "checkpoint_restart",
            CHECKPOINT_INTERVAL_S, CHECKPOINT_OVERHEAD_S,
        )
        print(f"    {sku}: expected {expected:,.0f}s vs simulated mean "
              f"{mean_realized:,.0f}s over {len(entry['realized'])} runs "
              f"({mean_preempt:.1f} preemptions/run)")
        # Re-booting a replacement node costs ~150s (+-20% jitter) per
        # preemption in the simulation and nothing in the closed form,
        # so realized sits above expected by roughly that budget.
        assert mean_realized >= expected * 0.9
        assert mean_realized <= expected + mean_preempt * 400.0 + 60.0
