"""Spot-capacity sweeps through the collector: recovery policies,
eviction accounting, and the determinism goldens the ISSUE demands."""

import pytest

from repro.appkit.plugins import get_plugin
from repro.backends.azurebatch import AzureBatchBackend, pool_id_for
from repro.backends.slurm import SlurmBackend, partition_for
from repro.cloud.eviction import EvictionModel
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB, TaskStatus
from repro.errors import BackendError, ConfigError
from tests.conftest import make_config

TWO_SKUS = ["Standard_HB120rs_v3", "Standard_HC44rs"]

#: Eviction pressure strong enough to interrupt second-scale tasks.
BRUTAL = 600.0
#: Pressure that interrupts sometimes but always lets work finish.
FIRM = 120.0


def spot_config(**overrides):
    base = dict(skus=TWO_SKUS, nnodes=[1, 2],
                appinputs={"BOXFACTOR": ["16"]})
    base.update(overrides)
    return make_config(**base)


def build(config, backend_kind="azurebatch", capacity="spot", **kwargs):
    deployment = Deployer().deploy(config)
    if backend_kind == "azurebatch":
        backend = AzureBatchBackend(service=deployment.batch,
                                    capacity=capacity)
    else:
        from repro.slurmsim.cluster import SlurmCluster

        cluster = SlurmCluster(
            provider=deployment.provider,
            subscription=deployment.provider.get_subscription(
                config.subscription
            ),
            region=config.region,
        )
        backend = SlurmBackend(cluster=cluster, capacity=capacity)
    collector = DataCollector(
        backend=backend,
        script=get_plugin(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        deployment_name="spot-test",
        capacity=capacity,
        **kwargs,
    )
    return collector, deployment


def full_dicts(dataset, drop=()):
    out = []
    for p in dataset.points():
        d = p.to_dict()
        for key in drop:
            d.pop(key)
        out.append(str(sorted(d.items())))
    return sorted(out)


def measurements(dataset):
    return sorted(
        (p.sku, p.nnodes, p.exec_time_s, p.cost_usd, p.preemptions,
         p.wasted_node_s, p.makespan_s)
        for p in dataset
    )


def assert_measurements_equal(dataset_a, dataset_b):
    """Exact on identity/counts/app time; 1e-9-relative on the floats
    derived from absolute clock subtraction (different schedules shift
    the timeline, which costs the last ulp of ``now - started``)."""
    rows_a, rows_b = measurements(dataset_a), measurements(dataset_b)
    assert len(rows_a) == len(rows_b)
    for row_a, row_b in zip(rows_a, rows_b):
        sku_a, n_a, exec_a, cost_a, pre_a, wasted_a, span_a = row_a
        sku_b, n_b, exec_b, cost_b, pre_b, wasted_b, span_b = row_b
        assert (sku_a, n_a, pre_a) == (sku_b, n_b, pre_b)
        assert exec_a == exec_b
        assert cost_a == pytest.approx(cost_b, rel=1e-9)
        assert wasted_a == pytest.approx(wasted_b, rel=1e-9, abs=1e-9)
        assert span_a == pytest.approx(span_b, rel=1e-9)


class TestRecoveryPolicies:
    @pytest.mark.parametrize("backend_kind", ["azurebatch", "slurm"])
    def test_checkpoint_restart_completes_under_pressure(self, backend_kind):
        collector, _ = build(
            spot_config(), backend_kind,
            recovery="checkpoint_restart",
            checkpoint_interval_s=5.0, checkpoint_overhead_s=1.0,
            eviction=EvictionModel.flat(FIRM, seed=3),
            max_preemptions=500,
        )
        report = collector.collect(generate_scenarios(spot_config()))
        assert report.failed == 0
        assert report.capacity == "spot"
        assert report.recovery == "checkpoint_restart"
        assert report.preemptions > 0
        assert report.wasted_node_s > 0

    def test_fail_policy_fails_on_first_eviction(self):
        collector, _ = build(
            spot_config(), recovery="fail",
            eviction=EvictionModel.flat(BRUTAL, seed=3),
        )
        report = collector.collect(generate_scenarios(spot_config()))
        assert report.failed > 0
        failed = [r for r in collector.taskdb.all()
                  if r.status is TaskStatus.FAILED]
        for record in failed:
            assert record.preemptions == 1
            assert "spot capacity reclaimed" in record.failure_reason

    def test_restart_gives_up_at_max_preemptions(self):
        collector, _ = build(
            spot_config(skus=TWO_SKUS[:1], nnodes=[1]),
            recovery="restart",
            eviction=EvictionModel.flat(5000.0, seed=1),
            max_preemptions=7,
        )
        report = collector.collect(
            generate_scenarios(spot_config(skus=TWO_SKUS[:1], nnodes=[1]))
        )
        assert report.failed == 1
        assert report.preemptions == 7
        assert "gave up after 7 spot preemption(s)" in report.failures[0]

    def test_restart_wastes_every_interrupted_attempt(self):
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[2])
        collector, _ = build(
            config, recovery="restart",
            eviction=EvictionModel.flat(FIRM, seed=9),
            max_preemptions=500,
        )
        report = collector.collect(generate_scenarios(config))
        assert report.failed == 0
        point = collector.dataset.points()[0]
        if point.preemptions:
            assert point.wasted_node_s > 0
        # Restart never banks progress: the recorded app time is the
        # full nominal runtime regardless of interruptions.
        ondemand, _ = build(config, capacity="ondemand")
        ondemand.collect(generate_scenarios(config))
        assert point.exec_time_s == pytest.approx(
            ondemand.dataset.points()[0].exec_time_s
        )

    def test_checkpoint_wastes_less_than_restart(self):
        config = spot_config(appinputs={"BOXFACTOR": ["30"]}, nnodes=[2])
        kwargs = dict(
            eviction=EvictionModel.flat(FIRM, seed=5), max_preemptions=500,
            checkpoint_interval_s=10.0, checkpoint_overhead_s=1.0,
        )
        restart, _ = build(config, recovery="restart", **kwargs)
        restart_report = restart.collect(generate_scenarios(config))
        checkpoint, _ = build(config, recovery="checkpoint_restart",
                              **kwargs)
        checkpoint_report = checkpoint.collect(generate_scenarios(config))
        assert restart_report.preemptions > 0
        # Same eviction draws land on both sweeps (same seed/keys); the
        # checkpointing sweep salvages work the restart sweep redoes.
        assert (checkpoint_report.wasted_node_s
                < restart_report.wasted_node_s)

    def test_effective_cost_decomposes_exactly(self):
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[2],
                             appinputs={"BOXFACTOR": ["30"]})
        collector, deployment = build(
            config, recovery="checkpoint_restart",
            checkpoint_interval_s=10.0, checkpoint_overhead_s=2.0,
            eviction=EvictionModel.flat(FIRM, seed=2), max_preemptions=500,
        )
        collector.collect(generate_scenarios(config))
        point = collector.dataset.points()[0]
        assert point.preemptions > 0
        price = deployment.provider.prices.hourly_price(
            point.sku, config.region, spot=True
        )
        billed_node_s = point.exec_time_s * point.nnodes + point.wasted_node_s
        assert point.cost_usd == pytest.approx(
            price * billed_node_s / 3600.0, rel=1e-9
        )

    def test_spot_pools_and_partitions_live_under_distinct_ids(self):
        assert pool_id_for("Standard_HB120rs_v3", "spot") \
            == "pool-spot-hb120rs_v3"
        assert partition_for("Standard_HB120rs_v3", "spot") \
            == "part-spot-hb120rs_v3"
        collector, deployment = build(
            spot_config(skus=TWO_SKUS[:1], nnodes=[1]),
            eviction=EvictionModel.flat(0.0),
        )
        collector.collect(
            generate_scenarios(spot_config(skus=TWO_SKUS[:1], nnodes=[1]))
        )
        assert "pool-spot-hb120rs_v3" in deployment.batch.pools
        assert deployment.batch.pools["pool-spot-hb120rs_v3"].spot

    def test_pool_regrows_after_eviction(self):
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[2],
                             appinputs={"BOXFACTOR": ["30"]})
        collector, deployment = build(
            config, recovery="checkpoint_restart",
            checkpoint_interval_s=10.0, checkpoint_overhead_s=1.0,
            eviction=EvictionModel.flat(FIRM, seed=2), max_preemptions=500,
        )
        report = collector.collect(generate_scenarios(config))
        assert report.completed == 1
        pool = deployment.batch.pools["pool-spot-hb120rs_v3"]
        assert pool.preemption_count == report.preemptions
        # Each replacement node booted: provisioning overhead grew beyond
        # the initial bring-up of two nodes.
        assert collector.backend.provisioning_overhead_s > 0

    def test_retry_draws_fresh_eviction_times(self):
        """Regression: eviction draws are keyed on a sweep-cumulative
        per-scenario counter, not an attempt index local to one
        execution.  A ``retry_failed`` re-run therefore continues the
        draw sequence instead of replaying the draws that already killed
        the scenario.

        At this seed draw 0 evicts the 75 s task after ~10 s and draw 1
        survives (~204 s): the first execution fails under
        ``recovery="fail"`` and the retry completes.  The old code
        re-drew draw 0 on the retry, so the re-run was evicted at the
        same instant and the scenario could never recover.
        """
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[1])
        collector, _ = build(
            config, recovery="fail", retry_failed=1,
            eviction=EvictionModel.flat(60.0, seed=11),
        )
        report = collector.collect(generate_scenarios(config))
        assert report.completed == 1
        assert report.failed == 0
        # One draw per execution: the failed first run plus the retry.
        assert collector._spot_draws == {"t00000": 2}
        record = collector.taskdb.all()[0]
        assert record.status is TaskStatus.COMPLETED

    def test_makespan_includes_lost_attempts(self):
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[2],
                             appinputs={"BOXFACTOR": ["30"]})
        collector, _ = build(
            config, recovery="checkpoint_restart",
            checkpoint_interval_s=10.0, checkpoint_overhead_s=1.0,
            eviction=EvictionModel.flat(FIRM, seed=2), max_preemptions=500,
        )
        collector.collect(generate_scenarios(config))
        point = collector.dataset.points()[0]
        assert point.preemptions > 0
        assert point.makespan_s > point.exec_time_s


class OnDemandOnlyBackend(AzureBatchBackend):
    """A split-phase back-end that cannot interrupt scenario ops."""

    @property
    def supports_preemption(self):
        return False


class TestSpotGuards:
    def test_spot_requires_preemption_capable_backend(self):
        deployment = Deployer().deploy(make_config())
        collector = DataCollector(
            backend=OnDemandOnlyBackend(service=deployment.batch),
            script=get_plugin("lammps"),
            dataset=Dataset(), taskdb=TaskDB(), capacity="spot",
        )
        with pytest.raises(BackendError, match="preemption"):
            collector.collect(generate_scenarios(make_config()))

    def test_invalid_capacity_rejected(self):
        collector, _ = build(spot_config(), capacity="flex")
        with pytest.raises(ConfigError, match="capacity"):
            collector.collect(generate_scenarios(spot_config()))

    def test_invalid_recovery_rejected(self):
        collector, _ = build(spot_config(), recovery="pray")
        with pytest.raises(ConfigError, match="recovery"):
            collector.collect(generate_scenarios(spot_config()))

    def test_invalid_checkpoint_interval_rejected(self):
        collector, _ = build(spot_config(), checkpoint_interval_s=0.0)
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            collector.collect(generate_scenarios(spot_config()))


class TestDeterminismGoldens:
    """Same ``eviction_seed`` => identical outcome, any schedule."""

    def sweep(self, parallel=1, seed=11, engine="auto"):
        config = spot_config(appinputs={"BOXFACTOR": ["16", "30"]})
        collector, _ = build(
            config, recovery="checkpoint_restart",
            checkpoint_interval_s=5.0, checkpoint_overhead_s=1.0,
            eviction=EvictionModel.flat(FIRM, seed=seed),
            max_preemptions=500, max_parallel_pools=parallel,
            engine=engine,
        )
        report = collector.collect(generate_scenarios(config))
        return report, collector

    def test_scheduled_equals_sequential_byte_identical(self):
        """The event-driven walk at 1 pool reproduces the literal
        Algorithm-1 loop the batched kernel runs — eviction timestamps
        included."""
        _, scheduled = self.sweep(parallel=1)
        report, sequential = self.sweep(engine="batched")
        assert report.engine == "batched", report.engine_fallback
        assert full_dicts(scheduled.dataset) == full_dicts(sequential.dataset)
        assert ([r.to_dict() for r in scheduled.taskdb.all()]
                == [r.to_dict() for r in sequential.taskdb.all()])

    def test_same_seed_identical_report_across_parallelism(self):
        """ISSUE golden: same eviction_seed => identical CollectionReport
        across max_parallel_pools=1 and >1 (makespan/timestamps aside)."""
        report_1, collector_1 = self.sweep(parallel=1)
        report_2, collector_2 = self.sweep(parallel=2)
        for field in ("executed", "completed", "failed", "preemptions",
                      "capacity", "recovery", "max_parallel_pools"):
            value_1, value_2 = (getattr(report_1, field),
                                getattr(report_2, field))
            if field == "max_parallel_pools":
                assert (value_1, value_2) == (1, 2)
            else:
                assert value_1 == value_2, field
        assert report_1.task_cost_usd == pytest.approx(
            report_2.task_cost_usd)
        assert report_1.wasted_node_s == pytest.approx(
            report_2.wasted_node_s)
        assert_measurements_equal(collector_1.dataset, collector_2.dataset)
        # Concurrency still wins wall-clock even with evictions.
        assert report_2.makespan_s < report_1.makespan_s

    def test_same_seed_reproduces_byte_identically(self):
        _, first = self.sweep(parallel=2, seed=11)
        _, second = self.sweep(parallel=2, seed=11)
        assert full_dicts(first.dataset) == full_dicts(second.dataset)

    def test_different_seed_changes_evictions(self):
        report_a, _ = self.sweep(parallel=1, seed=11)
        report_b, _ = self.sweep(parallel=1, seed=12)
        assert report_a.preemptions != report_b.preemptions

    def test_rate_zero_reproduces_ondemand_byte_identically(self):
        """ISSUE golden: eviction rate 0.0 == the non-spot run, byte for
        byte, once the tier label and the spot discount are factored out."""
        config = spot_config()
        spot, spot_dep = build(config, eviction=EvictionModel.flat(0.0))
        spot_dep.provider.prices.spot_discount = 0.0
        spot.collect(generate_scenarios(config))

        ondemand, _ = build(config, capacity="ondemand")
        ondemand.collect(generate_scenarios(config))

        assert full_dicts(spot.dataset, drop=("capacity",)) \
            == full_dicts(ondemand.dataset, drop=("capacity",))
        assert all(p.capacity == "spot" for p in spot.dataset)
        assert all(p.capacity == "ondemand" for p in ondemand.dataset)

    def test_no_eviction_model_means_no_evictions(self):
        config = spot_config(skus=TWO_SKUS[:1], nnodes=[1])
        collector, _ = build(config, eviction=None)
        report = collector.collect(generate_scenarios(config))
        assert report.preemptions == 0
        assert report.completed == 1
