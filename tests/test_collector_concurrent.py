"""Event-driven sweep scheduler tests: determinism and concurrency."""

import pytest

from repro.appkit.plugins import get_plugin
from repro.backends.azurebatch import AzureBatchBackend, pool_id_for
from repro.backends.base import AsyncOp
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB, TaskStatus
from tests.conftest import make_config

THREE_SKUS = ["Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3"]


def build(config, **kwargs):
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch),
        script=get_plugin(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        deployment_name="det-test",
        **kwargs,
    )
    return collector, deployment


def point_dicts(dataset):
    """Full point payloads, timestamps included (order-insensitive)."""
    return sorted(
        (str(sorted(p.to_dict().items())) for p in dataset.points())
    )


def measurements(dataset):
    """Timestamp-free measurement payloads."""
    return sorted(
        (p.sku, p.nnodes, p.ppn, p.inputs_key(), p.exec_time_s, p.cost_usd)
        for p in dataset
    )


class TestDeterminism:
    def sweep_config(self):
        return make_config(
            skus=THREE_SKUS, nnodes=[1, 2, 4],
            appinputs={"BOXFACTOR": ["4", "8"]},
        )

    def test_parallel_one_reproduces_sequential_exactly(self):
        """The scheduler at 1 pool equals the literal Algorithm-1 walk,
        which the batched kernel runs as one flat loop — every data
        point byte-identical, timestamps included."""
        config = self.sweep_config()
        scheduled, _ = build(config, max_parallel_pools=1)
        scheduled_report = scheduled.collect(generate_scenarios(config))

        sequential, _ = build(config, engine="batched")
        sequential_report = sequential.collect(generate_scenarios(config))
        assert sequential_report.engine == "batched"

        assert point_dicts(scheduled.dataset) == point_dicts(
            sequential.dataset
        )
        assert ([r.to_dict() for r in scheduled.taskdb.all()]
                == [r.to_dict() for r in sequential.taskdb.all()])
        assert scheduled_report.executed == sequential_report.executed
        assert scheduled_report.completed == sequential_report.completed
        assert scheduled_report.task_cost_usd == sequential_report.task_cost_usd
        assert (scheduled_report.simulated_wall_s
                == sequential_report.simulated_wall_s)
        assert (scheduled_report.infrastructure_cost_usd
                == sequential_report.infrastructure_cost_usd)

    def test_parallel_one_reproduces_sequential_with_noise(self):
        """Noise is seeded per scenario, so equality survives it."""
        from repro.perf.noise import NoiseModel

        config = make_config(skus=THREE_SKUS[:2], nnodes=[1, 2])
        scheduled, dep_a = build(config, max_parallel_pools=1)
        scheduled.backend.noise = NoiseModel(sigma=0.05, seed=7)
        scheduled.collect(generate_scenarios(config))

        sequential, dep_b = build(config, engine="batched")
        sequential.backend.noise = NoiseModel(sigma=0.05, seed=7)
        assert sequential.collect(
            generate_scenarios(config)).engine == "batched"

        assert point_dicts(scheduled.dataset) == point_dicts(
            sequential.dataset
        )

    def test_measurements_identical_at_any_parallelism(self):
        """Executions are deterministic per scenario: only timestamps and
        the makespan may change with the interleaving."""
        datasets, reports = [], []
        for parallel in (1, 2, 3):
            config = self.sweep_config()
            collector, _ = build(config, max_parallel_pools=parallel)
            reports.append(collector.collect(generate_scenarios(config)))
            datasets.append(collector.dataset)
        assert measurements(datasets[0]) == measurements(datasets[1])
        assert measurements(datasets[0]) == measurements(datasets[2])
        assert reports[0].task_cost_usd == pytest.approx(
            reports[2].task_cost_usd
        )

    def test_concurrent_makespan_beats_sequential(self):
        config = self.sweep_config()
        seq, _ = build(config, max_parallel_pools=1)
        seq_report = seq.collect(generate_scenarios(config))
        con, _ = build(config, max_parallel_pools=3)
        con_report = con.collect(generate_scenarios(config))
        assert con_report.completed == seq_report.completed
        assert con_report.makespan_s < seq_report.makespan_s
        assert con_report.max_parallel_pools == 3


class TestConcurrentScheduling:
    def test_pool_timelines_overlap(self):
        """With 3 parallel pools, SKU windows overlap in simulated time."""
        config = make_config(skus=THREE_SKUS, nnodes=[2, 4])
        collector, _ = build(config, max_parallel_pools=3)
        collector.collect(generate_scenarios(config))
        windows = {}
        for record in collector.taskdb.all():
            sku = record.scenario.sku_name
            start, finish = windows.get(sku, (float("inf"), 0.0))
            windows[sku] = (min(start, record.started_at),
                            max(finish, record.finished_at))
        spans = sorted(windows.values())
        assert len(spans) == 3
        for (start_a, finish_a), (start_b, _) in zip(spans, spans[1:]):
            assert start_b < finish_a  # pools were in flight together

    def test_parallelism_capped_by_pool_limit(self):
        """With a cap of 2, at most two SKU pools ever hold nodes."""
        config = make_config(skus=THREE_SKUS, nnodes=[2])
        collector, deployment = build(config, max_parallel_pools=2)

        peak = {"max": 0}
        original = AzureBatchBackend.submit_provision
        lives = set()

        def tracking(self, sku_name, nodes):
            lives.add(sku_name)
            peak["max"] = max(peak["max"], len(lives))
            return original(self, sku_name, nodes)

        original_release = AzureBatchBackend.release_capacity

        def tracking_release(self, sku_name, delete):
            lives.discard(sku_name)
            return original_release(self, sku_name, delete)

        AzureBatchBackend.submit_provision = tracking
        AzureBatchBackend.release_capacity = tracking_release
        try:
            collector.collect(generate_scenarios(config))
        finally:
            AzureBatchBackend.submit_provision = original
            AzureBatchBackend.release_capacity = original_release
        assert peak["max"] == 2

    def test_resume_skips_done_tasks_concurrently(self):
        config = make_config(skus=THREE_SKUS[:2], nnodes=[1, 2])
        collector, _ = build(config, max_parallel_pools=2)
        scenarios = generate_scenarios(config)
        first = collector.collect(scenarios)
        assert first.executed == 4
        second = collector.collect(scenarios)
        assert second.executed == 0
        assert len(collector.dataset) == 4

    def test_invalid_parallelism_rejected(self):
        config = make_config()
        collector, _ = build(config, max_parallel_pools=0)
        with pytest.raises(ValueError, match="max_parallel_pools"):
            collector.collect(generate_scenarios(config))

    def test_stop_on_failure_halts_other_pools(self):
        # bf=60 OOMs on 1 node; the failing SKU should stop the sweep.
        config = make_config(skus=THREE_SKUS, nnodes=[1],
                             appinputs={"BOXFACTOR": ["60"]})
        collector, _ = build(config, max_parallel_pools=1,
                             stop_on_failure=True)
        report = collector.collect(generate_scenarios(config))
        assert report.failed >= 1
        assert collector.taskdb.counts()["pending"] >= 1


class FailingSetupBackend(AzureBatchBackend):
    """Azure Batch backend whose application setup fails on one SKU."""

    bad_sku = "Standard_HC44rs"

    def submit_setup(self, sku_name, script):
        op = super().submit_setup(sku_name, script)
        if sku_name != self.bad_sku:
            return op

        def fail() -> bool:
            op.finish()  # still completes the task and frees the node
            self._setup_done[pool_id_for(sku_name)] = False
            return False

        return AsyncOp(op.ready_at, fail)


class TestSetupFailurePoisonsSku:
    """Regression: a failed setup must fail the whole SKU group instead of
    running later scenarios of that SKU on an unprepared pool."""

    def test_scheduled_path_fails_whole_group(self):
        config = make_config(skus=THREE_SKUS[:2], nnodes=[1, 2])
        deployment = Deployer().deploy(config)
        backend = FailingSetupBackend(service=deployment.batch)
        collector = DataCollector(
            backend=backend, script=get_plugin(config.appname),
            dataset=Dataset(), taskdb=TaskDB(),
        )
        report = collector.collect(generate_scenarios(config))

        statuses = {
            (r.scenario.sku_name, r.scenario.nnodes): r
            for r in collector.taskdb.all()
        }
        for nnodes in (1, 2):
            record = statuses[(FailingSetupBackend.bad_sku, nnodes)]
            assert record.status is TaskStatus.FAILED
            assert "setup failed" in record.failure_reason
        assert report.failed == 2
        assert report.completed == 2  # the healthy SKU still ran
        assert any("setup failed" in f for f in report.failures)
        # No data point exists for the poisoned SKU.
        assert not any(
            p.sku == FailingSetupBackend.bad_sku for p in collector.dataset
        )
        # No compute task ever reached the poisoned pool.
        bad_pool = pool_id_for(FailingSetupBackend.bad_sku)
        bad_jobs = [j for j in deployment.batch.jobs.values()
                    if j.pool_id == bad_pool]
        for job in bad_jobs:
            kinds = [t.kind.value for t in job.tasks.values()]
            assert kinds == ["setup"]
