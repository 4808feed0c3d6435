"""Algorithm-1 collector tests."""

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend, pool_id_for
from repro.core.collector import DataCollector, SamplingDecision
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB, TaskStatus
from tests.conftest import make_config


def build(config, **kwargs):
    deployment = Deployer().deploy(config)
    backend = AzureBatchBackend(service=deployment.batch)
    collector = DataCollector(
        backend=backend,
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        deployment_name=deployment.name,
        **kwargs,
    )
    return collector, deployment


class TestBasicSweep:
    def test_all_tasks_completed(self):
        config = make_config(nnodes=[1, 2], appinputs={"BOXFACTOR": ["4", "6"]})
        collector, _ = build(config)
        report = collector.collect(generate_scenarios(config))
        assert report.executed == 4
        assert report.completed == 4
        assert report.failed == 0
        assert len(collector.dataset) == 4
        assert collector.taskdb.counts()["completed"] == 4

    def test_empty_scenarios(self):
        config = make_config()
        collector, _ = build(config)
        report = collector.collect([])
        assert report.total_tasks == 0

    def test_dataset_points_carry_everything(self):
        config = make_config(nnodes=[2])
        collector, deployment = build(config)
        collector.collect(generate_scenarios(config))
        point = collector.dataset.points()[0]
        assert point.appname == "lammps"
        assert point.nnodes == 2
        assert point.exec_time_s > 0
        assert point.cost_usd > 0
        assert point.app_vars["LAMMPSSTEPS"] == "100"
        assert point.infra_metrics  # bottleneck data recorded
        assert point.deployment == deployment.name
        assert point.tags == {"version": "test"}


class TestAlgorithm1PoolManagement:
    def test_one_pool_per_vmtype(self):
        config = make_config(
            skus=["Standard_HB120rs_v3", "Standard_HC44rs"], nnodes=[1, 2]
        )
        collector, deployment = build(config)
        collector.collect(generate_scenarios(config))
        pools = deployment.batch.list_pools(include_deleted=True)
        assert {p.pool_id for p in pools} == {
            pool_id_for("Standard_HB120rs_v3"), pool_id_for("Standard_HC44rs")
        }

    def test_pools_resized_to_zero_on_switch(self):
        """Algorithm 1 line 5: 'resize pool to zero or delete pool'."""
        config = make_config(
            skus=["Standard_HB120rs_v3", "Standard_HC44rs"], nnodes=[1, 2]
        )
        collector, deployment = build(config)
        collector.collect(generate_scenarios(config))
        for pool in deployment.batch.list_pools():
            assert pool.current_nodes == 0

    def test_delete_pool_mode(self):
        config = make_config(nnodes=[1, 2])
        collector, deployment = build(config, delete_pool_on_switch=True)
        collector.collect(generate_scenarios(config))
        assert deployment.batch.list_pools() == []

    def test_pool_grows_monotonically_within_sku(self):
        config = make_config(nnodes=[4, 1, 2])
        collector, deployment = build(config)
        collector.collect(generate_scenarios(config))
        pool = deployment.batch.list_pools(include_deleted=True)[0]
        # Ascending execution order means exactly one resize per new size
        # plus the final resize to zero.
        assert pool.resize_count == 4

    def test_setup_task_once_per_vmtype(self):
        config = make_config(nnodes=[1, 2])
        collector, deployment = build(config)
        collector.collect(generate_scenarios(config))
        setup_tasks = [
            t for job in deployment.batch.jobs.values()
            for t in job.tasks.values() if t.kind.value == "setup"
        ]
        assert len(setup_tasks) == 1


class TestFailureHandling:
    def test_oom_marks_failed_and_continues(self):
        # bf=60 OOMs on 1 node but fits on 16.
        config = make_config(nnodes=[1, 16], appinputs={"BOXFACTOR": ["60"]})
        collector, _ = build(config)
        report = collector.collect(generate_scenarios(config))
        assert report.failed == 1
        assert report.completed == 1
        assert len(report.failures) == 1
        assert "out of memory" in report.failures[0]
        statuses = {r.scenario.nnodes: r.status for r in collector.taskdb.all()}
        assert statuses[1] is TaskStatus.FAILED
        assert statuses[16] is TaskStatus.COMPLETED

    def test_stop_on_failure(self):
        config = make_config(nnodes=[1, 16], appinputs={"BOXFACTOR": ["60"]})
        collector, _ = build(config, stop_on_failure=True)
        report = collector.collect(generate_scenarios(config))
        assert report.executed == 1
        assert collector.taskdb.counts()["pending"] == 1


class TestResume:
    def test_resume_skips_done_tasks(self):
        config = make_config(nnodes=[1, 2])
        collector, _ = build(config)
        scenarios = generate_scenarios(config)
        first = collector.collect(scenarios)
        assert first.executed == 2
        second = collector.collect(scenarios)
        assert second.executed == 0
        assert len(collector.dataset) == 2


class TestSamplerIntegration:
    class SkipAllSampler:
        def decide(self, scenario):
            return SamplingDecision(action="skip", reason="test")

        def observe(self, point):
            pass

    class PredictSampler:
        def decide(self, scenario):
            if scenario.nnodes > 1:
                return SamplingDecision(
                    action="predict", predicted_time_s=10.0,
                    predicted_cost_usd=0.01,
                )
            return SamplingDecision(action="run")

        def observe(self, point):
            self.seen = getattr(self, "seen", 0) + 1

    def test_skip_all(self):
        config = make_config(nnodes=[1, 2])
        collector, _ = build(config, sampler=self.SkipAllSampler())
        report = collector.collect(generate_scenarios(config))
        assert report.skipped == 2
        assert report.executed == 0
        assert all(r.skipped_by_sampler for r in collector.taskdb.all())

    def test_predictions_stored_marked(self):
        config = make_config(nnodes=[1, 2])
        sampler = self.PredictSampler()
        collector, _ = build(config, sampler=sampler)
        report = collector.collect(generate_scenarios(config))
        assert report.predicted == 1
        assert report.executed == 1
        predicted = [p for p in collector.dataset if p.predicted]
        assert len(predicted) == 1
        assert predicted[0].exec_time_s == 10.0
        # Only measured points are fed back to the sampler.
        assert sampler.seen == 1

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            SamplingDecision(action="maybe")
        with pytest.raises(ValueError):
            SamplingDecision(action="predict")


class TestPersistence:
    def test_saves_when_paths_set(self, tmp_path):
        config = make_config(nnodes=[1])
        deployment = Deployer().deploy(config)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(path=str(tmp_path / "d.jsonl")),
            taskdb=TaskDB(path=str(tmp_path / "t.json")),
        )
        collector.collect(generate_scenarios(config))
        assert Dataset.load(str(tmp_path / "d.jsonl")).points()
        assert TaskDB.load(str(tmp_path / "t.json")).counts()["completed"] == 1
