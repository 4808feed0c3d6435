"""Cross-module integration tests beyond the paper artefacts."""

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.backends.slurm import SlurmBackend
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB
from repro.slurmsim.cluster import SlurmCluster
from tests.conftest import make_config


def collect(config, backend_kind="azurebatch", **collector_kwargs):
    deployment = Deployer().deploy(config)
    if backend_kind == "azurebatch":
        backend = AzureBatchBackend(service=deployment.batch)
    else:
        cluster = SlurmCluster(
            provider=deployment.provider,
            subscription=deployment.provider.get_subscription(
                config.subscription
            ),
            region=config.region,
        )
        backend = SlurmBackend(cluster=cluster)
    collector = DataCollector(
        backend=backend,
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        **collector_kwargs,
    )
    report = collector.collect(generate_scenarios(config))
    return report, collector.dataset, deployment


class TestMultiInputSweeps:
    def test_two_meshes_two_fronts(self):
        """Listing 1 sweeps two meshes; advice must be filterable per mesh."""
        config = make_config(
            appname="openfoam",
            nnodes=[2, 4],
            appinputs={"mesh": ["40 16 16", "20 8 8"]},
        )
        report, dataset, _ = collect(config)
        assert report.completed == 4
        big = Advisor(dataset).advise(appinputs={"mesh": "40 16 16"})
        small = Advisor(dataset).advise(appinputs={"mesh": "20 8 8"})
        # The smaller mesh runs strictly faster at equal shape.
        assert min(r.exec_time_s for r in small) < min(
            r.exec_time_s for r in big
        )

    def test_bigger_input_costs_more(self):
        config = make_config(
            nnodes=[2], appinputs={"BOXFACTOR": ["5", "10"]}
        )
        _, dataset, _ = collect(config)
        by_bf = {p.appinputs["BOXFACTOR"]: p for p in dataset}
        assert by_bf["10"].exec_time_s > by_bf["5"].exec_time_s
        assert by_bf["10"].cost_usd > by_bf["5"].cost_usd


class TestBackendEquivalence:
    def test_same_dataset_on_both_backends(self):
        config = make_config(nnodes=[1, 2])
        _, batch_data, _ = collect(config, "azurebatch")
        _, slurm_data, _ = collect(config, "slurm")
        batch_points = {(p.sku, p.nnodes): p.exec_time_s for p in batch_data}
        slurm_points = {(p.sku, p.nnodes): p.exec_time_s for p in slurm_data}
        assert batch_points.keys() == slurm_points.keys()
        for key in batch_points:
            assert batch_points[key] == pytest.approx(slurm_points[key])


class TestPprBehaviour:
    def test_half_ppr_slower_for_cpu_bound_app(self):
        full, full_data, _ = collect(make_config(nnodes=[2], ppr=100))
        half, half_data, _ = collect(make_config(nnodes=[2], ppr=50))
        assert half_data.points()[0].ppn == 60
        assert half_data.points()[0].exec_time_s > \
            full_data.points()[0].exec_time_s


class TestQuotaFailures:
    def test_quota_exhaustion_fails_scenarios_gracefully(self):
        config = make_config(nnodes=[2, 40])  # 40*120 = 4800 > 4000 quota
        deployment = Deployer().deploy(config)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
        )
        from repro.errors import QuotaExceeded

        with pytest.raises(QuotaExceeded):
            collector.collect(generate_scenarios(config))


class TestCostAccounting:
    def test_infra_cost_includes_boot_overhead(self):
        report, _, _ = collect(make_config(nnodes=[1, 2]))
        assert report.infrastructure_cost_usd > report.task_cost_usd
        assert report.provisioning_overhead_s > 0

    def test_deployment_teardown_after_collection(self):
        config = make_config(nnodes=[1])
        report, _, deployment = collect(config)
        deployer = Deployer(provider=deployment.provider)
        deployer.shutdown(deployment)
        assert deployment.batch.list_pools() == []


class TestNoiseIntegration:
    def test_noise_changes_times_but_is_reproducible(self):
        from repro.perf.noise import NoiseModel

        config = make_config(nnodes=[2])

        def run(seed):
            deployment = Deployer().deploy(config)
            collector = DataCollector(
                backend=AzureBatchBackend(
                    service=deployment.batch,
                    noise=NoiseModel(sigma=0.05, seed=seed),
                ),
                script=apps.create("lammps"),
                dataset=Dataset(),
                taskdb=TaskDB(),
            )
            collector.collect(generate_scenarios(config))
            return collector.dataset.points()[0].exec_time_s

        assert run(seed=1) == run(seed=1)
        assert run(seed=1) != run(seed=2)
