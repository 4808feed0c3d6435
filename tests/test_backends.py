"""Back-end adapter tests, including Azure-Batch/Slurm parity.

The back-end API is split-phase; these tests wait each op out with
:func:`~repro.backends.base.drive`, one op at a time.
"""

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend, pool_id_for
from repro.backends.base import AsyncOp, ExecutionBackend, drive
from repro.backends.slurm import SlurmBackend, partition_for
from repro.clock import SimClock
from repro.batch.service import BatchService
from repro.cloud.provider import CloudProvider
from repro.core.scenarios import Scenario
from repro.slurmsim.cluster import SlurmCluster


def make_batch_backend():
    provider = CloudProvider()
    sub = provider.register_subscription("test")
    service = BatchService(account_name="b", provider=provider,
                           subscription=sub, region="southcentralus")
    return AzureBatchBackend(service=service)


def make_slurm_backend():
    provider = CloudProvider()
    sub = provider.register_subscription("test")
    cluster = SlurmCluster(provider=provider, subscription=sub,
                           region="southcentralus")
    return SlurmBackend(cluster=cluster)


def scenario(nnodes=2, sku="Standard_HB120rs_v3", bf="10", sid="t00001"):
    return Scenario(
        scenario_id=sid, sku_name=sku, nnodes=nnodes, ppn=120,
        appname="lammps", appinputs={"BOXFACTOR": bf},
    )


def drive_setup(backend, sku_name, script):
    """Boot one node and run the application setup on it."""
    drive(backend.clock, backend.submit_provision(sku_name, 1))
    return drive(backend.clock, backend.submit_setup(sku_name, script))


def drive_scenario(backend, scenario, script):
    """Grow the pool to the scenario's size and run it."""
    drive(backend.clock,
          backend.submit_provision(scenario.sku_name, scenario.nnodes))
    return drive(backend.clock, backend.submit_scenario(scenario, script))


class TestProtocol:
    def test_abstract_api_is_split_phase(self):
        assert ExecutionBackend.__abstractmethods__ == {
            "name", "clock", "submit_provision", "submit_setup",
            "submit_scenario", "release_capacity", "teardown",
            "provisioning_overhead_s", "total_infrastructure_cost_usd",
        }

    def test_drive_advances_to_ready_and_finishes(self):
        clock = SimClock(now=5.0)
        assert drive(clock, AsyncOp(12.5, lambda: "done")) == "done"
        assert clock.now == 12.5
        # An op that is already due leaves the clock where it is.
        assert drive(clock, AsyncOp(3.0, lambda: None)) is None
        assert clock.now == 12.5


class TestNaming:
    def test_pool_id(self):
        assert pool_id_for("Standard_HB120rs_v3") == "pool-hb120rs_v3"

    def test_partition(self):
        assert partition_for("Standard_HB120rs_v3") == "part-hb120rs_v3"


@pytest.mark.parametrize("factory", [make_batch_backend, make_slurm_backend],
                         ids=["azurebatch", "slurm"])
class TestBackendContract:
    def test_setup_then_scenario(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        assert drive_setup(backend, "Standard_HB120rs_v3", plugin)
        result = drive_scenario(backend, scenario(), plugin)
        assert result.succeeded
        assert result.exec_time_s > 0
        assert result.cost_usd > 0
        assert result.app_vars["LAMMPSSTEPS"] == "100"

    def test_setup_runs_once_per_vmtype(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        assert drive_setup(backend, "Standard_HB120rs_v3", plugin)
        # Second call must be a cheap no-op returning cached success.
        assert not backend.needs_setup("Standard_HB120rs_v3")
        before = backend.provisioning_overhead_s
        assert drive_setup(backend, "Standard_HB120rs_v3", plugin)
        assert backend.provisioning_overhead_s == before

    def test_failure_reported_not_raised(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        result = drive_scenario(
            backend, scenario(nnodes=1, bf="60"), plugin  # OOM on one node
        )
        assert not result.succeeded
        assert "out of memory" in result.failure_reason

    def test_cost_formula(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        result = drive_scenario(backend, scenario(nnodes=2), plugin)
        expected = 2 * 3.60 * result.exec_time_s / 3600.0
        assert result.cost_usd == pytest.approx(expected)

    def test_infrastructure_cost_accrues(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        drive_scenario(backend, scenario(), plugin)
        assert backend.total_infrastructure_cost_usd > 0

    def test_release_capacity(self, factory):
        backend = factory()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        drive_scenario(backend, scenario(), plugin)
        backend.release_capacity("Standard_HB120rs_v3", delete=False)
        backend.teardown()  # must not raise


class TestBackendParity:
    """Both back-ends must measure the same physics."""

    def test_exec_times_identical(self):
        plugin = apps.create("lammps")
        results = {}
        for name, factory in [("batch", make_batch_backend),
                              ("slurm", make_slurm_backend)]:
            backend = factory()
            drive_setup(backend, "Standard_HB120rs_v3", plugin)
            results[name] = drive_scenario(backend, scenario(), plugin)
        assert results["batch"].exec_time_s == pytest.approx(
            results["slurm"].exec_time_s
        )
        assert results["batch"].cost_usd == pytest.approx(
            results["slurm"].cost_usd
        )
        assert results["batch"].app_vars == results["slurm"].app_vars


class TestAzureBatchSpecifics:
    def test_pool_reused_across_scenarios(self):
        backend = make_batch_backend()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        drive_scenario(backend, scenario(nnodes=1, sid="t1"), plugin)
        drive_scenario(backend, scenario(nnodes=2, sid="t2"), plugin)
        pools = backend.service.list_pools()
        assert len(pools) == 1
        assert pools[0].current_nodes == 2  # grew, never recreated

    def test_delete_semantics(self):
        backend = make_batch_backend()
        plugin = apps.create("lammps")
        drive_setup(backend, "Standard_HB120rs_v3", plugin)
        backend.release_capacity("Standard_HB120rs_v3", delete=True)
        assert not backend.service.list_pools()
