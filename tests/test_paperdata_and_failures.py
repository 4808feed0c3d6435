"""Paper-constant cross-checks, failure injection, and network properties."""

from dataclasses import dataclass

import pytest

from repro.appkit.plugins import get_plugin
from repro.backends.azurebatch import AzureBatchBackend
from repro.batch.service import BatchService
from repro.cloud.provider import CloudProvider
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.scenarios import Scenario
from repro.core.taskdb import TaskDB
from repro.errors import BackendError
from repro import paperdata


class TestPaperConstants:
    def test_listing4_costs_self_consistent(self):
        """Every Listing-4 cost equals n x $3.60/h x t to the cent —
        that is how the implied price was derived."""
        price = paperdata.IMPLIED_PRICES["Standard_HB120rs_v3"]
        for time_s, cost, nnodes, _sku in paperdata.PAPER_LISTING4:
            assert nnodes * price * time_s / 3600.0 == pytest.approx(
                cost, abs=0.001
            )

    def test_listing3_costs_self_consistent(self):
        full_names = {"hb120rs_v2": "Standard_HB120rs_v2",
                      "hb120rs_v3": "Standard_HB120rs_v3"}
        for time_s, cost, nnodes, sku_short in paperdata.PAPER_LISTING3:
            price = paperdata.IMPLIED_PRICES[full_names[sku_short]]
            assert nnodes * price * time_s / 3600.0 == pytest.approx(
                cost, abs=0.001
            )

    def test_core_math(self):
        assert max(paperdata.PAPER_SKU_CORES.values()) * 16 == \
            paperdata.PAPER_MAX_CORES

    def test_atom_math(self):
        assert paperdata.LAMMPS_PAPER_ATOMS == 864_000_000

    def test_align_rows(self, lammps_paper_dataset):
        rows = Advisor(lammps_paper_dataset).advise(appname="lammps")
        aligned = paperdata.align_rows(paperdata.PAPER_LISTING4, rows)
        assert len(aligned) == 4
        for row in aligned:
            assert row.time_error < 0.10
            assert row.cost_error < 0.10

    def test_align_rows_count_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            paperdata.align_rows(paperdata.PAPER_LISTING4, [])


@dataclass
class CrashingBackend(AzureBatchBackend):
    """A back-end whose control plane dies after N scenario submissions."""

    crash_after: int = 0
    ran: int = 0

    def submit_scenario(self, scenario, script, resume_from_s=0.0,
                        restart_overhead_s=0.0):
        if self.ran >= self.crash_after:
            raise BackendError("control plane unavailable")
        self.ran += 1
        return super().submit_scenario(scenario, script, resume_from_s,
                                       restart_overhead_s)


def crashing_backend(crash_after: int) -> CrashingBackend:
    provider = CloudProvider()
    service = BatchService(account_name="b", provider=provider,
                           subscription=provider.register_subscription("t"),
                           region="southcentralus")
    return CrashingBackend(service=service, crash_after=crash_after)


class TestBackendOutage:
    def scenarios(self, n):
        return [
            Scenario(scenario_id=f"t{i:03d}",
                     sku_name="Standard_HB120rs_v3", nnodes=1, ppn=120,
                     appname="lammps", appinputs={"BOXFACTOR": "4"})
            for i in range(n)
        ]

    def test_outage_propagates_but_progress_is_preserved(self):
        backend = crashing_backend(crash_after=2)
        collector = DataCollector(
            backend=backend,
            script=get_plugin("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
        )
        with pytest.raises(BackendError, match="control plane"):
            collector.collect(self.scenarios(5))
        # The two completed scenarios survive in the task DB and dataset,
        # so a resumed collect does not repeat them.
        assert collector.taskdb.counts()["completed"] == 2
        assert len(collector.dataset) == 2

    def test_resume_after_outage(self):
        scenarios = self.scenarios(4)
        dataset, taskdb = Dataset(), TaskDB()
        backend = crashing_backend(crash_after=2)
        collector = DataCollector(backend=backend,
                                  script=get_plugin("lammps"),
                                  dataset=dataset, taskdb=taskdb)
        with pytest.raises(BackendError):
            collector.collect(scenarios)
        # "Repair" the backend and resume the same sweep.  Same instance:
        # a second backend over the same service would restart the task
        # ids and collide with the first run's.
        backend.crash_after = 100
        resumed = DataCollector(backend=backend,
                                script=get_plugin("lammps"),
                                dataset=dataset, taskdb=taskdb)
        report = resumed.collect(scenarios)
        assert report.executed == 2  # only the remaining scenarios
        assert taskdb.counts()["completed"] == 4


class TestNetworkProperties:
    def test_allreduce_monotone_in_ranks(self):
        from repro.cluster.network import NetworkModel

        net = NetworkModel(latency_s=2e-6, bandwidth_Bps=25e9)
        values = [net.allreduce_time(1024.0, p) for p in (2, 8, 64, 1024)]
        assert values == sorted(values)

    def test_bcast_never_cheaper_than_ptp(self):
        from repro.cluster.network import NetworkModel

        net = NetworkModel(latency_s=2e-6, bandwidth_Bps=25e9)
        for size in (0, 1e3, 1e6):
            assert net.bcast_time(size, 16) >= net.ptp_time(size)

    def test_alltoall_dominates_bcast_at_scale(self):
        from repro.cluster.network import NetworkModel

        net = NetworkModel(latency_s=2e-6, bandwidth_Bps=25e9)
        assert net.alltoall_time(1e5, 64) > net.bcast_time(1e5, 64)
