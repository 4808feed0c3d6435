"""Deeper cross-module integration: more apps, quota families, payoff."""

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.payoff import (
    PayoffAnalysis,
    payoff_vs_worst_front_row,
    render_payoff,
)
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB
from repro.errors import AdvisorError
from tests.conftest import make_config


def sweep(config):
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch),
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
    )
    report = collector.collect(generate_scenarios(config))
    return report, collector.dataset


class TestWrfEndToEnd:
    def test_resolution_sweep(self):
        config = make_config(
            appname="wrf",
            nnodes=[2, 4, 8],
            appinputs={"RESOLUTION": ["12", "6"]},
        )
        report, dataset = sweep(config)
        assert report.completed == 6
        # Finer resolution = much more work at the same shape.
        coarse = dataset.filter(appinputs={"RESOLUTION": "12"}, nnodes=[4])
        fine = dataset.filter(appinputs={"RESOLUTION": "6"}, nnodes=[4])
        assert fine.points()[0].exec_time_s > \
            4 * coarse.points()[0].exec_time_s

    def test_wrf_metrics_in_dataset(self):
        config = make_config(appname="wrf", nnodes=[2],
                             appinputs={"RESOLUTION": ["12"]})
        _, dataset = sweep(config)
        vars_ = dataset.points()[0].app_vars
        assert "WRFGRIDPOINTS" in vars_
        assert "APPEXECTIME" in vars_


class TestNamdEndToEnd:
    def test_stmv_sweep_and_advice(self):
        config = make_config(
            appname="namd",
            skus=["Standard_HB120rs_v3", "Standard_HC44rs"],
            nnodes=[1, 2, 4],
            appinputs={"ATOMS": ["1060000"]},
        )
        report, dataset = sweep(config)
        assert report.failed == 0
        rows = Advisor(dataset).advise(appname="namd")
        assert rows
        assert rows[0].sku_short == "hb120rs_v3"


class TestLowQuotaFamilies:
    def test_hb176_quota_blocks_third_node(self):
        """standardHBrsv4Family defaults to 352 cores = 2x176 nodes."""
        from repro.errors import QuotaExceeded

        config = make_config(
            skus=["Standard_HB176rs_v4"],
            nnodes=[1, 2, 3],
            appinputs={"BOXFACTOR": ["10"]},
        )
        deployment = Deployer().deploy(config)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
        )
        with pytest.raises(QuotaExceeded):
            collector.collect(generate_scenarios(config))
        # The two in-quota scenarios completed before the failure.
        assert collector.taskdb.counts()["completed"] == 2

    def test_raising_quota_unblocks(self):
        config = make_config(
            skus=["Standard_HB176rs_v4"],
            nnodes=[1, 2, 3],
            appinputs={"BOXFACTOR": ["10"]},
        )
        deployment = Deployer().deploy(config)
        sub = deployment.provider.get_subscription(config.subscription)
        sub.quota.set_limit("southcentralus", "standardHBrsv4Family", 1000)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
        )
        report = collector.collect(generate_scenarios(config))
        assert report.completed == 3


class TestRegionalDeployments:
    def test_westeurope_costs_more(self):
        base = make_config(nnodes=[2])
        eu = make_config(nnodes=[2], region="westeurope")
        _, us_data = sweep(base)
        _, eu_data = sweep(eu)
        us_cost = us_data.points()[0].cost_usd
        eu_cost = eu_data.points()[0].cost_usd
        assert eu_cost == pytest.approx(us_cost * 1.09, rel=0.01)


class TestPayoff:
    def test_breakeven_math(self):
        analysis = PayoffAnalysis(
            collection_cost_usd=17.0,
            baseline_cost_per_run_usd=0.576,
            advised_cost_per_run_usd=0.519,
        )
        # $0.057 saved per run -> 299 runs to recoup $17.
        assert analysis.breakeven_runs == 299
        assert analysis.net_saving_after(299) >= 0
        assert analysis.net_saving_after(298) < 0

    def test_no_payoff_when_no_saving(self):
        analysis = PayoffAnalysis(
            collection_cost_usd=10.0,
            baseline_cost_per_run_usd=0.5,
            advised_cost_per_run_usd=0.5,
        )
        assert analysis.breakeven_runs is None
        assert "never pays off" in render_payoff(analysis)

    def test_validation(self):
        with pytest.raises(AdvisorError):
            PayoffAnalysis(-1, 1, 1)
        with pytest.raises(AdvisorError):
            PayoffAnalysis(1, 0, 1)
        with pytest.raises(AdvisorError):
            PayoffAnalysis(1, 1, 1).net_saving_after(-1)

    def test_payoff_from_real_sweep(self):
        """End to end: the Listing-4 sweep pays off within ~300 LJ runs."""
        config = make_config(
            skus=["Standard_HC44rs", "Standard_HB120rs_v2",
                  "Standard_HB120rs_v3"],
            nnodes=[3, 4, 8, 16],
            appinputs={"BOXFACTOR": ["30"]},
        )
        report, dataset = sweep(config)
        rows = Advisor(dataset).advise(appname="lammps")
        analysis = payoff_vs_worst_front_row(report.task_cost_usd, rows)
        assert analysis.breakeven_runs is not None
        assert 100 < analysis.breakeven_runs < 1000
        text = render_payoff(analysis)
        assert "break-even" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(AdvisorError):
            payoff_vs_worst_front_row(1.0, [])
