"""Tests for the extension modules: retail prices API, reports, budgets,
dataset comparison."""

import pytest

from repro.cloud.retailprices import RetailPricesApi, catalog_from_api
from repro.core.compare import compare_datasets, render_comparison
from repro.core.dataset import DataPoint, Dataset
from repro.core.report import SkuAggregate, aggregate_by_sku, render_report
from repro.errors import CloudError, DatasetError, SamplingError
from repro.sampling.budget import BudgetedSampler
from repro.sampling.planner import SamplerPolicy, SmartSampler
from repro.core.scenarios import Scenario


class TestRetailPricesApi:
    def test_query_by_sku_and_region(self):
        api = RetailPricesApi()
        response = api.query(sku_name="Standard_HB120rs_v3",
                             region="southcentralus")
        assert response["Count"] == 1
        item = response["Items"][0]
        assert item["retailPrice"] == 3.60
        assert item["armRegionName"] == "southcentralus"
        assert item["serviceName"] == "Virtual Machines"

    def test_region_pricing_adjusted(self):
        api = RetailPricesApi()
        eu = api.query(sku_name="Standard_HB120rs_v2",
                       region="westeurope")["Items"][0]
        us = api.query(sku_name="Standard_HB120rs_v2",
                       region="southcentralus")["Items"][0]
        assert eu["retailPrice"] > us["retailPrice"]

    def test_sku_absent_from_region_not_listed(self):
        api = RetailPricesApi()
        response = api.query(sku_name="Standard_HB120rs_v3",
                             region="japaneast")
        assert response["Count"] == 0

    def test_max_price_filter(self):
        api = RetailPricesApi()
        items = api.query(region="southcentralus", max_price=3.2)["Items"]
        assert items
        assert all(i["retailPrice"] <= 3.2 for i in items)

    def test_pagination_walks_all_items(self):
        api = RetailPricesApi(page_size=3)
        first = api.query()
        assert first["Count"] == 3
        assert "NextPageLink" in first
        everything = api.query_all()
        assert len(everything) > 3
        # No duplicates across pages.
        keys = [(i["armSkuName"], i["armRegionName"]) for i in everything]
        assert len(set(keys)) == len(keys)

    def test_invalid_page(self):
        with pytest.raises(CloudError):
            RetailPricesApi().query(page=-1)

    def test_catalog_from_api_matches_defaults(self):
        api = RetailPricesApi()
        catalog = catalog_from_api(api, "southcentralus")
        assert catalog.hourly_price("Standard_HB120rs_v3") == 3.60
        assert catalog.task_cost("Standard_HB120rs_v3", 16, 36) == \
            pytest.approx(0.576)

    def test_catalog_from_api_unknown_region(self):
        with pytest.raises(CloudError):
            catalog_from_api(RetailPricesApi(), "atlantis")


def dp(sku="Standard_HB120rs_v3", nnodes=2, t=100.0, c=0.2, **kw):
    defaults = dict(appname="lammps", appinputs={"BOXFACTOR": "30"})
    defaults.update(kw)
    return DataPoint(sku=sku, nnodes=nnodes, ppn=120, exec_time_s=t,
                     cost_usd=c, **defaults)


def per_point_aggregates(points):
    """The per-point rollup ``aggregate_by_sku`` must reproduce."""
    groups = {}
    for point in points:
        groups.setdefault(point.sku, []).append(point)
    out = []
    for sku, group in sorted(groups.items()):
        best = min(group, key=lambda p: p.exec_time_s)
        out.append(SkuAggregate(
            sku=sku, scenarios=len(group),
            total_time_s=sum(p.exec_time_s for p in group),
            total_cost_usd=sum(p.cost_usd for p in group),
            best_time_s=best.exec_time_s, best_nodes=best.nnodes))
    return out


class TestReport:
    def make_report(self):
        from repro.core.collector import CollectionReport

        return CollectionReport(
            executed=4, completed=3, failed=1, skipped=2, predicted=1,
            task_cost_usd=12.34, infrastructure_cost_usd=20.0,
            provisioning_overhead_s=600.0,
            failures=["t00003: out of memory"],
        )

    def make_dataset(self):
        return Dataset([
            dp(nnodes=2, t=200, c=0.4),
            dp(nnodes=4, t=110, c=0.44),
            dp(sku="Standard_HC44rs", nnodes=4, t=500, c=1.76),
        ])

    def test_aggregate_by_sku(self):
        aggs = aggregate_by_sku(self.make_dataset())
        assert [a.sku for a in aggs] == ["Standard_HB120rs_v3",
                                         "Standard_HC44rs"]
        v3 = aggs[0]
        assert v3.scenarios == 2
        assert v3.best_time_s == 110
        assert v3.best_nodes == 4
        assert v3.total_cost_usd == pytest.approx(0.84)

    def test_render_contains_key_facts(self):
        text = render_report(self.make_report(), self.make_dataset())
        assert "3 completed" in text
        assert "1 failed" in text
        assert "$12.3400 on tasks" in text
        assert "out of memory" in text
        assert "Standard_HC44rs" in text
        assert "overhead" in text

    def test_a_snapshot_reports_its_points_bytes(self, tmp_path):
        """Ties, two spellings of one SKU and predicted rows: a stored
        corpus's snapshot rolls up as its points do, byte for byte."""
        from repro.api import AdvisorSession
        from tests.conftest import make_config

        session = AdvisorSession(state_dir=str(tmp_path))
        name = session.deploy(make_config()).name
        session.data_store(name).append_points([
            dp(nnodes=2, t=200.0, c=0.1),
            dp(nnodes=4, t=110.0, c=0.2),
            dp(nnodes=8, t=110.0, c=0.3),  # ties the 4-node run
            dp(sku="standard_hb120rs_v3", nnodes=1, t=390.0, c=0.7),
            dp(sku="Standard_HC44rs", nnodes=4, t=0.3, c=1.76,
               predicted=True),
            dp(sku="Standard_HC44rs", nnodes=2, t=0.1 + 0.2, c=0.1),
            dp(sku="Standard_HC44rs", nnodes=1, t=0.3, c=0.2,
               predicted=True),
        ])
        dataset, snapshot = session.dataset(name), session.snapshot(name)
        aggregates = aggregate_by_sku(snapshot)
        assert aggregates == per_point_aggregates(dataset)
        assert [(a.sku, a.best_nodes) for a in aggregates] == [
            ("Standard_HB120rs_v3", 4), ("Standard_HC44rs", 4),
            ("standard_hb120rs_v3", 1)]
        assert (render_report(self.make_report(), snapshot)
                == render_report(self.make_report(), dataset))

    def test_render_with_pending_tasks(self):
        from repro.core.taskdb import TaskDB

        db = TaskDB()
        db.add_scenarios([Scenario(
            scenario_id="t99999", sku_name="Standard_HC44rs", nnodes=1,
            ppn=44, appname="lammps",
        )])
        text = render_report(self.make_report(), self.make_dataset(),
                             taskdb=db)
        assert "t99999" in text


class TestBudgetedSampler:
    def make(self, budget):
        inner = SmartSampler(
            hourly_prices={"Standard_HB120rs_v3": 3.6},
            policy=SamplerPolicy(enable_discard=False, enable_predict=False,
                                 enable_bottleneck=False),
        )
        return BudgetedSampler(inner=inner, budget_usd=budget)

    def scen(self, nnodes, sid=None):
        return Scenario(scenario_id=sid or f"t{nnodes}",
                        sku_name="Standard_HB120rs_v3", nnodes=nnodes,
                        ppn=120, appname="lammps",
                        appinputs={"BOXFACTOR": "30"})

    def test_validation(self):
        with pytest.raises(SamplingError):
            self.make(budget=0)
        with pytest.raises(SamplingError):
            BudgetedSampler(
                inner=SmartSampler(hourly_prices={}), budget_usd=1,
                reserve_fraction=1.0,
            )

    def test_first_probe_always_runs(self):
        sampler = self.make(budget=0.10)
        assert sampler.decide(self.scen(2)).action == "run"

    def test_skips_when_estimate_exceeds_budget(self):
        sampler = self.make(budget=0.60)
        # First measurement: 2 nodes, 250s -> $0.50 spent.
        sampler.observe(dp(nnodes=2, t=250.0, c=0.50))
        # Next scenario estimated ~ same node-seconds -> ~$0.50 > $0.07 left.
        decision = sampler.decide(self.scen(4))
        assert decision.action == "skip"
        assert "over budget" in decision.reason
        assert sampler.skipped_over_budget == 1

    def test_runs_within_budget(self):
        sampler = self.make(budget=10.0)
        sampler.observe(dp(nnodes=2, t=250.0, c=0.50))
        assert sampler.decide(self.scen(4)).action == "run"

    def test_spend_tracked(self):
        sampler = self.make(budget=5.0)
        sampler.observe(dp(nnodes=2, t=250.0, c=0.50))
        sampler.observe(dp(nnodes=4, t=130.0, c=0.52))
        assert sampler.spent_usd == pytest.approx(1.02)
        assert sampler.remaining_usd == pytest.approx(5.0 * 0.95 - 1.02)

    def test_end_to_end_budget_respected(self):
        from repro.api.registry import apps
        from repro.backends.azurebatch import AzureBatchBackend
        from repro.core.collector import DataCollector
        from repro.core.deployer import Deployer
        from repro.core.scenarios import generate_scenarios
        from repro.core.taskdb import TaskDB
        from tests.conftest import make_config

        config = make_config(nnodes=[2, 3, 4, 8, 16],
                             appinputs={"BOXFACTOR": ["30"]})
        deployment = Deployer().deploy(config)
        scenarios = generate_scenarios(config)
        inner = SmartSampler.for_scenarios(
            scenarios, {"Standard_HB120rs_v3": 3.6},
            policy=SamplerPolicy(enable_discard=False, enable_predict=False,
                                 enable_bottleneck=False),
        )
        budget = 1.10  # enough for roughly two of the ~$0.52 scenarios
        sampler = BudgetedSampler(inner=inner, budget_usd=budget)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
            sampler=sampler,
        )
        report = collector.collect(scenarios)
        assert sampler.spent_usd <= budget
        assert report.skipped >= 1
        assert report.completed >= 1


class TestCompareDatasets:
    def test_matched_rows_and_ratios(self):
        a = Dataset([dp(nnodes=2, t=100, c=0.2), dp(nnodes=4, t=60, c=0.24)])
        b = Dataset([dp(nnodes=2, t=80, c=0.16), dp(nnodes=8, t=30, c=0.24)])
        comparison = compare_datasets(a, b)
        assert comparison.matched == 1
        row = comparison.rows[0]
        assert row.time_ratio == pytest.approx(0.8)
        assert comparison.only_in_a == [
            ("lammps", "Standard_HB120rs_v3", 4, 120, "BOXFACTOR=30")
        ]
        assert len(comparison.only_in_b) == 1

    def test_geomean(self):
        a = Dataset([dp(nnodes=2, t=100), dp(nnodes=4, t=100)])
        b = Dataset([dp(nnodes=2, t=50), dp(nnodes=4, t=200)])
        comparison = compare_datasets(a, b)
        assert comparison.geomean_time_ratio == pytest.approx(1.0)

    def test_geomean_empty_raises(self):
        comparison = compare_datasets(Dataset(), Dataset())
        with pytest.raises(DatasetError):
            comparison.geomean_time_ratio

    def test_regressions_and_improvements(self):
        a = Dataset([dp(nnodes=2, t=100), dp(nnodes=4, t=100)])
        b = Dataset([dp(nnodes=2, t=150), dp(nnodes=4, t=50)])
        comparison = compare_datasets(a, b)
        assert len(comparison.regressions()) == 1
        assert len(comparison.improvements()) == 1

    def test_render(self):
        a = Dataset([dp(nnodes=2, t=100)])
        b = Dataset([dp(nnodes=2, t=80)])
        text = render_comparison(compare_datasets(a, b), "v1", "v2")
        assert "matched scenarios: 1" in text
        assert "0.800" in text
