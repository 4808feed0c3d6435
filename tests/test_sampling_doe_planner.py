"""DoE ordering and SmartSampler tests."""

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import Scenario, generate_scenarios
from repro.core.taskdb import TaskDB
from repro.errors import SamplingError
from repro.sampling.doe import cheapest_first, extremes_first, lhs_subset
from repro.sampling.planner import SamplerPolicy, SmartSampler
from tests.conftest import make_config


def scen(sku, nnodes, sid=None, inputs=None):
    return Scenario(
        scenario_id=sid or f"{sku}-{nnodes}",
        sku_name=sku, nnodes=nnodes, ppn=8, appname="lammps",
        appinputs=inputs or {"BOXFACTOR": "10"},
    )


GRID = [scen(sku, n) for sku in ("Standard_HB120rs_v3", "Standard_HC44rs")
        for n in (1, 2, 4, 8, 16)]


class TestOrderings:
    def test_cheapest_first_sorted_by_rate(self):
        prices = {"Standard_HB120rs_v3": 3.6, "Standard_HC44rs": 3.168}
        ordered = cheapest_first(GRID, prices)
        rates = [prices[s.sku_name] * s.nnodes for s in ordered]
        assert rates == sorted(rates)

    def test_cheapest_first_missing_price(self):
        with pytest.raises(SamplingError):
            cheapest_first(GRID, {})

    def test_extremes_first_brackets_each_sku(self):
        ordered = extremes_first(GRID)
        v3 = [s.nnodes for s in ordered
              if s.sku_name == "Standard_HB120rs_v3"]
        # Endpoints measured before any interior point.
        assert set(v3[:2]) == {1, 16}
        assert sorted(v3) == [1, 2, 4, 8, 16]

    def test_extremes_first_preserves_population(self):
        ordered = extremes_first(GRID)
        assert sorted(s.scenario_id for s in ordered) == \
            sorted(s.scenario_id for s in GRID)

    def test_lhs_subset_size_and_uniqueness(self):
        subset = lhs_subset(GRID, budget=5, seed=1)
        assert len(subset) == 5
        assert len({s.scenario_id for s in subset}) == 5

    def test_lhs_budget_geq_population(self):
        assert lhs_subset(GRID, budget=100) == list(GRID)

    def test_lhs_invalid_budget(self):
        with pytest.raises(SamplingError):
            lhs_subset(GRID, budget=0)

    def test_lhs_deterministic_per_seed(self):
        a = [s.scenario_id for s in lhs_subset(GRID, 4, seed=3)]
        b = [s.scenario_id for s in lhs_subset(GRID, 4, seed=3)]
        assert a == b


class TestSamplerPolicy:
    def test_validation(self):
        with pytest.raises(SamplingError):
            SamplerPolicy(probe_runs=2)
        with pytest.raises(SamplingError):
            SamplerPolicy(min_r_squared=1.5)


class TestSmartSamplerEndToEnd:
    """The headline property: fewer executions, same Pareto front."""

    def sweep(self, smart: bool):
        config = make_config(
            skus=["Standard_HC44rs", "Standard_HB120rs_v2",
                  "Standard_HB120rs_v3"],
            nnodes=[2, 3, 4, 6, 8, 12, 16],
            appinputs={"BOXFACTOR": ["30"]},
        )
        deployment = Deployer().deploy(config)
        scenarios = generate_scenarios(config)
        sampler = None
        if smart:
            prices = {
                s: deployment.provider.prices.hourly_price(s, config.region)
                for s in config.skus
            }
            sampler = SmartSampler.for_scenarios(scenarios, prices)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
            sampler=sampler,
        )
        report = collector.collect(scenarios)
        return report, collector.dataset

    def test_sampler_reduces_executions(self):
        full_report, _ = self.sweep(smart=False)
        smart_report, _ = self.sweep(smart=True)
        assert smart_report.executed < full_report.executed
        assert smart_report.skipped + smart_report.predicted > 0

    def test_sampler_saves_cost(self):
        full_report, _ = self.sweep(smart=False)
        smart_report, _ = self.sweep(smart=True)
        assert smart_report.task_cost_usd < full_report.task_cost_usd

    def test_front_covered_within_tolerance(self):
        """The smart front must 1.1-cover the full front: for every true
        front member there is a smart-front point no more than 10% worse in
        both objectives.  (Exact membership is too strict: the paper accepts
        prediction error — 'our aim is not to determine the exact execution
        times and costs for all scenarios, but to generate a Pareto front'.)
        """
        _, full_data = self.sweep(smart=False)
        _, smart_data = self.sweep(smart=True)
        full_rows = Advisor(full_data).advise()
        smart_rows = Advisor(smart_data).advise()
        for row in full_rows:
            assert any(
                s.exec_time_s <= row.exec_time_s * 1.10
                and s.cost_usd <= row.cost_usd * 1.10
                for s in smart_rows
            ), f"front member not covered: {row}"

    def test_every_point_estimated_accurately(self):
        """Each scenario in the grid must have an estimate (measured or
        predicted) within 10% of the true measured value."""
        _, full_data = self.sweep(smart=False)
        _, smart_data = self.sweep(smart=True)
        truth = {(p.sku, p.nnodes): p.exec_time_s for p in full_data}
        estimates = {(p.sku, p.nnodes): p.exec_time_s for p in smart_data}
        for key, est in estimates.items():
            assert est == pytest.approx(truth[key], rel=0.10)


class TestSmartSamplerDecisions:
    def test_probe_phase_runs(self):
        sampler = SmartSampler(hourly_prices={"Standard_HB120rs_v3": 3.6})
        decision = sampler.decide(scen("Standard_HB120rs_v3", 2))
        assert decision.action == "run"

    def test_prediction_after_probes(self):
        sampler = SmartSampler(
            hourly_prices={"Standard_HB120rs_v3": 3.6},
            policy=SamplerPolicy(probe_runs=3, min_r_squared=0.9,
                                 extrapolation=1.0, enable_discard=False,
                                 enable_bottleneck=False),
        )
        from repro.core.dataset import DataPoint

        for n, t in [(2, 100.0), (4, 52.0), (16, 16.0)]:
            sampler.observe(DataPoint(
                appname="lammps", sku="Standard_HB120rs_v3", nnodes=n,
                ppn=8, exec_time_s=t, cost_usd=0.1,
                appinputs={"BOXFACTOR": "10"},
            ))
        decision = sampler.decide(scen("Standard_HB120rs_v3", 8))
        assert decision.action == "predict"
        assert 20 < decision.predicted_time_s < 40
        # Out of interpolation range -> run.
        decision32 = sampler.decide(scen("Standard_HB120rs_v3", 32))
        assert decision32.action == "run"

    def test_decisions_logged(self):
        sampler = SmartSampler(hourly_prices={"Standard_HB120rs_v3": 3.6})
        sampler.decide(scen("Standard_HB120rs_v3", 2))
        assert len(sampler.decisions_log) == 1
