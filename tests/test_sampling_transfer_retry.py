"""Cross-input curve transfer and collector retry tests."""

import pytest

from repro.appkit.context import AppRunContext
from repro.appkit.script import AppScript
from repro.backends.azurebatch import AzureBatchBackend
from repro.core.collector import DataCollector
from repro.core.dataset import DataPoint, Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import Scenario, generate_scenarios
from repro.core.taskdb import TaskDB
from repro.sampling.planner import (
    SamplerPolicy,
    SmartSampler,
    work_estimator_for_app,
)
from tests.conftest import make_config


def point(sku, nnodes, t, bf):
    return DataPoint(appname="lammps", sku=sku, nnodes=nnodes, ppn=120,
                     exec_time_s=t, cost_usd=0.1,
                     appinputs={"BOXFACTOR": bf})


def scen(sku, nnodes, bf):
    return Scenario(scenario_id=f"{sku}-{nnodes}-{bf}", sku_name=sku,
                    nnodes=nnodes, ppn=120, appname="lammps",
                    appinputs={"BOXFACTOR": bf})


class TestWorkEstimator:
    def test_lammps_work_scales_cubically(self):
        estimate = work_estimator_for_app("lammps")
        w10 = estimate({"BOXFACTOR": "10"})
        w20 = estimate({"BOXFACTOR": "20"})
        assert w20 / w10 == pytest.approx(8.0)


class TestCrossInputTransfer:
    def make_sampler(self, enable_transfer=True):
        policy = SamplerPolicy(
            enable_discard=False, enable_bottleneck=False,
            enable_transfer=enable_transfer, min_r_squared=0.9,
            extrapolation=2.0,
        )
        return SmartSampler(
            hourly_prices={"Standard_HB120rs_v3": 3.6},
            policy=policy,
            work_fn=work_estimator_for_app("lammps"),
        )

    def seed_base_curve(self, sampler, bf="20"):
        """Measured curve for one input combo (near-ideal scaling)."""
        for n, t in [(2, 400.0), (4, 205.0), (8, 105.0), (16, 55.0)]:
            sampler.observe(point("Standard_HB120rs_v3", n, t, bf))

    def test_transfer_predicts_sibling_input(self):
        sampler = self.make_sampler()
        self.seed_base_curve(sampler, bf="20")
        # A different BOXFACTOR with zero probes of its own.
        decision = sampler.decide(scen("Standard_HB120rs_v3", 4, "25"))
        assert decision.action == "predict"
        # Work ratio (25/20)^3 ~ 1.95: prediction lands near 205 * 1.95.
        assert decision.predicted_time_s == pytest.approx(205 * 1.953,
                                                          rel=0.25)

    def test_transfer_disabled_runs_probes(self):
        sampler = self.make_sampler(enable_transfer=False)
        self.seed_base_curve(sampler, bf="20")
        decision = sampler.decide(scen("Standard_HB120rs_v3", 4, "25"))
        assert decision.action == "run"

    def test_no_transfer_across_skus(self):
        sampler = SmartSampler(
            hourly_prices={"Standard_HB120rs_v3": 3.6,
                           "Standard_HC44rs": 3.168},
            policy=SamplerPolicy(enable_discard=False,
                                 enable_bottleneck=False),
            work_fn=work_estimator_for_app("lammps"),
        )
        self.seed_base_curve(sampler, bf="20")
        decision = sampler.decide(scen("Standard_HC44rs", 4, "20"))
        assert decision.action == "run"

    def test_for_scenarios_attaches_estimator_automatically(self):
        config = make_config(appinputs={"BOXFACTOR": ["10", "12"]})
        scenarios = generate_scenarios(config)
        sampler = SmartSampler.for_scenarios(
            scenarios, {"Standard_HB120rs_v3": 3.6}
        )
        assert sampler.work_fn is not None

    def test_end_to_end_multi_input_savings(self):
        """A two-input sweep: the second input's curve comes mostly free."""
        config = make_config(
            nnodes=[2, 3, 4, 8],
            appinputs={"BOXFACTOR": ["20", "24"]},
        )
        deployment = Deployer().deploy(config)
        scenarios = generate_scenarios(config)
        sampler = SmartSampler.for_scenarios(
            scenarios, {"Standard_HB120rs_v3": 3.6},
            policy=SamplerPolicy(enable_discard=False,
                                 enable_bottleneck=False,
                                 min_r_squared=0.95),
        )
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=__import__("repro.api.registry",
                              fromlist=["apps"]).apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
            sampler=sampler,
        )
        report = collector.collect(scenarios)
        assert report.predicted >= 3  # at least the sibling curve
        # Predictions stay within 20% of a full-sweep ground truth.
        truth_data = Dataset()
        truth_config = make_config(
            nnodes=[2, 3, 4, 8], appinputs={"BOXFACTOR": ["20", "24"]},
            rgprefix="truth",
        )
        truth_dep = Deployer().deploy(truth_config)
        truth_collector = DataCollector(
            backend=AzureBatchBackend(service=truth_dep.batch),
            script=__import__("repro.api.registry",
                              fromlist=["apps"]).apps.create("lammps"),
            dataset=truth_data,
            taskdb=TaskDB(),
        )
        truth_collector.collect(generate_scenarios(truth_config))
        truth = {(p.sku, p.nnodes, p.inputs_key()): p.exec_time_s
                 for p in truth_data}
        for p in collector.dataset:
            key = (p.sku, p.nnodes, p.inputs_key())
            assert p.exec_time_s == pytest.approx(truth[key], rel=0.20)


class FlakyScript:
    """An AppScript whose run fails on its first N attempts per scenario."""

    def __init__(self, failures_before_success: int):
        self.failures = failures_before_success
        self.attempts = {}

    def build(self) -> AppScript:
        def run(ctx: AppRunContext) -> int:
            key = ctx.getenv("NNODES")
            seen = self.attempts.get(key, 0)
            self.attempts[key] = seen + 1
            if seen < self.failures:
                ctx.echo("transient failure")
                ctx.echo("reason: node lost during execution")
                return 1
            ctx.sleep(10.0)
            ctx.emit_var("APPEXECTIME", "10.0")
            return 0

        return AppScript(appname="lammps", setup=lambda ctx: 0, run=run,
                         setup_seconds=1.0)


class TestRetryFailed:
    def run_collect(self, retry: int, failures: int):
        config = make_config(nnodes=[2])
        deployment = Deployer().deploy(config)
        flaky = FlakyScript(failures_before_success=failures)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=flaky.build(),
            dataset=Dataset(),
            taskdb=TaskDB(),
            retry_failed=retry,
        )
        return collector, collector.collect(generate_scenarios(config))

    def test_no_retry_fails(self):
        collector, report = self.run_collect(retry=0, failures=1)
        assert report.failed == 1
        assert collector.taskdb.counts()["failed"] == 1

    def test_retry_recovers_transient_failure(self):
        collector, report = self.run_collect(retry=1, failures=1)
        assert report.failed == 0
        assert report.completed == 1
        assert collector.taskdb.counts()["completed"] == 1

    def test_retry_budget_exhausted(self):
        _, report = self.run_collect(retry=2, failures=5)
        assert report.failed == 1
