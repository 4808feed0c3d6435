"""Spot-capacity primitives: the eviction model and mid-task preemption
in the Batch service and the Slurm simulator."""

import math

import pytest

from repro.batch.node import NodeState
from repro.batch.pool import PoolState
from repro.batch.task import BatchTask, TaskKind, TaskOutput, TaskState
from repro.cloud.eviction import (
    DEFAULT_EVICTION_RATES,
    REGION_EVICTION_FACTOR,
    EvictionModel,
)
from repro.core.deployer import Deployer
from repro.errors import BatchError, CloudError, PoolStateError
from tests.conftest import make_config

HB = "Standard_HB120rs_v3"


class TestEvictionModel:
    def test_known_sku_uses_curve(self):
        model = EvictionModel()
        assert model.rate_per_hour(HB) == DEFAULT_EVICTION_RATES[HB]

    def test_unknown_sku_uses_default(self):
        model = EvictionModel(default_rate_per_hour=0.123)
        assert model.rate_per_hour("Standard_Z9") == 0.123

    def test_short_name_suffix_match(self):
        model = EvictionModel()
        assert model.rate_per_hour("hb120rs_v3") == DEFAULT_EVICTION_RATES[HB]

    def test_region_factor_scales_rate(self):
        base = EvictionModel(region="southcentralus").rate_per_hour(HB)
        eastus = EvictionModel(region="eastus").rate_per_hour(HB)
        assert eastus == pytest.approx(
            base * REGION_EVICTION_FACTOR["eastus"]
        )

    def test_multi_node_tasks_evict_faster(self):
        model = EvictionModel()
        assert model.rate_per_hour(HB, nodes=8) == pytest.approx(
            8 * model.rate_per_hour(HB, nodes=1)
        )

    def test_flat_overrides_every_sku(self):
        model = EvictionModel.flat(2.5)
        assert model.rate_per_hour(HB) == 2.5
        assert model.rate_per_hour("Standard_HC44rs") == 2.5

    def test_negative_rates_rejected(self):
        with pytest.raises(CloudError):
            EvictionModel(rates={HB: -1.0})
        with pytest.raises(CloudError):
            EvictionModel.flat(-0.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, rate):
        """``nan < 0`` is False, so a sign check alone let NaN through:
        a spot what-if then priced every row NaN and advised nothing."""
        with pytest.raises(CloudError, match=HB):
            EvictionModel(rates={"Standard_HC44rs": 0.08, HB: rate})
        with pytest.raises(CloudError, match="default eviction rate"):
            EvictionModel.flat(rate)
        with pytest.raises(CloudError, match="default eviction rate"):
            EvictionModel(default_rate_per_hour=rate)

    def test_zero_rate_never_evicts(self):
        model = EvictionModel.flat(0.0)
        assert model.time_to_eviction(HB, "t00001", 0) is None
        assert model.mean_time_to_eviction_s(HB) == math.inf
        assert model.survival_probability(HB, 1e9) == 1.0

    def test_draws_are_deterministic_per_key(self):
        model = EvictionModel.flat(10.0, seed=5)
        again = EvictionModel.flat(10.0, seed=5)
        draw = model.time_to_eviction(HB, "t00001", 0)
        assert draw == again.time_to_eviction(HB, "t00001", 0)
        assert draw is not None and draw > 0

    def test_different_attempts_draw_differently(self):
        model = EvictionModel.flat(10.0, seed=5)
        draws = {model.time_to_eviction(HB, "t00001", attempt)
                 for attempt in range(8)}
        assert len(draws) == 8

    def test_different_seeds_draw_differently(self):
        a = EvictionModel.flat(10.0, seed=1)
        b = EvictionModel.flat(10.0, seed=2)
        assert (a.time_to_eviction(HB, "t", 0)
                != b.time_to_eviction(HB, "t", 0))

    def test_survival_probability_matches_rate(self):
        model = EvictionModel.flat(3600.0)  # one per second per node
        # Over one mean interval the survival is e^-1.
        assert model.survival_probability(HB, 1.0) == pytest.approx(
            math.exp(-1.0)
        )

    def test_invalid_nodes_rejected(self):
        with pytest.raises(CloudError):
            EvictionModel().rate_per_hour(HB, nodes=0)

    def test_vectorized_draws_match_scalar_bitwise(self):
        """``times_to_eviction`` must reproduce the scalar per-key draws
        bit for bit — the batched kernel's equivalence contract rests on
        this, so the comparison is ``==`` on floats, not approx."""
        model = EvictionModel(seed=11, region="eastus")
        sids = [f"t{i % 5:05d}" for i in range(12)]
        attempts = [0, 1, 2, 0, 1, 3, 0, 0, 1, 2, 5, 7]
        nodes = [1, 2, 4, 8, 1, 2, 4, 8, 1, 2, 4, 8]
        vec = model.times_to_eviction(HB, sids, attempts, nodes)
        assert vec is not None and len(vec) == 12
        for i, (sid, attempt, n) in enumerate(zip(sids, attempts, nodes)):
            assert vec[i] == model.time_to_eviction(HB, sid, attempt,
                                                    nodes=n)

    def test_vectorized_draws_match_scalar_for_flat_model(self):
        model = EvictionModel.flat(40.0, seed=7)
        vec = model.times_to_eviction("Standard_Z9", ["a", "b"], [0, 4],
                                      [2, 2])
        assert vec[0] == model.time_to_eviction("Standard_Z9", "a", 0,
                                                nodes=2)
        assert vec[1] == model.time_to_eviction("Standard_Z9", "b", 4,
                                                nodes=2)

    def test_vectorized_zero_rate_returns_none(self):
        model = EvictionModel.flat(0.0)
        assert model.times_to_eviction(HB, ["t00001"], [0], [1]) is None


def _start_compute(service, pool_id="pool-x", nodes=2, wall=100.0):
    service.create_pool(pool_id, HB, target_nodes=nodes, spot=True)
    service.create_job("job-x", pool_id)
    task = BatchTask(
        task_id="compute-1", kind=TaskKind.COMPUTE,
        executor=lambda ctx: TaskOutput(exit_code=0, stdout="",
                                        wall_time_s=wall),
        required_nodes=nodes,
    )
    service.submit_task("job-x", task)
    return service.start_task("job-x", "compute-1")


class TestBatchInterrupt:
    @pytest.fixture
    def service(self):
        return Deployer().deploy(make_config()).batch

    def test_spot_pool_bills_discounted_rate(self, service):
        service.create_pool("pool-spot", HB, spot=True)
        service.create_pool("pool-od", HB)
        spot = service.get_pool("pool-spot")
        ondemand = service.get_pool("pool-od")
        assert spot.spot and not ondemand.spot
        assert spot.hourly_price == pytest.approx(
            ondemand.hourly_price * 0.30
        )

    def test_interrupt_reclaims_node_and_bills_partial(self, service):
        task = _start_compute(service, nodes=2, wall=100.0)
        started = service.clock.now
        service.clock.advance(40.0)
        entry = service.interrupt_task("job-x", "compute-1")
        pool = service.get_pool("pool-x")
        assert task.state is TaskState.PREEMPTED
        assert task.finished_at == started + 40.0
        assert entry.wall_time_s == pytest.approx(40.0)
        assert entry.cost_usd == pytest.approx(
            2 * pool.hourly_price * 40.0 / 3600.0
        )
        # One node gone, the survivor back to idle.
        assert pool.current_nodes == 1
        assert pool.preemption_count == 1
        states = sorted(n.state.value for n in pool.nodes)
        assert states == ["gone", "idle"]

    def test_interrupt_requires_running_task(self, service):
        task = _start_compute(service, wall=10.0)
        service.clock.advance(10.0)
        service.complete_task("job-x", "compute-1")
        assert task.state is TaskState.COMPLETED
        with pytest.raises(BatchError):
            service.interrupt_task("job-x", "compute-1")

    def test_interrupt_after_natural_finish_rejected(self, service):
        _start_compute(service, wall=10.0)
        service.clock.advance(10.0)
        with pytest.raises(BatchError, match="already finished"):
            service.interrupt_task("job-x", "compute-1")

    def test_pool_deletable_after_interrupt(self, service):
        _start_compute(service, nodes=2, wall=100.0)
        service.clock.advance(1.0)
        service.interrupt_task("job-x", "compute-1")
        service.delete_pool("pool-x")
        assert service.get_pool.__self__.pools["pool-x"].state \
            is PoolState.DELETED

    def test_quota_returned_on_preemption(self, service):
        _start_compute(service, nodes=2, wall=100.0)
        pool = service.get_pool("pool-x")
        sub = pool.subscription
        avail_before = sub.cores_available(pool.region, pool.sku.family)
        service.clock.advance(1.0)
        service.interrupt_task("job-x", "compute-1")
        assert sub.cores_available(pool.region, pool.sku.family) \
            == avail_before + pool.sku.cores

    def test_preempt_node_guards(self, service):
        service.create_pool("pool-x", HB, target_nodes=1)
        pool = service.get_pool("pool-x")
        node = pool.nodes[0]  # idle after the blocking resize
        assert node.state is NodeState.IDLE
        with pytest.raises(PoolStateError):
            pool.preempt_node(node)  # only running nodes are reclaimed

    def test_billing_stops_at_eviction(self, service):
        _start_compute(service, nodes=2, wall=100.0)
        pool = service.get_pool("pool-x")
        service.clock.advance(10.0)
        service.interrupt_task("job-x", "compute-1")
        node_seconds_before = pool.meter.accrued_node_seconds
        service.clock.advance(100.0)
        # Only the surviving node keeps accruing.
        assert pool.meter.accrued_node_seconds == pytest.approx(
            node_seconds_before + 100.0
        )


class TestSlurmInterrupt:
    @pytest.fixture
    def cluster(self):
        from repro.slurmsim.cluster import SlurmCluster

        deployment = Deployer().deploy(make_config())
        return SlurmCluster(
            provider=deployment.provider,
            subscription=deployment.provider.get_subscription(
                "test-subscription"
            ),
            region="southcentralus",
        )

    def _start(self, cluster, wall=100.0, nodes=2):
        from repro.slurmsim.cluster import JobCompletion

        cluster.create_partition("part-x", HB, spot=True)
        part = cluster.get_partition("part-x")
        part.power_up(nodes)
        return cluster.start_job(
            "run-x", "part-x", nodes,
            lambda hosts, fs, wd: JobCompletion(
                exit_code=0, stdout="", wall_time_s=wall),
        )

    def test_spot_partition_bills_discounted_rate(self, cluster):
        cluster.create_partition("part-spot", HB, spot=True)
        cluster.create_partition("part-od", HB)
        assert cluster.get_partition("part-spot").hourly_price \
            == pytest.approx(
                cluster.get_partition("part-od").hourly_price * 0.30)

    def test_interrupt_kills_job_and_powers_down_node(self, cluster):
        from repro.slurmsim.jobs import JobState

        job = self._start(cluster, wall=100.0, nodes=2)
        cluster.clock.advance(30.0)
        cluster.interrupt_job(job.job_id)
        part = cluster.get_partition("part-x")
        assert job.state is JobState.PREEMPTED
        assert job.elapsed_s == pytest.approx(30.0)
        assert part.powered_up == 1
        assert part.preemption_count == 1
        with pytest.raises(KeyError):
            cluster.pending_completion(job.job_id)

    def test_interrupt_requires_running_job(self, cluster):
        from repro.errors import BackendError

        job = self._start(cluster, wall=10.0)
        cluster.clock.advance(10.0)
        cluster.complete_job(job.job_id)
        with pytest.raises(BackendError):
            cluster.interrupt_job(job.job_id)

    def test_interrupt_after_natural_end_rejected(self, cluster):
        from repro.errors import BackendError

        job = self._start(cluster, wall=10.0)
        cluster.clock.advance(10.0)
        with pytest.raises(BackendError, match="already finished"):
            cluster.interrupt_job(job.job_id)
