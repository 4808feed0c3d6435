"""Property-based tests for the spot-capacity preemption invariants.

For *any* eviction trace (rate, seed, checkpoint geometry):

* total billed node-seconds >= useful node-seconds, with the exact
  decomposition ``billed == useful + wasted`` in the noise-free model;
* ``checkpoint_restart`` never loses more than one checkpoint interval
  (plus the restore it was in) per eviction;
* the recorded application time equals the uninterrupted run's time —
  evictions cost money and wall-clock, never physics;
* eviction rate 0.0 reproduces the non-spot run byte-identically;
* a fixed ``eviction_seed`` replays the sweep identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.cloud.eviction import EvictionModel
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB
from tests.conftest import make_config

#: One small scenario (1 SKU x 1 node count) keeps each example fast;
#: the strategies vary everything that matters for the invariants.
SKU = "Standard_HB120rs_v3"

rates = st.sampled_from([0.0, 20.0, 120.0, 600.0, 3000.0])
seeds = st.integers(min_value=0, max_value=2**31)
intervals = st.sampled_from([3.0, 10.0, 45.0, 600.0])
overheads = st.sampled_from([0.0, 1.0, 8.0])
recoveries = st.sampled_from(["restart", "checkpoint_restart"])


def run_spot(rate, seed, recovery, interval, overhead, nnodes=2,
             capacity="spot"):
    config = make_config(skus=[SKU], nnodes=[nnodes],
                         appinputs={"BOXFACTOR": ["16"]})
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch,
                                  capacity=capacity),
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        capacity=capacity,
        recovery=recovery,
        checkpoint_interval_s=interval,
        checkpoint_overhead_s=overhead,
        eviction=(EvictionModel.flat(rate, seed=seed)
                  if capacity == "spot" else None),
        max_preemptions=400,
    )
    report = collector.collect(generate_scenarios(config))
    return report, collector, deployment


@given(rate=rates, seed=seeds, recovery=recoveries, interval=intervals,
       overhead=overheads)
@settings(max_examples=25, deadline=None)
def test_billed_never_below_useful_and_decomposes(rate, seed, recovery,
                                                  interval, overhead):
    """billed node-seconds == useful + wasted, so billed >= useful."""
    report, collector, deployment = run_spot(rate, seed, recovery,
                                             interval, overhead)
    price = deployment.provider.prices.hourly_price(
        SKU, "southcentralus", spot=True
    )
    for point in collector.dataset:
        useful_node_s = point.exec_time_s * point.nnodes
        billed_node_s = point.cost_usd / price * 3600.0
        assert billed_node_s >= useful_node_s - 1e-6
        assert billed_node_s == pytest.approx(
            useful_node_s + point.wasted_node_s, rel=1e-9, abs=1e-6
        )
        assert point.wasted_node_s >= 0.0
        assert (point.preemptions == 0) == (point.wasted_node_s == 0.0)


@given(rate=rates, seed=seeds, interval=intervals, overhead=overheads)
@settings(max_examples=25, deadline=None)
def test_checkpoint_loses_at_most_one_interval_per_eviction(
        rate, seed, interval, overhead):
    """Each eviction wastes < one interval of work + the restore it was
    in; the final resume adds one more overhead."""
    _, collector, _ = run_spot(rate, seed, "checkpoint_restart",
                               interval, overhead)
    for point in collector.dataset:
        bound = (point.preemptions * (interval + overhead) + overhead) \
            * point.nnodes
        assert point.wasted_node_s <= bound + 1e-6


@given(rate=rates, seed=seeds, recovery=recoveries, interval=intervals,
       overhead=overheads)
@settings(max_examples=25, deadline=None)
def test_evictions_never_change_the_physics(rate, seed, recovery,
                                            interval, overhead):
    """The recorded app execution time is eviction-independent: spot
    buys the same computation, just later and with more billing."""
    report, collector, _ = run_spot(rate, seed, recovery, interval,
                                    overhead)
    _, baseline, _ = run_spot(0.0, 0, recovery, interval, overhead)
    if report.completed:
        spot_execs = sorted(p.exec_time_s for p in collector.dataset)
        base_execs = sorted(p.exec_time_s for p in baseline.dataset)
        for got, want in zip(spot_execs, base_execs):
            assert got == pytest.approx(want, rel=1e-12)
        for point in collector.dataset:
            assert point.makespan_s >= point.exec_time_s - 1e-9


@given(seed=seeds, recovery=recoveries, interval=intervals,
       overhead=overheads, nnodes=st.sampled_from([1, 2, 4]))
@settings(max_examples=15, deadline=None)
def test_rate_zero_is_byte_identical_to_ondemand(seed, recovery, interval,
                                                 overhead, nnodes):
    """The zero-rate spot walk is the on-demand walk, byte for byte
    (tier label aside), once the discount is normalized away."""
    _, spot, spot_dep = run_spot(0.0, seed, recovery, interval, overhead,
                                 nnodes=nnodes)
    _, ondemand, _ = run_spot(0.0, seed, recovery, interval, overhead,
                              nnodes=nnodes, capacity="ondemand")
    discount_factor = 1.0 - spot_dep.provider.prices.spot_discount

    def normalized(collector, drop_capacity=True):
        rows = []
        for p in collector.dataset:
            d = p.to_dict()
            d.pop("capacity")
            d.pop("cost_usd")
            rows.append(str(sorted(d.items())))
        return sorted(rows)

    assert normalized(spot) == normalized(ondemand)
    for spot_point, od_point in zip(spot.dataset, ondemand.dataset):
        assert spot_point.cost_usd == pytest.approx(
            od_point.cost_usd * discount_factor, rel=1e-12
        )
        assert spot_point.preemptions == 0


@given(rate=st.sampled_from([120.0, 600.0]), seed=seeds,
       recovery=recoveries)
@settings(max_examples=10, deadline=None)
def test_fixed_seed_replays_identically(rate, seed, recovery):
    report_a, collector_a, _ = run_spot(rate, seed, recovery, 10.0, 1.0)
    report_b, collector_b, _ = run_spot(rate, seed, recovery, 10.0, 1.0)
    assert [p.to_dict() for p in collector_a.dataset] \
        == [p.to_dict() for p in collector_b.dataset]
    assert report_a.preemptions == report_b.preemptions
    assert report_a.wasted_node_s == report_b.wasted_node_s
    assert report_a.makespan_s == report_b.makespan_s


@given(rate=rates, seed=seeds, interval=intervals, overhead=overheads)
@settings(max_examples=15, deadline=None)
def test_report_aggregates_match_points(rate, seed, interval, overhead):
    report, collector, _ = run_spot(rate, seed, "checkpoint_restart",
                                    interval, overhead)
    records = collector.taskdb.all()
    assert report.preemptions == sum(r.preemptions for r in records)
    completed_wasted = sum(
        p.wasted_node_s for p in collector.dataset
    )
    if report.failed == 0:
        assert report.wasted_node_s == pytest.approx(
            completed_wasted, rel=1e-9, abs=1e-9
        )
    else:
        assert report.wasted_node_s >= completed_wasted - 1e-9


@given(rate=st.sampled_from([600.0, 3000.0]), seed=seeds)
@settings(max_examples=10, deadline=None)
def test_fail_policy_fails_after_exactly_one_eviction(rate, seed):
    report, collector, _ = run_spot(rate, seed, "fail", 10.0, 1.0)
    for record in collector.taskdb.all():
        assert record.preemptions in (0, 1)
    assert report.preemptions == report.failed
