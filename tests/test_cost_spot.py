"""Risk-adjusted cost model: expected/P95 makespans, capacity views,
the n-objective Pareto front, and the spot-summary regression."""

import math

import numpy as np
import pytest

from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.advisor import Advisor, AdviceRow
from repro.core.cost import (
    P95_METRIC,
    capacity_view,
    cheapest_capacity,
    expected_spot_runtime,
    ondemand_view_point,
    p95_spot_runtime,
    reprice_dataset,
    simulate_spot_makespans,
    spot_savings_summary,
    spot_view_point,
)
from repro.core.dataset import DataPoint, Dataset
from repro.core.pareto import (
    dominates_nd,
    pareto_indices,
    pareto_indices_nd,
    pareto_select_nd,
)
from repro.errors import AdvisorError

HB = "Standard_HB120rs_v3"


def dp(nnodes, t, sku=HB, **kwargs):
    return DataPoint(
        appname="lammps", sku=sku, nnodes=nnodes, ppn=120,
        exec_time_s=t, cost_usd=nnodes * 3.6 * t / 3600.0,
        appinputs={"BOXFACTOR": "30"}, **kwargs,
    )


class TestExpectedRuntime:
    def test_zero_rate_is_identity(self):
        assert expected_spot_runtime(500.0, 0.0, "restart") == 500.0
        assert expected_spot_runtime(500.0, 0.0, "checkpoint_restart") \
            == 500.0

    def test_restart_matches_closed_form(self):
        lam = 30.0 / 3600.0
        expected = expected_spot_runtime(200.0, 30.0, "restart")
        assert expected == pytest.approx(math.expm1(lam * 200.0) / lam)

    def test_small_rate_limit_converges_to_work(self):
        assert expected_spot_runtime(100.0, 1e-9, "restart") \
            == pytest.approx(100.0, rel=1e-6)
        assert expected_spot_runtime(
            100.0, 1e-9, "checkpoint_restart", 30.0, 5.0
        ) == pytest.approx(100.0, rel=1e-6)

    def test_monotonic_in_rate(self):
        values = [expected_spot_runtime(300.0, r, "restart")
                  for r in (1.0, 10.0, 100.0)]
        assert values == sorted(values)
        assert values[0] > 300.0

    def test_checkpointing_beats_restart_for_long_tasks(self):
        kwargs = dict(checkpoint_interval_s=60.0, checkpoint_overhead_s=5.0)
        restart = expected_spot_runtime(1200.0, 20.0, "restart")
        checkpoint = expected_spot_runtime(1200.0, 20.0,
                                           "checkpoint_restart", **kwargs)
        assert checkpoint < restart

    def test_extreme_rate_saturates_to_inf_not_overflow(self):
        assert expected_spot_runtime(1e6, 1e6, "restart") == math.inf
        assert expected_spot_runtime(
            1e6, 1e7, "checkpoint_restart", 1e5, 10.0
        ) == math.inf

    def test_fail_policy_has_no_model(self):
        with pytest.raises(AdvisorError):
            expected_spot_runtime(100.0, 10.0, "fail")


class TestP95Simulation:
    def test_deterministic_for_seed(self):
        a = simulate_spot_makespans(300.0, 60.0, "restart", seed=3)
        b = simulate_spot_makespans(300.0, 60.0, "restart", seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(
            a, simulate_spot_makespans(300.0, 60.0, "restart", seed=4)
        )

    def test_zero_rate_returns_work_exactly(self):
        spans = simulate_spot_makespans(123.0, 0.0)
        assert np.all(spans == 123.0)

    def test_every_sample_at_least_the_work(self):
        spans = simulate_spot_makespans(300.0, 120.0, "checkpoint_restart",
                                        30.0, 5.0, samples=128)
        assert np.all(spans >= 300.0 - 1e-9)

    def test_p95_at_least_expected_shape(self):
        p95 = p95_spot_runtime(300.0, 120.0, "restart")
        assert p95 > 300.0
        mean = float(np.mean(
            simulate_spot_makespans(300.0, 120.0, "restart")
        ))
        assert p95 >= mean

    def test_mean_tracks_closed_form(self):
        spans = simulate_spot_makespans(200.0, 60.0, "restart",
                                        samples=2000, seed=1)
        expected = expected_spot_runtime(200.0, 60.0, "restart")
        assert float(np.mean(spans)) == pytest.approx(expected, rel=0.15)

    def test_censored_samples_record_inf_not_fake_makespans(self):
        """A sample that never finishes within the attempt budget must
        read as inf — a fictitious finite makespan would hide the tail
        from the P95 Pareto objective."""
        spans = simulate_spot_makespans(600.0, 5000.0, "restart",
                                        samples=16, max_attempts=64)
        assert np.all(np.isinf(spans))
        assert p95_spot_runtime(600.0, 5000.0, "restart") == math.inf

    def test_single_chunk_checkpoint_equals_restart(self):
        """Regression: a task shorter than one checkpoint interval has
        no checkpoint to restore, so checkpoint_restart must cost exactly
        what restart does — in the closed form, the simulation, and hence
        the advice (the old model charged restore on first-chunk retries,
        overstating spot cost ~40% for the default 600s interval)."""
        expected_cp = expected_spot_runtime(
            300.0, 20.0, "checkpoint_restart",
            checkpoint_interval_s=600.0, checkpoint_overhead_s=60.0,
        )
        expected_restart = expected_spot_runtime(300.0, 20.0, "restart")
        assert expected_cp == pytest.approx(expected_restart, rel=1e-12)
        spans = simulate_spot_makespans(
            300.0, 20.0, "checkpoint_restart", 600.0, 60.0,
            samples=4000, seed=1,
        )
        assert float(np.mean(spans)) == pytest.approx(expected_cp,
                                                      rel=0.1)


class TestCapacityViews:
    def test_spot_view_reprices_and_retimes(self):
        catalog = PriceCatalog()
        point = dp(2, 300.0)
        view = spot_view_point(point, catalog, EvictionModel.flat(60.0),
                               recovery="restart")
        expected = expected_spot_runtime(300.0, 120.0, "restart")
        assert view.capacity == "spot"
        assert view.makespan_s == pytest.approx(expected)
        assert view.cost_usd == pytest.approx(
            catalog.task_cost(HB, 2, expected, spot=True)
        )
        assert view.infra_metrics[P95_METRIC] > 300.0
        # The useful work column survives untouched.
        assert view.exec_time_s == 300.0

    def test_spot_view_keeps_realized_spot_measurements(self):
        catalog = PriceCatalog()
        measured = dp(2, 300.0, capacity="spot", preemptions=4,
                      makespan_s=900.0, wasted_node_s=600.0)
        view = spot_view_point(measured, catalog, EvictionModel.flat(60.0))
        assert view.makespan_s == 900.0
        assert view.cost_usd == measured.cost_usd
        assert view.preemptions == 4

    def test_ondemand_view_strips_spot_dynamics(self):
        catalog = PriceCatalog()
        measured = dp(2, 300.0, capacity="spot", preemptions=4,
                      makespan_s=900.0, wasted_node_s=600.0)
        view = ondemand_view_point(measured, catalog)
        assert view.capacity == "ondemand"
        assert view.preemptions == 0
        assert view.wasted_node_s == 0.0
        assert view.makespan_s == 300.0
        assert view.cost_usd == pytest.approx(
            catalog.task_cost(HB, 2, 300.0, spot=False)
        )

    def test_capacity_view_validates_tier(self):
        with pytest.raises(AdvisorError):
            capacity_view(Dataset([dp(1, 10.0)]), PriceCatalog(), "flex")

    def test_cheapest_capacity_picks_winner(self):
        cheap = AdviceRow(exec_time_s=10.0, cost_usd=0.1, nnodes=1, sku=HB)
        dear = AdviceRow(exec_time_s=5.0, cost_usd=0.5, nnodes=2, sku=HB)
        assert cheapest_capacity([
            ("ondemand", [dear]), ("spot", [cheap]),
        ]) == "spot"
        assert cheapest_capacity([("ondemand", []), ("spot", [])]) is None


class TestSpotSummaryRegression:
    """The old summary kept the on-demand exec time next to the spot
    price; with eviction dynamics the makespans differ, and the summary
    must say so."""

    def test_spot_column_carries_risk_adjusted_makespan(self):
        data = Dataset([dp(16, 36.0), dp(3, 173.0)])
        text = spot_savings_summary(
            data, PriceCatalog(),
            eviction=EvictionModel.flat(200.0), recovery="restart",
        )
        # At 200/h x 3 nodes the 173 s config's expected makespan is far
        # beyond its on-demand exec time; the table must show it (the old
        # code reused the on-demand time next to the spot price).
        lam = 200.0 * 3 / 3600.0
        expected = math.expm1(lam * 173.0) / lam
        assert f"E[{expected:.0f}s]" in text
        assert "risk-adjusted" in text
        # The 16-node config is dominated once risk-adjusted (slower AND
        # dearer on spot) — it drops off the spot front entirely.
        assert "(off front)" in text

    def test_spot_cost_reflects_expected_not_nominal_time(self):
        data = Dataset([dp(16, 36.0)])
        catalog = PriceCatalog()
        text = spot_savings_summary(
            data, catalog,
            eviction=EvictionModel.flat(200.0), recovery="restart",
        )
        lam = 200.0 * 16 / 3600.0
        expected = math.expm1(lam * 36.0) / lam
        risk_cost = catalog.task_cost(HB, 16, expected, spot=True)
        naive_cost = catalog.task_cost(HB, 16, 36.0, spot=True)
        assert f"${risk_cost:.4f}" in text
        assert f"${naive_cost:.4f}" not in text

    def test_zero_risk_summary_matches_plain_discount(self):
        data = Dataset([dp(16, 36.0)])
        catalog = PriceCatalog()
        text = spot_savings_summary(
            data, catalog, eviction=EvictionModel.flat(0.0),
        )
        discounted = catalog.task_cost(HB, 16, 36.0, spot=True)
        assert f"${discounted:.4f}" in text

    def test_repricing_still_preserves_times(self):
        data = Dataset([dp(16, 36.0), dp(3, 173.0)])
        spot = reprice_dataset(data, PriceCatalog(), spot=True)
        for before, after in zip(data, spot):
            assert after.exec_time_s == before.exec_time_s
            assert after.cost_usd == pytest.approx(before.cost_usd * 0.30)


class TestParetoNd:
    def test_dominates_nd_semantics(self):
        assert dominates_nd((1, 1, 1), (2, 2, 2))
        assert dominates_nd((1, 2, 3), (1, 2, 4))
        assert not dominates_nd((1, 2, 3), (1, 2, 3))
        assert not dominates_nd((1, 5), (2, 4))
        with pytest.raises(ValueError):
            dominates_nd((1, 2), (1, 2, 3))

    def test_two_objectives_match_fast_sweep(self):
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.5, 2.5),
                  (1.0, 3.0)]
        assert sorted(pareto_indices_nd(points)) \
            == sorted(pareto_indices(points))

    def test_third_objective_keeps_tail_risk_survivors(self):
        # Same expected time and cost, wildly different P95: both stay.
        points = [(10.0, 1.0, 12.0), (10.0, 1.0, 90.0), (11.0, 1.1, 95.0)]
        front = pareto_indices_nd(points)
        assert 0 in front
        # (10, 1, 90) is dominated by (10, 1, 12); (11, 1.1, 95) too.
        assert front == [0]
        spread = [(10.0, 2.0, 12.0), (12.0, 1.0, 90.0), (11.0, 1.5, 8.0)]
        assert sorted(pareto_indices_nd(spread)) == [0, 1, 2]

    def test_empty_and_mixed_dims(self):
        assert pareto_indices_nd([]) == []
        with pytest.raises(ValueError):
            pareto_indices_nd([(1.0, 2.0), (1.0, 2.0, 3.0)])

    def test_select_nd_orders_by_objective(self):
        items = ["slowcheap", "fastdear", "mid"]
        keys = {"slowcheap": (30.0, 1.0, 40.0), "fastdear": (10.0, 3.0, 15.0),
                "mid": (20.0, 2.0, 25.0)}
        selected = pareto_select_nd(items, key=lambda i: keys[i])
        assert selected == ["fastdear", "mid", "slowcheap"]


class TestAdvisorEffectiveObjective:
    def make_dataset(self):
        catalog = PriceCatalog()
        points = [dp(2, 300.0), dp(4, 170.0), dp(8, 100.0)]
        return capacity_view(
            Dataset(points), catalog, "spot",
            eviction=EvictionModel.flat(30.0), recovery="checkpoint_restart",
            checkpoint_interval_s=30.0, checkpoint_overhead_s=5.0,
        )

    def test_effective_front_uses_makespan_axis(self):
        rows = Advisor(self.make_dataset()).advise(objective="effective")
        assert rows
        for row in rows:
            assert row.capacity == "spot"
            assert row.makespan_s >= row.exec_time_s
            assert row.p95_makespan_s >= row.makespan_s * 0.5

    def test_effective_sorting_by_effective_time(self):
        rows = Advisor(self.make_dataset()).advise(objective="effective",
                                                   sort_by="time")
        spans = [row.effective_time_s for row in rows]
        assert spans == sorted(spans)

    def test_invalid_objective_rejected(self):
        with pytest.raises(AdvisorError, match="objective"):
            Advisor(Dataset([dp(1, 10.0)])).advise(objective="speed")

    def test_spot_rows_render_risk_columns(self):
        advisor = Advisor(self.make_dataset())
        rows = advisor.advise(objective="effective")
        table = advisor.render_table(rows)
        assert "E[Span](s)" in table
        assert "P95(s)" in table
        assert "[spot]" in table

    def test_ondemand_rows_keep_paper_table_shape(self):
        rows = Advisor(Dataset([dp(2, 300.0), dp(8, 100.0)])).advise()
        table = Advisor(Dataset()).render_table(rows)
        assert table.splitlines()[0] == \
            f"{'Exectime(s)':>11} {'Cost($)':>8} {'Nodes':>6}  SKU"
        assert "[spot]" not in table


class TestNonFiniteWork:
    @pytest.mark.parametrize("recovery", ["restart", "checkpoint_restart"])
    @pytest.mark.parametrize("work", [math.inf, -math.inf, math.nan])
    def test_expected_runtime_is_a_typed_error(self, recovery, work):
        # Was a bare ValueError from the checkpoint chunking (or a
        # silent inf under restart).
        with pytest.raises(AdvisorError, match="non-finite work"):
            expected_spot_runtime(work, 6.0, recovery)
