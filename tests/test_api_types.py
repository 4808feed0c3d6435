"""repro.api request/result types: validation and JSON round-tripping."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AdviceResult,
    AdviseRequest,
    CollectRequest,
    CollectResult,
    DataPointsResult,
    PlotRequest,
    PlotResult,
    PredictRequest,
    PredictResult,
    RecipeRequest,
    RecipeResult,
    SessionInfo,
)
from repro.api.serde import DictMixin
from repro.core.advisor import AdviceRow
from repro.core.dataset import DataPoint
from repro.errors import ConfigError


def round_trip(obj):
    return type(obj).from_dict(json.loads(json.dumps(obj.to_dict())))


ROW = AdviceRow(exec_time_s=34.0, cost_usd=0.544, nnodes=16,
                sku="Standard_HB120rs_v3", ppn=120,
                appinputs={"BOXFACTOR": "30"})

SPOT_ROW = AdviceRow(exec_time_s=34.0, cost_usd=0.21, nnodes=16,
                     sku="Standard_HB120rs_v3", ppn=120,
                     appinputs={"BOXFACTOR": "30"}, capacity="spot",
                     preemptions=3, makespan_s=61.5, p95_makespan_s=140.0)

SAMPLES = [
    CollectRequest(deployment="d-000", smart_sampling=True, budget_usd=9.5,
                   sampling_policy="aggressive", noise=0.02, seed=7),
    CollectRequest(deployment="d-000", capacity="spot",
                   recovery="checkpoint_restart",
                   checkpoint_interval_s=120.0, checkpoint_overhead_s=12.0,
                   eviction_rate=25.0, eviction_seed=42),
    AdviseRequest(deployment="d-000", capacity="spot", recovery="restart",
                  eviction_rate=40.0, checkpoint_interval_s=90.0,
                  checkpoint_overhead_s=9.0),
    CollectResult(deployment="d-000", capacity="spot",
                  recovery="checkpoint_restart", preemptions=17,
                  wasted_node_s=432.5, executed=4, completed=3, failed=1),
    AdviceResult(deployment="d-000", appname="lammps", capacity="spot",
                 rows=(SPOT_ROW,), dataset_points=8),
    AdviseRequest(deployment="d-000", appname="lammps",
                  filters={"BOXFACTOR": "30"}, nnodes=(3, 4, 8),
                  sku="hb120rs_v3", sort_by="cost", max_rows=5),
    PlotRequest(deployment="d-000", output_dir="/tmp/x",
                filters={"mesh": "40 16 16"}, subtitle="sub"),
    PredictRequest(deployment="d-000", inputs={"BOXFACTOR": "30"},
                   nnodes=(4, 8), model="knn"),
    RecipeRequest(deployment="d-000", row=1, sort_by="cost",
                  extra_env={"A": "1"}, region="eastus"),
    SessionInfo(name="d-000", region="eastus", appname="lammps",
                scenario_count=6, storage_account="sa", jumpbox="jb",
                dataset_points=4),
    CollectResult(deployment="d-000", backend="slurm", executed=3,
                  completed=2, failed=1, task_cost_usd=1.25,
                  failures=("s1: boom",), dataset_points=2,
                  sampler_decisions=("s0: run",), budget_spent_usd=1.25),
    AdviceResult(deployment="d-000", appname="lammps", sort_by="time",
                 rows=(ROW,), dataset_points=12),
    PredictResult(deployment="d-000", appname="lammps", model="ridge",
                  inputs={"BOXFACTOR": "30"}, rows=(ROW,), trained_on=30,
                  cv_mape=0.041),
    PlotResult(deployment="d-000", output_dir="/tmp/x",
               paths=("/tmp/x/plot_cost.svg",), kinds=("cost",)),
    RecipeResult(deployment="d-000", row=ROW, slurm_script="#!/bin/bash",
                 cluster_recipe="vm_type: x"),
]


@pytest.mark.parametrize(
    "obj", SAMPLES, ids=lambda o: type(o).__name__
)
def test_json_round_trip(obj):
    assert round_trip(obj) == obj


def test_to_json_from_json():
    req = CollectRequest(deployment="d", budget_usd=3.0)
    assert CollectRequest.from_json(req.to_json()) == req


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        AdviseRequest.from_dict({"deployment": "d", "bogus": 1})


def test_from_json_rejects_invalid_payloads():
    with pytest.raises(ConfigError, match="invalid"):
        CollectRequest.from_json("{not json")
    with pytest.raises(ConfigError, match="mapping"):
        CollectRequest.from_dict([1, 2])


class TestValidation:
    def test_collect_request_rejects_negative_noise(self):
        with pytest.raises(ConfigError):
            CollectRequest(deployment="d", noise=-1.0)

    def test_collect_request_rejects_negative_retries(self):
        with pytest.raises(ConfigError):
            CollectRequest(deployment="d", retry_failed=-1)

    def test_advise_request_rejects_bad_sort(self):
        with pytest.raises(ConfigError, match="sort_by"):
            AdviseRequest(deployment="d", sort_by="speed")

    def test_predict_request_rejects_bad_model(self):
        with pytest.raises(ConfigError, match="model"):
            PredictRequest(deployment="d", model="forest")

    def test_recipe_request_rejects_negative_row(self):
        with pytest.raises(ConfigError, match="row"):
            RecipeRequest(deployment="d", row=-1)

    def test_collect_request_rejects_bad_capacity(self):
        with pytest.raises(ConfigError, match="capacity"):
            CollectRequest(deployment="d", capacity="flex")

    def test_collect_request_rejects_bad_recovery(self):
        with pytest.raises(ConfigError, match="recovery"):
            CollectRequest(deployment="d", recovery="pray")

    def test_collect_request_rejects_bad_checkpoint_geometry(self):
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            CollectRequest(deployment="d", checkpoint_interval_s=0.0)
        with pytest.raises(ConfigError, match="checkpoint_overhead"):
            CollectRequest(deployment="d", checkpoint_overhead_s=-1.0)
        with pytest.raises(ConfigError, match="eviction_rate"):
            CollectRequest(deployment="d", eviction_rate=-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eviction_rate",
                                       "checkpoint_interval_s",
                                       "checkpoint_overhead_s"])
    @pytest.mark.parametrize("request_type", [CollectRequest, AdviseRequest])
    def test_spot_parameters_must_be_finite(self, request_type, field,
                                            value):
        # Only the constructor runs: a NaN or infinite rate that got
        # through would stall the spot what-if's Monte-Carlo loop.
        with pytest.raises(ConfigError, match=f"{field} must be a finite"):
            request_type(deployment="d", **{field: value})

    def test_advise_request_rejects_negative_max_rows(self):
        with pytest.raises(ConfigError, match="max_rows must be >= 0"):
            AdviseRequest(deployment="d", max_rows=-1)
        with pytest.raises(ConfigError, match="max_rows"):
            AdviseRequest.from_dict({"deployment": "d", "max_rows": -3})
        assert AdviseRequest(deployment="d", max_rows=0).max_rows == 0

    def test_advise_request_rejects_bad_capacity(self):
        with pytest.raises(ConfigError, match="capacity"):
            AdviseRequest(deployment="d", capacity="flex")

    def test_advise_request_rejects_fail_recovery(self):
        # `fail` has no expected-value model; the what-if refuses it.
        with pytest.raises(ConfigError, match="recovery"):
            AdviseRequest(deployment="d", recovery="fail")

    def test_advise_request_empty_capacity_means_as_measured(self):
        assert AdviseRequest(deployment="d").capacity == ""

    def test_collect_request_defaults_to_ondemand(self):
        req = CollectRequest(deployment="d")
        assert req.capacity == "ondemand"
        assert req.eviction_rate is None
        assert req.eviction_seed == 0


class TestAdviceResultHelpers:
    slow_cheap = AdviceRow(exec_time_s=100.0, cost_usd=0.1, nnodes=1,
                           sku="Standard_HC44rs")
    fast_dear = AdviceRow(exec_time_s=10.0, cost_usd=1.0, nnodes=8,
                          sku="Standard_HB120rs_v3")

    def test_fastest_and_cheapest(self):
        result = AdviceResult(deployment="d",
                              rows=(self.fast_dear, self.slow_cheap))
        assert result.fastest == self.fast_dear
        assert result.cheapest == self.slow_cheap
        assert result.best == self.fast_dear

    def test_resorted_by_cost(self):
        result = AdviceResult(deployment="d", sort_by="time",
                              rows=(self.fast_dear, self.slow_cheap))
        by_cost = result.resorted("cost")
        assert by_cost.rows[0] == self.slow_cheap
        assert by_cost.sort_by == "cost"

    def test_render_table_marks_predictions(self):
        pred = AdviceRow(exec_time_s=5.0, cost_usd=0.5, nnodes=2,
                         sku="Standard_HC44rs", predicted=True)
        table = AdviceResult(deployment="d", rows=(pred,)).render_table()
        assert "*" in table

    def test_empty_result_helpers(self):
        result = AdviceResult(deployment="d")
        assert result.best is None
        assert result.fastest is None
        assert result.cheapest is None


# -- encoder exactness ----------------------------------------------------------------


def reference_encode(value):
    """The result encoder as it was before the field walk, verbatim
    except that a nested result also goes through this reference: a
    plain dataclass is deep-copied by ``dataclasses.asdict`` and the
    copy walked again."""
    if isinstance(value, (tuple, list)):
        return [reference_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference_encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if isinstance(value, DictMixin):
            return reference_to_dict(value)
        return reference_encode(dataclasses.asdict(value))
    return value


def reference_to_dict(obj):
    return {f.name: reference_encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


_names = st.text(max_size=12)
_str_maps = st.dictionaries(_names, _names, max_size=3)
#: Finite or infinite (a censored P95, a brutal eviction rate), never
#: NaN: a NaN field would not compare equal after the round trip.
_spans = st.one_of(st.floats(min_value=0.0, allow_nan=False),
                   st.just(math.inf))
_counts = st.integers(min_value=0, max_value=2**40)

advice_rows = st.builds(
    AdviceRow,
    exec_time_s=st.floats(min_value=0.0, max_value=1e9),
    cost_usd=_spans, nnodes=st.integers(1, 4096), sku=_names,
    ppn=st.integers(0, 512), appinputs=_str_maps, predicted=st.booleans(),
    capacity=st.sampled_from(["", "ondemand", "spot"]),
    preemptions=st.integers(0, 100), makespan_s=_spans,
    p95_makespan_s=_spans)

data_points = st.builds(
    DataPoint,
    appname=_names, sku=_names, nnodes=st.integers(1, 4096),
    ppn=st.integers(0, 512),
    exec_time_s=st.floats(min_value=0.0, max_value=1e9),
    cost_usd=_spans, appinputs=_str_maps, app_vars=_str_maps,
    infra_metrics=st.dictionaries(_names, st.floats(allow_nan=False),
                                  max_size=3),
    tags=_str_maps, deployment=_names,
    timestamp=st.floats(min_value=0.0, max_value=2e9),
    predicted=st.booleans(), capacity=st.sampled_from(["ondemand", "spot"]),
    preemptions=st.integers(0, 100),
    wasted_node_s=st.floats(min_value=0.0, max_value=1e9),
    makespan_s=_spans)

results = st.one_of(
    st.builds(AdviceResult, deployment=_names, appname=_names,
              sort_by=st.sampled_from(["time", "cost"]),
              rows=st.lists(advice_rows, max_size=6).map(tuple),
              dataset_points=_counts,
              capacity=st.sampled_from(["", "ondemand", "spot"]),
              engine=st.sampled_from(["", "objects", "columnar"]),
              engine_fallback=_names),
    st.builds(DataPointsResult, deployment=_names, total=_counts,
              limit=st.one_of(st.none(), st.integers(0, 500)),
              offset=st.integers(0, 500),
              points=st.lists(data_points, max_size=6).map(tuple),
              store_backend=st.sampled_from(["", "sqlite"])),
    st.builds(RecipeResult, deployment=_names,
              row=st.one_of(st.none(), advice_rows),
              slurm_script=st.text(max_size=40),
              cluster_recipe=st.text(max_size=40)),
)


class TestEncoderExactness:
    @settings(max_examples=150, deadline=None)
    @given(obj=results)
    def test_to_dict_matches_the_reference_and_round_trips(self, obj):
        """The field walk gives the reference encoder's JSON byte for
        byte, and the decoded payload rebuilds the object."""
        text = json.dumps(obj.to_dict())
        assert text == json.dumps(reference_to_dict(obj))
        assert type(obj).from_dict(json.loads(text)) == obj

    def test_samples_match_the_reference(self):
        for obj in SAMPLES:
            assert obj.to_dict() == reference_to_dict(obj), obj
