"""Warm reads served from the snapshot a process already holds.

Two read paths answer from the columnar snapshot instead of rescanning
the corpus:

* spot what-ifs keep their per-row P95 and expected makespans on the
  snapshot, per eviction model and recovery policy, and a snapshot
  extended by appended rows inherits them for the rows they cover;
* ``AdvisorSession.datapoints`` slices its page and counts its total
  from a held snapshot, and pushes the query down to the store when
  the process holds none.

Every path must give what a from-scratch computation or the store
pushdown gives: Hypothesis drives random histories of appends,
``replace_points`` calls and what-ifs, and random corpora and queries,
through both.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.cost as cost
from repro.api.requests import AdviseRequest
from repro.api.session import AdvisorSession
from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.columnar import capacity_columns
from repro.core.columnar import _filter_mask, advice_columns
from repro.core.dataset import DataPoint
from repro.core.dataset import Dataset
from repro.core.plotdata import _group_rows_by_sku, _short
from repro.core.query import Query
from repro.core.statefiles import StateStore
from repro.errors import ReproError
from repro.service.router import Router, ServiceState
from repro.store import SqliteStore
from repro.store.snapshot import (ROW_MEMO_MAX, ColumnarSnapshot,
                                  SnapshotCache, snapshot_cache,
                                  snapshot_for_store)
from repro.telemetry import global_registry
from tests.conftest import make_config

SKUS = ("Standard_HB120rs_v3", "Standard_HC44rs")
#: SKUs only later batches bring, so an extension meets new codes.
NEW_SKUS = ("Standard_D64s_v5", "Standard_F72s_v2")
CATALOG = PriceCatalog()


def risk_counts():
    family = global_registry().counter("advisor_risk_columns_total")
    return {result: family.labels(result=result).value
            for result in ("hit", "extended", "computed")}


def read_counts():
    family = global_registry().counter("advisor_datapoints_reads_total")
    return {source: family.labels(source=source).value
            for source in ("snapshot", "store")}


def snapshot_builds():
    family = global_registry().counter("advisor_snapshot_builds")
    return sum(family.labels(kind="sqlite", mode=mode).value
               for mode in ("full", "delta"))


def delta(after, before):
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


# -- corpus strategies ---------------------------------------------------------------

#: Repeated exec times make whole (time, rate) pairs repeat across rows.
_exec_times = st.one_of(
    st.sampled_from([60.0, 600.0, 1800.0, 3600.0]),
    st.floats(min_value=1.0, max_value=3600.0, allow_nan=False))


@st.composite
def points(draw, skus=SKUS, max_nodes=2):
    exec_time = draw(_exec_times)
    spot = draw(st.booleans())
    return DataPoint(
        appname=draw(st.sampled_from(["lammps", "gromacs"])),
        sku=draw(st.sampled_from(skus)),
        nnodes=draw(st.integers(min_value=1, max_value=max_nodes)),
        ppn=draw(st.sampled_from([4, 100])),
        exec_time_s=exec_time,
        cost_usd=draw(st.floats(min_value=0.0, max_value=50.0,
                                allow_nan=False)),
        appinputs=draw(st.sampled_from([
            {"BOXFACTOR": "4"}, {"BOXFACTOR": "16"},
            {"BOXFACTOR": "4", "box factor": "4"}])),
        tags=draw(st.sampled_from([{}, {"run": "a"},
                                   {"site": "x", "run": "b"}])),
        infra_metrics=draw(st.sampled_from([{}, {"net_mbps": 1.5}])),
        capacity="spot" if spot else "ondemand",
        preemptions=draw(st.integers(0, 2)) if spot else 0,
        makespan_s=exec_time * 1.25 if spot else 0.0,
        predicted=draw(st.booleans()),
        timestamp=float(draw(st.integers(0, 10_000))),
    )


#: Appended batches may bring SKUs and node counts earlier rows lack.
later_points = points(skus=SKUS + NEW_SKUS, max_nodes=4)


# -- spot risk columns ---------------------------------------------------------------

#: The what-if inputs and the values each one takes.
WHATIF_VALUES = {
    "rate": (None, 0.5),
    "seed": (0, 7),
    "region": (None, "southcentralus", "eastus"),
    "recovery": ("checkpoint_restart", "restart"),
    "interval": (600.0, 300.0),
    "overhead": (60.0, 0.0),
}
whatifs = st.fixed_dictionaries({
    name: st.sampled_from(values) for name, values in WHATIF_VALUES.items()
})


def varied(params, name):
    """``params`` with input ``name`` (None: no input) moved to its next
    value, so what-ifs that differ in exactly one input meet often."""
    if name is None:
        return params
    values = WHATIF_VALUES[name]
    return dict(params, **{
        name: values[(values.index(params[name]) + 1) % len(values)]})


def eviction_model(params) -> EvictionModel:
    if params["rate"] is None:
        return EvictionModel(region=params["region"], seed=params["seed"])
    return EvictionModel.flat(params["rate"], seed=params["seed"],
                              region=params["region"])


def spot_columns(snap, params):
    return capacity_columns(
        snap, CATALOG, "spot", eviction=eviction_model(params),
        region=params["region"], recovery=params["recovery"],
        checkpoint_interval_s=params["interval"],
        checkpoint_overhead_s=params["overhead"])


def column_bytes(cols):
    """Every field of an ``AdviceColumns``; arrays as dtype plus bytes."""
    out = {}
    for spec in dataclasses.fields(cols):
        value = getattr(cols, spec.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.tobytes())
        out[spec.name] = value
    return out


def from_scratch(points_now, params):
    """The spot columns of a fresh snapshot, with no pair memo to lean
    on: every row goes through the grouping and the kernels."""
    with mock.patch.object(cost, "_PAIR_RISK_MEMO", {}):
        return spot_columns(ColumnarSnapshot.from_points(points_now),
                            params)


def advice_outcome(session, name, engine, params):
    """The spot advice the request can express (rate, recovery and
    checkpointing; the model's region and seed are the deployment's),
    or the exact error it raised."""
    try:
        result = session.advise(AdviseRequest(
            deployment=name, engine=engine, capacity="spot",
            eviction_rate=params["rate"], recovery=params["recovery"],
            checkpoint_interval_s=params["interval"],
            checkpoint_overhead_s=params["overhead"]))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    payload = result.to_dict()
    assert payload.pop("engine") == engine
    return ("ok", json.dumps(payload, sort_keys=True))


history_steps = st.lists(
    st.tuples(
        st.one_of(
            st.none(),
            st.tuples(st.just("append"),
                      st.lists(later_points, min_size=1, max_size=5),
                      st.booleans()),
            st.tuples(st.just("replace"),
                      st.lists(later_points, max_size=6))),
        st.sampled_from((None,) + tuple(WHATIF_VALUES))),
    min_size=1, max_size=6)


class TestRiskColumnHistories:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(first=st.lists(points(), min_size=1, max_size=8),
           base=whatifs, steps=history_steps)
    def test_every_step_matches_a_from_scratch_build(self, first, base,
                                                     steps):
        """Appends (through this session's handle or a second one),
        replaces and what-ifs in any order, each what-if the base one
        or the base with one input moved: after every step the spot
        columns of the LRU snapshot equal a from-scratch computation,
        bit for bit, and columnar advice equals objects advice."""
        with tempfile.TemporaryDirectory() as root:
            session = AdvisorSession(store=StateStore(root=root))
            name = session.deploy(make_config(skus=list(SKUS))).name
            store = session.data_store(name)
            store.append_points(first)
            other = SqliteStore(store.db_path)
            try:
                for change, moved in steps:
                    params = varied(base, moved)
                    if change is not None and change[0] == "append":
                        _, batch, second_handle = change
                        (other if second_handle else store).append_points(
                            batch)
                    elif change is not None:
                        other.replace_points(change[1])
                    stored = store.query_points()
                    assert (column_bytes(spot_columns(
                        snapshot_for_store(store), params))
                        == column_bytes(from_scratch(stored, params)))
                    assert (advice_outcome(session, name, "columnar",
                                           params)
                            == advice_outcome(session, name, "objects",
                                              params))
            finally:
                other.close()


class TestRiskColumnMemo:
    POINTS = [
        DataPoint(appname="lammps", sku=SKUS[i % 2], nnodes=1 + i % 3,
                  ppn=4, exec_time_s=900.0 * (1 + i % 4),
                  cost_usd=1.0 + i)
        for i in range(12)
    ]
    BASE = {"rate": 0.5, "seed": 0, "region": None,
            "recovery": "checkpoint_restart", "interval": 600.0,
            "overhead": 60.0}

    @pytest.mark.parametrize("change", [
        {"seed": 1}, {"region": "eastus"}, {"recovery": "restart"}])
    def test_models_that_differ_in_one_input_do_not_share(self, change):
        """Two what-ifs whose models differ only in seed, only in region
        or only in recovery get two entries, each equal to its own
        from-scratch computation (which differs from the other's)."""
        snap = ColumnarSnapshot.from_points(self.POINTS)
        other = dict(self.BASE, **change)
        before = risk_counts()
        first = spot_columns(snap, self.BASE)
        second = spot_columns(snap, other)
        assert delta(risk_counts(), before) == {"computed": 2}
        assert len(snap._row_memo) == 2
        assert column_bytes(first) == column_bytes(
            from_scratch(self.POINTS, self.BASE))
        assert column_bytes(second) == column_bytes(
            from_scratch(self.POINTS, other))
        assert first.p95.tobytes() != second.p95.tobytes()

    def test_the_per_snapshot_cap_drops_the_oldest(self):
        snap = ColumnarSnapshot.from_points(self.POINTS)
        seeds = range(ROW_MEMO_MAX + 2)
        for seed in seeds:
            spot_columns(snap, dict(self.BASE, seed=seed))
            assert len(snap._row_memo) <= ROW_MEMO_MAX
        assert len(snap._row_memo) == ROW_MEMO_MAX
        before = risk_counts()
        spot_columns(snap, dict(self.BASE, seed=seeds[-1]))
        spot_columns(snap, dict(self.BASE, seed=seeds[0]))
        assert delta(risk_counts(), before) == {"hit": 1, "computed": 1}

    def test_views_start_without_a_memo(self):
        snap = ColumnarSnapshot.from_points(self.POINTS)
        spot_columns(snap, self.BASE)
        view = snap.view(Query(nnodes=(1, 2)))
        assert view._row_memo == {}
        assert column_bytes(spot_columns(view, self.BASE)) == column_bytes(
            from_scratch([p for p in self.POINTS if p.nnodes in (1, 2)],
                         self.BASE))

    def _extended(self, tmp_path):
        """(base, extension, appended) through the delta path."""
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        store.append_points(self.POINTS)
        cache = SnapshotCache()
        base = snapshot_for_store(store, cache=cache)
        spot_columns(base, self.BASE)
        appended = [dataclasses.replace(p, sku=NEW_SKUS[0], nnodes=4)
                    for p in self.POINTS[:5]]
        store.append_points(appended)
        extension = snapshot_for_store(store, cache=cache)
        store.close()
        assert extension.n == base.n + len(appended)
        return base, extension, appended

    def test_an_extension_leaves_its_base_memo_alone(self, tmp_path):
        base, extension, appended = self._extended(tmp_path)
        (key, entry), = base._row_memo.items()
        frozen = [array.tobytes() for array in entry]
        before = risk_counts()
        extended = spot_columns(extension, self.BASE)
        assert delta(risk_counts(), before) == {"extended": 1}
        assert base._row_memo == {key: entry}
        assert [array.tobytes() for array in entry] == frozen
        assert len(entry[0]) == base.n
        assert len(extension.row_memo(key)[0]) == extension.n
        assert column_bytes(extended) == column_bytes(
            from_scratch(self.POINTS + appended, self.BASE))

    def test_threads_share_and_extend_one_snapshot(self, tmp_path):
        """Reader threads (more than cores) run what-ifs over more models
        than the memo keeps, on one shared snapshot and on extensions
        built from it meanwhile: every result still equals its
        from-scratch columns, and no memo outgrows its bound."""
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        store.append_points(self.POINTS)
        base = snapshot_for_store(store, cache=SnapshotCache())
        appended = [dataclasses.replace(p, exec_time_s=p.exec_time_s + 7.0)
                    for p in self.POINTS[:4]]
        store.append_points(appended)
        rows = store.fetch_point_columns(base.cursor)
        store.close()
        models = [dict(self.BASE, seed=seed)
                  for seed in range(ROW_MEMO_MAX + 2)]
        expected = {
            (which, seed): column_bytes(from_scratch(points_now, params))
            for which, points_now in (("base", self.POINTS),
                                      ("extension", self.POINTS + appended))
            for seed, params in enumerate(models)}
        errors = []

        def run(worker):
            try:
                for turn in range(12):
                    snap = base
                    if (worker + turn) % 3 == 0:
                        snap = ColumnarSnapshot.from_column_rows(
                            rows, rows.signature, base=base,
                            cursor=rows.cursor)
                    seed = (worker + turn) % len(models)
                    got = column_bytes(spot_columns(snap, models[seed]))
                    key = ("base" if snap is base else "extension", seed)
                    if got != expected[key]:
                        errors.append(("wrong columns", key))
                    if len(snap._row_memo) > ROW_MEMO_MAX:
                        errors.append(("memo too large", key))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(6)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_inherited_arrays_are_read_only(self, tmp_path):
        base, extension, _ = self._extended(tmp_path)
        (key, entry), = extension._row_memo.items()
        assert entry is base.row_memo(key)
        for array in entry + extension.row_memo(key):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        spot_columns(extension, self.BASE)
        for array in extension.row_memo(key):
            assert not array.flags.writeable


# -- datapoints from the snapshot ----------------------------------------------------

queries = st.builds(
    Query,
    appname=st.sampled_from([None, "lammps", "gromacs", "nothere"]),
    sku=st.sampled_from([None, "hb120rs_v3", "Standard_HC44rs",
                         "standard_d64s_v5", "nope"]),
    nnodes=st.sampled_from([(), (1,), (2, 4)]),
    ppn=st.sampled_from([None, 4, 100]),
    min_nodes=st.sampled_from([None, 2]),
    max_nodes=st.sampled_from([None, 1, 3]),
    appinputs=st.sampled_from([{}, {"BOXFACTOR": "4"},
                               {"BOXFACTOR": "16"}, {"box factor": "4"}]),
    tags=st.sampled_from([{}, {"run": "a"}, {"site": "x"}]),
    capacity=st.sampled_from([None, "spot", "ondemand"]),
    include_predicted=st.booleans(),
    limit=st.sampled_from([None, 0, 1, 3, 50]),
    offset=st.sampled_from([0, 1, 4, 100]),
)


def page_of(result):
    return ([p.to_dict() for p in result.points], result.total,
            result.store_backend, result.limit, result.offset)


def pushdown_page(store, query):
    """The reference: the store's own query and count."""
    return ([p.to_dict() for p in store.query_points(query)],
            store.count_points(query), store.kind, query.limit,
            query.offset)


class TestDatapointsFromSnapshot:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=st.lists(points(), min_size=1, max_size=12),
           batch=st.lists(later_points, min_size=1, max_size=6),
           replacement=st.lists(later_points, min_size=1, max_size=8),
           asked=st.lists(queries, min_size=1, max_size=4))
    def test_pages_equal_the_pushdown(self, corpus, batch, replacement,
                                      asked):
        """With a warm snapshot, every page equals the store pushdown:
        the points by ``to_dict`` in order, ``total`` and
        ``store_backend``; again after a second handle appends, and
        after it replaces the corpus."""
        with tempfile.TemporaryDirectory() as root:
            session = AdvisorSession(store=StateStore(root=root))
            name = session.deploy(make_config(skus=list(SKUS))).name
            store = session.data_store(name)
            store.append_points(corpus)
            session.snapshot(name)
            other = SqliteStore(store.db_path)
            try:
                for change in (None, other.append_points,
                               other.replace_points):
                    if change is other.append_points:
                        change(batch)
                    elif change is not None:
                        change(replacement)
                    for query in asked:
                        before = read_counts()
                        page = page_of(session.datapoints(name, query))
                        assert delta(read_counts(), before) == {
                            "snapshot": 1}
                        assert page == pushdown_page(store, query), query
            finally:
                other.close()

    def _stored(self, root, n=6):
        session = AdvisorSession(store=StateStore(root=root))
        name = session.deploy(make_config(skus=list(SKUS))).name
        session.data_store(name).append_points([
            DataPoint(appname="lammps", sku=SKUS[i % 2], nnodes=1 + i % 2,
                      ppn=4, exec_time_s=100.0 + i, cost_usd=1.0 + i,
                      appinputs={"BOXFACTOR": str(4 + i % 2)})
            for i in range(n)])
        return session, name

    def test_a_cold_session_lists_without_building(self, tmp_path):
        """A process that holds no snapshot of the store pushes the page
        down: listing 50 rows never builds a snapshot."""
        session, name = self._stored(str(tmp_path))
        fresh = AdvisorSession(store=StateStore(root=str(tmp_path)))
        builds, before = snapshot_builds(), read_counts()
        page = fresh.datapoints(name, Query(limit=50))
        assert snapshot_builds() == builds
        assert delta(read_counts(), before) == {"store": 1}
        assert page.total == 6 and len(page.points) == 6

    def test_route_body_is_the_same_warm_and_cold(self, tmp_path):
        session, name = self._stored(str(tmp_path))
        router = Router(ServiceState(session=session))
        path = (f"/v1/datapoints?deployment={name}&filter=BOXFACTOR=5"
                "&limit=2&offset=1")
        before = read_counts()
        cold = router.handle("GET", path)
        assert router.handle("GET", f"/v1/advice?deployment={name}"
                             ).status == 200
        warm = router.handle("GET", path)
        assert delta(read_counts(), before) == {"store": 1, "snapshot": 1}
        assert cold.status == warm.status == 200
        assert cold.payload["total"] == 3
        assert (json.dumps(cold.payload, sort_keys=True)
                == json.dumps(warm.payload, sort_keys=True))

    def test_int_keys_and_values_filter_as_strings(self, tmp_path):
        """A query given int mapping keys or values is its string twin:
        the store pushdown (a cold page and its count), the snapshot
        mask (a warm page) and ``Query.matches`` pick the same points,
        and the query equals the twin and survives its wire form."""
        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config(skus=list(SKUS))).name
        stored = [
            DataPoint(appname="lammps", sku=SKUS[i % 2], nnodes=1, ppn=4,
                      exec_time_s=100.0 + i, cost_usd=1.0 + i,
                      appinputs={"4": str(5 + i % 2),
                                 "BOXFACTOR": str(i % 3)},
                      tags={"7": str(i % 2)})
            for i in range(9)]
        session.data_store(name).append_points(stored)
        for query, twin in (
                (Query(appinputs={4: 5}), Query(appinputs={"4": "5"})),
                (Query(tags={7: 1}), Query(tags={"7": "1"})),
                (Query(appinputs={"BOXFACTOR": 2}, tags={7: 0}, limit=2),
                 Query(appinputs={"BOXFACTOR": "2"}, tags={"7": "0"},
                       limit=2))):
            snapshot_cache().clear()  # what a fresh process holds
            before = read_counts()
            cold = AdvisorSession(store=StateStore(root=str(tmp_path))
                                  ).datapoints(name, query)
            session.snapshot(name)
            warm = session.datapoints(name, query)
            assert delta(read_counts(), before) == {"store": 1,
                                                    "snapshot": 1}
            assert page_of(cold) == page_of(warm)
            assert [p.to_dict() for p in warm.points] == [
                p.to_dict() for p in query.apply(stored)]
            assert warm.total == len(query.without_window().apply(stored))
            assert warm.points and page_of(warm) == page_of(
                session.datapoints(name, twin))
            assert query == twin
            assert Query.from_dict(json.loads(json.dumps(
                query.to_dict()))) == query

    @staticmethod
    def _error(session, name):
        with pytest.raises(ReproError) as caught:
            session.datapoints(name, Query(limit=5))
        return type(caught.value), str(caught.value)

    def test_no_data_raises_the_same_error_warm_and_cold(self, tmp_path):
        """A deployment that never stored a point raises the same
        ``ReproError`` whether or not the LRU holds a snapshot of its
        (empty) store."""
        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config()).name
        untouched = self._error(session, name)
        store = session.data_store(name)
        snapshot_for_store(store)  # an empty snapshot, held by the LRU
        assert self._error(session, name) == untouched
        assert "run collect first" in untouched[1]


class TestDecisionCounters:
    def test_each_decision_counts_once(self, tmp_path):
        """A warm what-if, an append then a what-if, a new model, and a
        page in a process that holds no snapshot each move their
        counter by one."""
        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config(skus=list(SKUS))).name
        store = session.data_store(name)
        store.append_points(TestRiskColumnMemo.POINTS)

        def what_if(rate):
            session.advise(AdviseRequest(deployment=name, capacity="spot",
                                         eviction_rate=rate))

        what_if(0.5)
        before = risk_counts()
        what_if(0.5)
        assert delta(risk_counts(), before) == {"hit": 1}

        store.append_points(TestRiskColumnMemo.POINTS[:3])
        before = risk_counts()
        what_if(0.5)
        assert delta(risk_counts(), before) == {"extended": 1}

        before = risk_counts()
        what_if(0.25)
        assert delta(risk_counts(), before) == {"computed": 1}

        before = read_counts()
        session.datapoints(name, Query(limit=5))
        assert delta(read_counts(), before) == {"snapshot": 1}

        snapshot_cache().clear()  # what a fresh process holds
        before = read_counts()
        AdvisorSession(store=StateStore(root=str(tmp_path))).datapoints(
            name, Query(limit=5))
        assert delta(read_counts(), before) == {"store": 1}


# -- membership masks by code table --------------------------------------------------

#: One SKU under three spellings and one under two: a SKU filter meets
#: several codes, and a short name several full names.
SPELLINGS = ("Standard_HB120rs_v3", "standard_HB120RS_v3", "HB120rs_v3",
             "Standard_HC44rs", "hc44rs")
#: Mapping groups with shared keys in either order.
INPUT_GROUPS = ({}, {"BOXFACTOR": "4"}, {"BOXFACTOR": "4", "mesh": "a"},
                {"mesh": "a", "BOXFACTOR": "16"}, {"mesh": "b"})
TAG_GROUPS = ({}, {"run": "a"}, {"run": "a", "site": "x"},
              {"site": "y", "run": "b"})


@st.composite
def coded_points(draw):
    return DataPoint(
        appname=draw(st.sampled_from(["lammps", "gromacs"])),
        sku=draw(st.sampled_from(SPELLINGS)),
        nnodes=draw(st.sampled_from([1, 2, 4, 16])),
        ppn=draw(st.sampled_from([4, 100])),
        exec_time_s=draw(st.floats(min_value=1.0, max_value=3600.0)),
        cost_usd=draw(st.floats(min_value=0.0, max_value=50.0)),
        appinputs=draw(st.sampled_from(INPUT_GROUPS)),
        tags=draw(st.sampled_from(TAG_GROUPS)),
        capacity=draw(st.sampled_from(["ondemand", "spot"])),
        predicted=draw(st.booleans()),
    )


coded_corpora = st.lists(coded_points(), max_size=20)
#: Values of each query clause: SKU spellings in other cases, node
#: counts on no row (3, 64) and repeated, multi-key mappings whose
#: first key alone matches more groups, keys or values no group has,
#: and int keys and values (held as their strings).
CLAUSE_VALUES = {
    "appname": ["lammps", "nothere"],
    "sku": ["hb120rs_v3", "HB120RS_V3", "Standard_HC44rs",
            "standard_hb120rs_v3", "nope"],
    "nnodes": [(1,), (2, 1), (3,), (4, 16, 4), (64, 2), (1, 2, 3, 4, 16)],
    "ppn": [4],
    "min_nodes": [2],
    "max_nodes": [4],
    "appinputs": [{"BOXFACTOR": "4"}, {"BOXFACTOR": 16},
                  {"mesh": "a", "BOXFACTOR": "4"}, {"mesh": "a"},
                  {"mesh": "c"}, {"nokey": "4"}, {4: "x"}],
    "tags": [{"run": "a"}, {"site": "x", "run": "a"},
             {"run": "a", "site": "y"}, {"run": "z"}, {7: "x"}],
    "capacity": ["spot"],
    "include_predicted": [False],
}
_CLAUSES = {name: st.sampled_from(values)
            for name, values in CLAUSE_VALUES.items()}
_CLAUSES["nnodes"] = st.lists(st.sampled_from([1, 2, 3, 4, 16, 64]),
                              min_size=1, max_size=4).map(tuple)


@st.composite
def mask_queries(draw):
    """A query with up to three clauses (more would rarely leave a row
    of a small corpus) and a window."""
    names = draw(st.lists(st.sampled_from(sorted(_CLAUSES)), max_size=3,
                          unique=True))
    return Query(**{name: draw(_CLAUSES[name]) for name in names},
                 limit=draw(st.sampled_from([None, 0, 2])),
                 offset=draw(st.sampled_from([0, 1, 5])))


class TestMasksByCodeTable:
    @settings(max_examples=100, deadline=None)
    @given(corpus=coded_corpora, query=mask_queries())
    def test_query_mask_is_matches(self, corpus, query):
        snap = ColumnarSnapshot.from_points(corpus)
        assert snap.query_mask(query).tolist() == [
            query.matches(p) for p in corpus]
        assert [p.to_dict() for p in snap.view(query).points()] == [
            p.to_dict() for p in query.apply(corpus)]

    def test_every_clause_value_on_every_group(self):
        """Each clause value alone, over a corpus holding every
        combination of spelling, node count and mapping group."""
        corpus = [
            DataPoint(appname=app, sku=sku, nnodes=nodes,
                      ppn=4 if nodes < 4 else 100,
                      exec_time_s=1.0 + row, cost_usd=1.0,
                      appinputs=inputs, tags=tags,
                      capacity="spot" if row % 3 == 0 else "ondemand",
                      predicted=row % 5 == 0)
            for row, (app, sku, nodes, inputs, tags) in enumerate(
                itertools.product(("lammps", "gromacs"), SPELLINGS,
                                  (1, 2, 4, 16), INPUT_GROUPS, TAG_GROUPS))]
        snap = ColumnarSnapshot.from_points(corpus)
        for name, values in CLAUSE_VALUES.items():
            for value in values:
                query = Query(**{name: value})
                assert snap.query_mask(query).tolist() == [
                    query.matches(p) for p in corpus], query

    @settings(max_examples=60, deadline=None)
    @given(corpus=coded_corpora,
           appname=st.sampled_from([None, "lammps", "nothere"]),
           appinputs=st.sampled_from([None, {}]
                                     + CLAUSE_VALUES["appinputs"]))
    def test_filter_mask_is_dataset_filter(self, corpus, appname,
                                           appinputs):
        cols = advice_columns(ColumnarSnapshot.from_points(corpus))
        mask = _filter_mask(cols, appname, appinputs)
        kept = Dataset(corpus).filter(appname=appname, appinputs=appinputs)
        assert [corpus[i] for i in np.flatnonzero(mask)] == kept.points()

    @settings(max_examples=60, deadline=None)
    @given(corpus=coded_corpora)
    def test_sku_groups_are_the_point_loop(self, corpus):
        expected = {}
        for row, point in enumerate(corpus):
            expected.setdefault(_short(point.sku), []).append(row)
        groups = _group_rows_by_sku(ColumnarSnapshot.from_points(corpus))
        assert list(groups) == sorted(expected)
        assert {short: rows.tolist() for short, rows in groups.items()} \
            == expected


# -- memory of a warm spot what-if ---------------------------------------------------


class TestWarmSpotMemory:
    ROWS = 20_000
    #: Peak traced bytes of one warm unfiltered spot what-if over ROWS
    #: rows.  It read 1.30 MB with the spot view built in place and the
    #: objectives stacked once, and 2.61 MB when the view gathered every
    #: row's P95 and filled its columns through ``np.where`` temporaries.
    PEAK_BOUND = 1_900_000

    def test_warm_spot_peak_stays_small(self, tmp_path):
        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config(skus=list(SKUS))).name
        session.data_store(name).append_points([
            DataPoint(appname="lammps", sku=SKUS[i % 2], nnodes=1 + i % 4,
                      ppn=4, exec_time_s=600.0 + 7.0 * (i % 97),
                      cost_usd=0.01 * (1 + i % 89),
                      appinputs={"BOXFACTOR": str(4 + i % 7)},
                      capacity="spot" if i % 11 == 0 else "ondemand",
                      makespan_s=900.0 if i % 22 == 0 else 0.0)
            for i in range(self.ROWS)])
        request = AdviseRequest(deployment=name, capacity="spot",
                                eviction_rate=0.5)
        first = session.advise(request)  # snapshot and risk columns
        tracemalloc.start()
        try:
            warm = session.advise(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm == first and warm.dataset_points == self.ROWS
        assert peak < self.PEAK_BOUND, peak
