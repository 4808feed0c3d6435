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
import json
import sys
import tempfile
import threading
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
from repro.core.dataset import DataPoint
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
