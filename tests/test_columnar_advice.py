"""Columnar advice read path: equivalence and invalidation (ISSUE 10).

The columnar engine carries a hard contract: for any corpus and any
request, ``engine="columnar"`` returns *byte-identical* results to the
legacy per-DataPoint oracle (``engine="objects"``) — including error
messages.  Hypothesis drives random corpora and request shapes through
both engines over both store backends; separate tests pin snapshot
invalidation (append -> stale snapshot extended on SQLite, rebuilt
otherwise, always equal to a from-scratch build) and the agreement
between the service ETag and the snapshot generation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api.requests import ADVICE_ENGINE_CHOICES, AdviseRequest
from repro.api.session import AdvisorSession
from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.columnar import (ADVICE_ENGINES, capacity_columns,
                                 compare_snapshots,
                                 describe_advice_engines,
                                 resolve_advice_engine)
from repro.core.compare import compare_datasets
from repro.core.cost import P95_METRIC, capacity_view
from repro.core.dataset import Dataset, DataPoint
from repro.core.query import Query
from repro.core.statefiles import StateStore
from repro.errors import AdvisorError, ReproError
from repro.predict.predictor import PerformancePredictor
from repro.store import JsonlStore, SqliteStore
from repro.store.snapshot import (ColumnarSnapshot, SnapshotCache,
                                  snapshot_for_store, snapshot_status)
from repro.telemetry import global_registry
from tests.conftest import make_config

SKUS = ("Standard_HB120rs_v3", "Standard_HC44rs")
STORE_BACKENDS = ("sqlite", "jsonl")

# -- corpus / request strategies -------------------------------------------------

_exec_times = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
_costs = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@st.composite
def datapoints(draw):
    exec_time = draw(_exec_times)
    spot = draw(st.booleans())
    return DataPoint(
        appname=draw(st.sampled_from(["lammps", "gromacs"])),
        sku=draw(st.sampled_from(SKUS)),
        nnodes=draw(st.integers(min_value=1, max_value=8)),
        ppn=draw(st.sampled_from([4, 100])),
        exec_time_s=exec_time,
        cost_usd=draw(_costs),
        appinputs={"BOXFACTOR": draw(st.sampled_from(["4", "8"]))},
        capacity="spot" if spot else "ondemand",
        preemptions=draw(st.integers(0, 3)) if spot else 0,
        makespan_s=exec_time * 1.25 if spot else 0.0,
        predicted=draw(st.booleans()),
        timestamp=float(draw(st.integers(0, 10_000))),
    )


corpora = st.lists(datapoints(), min_size=0, max_size=12)

advise_params = st.fixed_dictionaries({
    "appname": st.sampled_from([None, "lammps", "nothere"]),
    "sort_by": st.sampled_from(["time", "cost"]),
    "max_rows": st.sampled_from([None, 2]),
    "capacity": st.sampled_from(["", "ondemand", "spot"]),
    "nnodes": st.sampled_from([(), (2, 4)]),
    "eviction_rate": st.sampled_from([None, 12.0]),
})


@st.composite
def grouped_points(draw):
    """``datapoints`` spread over more SKUs, appinputs, tag and metric
    groups, so a later append batch brings codes earlier ones lack."""
    return dataclasses.replace(
        draw(datapoints()),
        sku=draw(st.sampled_from(SKUS + ("Standard_D64s_v5",))),
        appinputs={"BOXFACTOR": draw(st.sampled_from(["4", "8", "16"]))},
        tags=draw(st.sampled_from([{}, {"run": "a"},
                                   {"site": "x", "run": "b"}])),
        infra_metrics=draw(st.sampled_from([{}, {"net_mbps": 1.5}])),
    )


#: Fixed points for the snapshot tests: distinct times, mixed groups.
POINTS = [
    DataPoint(appname="lammps", sku=SKUS[i % 2], nnodes=1 + i % 4, ppn=4,
              exec_time_s=10.0 + i, cost_usd=1.0 + i,
              appinputs={"BOXFACTOR": str(4 + i % 3)})
    for i in range(12)
]


def advise_outcome(session, name: str, engine: str, params) -> tuple:
    """The advice result (normalized) or the exact error it raised."""
    try:
        result = session.advise(AdviseRequest(deployment=name,
                                              engine=engine, **params))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    payload = result.to_dict()
    assert payload.pop("engine") == engine
    assert payload.pop("engine_fallback") == ""
    return ("ok", json.dumps(payload, sort_keys=True))


class TestEngineRegistry:
    def test_request_choices_mirror_core_engines(self):
        assert ADVICE_ENGINE_CHOICES == ADVICE_ENGINES

    def test_auto_resolves_to_columnar(self):
        assert resolve_advice_engine("auto")[0] == "columnar"

    def test_bad_engine_is_rejected_everywhere(self):
        with pytest.raises(AdvisorError):
            resolve_advice_engine("fortran")
        with pytest.raises(ReproError):
            AdviseRequest(deployment="d", engine="fortran")

    def test_described_engines_cover_choices(self):
        described = {row["engine"] for row in describe_advice_engines()}
        assert described == set(ADVICE_ENGINES)


class TestAdviceEquivalence:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=corpora, params=advise_params)
    def test_objects_and_columnar_agree(self, points, params):
        """Both engines, both store backends, spot and on-demand:
        identical rows or identical errors."""
        with tempfile.TemporaryDirectory() as root:
            for backend in STORE_BACKENDS:
                store = StateStore(root=os.path.join(root, backend),
                                   store_backend=backend)
                session = AdvisorSession(store=store)
                info = session.deploy(make_config(skus=list(SKUS)))
                session.data_store(info.name).append_points(points)
                objects = advise_outcome(session, info.name, "objects",
                                         params)
                columnar = advise_outcome(session, info.name, "columnar",
                                          params)
                assert objects == columnar, (backend, params)


class TestSpotRiskDedup:
    def test_every_row_gets_its_own_pairs_kernels(self):
        """Execution times repeat across SKUs and node counts (so across
        eviction rates), and whole (time, rate) pairs repeat: every
        row's spot columns equal the per-point object view bit for bit,
        so the kernels are deduplicated per pair, never per time."""
        points = [
            DataPoint(appname="lammps", sku=SKUS[(i // 2) % 2],
                      nnodes=1 + (i // 4) % 3, ppn=4,
                      exec_time_s=3600.0 * (1 + i % 2), cost_usd=1.0)
            for i in range(24)
        ]
        catalog, model = PriceCatalog(), EvictionModel()
        view = capacity_view(Dataset(points), catalog, "spot",
                             eviction=model).points()
        cols = capacity_columns(ColumnarSnapshot.from_points(points),
                                catalog, "spot", eviction=model)
        assert cols.makespan_s.tolist() == [p.makespan_s for p in view]
        assert cols.cost_usd.tolist() == [p.cost_usd for p in view]
        assert cols.p95.tolist() == [p.infra_metrics[P95_METRIC]
                                     for p in view]


class TestCompareEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points_a=corpora, points_b=corpora,
           query=st.sampled_from([None, Query(appname="lammps"),
                                  Query(nnodes=(1, 2, 4))]))
    def test_snapshot_compare_matches_dataset_compare(
            self, points_a, points_b, query):
        snap_a = ColumnarSnapshot.from_points(points_a)
        snap_b = ColumnarSnapshot.from_points(points_b)
        q = query or Query()
        legacy = compare_datasets(Dataset(points_a).query(q),
                                  Dataset(points_b).query(q))
        columnar = compare_snapshots(snap_a.view(q), snap_b.view(q))
        assert legacy == columnar


class TestPredictEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=corpora,
           model=st.sampled_from(["ridge", "knn"]))
    def test_fit_columns_matches_fit(self, points, model):
        dataset = Dataset(points)
        snap = ColumnarSnapshot.from_points(points)

        from repro.core.scenarios import Scenario

        probe_scenario = Scenario(scenario_id="probe", sku_name=SKUS[0],
                                  nnodes=2, ppn=4, appname="lammps",
                                  appinputs={"BOXFACTOR": "4"})

        def run(fit, source):
            predictor = PerformancePredictor(backend=model)
            try:
                fit(predictor, source)
            except ReproError as exc:
                return ("error", type(exc).__name__, str(exc))
            return ("ok", predictor._spec,
                    float(predictor.predict_time(probe_scenario)))

        legacy = run(lambda p, s: p.fit(s), dataset)
        columnar = run(lambda p, s: p.fit_columns(s), snap)
        assert legacy == columnar


class TestSnapshotInvalidation:
    def _store(self, root, backend):
        store = StateStore(root=root, store_backend=backend)
        session = AdvisorSession(store=store)
        info = session.deploy(make_config(skus=list(SKUS)))
        return session, session.data_store(info.name), info.name

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_append_rebuilds_stale_snapshot(self, tmp_path, backend):
        _, data, _ = self._store(str(tmp_path), backend)
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=2, ppn=4, exec_time_s=10.0,
                                      cost_usd=1.0)])
        cache = SnapshotCache()
        first = snapshot_for_store(data, cache=cache)
        assert first.n == 1
        assert snapshot_for_store(data, cache=cache) is first  # LRU hit

        data.append_points([DataPoint(appname="lammps", sku=SKUS[1],
                                      nnodes=4, ppn=4, exec_time_s=9.0,
                                      cost_usd=2.0)])
        status = snapshot_status(data, cache=cache)
        assert status["cached"] and not status["fresh"]
        rebuilt = snapshot_for_store(data, cache=cache)
        assert rebuilt is not first
        assert rebuilt.n == 2
        assert snapshot_status(data, cache=cache)["fresh"]

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_snapshot_generation_is_the_etag_generation(self, tmp_path,
                                                        backend):
        """The snapshot carries the exact ``dataset_signature`` the
        service response cache keys ETags on, so a fresh snapshot and a
        fresh ETag can never disagree about the corpus generation."""
        _, data, _ = self._store(str(tmp_path), backend)
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=2, ppn=4, exec_time_s=10.0,
                                      cost_usd=1.0)])
        cache = SnapshotCache()
        snap = snapshot_for_store(data, cache=cache)
        assert snap.signature == data.dataset_signature()
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=4, ppn=4, exec_time_s=8.0,
                                      cost_usd=2.0)])
        assert snap.signature != data.dataset_signature()
        assert (snapshot_for_store(data, cache=cache).signature
                == data.dataset_signature())

    # -- extension after appends ----------------------------------------------

    @staticmethod
    def _open(root, backend):
        if backend == "sqlite":
            return SqliteStore(os.path.join(root, "store.sqlite"))
        return JsonlStore(os.path.join(root, "dataset.jsonl"),
                          os.path.join(root, "tasks.json"))

    @staticmethod
    def _reopen(store):
        """A second handle on the same files, as another process has."""
        if store.kind == "sqlite":
            return SqliteStore(store.db_path)
        return JsonlStore(store.dataset_path, store.taskdb_path)

    @staticmethod
    def _full_build(store):
        """A from-scratch snapshot of the store's corpus as it is now."""
        rows = store.fetch_point_columns()
        if rows is None:
            return ColumnarSnapshot.from_points(
                store.query_points(), signature=store.dataset_signature())
        return ColumnarSnapshot.from_column_rows(rows, rows.signature,
                                                 cursor=rows.cursor)

    @staticmethod
    def _fields(snap):
        """Every public field: arrays as dtype plus bytes, mapping groups
        with their key order."""
        out = {}
        for spec in dataclasses.fields(snap):
            if spec.name.startswith("_"):
                continue
            value = getattr(snap, spec.name)
            if isinstance(value, np.ndarray):
                value = (value.dtype.str, value.tobytes())
            elif value and isinstance(value, tuple) \
                    and isinstance(value[0], dict):
                value = [list(group.items()) for group in value]
            out[spec.name] = value
        return out

    @staticmethod
    def _builds(kind, mode):
        return global_registry().counter("advisor_snapshot_builds").labels(
            kind=kind, mode=mode).value

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(st.tuples(st.lists(grouped_points(), max_size=6),
                                    st.booleans()),
                          min_size=1, max_size=6))
    @example(steps=[(POINTS[:2], True),
                    ([dataclasses.replace(
                        POINTS[2], sku="Standard_D64s_v5",
                        appinputs={"BOXFACTOR": "32"},
                        tags={"run": "new"})], True),
                    ([], True)])
    def test_every_snapshot_equals_a_full_build(self, backend, steps):
        """Append batches with lookups in between: every snapshot
        returned equals a from-scratch build of the corpus at that
        moment, and none changes after it is returned.  SQLite extends
        the cached snapshot after its first build (and any earlier
        snapshot still extends to the current corpus); JSONL rebuilds."""
        with tempfile.TemporaryDirectory() as root:
            store = self._open(root, backend)
            cache = SnapshotCache()
            fulls = self._builds(backend, "full")
            returned = []
            for batch, lookup in steps + [([], True)]:
                store.append_points(batch)
                if lookup:
                    snap = snapshot_for_store(store, cache=cache)
                    assert (self._fields(snap)
                            == self._fields(self._full_build(store)))
                    returned.append((snap, self._fields(snap)))
            now = self._fields(self._full_build(store))
            for snap, frozen in returned:
                assert self._fields(snap) == frozen
                if backend == "sqlite":
                    rows = store.fetch_point_columns(snap.cursor)
                    assert rows.delta
                    assert self._fields(ColumnarSnapshot.from_column_rows(
                        rows, rows.signature, base=snap,
                        cursor=rows.cursor)) == now
            store.close()
            if backend == "sqlite":
                assert self._builds(backend, "full") - fulls == 1

    def test_concurrent_lookups_during_appends(self, tmp_path):
        """Reader threads (more than cores, each with its own handle)
        share one cache while another handle appends batches that bring
        new groups: two readers may extend the same cached snapshot at
        once, so every snapshot any of them gets must still decode to a
        prefix of the final corpus."""
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        writer = SqliteStore(store.db_path)
        cache = SnapshotCache()
        stop = threading.Event()
        seen, errors = [], []

        def read():
            handle = SqliteStore(store.db_path)
            try:
                while not stop.is_set():
                    snap = snapshot_for_store(handle, cache=cache)
                    if not seen or seen[-1] is not snap:
                        seen.append(snap)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                handle.close()

        def rows(snap):
            return [(snap.skus[s], snap.appinputs_groups[a],
                     snap.tags_groups[t], float(x))
                    for s, a, t, x in zip(snap.sku_codes,
                                          snap.appinputs_codes,
                                          snap.tags_codes,
                                          snap.exec_time_s)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for i in range(60):
                writer.append_points([dataclasses.replace(
                    POINTS[i % len(POINTS)], exec_time_s=100.0 + i,
                    sku=f"Standard_S{i % 7}",
                    appinputs={"BOXFACTOR": str(i % 9)},
                    tags={"batch": str(i)})])
                time.sleep(0.002)  # the readers miss together
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert not errors
            final = snapshot_for_store(store, cache=cache)
            assert final.n == 60
            assert self._fields(final) == self._fields(
                self._full_build(store))
            expected = rows(final)
            for snap in seen:
                assert rows(snap) == expected[:snap.n]
        finally:
            store.close()
            writer.close()

    def test_empty_delta_equals_the_base(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        try:
            store.append_points(POINTS[:3])
            snap = snapshot_for_store(store, cache=SnapshotCache())
            rows = store.fetch_point_columns(snap.cursor)
            assert rows == [] and rows.delta
            assert rows.cursor == snap.cursor
            extended = ColumnarSnapshot.from_column_rows(
                rows, rows.signature, base=snap, cursor=rows.cursor)
            assert self._fields(extended) == self._fields(snap)
        finally:
            store.close()

    def test_unfiltered_view_is_the_snapshot(self):
        snap = ColumnarSnapshot.from_points(POINTS)
        assert snap.view(None) is snap
        assert snap.view(Query()) is snap
        for query in (Query(limit=5), Query(offset=1), Query(nnodes=(1,)),
                      Query(include_predicted=False)):
            view = snap.view(query)
            assert view is not snap
            assert view.n == len(query.apply(POINTS))

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_snapshot_arrays_are_read_only(self, tmp_path, backend):
        """Snapshots are shared by the LRU and by unfiltered views, so no
        caller may write through one."""
        store = self._open(str(tmp_path), backend)
        try:
            store.append_points(POINTS)
            snap = snapshot_for_store(store, cache=SnapshotCache())
            for value in vars(snap).values():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable
            with pytest.raises(ValueError):
                snap.view(Query()).exec_time_s[0] = 0.0
            with pytest.raises(ValueError):
                snap.cost_usd *= 2
        finally:
            store.close()

    def test_shared_snapshot_prices_follow_the_catalog(self):
        """The price memo lives as long as the shared snapshot, so a
        catalog created after another one was freed (CPython often hands
        it the same id) must still get its own prices."""
        snap = ColumnarSnapshot.from_points(POINTS)
        for price in (1.0, 2.0, 3.0, 4.0, 5.0):
            catalog = PriceCatalog(prices={sku: price for sku in SKUS})
            fresh = ColumnarSnapshot.from_points(POINTS)
            assert capacity_columns(snap, catalog, "ondemand").cost_usd \
                .tolist() == capacity_columns(fresh, catalog,
                                              "ondemand").cost_usd.tolist()
            del catalog

    def test_delta_extends_a_read_only_base(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        try:
            store.append_points(POINTS[:5])
            base = snapshot_for_store(store, cache=SnapshotCache())
            before = self._fields(base)
            store.append_points(POINTS[5:])
            rows = store.fetch_point_columns(base.cursor)
            assert rows.delta and len(rows) == len(POINTS) - 5
            extended = ColumnarSnapshot.from_column_rows(
                rows, rows.signature, base=base, cursor=rows.cursor)
            assert self._fields(extended) \
                == self._fields(self._full_build(store))
            assert self._fields(base) == before
            assert not extended.exec_time_s.flags.writeable
            assert not base.exec_time_s.flags.writeable
        finally:
            store.close()

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_other_handle_appends_and_replaces(self, tmp_path, backend):
        """Writes through a second handle (another process): an append
        is taken in as a delta on SQLite; a replace, which restarts the
        row ids, always forces a full build."""
        store = self._open(str(tmp_path), backend)
        other = self._reopen(store)
        cache = SnapshotCache()
        append_mode = "delta" if backend == "sqlite" else "full"
        try:
            store.append_points(POINTS[:3])
            snapshot_for_store(store, cache=cache)

            before = self._builds(backend, append_mode)
            other.append_points(POINTS[3:4])
            snap = snapshot_for_store(store, cache=cache)
            assert self._builds(backend, append_mode) == before + 1
            assert self._fields(snap) == self._fields(self._full_build(store))

            # More rows than before, so a cursor that outlived the
            # replace would splice old rows onto new ones.
            before = self._builds(backend, "full")
            other.replace_points(POINTS[4:10])
            snap = snapshot_for_store(store, cache=cache)
            assert self._builds(backend, "full") == before + 1
            assert snap.n == 6
            assert self._fields(snap) == self._fields(self._full_build(store))

            other.append_points(POINTS[10:12])
            snap = snapshot_for_store(store, cache=cache)
            assert snap.n == 8
            assert self._fields(snap) == self._fields(self._full_build(store))
        finally:
            store.close()
            other.close()

    @pytest.mark.parametrize("backend,window", [("sqlite", "lookup"),
                                                ("sqlite", "fetch"),
                                                ("jsonl", "lookup")])
    def test_append_between_signature_and_rows(self, tmp_path, monkeypatch,
                                               backend, window):
        """An append committed after a signature read but before the
        row fetch — after the lookup's freshness check, or inside the
        fetch itself — is neither duplicated nor dropped."""
        store = self._open(str(tmp_path), backend)
        other = self._reopen(store)
        cache = SnapshotCache()
        pending = []

        def inject(read):
            def wrapper(*args):
                result = read(*args)
                if pending:
                    other.append_points(pending.pop())
                return result
            return wrapper

        try:
            store.append_points(POINTS[:2])
            snapshot_for_store(store, cache=cache)
            store.append_points(POINTS[2:4])
            if window == "lookup":
                pending.append(POINTS[4:6])
                monkeypatch.setattr(store, "dataset_signature",
                                    inject(store.dataset_signature))
            else:
                fetch = store.fetch_point_columns

                def armed_fetch(cursor=None):
                    pending.append(POINTS[4:6])
                    return fetch(cursor)

                monkeypatch.setattr(store, "_signature",
                                    inject(store._signature))
                monkeypatch.setattr(store, "fetch_point_columns",
                                    armed_fetch)
            racing = snapshot_for_store(store, cache=cache)
            assert not pending  # the injected append happened
            monkeypatch.undo()

            final = snapshot_for_store(store, cache=cache)
            assert final.n == store.count_points() == 6
            assert self._fields(final) == self._fields(self._full_build(store))
            assert (final.exec_time_s[:racing.n].tobytes()
                    == racing.exec_time_s.tobytes())
            if window == "fetch":
                # Rows and signature come from one read transaction.
                assert racing.n == 4
                assert racing.signature != final.signature
        finally:
            store.close()
            other.close()

class TestServiceEtagAgreement:
    def test_append_moves_etag_and_advice_together(self, tmp_path):
        """A write invalidates the response cache and the snapshot in
        the same request: the ETag changes and the new advice reflects
        the appended point (no stale snapshot behind a fresh ETag)."""
        from repro.service.app import build_state
        from repro.service.router import Router

        state = build_state(str(tmp_path / "state"), workers=1)
        try:
            router = Router(state)
            config = make_config(skus=list(SKUS))
            response = router.handle(
                "POST", "/v1/deployments",
                json.dumps({"config": config.to_dict()}))
            assert response.status == 201, response.payload
            name = response.payload["name"]
            session = AdvisorSession(store=StateStore(
                root=str(tmp_path / "state")))
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[0], nnodes=2, ppn=4,
                exec_time_s=100.0, cost_usd=5.0)])

            first = router.handle("GET", f"/v1/advice?deployment={name}")
            assert first.status == 200
            etag = first.headers["ETag"]
            assert len(first.payload["rows"]) == 1

            # A strictly better point must both change the ETag and
            # appear in the recomputed advice.
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[1], nnodes=2, ppn=4,
                exec_time_s=50.0, cost_usd=1.0)])
            second = router.handle(
                "GET", f"/v1/advice?deployment={name}",
                headers={"If-None-Match": etag})
            assert second.status == 200
            assert second.headers["ETag"] != etag
            assert len(second.payload["rows"]) == 1
            assert second.payload["rows"][0]["exec_time_s"] == 50.0
        finally:
            state.close()

    def test_engine_param_selects_engine(self, tmp_path):
        from repro.service.app import build_state
        from repro.service.router import Router

        state = build_state(str(tmp_path / "state"), workers=1)
        try:
            router = Router(state)
            config = make_config(skus=list(SKUS))
            response = router.handle(
                "POST", "/v1/deployments",
                json.dumps({"config": config.to_dict()}))
            name = response.payload["name"]
            session = AdvisorSession(store=StateStore(
                root=str(tmp_path / "state")))
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[0], nnodes=2, ppn=4,
                exec_time_s=100.0, cost_usd=5.0)])
            payloads = {}
            for engine in ("objects", "columnar", "auto"):
                got = router.handle(
                    "GET",
                    f"/v1/advice?deployment={name}&engine={engine}")
                assert got.status == 200, got.payload
                payloads[engine] = dict(got.payload)
            assert payloads["objects"].pop("engine") == "objects"
            assert payloads["columnar"].pop("engine") == "columnar"
            assert payloads["auto"].pop("engine") == "columnar"
            for payload in payloads.values():
                payload.pop("engine_fallback")
            assert (payloads["objects"] == payloads["columnar"]
                    == payloads["auto"])
            bad = router.handle(
                "GET", f"/v1/advice?deployment={name}&engine=fortran")
            assert bad.status == 400
        finally:
            state.close()
