"""Store-backend equivalence: JsonlStore and SqliteStore are one store.

Hypothesis round-trip properties prove that for any corpus and any
query, the two engines return identical results, that JSONL -> SQLite
migration is lossless, and that the JSONL backend's bytes are exactly
what the legacy ``Dataset.save``/``TaskDB.save`` path wrote.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import DataPoint, Dataset
from repro.core.query import Query
from repro.core.scenarios import Scenario
from repro.core.taskdb import TaskDB, TaskRecord, TaskStatus
from repro.store import (
    JsonlStore,
    SqliteStore,
    open_deployment_store,
    resolve_backend,
    set_default_backend,
)

# -- strategies -------------------------------------------------------------------

_APPS = ("lammps", "openfoam", "wrf")
_SKUS = ("Standard_HB120rs_v3", "Standard_HC44rs", "Standard_D32s_v5")
_KEYS = ("BOXFACTOR", "mesh", "steps")

_safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
    max_size=8,
)


def _points():
    return st.builds(
        DataPoint,
        appname=st.sampled_from(_APPS),
        sku=st.sampled_from(_SKUS),
        nnodes=st.integers(min_value=1, max_value=64),
        ppn=st.integers(min_value=1, max_value=120),
        exec_time_s=st.floats(min_value=0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
        cost_usd=st.floats(min_value=0, max_value=1e5,
                           allow_nan=False, allow_infinity=False),
        appinputs=st.dictionaries(st.sampled_from(_KEYS), _safe_text,
                                  max_size=2),
        tags=st.dictionaries(_safe_text.filter(bool), _safe_text,
                             max_size=2),
        infra_metrics=st.dictionaries(
            st.sampled_from(("net_mbps", "cpu")),
            st.floats(min_value=0, max_value=1e9, allow_nan=False,
                      allow_infinity=False),
            max_size=2),
        deployment=st.just("hyp-000"),
        timestamp=st.floats(min_value=0, max_value=2e9, allow_nan=False,
                            allow_infinity=False),
        predicted=st.booleans(),
        capacity=st.sampled_from(("ondemand", "spot")),
        preemptions=st.integers(min_value=0, max_value=5),
        wasted_node_s=st.floats(min_value=0, max_value=1e6,
                                allow_nan=False, allow_infinity=False),
        makespan_s=st.floats(min_value=0, max_value=1e7, allow_nan=False,
                             allow_infinity=False),
    )


def _queries():
    return st.builds(
        Query,
        appname=st.none() | st.sampled_from(_APPS),
        sku=st.none() | st.sampled_from(
            [s.lower() for s in _SKUS]
            + [s[len("Standard_"):].lower() for s in _SKUS]
        ),
        nnodes=st.lists(st.integers(min_value=1, max_value=64),
                        max_size=3).map(tuple),
        ppn=st.none() | st.integers(min_value=1, max_value=120),
        min_nodes=st.none() | st.integers(min_value=1, max_value=32),
        max_nodes=st.none() | st.integers(min_value=1, max_value=64),
        appinputs=st.dictionaries(st.sampled_from(_KEYS), _safe_text,
                                  max_size=1),
        capacity=st.none() | st.sampled_from(("ondemand", "spot")),
        include_predicted=st.booleans(),
        limit=st.none() | st.integers(min_value=0, max_value=10),
        offset=st.integers(min_value=0, max_value=10),
    )


def _records():
    scenarios = st.builds(
        Scenario,
        scenario_id=st.uuids().map(lambda u: f"s-{u.hex[:10]}"),
        sku_name=st.sampled_from(_SKUS),
        nnodes=st.integers(min_value=1, max_value=64),
        ppn=st.integers(min_value=1, max_value=120),
        appname=st.sampled_from(_APPS),
        appinputs=st.dictionaries(st.sampled_from(_KEYS), _safe_text,
                                  max_size=2),
    )
    return st.builds(
        TaskRecord,
        scenario=scenarios,
        status=st.sampled_from(list(TaskStatus)),
        exec_time_s=st.none() | st.floats(min_value=0, max_value=1e6,
                                          allow_nan=False,
                                          allow_infinity=False),
        cost_usd=st.none() | st.floats(min_value=0, max_value=1e5,
                                       allow_nan=False,
                                       allow_infinity=False),
        # Empty-string reasons decode as None (legacy serde), so keep
        # the strategy within the exactly-round-trippable domain.
        failure_reason=st.none() | _safe_text.filter(bool),
        preemptions=st.integers(min_value=0, max_value=5),
    )


def _unique_records(records):
    seen, out = set(), []
    for record in records:
        if record.scenario.scenario_id not in seen:
            seen.add(record.scenario.scenario_id)
            out.append(record)
    return out


def _make_stores(tmp_path, tag=""):
    jsonl = JsonlStore(str(tmp_path / f"d{tag}.jsonl"),
                       str(tmp_path / f"t{tag}.json"))
    sqlite = SqliteStore(str(tmp_path / f"s{tag}.sqlite"))
    return jsonl, sqlite


# -- equivalence properties -------------------------------------------------------


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=20), query=_queries())
    def test_identical_query_results(self, tmp_path_factory, points, query):
        tmp_path = tmp_path_factory.mktemp("equiv")
        jsonl, sqlite = _make_stores(tmp_path)
        try:
            jsonl.append_points(points)
            sqlite.append_points(points)
            assert jsonl.query_points(query) == sqlite.query_points(query)
            assert jsonl.count_points(query) == sqlite.count_points(query)
            # and both agree with the in-memory reference semantics
            assert jsonl.query_points(query) == query.apply(points)
        finally:
            sqlite.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=15))
    def test_point_round_trip_is_exact(self, tmp_path_factory, points):
        tmp_path = tmp_path_factory.mktemp("rt")
        jsonl, sqlite = _make_stores(tmp_path)
        try:
            jsonl.append_points(points)
            sqlite.append_points(points)
            assert jsonl.query_points() == points
            assert sqlite.query_points() == points
        finally:
            sqlite.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_records(), max_size=12))
    def test_task_round_trip_is_exact(self, tmp_path_factory, records):
        records = _unique_records(records)
        tmp_path = tmp_path_factory.mktemp("tasks")
        jsonl, sqlite = _make_stores(tmp_path)
        try:
            jsonl.sync_tasks(records, records)
            sqlite.sync_tasks(records, records)
            assert jsonl.load_tasks() == records
            assert sqlite.load_tasks() == records
        finally:
            sqlite.close()

    def test_sqlite_upsert_preserves_insertion_order(self, tmp_path):
        _, sqlite = _make_stores(tmp_path)
        try:
            records = [
                TaskRecord(scenario=Scenario(
                    scenario_id=f"s{i}", sku_name=_SKUS[0], nnodes=1,
                    ppn=1, appname="lammps", appinputs={},
                ))
                for i in range(5)
            ]
            sqlite.sync_tasks(records, records)
            records[1].status = TaskStatus.COMPLETED
            records[1].exec_time_s = 12.5
            sqlite.sync_tasks([records[1]], records)
            loaded = sqlite.load_tasks()
            assert [r.scenario.scenario_id for r in loaded] == \
                [f"s{i}" for i in range(5)]
            assert loaded[1].status is TaskStatus.COMPLETED
        finally:
            sqlite.close()


# -- migration --------------------------------------------------------------------


class TestMigration:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=15),
           records=st.lists(_records(), max_size=8),
           query=_queries())
    def test_migrated_sqlite_equals_direct_jsonl(self, tmp_path_factory,
                                                 points, records, query):
        records = _unique_records(records)
        tmp_path = tmp_path_factory.mktemp("mig")
        dataset_path = str(tmp_path / "dataset-x.jsonl")
        taskdb_path = str(tmp_path / "tasks-x.json")
        db_path = str(tmp_path / "store-x.sqlite")
        legacy = JsonlStore(dataset_path, taskdb_path)
        legacy.append_points(points)
        legacy.sync_tasks(records, records)
        expected_points = legacy.query_points(query)
        expected_tasks = legacy.load_tasks()

        migrated = open_deployment_store(dataset_path, taskdb_path, db_path,
                                         backend="sqlite")
        try:
            assert migrated.kind == "sqlite"
            assert migrated.query_points(query) == expected_points
            assert migrated.load_tasks() == expected_tasks
            # Legacy files are frozen aside, not left live.
            assert not os.path.exists(dataset_path)
            assert not os.path.exists(taskdb_path)
        finally:
            migrated.close()

    def test_migration_happens_once(self, tmp_path):
        dataset_path = str(tmp_path / "dataset-y.jsonl")
        taskdb_path = str(tmp_path / "tasks-y.json")
        db_path = str(tmp_path / "store-y.sqlite")
        JsonlStore(dataset_path, taskdb_path).append_points(
            [DataPoint(appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                       exec_time_s=1.0, cost_usd=0.1)]
        )
        first = open_deployment_store(dataset_path, taskdb_path, db_path,
                                      backend="sqlite")
        first.close()
        # Re-opening finds the database and does not re-migrate (the
        # .migrated leftovers must not be re-imported as fresh data).
        second = open_deployment_store(dataset_path, taskdb_path, db_path,
                                       backend="sqlite")
        try:
            assert second.kind == "sqlite"
            assert second.count_points() == 1
        finally:
            second.close()

    def test_existing_sqlite_wins_over_configured_jsonl(self, tmp_path):
        db_path = str(tmp_path / "store-z.sqlite")
        store = SqliteStore(db_path)
        store.append_point(DataPoint(
            appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
            exec_time_s=1.0, cost_usd=0.1,
        ))
        store.close()
        reopened = open_deployment_store(
            str(tmp_path / "dataset-z.jsonl"), str(tmp_path / "tasks-z.json"),
            db_path, backend="jsonl",
        )
        try:
            assert reopened.kind == "sqlite"  # the data lives there
            assert reopened.count_points() == 1
        finally:
            reopened.close()


# -- byte compatibility ------------------------------------------------------------


class TestJsonlByteCompatibility:
    def test_appends_match_legacy_dataset_save(self, tmp_path):
        points = [
            DataPoint(appname="lammps", sku=_SKUS[i % 2], nnodes=i + 1,
                      ppn=4, exec_time_s=float(i), cost_usd=0.5 * i,
                      appinputs={"BOXFACTOR": str(i)})
            for i in range(6)
        ]
        legacy_path = tmp_path / "legacy.jsonl"
        Dataset(points).save(str(legacy_path))
        store = JsonlStore(str(tmp_path / "store.jsonl"),
                           str(tmp_path / "tasks.json"))
        for point in points:  # one append per point, like a sweep
            store.append_point(point)
        assert (tmp_path / "store.jsonl").read_bytes() == \
            legacy_path.read_bytes()

    def test_task_sync_matches_legacy_taskdb_save(self, tmp_path):
        db = TaskDB(path=str(tmp_path / "legacy.json"))
        db.add_scenarios([
            Scenario(scenario_id=f"s{i}", sku_name=_SKUS[0], nnodes=1,
                     ppn=1, appname="lammps", appinputs={})
            for i in range(4)
        ])
        db.mark_completed("s1", exec_time_s=3.0, cost_usd=0.2)
        db.save()
        store = JsonlStore(str(tmp_path / "d.jsonl"),
                           str(tmp_path / "store-tasks.json"))
        store.sync_tasks(db.all(), db.all())
        assert (tmp_path / "store-tasks.json").read_bytes() == \
            (tmp_path / "legacy.json").read_bytes()


# -- resolution --------------------------------------------------------------------


class TestBackendResolution:
    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        assert resolve_backend() == "jsonl"
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert resolve_backend() == "sqlite"

    def test_default_is_sqlite(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert resolve_backend() == "sqlite"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        set_default_backend("sqlite")
        try:
            assert resolve_backend() == "sqlite"
            assert resolve_backend("jsonl") == "jsonl"  # explicit wins
        finally:
            set_default_backend(None)

    def test_unknown_backend_rejected(self, monkeypatch):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_STORE", "mongodb")
        with pytest.raises(ConfigError, match="unknown store backend"):
            resolve_backend()


# -- store signatures --------------------------------------------------------------


class TestSignatures:
    def test_sqlite_signature_sees_other_connections(self, tmp_path):
        db_path = str(tmp_path / "sig.sqlite")
        a = SqliteStore(db_path)
        b = SqliteStore(db_path)
        try:
            sig = a.dataset_signature()
            b.append_point(DataPoint(
                appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                exec_time_s=1.0, cost_usd=0.1,
            ))
            assert a.dataset_signature() != sig
        finally:
            a.close()
            b.close()

    def test_sqlite_recreated_database_gets_new_signatures(
            self, tmp_path, monkeypatch):
        """Regression: signatures were (inode, generation).  A database
        deleted and recreated at the same path — a purge, then a
        redeploy under the freed name — often gets the freed inode back
        and restarts the counters, so a *different* first point came
        out under the old signatures."""
        # Whether ext4 hands the freed inode straight back depends on
        # its allocator; pin the reuse so the test does not.
        monkeypatch.setattr(SqliteStore, "_stat_ino", lambda self: 4242)
        db_path = str(tmp_path / "again.sqlite")
        store = SqliteStore(db_path)
        store.append_point(DataPoint(
            appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
            exec_time_s=1.0, cost_usd=0.1,
        ))
        old = (store.dataset_signature(), store.tasks_signature())
        store.close()
        for path in store.data_paths:
            if os.path.exists(path):
                os.unlink(path)
        store = SqliteStore(db_path)
        try:
            store.append_point(DataPoint(
                appname="wrf", sku=_SKUS[1], nnodes=2, ppn=1,
                exec_time_s=2.0, cost_usd=0.2,
            ))
            assert store.dataset_signature() != old[0]
            assert store.tasks_signature() != old[1]
        finally:
            store.close()

    def test_jsonl_signature_sees_appends(self, tmp_path):
        store = JsonlStore(str(tmp_path / "d.jsonl"),
                           str(tmp_path / "t.json"))
        sig = store.dataset_signature()
        store.append_point(DataPoint(
            appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
            exec_time_s=1.0, cost_usd=0.1,
        ))
        assert store.dataset_signature() != sig

    def test_sqlite_exists_semantics(self, tmp_path):
        store = SqliteStore(str(tmp_path / "e.sqlite"))
        try:
            assert not store.exists()  # no sweep ever saved here
            store.flush_points()
            assert store.exists()  # even with zero points (empty sweep)
        finally:
            store.close()

    def test_jsonl_query_tolerates_missing_files(self, tmp_path):
        store = JsonlStore(str(tmp_path / "nope.jsonl"),
                           str(tmp_path / "nope.json"))
        assert store.query_points(Query(sku="hb120rs_v3")) == []
        assert store.count_points() == 0
        assert store.load_tasks() == []
        assert not store.exists()


class TestMigrationCrashSafety:
    def test_schema_only_debris_does_not_shadow_legacy(self, tmp_path):
        """A crash mid-migration must not leave a database that hides
        the intact legacy corpus: the build happens at a temp path and
        only a *complete* database lands at db_path."""
        dataset_path = str(tmp_path / "dataset-c.jsonl")
        taskdb_path = str(tmp_path / "tasks-c.json")
        db_path = str(tmp_path / "store-c.sqlite")
        JsonlStore(dataset_path, taskdb_path).append_points([
            DataPoint(appname="lammps", sku=_SKUS[0], nnodes=n, ppn=1,
                      exec_time_s=float(n), cost_usd=0.1)
            for n in (1, 2)
        ])
        # Simulate the crash debris: a schema-only half-built temp DB.
        SqliteStore(db_path + ".migrating").close()

        store = open_deployment_store(dataset_path, taskdb_path, db_path,
                                      backend="sqlite")
        try:
            assert store.count_points() == 2  # nothing lost
            assert not os.path.exists(db_path + ".migrating")
        finally:
            store.close()


class TestSignatureIndependence:
    def test_task_writes_do_not_invalidate_dataset_cache(self, tmp_path):
        from repro.core.scenarios import Scenario

        store = SqliteStore(str(tmp_path / "ind.sqlite"))
        try:
            point_sig = store.dataset_signature()
            record = TaskRecord(scenario=Scenario(
                scenario_id="s0", sku_name=_SKUS[0], nnodes=1, ppn=1,
                appname="lammps", appinputs={}))
            store.sync_tasks([record], [record])
            assert store.dataset_signature() == point_sig
            task_sig = store.tasks_signature()
            store.append_point(DataPoint(
                appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                exec_time_s=1.0, cost_usd=0.1))
            assert store.tasks_signature() == task_sig
            assert store.dataset_signature() != point_sig
        finally:
            store.close()


class TestQueryViewSaveSafety:
    def test_filtered_view_cannot_overwrite_the_store(self, tmp_path,
                                                      monkeypatch):
        """Regression: query_dataset results used to carry the SQLite
        file as their path, so a stray save() destroyed the database."""
        import sqlite3

        from repro.api import AdvisorSession
        from repro.errors import DatasetError
        from tests.conftest import make_config

        monkeypatch.setenv("REPRO_STORE", "sqlite")
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        view = session.query_dataset(info.name, Query(nnodes=(1,)))
        assert view.path is None
        with pytest.raises(DatasetError, match="no path"):
            view.save()
        filtered = session.dataset(info.name).filter(min_nodes=1)
        assert filtered.path is None
        # The database is still a database.
        db = sqlite3.connect(session.store.db_path(info.name))
        assert db.execute("SELECT COUNT(*) FROM datapoints").fetchone()[0] \
            == 2
        db.close()


class TestPaginationValidation:
    def test_negative_window_is_a_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="limit"):
            Query(limit=-1)
        with pytest.raises(ConfigError, match="offset"):
            Query(offset=-1)
