"""The SQLite store against its references, and the legacy layout.

Hypothesis round-trip properties prove that for any corpus and any
query the store returns what the in-memory ``Query.apply`` reference
returns, that importing the legacy ``dataset-<name>.jsonl`` /
``tasks-<name>.json`` layout is lossless, and that exporting writes
exactly the bytes ``Dataset.save``/``TaskDB.save`` write.
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
from repro.store import SqliteStore, export_legacy, open_deployment_store

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


def _legacy_layout(tmp_path, points, records, name="x"):
    """Write the legacy layout with the legacy writers; returns the
    (dataset, task file, database) paths of deployment ``name``."""
    dataset_path = str(tmp_path / f"dataset-{name}.jsonl")
    taskdb_path = str(tmp_path / f"tasks-{name}.json")
    Dataset(points).save(dataset_path)
    TaskDB.from_records(records).save(taskdb_path)
    return dataset_path, taskdb_path, str(tmp_path / f"store-{name}.sqlite")


# -- the store against the in-memory reference ------------------------------------


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=20), query=_queries())
    def test_identical_query_results(self, tmp_path_factory, points, query):
        sqlite = SqliteStore(str(tmp_path_factory.mktemp("equiv")
                                 / "s.sqlite"))
        try:
            sqlite.append_points(points)
            assert sqlite.query_points(query) == query.apply(points)
            assert sqlite.count_points(query) == len(
                query.without_window().apply(points))
        finally:
            sqlite.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=15))
    def test_point_round_trip_is_exact(self, tmp_path_factory, points):
        sqlite = SqliteStore(str(tmp_path_factory.mktemp("rt") / "s.sqlite"))
        try:
            sqlite.append_points(points)
            assert sqlite.query_points() == points
        finally:
            sqlite.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_records(), max_size=12))
    def test_task_round_trip_is_exact(self, tmp_path_factory, records):
        records = _unique_records(records)
        sqlite = SqliteStore(str(tmp_path_factory.mktemp("tasks")
                                 / "s.sqlite"))
        try:
            sqlite.sync_tasks(records)
            assert sqlite.load_tasks() == records
        finally:
            sqlite.close()

    def test_sqlite_upsert_preserves_insertion_order(self, tmp_path):
        sqlite = SqliteStore(str(tmp_path / "s.sqlite"))
        try:
            records = [
                TaskRecord(scenario=Scenario(
                    scenario_id=f"s{i}", sku_name=_SKUS[0], nnodes=1,
                    ppn=1, appname="lammps", appinputs={},
                ))
                for i in range(5)
            ]
            sqlite.sync_tasks(records)
            records[1].status = TaskStatus.COMPLETED
            records[1].exec_time_s = 12.5
            sqlite.sync_tasks([records[1]])
            loaded = sqlite.load_tasks()
            assert [r.scenario.scenario_id for r in loaded] == \
                [f"s{i}" for i in range(5)]
            assert loaded[1].status is TaskStatus.COMPLETED
        finally:
            sqlite.close()


# -- import of the legacy layout -----------------------------------------------------


class TestMigration:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(_points(), max_size=15),
           records=st.lists(_records(), max_size=8),
           query=_queries())
    def test_migrated_sqlite_equals_direct_jsonl(self, tmp_path_factory,
                                                 points, records, query):
        """The imported store answers every query as the legacy files
        read directly do."""
        records = _unique_records(records)
        dataset_path, taskdb_path, db_path = _legacy_layout(
            tmp_path_factory.mktemp("mig"), points, records)
        expected_points = Dataset.load(dataset_path).query(query).points()
        expected_tasks = TaskDB.load(taskdb_path).all()
        assert expected_points == query.apply(points)
        assert expected_tasks == records

        migrated = open_deployment_store(dataset_path, taskdb_path, db_path)
        try:
            assert migrated.query_points(query) == expected_points
            assert migrated.load_tasks() == expected_tasks
            # Legacy files are frozen aside, not left live.
            assert not os.path.exists(dataset_path)
            assert not os.path.exists(taskdb_path)
        finally:
            migrated.close()

    def test_migration_happens_once(self, tmp_path):
        point = DataPoint(appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                          exec_time_s=1.0, cost_usd=0.1)
        dataset_path, taskdb_path, db_path = _legacy_layout(
            tmp_path, [point], [], name="y")
        first = open_deployment_store(dataset_path, taskdb_path, db_path)
        first.close()
        # Re-opening finds the database and does not re-import (the
        # .migrated leftovers must not be re-imported as fresh data).
        second = open_deployment_store(dataset_path, taskdb_path, db_path)
        try:
            assert second.count_points() == 1
            assert os.path.exists(dataset_path + ".migrated")
        finally:
            second.close()

    def test_existing_sqlite_wins_over_configured_jsonl(self, tmp_path):
        """Legacy files next to an existing database are never
        imported: the data lives in the database."""
        db_path = str(tmp_path / "store-z.sqlite")
        store = SqliteStore(db_path)
        store.append_point(DataPoint(
            appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
            exec_time_s=1.0, cost_usd=0.1,
        ))
        store.close()
        stray = [DataPoint(appname="wrf", sku=_SKUS[1], nnodes=n, ppn=1,
                           exec_time_s=2.0, cost_usd=0.2) for n in (1, 2)]
        dataset_path, taskdb_path, _ = _legacy_layout(tmp_path, stray, [],
                                                      name="z")
        reopened = open_deployment_store(dataset_path, taskdb_path, db_path)
        try:
            assert reopened.count_points() == 1
            assert os.path.exists(dataset_path)  # left alone, not frozen
            assert os.path.exists(taskdb_path)
        finally:
            reopened.close()


# -- byte compatibility ------------------------------------------------------------


class TestJsonlByteCompatibility:
    """``export_legacy`` writes the bytes the legacy writers write."""

    def test_appends_match_legacy_dataset_save(self, tmp_path):
        points = [
            DataPoint(appname="lammps", sku=_SKUS[i % 2], nnodes=i + 1,
                      ppn=4, exec_time_s=float(i), cost_usd=0.5 * i,
                      appinputs={"BOXFACTOR": str(i)})
            for i in range(6)
        ]
        legacy_path = tmp_path / "legacy.jsonl"
        Dataset(points).save(str(legacy_path))
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        try:
            for point in points:  # one append per point, like a sweep
                store.append_point(point)
            store.flush_points()
            export_legacy(store, str(tmp_path / "dataset.jsonl"),
                          str(tmp_path / "tasks.json"))
        finally:
            store.close()
        assert (tmp_path / "dataset.jsonl").read_bytes() == \
            legacy_path.read_bytes()

    def test_task_sync_matches_legacy_taskdb_save(self, tmp_path):
        scenarios = [
            Scenario(scenario_id=f"s{i}", sku_name=_SKUS[0], nnodes=1,
                     ppn=1, appname="lammps", appinputs={})
            for i in range(4)
        ]
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        try:
            legacy = TaskDB(path=str(tmp_path / "legacy.json"))
            stored = TaskDB()
            for db in (legacy, stored):
                db.add_scenarios(scenarios)
                db.mark_completed("s1", DataPoint(
                    appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                    exec_time_s=3.0, cost_usd=0.2))
                db.mark_failed("s3", "quota")
            legacy.save()
            store.sync_tasks(stored.take_held())
            written = export_legacy(store, str(tmp_path / "d.jsonl"),
                                    str(tmp_path / "store-tasks.json"))
        finally:
            store.close()
        # No sweep saved a dataset, so only the task file is written.
        assert written == (str(tmp_path / "store-tasks.json"),)
        assert (tmp_path / "store-tasks.json").read_bytes() == \
            (tmp_path / "legacy.json").read_bytes()


# -- the one store ------------------------------------------------------------------


class TestBackendResolution:
    def test_default_is_sqlite(self, tmp_path, monkeypatch):
        from repro.api import AdvisorSession
        from tests.conftest import make_config

        # The variable that used to select the engine is ignored.
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        for backend in (None, "sqlite"):
            session = AdvisorSession(state_dir=str(tmp_path / str(backend)),
                                     store_backend=backend)
            name = session.deploy(make_config()).name
            assert session.collect(deployment=name).store_backend == "sqlite"
            assert session.data_store(name).kind == "sqlite"

    def test_unknown_backend_rejected(self, tmp_path):
        from repro.api import AdvisorSession
        from repro.errors import ConfigError

        for backend in ("jsonl", "mongodb"):
            with pytest.raises(ConfigError, match="export"):
                AdvisorSession(state_dir=str(tmp_path),
                               store_backend=backend)


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
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(db_path + suffix):
                os.unlink(db_path + suffix)
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

    def test_sqlite_exists_semantics(self, tmp_path):
        store = SqliteStore(str(tmp_path / "e.sqlite"))
        try:
            assert not store.exists()  # no sweep ever saved here
            store.flush_points()
            assert store.exists()  # even with zero points (empty sweep)
        finally:
            store.close()

    def test_jsonl_query_tolerates_missing_files(self, tmp_path):
        """A legacy layout missing either file imports what is there;
        with neither file there is nothing to import."""
        point = DataPoint(appname="lammps", sku=_SKUS[0], nnodes=1, ppn=1,
                          exec_time_s=1.0, cost_usd=0.1)
        record = TaskRecord(scenario=Scenario(
            scenario_id="s0", sku_name=_SKUS[0], nnodes=1, ppn=1,
            appname="lammps", appinputs={}))
        for keep, points, tasks, exists in (
                ("dataset", [point], [], True),
                ("tasks", [], [record], False),
                ("", [], [], False)):
            root = tmp_path / (keep or "neither")
            root.mkdir()
            dataset_path, taskdb_path, db_path = _legacy_layout(
                root, points, tasks)
            for kind, path in (("dataset", dataset_path),
                               ("tasks", taskdb_path)):
                if kind != keep:
                    os.unlink(path)
            store = open_deployment_store(dataset_path, taskdb_path,
                                          db_path)
            try:
                assert store.query_points(Query(sku="hb120rs_v3")) == points
                assert store.count_points() == len(points)
                assert store.load_tasks() == tasks
                assert store.exists() is exists
                assert not os.path.exists(dataset_path)
                assert not os.path.exists(taskdb_path)
            finally:
                store.close()


class TestMigrationCrashSafety:
    def test_schema_only_debris_does_not_shadow_legacy(self, tmp_path):
        """A crash mid-migration must not leave a database that hides
        the intact legacy corpus: the build happens at a temp path and
        only a *complete* database lands at db_path."""
        dataset_path, taskdb_path, db_path = _legacy_layout(tmp_path, [
            DataPoint(appname="lammps", sku=_SKUS[0], nnodes=n, ppn=1,
                      exec_time_s=float(n), cost_usd=0.1)
            for n in (1, 2)
        ], [], name="c")
        # Simulate the crash debris: a schema-only half-built temp DB.
        SqliteStore(db_path + ".migrating").close()

        store = open_deployment_store(dataset_path, taskdb_path, db_path)
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
            store.sync_tasks([record])
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
    def test_filtered_view_cannot_overwrite_the_store(self, tmp_path):
        """Regression: query_dataset results used to carry the SQLite
        file as their path, so a stray save() destroyed the database."""
        import sqlite3

        from repro.api import AdvisorSession
        from repro.errors import DatasetError
        from tests.conftest import make_config

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

    def test_filtered_view_of_a_legacy_file_cannot_overwrite_it(
            self, tmp_path):
        """A view of a dataset loaded from a legacy file carries no path
        either: a stray save() used to overwrite the whole corpus with
        the subset."""
        from repro.errors import DatasetError

        path = str(tmp_path / "dataset.jsonl")
        points = [DataPoint(appname="lammps", sku=_SKUS[0], nnodes=n,
                            ppn=4, exec_time_s=10.0 / n, cost_usd=1.0)
                  for n in (1, 2, 4)]
        Dataset(points).save(path)
        for view in (Dataset.load(path).filter(min_nodes=2),
                     Dataset.load(path).filter(nnodes=()),
                     Dataset.load(path).query(Query(nnodes=(1,)))):
            assert view.path is None
            with pytest.raises(DatasetError, match="no path"):
                view.save()
        assert Dataset.load(path).points() == points


class TestPaginationValidation:
    def test_negative_window_is_a_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="limit"):
            Query(limit=-1)
        with pytest.raises(ConfigError, match="offset"):
            Query(offset=-1)


class TestNonFiniteMeasurements:
    """NaN and ±inf never reach a store.  JSON has no token for them:
    SQLite's ``json_extract`` rejected the ``NaN``/``Infinity`` rows
    Python wrote, so one bad row broke every columnar advice on the
    deployment with an untyped ``OperationalError``, and a non-finite
    exec time broke every spot what-if with a bare ``ValueError``."""

    GOOD = [
        DataPoint(appname="lammps", sku="Standard_HB120rs_v3", nnodes=n,
                  ppn=100, exec_time_s=900.0 / n, cost_usd=0.5 * n,
                  appinputs={"BOXFACTOR": "4"})
        for n in (1, 2, 4)
    ]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_exec_time_is_refused_at_construction(self, value):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError, match="exec_time_s"):
            DataPoint(appname="lammps", sku="Standard_HB120rs_v3",
                      nnodes=1, ppn=100, exec_time_s=value, cost_usd=1.0)
        with pytest.raises(DatasetError, match="exec_time_s"):
            DataPoint.from_dict({
                "appname": "lammps", "sku": "Standard_HB120rs_v3",
                "nnodes": 1, "exec_time_s": value, "cost_usd": 1.0})

    @pytest.mark.parametrize("field, change", [
        ("cost_usd", {"cost_usd": float("inf")}),
        ("makespan_s", {"makespan_s": float("nan")}),
        ("infra_metrics", {"infra_metrics": {"net_mbps": float("inf")}}),
    ])
    def test_store_refuses_the_row_and_advice_still_works(
            self, tmp_path, field, change):
        import dataclasses

        from repro.api.requests import AdviseRequest
        from repro.api.session import AdvisorSession
        from repro.core.statefiles import StateStore
        from repro.errors import DatasetError
        from tests.conftest import make_config

        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config()).name
        store = session.data_store(name)
        store.append_points(self.GOOD)
        bad = dataclasses.replace(self.GOOD[0], **change)
        with pytest.raises(DatasetError, match=field):
            store.append_points([bad])
        with pytest.raises(DatasetError, match=field):
            store.replace_points(self.GOOD + [bad])
        assert store.count_points() == len(self.GOOD)
        for capacity in ("", "spot"):
            answers = [
                session.advise(AdviseRequest(
                    deployment=name, engine=engine, capacity=capacity,
                    eviction_rate=30.0 if capacity else None)).rows
                for engine in ("columnar", "objects")
            ]
            assert answers[0] == answers[1] and answers[0]

    @pytest.mark.parametrize("token", ["Infinity", "1e999"])
    def test_legacy_row_is_named_and_the_documented_repair_works(
            self, tmp_path, token):
        """A store written before non-finite values were refused may
        hold an ``Infinity`` exec time (what ``json.dumps`` wrote).
        Every read names the field and the row id, and the hand repair
        in docs/STORAGE.md brings the deployment back.  SQLite before
        3.42 cannot parse ``Infinity`` and later versions can; ``1e999``
        is valid JSON that every version reads as inf, so both
        column-fetch checks run whatever the SQLite version."""
        import sqlite3

        from repro.api.requests import AdviseRequest
        from repro.api.session import AdvisorSession
        from repro.core.statefiles import StateStore
        from repro.errors import DatasetError
        from tests.conftest import make_config

        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        name = session.deploy(make_config()).name
        store = session.data_store(name)
        store.append_points(self.GOOD)

        def advise(engine):
            return session.advise(AdviseRequest(
                deployment=name, engine=engine)).rows

        before = advise("columnar")
        legacy = dict(self.GOOD[1].to_dict(), exec_time_s=float("inf"))
        payload = json.dumps(legacy).replace("Infinity", token)
        # As the old append_points did: insert, bump, commit.
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT INTO datapoints (appname, sku, sku_lower,"
                " nnodes, ppn, capacity, predicted, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, 0, ?)",
                ("lammps", legacy["sku"], legacy["sku"].lower(), 2,
                 100, "ondemand", payload))
            conn.execute("UPDATE meta SET value = CAST(value AS INTEGER)"
                         " + 1 WHERE key = 'points_gen'")
        where = f"{store.db_path!r}, datapoints id 4"
        for read in (store.query_points, lambda: advise("objects"),
                     lambda: advise("columnar")):
            with pytest.raises(DatasetError) as caught:
                read()
            assert where in str(caught.value)
            assert "non-finite exec_time_s: inf" in str(caught.value)

        # The repair from docs/STORAGE.md, "Repairing a corrupt row".
        with sqlite3.connect(store.db_path) as conn:
            conn.executescript(
                "BEGIN;"
                " DELETE FROM datapoints WHERE id = 4;"
                " UPDATE meta SET value = lower(hex(randomblob(8)))"
                "  WHERE key = 'points_epoch';"
                " COMMIT;")
        assert advise("columnar") == advise("objects") == before

    @pytest.mark.parametrize("token", ["Infinity", "1e999"])
    def test_legacy_file_row_fails_the_import_until_repaired(
            self, tmp_path, token):
        """The same row in a legacy ``dataset-<name>.jsonl``: the import
        names the file and line and creates no database, and once the
        line is deleted as docs/STORAGE.md says, the import runs."""
        from repro.api.requests import AdviseRequest
        from repro.api.session import AdvisorSession
        from repro.core.statefiles import StateStore
        from repro.errors import DatasetError
        from tests.conftest import make_config

        reference = AdvisorSession()
        name = reference.deploy(make_config()).name
        reference.dataset(name, must_exist=False).extend(self.GOOD)
        before = reference.advise(AdviseRequest(deployment=name)).rows

        session = AdvisorSession(store=StateStore(root=str(tmp_path)))
        assert session.deploy(make_config()).name == name
        dataset_path = session.store.dataset_path(name)
        db_path = session.store.db_path(name)
        legacy = dict(self.GOOD[1].to_dict(), exec_time_s=float("inf"))
        Dataset(self.GOOD).save(dataset_path)
        with open(dataset_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(legacy).replace("Infinity", token) + "\n")

        def advise(engine):
            return session.advise(AdviseRequest(
                deployment=name, engine=engine)).rows

        for engine in ("objects", "columnar"):
            with pytest.raises(DatasetError) as caught:
                advise(engine)
            assert f"{dataset_path!r} line 4" in str(caught.value)
            assert "non-finite exec_time_s: inf" in str(caught.value)
            assert not os.path.exists(db_path)
            assert not os.path.exists(db_path + ".migrating")
            assert os.path.exists(dataset_path)

        # The repair from docs/STORAGE.md: delete the line, then open.
        with open(dataset_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(dataset_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:3] + lines[4:])
        assert advise("columnar") == advise("objects") == before
        assert os.path.exists(db_path)
        assert os.path.exists(dataset_path + ".migrated")
