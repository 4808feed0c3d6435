"""Task rows linked to their points, and databases from earlier releases.

A sweep's commit writes each task row once, at registration; a
completion whose point is in the same commit only links the row to the
point's row (``tasks.point_id``) and records its execution window, and
``load_tasks`` reads the measurements back from the point.  The
contract is that ``load_tasks`` returns exactly the records the task DB
holds in memory, whatever the history and however it was split into
commits, and that a database written before the link columns existed
keeps working, including its export.
"""

import json
import os
import sqlite3
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AdvisorSession
from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.core.collector import DataCollector
from repro.core.dataset import DataPoint, Dataset, point_row
from repro.core.deployer import Deployer
from repro.core.scenarios import Scenario, generate_scenarios
from repro.core.taskdb import TaskDB, TaskRecord, TaskStatus
from repro.store import SqliteStore
from tests.conftest import make_config

#: The schema of the release before task links: a three-column
#: ``tasks`` table whose rows all carry full ``to_dict`` payloads.
EARLIER_SCHEMA = """
CREATE TABLE datapoints (
    id        INTEGER PRIMARY KEY,
    appname   TEXT NOT NULL,
    sku       TEXT NOT NULL,
    sku_lower TEXT NOT NULL,
    nnodes    INTEGER NOT NULL,
    ppn       INTEGER NOT NULL,
    capacity  TEXT NOT NULL,
    predicted INTEGER NOT NULL,
    payload   TEXT NOT NULL
);
CREATE INDEX idx_datapoints_query
    ON datapoints (appname, sku_lower, nnodes, capacity);
CREATE TABLE tasks (
    scenario_id TEXT PRIMARY KEY,
    status      TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_SKUS = ["Standard_HB120rs_v3", "Standard_HC44rs"]


def _config(**kwargs):
    kwargs.setdefault("skus", list(_SKUS))
    kwargs.setdefault("nnodes", [1, 2])
    kwargs.setdefault("appinputs", {"BOXFACTOR": ["4", "8"]})
    return make_config(**kwargs)


def _dicts(records):
    return [r.to_dict() for r in records]


def _task_columns(db_path):
    with sqlite3.connect(db_path) as conn:
        return [row[1] for row in conn.execute("PRAGMA table_info(tasks)")]


def _linked_rows(db_path):
    with sqlite3.connect(db_path) as conn:
        return dict(conn.execute(
            "SELECT scenario_id, point_id FROM tasks"
            " WHERE point_id IS NOT NULL"))


def _write_earlier_release_db(db_path, points, records):
    """A database as the release before task links wrote it."""
    conn = sqlite3.connect(db_path)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(EARLIER_SCHEMA)
        conn.executemany(
            "INSERT INTO datapoints (appname, sku, sku_lower, nnodes, ppn,"
            " capacity, predicted, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [(p.appname, p.sku, p.sku.lower(), p.nnodes, p.ppn, p.capacity,
              int(p.predicted), point_row(p, compact=True)) for p in points])
        conn.executemany(
            "INSERT INTO tasks (scenario_id, status, payload)"
            " VALUES (?, ?, ?)",
            [(r.scenario.scenario_id, r.status.value,
              json.dumps(r.to_dict(), separators=(",", ":")))
             for r in records])
        conn.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            [("points_epoch", "00112233aabbccdd"), ("dataset_saved", "1"),
             ("points_gen", "1"), ("tasks_gen", "1")])
        conn.commit()
    finally:
        conn.close()


@pytest.fixture
def earlier(tmp_path):
    """A state directory whose deployment's database an earlier release
    wrote, built from the legacy files of a real sweep.  Returns (state
    dir, deployment name, legacy tasks file, legacy dataset file)."""
    origin = AdvisorSession(state_dir=str(tmp_path / "origin"))
    name = origin.deploy(_config()).name
    origin.collect(deployment=name)
    dataset_file, tasks_file = origin.store.export_data(
        name, str(tmp_path / "legacy"))

    state_dir = str(tmp_path / "earlier")
    session = AdvisorSession(state_dir=state_dir)
    assert session.deploy(_config()).name == name
    _write_earlier_release_db(session.store.db_path(name),
                              Dataset.load(dataset_file).points(),
                              TaskDB.load(tasks_file).all())
    return state_dir, name, tasks_file, dataset_file


class TestEarlierReleaseDatabase:
    def test_opens_and_gains_the_link_columns(self, earlier):
        state_dir, name, _, _ = earlier
        db_path = os.path.join(state_dir, f"store-{name}.sqlite")
        assert _task_columns(db_path) == ["scenario_id", "status", "payload"]
        SqliteStore(db_path).close()
        assert _task_columns(db_path) == [
            "scenario_id", "status", "payload", "point_id", "started_at",
            "finished_at"]

    def test_two_handles_opening_it_at_once_both_succeed(self, earlier):
        state_dir, name, tasks_file, _ = earlier
        db_path = os.path.join(state_dir, f"store-{name}.sqlite")
        start = threading.Barrier(2)
        opened, errors = [], []

        def open_store():
            try:
                start.wait(timeout=10)
                opened.append(SqliteStore(db_path))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=open_store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        try:
            expected = _dicts(TaskDB.load(tasks_file).all())
            for store in opened:
                assert _dicts(store.load_tasks()) == expected
        finally:
            for store in opened:
                store.close()
        assert len(_task_columns(db_path)) == 6

    def test_load_tasks_returns_the_same_records(self, earlier):
        state_dir, name, tasks_file, _ = earlier
        store = SqliteStore(os.path.join(state_dir, f"store-{name}.sqlite"))
        try:
            assert store.load_tasks() == TaskDB.load(tasks_file).all()
        finally:
            store.close()

    def test_export_writes_back_the_legacy_bytes(self, earlier, tmp_path):
        state_dir, name, tasks_file, dataset_file = earlier
        session = AdvisorSession(state_dir=state_dir)
        written = session.store.export_data(name, str(tmp_path / "again"))
        with open(tasks_file, "rb") as fh:
            legacy_tasks = fh.read()
        with open(dataset_file, "rb") as fh:
            legacy_points = fh.read()
        with open(written[1], "rb") as fh:
            assert fh.read() == legacy_tasks
        with open(written[0], "rb") as fh:
            assert fh.read() == legacy_points

    def test_resumed_collect_runs_nothing(self, earlier):
        state_dir, name, _, _ = earlier
        assert AdvisorSession(state_dir=state_dir).collect(
            deployment=name).executed == 0

    def test_collect_over_a_widened_grid_adds_linked_rows(self, earlier):
        state_dir, name, tasks_file, _ = earlier
        db_path = os.path.join(state_dir, f"store-{name}.sqlite")
        wide = _config(skus=_SKUS + ["Standard_HB120rs_v2"])
        deployment = Deployer().deploy(wide)
        store = SqliteStore(db_path)
        try:
            collector = DataCollector(
                backend=AzureBatchBackend(service=deployment.batch),
                script=apps.create(wide.appname),
                dataset=Dataset(),
                taskdb=TaskDB.from_records(store.load_tasks()),
                store=store,
                deployment_name=name,
            )
            report = collector.collect(generate_scenarios(wide))
            assert report.executed == report.completed == 4
            old = {r.scenario.scenario_id for r in TaskDB.load(tasks_file).all()}
            new = {r.scenario.scenario_id for r in collector.taskdb.all()} - old
            assert set(_linked_rows(db_path)) == new
            assert _dicts(store.load_tasks()) == _dicts(collector.taskdb.all())
            assert store.count_points() == 12
        finally:
            store.close()


# -- the link under random histories ------------------------------------------------

_N = 6
_times = st.floats(min_value=0, max_value=1e7, allow_nan=False,
                   allow_infinity=False)
_money = st.floats(min_value=0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
_reasons = st.text(alphabet="abcxyz -:", min_size=1, max_size=8)
_ids = st.integers(min_value=0, max_value=_N - 1)


def _scenario(i):
    return Scenario(scenario_id=f"s{i}", sku_name=_SKUS[i % 2], nnodes=1 + i,
                    ppn=4, appname="lammps", appinputs={"BOXFACTOR": str(i)})


_completions = st.tuples(
    st.just("complete"), _ids,
    st.sampled_from(("ondemand", "spot", "predicted")),
    _times, _money,
    st.dictionaries(st.sampled_from(("APPEXECTIME", "LAMMPSSTEPS")),
                    st.text(alphabet="0123456789.", max_size=6), max_size=2),
    st.dictionaries(st.sampled_from(("cpu_util", "net_mbps")), _money,
                    max_size=2),
    st.integers(min_value=1, max_value=5), _times, _times)
_ops = st.lists(st.one_of(
    st.tuples(st.just("register"), _ids),
    _completions,
    st.tuples(st.just("fail"), _ids, _reasons, st.none() | _times,
              st.none() | _times, st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("skip"), _ids),
    st.tuples(st.just("commit")),
), max_size=40)
#: Rows an import of the legacy layout wrote (full payloads, no link).
_imported = st.lists(st.builds(
    lambda i, status, exec_time, cost, reason, started, skipped, pre:
        TaskRecord(scenario=_scenario(i), status=status,
                   exec_time_s=exec_time, cost_usd=cost,
                   failure_reason=reason, started_at=started,
                   skipped_by_sampler=skipped, preemptions=pre),
    _ids, st.sampled_from(list(TaskStatus)), st.none() | _times,
    st.none() | _money, st.none() | _reasons, st.none() | _times,
    st.booleans(), st.integers(min_value=0, max_value=5),
), max_size=4, unique_by=lambda r: r.scenario.scenario_id)


def _point(i, kind, exec_time, cost, app_vars, metrics, preemptions,
           wasted):
    scenario = _scenario(i)
    return DataPoint(
        appname=scenario.appname, sku=scenario.sku_name,
        nnodes=scenario.nnodes, ppn=scenario.ppn, exec_time_s=exec_time,
        cost_usd=cost, appinputs=dict(scenario.appinputs),
        app_vars={} if kind == "predicted" else app_vars,
        infra_metrics={} if kind == "predicted" else metrics,
        predicted=kind == "predicted",
        capacity="spot" if kind == "spot" else "ondemand",
        preemptions=preemptions if kind == "spot" else 0,
        wasted_node_s=wasted if kind == "spot" else 0.0)


class TestLinkedRowsMatchTheTaskDB:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(imported=_imported, ops=_ops)
    def test_every_commit_loads_what_the_task_db_holds(
            self, tmp_path_factory, imported, ops):
        db_path = str(tmp_path_factory.mktemp("links") / "s.sqlite")
        store = SqliteStore(db_path)
        try:
            store.commit([], imported)
            taskdb = TaskDB.from_records(store.load_tasks())
            dataset = Dataset()
            assert _dicts(store.load_tasks()) == _dicts(imported)

            def commit():
                store.commit(dataset.take_held(), taskdb.take_held())
                assert _dicts(store.load_tasks()) == _dicts(taskdb.all())

            for op in ops:
                sid = f"s{op[1]}" if len(op) > 1 else None
                known = sid is not None and sid in {
                    r.scenario.scenario_id for r in taskdb.all()}
                if op[0] == "register" and not known:
                    taskdb.add_scenarios([_scenario(op[1])])
                elif op[0] == "complete" and known:
                    _, i, kind, exec_time, cost, app_vars, metrics, \
                        preemptions, started, finished = op
                    point = _point(i, kind, exec_time, cost, app_vars,
                                   metrics, preemptions, started)
                    dataset.append(point)
                    if kind == "predicted":
                        taskdb.mark_completed(sid, point)
                    else:
                        taskdb.mark_completed(sid, point, started, finished)
                elif op[0] == "fail" and known:
                    taskdb.mark_failed(sid, op[2], started_at=op[3],
                                       finished_at=op[4], preemptions=op[5])
                elif op[0] == "skip" and known:
                    taskdb.mark_skipped(sid)
                elif op[0] == "commit":
                    commit()
            commit()
        finally:
            store.close()
        fresh = SqliteStore(db_path)
        try:
            assert _dicts(fresh.load_tasks()) == _dicts(taskdb.all())
        finally:
            fresh.close()


# -- examples -----------------------------------------------------------------------


def _swept(tmp_path, engine="batched"):
    session = AdvisorSession(state_dir=str(tmp_path / "state"))
    name = session.deploy(_config()).name
    result = session.collect(deployment=name, engine=engine)
    assert result.engine == engine and result.completed == 8
    return session, name


class TestLinkExamples:
    @pytest.mark.parametrize("engine", ["object", "batched"])
    def test_a_sweep_links_every_completion(self, tmp_path, engine):
        session, name = _swept(tmp_path, engine)
        store = session.data_store(name)
        linked = _linked_rows(store.db_path)
        assert sorted(linked) == [f"t{i:05d}" for i in range(8)]
        assert sorted(linked.values()) == list(range(1, 9))

    def test_replace_points_leaves_load_tasks_unchanged(self, tmp_path):
        session, name = _swept(tmp_path)
        store = session.data_store(name)
        before = _dicts(store.load_tasks())
        # Reversed and short by one: row ids restart and now name other
        # points, so a row still linked would load the wrong measurements.
        store.replace_points(store.query_points()[::-1][1:])
        assert _linked_rows(store.db_path) == {}
        assert _dicts(store.load_tasks()) == before
        fresh = SqliteStore(store.db_path)
        try:
            assert _dicts(fresh.load_tasks()) == before
        finally:
            fresh.close()

    def test_deleted_point_row_makes_its_task_pending_again(self, tmp_path):
        session, name = _swept(tmp_path)
        store = session.data_store(name)
        before = _dicts(store.load_tasks())
        keys = sorted((p.sku, p.nnodes, p.inputs_key())
                      for p in store.query_points())
        victim, row_id = sorted(_linked_rows(store.db_path).items())[3]
        # The repair recipe of docs/STORAGE.md: delete the row and
        # rotate the points epoch.
        with sqlite3.connect(store.db_path) as conn:
            conn.executescript(
                "BEGIN;"
                f" DELETE FROM datapoints WHERE id = {row_id};"
                " UPDATE meta SET value = lower(hex(randomblob(8)))"
                "  WHERE key = 'points_epoch';"
                " COMMIT;")

        fresh = AdvisorSession(state_dir=session.store.root)
        record = fresh.taskdb(name).get(victim)
        assert record == TaskRecord(scenario=record.scenario)
        assert fresh.taskdb(name).counts() == {
            "pending": 1, "failed": 0, "completed": 7}
        resumed = fresh.collect(deployment=name)
        assert resumed.executed == 1
        assert fresh.taskdb(name).get(victim).status is TaskStatus.COMPLETED
        assert sorted((p.sku, p.nnodes, p.inputs_key())
                      for p in fresh.query_points(name)) == keys
        # Every other record is untouched; the re-measured one has the
        # same measurement (executions are deterministic per scenario).
        after = {d["scenario"]["scenario_id"]: d
                 for d in _dicts(fresh.taskdb(name).all())}
        for old in before:
            new = after[old["scenario"]["scenario_id"]]
            if old["scenario"]["scenario_id"] != victim:
                assert new == old
            else:
                assert (new["exec_time_s"], new["cost_usd"]) \
                    == (old["exec_time_s"], old["cost_usd"])

    def test_deleted_point_under_an_imported_row_loads_pending(
            self, tmp_path):
        """A re-measured imported row keeps its old full payload under
        the link; without its point it still loads as fresh pending."""
        db_path = str(tmp_path / "s.sqlite")
        store = SqliteStore(db_path)
        try:
            imported = TaskRecord(scenario=_scenario(0),
                                  status=TaskStatus.COMPLETED,
                                  exec_time_s=5.0, cost_usd=1.0,
                                  finished_at=9.0)
            store.commit([], [imported])
            taskdb, dataset = TaskDB.from_records(store.load_tasks()), \
                Dataset()
            point = _point(0, "ondemand", 7.0, 2.0, {}, {}, 0, 0.0)
            dataset.append(point)
            taskdb.mark_completed("s0", point, 1.0, 8.0)
            store.commit(dataset.take_held(), taskdb.take_held())
            assert _dicts(store.load_tasks()) == _dicts(taskdb.all())
            with sqlite3.connect(db_path) as conn:
                conn.execute("DELETE FROM datapoints")
            assert store.load_tasks() == [TaskRecord(scenario=_scenario(0))]
        finally:
            store.close()

    def test_a_completion_whose_row_is_gone_is_not_lost(self, tmp_path):
        db_path = str(tmp_path / "s.sqlite")
        store = SqliteStore(db_path)
        try:
            taskdb, dataset = TaskDB(), Dataset()
            taskdb.add_scenarios([_scenario(0), _scenario(1)])
            store.commit(dataset.take_held(), taskdb.take_held())
            with sqlite3.connect(db_path) as conn:
                conn.execute("DELETE FROM tasks WHERE scenario_id = 's1'")
            point = _point(1, "ondemand", 12.0, 3.0, {}, {}, 0, 0.0)
            dataset.append(point)
            taskdb.mark_completed("s1", point, 5.0, 17.0)
            store.commit(dataset.take_held(), taskdb.take_held())
            assert _dicts(store.load_tasks()) == _dicts(taskdb.all())
        finally:
            store.close()

    def test_another_connection_appending_never_shifts_a_link(
            self, tmp_path):
        db_path = str(tmp_path / "s.sqlite")
        writer, other = SqliteStore(db_path), SqliteStore(db_path)
        stray = [_point(5, "ondemand", 999.0, 99.0, {}, {}, 0, 0.0)]
        real_append = writer.append_points

        def append_after_the_other(points):
            # Lands first inside the writer's commit, before its insert.
            other.append_points(stray)
            real_append(points)

        try:
            taskdb, dataset = TaskDB(), Dataset()
            taskdb.add_scenarios([_scenario(i) for i in range(4)])
            for i in range(4):
                point = _point(i, "ondemand", 10.0 + i, 1.0 + i, {}, {},
                               0, 0.0)
                dataset.append(point)
                taskdb.mark_completed(f"s{i}", point, 100.0 * i,
                                      100.0 * i + 10.0 + i)
                if i == 2:
                    writer.append_points = append_after_the_other
                writer.commit(dataset.take_held(), taskdb.take_held())
                writer.__dict__.pop("append_points", None)
                other.append_points(stray)  # between two commits
            loaded = SqliteStore(db_path)
            try:
                assert _dicts(loaded.load_tasks()) == _dicts(taskdb.all())
                assert loaded.count_points() == 4 + 5
            finally:
                loaded.close()
        finally:
            writer.close()
            other.close()
