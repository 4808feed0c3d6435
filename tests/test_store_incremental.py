"""Incremental persistence end to end: crash safety, import, parity.

The acceptance contract of the ``repro.store`` layer:

* a sweep killed mid-flight keeps **every** completed point and task
  status on disk (no end-of-sweep save required);
* a process hard-killed inside a commit (the object walk's per-outcome
  one or the batched engine's per-pool one) never leaves a completed
  task row without its point, and the resumed sweep re-runs exactly
  the scenarios that commit did not cover;
* the scheduled walk (a commit per scenario outcome) and the batched
  engine's one-pool loop (a commit per pool) leave row-identical
  corpora and byte-identical exports;
* a state directory in the legacy JSONL layout imports in place with
  identical advice, and export then import reproduces points, tasks
  and advice exactly.

Tests taking the ``origin`` fixture run twice: on the store a sweep
wrote (``sqlite``), and on that store after a round trip through the
legacy layout (``jsonl``): exported, its database deleted, and the
files imported on the next open.
"""

import os
import shutil

import pytest

from repro.api import AdvisorSession
from repro.core.query import Query
from repro.core.statefiles import StateStore
from tests.conftest import make_config

ORIGINS = ("jsonl", "sqlite")


@pytest.fixture(params=ORIGINS)
def origin(request):
    return request.param


def _as_legacy_layout(state_dir, name, export_dir):
    """Replace the deployment's database with its export, so the next
    open imports the legacy files (what a state directory written by an
    older release holds)."""
    store = StateStore(root=state_dir)
    written = store.export_data(name, export_dir)
    store.release_data_store(name)
    db_path = store.db_path(name)
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(db_path + suffix):
            os.unlink(db_path + suffix)
    for path in written:
        shutil.move(path, os.path.join(state_dir, os.path.basename(path)))


def _settle(origin, session, name, tmp_path):
    """For the ``jsonl`` origin, round-trip the deployment through the
    legacy layout (module docstring)."""
    if origin == "jsonl":
        session.store.release_data_store(name)
        _as_legacy_layout(session.store.root, name,
                          str(tmp_path / "export"))


def _config(**kwargs):
    kwargs.setdefault("skus", ["Standard_HB120rs_v3", "Standard_HC44rs"])
    kwargs.setdefault("nnodes", [1, 2])
    return make_config(**kwargs)


class Boom(Exception):
    pass


class TestKillMidSweep:
    def test_completed_points_survive_an_aborted_sweep(self, tmp_path,
                                                       origin):
        """Abort after the second scenario outcome: both completed
        points and their task records must already be on disk."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        seen = []

        def bomb(report, total):
            seen.append(report.completed)
            if report.completed >= 2:
                raise Boom("simulated crash")

        with pytest.raises(Boom):
            session.collect(deployment=info.name, progress=bomb)
        assert max(seen) == 2
        _settle(origin, session, info.name, tmp_path)

        # A *fresh* process (new session, new store handles) sees the
        # two completed points and resumes the remaining scenarios.
        fresh = AdvisorSession(state_dir=state_dir)
        assert len(fresh.dataset(info.name)) == 2
        statuses = fresh.taskdb(info.name).counts()
        assert statuses["completed"] == 2
        assert statuses["pending"] == 2
        resumed = fresh.collect(deployment=info.name)
        assert resumed.executed == 2  # only the unfinished half
        assert resumed.dataset_points == 4

    def test_kill_before_any_save_still_persists_first_point(
            self, tmp_path, origin):
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())

        def bomb(report, total):
            raise Boom("die on the very first outcome")

        with pytest.raises(Boom):
            session.collect(deployment=info.name, progress=bomb)
        _settle(origin, session, info.name, tmp_path)
        fresh = AdvisorSession(state_dir=state_dir)
        assert len(fresh.dataset(info.name)) == 1

    @pytest.mark.parametrize("engine", ["object", "batched"])
    def test_failed_commit_reruns_in_the_same_session(self, tmp_path,
                                                      monkeypatch, engine):
        """A commit that raises (disk full, database locked) persists
        nothing, but the aborted sweep had already marked its outcomes
        in the session's cached task DB: the next collect must not
        trust that cache and skip them."""
        from repro.store.sqlite import SqliteStore

        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())

        def full_disk(self, points, changed):
            raise Boom("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(SqliteStore, "commit", full_disk)
            with pytest.raises(Boom):
                session.collect(deployment=info.name, engine=engine)
        resumed = session.collect(deployment=info.name, engine=engine)
        assert resumed.executed == 4
        assert resumed.dataset_points == 4


#: Child process for TestHardKillMidCommit: resumes the collect of
#: deployment argv[2] in state dir argv[1] on engine argv[5] and dies
#: (like ``kill -9``: no cleanup, no flush) on call number argv[4] into
#: the store's ``argv[3]`` method.
_KILL_CHILD = """
import os, sys
from repro.api import AdvisorSession
from repro.store.sqlite import SqliteStore

state_dir, name, method, kill_at, engine = sys.argv[1:6]
calls = [0]
def dying(self, *args, _real=getattr(SqliteStore, method)):
    calls[0] += 1
    if calls[0] == int(kill_at):
        os._exit(9)
    return _real(self, *args)
setattr(SqliteStore, method, dying)
AdvisorSession(state_dir=state_dir).collect(deployment=name, engine=engine)
"""


class TestHardKillMidCommit:
    """2 SKUs x 2 node counts x 3 inputs: two pools of 6 scenarios.  The
    batched engine commits twice (once per pool release), the object
    walk once per scenario outcome; each commit writes its points, then
    its task records, in one transaction."""

    def _scenario_keys(self, records):
        return [(r.scenario.sku_name, r.scenario.nnodes,
                 r.scenario.inputs_key()) for r in records]

    def _point_keys(self, points):
        return [(p.sku, p.nnodes, p.inputs_key()) for p in points]

    @pytest.mark.parametrize("engine,method,kill_at", [
        # Inside the first pool's commit, inside the second, and in the
        # second between points and tasks.
        pytest.param("batched", "append_points", 1, id="append_points-1"),
        pytest.param("batched", "append_points", 2, id="append_points-2"),
        pytest.param("batched", "sync_tasks", 2, id="sync_tasks-2"),
        # Between points and tasks of the second and the eighth
        # outcome's commit, and in the third's before its points.
        ("object", "sync_tasks", 2),
        ("object", "sync_tasks", 8),
        ("object", "append_points", 3),
    ])
    def test_no_completed_task_without_its_point(self, tmp_path, origin,
                                                 engine, method, kill_at):
        import subprocess
        import sys

        state_dir = str(tmp_path / "state")
        info = AdvisorSession(state_dir=state_dir).deploy(
            _config(appinputs={"BOXFACTOR": ["4", "8", "12"]}))
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, state_dir, info.name,
             method, str(kill_at), engine],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 9, child.stderr

        fresh = AdvisorSession(state_dir=state_dir)
        _settle(origin, fresh, info.name, tmp_path)
        records = fresh.taskdb(info.name).all()
        completed = [r for r in records
                     if r.status.value == "completed"]
        point_keys = self._point_keys(
            fresh.dataset(info.name, must_exist=False).points())
        assert set(self._scenario_keys(completed)) <= set(point_keys)

        resumed = fresh.collect(deployment=info.name, engine=engine)
        assert resumed.engine == engine, resumed.engine_fallback
        assert resumed.executed == 12 - len(completed)
        final = self._point_keys(fresh.dataset(info.name).points())
        assert set(final) == set(self._scenario_keys(
            fresh.taskdb(info.name).all()))
        # Points and tasks commit together: each point once.
        assert len(final) == 12
        # Every commit before the kill survived, nothing of the one it
        # landed in: a pool of six scenarios, or one outcome.
        per_commit = 6 if engine == "batched" else 1
        assert len(completed) == per_commit * (kill_at - 1)


class TestStoreCommit:
    def test_sqlite_commit_rolls_back_points_when_tasks_fail(self,
                                                             tmp_path):
        from repro.core.dataset import DataPoint
        from repro.core.scenarios import Scenario
        from repro.core.taskdb import TaskRecord
        from repro.store.sqlite import SqliteStore

        store = SqliteStore(str(tmp_path / "state.sqlite"))
        point = DataPoint(appname="lammps", sku="Standard_HC44rs",
                          nnodes=1, ppn=4, exec_time_s=1.0, cost_usd=0.5)
        record = TaskRecord(scenario=Scenario(
            scenario_id="s1", sku_name="Standard_HC44rs", nnodes=1, ppn=4,
            appname="lammps", appinputs={"BOXFACTOR": "4"}))
        before = store.dataset_signature()

        def broken_sync(changed):
            raise Boom("disk full")

        store.sync_tasks = broken_sync
        with pytest.raises(Boom):
            store.commit([point], [record])
        assert store.count_points() == 0
        assert store.dataset_signature() == before
        del store.sync_tasks  # the class method again
        store.commit([point], [record])
        assert store.query_points() == [point]
        assert [r.scenario.scenario_id for r in store.load_tasks()] == ["s1"]
        store.close()


class TestBackendParity:
    def test_both_backends_collect_identical_measurements(self, tmp_path):
        """collect -> export -> a fresh state directory holding the two
        files: the store a sweep wrote and the store imported from its
        legacy layout hold identical points and tasks and give
        identical advice, and a resumed collect runs nothing."""
        session = AdvisorSession(state_dir=str(tmp_path / "sqlite"))
        info = session.deploy(_config())
        assert session.collect(deployment=info.name).store_backend \
            == "sqlite"
        export_dir = str(tmp_path / "export")
        written = session.store.export_data(info.name, export_dir)
        assert sorted(os.listdir(export_dir)) == [
            f"dataset-{info.name}.jsonl", f"tasks-{info.name}.json"]

        state_dir = str(tmp_path / "jsonl")
        fresh = AdvisorSession(state_dir=state_dir)
        assert fresh.deploy(_config()).name == info.name
        for path in written:
            shutil.copy(path, state_dir)
        assert fresh.dataset(info.name).points() \
            == session.dataset(info.name).points()
        assert self._tasks(fresh, info.name) \
            == self._tasks(session, info.name)
        for engine in ("objects", "columnar"):
            assert fresh.advise(deployment=info.name, engine=engine) \
                == session.advise(deployment=info.name, engine=engine)
        assert fresh.collect(deployment=info.name).executed == 0
        assert os.path.exists(fresh.store.db_path(info.name))

    def _sweep(self, state_dir, engine):
        """One full sweep at one pool: ``object`` runs the scheduled
        walk, writing each scenario through to the store; ``batched``
        runs Algorithm 1's literal loop, committing once per pool."""
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        result = session.collect(deployment=info.name, max_parallel_pools=1,
                                 engine=engine)
        assert result.engine == engine, result.engine_fallback
        return session, info

    def _tasks(self, session, name):
        return [r.to_dict() for r in session.taskdb(name).all()]

    def test_scheduled_and_sequential_files_are_byte_identical(
            self, tmp_path):
        """The incremental write path preserves the scheduler-equals-
        sequential guarantee down to the exported legacy bytes."""
        blobs = {}
        for engine in ("object", "batched"):
            session, info = self._sweep(str(tmp_path / engine), engine)
            blobs[engine] = []
            for path in session.store.export_data(
                    info.name, str(tmp_path / f"export-{engine}")):
                with open(path, "rb") as fh:
                    blobs[engine].append(fh.read())
        assert len(blobs["object"]) == 2
        assert blobs["object"] == blobs["batched"]

    def test_scheduled_and_sequential_sqlite_rows_identical(
            self, tmp_path):
        rows, tasks = {}, {}
        for engine in ("object", "batched"):
            session, info = self._sweep(str(tmp_path / engine), engine)
            rows[engine] = session.data_store(info.name).query_points()
            tasks[engine] = self._tasks(session, info.name)
        assert rows["object"] == rows["batched"]
        assert tasks["object"] == tasks["batched"]

    def test_higher_parallelism_keeps_measurements_identical(
            self, tmp_path):
        """Overlapped pools may reorder appends and shift timestamps,
        but the stored measurements are the same set."""

        def measured(session, name):
            return sorted(
                (p.sku, p.nnodes, p.inputs_key(), p.exec_time_s, p.cost_usd)
                for p in session.dataset(name)
            )

        results = {}
        for label, pools in (("p1", 1), ("p2", 2)):
            session = AdvisorSession(state_dir=str(tmp_path / label))
            info = session.deploy(_config())
            session.collect(deployment=info.name, max_parallel_pools=pools)
            results[label] = measured(session, info.name)
        assert results["p1"] == results["p2"]


class TestInPlaceMigration:
    def test_jsonl_state_dir_migrates_with_identical_advice(self, tmp_path):
        state_dir = str(tmp_path / "state")
        # 1. A state dir in the legacy JSONL layout.
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        before = session.advise(deployment=info.name)
        session.store.release_data_store(info.name)
        _as_legacy_layout(state_dir, info.name, str(tmp_path / "export"))
        legacy_dataset = session.store.dataset_path(info.name)
        assert os.path.exists(legacy_dataset)
        assert not os.path.exists(session.store.db_path(info.name))

        # 2. Re-open the same state dir: the first open imports it.
        migrated = AdvisorSession(state_dir=state_dir)
        after = migrated.advise(deployment=info.name)
        assert after.rows == before.rows
        assert after.dataset_points == before.dataset_points
        # Migration happened in place: the database exists, the legacy
        # files are frozen aside, and the task DB still knows everything
        # completed (a resume would re-run nothing).
        assert os.path.exists(migrated.store.db_path(info.name))
        assert not os.path.exists(legacy_dataset)
        assert os.path.exists(legacy_dataset + ".migrated")
        resumed = migrated.collect(deployment=info.name)
        assert resumed.executed == 0

    def test_migrated_store_keeps_appending(self, tmp_path):
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"]))
        session.collect(deployment=info.name)
        session.store.release_data_store(info.name)
        _as_legacy_layout(state_dir, info.name, str(tmp_path / "export"))

        migrated = AdvisorSession(state_dir=state_dir)
        dataset = migrated.dataset(info.name)
        assert len(dataset) == 2
        migrated.data_store(info.name).append_points([dataset.points()[0]])
        assert len(AdvisorSession(state_dir=state_dir).dataset(
            info.name)) == 3


class TestSessionQueryPushdown:
    def test_datapoints_pagination_and_total(self, tmp_path, origin):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        page = session.datapoints(info.name, Query(limit=3))
        assert page.total == 4
        assert len(page.points) == 3
        assert page.has_more
        rest = session.datapoints(info.name, Query(limit=3, offset=3))
        assert len(rest.points) == 1
        assert not rest.has_more
        assert page.points + rest.points == tuple(
            session.dataset(info.name).points()
        )
        assert page.store_backend == "sqlite"

    def test_filtered_count_matches_query(self, tmp_path, origin):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        q = Query(sku="hb120rs_v3")
        assert session.count_points(info.name, q) == 2
        assert len(session.query_points(info.name, q)) == 2

    def test_query_dataset_cold_cache_pushes_down(self, tmp_path, origin):
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        # A brand-new session has no cached dataset: the filter runs in
        # the storage engine and returns only the matching points.
        cold = AdvisorSession(state_dir=state_dir)
        subset = cold.query_dataset(info.name, Query(nnodes=(2,)))
        assert sorted(p.sku for p in subset) == sorted(
            ["Standard_HB120rs_v3", "Standard_HC44rs"]
        )
        assert all(p.nnodes == 2 for p in subset)


class TestPurge:
    def test_shutdown_purge_removes_orphaned_state(self, tmp_path, origin):
        """Regression: remove_deployment used to drop only the index
        entry, leaving dataset/taskdb/store and lock files orphaned
        forever.  After an import the ``.migrated`` files go too."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        session.plot(deployment=info.name)
        assert session.store.data_files(info.name)

        session.shutdown(info.name, purge_data=True)
        assert session.store.data_files(info.name) == ()
        leftovers = [
            f for f in os.listdir(state_dir)
            if info.name in f and not f.startswith("archive")
        ]
        assert leftovers == []  # no data, no .lock, no plots dir

    def test_default_shutdown_keeps_data(self, tmp_path, origin):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        session.shutdown(info.name)
        assert session.store.data_files(info.name)

    def test_store_level_purge_regression(self, tmp_path, origin):
        """StateStore.remove_deployment(purge_data=True) cleans the lock
        sidecars too."""
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"]))
        session.collect(deployment=info.name)
        _settle(origin, session, info.name, tmp_path)
        store = StateStore(root=session.store.root)
        store.remove_deployment(info.name, purge_data=True)
        assert store.data_files(info.name) == ()
        assert not os.path.exists(
            store.dataset_path(info.name) + ".lock")
        assert not os.path.exists(store.taskdb_path(info.name) + ".lock")


class TestReadPathSideEffects:
    def test_listing_never_created_deployments_creates_no_files(
            self, tmp_path):
        """`deploy list` over never-collected deployments must not
        litter the state dir with empty store databases."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        for i in range(3):
            session.deploy(_config(rgprefix=f"ro{i}rg",
                                   skus=["Standard_HB120rs_v3"],
                                   nnodes=[1]))
        fresh = AdvisorSession(state_dir=state_dir)
        infos = fresh.list_deployments()
        assert [i.dataset_points for i in infos] == [0, 0, 0]
        # Lock sidecars appear at deploy time (pre-existing behavior);
        # what must NOT appear is any data file.
        files = [f for f in os.listdir(state_dir)
                 if not f.endswith(".lock")]
        assert not any(f.startswith("store-") for f in files)
        assert not any(f.startswith("dataset-") for f in files)

    @pytest.mark.parametrize("read", [
        lambda session, name: session.dataset(name),
        lambda session, name: session.query_dataset(name, Query()),
        lambda session, name: session.snapshot(name),
    ], ids=["dataset", "query_dataset", "snapshot"])
    def test_must_exist_read_does_not_create_database(self, tmp_path,
                                                      read):
        from repro.errors import ReproError

        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"],
                                      nnodes=[1]))
        with pytest.raises(ReproError, match="run collect first"):
            read(session, info.name)
        assert session.store.data_files(info.name) == ()


class TestFilterSemantics:
    def test_empty_nnodes_sequence_matches_nothing(self):
        """Historical Dataset.filter contract: nnodes=[] is an empty
        allow-set (matches nothing), unlike nnodes=None (no filter)."""
        from repro.core.dataset import DataPoint, Dataset

        data = Dataset([DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=2,
            ppn=1, exec_time_s=1.0, cost_usd=0.1,
        )])
        assert len(data.filter(nnodes=[])) == 0
        assert len(data.filter(nnodes=None)) == 1
        assert len(data.filter(nnodes=[2])) == 1
