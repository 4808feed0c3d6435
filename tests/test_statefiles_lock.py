"""Advisory file-locking tests: concurrent writers must not lose updates.

The service's job workers (and any number of CLI processes) share one
state directory; :class:`repro.core.statefiles.FileLock` serializes the
read-modify-write cycles on the deployments index and the task-DB /
dataset writes.  These tests hammer the paths with concurrent writers
and assert nothing is lost or corrupted.
"""

import json
import threading

import pytest

from repro.core.dataset import DataPoint, Dataset
from repro.core.deployer import Deployer
from repro.core.statefiles import FileLock, StateStore, file_lock
from repro.core.taskdb import TaskDB
from tests.conftest import make_config


class TestFileLock:
    def test_reentrant_within_a_thread(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.json"))
        with lock:
            with lock:  # must not deadlock
                assert lock.held
            assert lock.held
        assert not lock.held

    def test_release_without_acquire_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            FileLock(str(tmp_path / "x.json")).release()

    def test_mutual_exclusion_across_lock_instances(self, tmp_path):
        """Two FileLock objects on one path (like two processes) must
        serialize their critical sections."""
        path = str(tmp_path / "shared.json")
        inside = {"count": 0, "max": 0}
        meter = threading.Lock()

        def writer():
            for _ in range(20):
                with file_lock(path):
                    with meter:
                        inside["count"] += 1
                        inside["max"] = max(inside["max"], inside["count"])
                    with meter:
                        inside["count"] -= 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert inside["max"] == 1

    def test_lock_file_is_a_sidecar(self, tmp_path):
        path = str(tmp_path / "data.json")
        with file_lock(path):
            pass
        assert (tmp_path / "data.json.lock").exists()
        assert not (tmp_path / "data.json").exists()  # lock never creates it


class TestConcurrentIndexWriters:
    def test_no_lost_deployments_with_two_concurrent_writers(self, tmp_path):
        """Regression: two stores (one per thread, like two processes)
        interleaving save_deployment must not lose each other's records
        to a read-modify-write race."""
        root = str(tmp_path / "state")
        count_per_writer = 12
        errors = []

        def writer(worker: int):
            try:
                store = StateStore(root=root)  # own instance, own lock fd
                deployer = Deployer()
                for i in range(count_per_writer):
                    config = make_config(rgprefix=f"w{worker}rg")
                    deployment = deployer.deploy(config, suffix=f"-{i:03d}")
                    store.save_deployment(deployment)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        names = {r["name"] for r in StateStore(root=root).list_deployments()}
        expected = {
            f"w{w}rg-{i:03d}"
            for w in range(2) for i in range(count_per_writer)
        }
        assert names == expected  # nothing lost, nothing extra

    def test_index_stays_valid_json_throughout(self, tmp_path):
        root = str(tmp_path / "state")
        store = StateStore(root=root)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                try:
                    store.list_deployments()
                except Exception as exc:  # pragma: no cover
                    bad.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        deployer = Deployer()
        for i in range(10):
            deployment = deployer.deploy(make_config(rgprefix="jrg"),
                                         suffix=f"-{i:03d}")
            store.save_deployment(deployment)
        stop.set()
        thread.join(timeout=30)
        assert not bad


class TestConcurrentDataWriters:
    def _point(self, i: int) -> DataPoint:
        return DataPoint(appname="lammps", sku="Standard_HB120rs_v3",
                         nnodes=1, ppn=100, exec_time_s=float(i),
                         cost_usd=0.1)

    def test_concurrent_taskdb_saves_never_corrupt_the_file(self, tmp_path):
        path = str(tmp_path / "tasks.json")
        errors = []

        def writer(worker: int):
            try:
                db = TaskDB()
                from repro.core.scenarios import Scenario

                db.add_scenarios([
                    Scenario(scenario_id=f"s{worker}-{i}",
                             sku_name="Standard_HB120rs_v3", nnodes=1,
                             ppn=100, appname="lammps", appinputs={})
                    for i in range(5)
                ])
                for _ in range(10):
                    db.save(path)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # Whatever write landed last, the file is complete, valid JSON
        # with one writer's full record set (never an interleaved mix).
        loaded = TaskDB.load(path)
        ids = {r.scenario.scenario_id for r in loaded.all()}
        assert ids in (
            {f"s0-{i}" for i in range(5)},
            {f"s1-{i}" for i in range(5)},
        )

    def test_concurrent_dataset_saves_stay_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        errors = []

        def writer(worker: int):
            try:
                dataset = Dataset()
                for i in range(10):
                    dataset.append(self._point(worker * 100 + i))
                    dataset.save(path)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 10  # one complete writer's view, not a mix


class TestConcurrentCollectTransactions:
    def test_two_concurrent_collects_on_one_deployment_serialize(
            self, tmp_path):
        """A sweep holds the task-DB/dataset locks from load to save:
        a second session collecting the same deployment waits, then
        *resumes* on fresh state (0 executions) instead of re-running
        the scenarios and clobbering the first sweep's points."""
        from repro.api import AdvisorSession

        state_dir = str(tmp_path / "state")
        info = AdvisorSession(state_dir=state_dir).deploy(
            make_config(rgprefix="txnrg"))
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def collector(label: str):
            try:
                session = AdvisorSession(state_dir=state_dir)
                barrier.wait(timeout=10)
                results[label] = session.collect(deployment=info.name)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=collector, args=(label,))
                   for label in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        executed = sorted(r.executed for r in results.values())
        assert executed == [0, 2]  # one ran the sweep, one resumed
        # Both report the full dataset; on disk there are exactly the
        # two scenario points, no duplicates and nothing lost.
        assert {r.dataset_points for r in results.values()} == {2}
        final = AdvisorSession(state_dir=state_dir).dataset(info.name)
        assert len(final) == 2
        keys = {(p.sku, p.nnodes) for p in final}
        assert len(keys) == 2

    def test_concurrent_deploys_never_share_a_name(self, tmp_path):
        """Name allocation holds the index lock from taken-names read to
        save, so two deploys with one prefix cannot both claim -000."""
        from repro.api import AdvisorSession

        state_dir = str(tmp_path / "state")
        names = []
        errors = []
        barrier = threading.Barrier(2)

        def deployer():
            try:
                session = AdvisorSession(state_dir=state_dir)
                barrier.wait(timeout=10)
                names.append(session.deploy(
                    make_config(rgprefix="racerg")).name)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=deployer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert sorted(names) == ["racerg-000", "racerg-001"]
        on_disk = {r["name"] for r in
                   StateStore(root=state_dir).list_deployments()}
        assert on_disk == {"racerg-000", "racerg-001"}
