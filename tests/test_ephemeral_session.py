"""An ephemeral session (``AdvisorSession()``) runs on the SQLite store.

It keeps its state in a private directory made with
``tempfile.mkdtemp(prefix="hpcadvisor-")`` and removed with the
session, and reads and writes it exactly as a session over a state
directory does: same store, same snapshot LRU, same response cache.
"""

import gc
import os

from repro.api import AdvisorSession
from repro.core.statefiles import StateStore
from repro.fleet.cache import ResponseCache
from repro.service.router import Router, ServiceState
from repro.store.sqlite import SqliteStore
from repro.telemetry import global_registry
from tests.conftest import make_config


def collected_session():
    session = AdvisorSession()
    name = session.deploy(make_config()).name
    result = session.collect(deployment=name)
    return session, name, result


def snapshot_counts():
    builds = global_registry().counter("advisor_snapshot_builds")
    hits = global_registry().counter("advisor_snapshot_hits")
    return (sum(builds.labels(kind="sqlite", mode=mode).value
                for mode in ("full", "delta")),
            hits.labels(kind="sqlite").value)


class TestPrivateDirectory:
    def test_store_is_a_state_store_in_a_private_directory(self):
        session = AdvisorSession()
        assert isinstance(session.store, StateStore)
        assert os.path.basename(session.store.root).startswith(
            "hpcadvisor-")
        assert os.path.isdir(session.store.root)
        assert AdvisorSession().store.root != session.store.root

    def test_data_lives_in_a_sqlite_store_under_the_root(self):
        session, name, result = collected_session()
        data_store = session.data_store(name)
        assert isinstance(data_store, SqliteStore)
        assert os.path.dirname(data_store.db_path) == session.store.root
        assert result.store_backend == "sqlite"
        assert result.dataset_path == data_store.db_path
        assert result.dataset_points == data_store.count_points() > 0

    def test_directory_is_removed_with_the_session(self):
        session, _, _ = collected_session()
        root = session.store.root
        assert os.listdir(root)
        del session
        gc.collect()
        assert not os.path.exists(root)

    def test_a_state_dir_outlives_its_session(self, tmp_path):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        session.deploy(make_config())
        del session
        gc.collect()
        assert os.listdir(tmp_path / "state")


class TestSameReadPath:
    def test_second_advice_hits_the_snapshot_cache(self):
        session, name, _ = collected_session()
        builds, hits = snapshot_counts()
        first = session.advise(deployment=name)
        second = session.advise(deployment=name)
        assert first == second
        assert snapshot_counts() == (builds + 1, hits + 1)

    def test_router_caches_advice_and_revalidates(self):
        session, name, _ = collected_session()
        router = Router(ServiceState(session=session,
                                     cache=ResponseCache()))
        first = router.handle("GET", f"/v1/advice?deployment={name}")
        assert first.status == 200, first.payload
        etag = first.headers["ETag"]
        replay = router.handle("GET", f"/v1/advice?deployment={name}",
                               headers={"If-None-Match": etag})
        assert replay.status == 304
        assert replay.headers["ETag"] == etag

    def test_appending_to_dataset_does_not_persist(self):
        session, name, _ = collected_session()
        before = session.count_points(name)
        dataset = session.dataset(name)
        dataset.extend(dataset.points())
        assert session.count_points(name) == before
        session.data_store(name).append_points(dataset.points()[:1])
        assert session.count_points(name) == before + 1
