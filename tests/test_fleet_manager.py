"""FleetJobManager: the store-backed executor behind each fleet worker.

Covers the job manager surface over the shared queue: multiple
managers draining one store, cooperative cancel through the store flag,
and the lease-loss path (a zombie abandons instead of clobbering the
winner's record).
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.api.results import CollectResult, PredictResult
from repro.errors import ConfigError, JobStateError, LeaseLost
from repro.fleet.jobstore import FleetJobStore
from repro.fleet.manager import FleetJobManager


def report(executed=1, total=2):
    return SimpleNamespace(executed=executed, completed=executed,
                           failed=0, skipped=0, predicted=0,
                           preemptions=0, simulated_wall_s=1.0)


class FakeSession:
    """Deterministic stand-in for AdvisorSession inside job workers."""

    def __init__(self, steps=3, step_gate=None, started=None):
        self.steps = steps
        self.step_gate = step_gate      # optional Event paced per step
        self.started = started          # optional Event set on entry

    def collect(self, request, progress=None):
        if self.started is not None:
            self.started.set()
        for step in range(1, self.steps + 1):
            if self.step_gate is not None:
                self.step_gate.wait(timeout=30)
            if progress is not None:
                progress(report(executed=step), self.steps)
        return CollectResult(deployment=request.deployment,
                             completed=self.steps)

    def predict(self, request):
        return PredictResult(deployment=request.deployment)


@pytest.fixture
def store(tmp_path):
    handle = FleetJobStore(str(tmp_path / "fleet.sqlite"), lease_s=5.0)
    yield handle
    handle.close()


def make_manager(store, session=None, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("poll_s", 0.02)
    return FleetJobManager(
        store, session_factory=lambda: session or FakeSession(), **kwargs
    )


class TestSurface:
    def test_submit_runs_to_done(self, store):
        manager = make_manager(store)
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            assert record.state == "queued"
            final = manager.wait(record.id, timeout=10)
            assert final.state == "done", final.error
            assert final.worker_id == manager.worker_id
            assert final.attempts == 1
            assert final.result["completed"] == 3
        finally:
            manager.close()

    def test_predict_job(self, store):
        manager = make_manager(store)
        try:
            record = manager.submit("predict", {"deployment": "dep-000"})
            final = manager.wait(record.id, timeout=10)
            assert final.state == "done", final.error
        finally:
            manager.close()

    def test_submit_validates(self, store):
        manager = make_manager(store)
        try:
            with pytest.raises(ConfigError):
                manager.submit("mine", {"deployment": "d"})
            with pytest.raises(ConfigError):
                manager.submit("collect", {})
        finally:
            manager.close()

    def test_counts_and_list(self, store):
        manager = make_manager(store)
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            manager.wait(record.id, timeout=10)
            assert manager.counts()["done"] == 1
            assert [r.id for r in manager.list(deployment="dep-000")] \
                == [record.id]
        finally:
            manager.close()

    def test_wait_times_out(self, store):
        gate = threading.Event()
        manager = make_manager(store, session=FakeSession(step_gate=gate))
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            with pytest.raises(JobStateError):
                manager.wait(record.id, timeout=0.2)
        finally:
            gate.set()
            manager.close()

    def test_failed_session_marks_failed(self, store):
        class Exploding:
            def collect(self, request, progress=None):
                raise RuntimeError("boom")

        manager = make_manager(store, session=Exploding())
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            final = manager.wait(record.id, timeout=10)
            assert final.state == "failed"
            assert "boom" in final.error
        finally:
            manager.close()

    def test_fleet_health_shape(self, store):
        manager = make_manager(store)
        try:
            health = manager.fleet_health()
            assert health["worker_id"] == manager.worker_id
            assert health["queue_depth"] == 0
            assert health["lease_s"] == store.lease_s
            assert any(w["worker_id"] == manager.worker_id
                       for w in health["workers"])
        finally:
            manager.close()
        assert all(w["worker_id"] != manager.worker_id
                   for w in store.live_workers())


class TestSharedQueue:
    def test_two_managers_drain_one_queue(self, tmp_path, store):
        """Jobs submitted through one manager can be executed by either;
        every record lands `done` exactly once."""
        other_store = FleetJobStore(str(tmp_path / "fleet.sqlite"),
                                    lease_s=5.0)
        a = make_manager(store, worker_id="mgr-a")
        b = make_manager(other_store, worker_id="mgr-b")
        try:
            records = [a.submit("collect", {"deployment": f"dep-{i}"})
                       for i in range(6)]
            finals = [a.wait(r.id, timeout=30) for r in records]
            assert {f.state for f in finals} == {"done"}
            owners = {f.worker_id for f in finals}
            assert owners <= {"mgr-a", "mgr-b"}
        finally:
            a.close()
            b.close()
            other_store.close()

    def test_same_deployment_serialized(self, store):
        """Two jobs on one deployment never run concurrently."""
        running = []
        overlap = []
        lock = threading.Lock()

        class Tracking:
            def collect(self, request, progress=None):
                with lock:
                    overlap.append(len(running) > 0)
                    running.append(1)
                time.sleep(0.1)
                with lock:
                    running.pop()
                return CollectResult(deployment=request.deployment)

        manager = FleetJobManager(
            store, session_factory=Tracking, workers=2, poll_s=0.02)
        try:
            first = manager.submit("collect", {"deployment": "dep-x"})
            second = manager.submit("collect", {"deployment": "dep-x"})
            manager.wait(first.id, timeout=10)
            final = manager.wait(second.id, timeout=10)
            assert final.state == "done"
            assert overlap == [False, False]
        finally:
            manager.close()


class TestCancel:
    def test_cancel_running_job(self, store):
        gate = threading.Event()
        started = threading.Event()
        manager = make_manager(
            store, session=FakeSession(steps=50, step_gate=gate,
                                       started=started))
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            assert started.wait(timeout=10)
            manager.cancel(record.id)
            gate.set()
            final = manager.wait(record.id, timeout=10)
            assert final.state == "cancelled"
        finally:
            gate.set()
            manager.close()

    def test_cancel_queued_is_immediate(self, store):
        gate = threading.Event()
        started = threading.Event()
        manager = make_manager(
            store, session=FakeSession(steps=50, step_gate=gate,
                                       started=started),
            workers=1)
        try:
            blocker = manager.submit("collect", {"deployment": "dep-a"})
            assert started.wait(timeout=10)
            queued = manager.submit("collect", {"deployment": "dep-b"})
            cancelled = manager.cancel(queued.id)
            assert cancelled.state == "cancelled"
            gate.set()
            manager.wait(blocker.id, timeout=30)
        finally:
            gate.set()
            manager.close()


class TestLeaseLoss:
    def test_zombie_abandons_without_clobbering(self, tmp_path):
        """A worker that loses its lease mid-job must not write over the
        record the new owner now holds."""
        db = str(tmp_path / "fleet.sqlite")
        store = FleetJobStore(db, lease_s=0.2)
        thief = FleetJobStore(db, lease_s=3600.0)
        started = threading.Event()
        gate = threading.Event()
        manager = make_manager(
            store, session=FakeSession(steps=2, step_gate=gate,
                                       started=started),
            workers=1)
        try:
            record = manager.submit("collect", {"deployment": "dep-000"})
            assert started.wait(timeout=10)
            # Steal the job: claim far in the future so the running
            # lease looks expired, then finish as the new owner.
            stolen = None
            deadline = time.monotonic() + 10
            while stolen is None and time.monotonic() < deadline:
                stolen = thief.claim("thief", now=time.time() + 3600)
                time.sleep(0.02)
            assert stolen is not None and stolen.id == record.id
            final = thief.finish(record.id, "thief", "done",
                                 result={"stolen": True})
            # Let the zombie run on; its writes must all be fenced.
            gate.set()
            time.sleep(0.5)
            after = store.get(record.id)
            assert after.state == "done"
            assert after.worker_id == "thief"
            assert after.result == {"stolen": True}
            assert after.finished_at == final.finished_at
        finally:
            gate.set()
            manager.close()
            thief.close()
            store.close()

    def test_direct_lease_lost_progress(self, store):
        """update_progress through the manager's store raises LeaseLost
        for a non-owner (sanity: the fence the manager relies on)."""
        manager = make_manager(store)
        try:
            record = manager.submit("collect", {"deployment": "dep-keep"})
            manager.wait(record.id, timeout=10)
            with pytest.raises((LeaseLost, JobStateError)):
                store.update_progress(record.id, "nobody", {})
        finally:
            manager.close()


class TestValidation:
    def test_bad_workers(self, store):
        with pytest.raises(ConfigError):
            FleetJobManager(store, session_factory=FakeSession, workers=0)

    def test_bad_retention(self, store):
        with pytest.raises(ConfigError):
            FleetJobManager(store, session_factory=FakeSession,
                            retention=0)

    def test_scenario_delay_env(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SCENARIO_DELAY_S", "0.125")
        manager = make_manager(store)
        try:
            assert manager.scenario_delay_s == 0.125
        finally:
            manager.close()