"""The service's job manager: lifecycle, persistence, restart,
concurrency, edge cases.

The manager is built the way ``build_state`` builds it: the fleet queue
in ``fleet.sqlite``, after a one-shot import of any pre-fleet
``jobs/<id>.json`` records.
"""

import threading
import time

import pytest

from repro.api.results import CollectResult
from repro.errors import ConfigError, JobNotFound, JobStateError
from repro.fleet.jobstore import FleetJobStore, fleet_db_path
from repro.fleet.manager import FleetJobManager
from repro.service.jobs import TERMINAL_STATES, JobRecord


class FakeSession:
    """Stands in for AdvisorSession: controllable collect()/predict()."""

    def __init__(self, gate=None, fail_with=None, on_start=None,
                 progress_steps=0):
        self.gate = gate          # threading.Event the sweep blocks on
        self.fail_with = fail_with
        self.on_start = on_start  # callable(deployment)
        self.progress_steps = progress_steps

    def collect(self, request, progress=None):
        if self.on_start is not None:
            self.on_start(request.deployment)
        if self.gate is not None:
            # Poll the gate so cancellation (raised from `progress`) can
            # interrupt a "running" sweep, like the real collector does
            # between scenarios.
            while not self.gate.wait(timeout=0.01):
                if progress is not None:
                    progress(_FakeReport(), 5)
        if self.fail_with is not None:
            raise self.fail_with
        for step in range(self.progress_steps):
            if progress is not None:
                progress(_FakeReport(executed=step + 1), self.progress_steps)
        return CollectResult(deployment=request.deployment, executed=2,
                             completed=2, dataset_points=2)

    def predict(self, request):
        from repro.api.results import PredictResult

        return PredictResult(deployment=request.deployment, trained_on=3)


class _FakeReport:
    def __init__(self, executed=0):
        self.executed = executed
        self.completed = executed
        self.failed = 0
        self.skipped = 0
        self.predicted = 0
        self.preemptions = 0
        self.simulated_wall_s = float(executed)


def make_manager(tmp_path, session=None, workers=2,
                 session_factory=None, **kwargs):
    store = FleetJobStore(fleet_db_path(str(tmp_path)))
    store.import_legacy_jobs(str(tmp_path / "jobs"))
    try:
        return FleetJobManager(
            store,
            session_factory=(session_factory
                             or (lambda: session or FakeSession())),
            workers=workers, poll_s=0.02, owns_store=True, **kwargs,
        )
    except BaseException:
        store.close()
        raise


def stored(tmp_path, job_id):
    """The job's record as a separate handle reads it from disk."""
    store = FleetJobStore(fleet_db_path(str(tmp_path)))
    try:
        return store.get(job_id)
    finally:
        store.close()


class TestJobRecord:
    def test_round_trips_through_json(self):
        record = JobRecord(
            id="job-1", kind="collect", deployment="d-000", state="done",
            request={"deployment": "d-000"}, created_at=1.5,
            result={"completed": 2}, progress={"executed": 2, "total": 2},
        )
        assert JobRecord.from_json(record.to_json()) == record

    def test_finished_property(self):
        for state in TERMINAL_STATES:
            assert JobRecord(id="j", state=state).finished
        for state in ("queued", "running"):
            assert not JobRecord(id="j", state=state).finished


class TestSubmitAndRun:
    def test_collect_job_runs_to_done(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("collect", {"deployment": "d-000"})
        assert record.state == "queued"
        final = manager.wait(record.id, timeout=10)
        assert final.state == "done"
        assert final.result["completed"] == 2
        assert final.started_at is not None
        assert final.finished_at >= final.started_at
        manager.close()

    def test_predict_job_runs_to_done(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("predict", {"deployment": "d-000"})
        final = manager.wait(record.id, timeout=10)
        assert final.state == "done"
        assert final.result["trained_on"] == 3
        manager.close()

    def test_progress_counters_update(self, tmp_path):
        manager = make_manager(tmp_path,
                               session=FakeSession(progress_steps=3))
        manager.PROGRESS_FLUSH_INTERVAL_S = 0.0  # store every event
        record = manager.submit("collect", {"deployment": "d-000"})
        final = manager.wait(record.id, timeout=10)
        assert final.progress["executed"] == 3
        assert final.progress["total"] == 3
        manager.close()

    def test_failed_job_records_the_error(self, tmp_path):
        manager = make_manager(
            tmp_path, session=FakeSession(fail_with=ConfigError("boom")))
        record = manager.submit("collect", {"deployment": "d-000"})
        final = manager.wait(record.id, timeout=10)
        assert final.state == "failed"
        assert "boom" in final.error
        manager.close()

    def test_submit_validates_kind_and_request(self, tmp_path):
        manager = make_manager(tmp_path)
        with pytest.raises(ConfigError):
            manager.submit("frobnicate", {"deployment": "d"})
        with pytest.raises(ConfigError):
            manager.submit("collect", {})  # no deployment
        with pytest.raises(ConfigError):
            manager.submit("collect", {"deployment": "d", "bogus": 1})
        manager.close()

    def test_get_unknown_job_raises(self, tmp_path):
        manager = make_manager(tmp_path)
        with pytest.raises(JobNotFound):
            manager.get("job-nope")
        manager.close()


class TestPersistence:
    def test_every_transition_is_on_disk(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("collect", {"deployment": "d-000"})
        manager.wait(record.id, timeout=10)
        on_disk = stored(tmp_path, record.id)
        assert on_disk.state == "done"
        assert on_disk.result["completed"] == 2
        manager.close()

    def test_restart_lists_finished_jobs(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("collect", {"deployment": "d-000"})
        manager.wait(record.id, timeout=10)
        manager.close()
        reborn = make_manager(tmp_path)
        assert reborn.get(record.id).state == "done"
        assert [r.id for r in reborn.list()] == [record.id]
        reborn.close()

    def test_restart_marks_running_job_stale(self, tmp_path):
        """A `running` record from a dead pre-fleet server must surface
        as stale, not hang forever."""
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        orphan = JobRecord(id="job-dead", kind="collect",
                           deployment="d-000", state="running",
                           request={"deployment": "d-000"}, created_at=1.0)
        (jobs_dir / "job-dead.json").write_text(orphan.to_json())
        manager = make_manager(tmp_path)
        record = manager.get("job-dead")
        assert record.state == "stale"
        assert "dead server" in record.error
        assert record.finished  # wait() would return immediately
        # ... and the new state is persisted for the next restart too;
        # the JSON file is retired so it is never imported twice.
        assert stored(tmp_path, "job-dead").state == "stale"
        assert not (jobs_dir / "job-dead.json").exists()
        assert (jobs_dir / "job-dead.json.migrated").exists()
        manager.close()

    def test_restart_keeps_running_job_with_live_lease(self, tmp_path):
        """Regression: N servers can share one state dir.  A `running`
        record whose lease is still live belongs to a *sibling* that is
        alive and heartbeating — a restart elsewhere must not stale it."""
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        alive = JobRecord(id="job-alive", kind="collect",
                          deployment="d-000", state="running",
                          request={"deployment": "d-000"}, created_at=1.0,
                          worker_id="sibling-server",
                          lease_expires_at=time.time() + 300)
        (jobs_dir / "job-alive.json").write_text(alive.to_json())
        manager = make_manager(tmp_path)
        record = manager.get("job-alive")
        assert record.state == "running"
        assert record.error == ""
        assert not record.finished
        assert record.worker_id == "sibling-server"
        # ... and nothing was rewritten behind the owner's back.
        assert stored(tmp_path, "job-alive") == alive
        # Closing waits only on this process's own jobs, never on the
        # sibling's: no drain timeout.
        started = time.monotonic()
        manager.close()
        assert time.monotonic() - started < 5

    def test_restart_stales_running_job_with_expired_lease(self, tmp_path):
        """The flip side: an *expired* lease proves the worker is dead."""
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        dead = JobRecord(id="job-expired", kind="collect",
                         deployment="d-000", state="running",
                         request={"deployment": "d-000"}, created_at=1.0,
                         worker_id="dead-server",
                         lease_expires_at=time.time() - 1)
        (jobs_dir / "job-expired.json").write_text(dead.to_json())
        manager = make_manager(tmp_path)
        record = manager.get("job-expired")
        assert record.state == "stale"
        assert "dead server" in record.error
        manager.close()

    def test_heartbeat_renews_lease_while_running(self, tmp_path):
        """A running job's persisted lease keeps moving forward, so a
        concurrent reader never mistakes a live job for an orphan."""
        gate = threading.Event()
        manager = make_manager(tmp_path,
                               session=FakeSession(gate=gate))
        try:
            record = manager.submit("collect", {"deployment": "d-000"})
            deadline = time.monotonic() + 10
            lease = None
            while lease is None and time.monotonic() < deadline:
                on_disk = stored(tmp_path, record.id)
                if on_disk.state == "running":
                    lease = on_disk.lease_expires_at
                time.sleep(0.01)
            assert lease is not None and lease > time.time()
        finally:
            gate.set()
            manager.close()

    def test_restart_requeues_queued_job(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        pending = JobRecord(id="job-q", kind="collect", deployment="d-000",
                            state="queued",
                            request={"deployment": "d-000"}, created_at=1.0)
        (jobs_dir / "job-q.json").write_text(pending.to_json())
        manager = make_manager(tmp_path)
        final = manager.wait("job-q", timeout=10)
        assert final.state == "done"
        manager.close()

    def test_unreadable_record_does_not_block_startup(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / "garbage.json").write_text("{not json")
        manager = make_manager(tmp_path)
        assert manager.list() == []
        manager.close()


class TestCancellation:
    def test_cancel_while_queued(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()
        session = FakeSession(gate=gate,
                              on_start=lambda dep: started.set())
        manager = make_manager(tmp_path, session=session, workers=1)
        # Fill the single worker with a blocked job...
        blocker = manager.submit("collect", {"deployment": "d-000"})
        assert started.wait(timeout=5)
        # ...so this one is genuinely still queued when we cancel it.
        queued = manager.submit("collect", {"deployment": "d-001"})
        cancelled = manager.cancel(queued.id)
        assert cancelled.state == "cancelled"
        gate.set()
        manager.wait(blocker.id, timeout=10)
        # The worker must skip the cancelled job, not run it.
        time.sleep(0.05)
        assert manager.get(queued.id).state == "cancelled"
        manager.close()

    def test_cancel_while_running_is_cooperative(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()
        session = FakeSession(gate=gate,
                              on_start=lambda dep: started.set())
        manager = make_manager(tmp_path, session=session, workers=1)
        record = manager.submit("collect", {"deployment": "d-000"})
        assert started.wait(timeout=5)
        manager.cancel(record.id)  # sets the flag; sweep notices via progress
        final = manager.wait(record.id, timeout=10)
        assert final.state == "cancelled"
        gate.set()
        manager.close()

    def test_cancel_finished_job_raises(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("collect", {"deployment": "d-000"})
        manager.wait(record.id, timeout=10)
        with pytest.raises(JobStateError):
            manager.cancel(record.id)
        manager.close()

    def test_cancel_unknown_job_raises(self, tmp_path):
        manager = make_manager(tmp_path)
        with pytest.raises(JobNotFound):
            manager.cancel("job-nope")
        manager.close()


class TestConcurrency:
    def test_same_deployment_jobs_serialize(self, tmp_path):
        """Two jobs on one deployment must never overlap (task-DB race)."""
        active = {"count": 0, "max": 0}
        lock = threading.Lock()

        class TrackedSession(FakeSession):
            def collect(self, request, progress=None):
                with lock:
                    active["count"] += 1
                    active["max"] = max(active["max"], active["count"])
                time.sleep(0.05)
                with lock:
                    active["count"] -= 1
                return CollectResult(deployment=request.deployment)

        manager = make_manager(tmp_path, session_factory=TrackedSession,
                               workers=4)
        records = [
            manager.submit("collect", {"deployment": "d-000"})
            for _ in range(3)
        ]
        for record in records:
            assert manager.wait(record.id, timeout=10).state == "done"
        assert active["max"] == 1
        manager.close()

    def test_different_deployments_run_concurrently(self, tmp_path):
        """With enough workers, distinct deployments overlap in time."""
        overlap = {"count": 0, "max": 0}
        lock = threading.Lock()

        class TrackedSession(FakeSession):
            def collect(self, request, progress=None):
                with lock:
                    overlap["count"] += 1
                    overlap["max"] = max(overlap["max"], overlap["count"])
                time.sleep(0.1)
                with lock:
                    overlap["count"] -= 1
                return CollectResult(deployment=request.deployment)

        manager = make_manager(tmp_path, session_factory=TrackedSession,
                               workers=4)
        records = [
            manager.submit("collect", {"deployment": f"d-{i:03d}"})
            for i in range(4)
        ]
        for record in records:
            assert manager.wait(record.id, timeout=10).state == "done"
        assert overlap["max"] > 1
        manager.close()

    def test_counts_by_state(self, tmp_path):
        manager = make_manager(tmp_path)
        record = manager.submit("collect", {"deployment": "d-000"})
        manager.wait(record.id, timeout=10)
        counts = manager.counts()
        assert counts["done"] == 1
        assert counts["queued"] == 0
        manager.close()

    def test_workers_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            make_manager(tmp_path, workers=0)

    def test_wait_times_out(self, tmp_path):
        gate = threading.Event()
        manager = make_manager(tmp_path, session=FakeSession(gate=gate),
                               workers=1)
        record = manager.submit("collect", {"deployment": "d-000"})
        with pytest.raises(JobStateError):
            manager.wait(record.id, timeout=0.2)
        gate.set()
        manager.wait(record.id, timeout=10)
        manager.close()


class TestRealPipeline:
    """One lifecycle against the genuine AdvisorSession, no fakes."""

    def test_collect_job_over_real_state_dir(self, tmp_path):
        from repro.api import AdvisorSession
        from tests.conftest import make_config

        state_dir = tmp_path / "state"
        control = AdvisorSession(state_dir=str(state_dir))
        info = control.deploy(make_config(rgprefix="jobrg"))
        manager = make_manager(
            state_dir,
            session_factory=lambda: AdvisorSession(state_dir=str(state_dir)),
        )
        record = manager.submit("collect", {"deployment": info.name})
        final = manager.wait(record.id, timeout=30)
        assert final.state == "done", final.error
        assert final.result["completed"] == 2
        assert final.progress["total"] == 2
        # The control-plane session sees the collected data (file-signature
        # cache invalidation) and can advise on it.
        advice = control.advise(deployment=info.name)
        assert len(advice.rows) >= 1
        manager.close()


class TestParkedJobs:
    def test_cancelled_parked_job_does_not_strand_later_waiters(self,
                                                                tmp_path):
        """Regression: with J1 running and J2, J3 waiting behind the same
        deployment, cancelling J2 must not strand J3 when J1 finishes."""
        gate = threading.Event()
        started = threading.Event()
        session = FakeSession(gate=gate,
                              on_start=lambda dep: started.set())
        manager = make_manager(tmp_path, session=session, workers=2)
        j1 = manager.submit("collect", {"deployment": "d-000"})
        assert started.wait(timeout=5)
        j2 = manager.submit("collect", {"deployment": "d-000"})
        j3 = manager.submit("collect", {"deployment": "d-000"})
        # Both followers wait behind d-000's running job.
        time.sleep(0.1)
        assert manager.get(j2.id).state == "queued"
        assert manager.get(j3.id).state == "queued"
        manager.cancel(j2.id)
        gate.set()
        assert manager.wait(j1.id, timeout=10).state == "done"
        assert manager.wait(j3.id, timeout=10).state == "done"
        assert manager.get(j2.id).state == "cancelled"
        manager.close()


class TestRetention:
    def test_oldest_finished_jobs_are_pruned(self, tmp_path):
        manager = make_manager(tmp_path, retention=2)
        ids = []
        for i in range(4):
            record = manager.submit("collect", {"deployment": f"d-{i:03d}"})
            manager.wait(record.id, timeout=10)
            ids.append(record.id)
        manager.submit("collect", {"deployment": "d-next"})  # triggers prune
        listed = {r.id for r in manager.list()}
        # The two oldest finished jobs are gone from the store.
        assert ids[0] not in listed and ids[1] not in listed
        assert ids[2] in listed and ids[3] in listed
        with pytest.raises(JobNotFound):
            manager.get(ids[0])
        manager.close()

    def test_new_job_finishing_before_prune_keeps_retention(self,
                                                           tmp_path):
        """Regression: submit inserted and then pruned, so an executor
        could claim and finish the new job in between; it then counted
        against retention and evicted ``ids[2]``.  A slow prune makes
        that window certain."""

        class SlowPrune(FleetJobStore):
            def prune(self, retention):
                time.sleep(0.2)
                return super().prune(retention)

        store = SlowPrune(fleet_db_path(str(tmp_path)))
        manager = FleetJobManager(
            store, session_factory=FakeSession, workers=2, poll_s=0.02,
            retention=2, owns_store=True,
        )
        ids = []
        for i in range(4):
            record = manager.submit("collect", {"deployment": f"d-{i:03d}"})
            manager.wait(record.id, timeout=10)
            ids.append(record.id)
        latest = manager.submit("collect", {"deployment": "d-next"})
        manager.wait(latest.id, timeout=10)
        listed = {r.id for r in manager.list()}
        assert listed == {ids[2], ids[3], latest.id}
        manager.close()

    def test_retention_never_evicts_unfinished_jobs(self, tmp_path):
        gate = threading.Event()
        manager = make_manager(tmp_path, session=FakeSession(gate=gate),
                               workers=1, retention=1)
        running = manager.submit("collect", {"deployment": "d-000"})
        queued = manager.submit("collect", {"deployment": "d-001"})
        assert {r.id for r in manager.list()} >= {running.id, queued.id}
        gate.set()
        manager.wait(running.id, timeout=10)
        manager.wait(queued.id, timeout=10)
        manager.close()

    def test_retention_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            make_manager(tmp_path, retention=0)

    def test_resumed_job_progress_is_not_stuck_below_total(self, tmp_path):
        """A resumed sweep has no pending work: its progress must not
        report 0/N forever (N = all scenarios ever)."""
        from repro.api import AdvisorSession
        from tests.conftest import make_config

        state_dir = tmp_path / "state"
        control = AdvisorSession(state_dir=str(state_dir))
        info = control.deploy(make_config(rgprefix="resumerg"))
        manager = make_manager(
            state_dir, workers=1,
            session_factory=lambda: AdvisorSession(state_dir=str(state_dir)),
        )
        first = manager.submit("collect", {"deployment": info.name})
        assert manager.wait(first.id, timeout=30).progress["total"] == 2
        second = manager.submit("collect", {"deployment": info.name})
        final = manager.wait(second.id, timeout=30)
        assert final.state == "done"
        assert final.result["executed"] == 0
        assert final.progress == {}  # nothing pending -> no counters
        manager.close()
