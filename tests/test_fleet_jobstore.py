"""FleetJobStore: atomic claims, leases, guarded writes, recovery.

The store is the fleet's correctness core, so the contention cases are
exercised directly: racing claims (threads over independent
connections, as separate processes would hold), expired-lease re-claims
with progress preserved, and zombie writers fenced by LeaseLost.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    JobNotFound,
    JobStateError,
    LeaseLost,
)
from repro.fleet.jobstore import FleetJobStore, fleet_db_path, new_job_record
from repro.service.jobs import JobRecord


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "fleet.sqlite")


@pytest.fixture
def store(db_path):
    handle = FleetJobStore(db_path, lease_s=5.0)
    yield handle
    handle.close()


def submit(store, deployment="dep-000", kind="collect"):
    record = new_job_record(kind, {"deployment": deployment})
    store.insert(record)
    return record


class TestBasics:
    def test_insert_get_roundtrip(self, store):
        record = submit(store)
        loaded = store.get(record.id)
        assert loaded.id == record.id
        assert loaded.state == "queued"
        assert loaded.deployment == "dep-000"

    def test_get_unknown_raises(self, store):
        with pytest.raises(JobNotFound):
            store.get("job-ghost")

    def test_list_filters_and_orders_newest_first(self, store):
        first = submit(store, deployment="dep-a")
        second = submit(store, deployment="dep-b")
        listed = store.list()
        assert [r.id for r in listed][:2] in (
            [second.id, first.id],  # created_at ties break by id
            [first.id, second.id],
        )
        assert [r.id for r in store.list(deployment="dep-a")] == [first.id]
        assert store.list(state="running") == []

    def test_counts_zero_filled(self, store):
        submit(store)
        counts = store.counts()
        assert counts["queued"] == 1
        assert counts["running"] == 0
        assert counts["done"] == 0

    def test_queue_depth_counts_claimable(self, store):
        assert store.queue_depth() == 0
        submit(store, deployment="dep-a")
        submit(store, deployment="dep-b")
        assert store.queue_depth() == 2
        store.claim("w1")
        assert store.queue_depth() == 1

    def test_new_job_record_validates(self):
        with pytest.raises(ConfigError):
            new_job_record("mine", {"deployment": "d"})
        with pytest.raises(ConfigError):
            new_job_record("collect", {})
        with pytest.raises(ConfigError):
            new_job_record("collect", {"deployment": "d", "bogus": 1})


class TestClaim:
    def test_claim_stamps_worker_and_lease(self, store):
        record = submit(store)
        claimed = store.claim("w1")
        assert claimed.id == record.id
        assert claimed.state == "running"
        assert claimed.worker_id == "w1"
        assert claimed.attempts == 1
        assert claimed.lease_expires_at > time.time()
        assert store.claim("w2") is None  # nothing else to take

    def test_claim_oldest_first(self, store):
        first = submit(store, deployment="dep-a")
        submit(store, deployment="dep-b")
        assert store.claim("w1").id == first.id

    def test_per_deployment_serialization(self, store):
        submit(store, deployment="dep-a")
        parked = submit(store, deployment="dep-a")
        other = submit(store, deployment="dep-b")
        first = store.claim("w1")
        assert first.deployment == "dep-a"
        # The second dep-a job is parked behind the live lease; dep-b
        # is free.
        assert store.claim("w2").id == other.id
        assert store.claim("w3") is None
        store.finish(first.id, "w1", "done", result={})
        assert store.claim("w3").id == parked.id

    def test_cancel_requested_queued_jobs_not_claimable(self, store):
        record = submit(store)
        store.request_cancel(record.id)
        assert store.claim("w1") is None
        assert store.get(record.id).state == "cancelled"


class TestClaimRace:
    @pytest.mark.parametrize("round_seed", range(5))
    def test_two_workers_racing_get_exactly_one_winner(
            self, db_path, store, round_seed):
        """Property over interleavings: whatever the thread timing, a
        single queued job has exactly one claimant.  Each worker uses
        its own connection, exactly like separate processes would."""
        record = submit(store, deployment=f"race-{round_seed}")
        barrier = threading.Barrier(2)
        wins, errors = [], []

        def race(worker_id, delay):
            handle = FleetJobStore(db_path, lease_s=5.0)
            try:
                barrier.wait(timeout=5)
                time.sleep(delay)
                claimed = handle.claim(worker_id)
                if claimed is not None:
                    wins.append((worker_id, claimed.id))
            except Exception as exc:  # noqa: BLE001 - fail the test below
                errors.append(exc)
            finally:
                handle.close()

        jitter = (round_seed % 3) * 0.001
        threads = [
            threading.Thread(target=race, args=("w-a", 0.0)),
            threading.Thread(target=race, args=("w-b", jitter)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(wins) == 1
        assert wins[0][1] == record.id
        assert store.get(record.id).worker_id == wins[0][0]

    def test_many_workers_many_jobs_no_double_claims(self, db_path, store):
        """8 workers fight over 6 jobs on 6 deployments: every job is
        claimed exactly once, no worker sees a duplicate."""
        jobs = [submit(store, deployment=f"dep-{i}") for i in range(6)]
        barrier = threading.Barrier(8)
        claims = []
        lock = threading.Lock()

        def worker(worker_id):
            handle = FleetJobStore(db_path, lease_s=5.0)
            try:
                barrier.wait(timeout=5)
                while True:
                    claimed = handle.claim(worker_id)
                    if claimed is None:
                        return
                    with lock:
                        claims.append(claimed.id)
            finally:
                handle.close()

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(claims) == sorted(record.id for record in jobs)


class TestLeases:
    def test_expired_lease_reclaimed_with_progress_preserved(self, store):
        record = submit(store)
        first = store.claim("w1", now=1000.0)
        store.update_progress(record.id, "w1", {"executed": 3, "total": 8})
        # w1 dies; its lease runs out (update_progress renewed it against
        # the wall clock).  w2 takes over with the partial progress
        # intact and the attempt counter bumped.  (Two lease windows:
        # past expiry by more than the clock-skew tolerance.)
        second = store.claim("w2", now=time.time() + 2 * store.lease_s)
        assert second.id == record.id
        assert second.worker_id == "w2"
        assert second.attempts == first.attempts + 1
        assert second.progress == {"executed": 3, "total": 8}
        assert second.started_at == first.started_at

    def test_live_lease_not_reclaimable(self, store):
        record = submit(store)
        store.claim("w1", now=1000.0)
        assert store.claim("w2", now=1000.0 + store.lease_s - 1) is None
        assert store.get(record.id).worker_id == "w1"

    def test_heartbeat_renews_and_fences(self, store):
        record = submit(store)
        store.claim("w1", now=1000.0)
        assert store.heartbeat(record.id, "w1") is True
        assert store.get(record.id).lease_expires_at > time.time()
        # After a re-claim the old owner's heartbeat returns False.
        store.claim("w2", now=time.time() + 2 * store.lease_s)
        assert store.heartbeat(record.id, "w1") is False
        assert store.get(record.id).worker_id == "w2"

    def test_zombie_update_progress_raises_lease_lost(self, store):
        record = submit(store)
        store.claim("w1", now=1000.0)
        store.claim("w2", now=time.time() + 2 * store.lease_s)
        with pytest.raises(LeaseLost):
            store.update_progress(record.id, "w1", {"executed": 1})

    def test_zombie_finish_raises_lease_lost(self, store):
        record = submit(store)
        store.claim("w1", now=1000.0)
        store.claim("w2", now=time.time() + 2 * store.lease_s)
        with pytest.raises(LeaseLost):
            store.finish(record.id, "w1", "done", result={})
        # The winner still can.
        final = store.finish(record.id, "w2", "done", result={"ok": 1})
        assert final.state == "done"

    def test_forward_clock_jump_cannot_steal_live_lease(self, store):
        """Regression: lease fencing trusted the wall clock, so a worker
        whose clock ran slightly fast saw a live lease as expired and
        double-claimed the job (two writers on one deployment).  A lease
        now only counts as expired once it is past by more than
        ``clock_skew_s``."""
        record = submit(store)
        store.claim("w1", now=1000.0)  # lease until 1005.0
        skew = store.clock_skew_s
        assert skew > 0
        # w2's clock reads just past the expiry — within the tolerance,
        # this must NOT steal the live job (it used to).
        assert store.claim("w2", now=1005.0 + skew / 2) is None
        assert store.queue_depth(now=1005.0 + skew / 2) == 0
        assert store.get(record.id).worker_id == "w1"
        # Once genuinely expired past the tolerance, takeover proceeds.
        taken = store.claim("w2", now=1005.0 + skew + 0.5)
        assert taken is not None and taken.worker_id == "w2"

    def test_backward_clock_step_cannot_freeze_dead_lease(self, store):
        """Regression: a backward wall-clock step used to resurrect a
        dead worker's expired lease — the job stayed unclaimable until
        the clock crawled back up to the stamped expiry.  The store now
        evaluates leases on a monotonic high-water clock."""
        record = submit(store)
        store.claim("w1", now=5000.0)  # w1 dies holding lease -> 5005.0
        horizon = 5005.0 + store.clock_skew_s + 0.5
        assert store.queue_depth(now=horizon) == 1  # visibly reclaimable
        # The wall clock then steps backward.  The dead lease must stay
        # dead (it used to flip back to "live" for the next ~4900s).
        assert store.queue_depth(now=100.0) == 1
        reclaimed = store.claim("w2", now=100.0)
        assert reclaimed is not None
        assert reclaimed.id == record.id and reclaimed.worker_id == "w2"

    def test_zero_skew_restores_exact_expiry(self, db_path):
        store = FleetJobStore(db_path, lease_s=5.0, clock_skew_s=0.0)
        try:
            submit(store)
            store.claim("w1", now=1000.0)
            taken = store.claim("w2", now=1005.1)
            assert taken is not None and taken.worker_id == "w2"
        finally:
            store.close()

    def test_negative_skew_rejected(self, db_path):
        with pytest.raises(ConfigError):
            FleetJobStore(db_path, lease_s=5.0, clock_skew_s=-1.0)

    def test_exhausted_attempts_parked_stale(self, db_path):
        store = FleetJobStore(db_path, lease_s=5.0, max_attempts=2)
        try:
            record = submit(store)
            store.claim("w1", now=1000.0)
            store.claim("w2", now=2000.0)  # attempts now 2 == max
            assert store.claim("w3", now=3000.0) is None
            parked = store.get(record.id)
            assert parked.state == "stale"
            assert "giving up" in parked.error
        finally:
            store.close()


class TestFinishAndCancel:
    def test_finish_states_validated(self, store):
        record = submit(store)
        store.claim("w1")
        with pytest.raises(ConfigError):
            store.finish(record.id, "w1", "running")
        done = store.finish(record.id, "w1", "done", result={"n": 1})
        assert done.finished and done.result == {"n": 1}
        assert done.lease_expires_at is None
        with pytest.raises(JobStateError):
            store.finish(record.id, "w1", "failed", error="again")

    def test_finish_unknown_raises(self, store):
        with pytest.raises(JobNotFound):
            store.finish("job-ghost", "w1", "done")

    def test_cancel_running_is_cooperative(self, store):
        record = submit(store)
        store.claim("w1")
        store.request_cancel(record.id)
        assert store.get(record.id).state == "running"
        assert store.cancel_requested(record.id) is True
        # update_progress reports the flag to the owner.
        assert store.update_progress(record.id, "w1", {"executed": 1}) \
            is True

    def test_prune_keeps_newest_finished(self, store):
        finished = []
        for index in range(5):
            record = submit(store, deployment=f"dep-{index}")
            claimed = store.claim(f"w{index}")
            finished.append(
                store.finish(claimed.id, f"w{index}", "done", result={}))
        live = submit(store, deployment="dep-live")
        assert store.prune(2) == 3
        remaining = {record.id for record in store.list()}
        assert live.id in remaining
        assert finished[-1].id in remaining and finished[-2].id in remaining
        assert finished[0].id not in remaining


class TestWriteTransactions:
    def test_a_write_that_raises_rolls_back_and_a_retry_lands(
            self, store, monkeypatch):
        record = submit(store)
        store.claim("w1")
        encode = JobRecord.to_json
        failures = []

        def fail_once(job, *args, **kwargs):
            if not failures:
                failures.append(job.id)
                raise RuntimeError("encoder failed")
            return encode(job, *args, **kwargs)

        monkeypatch.setattr(JobRecord, "to_json", fail_once)
        with pytest.raises(RuntimeError, match="encoder failed"):
            store.finish(record.id, "w1", "done", result={"n": 1})
        assert failures == [record.id]
        kept = store.get(record.id)
        assert (kept.state, kept.worker_id) == ("running", "w1")
        done = store.finish(record.id, "w1", "done", result={"n": 1})
        assert done.state == "done"
        assert store.get(record.id).result == {"n": 1}

    def test_a_locked_database_fails_the_write_and_the_handle_recovers(
            self, db_path):
        store = FleetJobStore(db_path, lease_s=5.0, timeout_s=0.1)
        blocker = sqlite3.connect(db_path)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            record = new_job_record("collect", {"deployment": "dep-000"})
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.insert(record)
            blocker.rollback()
            store.insert(record)
            assert store.get(record.id).state == "queued"
        finally:
            blocker.close()
            store.close()


class TestWorkersRegistry:
    def test_register_heartbeat_live_deregister(self, store):
        store.register_worker("w1", pid=4242)
        store.register_worker("w2", pid=4343)
        live = store.live_workers()
        assert [w["worker_id"] for w in live] == ["w2", "w1"] or \
            len(live) == 2
        assert {w["pid"] for w in live} == {4242, 4343}
        store.worker_heartbeat("w1")
        assert store.live_workers(timeout_s=0.5)
        store.deregister_worker("w2")
        assert {w["worker_id"] for w in store.live_workers()} == {"w1"}

    def test_stale_heartbeats_drop_out(self, db_path):
        store = FleetJobStore(db_path, lease_s=0.05)
        try:
            store.register_worker("w1", pid=1)
            time.sleep(0.2)  # past the 2-lease horizon
            assert store.live_workers() == []
        finally:
            store.close()


class TestLegacyImport:
    def test_import_moves_files_and_stales_dead_running(self, store,
                                                        tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        done = JobRecord(id="job-old-done", kind="collect",
                         deployment="dep-000", state="done",
                         request={"deployment": "dep-000"}, created_at=1.0,
                         finished_at=2.0, result={})
        dead = JobRecord(id="job-old-run", kind="collect",
                         deployment="dep-001", state="running",
                         request={"deployment": "dep-001"}, created_at=1.0)
        (jobs_dir / "job-old-done.json").write_text(done.to_json())
        (jobs_dir / "job-old-run.json").write_text(dead.to_json())
        (jobs_dir / "garbage.json").write_text("{not json")

        assert store.import_legacy_jobs(str(jobs_dir)) == 2
        assert store.get("job-old-done").state == "done"
        stale = store.get("job-old-run")
        assert stale.state == "stale"
        assert (jobs_dir / "job-old-done.json.migrated").exists()
        assert not (jobs_dir / "job-old-done.json").exists()
        # Idempotent: a sibling worker importing again is a no-op.
        assert store.import_legacy_jobs(str(jobs_dir)) == 0

    def test_import_missing_dir_is_noop(self, store, tmp_path):
        assert store.import_legacy_jobs(str(tmp_path / "nope")) == 0


def test_fleet_db_path(tmp_path):
    assert fleet_db_path(str(tmp_path)) == str(tmp_path / "fleet.sqlite")


def test_store_rejects_bad_parameters(db_path):
    with pytest.raises(ConfigError):
        FleetJobStore(db_path, lease_s=0)
    with pytest.raises(ConfigError):
        FleetJobStore(db_path, max_attempts=0)


def test_payload_row_mirror_consistent(store):
    """The mirrored columns always agree with the JSON payload."""
    record = submit(store)
    store.claim("w1")
    store.update_progress(record.id, "w1", {"executed": 1})
    row = store._conn.execute(
        "SELECT state, worker_id, attempts, payload FROM jobs WHERE id = ?",
        (record.id,)).fetchone()
    payload = json.loads(row[3])
    assert (row[0], row[1], row[2]) == (
        payload["state"], payload["worker_id"], payload["attempts"])