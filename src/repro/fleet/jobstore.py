"""The fleet's job queue: one SQLite table, claimed by lease.

Every service process keeps its job records (:class:`JobRecord`) in one
WAL-mode SQLite database per state directory
(``<state-dir>/fleet.sqlite``), so *any* worker — thread or process —
sees one queue:

* **Atomic claim** — :meth:`FleetJobStore.claim` takes the oldest
  claimable job inside a single ``BEGIN IMMEDIATE`` transaction, so two
  workers racing for the same job get exactly one winner, across
  threads and across processes.
* **Leases, not liveness guesses** — a claim stamps ``worker_id`` and
  ``lease_expires_at``; the owner renews the lease via
  :meth:`heartbeat` / :meth:`update_progress` while the job runs.  A
  job whose lease expired is simply claimable again (its recorded
  ``progress`` preserved, its ``attempts`` counter bumped) — a
  ``kill -9``'d worker loses its jobs to the survivors, not to a
  terminal ``stale`` state.  Only a job that burns through
  ``max_attempts`` claims is parked as ``stale``.
* **Bounded clock-skew tolerance** — lease timestamps are compared
  across processes whose wall clocks disagree (NTP steps, VM
  migrations).  A lease only counts as expired once it is past by more
  than ``clock_skew_s``, so a worker whose clock runs slightly fast
  cannot steal a live job; and every store handle tracks the furthest
  ``now`` it has observed and never evaluates leases at an earlier
  time, so a backward clock step cannot freeze a dead worker's lease
  in the "still live" state it already left.
* **Per-deployment serialization** — the claim query skips any job
  whose deployment already has a *live-leased* running job, so a
  deployment's task DB and dataset still have one writer at a time,
  fleet-wide.
* **Guarded writes** — :meth:`finish`, :meth:`heartbeat` and
  :meth:`update_progress` only apply while the caller still owns the
  lease; a zombie worker that lost its job to re-claim gets
  :class:`~repro.errors.LeaseLost` (or ``False``) instead of silently
  corrupting the winner's record.

The store also keeps a ``workers`` registry (pid + heartbeat per server
worker) that powers the fleet-aware ``/healthz``.  Job records written
as ``jobs/<id>.json`` files by servers that predate the fleet are
imported once, on start-up (:meth:`FleetJobStore.import_legacy_jobs`).
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import (
    ConfigError,
    JobNotFound,
    JobStateError,
    LeaseLost,
)
from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
)
from repro import telemetry

#: File name of the fleet database inside a state directory.
DB_FILENAME = "fleet.sqlite"

#: Fleet-queue instrumentation (process-global; rendered on /metrics).
_CLAIMS = telemetry.global_registry().counter(
    "advisor_fleet_claims_total",
    "Queue claims, by result: claimed (fresh queued job), reclaimed "
    "(expired-lease takeover), parked (crash-looper staled).",
)
_LEASE_LOST = telemetry.global_registry().counter(
    "advisor_fleet_lease_lost_total",
    "Operations refused because the worker no longer owned the job.",
)

#: Environment knob: override the claim lease in seconds (shorter means
#: faster takeover from dead workers; the recovery tests shrink it).
LEASE_ENV = "REPRO_FLEET_LEASE_S"

#: Default lease length when neither argument nor environment sets one.
DEFAULT_LEASE_S = 15.0

#: Default clock-skew tolerance, as a fraction of the lease.  Owners
#: renew every ``lease_s / 4`` (the manager's heartbeat cadence), so a
#: quarter-lease of cross-process clock disagreement is absorbed without
#: ever delaying a legitimate dead-worker takeover by more than that.
DEFAULT_CLOCK_SKEW_FRACTION = 0.25


def default_lease_s() -> float:
    """The lease length from :data:`LEASE_ENV`, or the built-in default."""
    raw = os.environ.get(LEASE_ENV)
    if not raw:
        return DEFAULT_LEASE_S
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{LEASE_ENV} must be a number, got {raw!r}"
        ) from exc

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    deployment       TEXT NOT NULL,
    state            TEXT NOT NULL,
    created_at       REAL NOT NULL,
    worker_id        TEXT NOT NULL DEFAULT '',
    lease_expires_at REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    payload          TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (state, created_at);
CREATE INDEX IF NOT EXISTS idx_jobs_deployment
    ON jobs (deployment, state);
CREATE TABLE IF NOT EXISTS workers (
    worker_id    TEXT PRIMARY KEY,
    pid          INTEGER NOT NULL,
    started_at   REAL NOT NULL,
    heartbeat_at REAL NOT NULL
);
"""


def fleet_db_path(state_root: str) -> str:
    """The fleet database location for a state directory."""
    return os.path.join(state_root, DB_FILENAME)


class FleetJobStore:
    """Shared, lease-claimed job queue over SQLite (module docstring).

    Parameters
    ----------
    db_path:
        The fleet database file (one per state directory).
    lease_s:
        How long a claim stays credible without renewal.  Tune it to a
        few multiples of the expected heartbeat interval: shorter means
        faster takeover after a worker dies, longer tolerates bigger
        scheduling hiccups.
    max_attempts:
        How many claims a single job may burn before it is parked as
        ``stale`` (a job that kills every worker that touches it must
        not crash-loop the fleet forever).
    clock_skew_s:
        How much wall-clock disagreement between fleet processes the
        lease fencing absorbs (module docstring): a lease must be past
        by more than this before it counts as expired.  Defaults to a
        quarter of the lease; ``0`` restores exact-expiry takeover.
    """

    def __init__(self, db_path: str, lease_s: Optional[float] = None,
                 max_attempts: int = 5, timeout_s: float = 30.0,
                 clock_skew_s: Optional[float] = None) -> None:
        lease_s = default_lease_s() if lease_s is None else lease_s
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        if max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if clock_skew_s is None:
            clock_skew_s = lease_s * DEFAULT_CLOCK_SKEW_FRACTION
        if clock_skew_s < 0:
            raise ConfigError(
                f"clock_skew_s must be >= 0, got {clock_skew_s}"
            )
        self.db_path = db_path
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.clock_skew_s = clock_skew_s
        #: Monotonic high-water mark of every ``now`` this handle has
        #: evaluated leases at; see :meth:`_monotonic_now`.
        self._max_now = 0.0
        directory = os.path.dirname(os.path.abspath(db_path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            db_path, timeout=timeout_s, check_same_thread=False,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._closed = False

    # -- clock -------------------------------------------------------------------

    def _monotonic_now(self, now: Optional[float] = None) -> float:
        """``now`` (or the wall clock), clamped to never run backward.

        Lease decisions made at an earlier ``now`` than one already
        evaluated would resurrect leases this handle has seen expire: a
        backward wall-clock step (NTP correction, VM migration) would
        keep a dead worker's job unclaimable until the clock re-reaches
        the stamped expiry.  The caller must hold ``self._lock``.
        """
        observed = time.time() if now is None else now
        if observed > self._max_now:
            self._max_now = observed
        return self._max_now

    # -- transactions ------------------------------------------------------------

    @contextmanager
    def _write(self) -> Iterator[None]:
        """One write transaction under the handle's lock: committed when
        the body returns, rolled back when it raises."""
        with self._lock:
            # BEGIN IMMEDIATE takes the write lock up front, so the body
            # is atomic against *other processes* too (sqlite3's default
            # autocommit dance would not be).
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()

    # -- submission & queries ----------------------------------------------------

    def insert(self, record: JobRecord) -> None:
        """Persist a new ``queued`` job."""
        with self._write():
            self._conn.execute(
                "INSERT INTO jobs (id, kind, deployment, state,"
                " created_at, worker_id, lease_expires_at, attempts,"
                " cancel_requested, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?)",
                (record.id, record.kind, record.deployment,
                 record.state, record.created_at, record.worker_id,
                 record.lease_expires_at, record.attempts,
                 record.to_json()),
            )

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobNotFound(f"no job {job_id!r}")
        return JobRecord.from_json(row[0])

    def list(self, deployment: Optional[str] = None,
             state: Optional[str] = None) -> List[JobRecord]:
        """All known jobs (newest first), optionally filtered."""
        sql = "SELECT payload FROM jobs"
        clauses, params = [], []
        if deployment is not None:
            clauses.append("deployment = ?")
            params.append(deployment)
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, id"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [JobRecord.from_json(row[0]) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job count per state (zero-filled), for /healthz and /metrics."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        for state, count in rows:
            out[state] = out.get(state, 0) + int(count)
        return out

    def queue_depth(self, now: Optional[float] = None) -> int:
        """Jobs waiting for a worker: queued plus expired-lease running."""
        with self._lock:
            now = self._monotonic_now(now)
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM jobs"
                " WHERE (state = 'queued' AND cancel_requested = 0)"
                "    OR (state = 'running' AND lease_expires_at < ?)",
                (now - self.clock_skew_s,),
            ).fetchone()[0])

    # -- claim / heartbeat / finish ----------------------------------------------

    def claim(self, worker_id: str,
              now: Optional[float] = None) -> Optional[JobRecord]:
        """Atomically claim the oldest claimable job, or ``None``.

        Claimable: ``queued`` (and not cancel-requested), or ``running``
        with a lease expired past the clock-skew tolerance and attempts
        left — unless the job's deployment already has a different
        live-leased running job (per-deployment serialization; "live"
        uses the same skew-tolerant cut, so no lease is simultaneously
        dead for takeover and live for serialization).  On success the
        returned record is ``running``, stamped with this worker and a
        fresh lease, its prior ``progress`` intact.
        """
        with self._write():
            now = self._monotonic_now(now)
            expired_before = now - self.clock_skew_s
            # Park crash-looping jobs first, so they stop blocking
            # their deployment's queue slot.
            exhausted = self._conn.execute(
                "SELECT payload FROM jobs"
                " WHERE state = 'running' AND lease_expires_at < ?"
                "   AND attempts >= ?",
                (expired_before, self.max_attempts),
            ).fetchall()
            for (payload,) in exhausted:
                record = JobRecord.from_json(payload)
                self._write_locked(record, state="stale",
                                   finished_at=now,
                                   lease_expires_at=None,
                                   error=(f"lease expired after "
                                          f"{record.attempts} claim(s); "
                                          "giving up"))
                _CLAIMS.inc(result="parked")
            row = self._conn.execute(
                "SELECT payload FROM jobs j"
                " WHERE ((j.state = 'queued' AND j.cancel_requested = 0)"
                "     OR (j.state = 'running'"
                "         AND j.lease_expires_at < ?"
                "         AND j.attempts < ?))"
                "   AND NOT EXISTS ("
                "       SELECT 1 FROM jobs r"
                "        WHERE r.deployment = j.deployment"
                "          AND r.state = 'running'"
                "          AND r.lease_expires_at >= ?"
                "          AND r.id != j.id)"
                " ORDER BY j.created_at, j.id LIMIT 1",
                (expired_before, self.max_attempts, expired_before),
            ).fetchone()
            if row is None:
                return None
            record = JobRecord.from_json(row[0])
            claimed = self._write_locked(
                record, state="running", worker_id=worker_id,
                lease_expires_at=now + self.lease_s,
                attempts=record.attempts + 1,
                started_at=record.started_at or now,
            )
        _CLAIMS.inc(result=("claimed" if record.state == "queued"
                            else "reclaimed"))
        return claimed

    def heartbeat(self, job_id: str, worker_id: str) -> bool:
        """Renew the lease; ``False`` means the claim is gone (lost to a
        re-claim, finished, or the job vanished) and the caller should
        abandon the job."""
        with self._write():
            # Renew from the monotonic clock: a backward wall-clock
            # step must not shrink a live owner's lease into the past
            # (where a sibling would "reclaim" it mid-run).
            fresh = self._monotonic_now() + self.lease_s
            cur = self._conn.execute(
                "UPDATE jobs SET lease_expires_at = ?,"
                " payload = json_set(payload, '$.lease_expires_at', ?)"
                " WHERE id = ? AND worker_id = ? AND state = 'running'",
                (fresh, fresh, job_id, worker_id),
            )
        return cur.rowcount == 1

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
        return bool(row and row[0])

    def update_progress(self, job_id: str, worker_id: str,
                        progress: Dict[str, Any]) -> bool:
        """Write live counters and renew the lease in one transaction.

        Returns ``True`` when a cancel has been requested (the worker
        should stop cooperatively); raises :class:`LeaseLost` when the
        caller no longer owns the job.
        """
        with self._write():
            row = self._conn.execute(
                "SELECT payload, cancel_requested FROM jobs"
                " WHERE id = ? AND worker_id = ? AND state = 'running'",
                (job_id, worker_id),
            ).fetchone()
            if row is None:
                _LEASE_LOST.inc(op="progress")
                raise LeaseLost(
                    f"job {job_id} is no longer owned by {worker_id}"
                )
            record = JobRecord.from_json(row[0])
            self._write_locked(
                record, progress=dict(progress),
                lease_expires_at=self._monotonic_now() + self.lease_s,
            )
        return bool(row[1])

    def finish(self, job_id: str, worker_id: str, state: str,
               result: Optional[Dict[str, Any]] = None,
               error: str = "") -> JobRecord:
        """Terminal transition, guarded by ownership.

        Raises :class:`LeaseLost` when another worker re-claimed the job
        (the loser must not clobber the winner's record) and
        :class:`JobStateError` when the job is already terminal.
        """
        if state not in TERMINAL_STATES:
            raise ConfigError(f"finish() got non-terminal state {state!r}")
        with self._write():
            row = self._conn.execute(
                "SELECT payload FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise JobNotFound(f"no job {job_id!r}")
            record = JobRecord.from_json(row[0])
            if record.finished:
                raise JobStateError(
                    f"job {job_id} already finished ({record.state})"
                )
            if record.state == "running" and record.worker_id != worker_id:
                _LEASE_LOST.inc(op="finish")
                raise LeaseLost(
                    f"job {job_id} is owned by {record.worker_id},"
                    f" not {worker_id}"
                )
            return self._write_locked(
                record, state=state, finished_at=time.time(),
                lease_expires_at=None, result=result, error=error,
            )

    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate for ``queued``, cooperative (flag
        polled by the owning worker) for ``running``."""
        with self._write():
            row = self._conn.execute(
                "SELECT payload FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise JobNotFound(f"no job {job_id!r}")
            record = JobRecord.from_json(row[0])
            if record.finished:
                raise JobStateError(
                    f"job {job_id} already finished ({record.state})"
                )
            if record.state == "queued":
                return self._write_locked(
                    record, state="cancelled",
                    finished_at=time.time(),
                    error="cancelled while queued",
                )
            self._conn.execute(
                "UPDATE jobs SET cancel_requested = 1"
                " WHERE id = ?", (job_id,),
            )
        return record

    def prune(self, retention: int) -> int:
        """Drop the oldest finished jobs beyond ``retention``; returns
        how many went."""
        marks = ", ".join("?" for _ in TERMINAL_STATES)
        with self._write():
            cur = self._conn.execute(
                f"DELETE FROM jobs WHERE state IN ({marks})"
                " AND id IN ("
                f"   SELECT id FROM jobs WHERE state IN ({marks})"
                "    ORDER BY created_at DESC, id"
                "    LIMIT -1 OFFSET ?)",
                (*TERMINAL_STATES, *TERMINAL_STATES, retention),
            )
        return cur.rowcount

    # -- record writing ----------------------------------------------------------

    def _write_locked(self, record: JobRecord, **changes) -> JobRecord:
        """Apply ``changes`` and persist row + payload (inside
        :meth:`_write`)."""
        from dataclasses import replace

        updated = replace(record, **changes)
        self._conn.execute(
            "UPDATE jobs SET kind = ?, deployment = ?, state = ?,"
            " created_at = ?, worker_id = ?, lease_expires_at = ?,"
            " attempts = ?, payload = ? WHERE id = ?",
            (updated.kind, updated.deployment, updated.state,
             updated.created_at, updated.worker_id,
             updated.lease_expires_at, updated.attempts,
             updated.to_json(), updated.id),
        )
        return updated

    # -- worker registry ---------------------------------------------------------

    def register_worker(self, worker_id: str, pid: int) -> None:
        now = time.time()
        with self._write():
            self._conn.execute(
                "INSERT INTO workers"
                " (worker_id, pid, started_at, heartbeat_at)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                " pid = excluded.pid,"
                " started_at = excluded.started_at,"
                " heartbeat_at = excluded.heartbeat_at",
                (worker_id, pid, now, now),
            )

    def worker_heartbeat(self, worker_id: str) -> None:
        with self._write():
            self._conn.execute(
                "UPDATE workers SET heartbeat_at = ?"
                " WHERE worker_id = ?",
                (time.time(), worker_id),
            )

    def deregister_worker(self, worker_id: str) -> None:
        with self._write():
            self._conn.execute(
                "DELETE FROM workers WHERE worker_id = ?", (worker_id,)
            )

    def live_workers(self,
                     timeout_s: Optional[float] = None) -> List[Dict]:
        """Workers whose registry heartbeat is fresher than ``timeout_s``
        (default: two lease windows), newest registration first."""
        horizon = time.time() - (timeout_s if timeout_s is not None
                                 else 2 * self.lease_s)
        with self._lock:
            rows = self._conn.execute(
                "SELECT worker_id, pid, started_at, heartbeat_at"
                " FROM workers WHERE heartbeat_at >= ?"
                " ORDER BY started_at DESC, worker_id",
                (horizon,),
            ).fetchall()
        now = time.time()
        return [
            {
                "worker_id": worker_id,
                "pid": int(pid),
                "uptime_s": round(now - started_at, 3),
                "heartbeat_age_s": round(now - heartbeat_at, 3),
            }
            for worker_id, pid, started_at, heartbeat_at in rows
        ]

    # -- legacy import -----------------------------------------------------------

    def import_legacy_jobs(self, jobs_dir: str) -> int:
        """One-shot import of pre-fleet ``jobs/<id>.json`` records.

        Each imported file is renamed to ``*.migrated`` (same idiom as
        the dataset migration) so history survives the upgrade without
        ever being double-imported; ``running`` leftovers become
        ``stale`` unless their lease is still live.
        """
        try:
            names = sorted(os.listdir(jobs_dir))
        except OSError:
            return 0
        imported = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = JobRecord.from_json(fh.read())
            except Exception:  # noqa: BLE001 - unreadable record
                continue
            lease = record.lease_expires_at
            if record.state == "running" and (
                    lease is None or lease <= time.time()):
                from dataclasses import replace

                record = replace(
                    record, state="stale", finished_at=time.time(),
                    lease_expires_at=None,
                    error="imported from a dead server's jobs directory",
                )
            try:
                self.insert(record)
                imported += 1
            except sqlite3.IntegrityError:
                pass  # already imported by a sibling worker
            try:
                os.replace(path, path + ".migrated")
            except OSError:
                pass
        return imported

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            with self._lock:
                self._conn.close()

    def __getstate__(self):  # pragma: no cover - guard rail
        raise ConfigError("FleetJobStore handles cannot be pickled")


def new_job_record(kind: str, request: Dict[str, Any],
                   trace: str = "") -> JobRecord:
    """Validate a submission and mint its ``queued`` record (shared by
    the fleet manager and anything enqueuing directly).

    ``trace`` is the submitter's serialized span context
    (``traceparent``); persisting it on the record is what stitches the
    submitting process's trace to the claiming worker process's spans.
    """
    from repro.api.requests import CollectRequest, PredictRequest

    if kind not in JOB_KINDS:
        raise ConfigError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    request_type = CollectRequest if kind == "collect" else PredictRequest
    typed = request_type.from_dict(request)
    if not typed.deployment:
        raise ConfigError("job request needs a deployment name")
    return JobRecord(
        id=f"job-{uuid.uuid4().hex[:12]}",
        kind=kind,
        deployment=typed.deployment,
        state="queued",
        request=dict(request),
        created_at=time.time(),
        trace=trace,
    )
