"""The fleet's job executor: the service's job manager over the shared store.

:class:`FleetJobManager` is what every service process runs — a single
``serve`` as much as each ``fleet serve`` worker.  It exposes the
``submit / get / list / counts / cancel / wait / close`` surface the
router speaks (:class:`ServiceState.jobs`), with every record living in
the shared :class:`~repro.fleet.jobstore.FleetJobStore`.  Consequences:

* a job submitted through any worker can be executed by any worker;
* a worker that dies mid-job (``kill -9`` included) loses its lease and
  a surviving worker re-claims the job, resuming the sweep from the
  task DB's partial progress;
* cancellation is a store flag, so a client can cancel through one
  worker a job that another worker is running.

Executor threads poll the store for claimable work (``poll_s``); a
single heartbeat thread renews the lease on every job this process
holds (and the worker's own registry heartbeat) every quarter lease.
The ``REPRO_FLEET_SCENARIO_DELAY_S`` environment knob injects a real
sleep per progress event — a load-shaping hook used by the kill-recovery
e2e test and the service load benchmark to make simulated sweeps take
realistic wall-clock time.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from repro.api.requests import CollectRequest, PredictRequest
from repro.errors import ConfigError, JobStateError, LeaseLost, ReproError
from repro.fleet.jobstore import FleetJobStore, new_job_record
from repro.service.jobs import JobCancelled, JobRecord
from repro import telemetry

#: Environment knob: seconds slept per progress event (load shaping).
SCENARIO_DELAY_ENV = "REPRO_FLEET_SCENARIO_DELAY_S"

#: Job lifecycle transitions, by kind and entered state.
_TRANSITIONS = telemetry.global_registry().counter(
    "advisor_jobs_transitions_total",
    "Job lifecycle transitions, by kind and entered state.",
)


class _JobControl:
    """Per-active-job signal flags shared with the heartbeat thread."""

    def __init__(self) -> None:
        self.cancel = threading.Event()
        self.abandon = threading.Event()


class FleetJobManager:
    """Store-backed job manager (module docstring).

    ``store`` is the shared queue; ``workers`` is the number of executor
    threads; ``retention`` caps how many finished jobs the store keeps;
    ``worker_id`` names this process in job records and the worker
    registry.
    """

    #: Minimum seconds between progress writes to the store per job;
    #: cancel/abandon flags are checked on *every* progress event.
    PROGRESS_FLUSH_INTERVAL_S = 0.2

    def __init__(
        self,
        store: FleetJobStore,
        session_factory: Callable[[], Any],
        workers: int = 4,
        retention: int = 1000,
        worker_id: Optional[str] = None,
        poll_s: float = 0.2,
        owns_store: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retention < 1:
            raise ConfigError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self.poll_s = poll_s
        self.worker_id = worker_id or \
            f"fleet-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.scenario_delay_s = float(
            os.environ.get(SCENARIO_DELAY_ENV) or 0.0
        )
        self._store = store
        self._owns_store = owns_store
        self._session_factory = session_factory
        self._active: Dict[str, _JobControl] = {}
        self._active_lock = threading.Lock()
        self._stop = threading.Event()
        self._nudge = threading.Event()
        store.register_worker(self.worker_id, os.getpid())
        self._threads = [
            threading.Thread(target=self._executor, daemon=True,
                             name=f"fleet-executor-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True,
            name="fleet-heartbeat",
        )
        self._heartbeat_thread.start()

    # -- job manager surface -----------------------------------------------------

    def submit(self, kind: str, request: Dict[str, Any],
               trace: str = "") -> JobRecord:
        """Queue a job; returns its initial (``queued``) record.

        ``trace`` (a ``traceparent``) links the executing worker's spans
        — wherever in the fleet the job lands — into the submitter's
        trace.
        """
        record = new_job_record(kind, request, trace=trace)
        # Prune first: once inserted, the job may be claimed and finish
        # before a later prune, which would count it against retention
        # and evict an older finished job that should have stayed.
        self._store.prune(self.retention)
        self._store.insert(record)
        _TRANSITIONS.inc(kind=kind, state="queued")
        self._nudge.set()
        return record

    def get(self, job_id: str) -> JobRecord:
        return self._store.get(job_id)

    def list(self, deployment: Optional[str] = None,
             state: Optional[str] = None) -> List[JobRecord]:
        return self._store.list(deployment=deployment, state=state)

    def counts(self) -> Dict[str, int]:
        return self._store.counts()

    def cancel(self, job_id: str) -> JobRecord:
        record = self._store.request_cancel(job_id)
        # Locally-held jobs get the flag without waiting a heartbeat.
        with self._active_lock:
            ctl = self._active.get(job_id)
        if ctl is not None:
            ctl.cancel.set()
        return record

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.02) -> JobRecord:
        """Block until the job finishes; returns its final record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.get(job_id)
            if record.finished:
                return record
            if time.monotonic() >= deadline:
                raise JobStateError(
                    f"job {job_id} still {record.state} after {timeout}s"
                )
            time.sleep(poll)

    def close(self, wait: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop claiming; optionally wait for held jobs to finish.

        Unfinished jobs owned by *other* workers are never waited on —
        they are the fleet's problem, not this process's.  Jobs this
        worker holds at a no-wait close simply lose their lease and get
        re-claimed elsewhere.
        """
        self._stop.set()
        self._nudge.set()
        if wait:
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._active_lock:
                    busy = bool(self._active)
                if not busy:
                    break
                time.sleep(0.02)
            for thread in self._threads:
                thread.join(timeout=5)
        self._stop_heartbeat()
        try:
            self._store.deregister_worker(self.worker_id)
        except Exception:  # noqa: BLE001 - best effort on the way out
            pass
        if self._owns_store and wait:
            # A no-wait close may leave executor threads mid-job; they
            # keep the connection until the process exits rather than
            # crashing into a closed handle.
            self._store.close()

    def _stop_heartbeat(self) -> None:
        # The heartbeat thread watches the same stop event.
        self._heartbeat_thread.join(timeout=5)

    # -- fleet introspection -----------------------------------------------------

    def fleet_health(self) -> Dict[str, Any]:
        """Live workers + queue depth, for the fleet-aware /healthz."""
        return {
            "worker_id": self.worker_id,
            "workers": self._store.live_workers(),
            "queue_depth": self._store.queue_depth(),
            "lease_s": self._store.lease_s,
        }

    # -- executor side -----------------------------------------------------------

    def _executor(self) -> None:
        while not self._stop.is_set():
            record = None
            try:
                # Cheap read-only probe first: idle workers must not
                # hammer the store with write transactions.
                if self._store.queue_depth() > 0:
                    record = self._store.claim(self.worker_id)
            except Exception:  # noqa: BLE001 - transient store contention
                record = None
            if record is None:
                self._nudge.wait(self.poll_s)
                self._nudge.clear()
                continue
            self._run(record)

    def _run(self, record: JobRecord) -> None:
        job_id = record.id
        ctl = _JobControl()
        with self._active_lock:
            self._active[job_id] = ctl
        _TRANSITIONS.inc(kind=record.kind, state="running")
        try:
            try:
                result = self._execute(record, ctl)
            except JobCancelled:
                self._finish_quiet(job_id, "cancelled",
                                   error="cancelled while running")
            except LeaseLost:
                pass  # re-claimed by a survivor; its record, not ours
            except ReproError as exc:
                self._finish_quiet(job_id, "failed", error=str(exc))
            except Exception as exc:  # noqa: BLE001 - job must not hang
                self._finish_quiet(job_id, "failed",
                                   error=f"{type(exc).__name__}: {exc}")
            else:
                self._finish_quiet(job_id, "done", result=result.to_dict())
        finally:
            with self._active_lock:
                self._active.pop(job_id, None)
            # The deployment's serialization slot just freed: wake an
            # idle executor to look for parked same-deployment jobs.
            self._nudge.set()

    def _finish_quiet(self, job_id: str, state: str, **kwargs) -> None:
        try:
            record = self._store.finish(job_id, self.worker_id, state,
                                        **kwargs)
        except (LeaseLost, JobStateError):
            pass  # lost the job while it ran; the winner writes history
        else:
            _TRANSITIONS.inc(kind=record.kind, state=state)

    def _execute(self, record: JobRecord, ctl: _JobControl):
        # Adopt the trace the submitting process serialized onto the
        # record — this worker may be a different *process* than the one
        # that accepted the HTTP request — and aim spans at the
        # deployment's trace ring in the shared state directory.
        trace_token = telemetry.activate(
            telemetry.parse_traceparent(record.trace)
        )
        sink_token = telemetry.set_sink(
            telemetry.trace_path(os.path.dirname(self._store.db_path),
                                 record.deployment)
            if record.deployment else None
        )
        try:
            with telemetry.span("job.run", job_id=record.id,
                                kind=record.kind,
                                worker_id=self.worker_id):
                return self._execute_request(record, ctl)
        finally:
            telemetry.reset_sink(sink_token)
            telemetry.deactivate(trace_token)

    def _execute_request(self, record: JobRecord, ctl: _JobControl):
        session = self._session_factory()
        job_id = record.id
        if self._store.cancel_requested(job_id):
            raise JobCancelled(job_id)
        if record.kind == "collect":
            request = CollectRequest.from_dict(record.request)
            last_flush = [0.0]

            def progress(report, total: int) -> None:
                if ctl.abandon.is_set():
                    raise LeaseLost(job_id)
                if ctl.cancel.is_set():
                    raise JobCancelled(job_id)
                now = time.monotonic()
                if now - last_flush[0] >= self.PROGRESS_FLUSH_INTERVAL_S:
                    last_flush[0] = now
                    try:
                        cancelled = self._store.update_progress(
                            job_id, self.worker_id, {
                                "total": total,
                                "executed": report.executed,
                                "completed": report.completed,
                                "failed": report.failed,
                                "skipped": report.skipped,
                                "predicted": report.predicted,
                                "preemptions": report.preemptions,
                                "simulated_wall_s": report.simulated_wall_s,
                            })
                    except LeaseLost:
                        ctl.abandon.set()
                        raise
                    if cancelled:
                        ctl.cancel.set()
                        raise JobCancelled(job_id)
                if self.scenario_delay_s:
                    time.sleep(self.scenario_delay_s)

            result = session.collect(request, progress=progress)
            # A cancel landing after the last scenario must still end
            # the job `cancelled`; the collected data stays resumable.
            if ctl.cancel.is_set() or self._store.cancel_requested(job_id):
                raise JobCancelled(job_id)
            return result
        request = PredictRequest.from_dict(record.request)
        result = session.predict(request)
        if ctl.cancel.is_set() or self._store.cancel_requested(job_id):
            raise JobCancelled(job_id)
        return result

    # -- heartbeat side ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = max(min(self._store.lease_s / 4.0, 1.0), 0.05)
        while not self._stop.wait(interval):
            try:
                self._store.worker_heartbeat(self.worker_id)
            except Exception:  # noqa: BLE001 - store contention
                pass
            with self._active_lock:
                active = dict(self._active)
            for job_id, ctl in active.items():
                try:
                    if not self._store.heartbeat(job_id, self.worker_id):
                        ctl.abandon.set()
                    elif self._store.cancel_requested(job_id):
                        ctl.cancel.set()
                except Exception:  # noqa: BLE001 - store contention
                    pass
