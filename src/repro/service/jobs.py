"""Job records: the type and lifecycle states of a service job.

Collect and predict sweeps are long-running: the service accepts them as
*jobs* and runs them on the fleet queue (:mod:`repro.fleet`), which
keeps one :class:`JobRecord` per job in ``<state-dir>/fleet.sqlite``.
The lifecycle::

    queued -> running -> done
                      -> failed
    queued ----------> cancelled         (cancelled before a worker took it)
    running ---------> cancelled         (cooperative, between scenarios)
    running ---------> stale             (see below)

A running job whose worker dies is not lost: its lease expires and
another worker re-claims it, resuming the sweep from the task DB.  A job
only goes ``stale`` when it burns through the fleet's claim limit, or
when it is imported from a pre-fleet ``jobs/<id>.json`` directory with
a dead lease (:meth:`~repro.fleet.jobstore.FleetJobStore.import_legacy_jobs`).

While a collect job runs, the collector's ``on_progress`` callback feeds
executed/completed/failed counters and the task-level simulated span
(``simulated_wall_s``) into ``progress``; the true makespan arrives with
the final result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.serde import DictMixin
from repro.errors import ReproError

#: States a job can be observed in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "stale")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "stale"})

#: Job kinds the fleet knows how to execute.
JOB_KINDS = ("collect", "predict")


class JobCancelled(ReproError):
    """Raised inside a worker when its job's cancel flag is set."""


@dataclass(frozen=True)
class JobRecord(DictMixin):
    """One job's full, JSON-round-trippable state."""

    id: str
    kind: str = "collect"
    deployment: str = ""
    state: str = "queued"
    #: The submitted request as a plain dict (CollectRequest/PredictRequest
    #: shaped, depending on ``kind``).
    request: Dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The result payload (CollectResult/PredictResult shaped) once done.
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    #: Live counters while running: executed/completed/failed/skipped/
    #: predicted/total plus the task-level simulated span so far
    #: (``simulated_wall_s``).
    progress: Dict[str, Any] = field(default_factory=dict)
    #: Which worker currently owns (or last owned) the job.
    worker_id: str = ""
    #: Wall-clock deadline of the owning worker's lease; renewed while
    #: the job runs.  An expired lease is the one and only signal that
    #: the owning worker is dead.
    lease_expires_at: Optional[float] = None
    #: How many times a worker has claimed this job (>1 after recovery).
    attempts: int = 0
    #: Serialized span context (W3C ``traceparent``) of the submitting
    #: request; the claiming worker — possibly another process — adopts
    #: it so client, router, job, and sweep spans share one trace id.
    trace: str = ""

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES
