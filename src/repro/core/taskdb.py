"""Task list with execution state, persisted as JSON or through a store.

Paper Sec. III-C: "This list is recorded and stored in a JSON file.  The
list also contains the status of the task, which can be pending, failed, or
completed."

With a :mod:`repro.store` database attached, every status transition
is persisted immediately (an upsert of just the changed record), so an
aborted sweep resumes from exactly what it completed.  A batched sweep
may hold transitions in memory instead (:meth:`TaskDB.hold_writes`) and
commit them together with their points.  Without a store, ``save()``
atomically rewrites the JSON file and :meth:`TaskDB.load` reads one —
the legacy ``tasks-<name>.json`` shape, which the store's import and
export of the legacy layout use.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

from repro.core.scenarios import Scenario
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.sqlite import SqliteStore


class TaskStatus(enum.Enum):
    PENDING = "pending"
    FAILED = "failed"
    COMPLETED = "completed"


@dataclass
class TaskRecord:
    """One scenario plus its execution state and (when done) its results."""

    scenario: Scenario
    status: TaskStatus = TaskStatus.PENDING
    exec_time_s: Optional[float] = None
    cost_usd: Optional[float] = None
    app_vars: Dict[str, str] = field(default_factory=dict)
    infra_metrics: Dict[str, float] = field(default_factory=dict)
    failure_reason: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    skipped_by_sampler: bool = False
    predicted: bool = False
    #: Spot interruptions absorbed while executing this scenario.
    preemptions: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "status": self.status.value,
            "exec_time_s": self.exec_time_s,
            "cost_usd": self.cost_usd,
            "app_vars": dict(self.app_vars),
            "infra_metrics": dict(self.infra_metrics),
            "failure_reason": self.failure_reason,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "skipped_by_sampler": self.skipped_by_sampler,
            "predicted": self.predicted,
            "preemptions": self.preemptions,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TaskRecord":
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),  # type: ignore[arg-type]
            status=TaskStatus(str(data.get("status", "pending"))),
            exec_time_s=_opt_float(data.get("exec_time_s")),
            cost_usd=_opt_float(data.get("cost_usd")),
            app_vars={str(k): str(v)
                      for k, v in dict(data.get("app_vars", {})).items()},
            infra_metrics={str(k): float(v)  # type: ignore[arg-type]
                           for k, v in dict(data.get("infra_metrics", {})).items()},
            failure_reason=(str(data["failure_reason"])
                            if data.get("failure_reason") else None),
            started_at=_opt_float(data.get("started_at")),
            finished_at=_opt_float(data.get("finished_at")),
            skipped_by_sampler=bool(data.get("skipped_by_sampler", False)),
            predicted=bool(data.get("predicted", False)),
            preemptions=int(data.get("preemptions", 0)),  # type: ignore[arg-type]
        )


def _opt_float(value: object) -> Optional[float]:
    return None if value is None else float(value)  # type: ignore[arg-type]


class TaskDB:
    """The scenario/task list, optionally persisted (module docstring)."""

    def __init__(self, path: Optional[str] = None,
                 store: Optional["SqliteStore"] = None) -> None:
        self.path = path
        self._records: Dict[str, TaskRecord] = {}
        self._store = store
        #: Records changed while holding writes, by scenario id, in
        #: first-change order (``None`` when writing through).
        self._held: Optional[Dict[str, TaskRecord]] = None

    @property
    def store(self) -> Optional["SqliteStore"]:
        return self._store

    @classmethod
    def from_records(cls, records: Iterable[TaskRecord],
                     path: Optional[str] = None,
                     store: Optional["SqliteStore"] = None) -> "TaskDB":
        """A task DB over already-persisted records (store load path)."""
        db = cls(path=path, store=store)
        for record in records:
            db._records[record.scenario.scenario_id] = record
        return db

    def _sync(self, changed: List[TaskRecord]) -> None:
        if self._held is not None:
            for record in changed:
                self._held[record.scenario.scenario_id] = record
            return
        if self._store is not None and changed:
            self._store.sync_tasks(changed)

    def hold_writes(self, hold: bool = True) -> None:
        """Start (or stop) holding status transitions in memory instead
        of syncing them; :meth:`take_held` hands them to the caller to
        persist.  No-op without a store."""
        self._held = {} if hold and self._store is not None else None

    def take_held(self) -> List[TaskRecord]:
        """Every record changed since the last take, each at its current
        state, in first-change order — what the per-transition upserts
        would have left behind, since upserts keep insertion order.
        From now on the caller is the one persisting them."""
        if not self._held:
            return []
        changed = list(self._held.values())
        self._held.clear()
        return changed

    # -- population -----------------------------------------------------------

    def add_scenarios(self, scenarios: Iterable[Scenario]) -> None:
        added = []
        for scenario in scenarios:
            if scenario.scenario_id in self._records:
                raise DatasetError(
                    f"duplicate scenario id {scenario.scenario_id!r}"
                )
            record = TaskRecord(scenario=scenario)
            self._records[scenario.scenario_id] = record
            added.append(record)
        self._sync(added)

    # -- queries ------------------------------------------------------------------

    def get(self, scenario_id: str) -> TaskRecord:
        try:
            return self._records[scenario_id]
        except KeyError:
            raise DatasetError(f"no task {scenario_id!r}") from None

    def all(self) -> List[TaskRecord]:
        return list(self._records.values())

    def in_status(self, status: TaskStatus) -> List[TaskRecord]:
        return [r for r in self._records.values() if r.status is status]

    def counts(self) -> Dict[str, int]:
        out = {s.value: 0 for s in TaskStatus}
        for record in self._records.values():
            out[record.status.value] += 1
        return out

    def __len__(self) -> int:
        return len(self._records)

    # -- updates --------------------------------------------------------------------

    def mark_completed(
        self,
        scenario_id: str,
        exec_time_s: float,
        cost_usd: float,
        app_vars: Mapping[str, str] = (),
        infra_metrics: Mapping[str, float] = (),
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
        predicted: bool = False,
        preemptions: int = 0,
    ) -> TaskRecord:
        record = self.get(scenario_id)
        record.status = TaskStatus.COMPLETED
        record.exec_time_s = exec_time_s
        record.cost_usd = cost_usd
        record.app_vars = dict(app_vars)
        record.infra_metrics = dict(infra_metrics)
        record.started_at = started_at
        record.finished_at = finished_at
        record.predicted = predicted
        record.preemptions = preemptions
        self._sync([record])
        return record

    def mark_failed(self, scenario_id: str, reason: str,
                    started_at: Optional[float] = None,
                    finished_at: Optional[float] = None,
                    preemptions: int = 0) -> TaskRecord:
        record = self.get(scenario_id)
        record.status = TaskStatus.FAILED
        record.failure_reason = reason
        record.started_at = started_at
        record.finished_at = finished_at
        record.preemptions = preemptions
        self._sync([record])
        return record

    def mark_skipped(self, scenario_id: str) -> TaskRecord:
        """Sampler decided this scenario need not run (stays pending)."""
        record = self.get(scenario_id)
        record.skipped_by_sampler = True
        self._sync([record])
        return record

    # -- persistence -----------------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Persist this instance's records.

        Store-backed task DBs persisted every transition as it happened,
        so ``save()`` has nothing left to write.  Path-backed ones
        atomically rewrite the file; readers never see a partial file,
        but concurrent *read-modify-write* cycles are the caller's job:
        ``AdvisorSession.collect`` holds the task DB's advisory
        ``file_lock`` from load to save so sweeps cannot lose each
        other's updates.
        """
        if self._store is not None and (path is None or path == self.path):
            return self.path or ""

        # Imported here: statefiles sits above this module in the layering
        # (it pulls in the deployer), and save() is called once per sweep.
        from repro.core.statefiles import atomic_write

        target = path or self.path
        if target is None:
            raise DatasetError("TaskDB has no path to save to")
        payload = {"tasks": [r.to_dict() for r in self._records.values()]}
        atomic_write(target, json.dumps(payload, indent=1))
        self.path = target
        return target

    @classmethod
    def load(cls, path: str) -> "TaskDB":
        db = cls(path=path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise DatasetError(f"cannot read task DB {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DatasetError(f"corrupt task DB {path!r}: {exc}") from exc
        for item in payload.get("tasks", []):
            record = TaskRecord.from_dict(item)
            db._records[record.scenario.scenario_id] = record
        return db
