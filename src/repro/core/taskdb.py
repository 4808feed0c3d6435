"""Task list with execution state.

Paper Sec. III-C: "This list is recorded and stored in a JSON file.  The
list also contains the status of the task, which can be pending, failed, or
completed."

A ``TaskDB`` only holds records in memory; it never writes to a store.
Every status transition is remembered until :meth:`TaskDB.take_held`
hands it over, and the sweep collector (:mod:`repro.core.collector`)
commits what it takes together with the points those transitions
describe (:meth:`repro.store.sqlite.SqliteStore.commit`), so a point
and its task always land together.  A completion is recorded from its
point (:meth:`TaskDB.mark_completed`), and until the take the task DB
remembers which point that was, so the commit can store the task row
as a link to the point's row instead of a copy of its measurements.
:meth:`TaskDB.save` atomically rewrites a JSON file at a path the
caller names and :meth:`TaskDB.load` reads one: the legacy
``tasks-<name>.json`` shape, which the store's import of the legacy
layout and its one writer (``repro.store.export_legacy``) use.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Set)

from repro.core.scenarios import Scenario
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dataset import DataPoint


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


class HeldTasks(list):
    """What :meth:`TaskDB.take_held` returns: the changed records, plus
    what the store's commit needs to write them compactly.

    ``points`` maps the scenario id of each completion since the last
    take to the point it was recorded from; ``new`` holds the ids
    registered since then, and ``payload_changed`` those whose
    scenario, failure reason or skip flag changed since then
    (registrations, failures, skips).  All three describe this
    hand-over only: a caller that ignores them and writes every record
    in full stores the same records.
    """

    def __init__(self, records: Iterable[TaskRecord],
                 points: Dict[str, "DataPoint"], new: Set[str],
                 payload_changed: Set[str]) -> None:
        super().__init__(records)
        self.points = points
        self.new = new
        self.payload_changed = payload_changed


class TaskDB:
    """The scenario/task list (module docstring)."""

    def __init__(self) -> None:
        self._records: Dict[str, TaskRecord] = {}
        #: Records changed since the last :meth:`take_held`, by scenario
        #: id, in first-change order.
        self._held: Dict[str, TaskRecord] = {}
        #: Since the last take: the point each completion was recorded
        #: from, the ids registered, and the ids whose payload fields
        #: changed (HeldTasks).
        self._points: Dict[str, "DataPoint"] = {}
        self._new: Set[str] = set()
        self._payload_changed: Set[str] = set()

    @classmethod
    def from_records(cls, records: Iterable[TaskRecord]) -> "TaskDB":
        """A task DB over already-persisted records (store load path)."""
        db = cls()
        for record in records:
            db._records[record.scenario.scenario_id] = record
        return db

    def take_held(self) -> HeldTasks:
        """Every record changed since the last take, each at its current
        state, in first-change order — what the per-transition upserts
        would have left behind, since upserts keep insertion order.
        From now on the caller is the one persisting them; the task DB
        keeps no reference to the points handed over."""
        changed = HeldTasks(self._held.values(), self._points, self._new,
                            self._payload_changed)
        self._held = {}
        self._points = {}
        self._new = set()
        self._payload_changed = set()
        return changed

    # -- population -----------------------------------------------------------

    def add_scenarios(self, scenarios: Iterable[Scenario]) -> None:
        for scenario in scenarios:
            if scenario.scenario_id in self._records:
                raise DatasetError(
                    f"duplicate scenario id {scenario.scenario_id!r}"
                )
            record = TaskRecord(scenario=scenario)
            self._records[scenario.scenario_id] = record
            self._held[scenario.scenario_id] = record
            self._new.add(scenario.scenario_id)
            self._payload_changed.add(scenario.scenario_id)

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

    def mark_completed(self, scenario_id: str, point: "DataPoint",
                       started_at: Optional[float] = None,
                       finished_at: Optional[float] = None) -> TaskRecord:
        """Record the scenario's measurement: exec time, cost, app and
        infra variables, the predicted flag and preemptions come from
        ``point``, the execution window from the arguments."""
        record = self.get(scenario_id)
        record.status = TaskStatus.COMPLETED
        record.exec_time_s = point.exec_time_s
        record.cost_usd = point.cost_usd
        record.app_vars = dict(point.app_vars)
        record.infra_metrics = dict(point.infra_metrics)
        record.started_at = started_at
        record.finished_at = finished_at
        record.predicted = point.predicted
        record.preemptions = point.preemptions
        self._held[scenario_id] = record
        self._points[scenario_id] = point
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
        self._held[scenario_id] = record
        self._points.pop(scenario_id, None)
        self._payload_changed.add(scenario_id)
        return record

    def mark_skipped(self, scenario_id: str) -> TaskRecord:
        """Sampler decided this scenario need not run (stays pending)."""
        record = self.get(scenario_id)
        record.skipped_by_sampler = True
        self._held[scenario_id] = record
        self._points.pop(scenario_id, None)
        self._payload_changed.add(scenario_id)
        return record

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str) -> str:
        """Write this instance's records to ``path`` as a legacy JSON
        file; returns ``path``.

        The file is rewritten atomically: readers never see a partial
        file, but concurrent *read-modify-write* cycles are the
        caller's job (hold the file's advisory ``file_lock`` from load
        to save).
        """
        # Imported here: statefiles sits above this module in the layering
        # (it pulls in the deployer), and save() runs only on export.
        from repro.core.statefiles import atomic_write

        payload = {"tasks": [r.to_dict() for r in self._records.values()]}
        atomic_write(path, json.dumps(payload, indent=1))
        return path

    @classmethod
    def load(cls, path: str) -> "TaskDB":
        db = cls()
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
