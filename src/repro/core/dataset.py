"""Dataset store: the filtered, organised output of data collection.

Paper Sec. I: "data is collected, filtered, and organized"; the dataset is
what the plot and advice commands consume, optionally through "a given data
filter" (a :class:`~repro.core.query.Query`).

A ``Dataset`` only holds points in memory; it never writes to a store.
The sweep collector (:mod:`repro.core.collector`) is the one writer of
sweep results: it takes each sweep's new points with
:meth:`Dataset.take_held` and hands them to
:meth:`repro.store.sqlite.SqliteStore.commit` together with the task
records that describe them, so a point and its task always land
together.  To add points to a deployment's store directly, use
``AdvisorSession.data_store(name).append_points``.

:meth:`Dataset.save` and :meth:`Dataset.load` write and read the legacy
``dataset-<name>.jsonl`` shape (one JSON object per line) at a path the
caller names; a ``Dataset`` remembers no path of its own.  The store's
import of the legacy layout (``repro.store.open_deployment_store``) and
its one writer (``repro.store.export_legacy``) use exactly these two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.core.query import Query
from repro.errors import DatasetError


@dataclass(frozen=True)
class DataPoint:
    """One completed scenario measurement."""

    appname: str
    sku: str
    nnodes: int
    ppn: int
    exec_time_s: float
    cost_usd: float
    appinputs: Dict[str, str] = field(default_factory=dict)
    app_vars: Dict[str, str] = field(default_factory=dict)
    infra_metrics: Dict[str, float] = field(default_factory=dict)
    tags: Dict[str, str] = field(default_factory=dict)
    deployment: str = ""
    timestamp: float = 0.0
    predicted: bool = False
    #: Capacity tier the measurement ran on (``ondemand`` or ``spot``).
    capacity: str = "ondemand"
    #: Spot interruptions absorbed while producing this measurement.
    preemptions: int = 0
    #: Billed node-seconds that produced no surviving work (lost progress
    #: plus restore overhead) across the scenario's attempts.
    wasted_node_s: float = 0.0
    #: Wall-clock span from the first attempt's start to completion —
    #: on spot capacity this includes lost attempts and re-provisioning,
    #: so it is the honest "time to result"; equals ``exec_time_s`` on
    #: an uninterrupted run.
    makespan_s: float = 0.0

    def __post_init__(self) -> None:
        # Mapping values are strings wherever a point is read (JSON rows,
        # SQL pushdown, snapshot masks), so a point built with others
        # (``appinputs={"BOXFACTOR": 4}``) holds them as strings too.
        # str.join accepts only strings: one C-level check of every key
        # and value.
        try:
            "".join((*self.appinputs, *self.appinputs.values(),
                     *self.app_vars, *self.app_vars.values(),
                     *self.tags, *self.tags.values()))
        except TypeError:
            for name in ("appinputs", "app_vars", "tags"):
                object.__setattr__(self, name, _str_map(getattr(self, name)))
        if self.nnodes < 1:
            raise DatasetError(f"invalid nnodes: {self.nnodes}")
        # Views replace cost and makespan (spot_view_point may make them
        # inf at brutal eviction rates) but never the work itself.
        if not math.isfinite(self.exec_time_s):
            raise DatasetError(
                f"non-finite exec_time_s: {self.exec_time_s}")
        if self.exec_time_s < 0:
            raise DatasetError(f"negative exec time: {self.exec_time_s}")
        if self.cost_usd < 0:
            raise DatasetError(f"negative cost: {self.cost_usd}")
        if self.preemptions < 0:
            raise DatasetError(f"negative preemptions: {self.preemptions}")
        if self.wasted_node_s < 0:
            raise DatasetError(f"negative wasted node-s: {self.wasted_node_s}")

    def inputs_key(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.appinputs.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "appname": self.appname,
            "sku": self.sku,
            "nnodes": self.nnodes,
            "ppn": self.ppn,
            "exec_time_s": self.exec_time_s,
            "cost_usd": self.cost_usd,
            "appinputs": dict(self.appinputs),
            "app_vars": dict(self.app_vars),
            "infra_metrics": dict(self.infra_metrics),
            "tags": dict(self.tags),
            "deployment": self.deployment,
            "timestamp": self.timestamp,
            "predicted": self.predicted,
            "capacity": self.capacity,
            "preemptions": self.preemptions,
            "wasted_node_s": self.wasted_node_s,
            "makespan_s": self.makespan_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DataPoint":
        return cls(
            appname=str(data["appname"]),
            sku=str(data["sku"]),
            nnodes=int(data["nnodes"]),  # type: ignore[arg-type]
            ppn=int(data.get("ppn", 1)),  # type: ignore[arg-type]
            exec_time_s=float(data["exec_time_s"]),  # type: ignore[arg-type]
            cost_usd=float(data["cost_usd"]),  # type: ignore[arg-type]
            appinputs=dict(data.get("appinputs") or {}),
            app_vars=dict(data.get("app_vars") or {}),
            infra_metrics={k: float(v) for k, v in  # type: ignore[arg-type]
                           dict(data.get("infra_metrics", {})).items()},
            tags=dict(data.get("tags") or {}),
            deployment=str(data.get("deployment", "")),
            timestamp=float(data.get("timestamp", 0.0)),  # type: ignore[arg-type]
            predicted=bool(data.get("predicted", False)),
            capacity=str(data.get("capacity", "ondemand")),
            preemptions=int(data.get("preemptions", 0)),  # type: ignore[arg-type]
            wasted_node_s=float(data.get("wasted_node_s", 0.0)),  # type: ignore[arg-type]
            makespan_s=float(data.get("makespan_s", 0.0)),  # type: ignore[arg-type]
        )


def _str_map(raw: object) -> Dict[str, str]:
    return {str(k): str(v) for k, v in dict(raw or {}).items()}


_ROW_ENCODER = json.JSONEncoder(allow_nan=False)
_COMPACT_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"),
                                        allow_nan=False)


def point_row(point: DataPoint, compact: bool = False) -> str:
    """``point`` as one stored JSON row (``compact`` drops the spaces).

    The bytes equal ``json.dumps(point.to_dict())``, except that NaN and
    ±inf raise a :class:`DatasetError` naming the field.  JSON has no
    token for them: SQLite's ``json_extract`` cannot parse the ``NaN``
    or ``Infinity`` Python would write, so one such row would break
    every columnar read of the corpus.
    """
    payload = point.to_dict()
    try:
        return (_COMPACT_ROW_ENCODER if compact
                else _ROW_ENCODER).encode(payload)
    except ValueError:
        raise DatasetError(
            f"cannot store non-finite {_non_finite_field(payload)} "
            f"of a {point.appname} data point"
        ) from None


def _non_finite_field(payload: Mapping[str, object]) -> str:
    for key, value in payload.items():
        if isinstance(value, dict):
            for inner, number in value.items():
                if isinstance(number, float) and not math.isfinite(number):
                    return f"{key}[{inner!r}] ({number})"
        elif isinstance(value, float) and not math.isfinite(value):
            return f"{key} ({value})"
    return "number"


class Dataset:
    """Append-only collection of data points with filtering.

    The points given at construction count as already persisted;
    :meth:`take_held` returns the ones appended since (module
    docstring).
    """

    def __init__(self, points: Optional[Iterable[DataPoint]] = None) -> None:
        self._points: List[DataPoint] = list(points or [])
        self._taken = len(self._points)

    # -- basic access -------------------------------------------------------------

    def append(self, point: DataPoint) -> None:
        self._points.append(point)

    def extend(self, points: Iterable[DataPoint]) -> None:
        self._points.extend(points)

    def take_held(self) -> List[DataPoint]:
        """The points appended since construction or the last take, in
        append order; from now on the caller is the one persisting them."""
        points = self._points[self._taken:]
        self._taken = len(self._points)
        return points

    def points(self) -> List[DataPoint]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    # -- filtering (the paper's "data filter") ---------------------------------------

    def filter(
        self,
        appname: Optional[str] = None,
        sku: Optional[str] = None,
        nnodes: Optional[Iterable[int]] = None,
        appinputs: Optional[Mapping[str, str]] = None,
        tags: Optional[Mapping[str, str]] = None,
        min_nodes: Optional[int] = None,
        max_nodes: Optional[int] = None,
        include_predicted: bool = True,
        capacity: Optional[str] = None,
        predicate: Optional[Callable[[DataPoint], bool]] = None,
    ) -> "Dataset":
        """Return a new dataset with only the matching points.

        The keyword arguments build a :class:`~repro.core.query.Query`
        — the same filter vocabulary the store pushes down — so
        in-memory and in-store filtering cannot drift apart.

        Historical contract: ``nnodes=None`` means "any node count" but
        an *empty* sequence is an empty allow-set and matches nothing
        (Query cannot express that — its empty tuple means "no filter").
        """
        if nnodes is not None and not tuple(nnodes):
            return Dataset()
        query = Query(
            appname=appname,
            sku=sku,
            nnodes=tuple(nnodes) if nnodes is not None else (),
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            appinputs=appinputs or {},
            tags=tags or {},
            include_predicted=include_predicted,
            capacity=capacity,
        )
        return self.query(query, predicate=predicate)

    def query(self, query: Query,
              predicate: Optional[Callable[[DataPoint], bool]] = None,
              ) -> "Dataset":
        """Apply a :class:`Query` (filter + window) in memory."""
        kept = [p for p in self._points
                if query.matches(p)
                and (predicate is None or predicate(p))]
        return Dataset(query._window(kept))

    def distinct(self, attr: str) -> List[object]:
        """Sorted distinct values of a DataPoint attribute."""
        return sorted({getattr(p, attr) for p in self._points})

    def distinct_input_keys(self) -> List[str]:
        out = set()
        for p in self._points:
            out.update(p.appinputs)
        return sorted(out)

    # -- persistence --------------------------------------------------------------------

    def save(self, path: str) -> str:
        """Write this instance's points to ``path`` as a legacy
        JSON-lines file; returns ``path``.

        The file is rewritten atomically: readers never see a partial
        file, but concurrent *read-modify-write* cycles are the
        caller's job (hold the file's advisory ``file_lock`` from load
        to save).
        """
        # Imported here: statefiles sits above this module in the layering
        # (it pulls in the deployer), and save() runs only on export.
        from repro.core.statefiles import atomic_write

        text = "".join(point_row(point) + "\n" for point in self._points)
        atomic_write(path, text)
        return path

    @classmethod
    def load(cls, path: str) -> "Dataset":
        points: List[DataPoint] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        points.append(DataPoint.from_dict(json.loads(line)))
                    except (DatasetError, KeyError, ValueError) as exc:
                        raise DatasetError(
                            f"corrupt dataset {path!r} line {line_no}: {exc}"
                        ) from exc
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
        return cls(points)
