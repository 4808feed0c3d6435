"""The persistence-backend contract shared by every store implementation.

A :class:`StoreBackend` owns one deployment's measurement corpus — its
data points and task records — behind an *incremental* interface:

* writes are appends (``append_point``) or single-record upserts
  (``sync_tasks``), so a crashed or cancelled sweep keeps everything it
  measured and never pays a whole-file rewrite per completion;
* :meth:`StoreBackend.commit` writes a batch of points together with
  the task records that describe them — in one transaction on engines
  that have them, points first everywhere — so a completed task never
  persists without its point;
* reads take a :class:`~repro.core.query.Query` and may push it down
  to the storage engine, so filtered advice queries over large corpora
  never deserialize points the caller will drop.

Two implementations ship: :class:`~repro.store.jsonl.JsonlStore`
(byte-compatible with the historical ``dataset-<name>.jsonl`` /
``tasks-<name>.json`` layout) and the default
:class:`~repro.store.sqlite.SqliteStore` (one WAL-mode database per
deployment).  ``tests/test_store_backends.py`` property-tests that the
two return identical query results.
"""

from __future__ import annotations

import abc
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.dataset import DataPoint
from repro.core.query import Query
from repro.core.taskdb import TaskRecord
from repro.telemetry import Series, global_registry

#: Operation names timed into ``advisor_store_op_seconds`` (histogram,
#: labels ``kind``/``op``) by the shipped backends.
STORE_OPS = ("append", "query", "count", "sync_tasks", "load_tasks",
             "flush")

#: Column order of the rows :meth:`StoreBackend.fetch_point_columns`
#: returns (mapping fields as JSON object text).
POINT_COLUMN_FIELDS = (
    "appname", "sku", "nnodes", "ppn", "capacity", "predicted",
    "exec_time_s", "cost_usd", "timestamp", "preemptions",
    "wasted_node_s", "makespan_s", "appinputs", "app_vars",
    "infra_metrics", "tags", "deployment",
)


class ColumnRows(list):
    """Rows from :meth:`StoreBackend.fetch_point_columns`, with the
    store state they were read at.

    ``signature`` is the :meth:`StoreBackend.dataset_signature` and
    ``cursor`` the position after the last row, both read in the same
    transaction as the rows.  ``delta`` is True when the rows are only
    those after the cursor the caller passed, False when they are the
    whole corpus.
    """

    def __init__(self, rows: Iterable[tuple], signature: Tuple,
                 cursor: Tuple, delta: bool) -> None:
        super().__init__(rows)
        self.signature = signature
        self.cursor = cursor
        self.delta = delta


_OP_SECONDS = global_registry().histogram(
    "advisor_store_op_seconds",
    "Store backend operation latency, by backend kind and operation.",
)


class StoreBackend(abc.ABC):
    """One deployment's persistent data points + task records."""

    #: Short backend identifier (``"jsonl"`` or ``"sqlite"``).
    kind: str = ""

    #: Pre-bound latency series, one per :data:`STORE_OPS` entry;
    #: populated by :meth:`_bind_op_timers` in concrete ``__init__``s
    #: so the per-call cost of :meth:`_timed` is a dict lookup plus two
    #: clock reads, never a label resolution.
    _op_timers: Dict[str, Series] = {}

    def _bind_op_timers(self) -> None:
        self._op_timers = {
            op: _OP_SECONDS.labels(kind=self.kind, op=op)
            for op in STORE_OPS
        }

    @contextmanager
    def _timed(self, op: str) -> Iterator[None]:
        series = self._op_timers.get(op)
        if series is None:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            series.observe(time.perf_counter() - started)

    # -- data points -----------------------------------------------------------

    @abc.abstractmethod
    def append_point(self, point: DataPoint) -> None:
        """Persist one new point (incremental; no full rewrite)."""

    def append_points(self, points: Iterable[DataPoint]) -> None:
        for point in points:
            self.append_point(point)

    @abc.abstractmethod
    def replace_points(self, points: Sequence[DataPoint]) -> None:
        """Atomically replace the whole corpus (migration/repair path)."""

    @abc.abstractmethod
    def query_points(self, query: Optional[Query] = None) -> List[DataPoint]:
        """Matching points in append order, windowed by the query."""

    @abc.abstractmethod
    def count_points(self, query: Optional[Query] = None) -> int:
        """How many points match (the query's window is ignored)."""

    # -- columnar reads --------------------------------------------------------

    #: True when :meth:`fetch_point_columns` has an engine-level
    #: implementation (i.e. a snapshot build skips DataPoint objects).
    supports_column_fetch: bool = False

    def fetch_point_columns(
            self, cursor: Optional[Tuple] = None) -> Optional[ColumnRows]:
        """Raw point rows in :data:`POINT_COLUMN_FIELDS` order, in
        append order.

        Mapping fields (``appinputs``/``app_vars``/``infra_metrics``/
        ``tags``) are JSON object text.  With the ``cursor`` of an
        earlier fetch, only the rows appended since are returned while
        that cursor is still valid (``ColumnRows.delta``); otherwise,
        and without a cursor, every row.  ``None`` means the engine has
        no columnar fast path; callers fall back to :meth:`query_points`.
        """
        return None

    def aggregate_points(
            self, query: Optional[Query] = None) -> Optional[Dict]:
        """Cheap dataset aggregates, pushed down to the engine.

        Shape: ``{"count", "exec_time_s": {"min","max"}, "cost_usd":
        {"min","max"}, "groups": [{"sku","nnodes","count"}, ...]}``
        with groups sorted by (sku, nnodes).  ``None`` means no
        pushdown — compute from a snapshot instead (see
        :func:`repro.store.snapshot.aggregate_snapshot`).
        """
        return None

    # -- batched writes --------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Make the writes in the block one atomic commit, on engines
        that have transactions.

        The default has none: each write lands on its own, in call
        order.
        """
        yield

    def commit(self, points: Sequence[DataPoint],
               changed: Sequence[TaskRecord],
               full: Sequence[TaskRecord]) -> None:
        """Persist ``points`` and the task updates that go with them as
        one unit (``changed``/``full`` as in :meth:`sync_tasks`).

        The points are written first.  Without a transaction, a kill
        between the two writes leaves points whose tasks are still
        pending: a resumed sweep re-runs those scenarios and appends
        their points again, but no measured point is ever lost.
        """
        with self.transaction():
            if points:
                self.append_points(points)
            if changed:
                self.sync_tasks(changed, full)

    # -- task records ----------------------------------------------------------

    @abc.abstractmethod
    def sync_tasks(self, changed: Sequence[TaskRecord],
                   full: Sequence[TaskRecord]) -> None:
        """Persist task updates.

        ``changed`` is the delta; ``full`` is the caller's complete,
        authoritative record list in insertion order.  Record-oriented
        engines upsert only ``changed``; whole-file engines rewrite
        from ``full`` (which keeps the legacy file bytes exact).
        """

    @abc.abstractmethod
    def load_tasks(self) -> List[TaskRecord]:
        """All task records in insertion order."""

    @abc.abstractmethod
    def count_tasks(self) -> int:
        """Number of stored task records."""

    # -- lifecycle -------------------------------------------------------------

    @abc.abstractmethod
    def flush_points(self) -> None:
        """Durability point for the dataset (end of a sweep).

        Also marks the corpus as *existing* even when empty, mirroring
        the historical "collect always writes the dataset file"
        behavior that listings and ``must_exist`` rely on.
        """

    def flush_tasks(self) -> None:
        """Durability point for the task records (end of a sweep)."""

    @abc.abstractmethod
    def exists(self) -> bool:
        """Has a sweep ever persisted a dataset here?"""

    @abc.abstractmethod
    def dataset_signature(self) -> Tuple:
        """Freshness token for dataset caches.

        Changes whenever this or any other process/connection may have
        altered the stored points; equal tokens mean a cached copy is
        still current.
        """

    @abc.abstractmethod
    def tasks_signature(self) -> Tuple:
        """Freshness token for task-record caches."""

    def is_valid(self) -> bool:
        """False when the underlying storage was deleted or swapped
        out from under this handle (caller should reopen)."""
        return True

    def close(self) -> None:
        """Release engine resources (idempotent)."""

    @property
    @abc.abstractmethod
    def dataset_display_path(self) -> str:
        """Human-facing location of the dataset (for CLI output)."""

    @property
    def tasks_display_path(self) -> str:
        """Human-facing location of the task records."""
        return self.dataset_display_path

    @property
    @abc.abstractmethod
    def data_paths(self) -> Tuple[str, ...]:
        """Every on-disk file this store may own (for archive/purge)."""
