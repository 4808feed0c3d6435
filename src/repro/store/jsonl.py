"""JSON-lines store backend: byte-compatible with the historical layout.

The on-disk formats are exactly what :meth:`repro.core.dataset.Dataset.save`
and :meth:`repro.core.taskdb.TaskDB.save` have always written —
``dataset-<name>.jsonl`` (one JSON object per line) and
``tasks-<name>.json`` (``{"tasks": [...]}``, indent 1) — so existing
state directories keep working and files written through this backend
are indistinguishable from files written by the legacy save path.

Writes are incremental where the format allows: point appends are real
``O(1)`` line appends (a crashed sweep keeps every completed line);
task syncs rewrite the whole file atomically (the format is a single
JSON document — this is the linear cost the SQLite backend removes).
Two files cannot share a transaction, so a batched
:meth:`~repro.store.base.StoreBackend.commit` appends the points first
and rewrites the task document second: a kill between the two leaves
points whose tasks are still pending, which a resumed sweep measures
again — duplicated, never lost.
Reads load and filter in memory; the :class:`~repro.core.query.Query`
window applies after filtering, exactly like the SQL pushdown.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.dataset import DataPoint, Dataset, point_row
from repro.core.query import Query
from repro.core.statefiles import atomic_write
from repro.core.taskdb import TaskDB, TaskRecord
from repro.errors import DatasetError
from repro.store.base import StoreBackend

#: Signature of a file that does not exist.
_MISSING = ("missing",)


def _file_sig(path: str) -> Tuple:
    try:
        st = os.stat(path)
    except OSError:
        return _MISSING
    return (st.st_mtime_ns, st.st_size)


class JsonlStore(StoreBackend):
    """Legacy-format store: JSONL data points + one JSON task document."""

    kind = "jsonl"

    def __init__(self, dataset_path: str, taskdb_path: str) -> None:
        self.dataset_path = dataset_path
        self.taskdb_path = taskdb_path
        self._bind_op_timers()

    # -- data points -----------------------------------------------------------

    def append_point(self, point: DataPoint) -> None:
        self.append_points((point,))

    def append_points(self, points: Iterable[DataPoint]) -> None:
        text = "".join(point_row(point) + "\n" for point in points)
        if not text:
            return
        directory = os.path.dirname(os.path.abspath(self.dataset_path))
        os.makedirs(directory, exist_ok=True)
        # One buffered write per batch: a reader never sees a torn line
        # on POSIX for appends up to the pipe buffer, and the advisory
        # file locks serialize concurrent writers anyway.
        with self._timed("append"):
            with open(self.dataset_path, "a", encoding="utf-8") as fh:
                fh.write(text)

    def replace_points(self, points: Sequence[DataPoint]) -> None:
        Dataset(points).save(self.dataset_path)

    def query_points(self, query: Optional[Query] = None) -> List[DataPoint]:
        with self._timed("query"):
            points = self._load_points()
            if query is None:
                return points
            return query.apply(points)

    def count_points(self, query: Optional[Query] = None) -> int:
        with self._timed("count"):
            if query is None or query.is_unfiltered:
                try:
                    return Dataset.count_points(self.dataset_path)
                except DatasetError:
                    return 0
            return sum(1 for p in self._load_points()
                       if query.matches(p))

    def _load_points(self) -> List[DataPoint]:
        if not os.path.exists(self.dataset_path):
            return []
        return Dataset.load(self.dataset_path).points()

    # -- task records ----------------------------------------------------------

    def sync_tasks(self, changed: Sequence[TaskRecord],
                   full: Sequence[TaskRecord]) -> None:
        # The format is one JSON document: serialize the caller's full
        # in-memory state, byte-for-byte what TaskDB.save always wrote.
        with self._timed("sync_tasks"):
            payload = {"tasks": [r.to_dict() for r in full]}
            atomic_write(self.taskdb_path, json.dumps(payload, indent=1))

    def load_tasks(self) -> List[TaskRecord]:
        with self._timed("load_tasks"):
            if not os.path.exists(self.taskdb_path):
                return []
            return TaskDB.load(self.taskdb_path).all()

    def count_tasks(self) -> int:
        return len(self.load_tasks())

    # -- lifecycle -------------------------------------------------------------

    def flush_points(self) -> None:
        # Mirror the legacy "collect always writes the dataset file"
        # behavior: an empty sweep still leaves an (empty) file behind.
        with self._timed("flush"):
            if not os.path.exists(self.dataset_path):
                atomic_write(self.dataset_path, "")

    def exists(self) -> bool:
        return os.path.exists(self.dataset_path)

    def dataset_signature(self) -> Tuple:
        return _file_sig(self.dataset_path)

    def tasks_signature(self) -> Tuple:
        return _file_sig(self.taskdb_path)

    @property
    def dataset_display_path(self) -> str:
        return self.dataset_path

    @property
    def tasks_display_path(self) -> str:
        return self.taskdb_path

    @property
    def data_paths(self) -> Tuple[str, ...]:
        return (self.dataset_path, self.taskdb_path)
