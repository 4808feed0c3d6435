"""SQLite store: the one live persistence engine for collected data.

One WAL-mode database per deployment holds both the data points and the
task records.  Design points:

* **Incremental appends** — each completed scenario is one ``INSERT``
  (points) or one upsert (tasks); nothing ever rewrites the corpus, so
  a 50k-point deployment pays the same per-append cost as an empty one
  and a killed sweep keeps every committed row.  A batched
  :meth:`SqliteStore.commit` puts the points insert and the task
  upsert, each with its generation bump, in one transaction.
* **Query pushdown** — the scalar clauses of a
  :class:`~repro.core.query.Query` (app, SKU, node counts, capacity,
  predicted, ppn) become an indexed SQL ``WHERE``; ``limit``/``offset``
  become SQL when no mapping filter (appinputs/tags) remains, otherwise
  the window applies after the Python-side mapping filter — the exact
  semantics of the in-memory path.
* **Lossless rows** — every row stores the full ``to_dict`` payload as
  JSON next to the indexed columns, so round-trips are exact and new
  ``DataPoint`` fields never need a schema migration.
* **Concurrency** — WAL mode plus a generous busy timeout lets service
  workers read while a sweep writes; writers additionally serialize on
  the state directory's advisory file locks.

Freshness tokens are ``(inode, points_epoch, generation)``.  The
per-table generation counter is bumped in the transaction of every
write, whichever connection makes it; ``points_epoch`` is a random token
written when the database is created and rotated by ``replace_points``,
so a database deleted and recreated at the same path (where the inode
and the counter can both repeat) never matches an older token.

The legacy ``dataset-<name>.jsonl`` / ``tasks-<name>.json`` layout is
an import and export format only (:mod:`repro.store`).
"""

from __future__ import annotations

import json
import math
import os
import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.dataset import DataPoint, point_row
from repro.core.query import Query
from repro.core.taskdb import TaskRecord
from repro.errors import DatasetError
from repro.telemetry import Series, global_registry

#: Operation names timed into ``advisor_store_op_seconds`` (histogram,
#: labels ``kind``/``op``).
STORE_OPS = ("append", "query", "count", "sync_tasks", "load_tasks",
             "flush")

#: Column order of the rows :meth:`SqliteStore.fetch_point_columns`
#: returns (mapping fields as JSON object text).
POINT_COLUMN_FIELDS = (
    "appname", "sku", "nnodes", "ppn", "capacity", "predicted",
    "exec_time_s", "cost_usd", "timestamp", "preemptions",
    "wasted_node_s", "makespan_s", "appinputs", "app_vars",
    "infra_metrics", "tags", "deployment",
)


class ColumnRows(list):
    """Rows from :meth:`SqliteStore.fetch_point_columns`, with the
    store state they were read at.

    ``signature`` is the :meth:`SqliteStore.dataset_signature` and
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
    "Store operation latency, by store kind and operation.",
)

#: Mapping-filter keys safe to inline into a JSON path expression
#: (SQLite's ``$.name`` form requires a plain identifier).
_SIMPLE_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXEC_TIME = POINT_COLUMN_FIELDS.index("exec_time_s")


def _dumps(payload: dict) -> str:
    """Compact task-row payload: parsed only by machines, so the default
    ``", "``/``": "`` separators are pure write amplification — on a
    50k-row corpus the whitespace alone is megabytes of WAL traffic.
    Point rows get the same separators from ``point_row(compact=True)``."""
    return json.dumps(payload, separators=(",", ":"))


def _new_epoch() -> str:
    return os.urandom(8).hex()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS datapoints (
    id        INTEGER PRIMARY KEY,
    appname   TEXT NOT NULL,
    sku       TEXT NOT NULL,
    sku_lower TEXT NOT NULL,
    nnodes    INTEGER NOT NULL,
    ppn       INTEGER NOT NULL,
    capacity  TEXT NOT NULL,
    predicted INTEGER NOT NULL,
    payload   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_datapoints_query
    ON datapoints (appname, sku_lower, nnodes, capacity);
CREATE TABLE IF NOT EXISTS tasks (
    scenario_id TEXT PRIMARY KEY,
    status      TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class SqliteStore:
    """WAL-mode SQLite persistence for one deployment's data points and
    task records (module docstring)."""

    #: Store identifier: the ``kind`` label of the store metrics and
    #: ``CollectResult``/``DataPointsResult.store_backend``.
    kind = "sqlite"

    def __init__(self, db_path: str, timeout_s: float = 30.0) -> None:
        self.db_path = db_path
        #: One pre-bound latency series per :data:`STORE_OPS` entry, so
        #: timing a call costs a dict lookup and two clock reads.
        self._op_timers: Dict[str, Series] = {
            op: _OP_SECONDS.labels(kind=self.kind, op=op)
            for op in STORE_OPS
        }
        directory = os.path.dirname(os.path.abspath(db_path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            db_path, timeout=timeout_s, check_same_thread=False,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        if self._conn.execute(
                "SELECT 1 FROM meta WHERE key = 'points_epoch'"
        ).fetchone() is None:
            # OR IGNORE: another connection may create it meanwhile.
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value)"
                " VALUES ('points_epoch', ?)", (_new_epoch(),)
            )
        self._conn.commit()
        self._ino = self._stat_ino()
        self._closed = False
        #: True inside :meth:`transaction`: writes leave the COMMIT to it.
        self._in_transaction = False

    def _stat_ino(self) -> Optional[int]:
        try:
            return os.stat(self.db_path).st_ino
        except OSError:
            return None

    @contextmanager
    def _timed(self, op: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self._op_timers[op].observe(time.perf_counter() - started)

    # -- data points -----------------------------------------------------------

    def append_point(self, point: DataPoint) -> None:
        """Persist one new point (incremental; no rewrite)."""
        self.append_points((point,))

    def append_points(self, points: Iterable[DataPoint]) -> None:
        rows = [
            (p.appname, p.sku, p.sku.lower(), p.nnodes, p.ppn, p.capacity,
             int(p.predicted), point_row(p, compact=True))
            for p in points
        ]
        if not rows:
            return
        with self._timed("append"), self._lock:
            self._conn.executemany(
                "INSERT INTO datapoints (appname, sku, sku_lower, nnodes,"
                " ppn, capacity, predicted, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self._bump("points_gen")
            self._autocommit()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        # The writes inside run their statements and generation bumps
        # as usual but skip their own COMMIT (``_autocommit``); this one
        # COMMIT publishes them together, or the rollback drops them
        # all.  The connection lock is held throughout, so no other
        # thread's write can land inside the transaction.
        with self._lock:
            self._in_transaction = True
            try:
                yield
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            finally:
                self._in_transaction = False

    def _autocommit(self) -> None:
        if not self._in_transaction:
            self._conn.commit()

    def commit(self, points: Sequence[DataPoint],
               changed: Sequence[TaskRecord]) -> None:
        """Persist ``points`` and the task updates that describe them in
        one transaction, so a completed task never persists without its
        point."""
        with self.transaction():
            if points:
                self.append_points(points)
            if changed:
                self.sync_tasks(changed)

    def _bump(self, counter: str) -> None:
        """Advance a per-table generation counter (same transaction as
        the write it describes), so dataset and task caches invalidate
        independently instead of on every commit."""
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, '1')"
            " ON CONFLICT(key)"
            " DO UPDATE SET value = CAST(value AS INTEGER) + 1",
            (counter,),
        )

    def replace_points(self, points: Sequence[DataPoint]) -> None:
        """Atomically replace the whole corpus (repair path)."""
        rows = [
            (p.appname, p.sku, p.sku.lower(), p.nnodes, p.ppn, p.capacity,
             int(p.predicted), point_row(p, compact=True))
            for p in points
        ]
        # One transaction: a crash mid-replace must never leave an
        # emptied corpus, and no reader may observe the gap.  Row ids
        # restart, so the epoch rotates with them: no snapshot cursor
        # taken before the replace can match after it.
        with self._lock:
            try:
                self._conn.execute("DELETE FROM datapoints")
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value)"
                    " VALUES ('points_epoch', ?)", (_new_epoch(),)
                )
                if rows:
                    self._conn.executemany(
                        "INSERT INTO datapoints (appname, sku, sku_lower,"
                        " nnodes, ppn, capacity, predicted, payload)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        rows,
                    )
            except BaseException:
                self._conn.rollback()
                raise
            self._bump("points_gen")
            self._conn.commit()

    def query_points(self, query: Optional[Query] = None) -> List[DataPoint]:
        """Matching points in append order, windowed by the query."""
        query = query or Query()
        where, params, pushed_window = self._translate(query)
        sql = "SELECT id, payload FROM datapoints" + where + " ORDER BY id"
        if pushed_window:
            if query.limit is not None or query.offset:
                sql += " LIMIT ? OFFSET ?"
                params = params + [
                    -1 if query.limit is None else query.limit,
                    query.offset,
                ]
        with self._timed("query"), self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        points = [self._parse_point(*row) for row in rows]
        if pushed_window:
            return points
        # A mapping filter remained: finish in Python, window last —
        # identical semantics to the in-memory path.
        kept = [p for p in points if query.matches(p)]
        return query._window(kept)

    def count_points(self, query: Optional[Query] = None) -> int:
        """How many points match (the query's window is ignored)."""
        query = (query or Query()).without_window()
        where, params, fully_pushed = self._translate(query)
        if fully_pushed:
            sql = "SELECT COUNT(*) FROM datapoints" + where
            with self._timed("count"), self._lock:
                return int(self._conn.execute(sql, params).fetchone()[0])
        return len(self.query_points(query))

    # -- columnar reads --------------------------------------------------------

    #: SELECT list matching :data:`POINT_COLUMN_FIELDS`:
    #: indexed columns where they exist, ``json_extract`` otherwise.
    #: Numeric extraction is bit-exact (SQLite parses JSON reals into
    #: the same float64 Python's parser produces); mapping fields come
    #: back as minified JSON object text.  COALESCE mirrors the
    #: ``DataPoint.from_dict`` defaults for historical payloads.
    _COLUMN_SELECT = (
        "SELECT appname, sku, nnodes, ppn, capacity, predicted,"
        " json_extract(payload, '$.exec_time_s'),"
        " json_extract(payload, '$.cost_usd'),"
        " COALESCE(json_extract(payload, '$.timestamp'), 0.0),"
        " COALESCE(json_extract(payload, '$.preemptions'), 0),"
        " COALESCE(json_extract(payload, '$.wasted_node_s'), 0.0),"
        " COALESCE(json_extract(payload, '$.makespan_s'), 0.0),"
        " COALESCE(json_extract(payload, '$.appinputs'), '{}'),"
        " COALESCE(json_extract(payload, '$.app_vars'), '{}'),"
        " COALESCE(json_extract(payload, '$.infra_metrics'), '{}'),"
        " COALESCE(json_extract(payload, '$.tags'), '{}'),"
        " COALESCE(json_extract(payload, '$.deployment'), '')"
        " FROM datapoints"
    )

    def fetch_point_columns(
            self, cursor: Optional[Tuple] = None) -> ColumnRows:
        """Raw point rows in :data:`POINT_COLUMN_FIELDS` order, in
        append order.

        With the ``cursor`` of an earlier fetch, only the rows appended
        since are returned while that cursor is still valid
        (``ColumnRows.delta``); otherwise, and without a cursor, every
        row.
        """
        with self._timed("query"), self._lock:
            # One read transaction: the signature, the cursor and the
            # rows describe the same commit, so an append committed
            # between the reads is neither duplicated nor lost.
            self._conn.execute("BEGIN")
            try:
                signature = self._signature("points_gen")
                last_id = self._conn.execute(
                    "SELECT COALESCE(MAX(id), 0) FROM datapoints"
                ).fetchone()[0]
                # Appends take ids above every existing one; only
                # replace_points reuses ids, and it rotates the epoch.
                delta = cursor is not None and cursor[:2] == signature[:2]
                first = cursor[2] if delta else 0
                try:
                    rows = ColumnRows(
                        self._conn.execute(
                            self._COLUMN_SELECT + " WHERE id > ? ORDER BY id",
                            (first,)),
                        signature, signature[:2] + (last_id,), delta)
                except sqlite3.OperationalError as exc:
                    # Before SQLite 3.42, json_extract rejects the NaN and
                    # Infinity an older release wrote: name the row.
                    bad = self._conn.execute(
                        "SELECT id, payload FROM datapoints WHERE id > ?"
                        " AND NOT json_valid(payload) ORDER BY id LIMIT 1",
                        (first,)).fetchone()
                    if bad is None:
                        raise
                    self._parse_point(*bad)  # names the field if it can
                    raise self._corrupt_point(bad[0], exc) from exc
                # Later versions read them as numbers (NaN as null), as
                # every version reads 1e999: refuse them like DataPoint.
                for offset, row in enumerate(rows):
                    value = row[_EXEC_TIME]
                    if value is None or not math.isfinite(value):
                        rowid, payload = self._conn.execute(
                            "SELECT id, payload FROM datapoints WHERE id > ?"
                            " ORDER BY id LIMIT 1 OFFSET ?", (first, offset)
                        ).fetchone()
                        self._parse_point(rowid, payload)
                        raise self._corrupt_point(
                            rowid, f"non-finite exec_time_s: {value}")
                return rows
            finally:
                self._conn.commit()

    def _parse_point(self, rowid: int, payload: str) -> DataPoint:
        try:
            return DataPoint.from_dict(json.loads(payload))
        except (DatasetError, KeyError, ValueError) as exc:
            raise self._corrupt_point(rowid, exc) from exc

    def _corrupt_point(self, rowid: int, problem: Exception) -> DatasetError:
        return DatasetError(
            f"corrupt data point in {self.db_path!r}, datapoints id "
            f"{rowid}: {problem}")

    def _translate(self, query: Query) -> Tuple[str, list, bool]:
        """(WHERE clause, parameters, fully-pushed?) for a query.

        ``fully-pushed`` means no Python-side filtering remains, so the
        window (and COUNT) may run in SQL too.
        """
        clauses: List[str] = []
        params: list = []
        if query.appname is not None:
            clauses.append("appname = ?")
            params.append(query.appname)
        candidates = query.sku_candidates
        if candidates is not None:
            clauses.append("sku_lower IN (?, ?)")
            params.extend(candidates)
        if query.nnodes:
            marks = ", ".join("?" for _ in query.nnodes)
            clauses.append(f"nnodes IN ({marks})")
            params.extend(query.nnodes)
        if query.ppn is not None:
            clauses.append("ppn = ?")
            params.append(query.ppn)
        if query.min_nodes is not None:
            clauses.append("nnodes >= ?")
            params.append(query.min_nodes)
        if query.max_nodes is not None:
            clauses.append("nnodes <= ?")
            params.append(query.max_nodes)
        if not query.include_predicted:
            clauses.append("predicted = 0")
        if query.capacity is not None:
            clauses.append("capacity = ?")
            params.append(query.capacity)
        fully_pushed = True
        for field, mapping in (("appinputs", query.appinputs),
                               ("tags", query.tags)):
            for key, value in mapping.items():
                if _SIMPLE_KEY.fullmatch(key):
                    # The key is inlined into the JSON path (validated
                    # above — no quoting ambiguity); the value stays a
                    # bind parameter.
                    clauses.append(
                        f"json_extract(payload, '$.{field}.{key}') = ?"
                    )
                    params.append(str(value))
                else:
                    # Exotic key: leave this clause to the Python-side
                    # re-check (matches() evaluates everything anyway).
                    fully_pushed = False
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params, fully_pushed

    # -- task records ----------------------------------------------------------

    def sync_tasks(self, changed: Sequence[TaskRecord]) -> None:
        """Upsert the changed task records."""
        rows = [
            (r.scenario.scenario_id, r.status.value,
             _dumps(r.to_dict()))
            for r in changed
        ]
        if not rows:
            return
        with self._timed("sync_tasks"), self._lock:
            # The upsert form keeps each row's rowid, preserving the
            # original insertion order that load_tasks restores.
            self._conn.executemany(
                "INSERT INTO tasks (scenario_id, status, payload)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT(scenario_id)"
                " DO UPDATE SET status = excluded.status,"
                "               payload = excluded.payload",
                rows,
            )
            self._bump("tasks_gen")
            self._autocommit()

    def load_tasks(self) -> List[TaskRecord]:
        """All task records in insertion order."""
        with self._timed("load_tasks"), self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM tasks ORDER BY rowid"
            ).fetchall()
        return [TaskRecord.from_dict(json.loads(row[0])) for row in rows]

    def count_tasks(self) -> int:
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM tasks"
            ).fetchone()[0])

    # -- lifecycle -------------------------------------------------------------

    def flush_points(self) -> None:
        """Durability point for the dataset (end of a sweep).

        Also marks the corpus as *existing* even when empty, which
        listings and ``must_exist`` rely on.
        """
        with self._timed("flush"), self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value)"
                " VALUES ('dataset_saved', '1')"
            )
            self._conn.commit()

    def exists(self) -> bool:
        """Has a sweep ever persisted a dataset here?"""
        if not os.path.exists(self.db_path):
            return False
        with self._lock:
            saved = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'dataset_saved'"
            ).fetchone()
            if saved is not None:
                return True
            return self._conn.execute(
                "SELECT EXISTS (SELECT 1 FROM datapoints)"
            ).fetchone()[0] == 1

    def _signature(self, counter: str) -> Tuple:
        ino = self._stat_ino()
        if ino is None:
            return ("missing",)
        with self._lock:
            # The per-table generation counter is bumped inside every
            # write transaction (ours or another connection's), so a
            # task upsert never invalidates the dataset cache and a
            # point append never invalidates the task cache.  The epoch
            # is read in the same statement (module docstring).
            epoch, gen = self._conn.execute(
                "SELECT (SELECT value FROM meta WHERE key = 'points_epoch'),"
                " (SELECT value FROM meta WHERE key = ?)", (counter,)
            ).fetchone()
        return (ino, epoch, int(gen) if gen is not None else 0)

    def dataset_signature(self) -> Tuple:
        """Freshness token for dataset caches: changes whenever any
        connection may have altered the stored points."""
        return self._signature("points_gen")

    def tasks_signature(self) -> Tuple:
        """Freshness token for task-record caches."""
        return self._signature("tasks_gen")

    def is_valid(self) -> bool:
        """False when the database was closed, or deleted or swapped out
        from under this handle (the caller should reopen)."""
        return not self._closed and self._stat_ino() == self._ino

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            with self._lock:
                self._conn.close()

    def __getstate__(self):  # pragma: no cover - guard rail
        raise DatasetError("SqliteStore handles cannot be pickled")
