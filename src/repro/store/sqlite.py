"""SQLite store: the one live persistence engine for collected data.

One WAL-mode database per deployment holds both the data points and the
task records.  Design points:

* **Incremental appends** — a sweep's results arrive through
  :meth:`SqliteStore.commit`: one ``INSERT`` of the new points and one
  write of the changed task records, each with its generation bump,
  in one transaction.  Nothing ever rewrites the corpus, so a
  50k-point deployment pays the same per-append cost as an empty one
  and a killed sweep keeps every committed row.
* **Linked task rows** — a task row is inserted once, when its task is
  registered.  A completion whose point is in the same commit only
  sets the row's status, ``point_id`` and execution window; its
  measurements are read back from the point row by
  :meth:`SqliteStore.load_tasks`.  Every other task row carries its
  whole record; one still pending since registration needs only its
  scenario (``docs/STORAGE.md``, "Task rows").
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
from repro.core.taskdb import TaskRecord, TaskStatus
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


#: Task-row payloads are parsed only by machines, so the default
#: ``", "``/``": "`` separators are pure write amplification — on a
#: 50k-row corpus the whitespace alone is megabytes of WAL traffic.
#: Point rows get the same separators from ``point_row(compact=True)``.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _new_epoch() -> str:
    return os.urandom(8).hex()


def _short_payload(record: TaskRecord) -> str:
    """The payload of a task row linked to its point, or registered and
    still pending: the scenario, plus the failure reason and skip flag
    when set.  ``TaskRecord.from_dict`` gives every field left out its
    default; a linked row's point and columns supply the rest."""
    payload: Dict[str, object] = {"scenario": record.scenario.to_dict()}
    if record.failure_reason is not None:
        payload["failure_reason"] = record.failure_reason
    if record.skipped_by_sampler:
        payload["skipped_by_sampler"] = True
    return _dumps(payload)


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
    payload     TEXT NOT NULL,
    point_id    INTEGER,
    started_at  REAL,
    finished_at REAL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Insert a task row, or rewrite one in place (an upsert keeps the
#: row's rowid, and so its position in load order).
_TASK_UPSERT = (
    "INSERT INTO tasks (scenario_id, status, payload, point_id,"
    " started_at, finished_at) VALUES (?, ?, ?, ?, ?, ?)"
    " ON CONFLICT(scenario_id) DO UPDATE SET status = excluded.status,"
    " payload = excluded.payload, point_id = excluded.point_id,"
    " started_at = excluded.started_at, finished_at = excluded.finished_at"
)

#: The ``tasks`` columns that link a row to its point, with their
#: types: a database written before they existed gains them on open.
_TASK_LINK_COLUMNS = (("point_id", "INTEGER"), ("started_at", "REAL"),
                      ("finished_at", "REAL"))

#: Fields of a linked task record that its point row supplies, each
#: with the value it takes when the point payload lacks it.
_POINT_FIELDS = (("exec_time_s", None), ("cost_usd", None),
                 ("app_vars", {}), ("infra_metrics", {}),
                 ("predicted", False), ("preemptions", 0))

#: Every task row, in registration order, with its point row's payload
#: when it is linked to one (NULL when it is not, or that row is gone).
_TASK_SELECT = (
    "SELECT tasks.scenario_id, tasks.status, tasks.payload,"
    " tasks.point_id, tasks.started_at, tasks.finished_at,"
    " datapoints.payload"
    " FROM tasks LEFT JOIN datapoints ON datapoints.id = tasks.point_id"
)


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
        self._add_task_link_columns()
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
        #: Each ``append_points`` of the open transaction: (the points,
        #: the row id of the last one).  Task completions link to these
        #: rows; cleared when the transaction ends.
        self._appended: List[Tuple[Sequence[DataPoint], int]] = []

    def _add_task_link_columns(self) -> None:
        """Give a ``tasks`` table written before the link columns existed
        those columns (in a write transaction, so two handles opening
        the same old database at once both succeed)."""
        def missing() -> List[Tuple[str, str]]:
            have = {row[1] for row in
                    self._conn.execute("PRAGMA table_info(tasks)")}
            return [c for c in _TASK_LINK_COLUMNS if c[0] not in have]

        if not missing():
            return
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for name, sql_type in missing():  # re-read under the lock
                self._conn.execute(
                    f"ALTER TABLE tasks ADD COLUMN {name} {sql_type}")
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

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
        points = list(points)
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
            if self._in_transaction:
                # Read inside the write transaction, right after the
                # insert: no other connection can insert before our
                # COMMIT, so these rows hold the last len(rows) ids.
                last_id = self._conn.execute(
                    "SELECT last_insert_rowid()").fetchone()[0]
                self._appended.append((points, last_id))
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
                self._appended = []

    def _autocommit(self) -> None:
        if not self._in_transaction:
            self._conn.commit()

    def commit(self, points: Sequence[DataPoint],
               changed: Sequence[TaskRecord]) -> None:
        """Persist ``points`` and the task updates that describe them in
        one transaction, so a completed task never persists without its
        point (the way sweep results reach the store).  When ``changed``
        is a :class:`~repro.core.taskdb.HeldTasks`, each completion whose
        point is among ``points`` is stored as a link to that point's
        row (:meth:`sync_tasks`)."""
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
        # taken before the replace can match after it.  Task rows linked
        # to the old rows are first written back in full, so the
        # records load_tasks returns do not change.
        with self._lock:
            try:
                self._conn.executemany(
                    "UPDATE tasks SET status = ?, payload = ?,"
                    " point_id = NULL, started_at = NULL,"
                    " finished_at = NULL WHERE scenario_id = ?",
                    [(r.status.value, _dumps(r.to_dict()), scenario_id)
                     for scenario_id, r in self._read_tasks(
                         " WHERE tasks.point_id IS NOT NULL")])
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
                    params.append(value)
                else:
                    # Exotic key: leave this clause to the Python-side
                    # re-check (matches() evaluates everything anyway).
                    fully_pushed = False
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params, fully_pushed

    # -- task records ----------------------------------------------------------

    def sync_tasks(self, changed: Sequence[TaskRecord]) -> None:
        """Write the changed task records.

        With a :class:`~repro.core.taskdb.HeldTasks` (what :meth:`commit`
        gets from a sweep), a completion whose point was appended
        earlier in the same transaction becomes a link: an ``UPDATE`` of
        the row's status, ``point_id`` and execution window that encodes
        no JSON, plus the short payload (:func:`_short_payload`) when the
        row is new or its failure reason or skip flag changed.  A record
        registered since the last hand-over and still pending is
        inserted with the short payload.  Every other record is upserted
        with its full ``to_dict`` payload and no link.
        """
        if not changed:
            return
        with self._timed("sync_tasks"), self._lock:
            point_ids = self._point_ids(getattr(changed, "points", None))
            new = getattr(changed, "new", ())
            payload_changed = getattr(changed, "payload_changed", ())
            pending = TaskStatus.PENDING
            upserts, links = [], []
            for r in changed:
                scenario_id = r.scenario.scenario_id
                point_id = (point_ids.get(scenario_id) if point_ids
                            else None)
                if point_id is not None:
                    if scenario_id in payload_changed:
                        upserts.append((scenario_id, r.status.value,
                                        _short_payload(r), point_id,
                                        r.started_at, r.finished_at))
                    else:
                        links.append((r.status.value, point_id,
                                      r.started_at, r.finished_at,
                                      scenario_id))
                elif r.status is pending and scenario_id in new:
                    upserts.append((scenario_id, pending.value,
                                    _short_payload(r), None, None, None))
                else:
                    upserts.append((scenario_id, r.status.value,
                                    _dumps(r.to_dict()), None, None, None))
            # One upsert for every row that carries a payload, in
            # first-change order: new rows take their rowids in
            # registration order, which load_tasks restores, and the
            # upsert form keeps an existing row's rowid.
            if upserts:
                self._conn.executemany(_TASK_UPSERT, upserts)
            if links:
                cursor = self._conn.executemany(
                    "UPDATE tasks SET status = ?, point_id = ?,"
                    " started_at = ?, finished_at = ? WHERE scenario_id = ?",
                    links)
                if cursor.rowcount != len(links):
                    # Some row is missing (deleted by hand, or never
                    # registered in this database): write them all in
                    # full rather than lose a completion.
                    by_id = {r.scenario.scenario_id: r for r in changed}
                    self._conn.executemany(_TASK_UPSERT, [
                        (sid, status, _short_payload(by_id[sid]),
                         point_id, started, finished)
                        for status, point_id, started, finished, sid
                        in links])
            self._bump("tasks_gen")
            self._autocommit()

    def _point_ids(self, points: Optional[Dict[str, DataPoint]]
                   ) -> Dict[str, int]:
        """Scenario id -> row id, for each point in ``points`` appended
        in the open transaction (none outside one)."""
        if not points or not self._appended:
            return {}
        row_of = {}
        for appended, last_id in self._appended:
            row_of.update(
                (id(p), row_id) for row_id, p in
                enumerate(appended, last_id - len(appended) + 1))
        return {scenario_id: row_of[id(p)]
                for scenario_id, p in points.items() if id(p) in row_of}

    def load_tasks(self) -> List[TaskRecord]:
        """All task records in insertion order."""
        with self._timed("load_tasks"), self._lock:
            return [record for _, record in self._read_tasks("")]

    def _read_tasks(self, where: str) -> List[Tuple[str, TaskRecord]]:
        """(scenario id, record) of the task rows ``where`` selects, in
        insertion order.  A linked row takes its measurements from its
        point row and its window from its own columns; a linked row
        whose point row is gone loads as a fresh pending record, so the
        next sweep measures it again."""
        rows = self._conn.execute(
            _TASK_SELECT + where + " ORDER BY tasks.rowid").fetchall()
        out = []
        for scenario_id, status, payload, point_id, started, finished, \
                point_payload in rows:
            data = json.loads(payload)
            if point_id is not None:
                if point_payload is None:
                    data = {"scenario": data["scenario"]}
                else:
                    point = json.loads(point_payload)
                    for key, default in _POINT_FIELDS:
                        data[key] = point.get(key, default)
                    data["status"] = status
                    data["started_at"] = started
                    data["finished_at"] = finished
            out.append((scenario_id, TaskRecord.from_dict(data)))
        return out

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
            # task upsert never invalidates a snapshot or point count
            # and a point append never invalidates the task cache.  The epoch
            # is read in the same statement (module docstring).
            epoch, gen = self._conn.execute(
                "SELECT (SELECT value FROM meta WHERE key = 'points_epoch'),"
                " (SELECT value FROM meta WHERE key = ?)", (counter,)
            ).fetchone()
        return (ino, epoch, int(gen) if gen is not None else 0)

    def dataset_signature(self) -> Tuple:
        """Freshness token for snapshots and point counts: changes
        whenever any connection may have altered the stored points."""
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
