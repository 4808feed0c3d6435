"""Columnar dataset snapshots: NumPy struct-of-arrays over a store.

The advice read path historically rehydrated every stored point into a
:class:`~repro.core.dataset.DataPoint` and walked Python loops over the
objects — a cost every cache-missing request paid again.  A
:class:`ColumnarSnapshot` materializes one deployment's corpus **once
per store generation** as parallel NumPy arrays (numeric columns) plus
dictionary-encoded tables (strings and mappings), and an in-process
:class:`SnapshotCache` shares the build across requests in a worker.

Freshness is keyed on the *same* change token the service's ETag
response cache uses — :meth:`SqliteStore.dataset_signature` — so a
snapshot can never serve data an ETag would have revalidated: whenever
the ETag key changes, the snapshot misses, and vice versa.  A miss after
appends extends the cached snapshot with just the new rows fetched by
cursor; a rotated epoch or a new database rebuilds it.  A snapshot also
keeps a few per-row arrays its callers derived from it (the spot risk
columns); an extension inherits them for the rows they cover.

Row order is store order (``ORDER BY id``), identical to
``query_points()``, so positional indices agree with the object path.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.dataset import DataPoint
from repro.core.query import Query
from repro.telemetry import global_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.sqlite import SqliteStore

__all__ = [
    "ColumnarSnapshot",
    "SnapshotCache",
    "code_mask",
    "snapshot_cache",
    "snapshot_for_store",
    "snapshot_held",
    "snapshot_status",
]


# -- telemetry --------------------------------------------------------------------

_BUILDS = global_registry().counter(
    "advisor_snapshot_builds",
    "Columnar snapshot materializations, by store kind and mode"
    " (full rebuild or delta extension).",
)
_HITS = global_registry().counter(
    "advisor_snapshot_hits",
    "Columnar snapshot cache hits, by store kind.",
)
_ROWS = global_registry().gauge(
    "advisor_snapshot_rows",
    "Rows in the most recently built columnar snapshot, by store kind.",
)
_BUILD_SECONDS = global_registry().histogram(
    "advisor_snapshot_build_seconds",
    "Columnar snapshot build latency, by store kind and mode.",
)


class _Encoder:
    """Dictionary-encode values: stable codes in first-seen order."""

    __slots__ = ("codes", "values")

    def __init__(self) -> None:
        self.codes: Dict[Any, int] = {}
        self.values: List[Any] = []

    def code(self, key: Any, value: Any) -> int:
        got = self.codes.get(key)
        if got is None:
            got = len(self.values)
            self.codes[key] = got
            self.values.append(value)
        return got


def _encode_column(raw: Sequence[Any], decode,
                   base: Optional[_Encoder] = None) -> Tuple[list, _Encoder]:
    """Dictionary-encode one column in a single comprehension.

    ``setdefault(v, len(index))`` reads the current size *before* the
    (possible) insert, so unseen values get the next code in first-seen
    order; ``decode`` then runs once per unique value, not once per row.
    Starting from a copy of ``base`` (the encoder of the rows before
    these, left unchanged) gives every row the code one pass over all
    the rows would give.
    """
    index: Dict[Any, int] = dict(base.codes) if base is not None else {}
    known = len(index)
    nxt = index.setdefault
    codes = [nxt(v, len(index)) for v in raw]
    enc = _Encoder()
    enc.codes = index
    enc.values = (base.values if base is not None else []) + [
        decode(v) for v in itertools.islice(index, known, None)]
    return codes, enc


def code_mask(codes: np.ndarray, values: Sequence[Any],
              keep: Callable[[Any], bool]) -> np.ndarray:
    """Row mask of a dictionary-coded column: True where ``keep`` holds
    for the row's value.

    ``keep`` runs once per distinct value, filling a boolean table over
    ``values`` that ``ndarray.take`` gathers by code: one pass over the
    rows however many values pass (``np.isin`` over the codes sorts or
    tables them again on every call).
    """
    table = np.fromiter(map(keep, values), dtype=bool, count=len(values))
    return table.take(codes)


def _holds(wanted: Dict[str, str]) -> Callable[[Dict[str, str]], bool]:
    """Does a mapping group hold every key of ``wanted`` at its value?"""
    items = tuple(wanted.items())
    return lambda group: all(group.get(k) == v for k, v in items)


def _parse_str_map(text: str) -> Dict[str, str]:
    return {str(k): str(v) for k, v in (json.loads(text) or {}).items()}


def _parse_float_map(text: str) -> Dict[str, float]:
    return {str(k): float(v) for k, v in (json.loads(text) or {}).items()}


#: Numeric columns: (build key, field, dtype).
_NUMERIC = (
    ("exec", "exec_time_s", np.float64),
    ("cost", "cost_usd", np.float64),
    ("ts", "timestamp", np.float64),
    ("wasted", "wasted_node_s", np.float64),
    ("makespan", "makespan_s", np.float64),
    ("nnodes", "nnodes", np.int64),
    ("ppn", "ppn", np.int64),
    ("preempt", "preemptions", np.int64),
    ("pred", "predicted", bool),
)
#: Dictionary-coded columns: (build key, code field, values field).
_CODED = (
    ("app", "appname_codes", "appnames"),
    ("sku", "sku_codes", "skus"),
    ("cap", "capacity_codes", "capacities"),
    ("dep", "deployment_codes", "deployments"),
    ("inp", "appinputs_codes", "appinputs_groups"),
    ("var", "app_vars_codes", "app_vars_groups"),
    ("infra", "infra_codes", "infra_groups"),
    ("tag", "tags_codes", "tags_groups"),
)
#: Every per-row array field.
_ARRAYS = tuple(f for _, f, _ in _NUMERIC) + tuple(f for _, f, _ in _CODED)

#: Row-memo entries one snapshot keeps; the oldest is dropped first.
ROW_MEMO_MAX = 4
#: Guards every snapshot's row memo: service threads share snapshots.
_ROW_MEMO_LOCK = threading.Lock()


@dataclass
class ColumnarSnapshot:
    """One corpus as parallel columns.

    Numeric fields are NumPy arrays (float64 / int64 / bool); string and
    mapping fields are dictionary-encoded — an ``int32`` code array plus
    a tuple of unique values (mappings keep their original key order so
    a rehydrated point is indistinguishable from the stored one).  Built
    arrays are read-only: one snapshot serves every request of its
    generation, unfiltered views included.
    """

    n: int
    exec_time_s: np.ndarray
    cost_usd: np.ndarray
    timestamp: np.ndarray
    wasted_node_s: np.ndarray
    makespan_s: np.ndarray
    nnodes: np.ndarray
    ppn: np.ndarray
    preemptions: np.ndarray
    predicted: np.ndarray
    appname_codes: np.ndarray
    appnames: Tuple[str, ...]
    sku_codes: np.ndarray
    skus: Tuple[str, ...]
    capacity_codes: np.ndarray
    capacities: Tuple[str, ...]
    deployment_codes: np.ndarray
    deployments: Tuple[str, ...]
    appinputs_codes: np.ndarray
    appinputs_groups: Tuple[Dict[str, str], ...]
    app_vars_codes: np.ndarray
    app_vars_groups: Tuple[Dict[str, str], ...]
    infra_codes: np.ndarray
    infra_groups: Tuple[Dict[str, float], ...]
    tags_codes: np.ndarray
    tags_groups: Tuple[Dict[str, str], ...]
    #: The store's ``dataset_signature()`` at build time (None for
    #: ad-hoc snapshots over in-memory points or filtered views).
    signature: Optional[Tuple] = None
    #: The store's fetch cursor after the last row (None: the snapshot
    #: cannot be extended, only rebuilt).
    cursor: Optional[Tuple] = None
    #: The encoders that built the coded columns, by build key (what
    #: ``from_column_rows(base=...)`` continues from).
    _codebooks: Dict[str, _Encoder] = field(default_factory=dict,
                                            repr=False)
    _lazy: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: Per-row arrays derived by callers, by key (:meth:`row_memo`).
    _row_memo: Dict[Any, Tuple[np.ndarray, ...]] = field(
        default_factory=dict, repr=False)

    # -- derived tables (computed once per snapshot) -----------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def skus_lower(self) -> Tuple[str, ...]:
        got = self._lazy.get("skus_lower")
        if got is None:
            got = tuple(s.lower() for s in self.skus)
            self._lazy["skus_lower"] = got
        return got

    @property
    def inputs_keys(self) -> Tuple[str, ...]:
        """``DataPoint.inputs_key()`` per appinputs group."""
        got = self._lazy.get("inputs_keys")
        if got is None:
            got = tuple(
                ",".join(f"{k}={v}" for k, v in sorted(g.items()))
                for g in self.appinputs_groups
            )
            self._lazy["inputs_keys"] = got
        return got

    def price_memo(self) -> Dict[Any, Any]:
        """Mutable per-snapshot memo for SKU/region price lookups.

        Keyed by the caller (per catalog, then sku, region, spot); dies
        with the snapshot, i.e. exactly one generation of the corpus,
        which every request of that generation shares.
        """
        return self._lazy.setdefault("price_memo", {})

    def row_memo(self, key: Any) -> Optional[Tuple[np.ndarray, ...]]:
        """The per-row arrays kept under ``key``, or None.

        An entry covers the *first* ``len(entry[0])`` rows, which may be
        fewer than :attr:`n`: a snapshot extended by appended rows
        inherits its base's entries, and they stay valid for the rows
        they cover.  What an entry means is the caller's business.
        """
        with _ROW_MEMO_LOCK:
            return self._row_memo.get(key)

    def keep_row_memo(self, key: Any,
                      arrays: Tuple[np.ndarray, ...]) -> None:
        """Keep ``arrays`` (per-row, covering a prefix of the rows) under
        ``key``, replacing its entry; at most :data:`ROW_MEMO_MAX`
        entries stay, the oldest dropped first.  The arrays become
        read-only: later snapshots extended from this one share them."""
        for array in arrays:
            array.setflags(write=False)
        with _ROW_MEMO_LOCK:
            self._row_memo.pop(key, None)
            self._row_memo[key] = arrays
            while len(self._row_memo) > ROW_MEMO_MAX:
                del self._row_memo[next(iter(self._row_memo))]

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[DataPoint]) -> "ColumnarSnapshot":
        encoders = {key: _Encoder() for key, _, _ in _CODED}
        (appname_e, sku_e, cap_e, dep_e,
         inputs_e, vars_e, infra_e, tags_e) = encoders.values()
        cols: Dict[str, list] = {k: [] for k in (
            "exec", "cost", "ts", "wasted", "makespan", "nnodes", "ppn",
            "preempt", "pred", "app", "sku", "cap", "dep", "inp", "var",
            "infra", "tag")}
        for p in points:
            cols["exec"].append(p.exec_time_s)
            cols["cost"].append(p.cost_usd)
            cols["ts"].append(p.timestamp)
            cols["wasted"].append(p.wasted_node_s)
            cols["makespan"].append(p.makespan_s)
            cols["nnodes"].append(p.nnodes)
            cols["ppn"].append(p.ppn)
            cols["preempt"].append(p.preemptions)
            cols["pred"].append(p.predicted)
            cols["app"].append(appname_e.code(p.appname, p.appname))
            cols["sku"].append(sku_e.code(p.sku, p.sku))
            cols["cap"].append(cap_e.code(p.capacity, p.capacity))
            cols["dep"].append(dep_e.code(p.deployment, p.deployment))
            # Mapping groups key on the *ordered* item tuple, so the
            # rehydrated dict reproduces the stored key order exactly.
            cols["inp"].append(
                inputs_e.code(tuple(p.appinputs.items()), dict(p.appinputs)))
            cols["var"].append(
                vars_e.code(tuple(p.app_vars.items()), dict(p.app_vars)))
            cols["infra"].append(
                infra_e.code(tuple(p.infra_metrics.items()),
                             dict(p.infra_metrics)))
            cols["tag"].append(
                tags_e.code(tuple(p.tags.items()), dict(p.tags)))
        return cls._assemble(cols, encoders, None)

    @classmethod
    def from_column_rows(cls, rows: Sequence[tuple],
                         signature: Optional[Tuple] = None,
                         base: Optional["ColumnarSnapshot"] = None,
                         cursor: Optional[Tuple] = None,
                         ) -> "ColumnarSnapshot":
        """Build from raw store rows (``SqliteStore.fetch_point_columns``).

        Row layout is :data:`repro.store.sqlite.POINT_COLUMN_FIELDS`;
        mapping fields arrive as JSON object text and are parsed once
        per unique text (payloads are written with compact separators,
        so identical mappings share identical text).  The build is
        column-at-a-time — one transpose, then one dictionary-encoding
        comprehension per string/mapping column — which roughly halves
        the Python cost of a 50k-row build versus a per-row loop.

        With ``base`` — a snapshot built by this method from the rows
        that precede ``rows`` — the result is ``base`` plus ``rows``:
        only the new rows are encoded, against copies of ``base``'s code
        dictionaries, and the arrays are concatenated.  Codes keep their
        first-seen order, so it equals a build over all the rows at
        once; ``base`` itself is left unchanged.  The result starts with
        a copy of ``base``'s row memo, whose entries cover the base's
        rows, a prefix of its own.
        """
        if rows:
            (app_c, sku_c, nnodes_c, ppn_c, cap_c, pred_c, exec_c,
             cost_c, ts_c, preempt_c, wasted_c, makespan_c, inp_c,
             var_c, infra_c, tag_c, dep_c) = zip(*rows)
        else:
            (app_c, sku_c, nnodes_c, ppn_c, cap_c, pred_c, exec_c,
             cost_c, ts_c, preempt_c, wasted_c, makespan_c, inp_c,
             var_c, infra_c, tag_c, dep_c) = ((),) * 17
        cols: Dict[str, Any] = {
            "exec": exec_c, "cost": cost_c, "ts": ts_c,
            "wasted": wasted_c, "makespan": makespan_c,
            "nnodes": nnodes_c, "ppn": ppn_c, "preempt": preempt_c,
            "pred": pred_c,
        }
        books = base._codebooks if base is not None else {}
        encoders = {}
        for key, raw, decode in (
                ("app", app_c, str), ("sku", sku_c, str),
                ("cap", cap_c, str), ("dep", dep_c, str),
                ("inp", inp_c, _parse_str_map),
                ("var", var_c, _parse_str_map),
                ("infra", infra_c, _parse_float_map),
                ("tag", tag_c, _parse_str_map)):
            cols[key], encoders[key] = _encode_column(raw, decode,
                                                      books.get(key))
        return cls._assemble(cols, encoders, signature, base, cursor)

    @classmethod
    def _assemble(cls, cols, encoders, signature, base=None, cursor=None):
        fields: Dict[str, Any] = {
            name: np.asarray(cols[key], dtype=dtype)
            for key, name, dtype in _NUMERIC
        }
        for key, codes, values in _CODED:
            fields[codes] = np.asarray(cols[key], dtype=np.int32)
            fields[values] = tuple(encoders[key].values)
        for name in _ARRAYS:
            if base is not None:
                fields[name] = np.concatenate((getattr(base, name),
                                               fields[name]))
            # Snapshots are shared (the LRU, unfiltered views, delta
            # bases), so nothing may write through their arrays.
            fields[name].setflags(write=False)
        memo: Dict[Any, Tuple[np.ndarray, ...]] = {}
        if base is not None:
            with _ROW_MEMO_LOCK:
                memo = dict(base._row_memo)
        return cls(n=len(fields["exec_time_s"]), signature=signature,
                   cursor=cursor, _codebooks=encoders, _row_memo=memo,
                   **fields)

    # -- filtering ---------------------------------------------------------------

    def query_mask(self, query: Query) -> np.ndarray:
        """Boolean row mask replicating :meth:`Query.matches` exactly
        (window ignored, like ``matches``)."""
        mask = np.ones(self.n, dtype=bool)
        if self.n == 0:
            return mask
        if query.appname is not None:
            mask &= self._str_eq(self.appname_codes, self.appnames,
                                 query.appname)
        candidates = query.sku_candidates
        if candidates is not None:
            mask &= code_mask(self.sku_codes, self.skus_lower,
                              candidates.__contains__)
        if query.nnodes:
            # Node counts are not coded: one compare per distinct count
            # (a request names a few) reads the rows once each.
            wanted = np.zeros(self.n, dtype=bool)
            for count in dict.fromkeys(query.nnodes):
                wanted |= self.nnodes == count
            mask &= wanted
        if query.ppn is not None:
            mask &= self.ppn == query.ppn
        if query.min_nodes is not None:
            mask &= self.nnodes >= query.min_nodes
        if query.max_nodes is not None:
            mask &= self.nnodes <= query.max_nodes
        if query.appinputs:
            mask &= code_mask(self.appinputs_codes, self.appinputs_groups,
                              _holds(query.appinputs))
        if query.tags:
            mask &= code_mask(self.tags_codes, self.tags_groups,
                              _holds(query.tags))
        if not query.include_predicted:
            mask &= ~self.predicted
        if query.capacity is not None:
            mask &= self._str_eq(self.capacity_codes, self.capacities,
                                 query.capacity)
        return mask

    @staticmethod
    def _str_eq(codes: np.ndarray, values: Tuple[str, ...],
                want: str) -> np.ndarray:
        try:
            code = values.index(want)
        except ValueError:
            return np.zeros(codes.shape, dtype=bool)
        return codes == code

    def view(self, query: Optional[Query]) -> "ColumnarSnapshot":
        """``Dataset.query`` in column space: filter mask, then the
        query's offset/limit window.  A query with no clause and no
        window (or None) returns the snapshot itself, uncopied."""
        if query is None or query == Query():
            return self
        idx = np.flatnonzero(self.query_mask(query))
        if query.offset:
            idx = idx[query.offset:]
        if query.limit is not None:
            idx = idx[:query.limit]
        return self.select(idx)

    def select(self, mask: np.ndarray) -> "ColumnarSnapshot":
        """A filtered view (row subset; group tables shared, uncached,
        no row memo: its entries describe other rows)."""
        return ColumnarSnapshot(
            n=int(np.count_nonzero(mask)) if mask.dtype == bool
            else len(mask),
            **{name: getattr(self, name)[mask] for name in _ARRAYS},
            **{values: getattr(self, values) for _, _, values in _CODED},
            _lazy={k: v for k, v in self._lazy.items()
                   if k in ("skus_lower", "inputs_keys")},
        )

    # -- rehydration -------------------------------------------------------------

    def point(self, i: int) -> DataPoint:
        """Rehydrate one row as a :class:`DataPoint`."""
        return DataPoint(
            appname=self.appnames[self.appname_codes[i]],
            sku=self.skus[self.sku_codes[i]],
            nnodes=int(self.nnodes[i]),
            ppn=int(self.ppn[i]),
            exec_time_s=float(self.exec_time_s[i]),
            cost_usd=float(self.cost_usd[i]),
            appinputs=dict(self.appinputs_groups[self.appinputs_codes[i]]),
            app_vars=dict(self.app_vars_groups[self.app_vars_codes[i]]),
            infra_metrics=dict(self.infra_groups[self.infra_codes[i]]),
            tags=dict(self.tags_groups[self.tags_codes[i]]),
            deployment=self.deployments[self.deployment_codes[i]],
            timestamp=float(self.timestamp[i]),
            predicted=bool(self.predicted[i]),
            capacity=self.capacities[self.capacity_codes[i]],
            preemptions=int(self.preemptions[i]),
            wasted_node_s=float(self.wasted_node_s[i]),
            makespan_s=float(self.makespan_s[i]),
        )

    def points(self) -> List[DataPoint]:
        return [self.point(i) for i in range(self.n)]


# -- the per-process snapshot cache ----------------------------------------------

class SnapshotCache:
    """Generation-keyed LRU of built snapshots (thread-safe)."""

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        # Re-entrant: an ephemeral session's finalizer discards entries,
        # and a GC pass may run it in a thread that holds this lock.
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Any, Tuple[Tuple, ColumnarSnapshot]]" \
            = OrderedDict()

    def get(self, key: Any,
            signature: Tuple) -> Optional[ColumnarSnapshot]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != signature:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: Any, signature: Tuple,
            snapshot: ColumnarSnapshot) -> None:
        entry = (signature, snapshot)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry  # most recently used
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def peek(self, key: Any) -> Optional[Tuple[Tuple, ColumnarSnapshot]]:
        """(signature, snapshot) regardless of freshness, or None."""
        with self._lock:
            return self._entries.get(key)

    def discard(self, key: Any) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_CACHE = SnapshotCache()


def snapshot_cache() -> SnapshotCache:
    """The process-wide snapshot LRU (shared across sessions/requests)."""
    return _CACHE


def _cache_key(store) -> Tuple[str, str]:
    return (store.kind, store.db_path)


def forget_snapshot(store: "SqliteStore") -> None:
    """Drop the LRU's snapshot of ``store``, whose handle is released
    before its data is archived or removed: no reader asks for it."""
    _CACHE.discard(_cache_key(store))


def snapshot_for_store(store: "SqliteStore",
                       cache: Optional[SnapshotCache] = None,
                       ) -> ColumnarSnapshot:
    """The store's current corpus as a snapshot, via the LRU.

    A fresh entry (same ``dataset_signature``) is returned as-is.  A
    stale one is extended with the rows appended since it was built
    while its cursor is still valid (mode ``delta``); otherwise the
    snapshot is rebuilt from every row (mode ``full``).  A published
    snapshot is never mutated, so readers holding an older one keep a
    consistent view.
    """
    cache = cache if cache is not None else _CACHE
    key = _cache_key(store)
    snap = cache.get(key, store.dataset_signature())
    if snap is not None:
        _HITS.labels(kind=store.kind).inc()
        return snap
    start = time.perf_counter()
    entry = cache.peek(key)
    base = entry[1] if entry is not None else None
    rows = store.fetch_point_columns(
        base.cursor if base is not None else None)
    # The rows carry the signature of their own read transaction,
    # which may be newer than the one looked up above.
    base = base if rows.delta else None
    snap = ColumnarSnapshot.from_column_rows(
        rows, rows.signature, base=base, cursor=rows.cursor)
    mode = "full" if base is None else "delta"
    _BUILD_SECONDS.labels(kind=store.kind, mode=mode).observe(
        time.perf_counter() - start)
    _BUILDS.labels(kind=store.kind, mode=mode).inc()
    _ROWS.labels(kind=store.kind).set(float(snap.n))
    cache.put(key, snap.signature, snap)
    return snap


def snapshot_held(store: "SqliteStore",
                  cache: Optional[SnapshotCache] = None) -> bool:
    """Does the LRU hold a snapshot of ``store``, of any generation?

    :func:`snapshot_for_store` brings a held snapshot current for the
    cost of the rows appended since (or a rebuild after a replace), so
    a reader that needs only a few rows takes the snapshot only then.
    """
    cache = cache if cache is not None else _CACHE
    return cache.peek(_cache_key(store)) is not None


def snapshot_status(store: "SqliteStore",
                    cache: Optional[SnapshotCache] = None) -> Dict[str, Any]:
    """What this process's snapshot cache holds for one store: cached,
    fresh against the store's signature, and its row count.

    Its caller outside the tests is perfbench's correctness gate
    (``perfbench/ingest.py``), which checks after the ``ingest_advise``
    loop that the snapshot is fresh and holds every stored row."""
    cache = cache if cache is not None else _CACHE
    signature = store.dataset_signature()
    entry = cache.peek(_cache_key(store))
    return {
        "backend": store.kind,
        "cached": entry is not None,
        "fresh": entry is not None and entry[0] == signature,
        "rows": (entry[1].n if entry is not None else None),
        "signature": "/".join(str(part) for part in signature),
    }
