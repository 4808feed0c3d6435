"""Outside-in tracing for the traced benchmark run.

The benchmark wraps the public functions of each layer — from its own
files, without touching the program — so that every call records a span
(name, start, end, parent) or bumps a counter.  The spans of one
operation share its id; all of them are kept in memory and written out
when the run ends.

Every workload is a closed loop with one operation in flight, so at any
moment the open spans form a single nesting chain, even when the
in-process server handles a request on another thread: one global stack
gives every span its parent.  Per-call kernels that run thousands of
times per request (the risk kernels, eviction draws) get counters
instead of spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Per-layer metrics reported by the traced run, with their units.  Time
#: and count metrics are per operation of the workload (a scenario, a
#: request or a cycle).
PER_LAYER = (
    ("collect.profile.scenario_ms", "ms/op"),
    ("collect.profile.persist_ms", "ms/op"),
    ("collect.profile.recovery_ms", "ms/op"),
    ("collect.profile.provision_ms", "ms/op"),
    ("store.append_point.calls", "calls/op"),
    ("store.append_point.busy_ms", "ms/op"),
    ("store.sync_tasks.calls", "calls/op"),
    ("store.sync_tasks.busy_ms", "ms/op"),
    ("eviction.draw.calls", "calls/op"),
    ("sweep.preemptions", "count/op"),
    ("sweep.useful_node_s_ratio", "ratio"),
    ("store.fetch_point_columns.busy_ms", "ms/op"),
    ("store.fetch_point_columns.rows", "rows/op"),
    ("snapshot.encode_ms", "ms/op"),
    ("snapshot.lookups", "calls/op"),
    ("snapshot.builds", "calls/op"),
    ("store.append_points.busy_ms", "ms/op"),
    ("cost.p95_kernel.calls", "calls/op"),
    ("cost.p95_kernel.busy_ms", "ms/op"),
    ("cost.expected_kernel.calls", "calls/op"),
    ("cost.risk_memo_hit_ratio", "ratio"),
    ("columnar.view_ms", "ms/op"),
    ("columnar.capacity_columns_ms", "ms/op"),
    ("columnar.advise_columns_self_ms", "ms/op"),
    ("pareto.calls", "calls/op"),
    ("pareto.busy_ms", "ms/op"),
    ("store.query_points.busy_ms", "ms/op"),
    ("store.count_points.busy_ms", "ms/op"),
    ("session.advise_self_ms", "ms/op"),
    ("router.handle_self_ms", "ms/op"),
    ("serde.encode_ms", "ms/op"),
    ("http.roundtrip_self_ms", "ms/op"),
    ("client.call_self_ms", "ms/op"),
    ("cache.revalidations", "count/op"),
    ("cache.not_modified", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms/op"),
)


class Tracer:
    """Span and counter recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (op id, name, start, end, parent index or -1)
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        start = time.perf_counter()
        with self._lock:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([self.op, name, start, None, parent])
            index = len(self.spans) - 1
            self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][3] = end
            self._stack.remove(index)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrappers ------------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, own))

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._close(index)
                if on_result is not None:
                    on_result(args, result)
                return result
            return wrapper
        self._replace(owner, attr, make)

    def counter(self, owner, attr: str, name: str, timed: bool = False,
                amount=None) -> None:
        """Count calls of ``owner.attr`` (``amount(args)`` per call when
        given), and with ``timed`` also their busy time."""
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not timed:
                    self.count(name + ".calls",
                               amount(args) if amount else 1)
                    return func(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    self.count(name + ".busy_s", time.perf_counter() - start)
                    self.count(name + ".calls")
            return wrapper
        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def install_layers(self) -> None:
        """Wrap the public calls of every layer the workloads reach."""
        import urllib.error
        import urllib.request

        import repro.core.columnar as columnar
        import repro.core.cost as cost
        import repro.store.snapshot as snapshot
        from repro.api.results import AdviceResult, DataPointsResult
        from repro.api.session import AdvisorSession
        from repro.client.remote import RemoteSession
        from repro.cloud.eviction import EvictionModel
        from repro.service.router import Router
        from repro.store.sqlite import SqliteStore

        # store
        self.span(SqliteStore, "append_point", "store.append_point")
        self.span(SqliteStore, "append_points", "store.append_points")
        self.span(SqliteStore, "sync_tasks", "store.sync_tasks")
        self.span(SqliteStore, "query_points", "store.query_points")
        self.span(SqliteStore, "count_points", "store.count_points")
        self.span(SqliteStore, "fetch_point_columns",
                  "store.fetch_point_columns",
                  on_result=lambda _a, rows: self.count(
                      "store.fetch_point_columns.rows",
                      len(rows) if rows is not None else 0))
        # snapshot
        self.span(snapshot, "snapshot_for_store", "snapshot.lookup")
        self.span(snapshot.ColumnarSnapshot, "from_column_rows",
                  "snapshot.encode")
        # advice math
        self.span(snapshot.ColumnarSnapshot, "view", "columnar.view")
        self.span(columnar, "capacity_columns", "columnar.capacity_columns")
        self.span(columnar, "advise_columns", "columnar.advise_columns")
        self.span(columnar, "pareto_indices", "pareto")
        self.span(columnar, "pareto_indices_nd", "pareto")
        self.counter(cost, "p95_spot_runtime", "cost.p95_kernel", timed=True)
        self.counter(cost, "expected_spot_runtime", "cost.expected_kernel")
        for module in (columnar, cost):
            self.counter(module, "p95_spot_runtime_cached", "cost.memo")
            self.counter(module, "expected_spot_runtime_cached", "cost.memo")
        # spot draws
        self.counter(EvictionModel, "time_to_eviction", "eviction.draw")
        self.counter(EvictionModel, "times_to_eviction", "eviction.draw",
                     amount=lambda args: len(args[2]))
        # facade, transport, client
        self.span(AdvisorSession, "advise", "session.advise")
        self.span(Router, "handle", "router.handle")
        self.span(AdviceResult, "to_dict", "serde.encode")
        self.span(DataPointsResult, "to_dict", "serde.encode")
        self.span(RemoteSession, "_call", "http.roundtrip")
        self.span(RemoteSession, "advise", "client.call")
        self.span(RemoteSession, "datapoints", "client.call")

        def urlopen(func):
            @functools.wraps(func)
            def wrapper(request, *args, **kwargs):
                if request.get_method() == "GET":
                    self.count("cache.gets")
                    if request.has_header("If-none-match"):
                        self.count("cache.revalidations")
                try:
                    return func(request, *args, **kwargs)
                except urllib.error.HTTPError as exc:
                    if exc.code == 304:
                        self.count("cache.not_modified")
                    raise
            return wrapper
        self._replace(urllib.request, "urlopen", urlopen)

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    def totals(self, op_walls: Dict[int, float]) -> Dict[str, float]:
        """Raw per-name sums: ``<name>.calls``, ``.busy_s`` (inclusive),
        ``.self_s`` (minus the time children cover), the counters, and
        ``unattributed_s`` (op wall time covered by no top-level span)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        out: Dict[str, float] = defaultdict(float, self.counters)
        top: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for index, (op, name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            duration = end - start
            covered = _union(children.get(index, ()), start, end)
            if name == "store.append_points" and parent >= 0 \
                    and self.spans[parent][1] == "store.append_point":
                name = "store.append_points.nested"
            out[name + ".calls"] += 1
            out[name + ".busy_s"] += duration
            out[name + ".self_s"] += duration - covered
            if parent < 0 and op is not None:
                top[op].append((start, end))
        out["unattributed_s"] = sum(
            max(0.0, wall - _union(top.get(op, ()), -1e300, 1e300))
            for op, wall in op_walls.items())
        return dict(out)


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(raw: Dict[str, float], ops: int,
                  overhead_pct: float,
                  extra: Optional[Dict[str, float]] = None) -> Dict:
    """Per-layer metrics (per operation) from :meth:`Tracer.totals` sums;
    ``extra`` supplies values read from results instead of spans."""
    ops = max(ops, 1)

    def per_op(key: str, scale: float = 1.0) -> float:
        return raw.get(key, 0.0) * scale / ops

    def ms(key: str) -> float:
        return per_op(key, 1e3)

    memo = raw.get("cost.memo.calls", 0.0)
    uncached = (raw.get("cost.p95_kernel.calls", 0.0)
                + raw.get("cost.expected_kernel.calls", 0.0))
    gets = raw.get("cache.gets", 0.0)
    values = {
        # Every top-level point append, through either store method.
        "store.append_point.calls": per_op("store.append_point.calls")
        + per_op("store.append_points.calls"),
        "store.append_point.busy_ms": ms("store.append_point.busy_s")
        + ms("store.append_points.busy_s"),
        "store.sync_tasks.calls": per_op("store.sync_tasks.calls"),
        "store.sync_tasks.busy_ms": ms("store.sync_tasks.busy_s"),
        "eviction.draw.calls": per_op("eviction.draw.calls"),
        "store.fetch_point_columns.busy_ms":
            ms("store.fetch_point_columns.busy_s"),
        "store.fetch_point_columns.rows":
            per_op("store.fetch_point_columns.rows"),
        "snapshot.encode_ms": ms("snapshot.encode.busy_s"),
        "snapshot.lookups": per_op("snapshot.lookup.calls"),
        "snapshot.builds": per_op("snapshot.encode.calls"),
        "store.append_points.busy_ms": ms("store.append_points.busy_s"),
        "cost.p95_kernel.calls": per_op("cost.p95_kernel.calls"),
        "cost.p95_kernel.busy_ms": ms("cost.p95_kernel.busy_s"),
        "cost.expected_kernel.calls": per_op("cost.expected_kernel.calls"),
        "cost.risk_memo_hit_ratio":
            (1.0 - uncached / memo) if memo else 0.0,
        "columnar.view_ms": ms("columnar.view.busy_s"),
        "columnar.capacity_columns_ms":
            ms("columnar.capacity_columns.busy_s"),
        "columnar.advise_columns_self_ms":
            ms("columnar.advise_columns.self_s"),
        "pareto.calls": per_op("pareto.calls"),
        "pareto.busy_ms": ms("pareto.busy_s"),
        "store.query_points.busy_ms": ms("store.query_points.busy_s"),
        "store.count_points.busy_ms": ms("store.count_points.busy_s"),
        "session.advise_self_ms": ms("session.advise.self_s"),
        "router.handle_self_ms": ms("router.handle.self_s"),
        "serde.encode_ms": ms("serde.encode.busy_s"),
        "http.roundtrip_self_ms": ms("http.roundtrip.self_s"),
        "client.call_self_ms": ms("client.call.self_s"),
        "cache.revalidations": per_op("cache.revalidations"),
        "cache.not_modified": per_op("cache.not_modified"),
        "cache.hit_ratio":
            raw.get("cache.not_modified", 0.0) / gets if gets else 0.0,
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_ms": ms("unattributed_s"),
    }
    for name in ("scenario", "persist", "recovery", "provision"):
        values[f"collect.profile.{name}_ms"] = 0.0
    values["sweep.preemptions"] = 0.0
    values["sweep.useful_node_s_ratio"] = 0.0
    values.update(extra or {})
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def overhead_pct(untraced_ops_per_s: float, traced_ops_per_s: float) -> float:
    """How much slower the traced operations ran, in percent."""
    return (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0
