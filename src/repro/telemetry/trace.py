"""Context-propagated spans: the tracing half of ``repro.telemetry``.

A *span* is one timed operation; spans nest through Python call frames
via :mod:`contextvars`, so ``telemetry.span("collect.sweep")`` inside a
request handler automatically becomes a child of that request's
``http.request`` span without any plumbing through intermediate
signatures.  Each finished span is one JSON line appended to the active
*sink* — the per-deployment ``traces-<name>.jsonl`` ring file (see
:mod:`repro.telemetry.tracefile`) — so traces survive process
boundaries: every process that works on the same deployment appends to
the same file with ``O_APPEND`` atomicity.

Cross-process (and cross-host) linkage uses the W3C Trace Context
``traceparent`` header format::

    00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>

The client injects it on HTTP requests, the service router adopts it,
and the job record carries it to whichever fleet worker process claims
the job — one trace id end to end.

Design constraints honored here:

* **Zero dependencies, near-zero overhead when idle.**  When no sink is
  active a span still propagates context (children spawned under it keep
  nesting correctly) but builds and writes nothing.
* **Thread handoff is explicit.**  ``contextvars`` do not flow into
  pre-existing worker threads; code that moves work across threads or
  processes re-activates the parent context from the serialized
  ``traceparent`` (see ``FleetJobManager._execute``).
* **Never raises into the caller.**  A full disk or unwritable sink
  must not fail a sweep; emit errors are swallowed.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.telemetry import tracefile

#: The W3C header name (HTTP header lookup is case-insensitive).
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT = re.compile(
    r"^[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)

#: All-zero ids are invalid per the W3C spec.
_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of one span: (trace id, span id)."""

    trace_id: str  # 32 lowercase hex chars
    spanid: str    # 16 lowercase hex chars


_current: "contextvars.ContextVar[Optional[SpanContext]]" = \
    contextvars.ContextVar("repro_telemetry_span", default=None)
_sink: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("repro_telemetry_sink", default=None)


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def current() -> Optional[SpanContext]:
    """The active span context in this execution context, if any."""
    return _current.get()


def current_traceparent() -> str:
    """The active context as a ``traceparent`` value (``""`` if none)."""
    ctx = _current.get()
    return format_traceparent(ctx) if ctx is not None else ""


def format_traceparent(ctx: SpanContext) -> str:
    return f"00-{ctx.trace_id}-{ctx.spanid}-01"


def parse_traceparent(value: Optional[str]) -> Optional[SpanContext]:
    """A :class:`SpanContext` from a ``traceparent`` header, or ``None``.

    Malformed or all-zero values are treated as absent — an incoming
    request with a bad header simply starts a fresh trace.
    """
    if not value:
        return None
    match = _TRACEPARENT.match(value.strip().lower())
    if match is None:
        return None
    trace_id, spanid = match.group(1), match.group(2)
    if trace_id == _ZERO_TRACE or spanid == _ZERO_SPAN:
        return None
    return SpanContext(trace_id=trace_id, spanid=spanid)


def activate(ctx: Optional[SpanContext]) -> "contextvars.Token":
    """Adopt ``ctx`` as the current parent (e.g. from a traceparent).

    Returns a token for :func:`deactivate`; pass ``None`` to clear.
    """
    return _current.set(ctx)


def deactivate(token: "contextvars.Token") -> None:
    _current.reset(token)


def set_sink(path: Optional[str]) -> "contextvars.Token":
    """Route finished spans in this context to the trace file ``path``.

    Returns a token for :func:`reset_sink`; ``None`` disables emission.
    """
    return _sink.set(path)


def reset_sink(token: "contextvars.Token") -> None:
    _sink.reset(token)


def current_sink() -> Optional[str]:
    return _sink.get()


class Span:
    """One in-flight operation; yielded by :func:`span`."""

    __slots__ = ("name", "context", "attrs", "_started_wall", "_started")

    def __init__(self, name: str, context: SpanContext,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.context = context
        self.attrs = attrs
        self._started_wall = time.time()
        self._started = time.perf_counter()

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the live span."""
        self.attrs[key] = value


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:
    """Run the body as one named span under the current context.

    A fresh trace starts when no context is active (so a local
    ``repro collect`` gets a root ``collect.sweep`` trace of its own).
    The finished span is emitted to the active sink; exceptions mark
    the span ``status="error"`` and propagate unchanged.
    """
    parent = _current.get()
    if parent is None:
        ctx = SpanContext(trace_id=new_trace_id(), spanid=new_span_id())
        parent_id = ""
    else:
        ctx = SpanContext(trace_id=parent.trace_id, spanid=new_span_id())
        parent_id = parent.spanid
    current_span = Span(name, ctx, dict(attrs))
    token = _current.set(ctx)
    error: Optional[str] = None
    try:
        yield current_span
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        _current.reset(token)
        _emit(current_span, parent_id, error)


def emit_event(name: str, duration_s: float, **attrs: Any) -> None:
    """Record a synthetic child span of known duration.

    Used for derived timings (e.g. per-stage sweep profile totals) that
    were accumulated out-of-band rather than measured by a live
    :func:`span`; the event is anchored at *now - duration*.
    """
    sink = _sink.get()
    if sink is None:
        return
    parent = _current.get()
    if parent is None:
        parent_id = ""
        trace_id = new_trace_id()
    else:
        parent_id = parent.spanid
        trace_id = parent.trace_id
    event = {
        "trace": trace_id,
        "span": new_span_id(),
        "parent": parent_id,
        "name": name,
        "ts": round(time.time() - duration_s, 6),
        "dur_s": round(duration_s, 6),
        "pid": os.getpid(),
        "thread": threading.current_thread().name,
    }
    if attrs:
        event["attrs"] = {k: _plain(v) for k, v in attrs.items()}
    try:
        tracefile.append_event(sink, event)
    except OSError:  # pragma: no cover - emit must never fail the caller
        pass


def _emit(finished: Span, parent_id: str, error: Optional[str]) -> None:
    sink = _sink.get()
    if sink is None:
        return
    event = {
        "trace": finished.context.trace_id,
        "span": finished.context.spanid,
        "parent": parent_id,
        "name": finished.name,
        "ts": round(finished._started_wall, 6),
        "dur_s": round(time.perf_counter() - finished._started, 6),
        "pid": os.getpid(),
        "thread": threading.current_thread().name,
    }
    if error is not None:
        event["status"] = "error"
        event["error"] = error
    if finished.attrs:
        event["attrs"] = {k: _plain(v) for k, v in finished.attrs.items()}
    try:
        tracefile.append_event(sink, event)
    except OSError:  # pragma: no cover - emit must never fail the caller
        pass


def _plain(value: Any) -> Any:
    """Attribute values must be JSON-serializable; coerce the rest."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
