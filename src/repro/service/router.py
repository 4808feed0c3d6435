"""The advisor service's HTTP-agnostic router.

:class:`Router` maps ``(method, path, query, body)`` to a
:class:`Response` without touching sockets, so one routing table
serves every HTTP server (:mod:`repro.service.app`: ``serve``, ``gui``
and each ``fleet serve`` worker) and direct in-process tests.  All JSON
payloads are the frozen request/result dataclasses from
:mod:`repro.api` serialized through :mod:`repro.api.serde` — the wire
types cannot drift from the facade because they *are* the facade's
types.  The GUI's pages are HTML renderings (:mod:`repro.gui.pages`) of
the same session.

The routes are one table, :attr:`Router.ROUTES` (``docs/SERVICE.md``
lists the same entries with their payloads): each entry is a route
label and its handler per HTTP method, so a route's methods, the
``allowed`` list of its 405 and its ``/metrics`` label are spelled once.

Every route also answers under an ``/api`` prefix (``/api/v1/advice``).
The listing routes (``/v1/deployments``, ``/v1/jobs``,
``/v1/datapoints``) paginate with ``limit``/``offset`` query
parameters and report the unwindowed ``total`` alongside the page;
``/v1/datapoints`` additionally accepts the full
:class:`~repro.core.query.Query` filter vocabulary and pushes it down
to the deployment's storage engine.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional
from urllib.parse import parse_qs, unquote, urlparse

from repro.api.requests import AdviseRequest, PlotRequest, PredictRequest
from repro.api.results import CompareResult
from repro.api.session import AdvisorSession
from repro.core.query import Query
from repro.errors import (
    ConfigError,
    JobNotFound,
    JobStateError,
    ReproError,
    ResourceNotFound,
    ServiceError,
)
from repro.fleet.cache import ResponseCache, make_key
from repro.gui import pages
from repro.service.metrics import Metrics
from repro import telemetry

if TYPE_CHECKING:  # pragma: no cover
    # repro.fleet.manager imports repro.service (the job record types);
    # build_state imports it lazily for the same reason.
    from repro.fleet.manager import FleetJobManager

#: Service protocol version, reported by /healthz.
API_VERSION = "v1"

#: Page size served by GET /v1/datapoints when the client sends no
#: ``limit`` — an unbounded default would re-create the very
#: full-corpus transfers the store pushdown exists to avoid.
DATAPOINTS_DEFAULT_LIMIT = 500

_HTML = "text/html; charset=utf-8"

#: A handler's parsed query string and request body.
_Query = Dict[str, List[str]]
_Body = Optional[str]


@dataclass
class Response:
    """One handled request, before any socket-level encoding."""

    status: int = 200
    payload: Any = None  # dict/list -> JSON; str -> verbatim text
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        """The body on the wire: a str payload verbatim, anything else
        as compact JSON (one line; indenting would force the json
        module's pure-Python encoder)."""
        if isinstance(self.payload, str):
            return self.payload.encode("utf-8")
        return json.dumps(self.payload, separators=(",", ":")).encode("utf-8")


@dataclass
class ServiceState:
    """Everything the router needs: the shared session, jobs, metrics.

    The session is the *control plane* (deploy/advise/listings) and is
    guarded by ``lock``; job execution runs on per-job sessions inside
    the :class:`~repro.fleet.manager.FleetJobManager`, so a slow sweep
    never blocks an advice request.  ``jobs`` may be ``None`` (the
    GUI's state): such a state is read-only, every method but GET and
    HEAD answers 405, and the job routes answer 503.
    """

    session: AdvisorSession
    jobs: Optional["FleetJobManager"] = None
    metrics: Metrics = field(default_factory=Metrics)
    started_at: float = field(default_factory=time.time)
    #: Optional generation-keyed response cache for the hot GET reads
    #: (``/v1/advice``, ``/v1/datapoints``); ``None`` disables caching.
    cache: Optional[ResponseCache] = None

    def __post_init__(self) -> None:
        self.lock = threading.RLock()

    def close(self, wait: bool = True) -> None:
        if self.jobs is not None:
            self.jobs.close(wait=wait)


# -- handler wrappers ------------------------------------------------------------


def _page_handler(render):
    """The handler of a page route: ``render`` the session's view of the
    route's ``<name>`` (the index has none) as an HTML page."""
    def handler(router: "Router", query: _Query, body: _Body,
                *name: str) -> Response:
        return router._render(render, *name)
    return handler


def _cached(handler):
    """``handler`` served through the response cache
    (:meth:`Router._maybe_cached`)."""
    def cached(router: "Router", query: _Query, body: _Body) -> Response:
        return router._maybe_cached(
            query, lambda: handler(router, query, body))
    return cached


class Router:
    """Dispatch requests against a :class:`ServiceState` (module docstring)."""

    def __init__(self, state: ServiceState) -> None:
        self.state = state
        # The matched-route label lives in thread-local storage: one Router
        # serves every connection thread of the ThreadingHTTPServer.
        self._local = threading.local()

    # -- entry point -------------------------------------------------------------

    def handle(self, method: str, target: str,
               body: Optional[str] = None,
               headers: Optional[Any] = None) -> Response:
        """Serve one request; never raises (errors become JSON bodies).

        ``headers`` is any mapping with a ``.get`` (a plain dict or the
        stdlib's ``email.message.Message``); the router only reads
        conditional-request headers (``If-None-Match``) from it.
        """
        method = method.upper()
        parsed = urlparse(target)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        started = time.perf_counter()
        self._local.if_none_match = (
            headers.get("If-None-Match") if headers is not None else None
        )
        # The dispatcher records the matched pattern here *before* running
        # the handler, so errors raised mid-handler still get a bounded
        # route label in the metrics (not the raw path).
        self._local.route = "<unmatched>"
        # Adopt the caller's trace context (W3C traceparent), and fence
        # both trace vars: a handler may retarget the span sink to its
        # deployment's trace file mid-request, and connection threads
        # can serve more than one request.
        incoming = telemetry.parse_traceparent(
            headers.get(telemetry.TRACEPARENT_HEADER)
            if headers is not None else None
        )
        trace_token = telemetry.activate(incoming)
        sink_token = telemetry.set_sink(telemetry.current_sink())
        try:
            with telemetry.span("http.request", method=method) as http_span:
                try:
                    response = self._dispatch(method, parts, query, body)
                except ConfigError as exc:
                    response = _error(400, exc)
                except (ResourceNotFound, JobNotFound) as exc:
                    response = _error(404, exc)
                except JobStateError as exc:
                    response = _error(409, exc)
                except ServiceError as exc:
                    response = _error(503, exc)
                except ReproError as exc:
                    response = _error(422, exc)
                except Exception as exc:  # noqa: BLE001 - bugs become 500s
                    response = _error(500, exc)
                http_span.set("route", self._local.route)
                http_span.set("status", response.status)
        finally:
            telemetry.reset_sink(sink_token)
            telemetry.deactivate(trace_token)
        self.state.metrics.observe(
            method, self._local.route, response.status,
            time.perf_counter() - started,
        )
        return response

    # -- routing table -----------------------------------------------------------

    def _dispatch(self, method: str, parts: List[str],
                  query: Dict[str, List[str]], body: Optional[str]):
        if self.state.jobs is None and method not in ("GET", "HEAD"):
            # A job-less state (the GUI's) serves reads only.
            return _method_not_allowed(method, ("GET", "HEAD"))
        if parts[:1] == ["api"]:
            parts = parts[1:]
        key = tuple(parts)
        found = _EXACT.get(key) or _capture(_PATTERNS, key)
        if found is None:
            raise ResourceNotFound(f"no such route: /{'/'.join(parts)}")
        label, handlers, segments = found
        self._local.route = label
        handler = handlers.get(method)
        if handler is None:
            return _method_not_allowed(method, handlers)
        return handler(self, query, body, *segments)

    def _render(self, render, *args, **kwargs) -> Response:
        """One HTML page, ``render(session, *args, **kwargs)``; its errors
        are HTML pages too."""
        try:
            with self.state.lock:
                text = render(self.state.session, *args, **kwargs)
        except ReproError as exc:
            return Response(404, pages.render_error(404, str(exc)), _HTML)
        except Exception as exc:  # noqa: BLE001 - bugs become 500s
            return Response(500, pages.render_error(
                500, f"internal error: {exc}"), _HTML)
        return Response(payload=text, content_type=_HTML)

    def _jobs(self) -> "FleetJobManager":
        if self.state.jobs is None:
            raise ServiceError(
                "this server has no job manager (read-only server)"
            )
        return self.state.jobs

    # -- response caching --------------------------------------------------------

    def _maybe_cached(self, query: _Query, compute) -> Response:
        """Serve a hot GET read through the generation-keyed cache.

        The cache key bundles the deployment's dataset signature, so any
        write to its data produces a new key — no invalidation protocol.
        A client replaying the request with ``If-None-Match`` gets a
        ``304`` without recomputing (or even holding) the body, because
        a matching tag proves the inputs are byte-identical.
        """
        cache = self.state.cache
        deployment = _one(query, "deployment")
        if cache is None or not deployment:
            return compute()
        with self.state.lock:
            session = self.state.session
            # Unknown deployments must keep 404-ing (and a bogus name
            # must not create an empty data store as a side effect).
            session.record(deployment)
            if not session.store.data_files(deployment):
                signature: Any = ("no-data",)
            else:
                signature = session.data_store(
                    deployment).dataset_signature()
        key = make_key(self._local.route, deployment,
                       {k: ",".join(vs) for k, vs in query.items()},
                       signature)
        etag = ResponseCache.etag_for(key)
        body = cache.get(key)
        if _etag_matches(getattr(self._local, "if_none_match", None), etag):
            return Response(status=304, payload="", headers={"ETag": etag})
        if body is not None:
            # loads() per hit keeps entries immutable (every caller gets
            # a fresh copy) and still skips the expensive advisor math.
            return Response(payload=json.loads(body),
                            headers={"ETag": etag})
        response = compute()
        if response.status == 200:
            cache.put(key, json.dumps(response.payload))
            response.headers["ETag"] = etag
        return response

    # -- handlers ----------------------------------------------------------------

    def _healthz(self, query: _Query, body: _Body) -> Response:
        payload = {
            "status": "ok",
            "api": API_VERSION,
            "uptime_s": round(time.time() - self.state.started_at, 3),
        }
        if self.state.jobs is not None:
            payload["jobs"] = self.state.jobs.counts()
            payload["fleet"] = self.state.jobs.fleet_health()
        return Response(payload=payload)

    def _metrics(self, query: _Query, body: _Body) -> Response:
        gauges = {
            "advisor_uptime_seconds":
                round(time.time() - self.state.started_at, 3),
        }
        if self.state.jobs is not None:
            for state, count in self.state.jobs.counts().items():
                gauges[f"advisor_jobs_{state}"] = count
            health = self.state.jobs.fleet_health()
            gauges[telemetry.format_series(
                "advisor_fleet_worker_up",
                worker_id=health["worker_id"], pid=os.getpid())] = 1
            gauges["advisor_fleet_live_workers"] = len(health["workers"])
            gauges["advisor_fleet_queue_depth"] = health["queue_depth"]
            for peer in health["workers"]:
                gauges[telemetry.format_series(
                    "advisor_fleet_worker_heartbeat_age_seconds",
                    worker_id=peer["worker_id"])] = \
                    round(peer.get("heartbeat_age_s", 0.0), 3)
        if self.state.cache is not None:
            for name, value in self.state.cache.stats().items():
                gauges[f"advisor_response_cache_{name}"] = value
        return Response(
            payload=self.state.metrics.render_prometheus(gauges),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _list_deployments(self, query: _Query, body: _Body) -> Response:
        limit = _nonneg_or_none(_one(query, "limit"))
        offset = _nonneg_or_none(_one(query, "offset")) or 0
        with self.state.lock:
            total = self.state.session.count_deployments()
            infos = self.state.session.list_deployments(
                limit=limit, offset=offset
            )
        return Response(payload={
            "deployments": [info.to_dict() for info in infos],
            "total": total,
            "limit": limit,
            "offset": offset,
        })

    def _create_deployment(self, query: _Query, body: _Body) -> Response:
        data = _json_body(body)
        config = data.get("config")
        if not isinstance(config, dict):
            raise ConfigError(
                'POST /v1/deployments expects {"config": {...}}'
            )
        with self.state.lock:
            info = self.state.session.deploy(config)
        return Response(status=201, payload=info.to_dict())

    def _get_deployment(self, query: _Query, body: _Body,
                        name: str) -> Response:
        with self.state.lock:
            info = self.state.session.info(name)
        return Response(payload=info.to_dict())

    def _datapoints(self, query: _Query, body: _Body) -> Response:
        deployment = _one(query, "deployment")
        if not deployment:
            raise ConfigError("GET /v1/datapoints needs ?deployment=<name>")
        predicted = _one(query, "predicted").lower()
        data_query = Query(
            appname=_one(query, "appname") or None,
            sku=_one(query, "sku") or None,
            nnodes=_nnodes(query),
            ppn=_int_or_none(_one(query, "ppn")),
            min_nodes=_int_or_none(_one(query, "min_nodes")),
            max_nodes=_int_or_none(_one(query, "max_nodes")),
            capacity=_one(query, "capacity") or None,
            appinputs=_filters(query),
            tags=_filters(query, key="tag"),
            include_predicted=predicted not in ("false", "0", "no"),
            # Listings default to a bounded page; limit=0 is a pure count.
            limit=(_int_or_none(_one(query, "limit"))
                   if _one(query, "limit")
                   else DATAPOINTS_DEFAULT_LIMIT),
            offset=_int_or_none(_one(query, "offset")) or 0,
        )
        with self.state.lock:
            result = self.state.session.datapoints(deployment, data_query)
        return Response(payload=result.to_dict())

    def _shutdown_deployment(self, query: _Query, body: _Body,
                             name: str) -> Response:
        # Refuse while jobs are live on the deployment: letting shutdown
        # (and a subsequent name-recycling deploy) proceed would block
        # the global session lock on the sweep's file locks, freezing
        # every /v1 route until the sweep ends.  Guard and shutdown sit
        # under state.lock, which _submit_job also holds while it
        # validates + registers — so either the guard sees the job, or
        # the submit sees the deployment already gone (404).
        with self.state.lock:
            if self.state.jobs is not None:
                active = [r for r in self.state.jobs.list(deployment=name)
                          if not r.finished]
                if active:
                    raise JobStateError(
                        f"deployment {name} has {len(active)} active "
                        f"job(s) ({', '.join(r.id for r in active)}); "
                        "cancel or wait for them first"
                    )
            purge = _one(query, "purge_data").lower() in ("true", "1", "yes")
            self.state.session.shutdown(name, purge_data=purge)
        return Response(payload={
            "deployment": name,
            "status": "shutdown",
            "purged_data": purge,
        })

    def _advise_get(self, query: _Query, body: _Body) -> Response:
        return self._advise(AdviseRequest(**_given(
            deployment=_one(query, "deployment"),
            appname=_one(query, "appname"),
            filters=_filters(query),
            nnodes=_nnodes(query),
            sku=_one(query, "sku"),
            sort_by=_one(query, "sort"),
            max_rows=_int_or_none(_one(query, "max_rows")),
            capacity=_one(query, "capacity"),
            recovery=_one(query, "recovery"),
            eviction_rate=_float_or_none(_one(query, "eviction_rate")),
            checkpoint_interval_s=_float_or_none(
                _one(query, "checkpoint_interval")),
            checkpoint_overhead_s=_float_or_none(
                _one(query, "checkpoint_overhead")),
            engine=_one(query, "engine"),
        )))

    def _advise_post(self, query: _Query, body: _Body) -> Response:
        return self._advise(AdviseRequest.from_dict(_json_body(body)))

    def _advise(self, request: AdviseRequest) -> Response:
        with self.state.lock:
            result = self.state.session.advise(request)
        return Response(payload=result.to_dict())

    def _predict_get(self, query: _Query, body: _Body) -> Response:
        return self._predict(PredictRequest(**_given(
            deployment=_one(query, "deployment"),
            inputs=_filters(query, key="input"),
            nnodes=_nnodes(query),
            model=_one(query, "model"),
        )))

    def _predict_post(self, query: _Query, body: _Body) -> Response:
        return self._predict(PredictRequest.from_dict(_json_body(body)))

    def _predict(self, request: PredictRequest) -> Response:
        with self.state.lock:
            result = self.state.session.predict(request)
        return Response(payload=result.to_dict())

    def _compare(self, query: _Query, body: _Body) -> Response:
        name_a, name_b = _one(query, "a"), _one(query, "b")
        if not name_a or not name_b:
            raise ConfigError("GET /v1/compare needs ?a=<name>&b=<name>")
        with self.state.lock:
            comparison = self.state.session.compare(name_a, name_b)
        return Response(payload=CompareResult.from_comparison(
            comparison, deployment_a=name_a, deployment_b=name_b,
        ).to_dict())

    def _plots(self, query: _Query, body: _Body) -> Response:
        request = PlotRequest.from_dict(_json_body(body))
        with self.state.lock:
            result = self.state.session.plot(request)
        return Response(payload=result.to_dict())

    def _submit_job(self, query: _Query, body: _Body, kind: str) -> Response:
        jobs = self._jobs()
        data = _json_body(body)
        with self.state.lock:
            # Validate the deployment exists *and* register the job under
            # the same lock _shutdown_deployment holds: a submit and a
            # shutdown can interleave in either order, but never miss
            # each other (no job ever sweeps a shut-down deployment).
            deployment = data.get("deployment")
            if deployment:
                self.state.session.record(str(deployment))  # 404 if gone
                # Route this request's spans (http.request included —
                # the sink is read when the span *closes*) to the
                # deployment's trace ring.
                telemetry.set_sink(
                    self.state.session.store.traces_path(str(deployment)))
            # The serialized span context rides on the job record, so
            # whichever worker thread/process claims the job continues
            # this trace.
            record = jobs.submit(kind, data,
                                 trace=telemetry.current_traceparent())
        return Response(status=202, payload=record.to_dict())

    def _list_jobs(self, query: _Query, body: _Body) -> Response:
        limit = _nonneg_or_none(_one(query, "limit"))
        offset = _nonneg_or_none(_one(query, "offset")) or 0
        records = self._jobs().list(
            deployment=_one(query, "deployment") or None,
            state=_one(query, "state") or None,
        )
        total = len(records)
        if offset:
            records = records[offset:]
        if limit is not None:
            records = records[:limit]
        return Response(payload={
            "jobs": [record.to_dict() for record in records],
            "total": total,
            "limit": limit,
            "offset": offset,
        })

    def _get_job(self, query: _Query, body: _Body, job_id: str) -> Response:
        return Response(payload=self._jobs().get(job_id).to_dict())

    def _cancel_job(self, query: _Query, body: _Body,
                    job_id: str) -> Response:
        return Response(payload=self._jobs().cancel(job_id).to_dict())

    def _advice_page(self, query: _Query, body: _Body,
                     name: str) -> Response:
        sort_by = "cost" if _one(query, "sort") == "cost" else "time"
        return self._render(pages.render_advice, name, sort_by=sort_by)

    #: The routing table: each entry is a route label and its handler per
    #: method, the methods in the order a 405's ``allowed`` list names
    #: them.  The label is the route's ``/metrics`` label, and each
    #: ``<...>`` in it matches one path segment: a handler is called as
    #: ``handler(router, query, body, *segments)``.  The first entry that
    #: matches a path serves it.
    ROUTES = (
        ("/", {"GET": _page_handler(pages.render_index)}),
        ("/deployment/<name>",
         {"GET": _page_handler(pages.render_deployment)}),
        ("/plots/<name>", {"GET": _page_handler(pages.render_plots)}),
        ("/bottlenecks/<name>",
         {"GET": _page_handler(pages.render_bottlenecks)}),
        ("/advice/<name>", {"GET": _advice_page}),
        ("/healthz", {"GET": _healthz}),
        ("/metrics", {"GET": _metrics}),
        ("/v1/deployments",
         {"GET": _list_deployments, "POST": _create_deployment}),
        ("/v1/deployments/<name>",
         {"GET": _get_deployment, "DELETE": _shutdown_deployment}),
        ("/v1/datapoints", {"GET": _cached(_datapoints)}),
        ("/v1/advice", {"GET": _cached(_advise_get), "POST": _advise_post}),
        ("/v1/predict", {"GET": _predict_get, "POST": _predict_post}),
        ("/v1/compare", {"GET": _compare}),
        ("/v1/plots", {"POST": _plots}),
        ("/v1/jobs/collect",
         {"POST": functools.partial(_submit_job, kind="collect")}),
        ("/v1/jobs/predict",
         {"POST": functools.partial(_submit_job, kind="predict")}),
        ("/v1/jobs", {"GET": _list_jobs}),
        ("/v1/jobs/<id>", {"GET": _get_job, "DELETE": _cancel_job}),
        ("/v1/jobs/<id>/cancel", {"POST": _cancel_job}),
    )


def _index(routes) -> tuple:
    """Index ``routes``: literal paths by their segments, patterns (with
    ``None`` for each ``<...>``) by their segment count.  Looking literal
    paths up first keeps the first-match rule as long as no pattern
    precedes a literal path it matches, so such an entry is refused."""
    exact: Dict[tuple, tuple] = {}
    patterns: Dict[int, List[tuple]] = {}
    for label, handlers in routes:
        segments = tuple(None if seg.startswith("<") else seg
                         for seg in label.split("/") if seg)
        if None in segments:
            patterns.setdefault(len(segments), []).append(
                (segments, label, handlers))
        elif segments in exact or _capture(patterns, segments):
            raise ValueError(f"route {label} is shadowed by an earlier entry")
        else:
            exact[segments] = (label, handlers, ())
    return exact, patterns


def _capture(patterns, parts: tuple) -> Optional[tuple]:
    """The first pattern matching ``parts``, as ``(label, handlers,
    captured segments)``, or ``None``."""
    for segments, label, handlers in patterns.get(len(parts), ()):
        captured = []
        for want, got in zip(segments, parts):
            if want is None:
                captured.append(got)
            elif want != got:
                break
        else:
            return label, handlers, captured
    return None


_EXACT, _PATTERNS = _index(Router.ROUTES)


# -- small helpers ---------------------------------------------------------------


def _error(status: int, exc: BaseException) -> Response:
    return Response(status=status, payload={
        "error": str(exc) or type(exc).__name__,
        "type": type(exc).__name__,
    })


def _etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """RFC 9110 If-None-Match: a (possibly weak-prefixed) tag list or *."""
    if not if_none_match:
        return False
    candidates = [tag.strip() for tag in if_none_match.split(",")]
    if "*" in candidates:
        return True
    return etag in candidates or f"W/{etag}" in candidates


def _method_not_allowed(method: str, allowed) -> Response:
    return Response(status=405, payload={
        "error": f"method {method} not allowed; use {' or '.join(allowed)}",
        "type": "MethodNotAllowed",
        "allowed": list(allowed),
    })


def _json_body(body: Optional[str]) -> Dict[str, Any]:
    if not body:
        raise ConfigError("request needs a JSON body")
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise ConfigError(f"invalid JSON body: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON body must be an object")
    return data


def _one(query: Dict[str, List[str]], key: str) -> str:
    values = query.get(key)
    return values[0] if values else ""


def _int_or_none(raw: str) -> Optional[int]:
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _nonneg_or_none(raw: str) -> Optional[int]:
    value = _int_or_none(raw)
    if value is not None and value < 0:
        raise ConfigError(f"expected a non-negative integer, got {raw!r}")
    return value


def _float_or_none(raw: str) -> Optional[float]:
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def _given(**fields: Any) -> Dict[str, Any]:
    """The request fields a GET query carries: a parameter it lacks (or
    sends empty) parses to ``""``, ``None`` or an empty collection and
    is left out, so the request dataclass's defaults are the only ones."""
    return {name: value for name, value in fields.items()
            if value not in ("", None, {}, ())}


def _nnodes(query: Dict[str, List[str]]) -> tuple:
    out = []
    for chunk in query.get("nnodes", []):
        for item in chunk.split(","):
            item = item.strip()
            if item:
                out.append(_int_or_none(item))
    return tuple(out)


def _filters(query: Dict[str, List[str]], key: str = "filter") -> Dict[str, str]:
    from repro.api.serde import parse_key_values

    return parse_key_values(query.get(key, []), label=key)
