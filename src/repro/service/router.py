"""The advisor service's HTTP-agnostic JSON router.

:class:`Router` maps ``(method, path, query, body)`` to a
:class:`Response` without touching sockets, so the same routing table
serves the standalone JSON API server (:mod:`repro.service.app`), the
GUI's ``/api`` mount (:mod:`repro.gui.server`), and direct in-process
tests.  All payloads are the frozen request/result dataclasses from
:mod:`repro.api` serialized through :mod:`repro.api.serde` — the wire
types cannot drift from the facade because they *are* the facade's
types.

Routes (see ``docs/SERVICE.md`` for the full contract)::

    GET    /healthz
    GET    /metrics
    GET    /v1/deployments          POST   /v1/deployments
    GET    /v1/deployments/<name>   DELETE /v1/deployments/<name>
    GET    /v1/datapoints
    GET    /v1/advice               POST   /v1/advice
    GET    /v1/predict              POST   /v1/predict
    GET    /v1/compare
    POST   /v1/plots
    POST   /v1/jobs/collect         POST   /v1/jobs/predict
    GET    /v1/jobs                 GET    /v1/jobs/<id>
    POST   /v1/jobs/<id>/cancel     DELETE /v1/jobs/<id>

The listing routes (``/v1/deployments``, ``/v1/jobs``,
``/v1/datapoints``) paginate with ``limit``/``offset`` query
parameters and report the unwindowed ``total`` alongside the page;
``/v1/datapoints`` additionally accepts the full
:class:`~repro.core.query.Query` filter vocabulary and pushes it down
to the deployment's storage engine.
"""

from __future__ import annotations

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


@dataclass
class Response:
    """One handled request, before any socket-level encoding."""

    status: int = 200
    payload: Any = None  # dict/list -> JSON; str -> verbatim text
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        if isinstance(self.payload, str):
            return self.payload.encode("utf-8")
        return json.dumps(self.payload, indent=1).encode("utf-8")


@dataclass
class ServiceState:
    """Everything the router needs: the shared session, jobs, metrics.

    The session is the *control plane* (deploy/advise/listings) and is
    guarded by ``lock``; job execution runs on per-job sessions inside
    the :class:`~repro.fleet.manager.FleetJobManager`, so a slow sweep
    never blocks an advice request.  ``jobs`` may be ``None`` (e.g. the
    GUI's read-only mount), in which case job routes answer 503.
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

    def _match(self, route: str) -> str:
        self._local.route = route
        return route

    # -- routing table -----------------------------------------------------------

    def _dispatch(self, method: str, parts: List[str],
                  query: Dict[str, List[str]], body: Optional[str]):
        if parts == ["healthz"]:
            self._match("/healthz")
            return self._only(method, "GET", self._healthz)
        if parts == ["metrics"]:
            self._match("/metrics")
            return self._only(method, "GET", self._metrics)
        if not parts or parts[0] != "v1":
            raise ResourceNotFound(f"no such route: /{'/'.join(parts)}")
        rest = parts[1:]
        if rest == ["deployments"]:
            self._match("/v1/deployments")
            if method == "GET":
                return self._list_deployments(query)
            if method == "POST":
                return self._create_deployment(body)
            return _method_not_allowed(method, ("GET", "POST"))
        if len(rest) == 2 and rest[0] == "deployments":
            self._match("/v1/deployments/<name>")
            if method == "GET":
                return self._get_deployment(rest[1])
            if method == "DELETE":
                return self._shutdown_deployment(rest[1], query)
            return _method_not_allowed(method, ("GET", "DELETE"))
        if rest == ["datapoints"]:
            self._match("/v1/datapoints")
            return self._only(
                method, "GET",
                lambda: self._maybe_cached(
                    "/v1/datapoints", query,
                    lambda: self._datapoints(query)))
        if rest == ["advice"]:
            self._match("/v1/advice")
            if method == "GET":
                return self._maybe_cached(
                    "/v1/advice", query,
                    lambda: self._advice(method, query, body))
            if method == "POST":
                return self._advice(method, query, body)
            return _method_not_allowed(method, ("GET", "POST"))
        if rest == ["predict"]:
            self._match("/v1/predict")
            if method in ("GET", "POST"):
                return self._predict(method, query, body)
            return _method_not_allowed(method, ("GET", "POST"))
        if rest == ["compare"]:
            self._match("/v1/compare")
            return self._only(method, "GET", lambda: self._compare(query))
        if rest == ["plots"]:
            self._match("/v1/plots")
            return self._only(method, "POST", lambda: self._plots(body),
                              allowed=("POST",))
        if rest and rest[0] == "jobs":
            return self._dispatch_jobs(method, rest[1:], query, body)
        raise ResourceNotFound(f"no such route: /v1/{'/'.join(rest)}")

    def _dispatch_jobs(self, method: str, rest: List[str],
                       query: Dict[str, List[str]], body: Optional[str]):
        if rest in (["collect"], ["predict"]):
            self._match(f"/v1/jobs/{rest[0]}")
            return self._only(
                method, "POST",
                lambda: self._submit_job(rest[0], body), allowed=("POST",))
        if not rest:
            self._match("/v1/jobs")
            return self._only(method, "GET", lambda: self._list_jobs(query))
        if len(rest) == 1:
            self._match("/v1/jobs/<id>")
            jobs = self._jobs()
            if method == "GET":
                return Response(payload=jobs.get(rest[0]).to_dict())
            if method == "DELETE":
                return Response(payload=jobs.cancel(rest[0]).to_dict())
            return _method_not_allowed(method, ("GET", "DELETE"))
        if len(rest) == 2 and rest[1] == "cancel":
            self._match("/v1/jobs/<id>/cancel")
            return self._only(
                method, "POST",
                lambda: Response(
                    payload=self._jobs().cancel(rest[0]).to_dict()),
                allowed=("POST",))
        raise ResourceNotFound(f"no such route: /v1/jobs/{'/'.join(rest)}")

    def _jobs(self) -> "FleetJobManager":
        if self.state.jobs is None:
            raise ServiceError(
                "this server has no job manager (read-only API mount)"
            )
        return self.state.jobs

    @staticmethod
    def _only(method: str, expected: str, handler, allowed=None) -> Response:
        if method != expected:
            return _method_not_allowed(method, allowed or (expected,))
        return handler()

    # -- response caching --------------------------------------------------------

    def _maybe_cached(self, route: str, query: Dict[str, List[str]],
                      compute) -> Response:
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
            if session.store is None:
                return compute()
            if not session.store.data_files(deployment):
                signature: Any = ("no-data",)
            else:
                signature = session.data_store(
                    deployment).dataset_signature()
        key = make_key(route, deployment,
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

    def _healthz(self) -> Response:
        payload = {
            "status": "ok",
            "api": API_VERSION,
            "uptime_s": round(time.time() - self.state.started_at, 3),
        }
        if self.state.jobs is not None:
            payload["jobs"] = self.state.jobs.counts()
            payload["fleet"] = self.state.jobs.fleet_health()
        return Response(payload=payload)

    def _metrics(self) -> Response:
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

    def _list_deployments(self, query: Dict[str, List[str]]) -> Response:
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

    def _create_deployment(self, body: Optional[str]) -> Response:
        data = _json_body(body)
        config = data.get("config")
        if not isinstance(config, dict):
            raise ConfigError(
                'POST /v1/deployments expects {"config": {...}}'
            )
        with self.state.lock:
            info = self.state.session.deploy(config)
        return Response(status=201, payload=info.to_dict())

    def _get_deployment(self, name: str) -> Response:
        with self.state.lock:
            info = self.state.session.info(name)
        return Response(payload=info.to_dict())

    def _datapoints(self, query: Dict[str, List[str]]) -> Response:
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

    def _shutdown_deployment(self, name: str,
                             query: Dict[str, List[str]]) -> Response:
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

    def _advice(self, method: str, query: Dict[str, List[str]],
                body: Optional[str]) -> Response:
        if method == "POST":
            request = AdviseRequest.from_dict(_json_body(body))
        else:
            request = AdviseRequest(
                deployment=_one(query, "deployment"),
                appname=_one(query, "appname") or None,
                filters=_filters(query),
                nnodes=_nnodes(query),
                sku=_one(query, "sku") or None,
                sort_by=_one(query, "sort") or "time",
                max_rows=_int_or_none(_one(query, "max_rows")),
                capacity=_one(query, "capacity"),
                recovery=_one(query, "recovery") or "checkpoint_restart",
                eviction_rate=_float_or_none(_one(query, "eviction_rate")),
                checkpoint_interval_s=_float_or_default(
                    _one(query, "checkpoint_interval"), 600.0),
                checkpoint_overhead_s=_float_or_default(
                    _one(query, "checkpoint_overhead"), 60.0),
                engine=_one(query, "engine") or "auto",
            )
        with self.state.lock:
            result = self.state.session.advise(request)
        return Response(payload=result.to_dict())

    def _predict(self, method: str, query: Dict[str, List[str]],
                 body: Optional[str]) -> Response:
        if method == "POST":
            request = PredictRequest.from_dict(_json_body(body))
        else:
            request = PredictRequest(
                deployment=_one(query, "deployment"),
                inputs=_filters(query, key="input"),
                nnodes=_nnodes(query),
                model=_one(query, "model") or "ridge",
            )
        with self.state.lock:
            result = self.state.session.predict(request)
        return Response(payload=result.to_dict())

    def _compare(self, query: Dict[str, List[str]]) -> Response:
        name_a, name_b = _one(query, "a"), _one(query, "b")
        if not name_a or not name_b:
            raise ConfigError("GET /v1/compare needs ?a=<name>&b=<name>")
        with self.state.lock:
            comparison = self.state.session.compare(name_a, name_b)
        return Response(payload=CompareResult.from_comparison(
            comparison, deployment_a=name_a, deployment_b=name_b,
        ).to_dict())

    def _plots(self, body: Optional[str]) -> Response:
        request = PlotRequest.from_dict(_json_body(body))
        with self.state.lock:
            result = self.state.session.plot(request)
        return Response(payload=result.to_dict())

    def _submit_job(self, kind: str, body: Optional[str]) -> Response:
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
                store = getattr(self.state.session, "store", None)
                if store is not None:
                    # Route this request's spans (http.request included —
                    # the sink is read when the span *closes*) to the
                    # deployment's trace ring.
                    telemetry.set_sink(store.traces_path(str(deployment)))
            # The serialized span context rides on the job record, so
            # whichever worker thread/process claims the job continues
            # this trace.
            record = jobs.submit(kind, data,
                                 trace=telemetry.current_traceparent())
        return Response(status=202, payload=record.to_dict())

    def _list_jobs(self, query: Dict[str, List[str]]) -> Response:
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


def _float_or_default(raw: str, default: float) -> float:
    value = _float_or_none(raw)
    return default if value is None else value


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
