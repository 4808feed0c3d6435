"""Request metrics for the advisor service.

Built on :class:`repro.telemetry.MetricsRegistry`: every handled
request is observed as ``(method, route, status, seconds)`` where
``route`` is the *normalized* pattern (``/v1/jobs/<id>``, not
``/v1/jobs/job-1234``) so cardinality stays bounded.  ``GET /metrics``
renders, in order:

* this instance's HTTP families — ``advisor_http_requests_total``,
  ``advisor_http_connections_total`` (accepted TCP connections: far
  fewer than requests when clients reuse their connections),
  the ``advisor_http_request_seconds`` latency histogram (whose
  ``_sum`` series keeps the historical
  ``advisor_http_request_seconds_sum`` name), and the
  ``advisor_http_request_seconds_max`` high-water gauge;
* the caller's extra gauges (uptime, job counts, fleet health), whose
  keys may carry pre-formatted — already escaped — label sets;
* the process-global telemetry registry (store op timings, fleet
  queue/claim counters, engine selection, cache hit/miss).

Label values are escaped per the Prometheus text format, so a route or
worker id containing ``"`` or ``\\`` still renders parseable lines.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry import MetricsRegistry, global_registry


class Metrics:
    """Thread-safe HTTP request counters and latency distributions."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "advisor_http_requests_total",
            "Requests handled, by method/route/status.",
        )
        self._latency = self.registry.histogram(
            "advisor_http_request_seconds",
            "Request latency distribution, by method/route/status.",
        )
        self._latency_max = self.registry.gauge(
            "advisor_http_request_seconds_max",
            "Slowest observed request, by method/route/status.",
        )
        self._connections = self.registry.counter(
            "advisor_http_connections_total",
            "TCP connections accepted (requests per connection shows "
            "whether clients reuse them).",
        ).labels()

    def observe_connection(self) -> None:
        self._connections.inc()

    def observe(self, method: str, route: str, status: int,
                seconds: float) -> None:
        labels = {"method": method, "route": route, "status": int(status)}
        self._requests.inc(**labels)
        self._latency.observe(seconds, **labels)
        self._latency_max.set_max(seconds, **labels)

    def render_prometheus(
            self, extra_gauges: Optional[Dict[str, float]] = None) -> str:
        """The Prometheus text format for /metrics."""
        lines = self.registry.render()
        typed = set()
        for name, value in sorted((extra_gauges or {}).items()):
            # Gauge keys may carry label sets (`name{a="b"}`, values
            # pre-escaped by the caller); the TYPE header names the
            # bare metric, once per family.
            base = name.split("{", 1)[0]
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} gauge")
            lines.append(f"{name} {value}")
        lines.extend(global_registry().render())
        return "\n".join(lines) + "\n"
