"""Standard-library HTTP server for the GUI.

The handler holds an :class:`repro.api.AdvisorSession` and delegates each
HTML route to :mod:`repro.gui.pages`; no pipeline wiring happens here.

The GUI also mounts the advisor service's JSON router (read-only) for its
data needs: ``/healthz`` answers liveness probes and every ``/api/...``
path is served by the same :class:`repro.service.router.Router` that
backs the standalone service, so the HTML pages and the JSON API can
never disagree about a deployment's data.  Non-GET methods get a proper
``405`` (the GUI is read-only; mutations belong to ``serve``).
"""

from __future__ import annotations

import html
from http.server import BaseHTTPRequestHandler, HTTPServer

from repro.api.session import AdvisorSession
from repro.errors import ReproError
from repro.gui import pages
from repro.service.router import Router, ServiceState


class AdvisorRequestHandler(BaseHTTPRequestHandler):
    """HTML routes: ``/``, ``/deployment/<name>``, ``/plots/<name>``,
    ``/advice/<name>[?sort=cost|time]``; JSON routes: ``/healthz`` and
    ``/api/v1/...`` (delegated to the shared service router)."""

    #: Injected by :func:`make_server`.
    session: AdvisorSession
    api_router: Router

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        # Match on the bare path: /healthz?probe=1 is still a health check.
        path_only = self.path.split("?", 1)[0]
        if path_only == "/healthz" or path_only.startswith("/api/"):
            self._serve_api()
            return
        try:
            body = self._route()
            self._send(200, "text/html; charset=utf-8",
                       body.encode("utf-8"))
        except ReproError as exc:
            self._error(404, str(exc))
        except Exception as exc:  # noqa: BLE001 - surface server bugs as 500s
            self._error(500, f"internal error: {exc}")

    def _send(self, status: int, content_type: str,
              payload: bytes) -> None:
        """One response, HEAD-aware (headers always, body only for GET)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    # HEAD is GET minus the body; health probes (`curl -I /healthz`)
    # must not get http.server's default 501.
    do_HEAD = do_GET  # noqa: N815  (http.server API)

    def _method_not_allowed(self) -> None:
        self._error(405, f"method {self.command} not allowed; "
                         "the GUI is read-only (GET)")

    # The GUI is read-only: every mutating method is a clean 405 instead
    # of http.server's default 501.
    do_POST = _method_not_allowed    # noqa: N815  (http.server API)
    do_PUT = _method_not_allowed     # noqa: N815
    do_DELETE = _method_not_allowed  # noqa: N815
    do_PATCH = _method_not_allowed   # noqa: N815

    def _serve_api(self) -> None:
        """Delegate to the shared service router (GET-only mount)."""
        target = self.path
        if target.startswith("/api/"):
            target = target[len("/api"):]
        response = self.api_router.handle("GET", target)
        self._send(response.status, response.content_type,
                   response.body_bytes())

    def _route(self) -> str:
        from urllib.parse import parse_qs, unquote, urlparse

        parsed = urlparse(self.path)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        if not parts:
            return pages.render_index(self.session)
        if parts[0] == "deployment" and len(parts) == 2:
            return pages.render_deployment(self.session, parts[1])
        if parts[0] == "plots" and len(parts) == 2:
            return pages.render_plots(self.session, parts[1])
        if parts[0] == "bottlenecks" and len(parts) == 2:
            return pages.render_bottlenecks(self.session, parts[1])
        if parts[0] == "advice" and len(parts) == 2:
            query = parse_qs(parsed.query)
            sort_by = query.get("sort", ["time"])[0]
            if sort_by not in ("time", "cost"):
                sort_by = "time"
            return pages.render_advice(self.session, parts[1],
                                       sort_by=sort_by)
        raise ReproError(f"no such page: {parsed.path}")

    def _error(self, code: int, message: str) -> None:
        payload = (
            f"<html><body><h1>{code}</h1><p>{html.escape(message)}</p>"
            "</body></html>"
        ).encode("utf-8")
        self._send(code, "text/html; charset=utf-8", payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep tests/CLI quiet


def make_server(session: AdvisorSession,
                host: str = "127.0.0.1", port: int = 8040) -> HTTPServer:
    """Create (but do not start) the GUI server."""
    # jobs=None: the GUI mount is read-only; job submission needs `serve`.
    router = Router(ServiceState(session=session, jobs=None))
    handler = type(
        "BoundHandler", (AdvisorRequestHandler,),
        {"session": session, "api_router": router},
    )
    return HTTPServer((host, port), handler)


def serve(session: AdvisorSession,
          host: str = "127.0.0.1", port: int = 8040,
          once: bool = False) -> int:
    server = make_server(session, host, port)
    actual_port = server.server_address[1]
    print(f"HPCAdvisor GUI on http://{host}:{actual_port}/ (Ctrl-C to stop)")
    try:
        if once:
            server.handle_request()
        else:  # pragma: no cover - interactive loop
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        server.server_close()
    return 0
