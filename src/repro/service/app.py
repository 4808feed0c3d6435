"""The advisor's one HTTP server: a threaded stdlib server.

Socket handling only — every request is delegated to the shared
:class:`repro.service.router.Router`, whose routing table holds the JSON
API and the GUI's HTML pages: ``serve``, ``gui`` (over a job-less,
read-only :class:`ServiceState`) and every ``fleet serve`` worker run
this server.  ``ThreadingHTTPServer`` gives one thread per connection,
so advice/listing calls and page renders stay responsive while the
fleet job manager's workers grind through collect sweeps in the
background.  Connections stay open between requests (HTTP/1.1), with
Nagle's algorithm off: an answer's headers and body are two sends, and
with Nagle on the second waited ~40 ms for the client's delayed ACK on
a kept-open connection.

Programmatic use (tests, examples)::

    server = make_server(state_dir, port=0)       # ephemeral port
    threading.Thread(target=server.serve_forever, daemon=True).start()
    ...
    server.shutdown(); server.server_close()
    server.state.close()                          # stop job workers
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set

from repro.api.session import AdvisorSession
from repro.core.statefiles import StateStore, resolve_state_dir
from repro.service.router import Router, ServiceState

#: Environment knob: set to 0/false/no to disable the response cache
#: (the load benchmark uses it to measure the uncached baseline).
RESPONSE_CACHE_ENV = "REPRO_RESPONSE_CACHE"

#: Listen backlog of every service socket: the standalone server's and
#: the fleet's pre-bound listeners.  socketserver's default of 5 leaves
#: a burst of clients connecting before the first accept (a fleet warm-up,
#: a load test's client pool) waiting out SYN retries.
LISTEN_BACKLOG = 128

#: Upper bound on accepted request bodies (a config or request payload is
#: a few KB; anything larger is a client bug, not a bigger config).
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request -> one Router.handle call."""

    #: Injected by :func:`make_server`.
    router: Router

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY.  The stdlib pairs it with a buffered ``wfile`` to
    #: avoid small packets, but the status line and headers already
    #: leave in one write (``end_headers``) and the body in a second;
    #: buffering the two into one send measured no faster.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.state.metrics.observe_connection()

    def _serve(self) -> None:
        body: Optional[str] = None
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Covers both unparseable and negative values: read(-1) would
            # block until the client closes, pinning this thread.
            self.send_error(400, "invalid Content-Length header")
            return
        if length:
            if length > MAX_BODY_BYTES:
                self.send_error(413, "request body too large")
                return
            body = self.rfile.read(length).decode("utf-8", "replace")
        # HEAD is GET minus the body (RFC 9110): route it identically,
        # answer with the same status/headers, send nothing.
        method = "GET" if self.command == "HEAD" else self.command
        response = self.router.handle(method, self.path, body,
                                      headers=self.headers)
        payload = response.body_bytes()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        self._serve()

    def do_HEAD(self) -> None:  # noqa: N802
        self._serve()

    def do_POST(self) -> None:  # noqa: N802
        self._serve()

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve()

    def do_PUT(self) -> None:  # noqa: N802
        self._serve()

    def do_PATCH(self) -> None:  # noqa: N802
        self._serve()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # /metrics is the observable surface, not stderr


class AdvisorServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns its :class:`ServiceState`.

    The state is attached by :func:`make_server` *after* the socket
    binds (no requests can arrive before ``serve_forever``).

    A kept-open connection holds its handler thread until the client
    closes it.  :meth:`server_close` also ends the reads of every
    connection still open, as a process exit would: each handler
    finishes the answer it is writing and closes, so a stopped
    in-process server answers nothing more on old connections and its
    clients open new ones.
    """

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG
    state: ServiceState

    def __init__(self, *args, **kwargs) -> None:
        # Before the bind: a failed bind already calls server_close.
        self._open_lock = threading.Lock()
        self._open: Set[socket_module.socket] = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        for connection in still_open:
            try:
                connection.shutdown(socket_module.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile


def _cache_enabled() -> bool:
    return os.environ.get(RESPONSE_CACHE_ENV, "1").lower() \
        not in ("0", "false", "no")


def build_state(state_dir: str, workers: int = 4,
                worker_id: Optional[str] = None) -> ServiceState:
    """The service's state over a directory: shared session + job manager.

    Each job runs on a *fresh* session over the same directory (exactly
    like a separate CLI process), so sweeps never contend with the
    control-plane session; the advisory file locks keep the shared files
    consistent.

    Job records live in the shared ``fleet.sqlite`` queue, so several
    server processes over one state directory form one queue.  Any
    pre-fleet ``jobs/*.json`` records are imported once first.
    """
    # Deferred: repro.fleet itself imports repro.service (jobs, and this
    # module via the package __init__); importing it at module scope
    # would make the two packages' import order matter.
    from repro.fleet.cache import ResponseCache
    from repro.fleet.jobstore import FleetJobStore, fleet_db_path
    from repro.fleet.manager import FleetJobManager

    store = StateStore(root=resolve_state_dir(state_dir))
    session = AdvisorSession(store=store)
    session_factory = lambda: AdvisorSession(  # noqa: E731
        store=StateStore(root=store.root)
    )
    fleet_store = FleetJobStore(fleet_db_path(store.root))
    fleet_store.import_legacy_jobs(store.jobs_dir())
    jobs = FleetJobManager(
        fleet_store, session_factory=session_factory,
        workers=workers, worker_id=worker_id, owns_store=True,
    )
    cache = ResponseCache() if _cache_enabled() else None
    return ServiceState(session=session, jobs=jobs, cache=cache)


def make_server(state_dir: str, host: str = "127.0.0.1", port: int = 8050,
                workers: int = 4,
                state: Optional[ServiceState] = None,
                socket: Optional[socket_module.socket] = None,
                worker_id: Optional[str] = None) -> AdvisorServiceServer:
    """Create (but do not start) the server.

    The socket binds *before* the job manager starts: a bind failure
    (port in use) must not leave worker threads running recovered jobs
    in a process that will never serve them.

    ``socket`` hands the server an already-bound *listening* socket
    instead of binding one — how the fleet supervisor's pre-forked
    workers all serve one address (the parent binds, children inherit).
    """
    handler = type(
        "BoundServiceHandler", (ServiceRequestHandler,), {"router": None}
    )
    if socket is None:
        server = AdvisorServiceServer((host, port), handler)  # binds here
    else:
        server = AdvisorServiceServer((host, port), handler,
                                      bind_and_activate=False)
        server.socket.close()  # the unused auto-created socket
        server.socket = socket
        # What server_bind would have derived, minus the bind itself.
        server.server_address = socket.getsockname()[:2]
        server.server_name = socket_module.getfqdn(server.server_address[0])
        server.server_port = server.server_address[1]
    try:
        state = state or build_state(state_dir, workers=workers,
                                     worker_id=worker_id)
    except BaseException:
        if socket is None:
            server.server_close()
        raise
    server.state = state
    handler.router = Router(state)
    return server


def serve(state_dir: str, host: str = "127.0.0.1", port: int = 8050,
          workers: int = 4, once: bool = False) -> int:
    """Run the service until interrupted (the ``serve`` CLI command)."""
    server = make_server(state_dir, host=host, port=port, workers=workers)
    actual_port = server.server_address[1]
    print(f"HPCAdvisor service on http://{host}:{actual_port}/ "
          f"({workers} job worker(s), state in {state_dir}; Ctrl-C to stop)")
    warn_if_exposed(host)
    return run_server(server, once=once)


def warn_if_exposed(host: str) -> None:
    """Warn that a non-loopback ``host`` exposes an unauthenticated
    service.  Flushed: ``fleet serve`` forks its workers next, and a
    buffered line would be copied into each of them."""
    if host not in ("127.0.0.1", "localhost", "::1"):
        print("WARNING: the service has no authentication; anyone who can "
              "reach this address can submit jobs, write plot files, and "
              "shut down deployments.  Bind to 127.0.0.1 or front it with "
              "an authenticating proxy.", flush=True)


def run_server(server: AdvisorServiceServer, once: bool = False) -> int:
    """Serve until interrupted, then close the socket and stop the
    state's job workers.  ``once`` serves one connection, in this
    thread: a handler thread would still be reading its request when
    the close ends every connection's reads."""
    try:
        if once:
            server.process_request_thread(*server.get_request())
        else:  # pragma: no cover - interactive loop
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        server.server_close()
        server.state.close(wait=False)
    return 0
