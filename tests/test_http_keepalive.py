"""Kept-open HTTP connections: the client reuses them, the service
answers on them without Nagle stalls.

Two servers are used.  The advisor service (``make_server``) checks
reuse, revalidation, error mapping and a restart.  A scripted stdlib
server checks what the service never does on its own: answering
``Connection: close``, closing a kept-open connection after an answer,
dropping a connection without answering, and holding two requests in
flight at once.
"""

import http.client
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import AdvisorSession
from repro.api.results import AdviceResult
from repro.client import RemoteError, RemoteSession
from repro.errors import ConfigError
from repro.service.app import make_server
from repro.service.router import ServiceState
from tests.conftest import make_config


class ServiceThread:
    """``make_server`` on a thread; stoppable and restartable on its port."""

    def __init__(self, state_dir: str, port: int = 0):
        self.server = make_server(state_dir, port=port, workers=1)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def metrics(self) -> str:
        return self.server.state.metrics.render_prometheus()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.state.close()
        self.thread.join(timeout=10)


@pytest.fixture
def service(tmp_path):
    running = ServiceThread(str(tmp_path / "state"))
    yield running
    running.stop()


@pytest.fixture
def session():
    """Makes sessions and closes their connections after the test."""
    made = []

    def make(url, timeout=10):
        made.append(RemoteSession(url, timeout=timeout))
        return made[-1]

    yield make
    for remote in made:
        remote.close()


def connections_accepted(metrics_text: str) -> int:
    match = re.search(r"^advisor_http_connections_total (\d+)$",
                      metrics_text, re.MULTILINE)
    assert match, "advisor_http_connections_total missing from /metrics"
    return int(match.group(1))


class TestServiceConnections:
    def test_one_thread_makes_its_calls_on_one_connection(self, service,
                                                           session):
        remote = session(service.url)
        for _ in range(50):
            assert remote.health()["status"] == "ok"
        text = remote.metrics_text()
        assert connections_accepted(text) == 1
        assert ('advisor_http_requests_total{method="GET",'
                'route="/healthz",status="200"} 50\n') in text

    def test_close_drops_idle_connections_and_the_session_stays_usable(
            self, service, session):
        remote = session(service.url)
        remote.health()
        remote.close()
        assert remote.health()["status"] == "ok"
        assert connections_accepted(remote.metrics_text()) == 2

    def test_kept_open_requests_do_not_wait_for_delayed_acks(self, service):
        """With the headers and the body in two sends and Nagle on,
        each answer on a kept-open connection waited ~40 ms for the
        client's delayed ACK."""
        connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                timeout=10)
        try:
            started = time.perf_counter()
            for i in range(20):
                if i % 2:
                    connection.request(
                        "POST", "/v1/jobs/collect",
                        body=b'{"deployment": "ghost-000"}',
                        headers={"Content-Type": "application/json"})
                    expected = 404
                else:
                    connection.request("GET", "/healthz")
                    expected = 200
                response = connection.getresponse()
                response.read()
                assert response.status == expected
                assert not response.will_close
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.5, f"20 kept-open requests took {elapsed:.3f} s"
        assert connections_accepted(service.metrics()) == 1

    def test_revalidation_get_error_and_post_back_to_back(self, service,
                                                          session):
        remote = session(service.url, timeout=30)
        info = remote.deploy(make_config(rgprefix="keeprg").to_dict())
        remote.collect(deployment=info.name).wait(timeout=60)
        query = {"deployment": info.name}

        first = remote._call("GET", "/v1/advice", query=query)
        again = remote._call("GET", "/v1/advice", query=query)  # 304
        listed = remote.list_deployments()
        with pytest.raises(RemoteError) as err:
            remote.info("ghost-000")
        posted = remote.advise(deployment=info.name)

        assert again == first
        assert [d.name for d in listed] == [info.name]
        assert err.value.status == 404
        assert "ghost-000" in str(err.value)
        assert posted.rows == AdviceResult.from_dict(first).rows
        text = remote.metrics_text()
        assert ('advisor_http_requests_total{method="GET",'
                'route="/v1/advice",status="304"} 1\n') in text
        assert connections_accepted(text) == 1

    def test_restart_on_the_same_port_between_two_gets(self, tmp_path,
                                                       session):
        state_dir = str(tmp_path / "state")
        first = ServiceThread(state_dir)
        remote = session(first.url)
        try:
            assert remote.health()["status"] == "ok"
        finally:
            first.stop()
        second = ServiceThread(state_dir, port=first.port)
        try:
            assert remote.health()["status"] == "ok"
            text = second.metrics()
            assert ('advisor_http_requests_total{method="GET",'
                    'route="/healthz",status="200"} 1\n') in text
        finally:
            second.stop()

    @pytest.mark.parametrize("gui", [False, True], ids=["service", "gui"])
    def test_a_burst_of_connects_before_the_first_accept_all_get_in(
            self, tmp_path, gui):
        """The backlog is the fleet listener's 128: with socketserver's
        default of 5, all but the first few of these connects time out.
        ``gui`` serves the GUI's job-less state, as ``repro gui`` does."""
        root = str(tmp_path / "state")
        state = ServiceState(session=AdvisorSession(root)) if gui else None
        server = make_server(root, port=0, workers=1, state=state)
        clients = []
        try:
            for _ in range(32):
                clients.append(socket.create_connection(
                    ("127.0.0.1", server.server_address[1]), timeout=0.5))
        finally:
            for client in clients:
                client.close()
            server.server_close()
            server.state.close()
        assert len(clients) == 32


# -- a scripted server ------------------------------------------------------


class ScriptedHandler(BaseHTTPRequestHandler):
    """``/ok`` answers; ``/close`` answers with ``Connection: close``;
    ``/bye`` answers and then closes without saying so, as a server that
    stops would; ``/drop`` reads the request and closes without
    answering (only its
    first time when the query says ``once``); ``/pair`` answers once two
    requests are in flight together."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def _handle(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length).decode() if length else ""
        path, _, query = self.path.partition("?")
        with self.server.lock:
            self.server.seen.append((self.command, path))
            drops = sum(1 for seen in self.server.seen
                        if seen == (self.command, "/drop"))
        if path == "/drop" and ("once" not in query or drops == 1):
            self.close_connection = True
            return
        headers = {}
        if path == "/close":
            headers["Connection"] = "close"
        if path in ("/close", "/bye"):
            self.close_connection = True
        if path == "/pair":
            self.server.pair.wait(timeout=5)
        self._answer({"path": path, "query": query, "body": body}, headers)

    def _answer(self, payload, headers) -> None:
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _handle

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


class ScriptedServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), ScriptedHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.seen = []
        self.pair = threading.Barrier(2)
        self.closed = threading.Event()  # some connection was closed

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.set()


@pytest.fixture
def scripted():
    server = ScriptedServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestScriptedConnections:
    def test_connection_close_makes_the_next_call_reconnect(
            self, scripted, session):
        remote = session(scripted.url)
        assert remote._call("GET", "/ok")["path"] == "/ok"
        assert remote._call("GET", "/close")["path"] == "/close"
        assert remote._call("GET", "/ok", query={"n": "3"})["query"] == "n=3"
        assert scripted.connections == 2

    def test_idle_connection_the_server_closed_is_replaced(
            self, scripted, session):
        """A kept-open connection the server closed while it sat idle
        (a restart, a killed worker) is found closed before the next
        call, so even a POST, which is never resent, goes out once, on
        a new connection."""
        remote = session(scripted.url)
        remote._call("GET", "/bye")
        assert scripted.closed.wait(timeout=5)
        time.sleep(0.05)  # let the FIN reach the client's socket
        answer = remote._call("POST", "/ok", body={"n": 1})
        assert json.loads(answer["body"]) == {"n": 1}
        assert scripted.seen.count(("POST", "/ok")) == 1
        assert scripted.connections == 2

    def test_get_dropped_on_a_reused_connection_is_resent_once(
            self, scripted, session):
        remote = session(scripted.url)
        remote._call("GET", "/ok")
        answer = remote._call("GET", "/drop", query={"once": ""})
        assert answer["path"] == "/drop"
        assert scripted.seen.count(("GET", "/drop")) == 2
        assert scripted.connections == 2

    def test_get_dropped_twice_raises_after_one_resend(self, scripted,
                                                       session):
        remote = session(scripted.url)
        remote._call("GET", "/ok")
        with pytest.raises(RemoteError) as err:
            remote._call("GET", "/drop")
        assert err.value.status == 0
        assert scripted.seen.count(("GET", "/drop")) == 2

    def test_post_dropped_without_an_answer_is_not_resent(self, scripted,
                                                          session):
        remote = session(scripted.url)
        remote._call("GET", "/ok")  # the POST goes on a reused connection
        with pytest.raises(RemoteError) as err:
            remote._call("POST", "/drop", body={"deployment": "d-000"})
        assert err.value.status == 0
        assert scripted.seen.count(("POST", "/drop")) == 1
        # The session recovers on a fresh connection.
        assert remote._call("GET", "/ok")["path"] == "/ok"

    def test_two_threads_get_their_own_connections(self, scripted, session):
        remote = session(scripted.url)
        answers = {}

        def call(name):
            answers[name] = remote._call("GET", "/pair",
                                         query={"who": name})

        threads = [threading.Thread(target=call, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert answers == {name: {"path": "/pair", "query": f"who={name}",
                                  "body": ""} for name in ("a", "b")}
        assert not scripted.pair.broken
        assert scripted.connections == 2

    def test_threads_sharing_a_session_never_share_a_connection(
            self, scripted, session):
        """More threads than cores, switching often: every answer is the
        one its thread asked for, and no more connections are opened
        than threads were calling at once."""
        remote = session(scripted.url)
        mixed_up = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def call(worker):
                for n in range(25):
                    asked = f"who={worker}-{n}"
                    answer = remote._call("GET", "/ok",
                                          query={"who": f"{worker}-{n}"})
                    if answer["query"] != asked:
                        mixed_up.append((asked, answer["query"]))

            threads = [threading.Thread(target=call, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mixed_up == []
        assert scripted.seen.count(("GET", "/ok")) == 200
        assert 1 <= scripted.connections <= 8
        assert len(set(map(id, remote._idle))) == len(remote._idle) \
            == scripted.connections

    def test_base_url_keeps_its_path_prefix(self, scripted, session):
        remote = session(scripted.url + "/api/")
        answer = remote._call("GET", "/v1/x", query={"a": "1"})
        assert (answer["path"], answer["query"]) == ("/api/v1/x", "a=1")


class TestBaseUrls:
    def test_https_urls_use_tls_connections(self):
        remote = RemoteSession("https://advisor.example:8443/base")
        assert remote._connection_class is http.client.HTTPSConnection
        assert (remote._host, remote._port, remote._path_prefix) == (
            "advisor.example", 8443, "/base")

    @pytest.mark.parametrize("url", ["127.0.0.1:8050", "ftp://host/",
                                     "http://", "http://host:99999"])
    def test_other_urls_are_refused(self, url):
        with pytest.raises(ConfigError):
            RemoteSession(url)
