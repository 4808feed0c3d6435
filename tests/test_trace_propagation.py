"""Trace context propagation, end to end.

A ``RemoteSession(trace_dir=...)`` collect against a live server must
leave ONE trace in the deployment's ``traces-<name>.jsonl`` that spans
the client (``client.collect``), the service router (``http.request``),
the job worker (``job.run``), and the sweep itself (``collect.sweep``
with its ``stage.*`` children) — linked by the W3C ``traceparent``
header over HTTP and by the job record across worker handoff.  The
fleet variant proves the linkage survives a real process boundary:
the worker's spans carry a different pid than the client's.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.client import RemoteSession
from repro.service.app import make_server
from tests.conftest import make_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: The spans one traced collect must link under a single trace id.
EXPECTED_SPANS = ("client.collect", "http.request", "job.run",
                  "collect.sweep")


def _trace_with(events, span_name):
    """The (trace_id, events) group that contains ``span_name``."""
    for trace_id, group in telemetry.group_traces(events).items():
        if any(e.get("name") == span_name for e in group):
            return trace_id, group
    return None, []


def _await_linked_trace(trace_file, timeout=60.0):
    """Poll the ring until one trace holds every expected span.

    Spans are emitted on *exit*, so ``job.run`` can land an instant
    after the client observes the job as done.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events = telemetry.read_events(trace_file)
        trace_id, group = _trace_with(events, "client.collect")
        names = {e.get("name") for e in group}
        if set(EXPECTED_SPANS) <= names:
            return trace_id, group
        time.sleep(0.05)
    raise AssertionError(
        f"no single trace linked {EXPECTED_SPANS}; "
        f"saw traces: { {tid: sorted({e.get('name') for e in g}) for tid, g in telemetry.group_traces(telemetry.read_events(trace_file)).items()} }"
    )


def _span(group, name):
    matches = [e for e in group if e.get("name") == name]
    assert matches, f"span {name!r} missing from trace"
    return matches[0]


class LiveServer:
    def __init__(self, state_dir):
        self.state_dir = state_dir
        self.server = make_server(state_dir, port=0, workers=2)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.server.state.close()
        self.thread.join(timeout=10)


@pytest.fixture
def live(tmp_path):
    server = LiveServer(str(tmp_path / "state"))
    yield server
    server.stop()


def test_collect_yields_one_linked_trace(live):
    remote = RemoteSession(live.url, timeout=15, trace_dir=live.state_dir)
    info = remote.deploy(make_config(rgprefix="tracerg").to_dict())
    job = remote.collect(deployment=info.name)
    record = job.wait(timeout=120)
    assert record.state == "done", record.error

    trace_file = telemetry.trace_path(live.state_dir, info.name)
    assert os.path.exists(trace_file)
    trace_id, group = _await_linked_trace(trace_file)

    # Every span in the group carries the same trace id...
    assert {e["trace"] for e in group} == {trace_id}

    # ...and the parent links walk client -> router -> worker -> sweep.
    client = _span(group, "client.collect")
    request = _span(group, "http.request")
    job_run = _span(group, "job.run")
    sweep = _span(group, "collect.sweep")
    assert client["parent"] == ""                      # the root
    assert request["parent"] == client["span"]         # via traceparent
    assert job_run["parent"] == request["span"]        # via the job record
    assert sweep["parent"] == job_run["span"]

    # The sweep carries its profile as stage.* children.
    stage_names = {e["name"] for e in group
                   if e.get("parent") == sweep["span"]}
    assert any(name.startswith("stage.") for name in stage_names)

    # Span attributes identify the work.
    assert client["attrs"]["deployment"] == info.name
    assert request["attrs"]["method"] == "POST"
    assert job_run["attrs"]["job_id"] == job.id
    assert sweep["attrs"]["deployment"] == info.name
    assert sweep["attrs"]["executed"] == 2


def test_untraced_client_still_gets_server_side_trace(live):
    """Without ``trace_dir`` the client opens no span and sends no
    header — the server roots the trace itself, nothing dangles."""
    remote = RemoteSession(live.url, timeout=15)
    info = remote.deploy(make_config(rgprefix="notracerg").to_dict())
    job = remote.collect(deployment=info.name)
    assert job.wait(timeout=120).state == "done"

    deadline = time.monotonic() + 30
    trace_file = telemetry.trace_path(live.state_dir, info.name)
    while time.monotonic() < deadline:
        events = telemetry.read_events(trace_file)
        trace_id, group = _trace_with(events, "collect.sweep")
        if trace_id and any(e.get("name") == "http.request"
                            and e.get("parent") == ""
                            for e in group):
            break
        time.sleep(0.05)
    names = {e.get("name") for e in group}
    assert "client.collect" not in names
    assert {"http.request", "job.run", "collect.sweep"} <= names


def test_trace_cli_renders_span_tree(live, capsys):
    from repro.cli.main import main

    remote = RemoteSession(live.url, timeout=15, trace_dir=live.state_dir)
    info = remote.deploy(make_config(rgprefix="clitracerg").to_dict())
    assert remote.collect(deployment=info.name).wait(timeout=120).state \
        == "done"
    _await_linked_trace(telemetry.trace_path(live.state_dir, info.name))

    assert main(["--state-dir", live.state_dir, "trace", "-n", info.name]) \
        == 0
    out = capsys.readouterr().out
    assert "client.collect" in out
    assert "collect.sweep" in out
    assert "└─" in out or "├─" in out
    assert "ms" in out

    assert main(["--state-dir", live.state_dir, "trace", "-n", info.name,
                 "--json"]) == 0
    import json
    payload = json.loads(capsys.readouterr().out)
    assert payload["deployment"] == info.name
    assert any(e["name"] == "collect.sweep" for e in payload["events"])

    assert main(["--state-dir", live.state_dir, "trace", "-n",
                 "no-such-deployment"]) == 1
    assert "no traces recorded" in capsys.readouterr().out


def test_metrics_families_populated_after_collect(live):
    remote = RemoteSession(live.url, timeout=15)
    info = remote.deploy(make_config(rgprefix="metricsrg").to_dict())
    assert remote.collect(deployment=info.name).wait(timeout=120).state \
        == "done"
    text = remote.metrics_text()
    for family in (
        "advisor_http_requests_total",
        "advisor_http_request_seconds_bucket",
        "advisor_http_request_seconds_max",
        "advisor_store_op_seconds_bucket",
        "advisor_jobs_transitions_total",
        "advisor_engine_selected_total",
        "advisor_fleet_queue_depth",
        "advisor_fleet_claims_total",
    ):
        assert family in text, f"{family} missing from /metrics"
    assert ('advisor_store_op_seconds_bucket'
            '{kind="sqlite",op="append",le="+Inf"}') in text
    assert 'advisor_jobs_transitions_total{kind="collect",state="done"}' \
        in text


class FleetProcess:
    """``fleet serve`` as a subprocess (real worker process boundary)."""

    def __init__(self, state_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main",
             "--state-dir", state_dir,
             "fleet", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO_ROOT,
        )
        self.lines = []
        self.url = self._await_ready()
        threading.Thread(target=self._pump, daemon=True).start()

    def _await_ready(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip())
            if line.startswith("FLEET READY"):
                fields = dict(part.split("=", 1)
                              for part in line.split()[2:])
                return f"http://127.0.0.1:{fields['port']}"
        raise AssertionError(
            "fleet never became ready:\n" + "\n".join(self.lines))

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


def test_trace_links_across_fleet_worker_processes(tmp_path):
    state_dir = str(tmp_path / "state")
    fleet = FleetProcess(state_dir)
    try:
        remote = RemoteSession(fleet.url, timeout=30, retries=5,
                               backoff_s=0.1, trace_dir=state_dir)
        info = remote.deploy(make_config(rgprefix="fleettracerg").to_dict())
        job = remote.collect(deployment=info.name)
        record = job.wait(timeout=120)
        assert record.state == "done", record.error

        trace_file = telemetry.trace_path(state_dir, info.name)
        trace_id, group = _await_linked_trace(trace_file)
        assert {e["trace"] for e in group} == {trace_id}

        # The linkage crossed a real process boundary: the client span
        # and the worker's job.run span come from different pids.
        client = _span(group, "client.collect")
        job_run = _span(group, "job.run")
        sweep = _span(group, "collect.sweep")
        assert client["pid"] == os.getpid()
        assert job_run["pid"] != client["pid"]
        assert sweep["pid"] == job_run["pid"]
        assert _span(group, "http.request")["parent"] == client["span"]
        assert sweep["parent"] == job_run["span"]

        # The job record carried the worker's identity alongside.
        assert record.worker_id
        assert str(job_run["pid"]) in record.worker_id
    finally:
        fleet.stop()
