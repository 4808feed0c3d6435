"""``advise``: a closed loop of advice traffic from one HTTP client.

The client sends its next request when the previous one returned, to a
``fleet serve --workers 1`` subprocess over a 50k-point SQLite corpus.
The seeded mix: revalidating GETs of ``/v1/advice`` (answered 304),
typed ``RemoteSession.advise`` calls with filters, datapoints pages, and
spot what-ifs at eviction rates warmed during set-up.  This is the warm
service read path: the snapshot LRU always hits, and the store only
serves datapoints pages.  A speed probe runs before every request, and
times are reported at reference speed (``speed.py``).

The traced run hosts the service in this process (``make_server``), so
router, session and store spans share the client's trace.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import common
import inputs
import speed
from tracer import Tracer, layer_metrics, overhead_pct

#: Set-ups per end-to-end run; the median is reported.
SETUPS = 2
KINDS = ("revalidate", "advise", "datapoints", "spot")


def populate(seed: int, state_dir: str) -> str:
    """Deploy, run a two-scenario sweep and bulk-load the corpus."""
    from repro.api.session import AdvisorSession

    session = AdvisorSession(state_dir=state_dir, store_backend="sqlite")
    info = session.deploy(inputs.advice_config())
    session.collect(deployment=info.name)
    session.data_store(info.name).append_points(
        inputs.corpus_points(seed, info.name))
    session.store.release_data_store(info.name)
    return info.name


class FleetServer:
    """``fleet serve --workers 1`` as a subprocess."""

    def __init__(self, state_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "--state-dir",
             state_dir, "fleet", "serve", "--port", "0", "--workers", "1",
             "--job-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=common.child_env(), cwd=common.ROOT)
        self.url = self.worker_pid = self._drain = None
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not (
                    self.url and self.worker_pid):
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("FLEET READY"):
                    fields = dict(part.split("=", 1)
                                  for part in line.split()[2:])
                    self.url = f"http://127.0.0.1:{fields['port']}"
                elif line.startswith("fleet: worker w0 pid="):
                    self.worker_pid = int(line.split("pid=")[1].split()[0])
            if not (self.url and self.worker_pid):
                raise common.BenchError("fleet never became ready")
            # Keep draining supervisor output so its pipe cannot fill.
            self._drain = threading.Thread(target=self.proc.stdout.read,
                                           daemon=True)
            self._drain.start()
            _wait_healthy(self.url)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.worker_pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                # The supervisor did not reap its worker: kill both.
                if self.worker_pid:
                    try:
                        os.kill(self.worker_pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self._drain is not None:
            self._drain.join(timeout=20)
        else:
            self.proc.stdout.close()


class InProcessServer:
    """The same service on a thread of this process (traced runs)."""

    def __init__(self, state_dir: str) -> None:
        from repro.service.app import make_server

        os.environ["REPRO_RESPONSE_CACHE"] = "1"
        self.server = make_server(state_dir, port=0, workers=1)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        _wait_healthy(self.url)

    def peak_rss_mb(self) -> float:
        return common.own_peak_rss_mb()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.state.close(wait=False)
        self.thread.join(timeout=20)


def _wait_healthy(url: str) -> None:
    from repro.client import RemoteSession

    remote = RemoteSession(url, timeout=30, retries=20, backoff_s=0.05)
    deadline = time.monotonic() + 60
    while remote.health().get("status") != "ok":
        if time.monotonic() > deadline:
            raise common.BenchError("service never became healthy")
        time.sleep(0.05)


def send(remote, deployment: str, kind: str, payload):
    """One request of the mix; returns the decoded result."""
    if kind == "revalidate":
        return remote._call("GET", "/v1/advice", query=payload)
    if kind == "datapoints":
        return remote.datapoints(deployment, payload)
    return remote.advise(payload)


def set_up(seed: int, workdir: str, index: int, in_process: bool):
    """Populate a fresh state dir, start the service and warm it: the
    snapshot build, the ETags clients revalidate, and the risk memo of
    every what-if rate.  Returns (server, remote, deployment, seconds)."""
    from repro.api.requests import AdviseRequest
    from repro.client import RemoteSession

    started = time.perf_counter()
    state_dir = os.path.join(workdir, f"advise-state-{index}")
    deployment = populate(seed, state_dir)
    server = (InProcessServer if in_process else FleetServer)(state_dir)
    try:
        remote = RemoteSession(server.url, timeout=120, retries=5)
        for query in inputs.revalidation_queries(seed, deployment):
            send(remote, deployment, "revalidate", query)
        remote.advise(AdviseRequest(deployment=deployment))
        for rate in inputs.spot_rates(seed):
            remote.advise(AdviseRequest(deployment=deployment,
                                        capacity="spot", eviction_rate=rate))
    except BaseException:
        server.stop()
        raise
    return server, remote, deployment, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (metrics, attempted, failed, detail)."""
    setups = []
    server = remote = deployment = None
    try:
        for index in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
                server = None
            before = speed.probes()
            server, remote, deployment, took = set_up(
                seed, workdir, index, in_process=trace)
            setups.append(took * speed.gauge(before))
        loop = closed_loop(seed, seconds, remote, deployment,
                           Tracer() if trace else None)
        peak_rss_mb = server.peak_rss_mb()
        check_not_modified(server.url, seed, deployment)
    finally:
        if server is not None:
            server.stop()
    check_against_objects(
        os.path.join(workdir, f"advise-state-{len(setups) - 1}"),
        deployment, loop["samples"])

    latencies = loop["latencies"]
    detail = {"engines": loop["engines"], "requests": loop["count"],
              "latency_samples": {k: len(v) for k, v in latencies.items()},
              "class_p50_ms": {k: common.median(v) * 1e3
                               for k, v in latencies.items() if v},
              "spot_rates": inputs.spot_rates(seed),
              "speed_factor": loop["speed_factor"]}
    attempted, failed = loop["count"], loop["failed"]
    if not trace:
        everything = [t for v in latencies.values() for t in v]
        metrics = {
            "setup_s": (common.median(setups), "s"),
            "ops_per_s": (len(everything) / loop["busy_s"], "1/s"),
            "latency_p50_ms": (common.percentile(everything, 50) * 1e3, "ms"),
            "latency_p90_ms": (common.percentile(everything, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return metrics, attempted, failed, detail
    tracer = loop["tracer"]
    tracer.write(common.trace_path("advise", seed))
    raw = tracer.totals(loop["op_walls"])
    traced = loop["traced_latencies"]
    weights = {kind: len(latencies[kind]) + len(traced[kind])
               for kind in KINDS}
    metrics = layer_metrics(
        raw, len(loop["op_walls"]),
        overhead_pct(_mix_rate(latencies, weights),
                     _mix_rate(traced, weights)))
    return metrics, attempted, failed, detail


def closed_loop(seed: int, seconds: float, remote, deployment: str,
                tracer) -> dict:
    """Send the seeded mix for ``seconds``.  With a tracer, every other
    request is traced, so both halves see the same traffic."""
    mix = inputs.request_mix(seed, deployment, inputs.spot_rates(seed))
    latencies = {kind: [] for kind in KINDS}
    traced_latencies = {kind: [] for kind in KINDS}
    samples, engines, op_walls = {}, {}, {}
    # (kind, traced, raw seconds, probe reading) of every answered request
    answered = []
    failed = count = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, payload = next(mix)
        reading = speed.probe()
        traced = tracer is not None and count % 2 == 1
        if traced:
            tracer.op = count
            tracer.install_layers()
        started = time.perf_counter()
        try:
            result = send(remote, deployment, kind, payload)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            print(f"advise: {kind} failed: {exc!r}", file=sys.stderr)
            failed += 1
            result = None
        elapsed = time.perf_counter() - started
        if traced:
            tracer.uninstall()
            op_walls[count] = elapsed
        count += 1
        if result is None:
            continue
        answered.append((kind, traced, elapsed, reading))
        samples.setdefault(kind, (payload, result))
        engines.setdefault(kind, _engine_of(kind, result))
    busy_s = 0.0
    factors = speed.local_factors([a[3] for a in answered])
    for (kind, traced, elapsed, _), scale in zip(answered, factors):
        (traced_latencies if traced else latencies)[kind].append(
            elapsed * scale)
        busy_s += 0.0 if traced else elapsed * scale
    return {"latencies": latencies, "traced_latencies": traced_latencies,
            "samples": samples, "engines": engines, "count": count,
            "failed": failed, "busy_s": busy_s, "tracer": tracer,
            "speed_factor": common.median(factors),
            "op_walls": op_walls}


def _mix_rate(latencies: dict, weights: dict) -> float:
    """Requests per second of the full mix, from per-class mean latencies
    (so traced and untraced halves compare on the same class mix)."""
    return sum(weights.values()) / sum(
        weights[kind] * common.median(values) for kind, values
        in latencies.items() if values)


def _engine_of(kind: str, result) -> str:
    if kind == "revalidate":
        return result.get("engine", "")
    if kind == "datapoints":
        return f"store:{result.store_backend}"
    return result.engine


# -- correctness ---------------------------------------------------------------------


def check_not_modified(url: str, seed: int, deployment: str) -> None:
    """Every revalidated query, replayed with its ETag, answers 304."""
    for query in inputs.revalidation_queries(seed, deployment):
        target = f"{url}/v1/advice?{urllib.parse.urlencode(query)}"
        with urllib.request.urlopen(target, timeout=60) as response:
            etag = response.headers["ETag"]
        request = urllib.request.Request(
            target, headers={"If-None-Match": etag})
        try:
            urllib.request.urlopen(request, timeout=60).close()
            status = 200
        except urllib.error.HTTPError as exc:
            status = exc.code
        if status != 304:
            raise common.BenchError(
                f"revalidating {query} answered {status}, not 304")


def _advise_request_for(query: dict):
    from repro.api.requests import AdviseRequest

    filters = {}
    if "filter" in query:
        key, value = query["filter"].split("=", 1)
        filters[key] = value
    return AdviseRequest(
        deployment=query["deployment"], filters=filters,
        sort_by=query.get("sort", "time"),
        max_rows=int(query["max_rows"]) if "max_rows" in query else None)


def _without_engine(data: dict) -> dict:
    return {k: v for k, v in data.items()
            if k not in ("engine", "engine_fallback")}


def check_against_objects(state_dir: str, deployment: str,
                          samples: dict) -> None:
    """One answer of each request class, as served over HTTP, equals the
    in-process objects engine (datapoints: a filter over every point)."""
    import dataclasses

    from repro.api.results import AdviceResult
    from repro.api.session import AdvisorSession

    missing = set(KINDS) - set(samples)
    if missing:
        raise common.BenchError(f"no answered sample of {sorted(missing)}")
    session = AdvisorSession(state_dir=state_dir, store_backend="sqlite")
    for kind, (payload, served) in samples.items():
        if kind == "datapoints":
            everything = session.dataset(deployment)
            page = everything.query(payload).points()
            total = len(everything.query(payload.without_window()))
            if served.total != total or [p.to_dict() for p in served.points] \
                    != [p.to_dict() for p in page]:
                raise common.BenchError("datapoints page differs from a "
                                        "filter over every point")
            continue
        if kind == "revalidate":
            request = _advise_request_for(payload)
            served = AdviceResult.from_dict(served)
        else:
            request = payload
        oracle = session.advise(dataclasses.replace(request,
                                                    engine="objects"))
        if json.dumps(_without_engine(served.to_dict()), sort_keys=True) \
                != json.dumps(_without_engine(oracle.to_dict()),
                              sort_keys=True):
            raise common.BenchError(f"{kind}: HTTP answer differs from "
                                    f"advise(engine='objects')")
    session.store.release_data_store(deployment)
