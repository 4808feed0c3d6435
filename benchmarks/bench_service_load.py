"""Service-tier load benchmark: response cache and fleet scaling (ISSUE 6).

Drives thousands of concurrent HTTP requests (worker threads, each with
its own :class:`~repro.client.RemoteSession`) against a live advisor
service over a realistically heavy corpus and measures the two claims
the ``repro.fleet`` tier makes:

* **ETag response cache** — the hot advice read path.  Uncached, every
  ``GET /v1/advice`` recomputes advice (over the columnar snapshot
  since ISSUE 10); cached, revalidations are answered ``304`` from the
  key alone.  Acceptance: >= 5x sustained req/s (override the floor
  with ``BENCH_LOAD_CACHED_FLOOR``), and the uncached path must itself
  stay interactive — >= ``BENCH_LOAD_UNCACHED_FLOOR`` req/s (default
  20) with its cold p50/p99 recorded in the results.
* **multi-process fleet** — a 2-worker fleet must beat a 1-worker fleet
  on a mixed read/write workload (cache-hitting advice reads, cold
  filtered reads, deployment writes).  On a multi-core host that shows
  up as sustained req/s (separate processes dodge the GIL; floor
  ``BENCH_LOAD_FLEET_FLOOR``, default strictly > 1.0x).  On a
  single-core host total throughput is physics-bound, so the win the
  fleet delivers — and the bench asserts — is *convoy elimination*:
  cheap cache-hit reads no longer queue behind a sibling's cold
  Pareto recompute holding the in-process lock, which collapses their
  median latency (floor ``BENCH_LOAD_CONVOY_FLOOR``, default 2.0x
  better than the single worker).  Both metrics are always recorded.
* **per-worker sockets** — where the supervisor reports
  ``sockets=per-worker`` (Linux ``SO_REUSEPORT``), fresh connections
  must actually spread across the worker processes.  The bench samples
  ``/healthz`` over independent connections, tallies the responding
  ``worker_id``s, and asserts every worker answered at least once.

Results (req/s, p50/p99 latency per phase) land in
``BENCH_service_load.json`` at the repo root.

Run standalone::

    python benchmarks/bench_service_load.py [--requests 2000] [--no-check]

or via pytest (the CI smoke step, scaled down)::

    BENCH_LOAD_REQUESTS=400 pytest benchmarks/bench_service_load.py -q
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.api.session import AdvisorSession
from repro.client import RemoteSession
from repro.core.config import MainConfig
from repro.core.dataset import DataPoint
from repro.core.statefiles import StateStore
from repro.errors import RemoteError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_service_load.json")

#: Acceptance floors (env-overridable for scaled-down CI runs).
CACHED_SPEEDUP_FLOOR = 5.0
FLEET_SPEEDUP_FLOOR = 1.0
CONVOY_SPEEDUP_FLOOR = 2.0
#: Sustained req/s the *uncached* advice path must hold at the default
#: corpus scale — the columnar snapshot engine keeps cache-miss
#: requests interactive instead of leaning on the ETag cache to hide a
#: slow recompute (ISSUE 10).
UNCACHED_RPS_FLOOR = 20.0

SKUS = ("Standard_HB120rs_v3", "Standard_HB120rs_v2", "Standard_HC44rs")
NNODES = (1, 2, 4, 8, 16, 32)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def bench_config(rgprefix: str) -> MainConfig:
    return MainConfig.from_dict({
        "subscription": "bench-load",
        "skus": ["Standard_HB120rs_v3"],
        "rgprefix": rgprefix,
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [1, 2],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["4"]},
        "tags": {"experiment": "bench-load"},
    })


def synthetic_points(n: int, deployment: str):
    """A heavy corpus so the uncached advice path does real work."""
    points = []
    for i in range(n):
        points.append(DataPoint(
            appname="lammps",
            sku=SKUS[i % len(SKUS)],
            nnodes=NNODES[i % len(NNODES)],
            ppn=100,
            exec_time_s=100.0 + (i % 997),
            cost_usd=0.01 * (1 + i % 89),
            appinputs={"BOXFACTOR": "4"},
            tags={"experiment": "bench-load"},
            deployment=deployment,
            timestamp=float(i),
        ))
    return points


def populate_state(state_dir: str, n_points: int) -> str:
    """Deploy + collect + bulk-load the corpus; returns the deployment."""
    session = AdvisorSession(store=StateStore(root=state_dir))
    info = session.deploy(bench_config("benchloadrg"))
    session.collect(deployment=info.name)
    session.data_store(info.name).append_points(
        synthetic_points(n_points, info.name))
    return info.name


# -- measurement harness --------------------------------------------------------


def run_load(url: str, ops, threads: int):
    """Run ``ops`` (list of callables taking a RemoteSession) across
    ``threads`` workers; returns (req_per_s, p50_s, p99_s)."""
    latencies = []
    failures = []
    lock = threading.Lock()
    cursor = {"next": 0}

    def worker():
        remote = RemoteSession(url, timeout=60, retries=5, backoff_s=0.05)
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(ops):
                    return
                cursor["next"] = index + 1
            start = time.perf_counter()
            try:
                ops[index](remote)
            except RemoteError as exc:  # pragma: no cover - diagnostics
                with lock:
                    failures.append(str(exc))
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    begin = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - begin
    assert not failures, f"{len(failures)} request(s) failed: {failures[:3]}"
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return len(latencies) / wall, p50, p99


def advice_get(deployment: str, **extra):
    query = {"deployment": deployment}
    query.update(extra)

    def op(remote: RemoteSession):
        remote._call("GET", "/v1/advice", query=query)

    return op


def deploy_post(index: int):
    def op(remote: RemoteSession):
        remote.deploy(bench_config(f"benchw{index:04d}rg").to_dict())

    return op


# -- phase 1: cached vs uncached advice reads -----------------------------------


class InProcessServer:
    """A threaded service over a state dir, cache on or off."""

    def __init__(self, state_dir: str, cached: bool):
        from repro.service.app import RESPONSE_CACHE_ENV, make_server

        previous = os.environ.get(RESPONSE_CACHE_ENV)
        os.environ[RESPONSE_CACHE_ENV] = "1" if cached else "0"
        try:
            self.server = make_server(state_dir, port=0, workers=2)
        finally:
            if previous is None:
                os.environ.pop(RESPONSE_CACHE_ENV, None)
            else:
                os.environ[RESPONSE_CACHE_ENV] = previous
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.state.close(wait=False)
        self.thread.join(timeout=10)


def bench_cache(state_dir: str, deployment: str, requests: int,
                threads: int):
    results = {}
    for label, cached, count in (
        ("uncached", False, max(50, requests // 10)),
        ("cached", True, requests),
    ):
        server = InProcessServer(state_dir, cached=cached)
        try:
            # One warm-up pass primes the cache (and for the uncached
            # server proves the route works) before the clock starts.
            warm = advice_get(deployment)
            warm(RemoteSession(server.url, timeout=60))
            rps, p50, p99 = run_load(
                server.url, [advice_get(deployment)] * count, threads)
            results[label] = {"requests": count, "req_per_s": rps,
                              "p50_s": p50, "p99_s": p99}
        finally:
            server.stop()
    results["speedup"] = (results["cached"]["req_per_s"]
                          / results["uncached"]["req_per_s"])
    return results


# -- phase 2: 1-worker fleet vs 2-worker fleet ----------------------------------


class FleetUnderTest:
    """``fleet serve`` as a subprocess on a pre-populated state dir."""

    def __init__(self, state_dir: str, workers: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main",
             "--state-dir", state_dir,
             "fleet", "serve", "--port", "0",
             "--workers", str(workers), "--job-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO_ROOT,
        )
        self.url = None
        self.sockets = "shared"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("FLEET READY"):
                fields = dict(part.split("=", 1)
                              for part in line.split()[2:])
                self.url = f"http://127.0.0.1:{fields['port']}"
                self.sockets = fields.get("sockets", "shared")
                break
        assert self.url, "fleet never became ready"
        # Drain further supervisor chatter so the pipe cannot fill.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        remote = RemoteSession(self.url, timeout=60, retries=10,
                               backoff_s=0.1)
        while remote.health()["status"] != "ok":  # pragma: no cover
            time.sleep(0.1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=15)


def mixed_ops(deployment: str, count: int):
    """~70% cache-hitting reads, ~20% cold filtered reads (distinct
    queries -> distinct cache keys), ~10% deployment writes."""
    ops = []
    for i in range(count):
        if i % 10 == 0:
            ops.append(deploy_post(i))
        elif i % 10 in (1, 2):
            ops.append(advice_get(deployment, maxnodes=str(2 + i)))
        else:
            ops.append(advice_get(deployment))
    return ops


def on_new_connection(url: str, op):
    """Run ``op`` on a session of its own, so it opens a new connection.

    A session keeps its connection open, and with per-worker
    ``SO_REUSEPORT`` sockets the kernel picks a worker per connection:
    requests that must each reach whichever worker the kernel picks
    (the probes below) each get a new session, closed afterwards.
    """
    remote = RemoteSession(url, timeout=120, retries=10, backoff_s=0.05)
    try:
        return op(remote)
    finally:
        remote.close()


def convoy_latencies(url: str, deployment: str, samples: int):
    """Median cheap cache-hit read latency while two background threads
    hammer cold (distinct-key) advice recomputes — the head-of-line
    convoy a single worker process cannot avoid.  The cold loops pin
    ``engine=objects``: the columnar engine answers cache-miss advice
    in milliseconds (see ``bench_advice_path``), so the legacy path is
    what still produces the expensive recompute this scenario needs.
    Every request, cold or warm, goes on a new connection, so each one
    lands on whichever worker the kernel picks; a warm read is then a
    ``200`` from the response cache (a new session holds no ETag)."""
    stop = threading.Event()

    def cold_loop(seed: int):
        i = 0
        while not stop.is_set():
            try:
                on_new_connection(url, advice_get(
                    deployment, engine="objects",
                    maxnodes=str(1000 * seed + i)))
            except RemoteError:  # pragma: no cover - shutdown race
                pass
            i += 1

    colds = [threading.Thread(target=cold_loop, args=(s,), daemon=True)
             for s in (1, 2)]
    for thread in colds:
        thread.start()
    time.sleep(0.5)  # let the convoy form
    warm = advice_get(deployment)
    on_new_connection(url, warm)
    latencies = []
    for _ in range(samples):
        start = time.perf_counter()
        on_new_connection(url, warm)
        latencies.append(time.perf_counter() - start)
    stop.set()
    for thread in colds:
        thread.join(timeout=120)
    latencies.sort()
    return (latencies[len(latencies) // 2],
            latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))])


def worker_spread(url: str, samples: int):
    """Tally which worker answers ``samples`` independent ``/healthz``
    probes.  Each probe opens a new TCP connection (a new session), so
    with per-worker ``SO_REUSEPORT`` sockets the kernel's connection
    hash decides the responder — the tally shows whether load really
    lands on more than one process."""
    counts = {}
    for _ in range(samples):
        fleet = on_new_connection(url, RemoteSession.health).get("fleet") \
            or {}
        worker = str(fleet.get("worker_id", "unknown"))
        counts[worker] = counts.get(worker, 0) + 1
    return counts


def bench_fleet(make_state, ops_count: int, threads: int,
                convoy_samples: int):
    results = {}
    for label, workers in (("fleet_1_worker", 1), ("fleet_2_workers", 2)):
        state_dir, deployment = make_state()
        fleet = FleetUnderTest(state_dir, workers=workers)
        try:
            rps, p50, p99 = run_load(
                fleet.url, mixed_ops(deployment, ops_count), threads)
            convoy_p50, convoy_p99 = convoy_latencies(
                fleet.url, deployment, convoy_samples)
            spread = worker_spread(
                fleet.url, samples=max(40, convoy_samples // 2))
            results[label] = {"workers": workers, "requests": ops_count,
                              "req_per_s": rps, "p50_s": p50,
                              "p99_s": p99,
                              "convoyed_read_p50_s": convoy_p50,
                              "convoyed_read_p99_s": convoy_p99,
                              "sockets": fleet.sockets,
                              "worker_requests": spread,
                              "workers_answering": len(spread)}
        finally:
            fleet.stop()
    one, two = results["fleet_1_worker"], results["fleet_2_workers"]
    results["throughput_speedup"] = two["req_per_s"] / one["req_per_s"]
    results["convoyed_read_p50_speedup"] = (
        one["convoyed_read_p50_s"] / two["convoyed_read_p50_s"])
    return results


# -- entry points ---------------------------------------------------------------


def run_benchmark(requests: int, threads: int, n_points: int,
                  check: bool = True, write_results: bool = True):
    cached_floor = _env_float("BENCH_LOAD_CACHED_FLOOR",
                              CACHED_SPEEDUP_FLOOR)
    fleet_floor = _env_float("BENCH_LOAD_FLEET_FLOOR", FLEET_SPEEDUP_FLOOR)
    convoy_floor = _env_float("BENCH_LOAD_CONVOY_FLOOR",
                              CONVOY_SPEEDUP_FLOOR)
    uncached_floor = _env_float("BENCH_LOAD_UNCACHED_FLOOR",
                                UNCACHED_RPS_FLOOR)
    cores = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix="bench-service-load-")
    try:
        cache_state = os.path.join(workdir, "cache-state")
        deployment = populate_state(cache_state, n_points)
        cache_results = bench_cache(cache_state, deployment, requests,
                                    threads)

        counter = {"n": 0}

        def make_state():
            counter["n"] += 1
            state_dir = os.path.join(workdir, f"fleet-state-{counter['n']}")
            return state_dir, populate_state(state_dir, n_points)

        fleet_results = bench_fleet(make_state, max(100, requests // 4),
                                    threads,
                                    convoy_samples=max(50, requests // 10))

        results = {
            "host": {"cpu_count": cores,
                     "python": platform.python_version()},
            "config": {"requests": requests, "threads": threads,
                       "corpus_points": n_points, "cpu_cores": cores,
                       "cached_floor": cached_floor,
                       "uncached_floor_req_per_s": uncached_floor,
                       "fleet_floor": fleet_floor,
                       "convoy_floor": convoy_floor},
            "advice_cache": cache_results,
            "fleet_mixed_load": fleet_results,
        }
        if write_results:
            with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
                json.dump(results, fh, indent=1)
                fh.write("\n")

        print(f"\n=== service load benchmark @ {requests} requests, "
              f"{threads} threads, {n_points}-point corpus ===")
        for label in ("uncached", "cached"):
            row = cache_results[label]
            print(f"advice {label:9}: {row['req_per_s']:8.1f} req/s   "
                  f"p50 {row['p50_s'] * 1e3:7.2f} ms   "
                  f"p99 {row['p99_s'] * 1e3:7.2f} ms")
        print(f"cache speedup: {cache_results['speedup']:.1f}x "
              f"(floor {cached_floor:.1f}x)")
        print(f"uncached (cold) advice: "
              f"{cache_results['uncached']['req_per_s']:.1f} req/s "
              f"(floor {uncached_floor:.1f}), "
              f"p50 {cache_results['uncached']['p50_s'] * 1e3:.2f} ms, "
              f"p99 {cache_results['uncached']['p99_s'] * 1e3:.2f} ms")
        for label in ("fleet_1_worker", "fleet_2_workers"):
            row = fleet_results[label]
            print(f"{label:15}: {row['req_per_s']:8.1f} req/s   "
                  f"p50 {row['p50_s'] * 1e3:7.2f} ms   "
                  f"p99 {row['p99_s'] * 1e3:7.2f} ms   "
                  f"convoyed-read p50 "
                  f"{row['convoyed_read_p50_s'] * 1e3:7.2f} ms")
        print(f"fleet throughput speedup: "
              f"{fleet_results['throughput_speedup']:.2f}x "
              f"(floor > {fleet_floor:.2f}x on >=2 cores; "
              f"this host has {cores})")
        print(f"fleet convoyed-read p50 speedup: "
              f"{fleet_results['convoyed_read_p50_speedup']:.1f}x "
              f"(floor {convoy_floor:.1f}x)")
        two_workers = fleet_results["fleet_2_workers"]
        print(f"2-worker request spread ({two_workers['sockets']} "
              f"sockets): {two_workers['worker_requests']}")

        if check:
            assert cache_results["speedup"] >= cached_floor, (
                f"cached advice speedup {cache_results['speedup']:.1f}x "
                f"below the {cached_floor:.1f}x floor"
            )
            assert (cache_results["uncached"]["req_per_s"]
                    >= uncached_floor), (
                f"uncached advice "
                f"{cache_results['uncached']['req_per_s']:.1f} req/s "
                f"below the {uncached_floor:.1f} req/s floor"
            )
            if cores >= 2:
                assert fleet_results["throughput_speedup"] > fleet_floor, (
                    f"2-worker fleet speedup "
                    f"{fleet_results['throughput_speedup']:.2f}x not above "
                    f"the {fleet_floor:.2f}x floor"
                )
            else:
                # One core cannot yield a throughput win for CPU-bound
                # advice math; the fleet's single-core win is killing
                # the head-of-line convoy for cheap reads.
                assert (fleet_results["convoyed_read_p50_speedup"]
                        >= convoy_floor), (
                    f"convoyed cheap-read p50 speedup "
                    f"{fleet_results['convoyed_read_p50_speedup']:.1f}x "
                    f"below the {convoy_floor:.1f}x floor"
                )
            if two_workers["sockets"] == "per-worker":
                # With one reuseport socket per worker, independent
                # connections must reach every process — all probes
                # landing on one worker would mean the per-socket
                # layout is not actually balancing.
                assert two_workers["workers_answering"] >= 2, (
                    f"per-worker sockets but only "
                    f"{two_workers['worker_requests']} answered probes"
                )
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _configured() -> tuple:
    return (_env_int("BENCH_LOAD_REQUESTS", 2000),
            _env_int("BENCH_LOAD_THREADS", 8),
            _env_int("BENCH_LOAD_POINTS", 4000))


def test_service_load():
    """CI smoke: the cache and fleet floors hold at the configured scale."""
    requests, threads, points = _configured()
    run_benchmark(requests, threads, points)


def main(argv=None) -> int:
    import argparse

    requests, threads, points = _configured()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=requests)
    parser.add_argument("--threads", type=int, default=threads)
    parser.add_argument("--points", type=int, default=points)
    parser.add_argument("--no-check", action="store_true",
                        help="report without asserting the floors")
    args = parser.parse_args(argv)
    run_benchmark(args.requests, args.threads, args.points,
                  check=not args.no_check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
