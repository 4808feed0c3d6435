"""``ingest_advise``: writes beside reads, in one thread of one process.

Starting from a 50k-point corpus, each cycle appends a seeded batch of
200 points with new execution times through the store's
``append_points``, then asks for measured advice and for spot advice at
one fixed eviction rate.  Every cycle pays the column fetch, the
snapshot encode, and cold risk kernels for the new points only — the
cold-advice cliff.  ``advise`` is its no-change twin.

The operation is a cycle.  Each set-up runs in its own interpreter, so
the process-wide snapshot cache and risk memo start cold every time.  A
speed probe runs before every cycle, and times are reported at reference
speed (``speed.py``).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import tempfile
import time

import common
import inputs
import speed
from tracer import Tracer, layer_metrics, overhead_pct

#: Set-ups per end-to-end run; the median is reported.
SETUPS = 2


def worker(seed: int, seconds: float, trace: bool, setup_only: bool,
           workdir: str, started: float) -> dict:
    from repro.api.requests import AdviseRequest
    from repro.api.session import AdvisorSession

    mark = time.perf_counter()
    before = speed.probes()
    started += time.perf_counter() - mark   # the probes are not set-up
    state_dir = tempfile.mkdtemp(prefix="ingest-", dir=workdir)
    session = AdvisorSession(state_dir=state_dir, store_backend="sqlite")
    name = session.deploy(inputs.advice_config()).name
    session.collect(deployment=name)
    store = session.data_store(name)
    store.append_points(inputs.corpus_points(seed, name))
    measured = AdviseRequest(deployment=name)
    spot = AdviseRequest(deployment=name, capacity="spot",
                         eviction_rate=inputs.spot_rates(seed)[0])
    session.advise(measured)   # snapshot build
    session.advise(spot)       # risk memo for the corpus
    gc.collect()
    setup_s = (time.perf_counter() - started) * speed.gauge(before)
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if trace else None
    batches = inputs.ingest_batches(seed, name)
    cycles, readings, op_walls = [], [], {}
    failed = 0
    last = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = next(batches)
        readings.append(speed.probe())
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.op = len(cycles)
            tracer.install_layers()
        begin = time.perf_counter()
        try:
            store.append_points(batch)
            last = (session.advise(measured), session.advise(spot))
        except Exception as exc:  # noqa: BLE001 - a failed cycle is counted
            print(f"ingest_advise: cycle failed: {exc!r}", file=sys.stderr)
            failed += 1
            last = None
        elapsed = time.perf_counter() - begin
        if traced:
            tracer.uninstall()
            op_walls[len(cycles)] = elapsed
        cycles.append((elapsed, traced, last is not None))
    peak_rss_mb = common.own_peak_rss_mb()
    check(session, name, measured, spot, last)
    factors = speed.local_factors(readings)
    cycles = [(elapsed * scale, traced, ok) for (elapsed, traced, ok), scale
              in zip(cycles, factors)]

    summary = {
        "setup_s": setup_s,
        "cycles": [c[0] for c in cycles if c[2] and not c[1]],
        "traced_cycles": [c[0] for c in cycles if c[2] and c[1]],
        "busy_s": sum(c[0] for c in cycles if not c[1]),
        "attempted": len(cycles),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "engines": {"measured": last[0].engine, "spot": last[1].engine},
        "speed_factor": common.median(factors),
    }
    if tracer:
        summary["raw"] = tracer.totals(op_walls)
        tracer.write(common.trace_path("ingest_advise", seed))
    return summary


def check(session, name: str, measured, spot, last) -> None:
    """The snapshot is fresh and complete, and the last cycle's advice
    equals the objects engine's."""
    from repro.store.snapshot import snapshot_status

    if last is None:
        raise common.BenchError("the last cycle failed")
    store = session.data_store(name)
    status = snapshot_status(store)
    if not status["fresh"] or status["rows"] != store.count_points():
        raise common.BenchError(f"stale snapshot after the loop: {status}")
    for request, served in zip((measured, spot), last):
        oracle = session.advise(dataclasses.replace(request,
                                                    engine="objects"))
        left, right = served.to_dict(), oracle.to_dict()
        for data in (left, right):
            data.pop("engine"), data.pop("engine_fallback")
        if json.dumps(left, sort_keys=True) != json.dumps(right,
                                                          sort_keys=True):
            raise common.BenchError(
                f"capacity={request.capacity!r}: advice differs from "
                f"advise(engine='objects')")


def run(seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (metrics, attempted, failed, detail)."""
    args = ["ingest", str(seed), str(seconds), str(int(trace)), workdir]
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(common.run_worker(args + ["1"])["setup_s"])
    result = common.run_worker(args + ["0"])
    setups.append(result["setup_s"])
    detail = {"engines": result["engines"],
              "cycles": len(result["cycles"]) + len(result["traced_cycles"]),
              "spot_rate": inputs.spot_rates(seed)[0],
              "speed_factor": result["speed_factor"]}
    cycles = result["cycles"]
    if not trace:
        metrics = {
            "setup_s": (common.median(setups), "s"),
            "ops_per_s": (len(cycles) / result["busy_s"], "1/s"),
            "latency_p50_ms": (common.percentile(cycles, 50) * 1e3, "ms"),
            "latency_p90_ms": (common.percentile(cycles, 90) * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        return metrics, result["attempted"], result["failed"], detail
    traced = result["traced_cycles"]
    metrics = layer_metrics(
        result["raw"], len(traced),
        overhead_pct(len(cycles) / sum(cycles), len(traced) / sum(traced)))
    return metrics, result["attempted"], result["failed"], detail
