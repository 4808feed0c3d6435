"""``sweep``: deploy and collect a LAMMPS grid, then a seeded spot slice.

The only workload that drives scenario physics, substrate billing,
eviction/recovery and the store's write path; the advice layers stay
idle.  Each repetition runs in its own interpreter, because in-process
repeats of one sweep drift by about 20%.

The operation is a scenario.  ``collect`` submits all of a sweep's
scenarios at once, so a scenario's latency is the time from the
``collect`` call to the progress callback that reports its result.
Times are at reference speed (``speed.py``): the progress callback runs
a speed probe every ``PROBE_EVERY`` results.
"""

from __future__ import annotations

import json
import math
import tempfile
import time

import common
import inputs
import speed
from tracer import Tracer, layer_metrics, overhead_pct

STAGES = ("scenario", "persist", "recovery", "provision")
#: Results between two speed probes inside an untraced collect.
PROBE_EVERY = 300


# -- one repetition (worker process) -------------------------------------------------


def worker(seed: int, traced: bool, workdir: str, started: float) -> dict:
    """Set up, sweep both deployments, check the outputs; return a
    summary.  ``started`` is the interpreter's first timestamp."""
    from repro.api.requests import CollectRequest
    from repro.api.session import AdvisorSession

    state_dir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    session = AdvisorSession(state_dir=state_dir, store_backend="sqlite")
    od_config, spot_config = inputs.sweep_configs(seed)
    grid = session.deploy(od_config)
    spot = session.deploy(spot_config)
    setup_s = (time.perf_counter() - started) * speed.gauge()

    requests = (
        (grid, od_config, CollectRequest(deployment=grid.name)),
        (spot, spot_config, CollectRequest(
            deployment=spot.name, capacity="spot",
            recovery="checkpoint_restart",
            eviction_rate=inputs.SPOT_EVICTION_RATE,
            eviction_seed=inputs.SPOT_EVICTION_SEED)),
    )
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install_layers()
    latencies, results, walls, raw_walls, factors = [], [], [], [], []
    try:
        for op, (_info, _config, request) in enumerate(requests):
            if tracer:
                tracer.op = op
            # Probes inside a traced collect would land in its profile.
            result, wall, raw_wall, scenario_ms, scales = _timed_collect(
                session, request, None if tracer else PROBE_EVERY)
            walls.append(wall)
            raw_walls.append(raw_wall)
            latencies.extend(scenario_ms)
            factors.extend(scales)
            results.append(result)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = common.own_peak_rss_mb()

    useful, wasted = 0.0, 0.0
    for (info, config, request), result in zip(requests, results):
        expected = len(config["appinputs"]["BOXFACTOR"]) \
            * len(config["skus"]) * len(config["nnodes"])
        if result.executed != expected or result.failed:
            raise common.BenchError(
                f"{info.name}: executed {result.executed}/{expected}, "
                f"failed {result.failed}: {result.failures[:2]}")
        u, w = _check_billing(session, info.name, request.capacity)
        if request.capacity == "spot":
            useful, wasted = u, w
        if not math.isclose(w, result.wasted_node_s, rel_tol=1e-9,
                            abs_tol=1e-6):
            raise common.BenchError(
                f"{info.name}: points waste {w} node-s, "
                f"sweep reports {result.wasted_node_s}")

    summary = {
        "setup_s": setup_s,
        "collect_s": sum(walls),
        "raw_collect_s": sum(raw_walls),
        "scenarios": sum(r.executed for r in results),
        "failed": sum(r.failed for r in results),
        "latencies_ms": [round(t, 6) for t in latencies],
        "peak_rss_mb": peak_rss_mb,
        "engines": [r.engine for r in results],
        "traced": traced,
        "speed_factor": common.median(factors),
    }
    if tracer:
        raw = tracer.totals({})
        for stage in STAGES:
            raw[f"profile.{stage}_s"] = sum(
                r.profile.get(stage, 0.0) for r in results)
        raw["unattributed_s"] = sum(
            wall - sum(v for k, v in r.profile.items() if k != "total_s")
            for wall, r in zip(raw_walls, results))
        raw["preemptions"] = sum(r.preemptions for r in results)
        raw["useful_node_s"], raw["wasted_node_s"] = useful, wasted
        summary["raw"] = raw
        tracer.write(common.trace_path("sweep", seed))
    return summary


def _timed_collect(session, request, probe_every):
    """``collect`` with a speed probe before and after it and, unless
    ``probe_every`` is None, after every ``probe_every``-th result.

    Returns (result, wall, raw wall, latencies in ms, the scale of each
    stretch between probes).  ``wall`` and each
    scenario's latency (from the ``collect`` call to its result) are at
    reference speed: the time between two probes is scaled by the probes
    around it, and the probes' own time is left out.
    """
    stamps = []
    first = speed.probe()

    def progress(_report, _total):
        now = time.perf_counter()
        stamps.append(now)
        if probe_every and len(stamps) % probe_every == 0:
            reading = speed.probe()
            probes.append((now, time.perf_counter(), reading))

    began = time.perf_counter()
    # (start, end, reading) of every probe
    probes = [(began, began, first)]
    result = session.collect(request, progress=progress)
    ended = time.perf_counter()
    probes.append((ended, ended, speed.probe()))

    readings = [p[2] for p in probes]
    scaled_at = [0.0]       # scaled time at the start of each probe
    factors = []
    for j in range(len(probes) - 1):
        factors.append(speed.factor(readings[max(0, j - 1):j + 3]))
        scaled_at.append(scaled_at[j]
                         + (probes[j + 1][0] - probes[j][1]) * factors[j])
    latencies, j = [], 0
    for stamp in stamps:
        while probes[j + 1][0] < stamp:
            j += 1
        latencies.append((scaled_at[j] + (stamp - probes[j][1])
                          * factors[j]) * 1e3)
    raw_wall = ended - began - sum(end - start for start, end, _ in probes)
    return result, scaled_at[-1], raw_wall, latencies, factors


def _check_billing(session, name: str, capacity: str):
    """billed node-s == useful + wasted for every point; returns the
    deployment's (useful, wasted) node-seconds."""
    prices = session.deployment(name).provider.prices
    region = session.deployment(name).region
    useful = wasted = 0.0
    for point in session.query_points(name):
        price = prices.hourly_price(point.sku, region,
                                    spot=capacity == "spot")
        billed = point.cost_usd / price * 3600.0
        used = point.exec_time_s * point.nnodes
        if not math.isclose(billed, used + point.wasted_node_s,
                            rel_tol=1e-9, abs_tol=1e-6):
            raise common.BenchError(
                f"{name}: billed {billed} node-s != useful {used} "
                f"+ wasted {point.wasted_node_s}")
        useful += used
        wasted += point.wasted_node_s
    return useful, wasted


# -- object vs batched equivalence slice ---------------------------------------------


def check_engines_agree(seed: int) -> None:
    """A small slice swept with ``engine=object`` and ``engine=batched``
    must produce byte-identical points, on-demand and spot."""
    from repro.api.requests import CollectRequest
    from repro.api.session import AdvisorSession

    config = inputs.equivalence_config(seed)
    for capacity in ("ondemand", "spot"):
        dumps = {}
        for engine in ("object", "batched"):
            session = AdvisorSession()
            info = session.deploy(config)
            result = session.collect(CollectRequest(
                deployment=info.name, engine=engine, capacity=capacity,
                recovery="checkpoint_restart",
                eviction_rate=inputs.SPOT_EVICTION_RATE,
                eviction_seed=inputs.SPOT_EVICTION_SEED))
            if result.engine != engine:
                raise common.BenchError(
                    f"asked for {engine}, ran {result.engine}: "
                    f"{result.engine_fallback}")
            dumps[engine] = json.dumps(
                [p.to_dict() for p in session.query_points(info.name)])
        if dumps["object"] != dumps["batched"]:
            raise common.BenchError(
                f"{capacity}: object and batched sweeps differ")


# -- the workload (driver process) ---------------------------------------------------


def run(seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (metrics, attempted, failed, detail)."""
    reps = []
    timed_s = 0.0
    # At least three repetitions, so set-up is measured several times
    # (traced runs alternate untraced and traced repetitions).
    while timed_s < seconds or len(reps) < (2 if trace else 3):
        traced = trace and len(reps) % 2 == 1
        rep = common.run_worker(
            ["sweep", str(seed), str(int(traced)), workdir])
        reps.append(rep)
        timed_s += rep["raw_collect_s"]
    check_engines_agree(seed)

    attempted = sum(r["scenarios"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    detail = {"repetitions": len(reps),
              "engines": sorted({e for r in reps for e in r["engines"]}),
              "scenarios_per_repetition": reps[0]["scenarios"],
              "speed_factor": common.median(
                  [r["speed_factor"] for r in reps])}
    detail["ops_per_s_by_repetition"] = [
        r["scenarios"] / r["collect_s"] for r in reps]
    traced_reps = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        latencies = [t for r in reps for t in r["latencies_ms"]]
        detail["latency_samples"] = len(latencies)
        metrics = {
            "setup_s": (common.median([r["setup_s"] for r in reps]), "s"),
            "ops_per_s": (_rate(reps), "1/s"),
            "latency_p50_ms": (common.percentile(latencies, 50), "ms"),
            "latency_p90_ms": (common.percentile(latencies, 90), "ms"),
            "peak_rss_mb": (common.median(
                [r["peak_rss_mb"] for r in reps]), "MB"),
        }
        return metrics, attempted, failed, detail

    raw = {}
    for rep in traced_reps:
        for key, value in rep["raw"].items():
            raw[key] = raw.get(key, 0.0) + value
    ops = sum(r["scenarios"] for r in traced_reps)
    billed = raw["useful_node_s"] + raw["wasted_node_s"]
    extra = {f"collect.profile.{stage}_ms":
             raw[f"profile.{stage}_s"] * 1e3 / ops for stage in STAGES}
    extra["sweep.preemptions"] = raw["preemptions"] / ops
    extra["sweep.useful_node_s_ratio"] = raw["useful_node_s"] / billed
    metrics = layer_metrics(
        raw, ops, overhead_pct(_rate(plain), _rate(traced_reps)), extra)
    return metrics, attempted, failed, detail


def _rate(reps) -> float:
    """Scenarios per second of collect time, pooled over repetitions, so
    a shared host's slow and fast phases average out over the run."""
    return sum(r["scenarios"] for r in reps) / sum(r["collect_s"]
                                                  for r in reps)
