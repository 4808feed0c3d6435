"""Machine-speed probe: report timings at a fixed reference speed.

On a shared host the same code runs up to ~1.7x slower for seconds to
minutes at a time, whenever neighbours load the machine; medians over a
run cannot remove phases that long.  So the benchmark runs a small fixed
piece of work (the probe) next to every operation it times, and scales
each measured time by ``REFERENCE_PROBE_S / probe time``: a timing taken
while the probe ran twice as slow as the reference counts half.  The
probe is the benchmark's own code, so a change to the program moves the
scaled times and not the probe.

Code slows by different amounts in a slow phase (compute more than
memory reads), so the probe mixes both; the scaled times of the three
workloads still drift by a few percent between phases.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics
import time
from typing import List, Sequence

#: Probe time that defines the reference speed: about what the probe takes
#: on an unloaded 2-vCPU x86 VM.
REFERENCE_PROBE_S = 0.004
#: Probe readings on each side that a local speed estimate takes the
#: median of.
RADIUS = 2

_FIXTURE = None


def _fixture():
    global _FIXTURE
    if _FIXTURE is None:
        import numpy

        rng = numpy.random.default_rng(0)
        records = [{"sku": f"sku{i % 7}", "nnodes": i % 32, "time": i * 0.5}
                   for i in range(4000)]
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE points (id INTEGER, body TEXT)")
        db.executemany("INSERT INTO points VALUES (?, ?)",
                       [(i, json.dumps(r)) for i, r in enumerate(records)])
        _FIXTURE = (rng.random(20_000), records[:600],
                    rng.random(1 << 20),                       # 8 MiB
                    rng.integers(0, 1 << 20, 150_000), db)
    return _FIXTURE


def probe() -> float:
    """Seconds one fixed piece of work takes right now.

    Three parts, in proportions that track this program's work best on
    a shared 2-vCPU VM: interpreter and NumPy compute, random reads from
    an array four times the size of L2, and a SQLite ``json_extract``
    scan.
    """
    import numpy

    values, records, table_8mib, picks, db = _fixture()
    started = time.perf_counter()
    table, acc = {}, 0
    for i in range(6000):
        table[i & 511] = acc
        acc += i * i % 7
    numpy.sort(values)
    json.dumps(records)
    table_8mib[picks].sum()
    db.execute("SELECT sum(json_extract(body, '$.time')) "
               "FROM points").fetchone()
    return time.perf_counter() - started


def factor(readings: Sequence[float]) -> float:
    """Scale for a time taken next to ``readings``."""
    return REFERENCE_PROBE_S / statistics.median(readings)


def probes(count: int = 3) -> List[float]:
    return [probe() for _ in range(count)]


def gauge(before: Sequence[float] = ()) -> float:
    """Scale for a time taken just before now, from three fresh probes
    and the ``before`` readings taken when it began."""
    return factor(list(before) + probes())


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    A neighbour can slow one CPU of a shared host and not the other;
    with the client, the server and the probe on one CPU, the probe
    measures the CPU the work ran on.  Returns that CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def local_factors(readings: Sequence[float]) -> List[float]:
    """For the i-th of a series of probes, each taken next to one
    operation, the scale from the median of its neighbourhood."""
    return [factor(readings[max(0, i - RADIUS):i + RADIUS + 1])
            for i in range(len(readings))]
