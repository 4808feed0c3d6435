"""Seeded inputs for every workload.

Everything the program receives — sweep grids, the advice corpus, the
request mix, appended batches and what-if eviction rates — is a pure
function of the ``--seed`` argument, drawn from ``random.Random``
streams keyed by the seed and a purpose label.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

#: The paper's three evaluation SKUs (Sec. IV).
SKUS = ("Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3")

#: Approximate pay-as-you-go USD per node-hour, used only to give the
#: synthetic corpus realistic time/cost trade-offs.
HOURLY_USD = {"Standard_HC44rs": 3.168, "Standard_HB120rs_v2": 3.60,
              "Standard_HB120rs_v3": 3.60}

# -- sweep --------------------------------------------------------------------------

SWEEP_NNODES = (2, 4, 6, 8)
SWEEP_INPUTS = 500          # x 3 SKUs x 4 node counts = 6,000 scenarios
SPOT_INPUTS = 85            # x 3 SKUs x 4 node counts = 1,020 scenarios
#: Spot slice pressure: 40 evictions per node-hour, eviction seed 7.
#: Its BOXFACTOR band keeps every run short enough that checkpoint
#: recovery finishes within the collector's 50-preemption give-up, so
#: no scenario fails (HC44rs runs start to give up above ~12.3).
SPOT_EVICTION_RATE = 40.0
SPOT_EVICTION_SEED = 7
SPOT_BOXFACTOR_BAND = (9.0, 11.5)
SWEEP_BOXFACTOR_BAND = (10.0, 40.0)
#: The object-vs-batched equivalence slice.
EQUIV_INPUTS = 4
EQUIV_NNODES = (2, 4)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{purpose}")


def _boxfactors(rng: random.Random, count: int,
                band: Tuple[float, float]) -> List[str]:
    values = set()
    while len(values) < count:
        values.add(f"{rng.uniform(*band):.2f}")
    return sorted(values)


def lammps_config(prefix: str, boxfactors: List[str],
                  nnodes=SWEEP_NNODES) -> Dict:
    return {
        "subscription": "perfbench",
        "skus": list(SKUS),
        "rgprefix": prefix,
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": list(nnodes),
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": boxfactors},
        "tags": {"experiment": "perfbench"},
    }


def sweep_configs(seed: int) -> Tuple[Dict, Dict]:
    """(on-demand grid, spot slice) deployment configurations."""
    rng = _rng(seed, "sweep")
    grid = _boxfactors(rng, SWEEP_INPUTS, SWEEP_BOXFACTOR_BAND)
    spot = _boxfactors(rng, SPOT_INPUTS, SPOT_BOXFACTOR_BAND)
    return lammps_config("sweepod", grid), lammps_config("sweepspot", spot)


def equivalence_config(seed: int) -> Dict:
    rng = _rng(seed, "equivalence")
    return lammps_config("sweepeq",
                         _boxfactors(rng, EQUIV_INPUTS, SPOT_BOXFACTOR_BAND),
                         nnodes=EQUIV_NNODES)


# -- advice corpus ------------------------------------------------------------------

CORPUS_POINTS = 50_000
CORPUS_NNODES = (1, 2, 4, 8, 16, 32)
CORPUS_BOXFACTORS = tuple(str(b) for b in range(4, 11))
#: Distinct single-node work amounts in the corpus (x 6 node counts =
#: distinct execution times).  Spot what-ifs evaluate their risk kernels
#: once per distinct (time, node count, rate), so this sets the size of
#: the risk memo the warm-up fills.
CORPUS_WORKS = 1000
SCALING_EXPONENT = 0.7
SPOT_SHARE = 1.0 / 11.0     # ~9% of the corpus was measured on spot
#: What-if eviction rates stay below 1 per node-hour: above it the
#: Monte-Carlo P95 kernel enters its censored loop (seconds per point).
#: The band is narrow so every seed's what-ifs cost about the same.
RATE_BAND = tuple(round(0.02 * k, 2) for k in range(4, 11))   # 0.08..0.20
SPOT_RATES_PER_RUN = 2
INGEST_BATCH = 200


def advice_config() -> Dict:
    """The deployment that owns the advice corpus (a two-scenario sweep
    gives it a real deployment record and task DB)."""
    return {
        "subscription": "perfbench",
        "skus": ["Standard_HB120rs_v3"],
        "rgprefix": "perfadvice",
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [1, 2],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["4"]},
        "tags": {"experiment": "perfbench"},
    }


def _point(rng: random.Random, work_s: float, deployment: str,
           index: int):
    """One measurement: ``work_s`` seconds of single-node work strong-
    scales over the node count, and cost follows billed node-hours, so
    the corpus has real time/cost trade-offs."""
    from repro.core.dataset import DataPoint

    sku = rng.choice(SKUS)
    nnodes = rng.choice(CORPUS_NNODES)
    spot = rng.random() < SPOT_SHARE
    exec_time = round(work_s / nnodes ** SCALING_EXPONENT, 3)
    price = HOURLY_USD[sku] * (0.3 if spot else 1.0)
    cost = price * nnodes * exec_time / 3600.0 * rng.uniform(0.95, 1.05)
    return DataPoint(
        appname="lammps", sku=sku, nnodes=nnodes, ppn=100,
        exec_time_s=exec_time, cost_usd=round(cost, 6),
        appinputs={"BOXFACTOR": rng.choice(CORPUS_BOXFACTORS)},
        tags={"experiment": "perfbench"},
        capacity="spot" if spot else "ondemand",
        preemptions=rng.randrange(3) if spot else 0,
        deployment=deployment, timestamp=float(index),
    )


def corpus_points(seed: int, deployment: str, count: int = CORPUS_POINTS):
    rng = _rng(seed, "corpus")
    pool = [round(rng.uniform(400.0, 4000.0), 1)
            for _ in range(CORPUS_WORKS)]
    return [_point(rng, rng.choice(pool), deployment, i)
            for i in range(count)]


def ingest_batches(seed: int, deployment: str) -> Iterator[list]:
    """Endless appended batches whose work amounts are new: the corpus
    draws from a pool of one-decimal values, batches from values ending
    in .05, so every batch pays cold risk kernels."""
    rng = _rng(seed, "ingest")
    index = CORPUS_POINTS
    while True:
        batch = []
        for _ in range(INGEST_BATCH):
            work_s = round(rng.uniform(400.0, 4000.0), 1) + 0.05
            batch.append(_point(rng, work_s, deployment, index))
            index += 1
        yield batch


def spot_rates(seed: int) -> List[float]:
    return sorted(_rng(seed, "rates").sample(RATE_BAND, SPOT_RATES_PER_RUN))


# -- advice request mix -------------------------------------------------------------

#: Request classes per block of ten, shuffled within the block.  The
#: shares keep p50 inside the typed-advice class and p90 inside the spot
#: class, away from any boundary between classes.
MIX_BLOCK = ("revalidate",) * 3 + ("advise",) * 4 + ("datapoints",) \
    + ("spot",) * 2


def revalidation_queries(seed: int, deployment: str) -> List[Dict]:
    """The GET /v1/advice queries clients keep revalidating."""
    rng = _rng(seed, "revalidate")
    return [
        {"deployment": deployment, "sort": "time"},
        {"deployment": deployment, "sort": "cost",
         "max_rows": str(rng.choice((3, 5, 10)))},
        {"deployment": deployment,
         "filter": f"BOXFACTOR={rng.choice(CORPUS_BOXFACTORS)}"},
    ]


def request_mix(seed: int, deployment: str,
                rates: List[float]) -> Iterator[Tuple[str, object]]:
    """Endless ``(class, payload)`` stream for the advise workload.

    Payloads: a query dict (revalidate), an ``AdviseRequest`` (advise,
    spot) or a ``Query`` (datapoints).
    """
    from repro.api.requests import AdviseRequest
    from repro.core.query import Query

    rng = _rng(seed, "mix")
    reval = revalidation_queries(seed, deployment)
    while True:
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "revalidate":
                yield kind, rng.choice(reval)
            elif kind == "advise":
                yield kind, AdviseRequest(
                    deployment=deployment,
                    filters={"BOXFACTOR": rng.choice(CORPUS_BOXFACTORS)},
                    nnodes=tuple(sorted(rng.sample(
                        CORPUS_NNODES, rng.randrange(0, 4)))),
                    sku=rng.choice((None, None) + SKUS),
                    sort_by=rng.choice(("time", "cost")),
                    max_rows=rng.choice((None, 3, 5, 10)))
            elif kind == "datapoints":
                yield kind, Query(
                    sku=rng.choice((None,) + SKUS),
                    nnodes=(rng.choice(CORPUS_NNODES),),
                    appinputs=({"BOXFACTOR": rng.choice(CORPUS_BOXFACTORS)}
                               if rng.random() < 0.5 else {}),
                    # Every filter combination matches ~400 points or
                    # more, so pages are never empty.
                    limit=50, offset=rng.randrange(0, 300))
            else:
                yield kind, AdviseRequest(
                    deployment=deployment, capacity="spot",
                    eviction_rate=rng.choice(rates),
                    sort_by=rng.choice(("time", "cost")),
                    max_rows=rng.choice((None, 5, 10)))
