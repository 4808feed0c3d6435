"""Columnar advice engine: the advisor pipeline as array operations.

The legacy path rehydrates every stored row into a
:class:`~repro.core.dataset.DataPoint` and walks Python loops for cost
views, Pareto selection, and row assembly.  This module re-expresses
that pipeline over a :class:`~repro.store.snapshot.ColumnarSnapshot`:

* capacity what-ifs (:func:`capacity_columns`) become vectorized price
  and renewal-model math.  The risk kernels run once per unique
  ``(exec time, rate)`` pair through this engine's own process-wide
  memo (:func:`repro.core.cost.spot_pair_risks`): the pairs it lacks get
  their Monte-Carlo P95s from one batched kernel call
  (:func:`repro.core.cost.p95_spot_runtimes`) and their expected
  makespans from the closed form;
* advice (:func:`advise_columns`) filters by dictionary codes and runs
  the vectorized Pareto sweeps, materializing
  :class:`~repro.core.advisor.AdviceRow` objects only for the front;
* comparison (:func:`compare_snapshots`) builds scenario keys straight
  from the decoded columns.

**Equivalence contract**: every function here returns *byte-identical*
results to its object-path twin (``Advisor.advise``, ``capacity_view``
+ ``spot_view_point``/``ondemand_view_point``, ``compare_datasets``).
Scalar arithmetic is reproduced operation-for-operation (same
associativity; the batched P95 kernel is bit-identical to the scalar
one the object path calls), Pareto selection uses comparisons only,
and tie-breaking follows the same stable orders.  The contract is
pinned by goldens and a Hypothesis suite in
``tests/test_columnar_advice.py``; the object path stays available as
the fallback and correctness oracle (``engine="objects"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.advisor import AdviceRow
from repro.core.compare import ComparisonRow, DatasetComparison
from repro.core.cost import P95_METRIC, spot_pair_risks
# Not called here: perfbench's tracer wraps these names in this module,
# so they stay importable from it.
from repro.core.cost import (  # noqa: F401
    expected_spot_runtime_cached, p95_spot_runtime_cached)
from repro.core.pareto import pareto_indices, pareto_indices_nd
from repro.errors import AdvisorError
from repro.store.snapshot import ColumnarSnapshot

#: Advice read engines (request vocabulary, mirroring the collect
#: engines): ``auto`` resolves to ``columnar``; ``objects`` forces the
#: legacy DataPoint path (the correctness oracle).
ADVICE_ENGINES = ("auto", "objects", "columnar")


def resolve_advice_engine(choice: str) -> Tuple[str, str]:
    """(effective engine, fallback reason) for a requested engine."""
    if choice not in ADVICE_ENGINES:
        raise AdvisorError(
            f"engine must be one of {ADVICE_ENGINES}, got {choice!r}"
        )
    if choice == "objects":
        return "objects", ""
    return "columnar", ""


def describe_advice_engines() -> List[Dict[str, str]]:
    """Feature matrix for the CLI ``engines`` listing."""
    return [
        {
            "engine": "auto",
            "description": "resolves to 'columnar' (the default)",
            "data_access": "-",
            "risk_math": "-",
            "coverage": "delegates",
        },
        {
            "engine": "objects",
            "description": "legacy per-DataPoint loops (correctness "
                           "oracle)",
            "data_access": "full rehydration per request",
            "risk_math": "per-point closed form + Monte-Carlo",
            "coverage": "advice, compare, predict, plots",
        },
        {
            "engine": "columnar",
            "description": "NumPy snapshot columns, cached per store "
                           "generation",
            "data_access": "columnar snapshot (LRU, ETag-keyed)",
            "risk_math": "vectorized; per unique pair, memoized: "
                         "closed form + batched Monte-Carlo",
            "coverage": "advice, compare, predict, plots "
                        "(byte-identical to objects)",
        },
    ]


@dataclass
class AdviceColumns:
    """The advisor's working set: one capacity view as columns."""

    n: int
    exec_time_s: np.ndarray
    cost_usd: np.ndarray
    nnodes: np.ndarray
    ppn: np.ndarray
    predicted: np.ndarray
    preemptions: np.ndarray
    makespan_s: np.ndarray
    sku_codes: np.ndarray
    skus: Tuple[str, ...]
    appname_codes: np.ndarray
    appnames: Tuple[str, ...]
    appinputs_codes: np.ndarray
    appinputs_groups: Tuple[Dict[str, str], ...]
    capacity_codes: np.ndarray
    capacities: Tuple[str, ...]
    #: Per-row ``infra_metrics.get(P95_METRIC, 0.0)`` / presence flag.
    p95: np.ndarray
    has_p95: np.ndarray


def advice_columns(snap: ColumnarSnapshot) -> AdviceColumns:
    """The measured (as-collected) view of a snapshot."""
    p95_by_group = np.asarray(
        [float(g.get(P95_METRIC, 0.0)) for g in snap.infra_groups],
        dtype=np.float64,
    )
    has_by_group = np.asarray(
        [P95_METRIC in g for g in snap.infra_groups], dtype=bool
    )
    codes = snap.infra_codes
    return AdviceColumns(
        n=snap.n,
        exec_time_s=snap.exec_time_s,
        cost_usd=snap.cost_usd,
        nnodes=snap.nnodes,
        ppn=snap.ppn,
        predicted=snap.predicted,
        preemptions=snap.preemptions,
        makespan_s=snap.makespan_s,
        sku_codes=snap.sku_codes,
        skus=snap.skus,
        appname_codes=snap.appname_codes,
        appnames=snap.appnames,
        appinputs_codes=snap.appinputs_codes,
        appinputs_groups=snap.appinputs_groups,
        capacity_codes=snap.capacity_codes,
        capacities=snap.capacities,
        p95=(p95_by_group[codes] if snap.n
             else np.empty(0, dtype=np.float64)),
        has_p95=(has_by_group[codes] if snap.n
                 else np.empty(0, dtype=bool)),
    )


def _price_per_sku(snap: ColumnarSnapshot, catalog: PriceCatalog,
                   region: Optional[str], spot: bool) -> np.ndarray:
    """Hourly price per SKU code, memoized per snapshot generation."""
    # The memo holds the catalog itself, so its id cannot be reused by
    # another catalog while the (shared, long-lived) snapshot lives.
    _, memo = snap.price_memo().setdefault(id(catalog), (catalog, {}))
    out = np.empty(len(snap.skus), dtype=np.float64)
    for code, sku in enumerate(snap.skus):
        key = (sku, region, spot)
        price = memo.get(key)
        if price is None:
            price = catalog.hourly_price(sku, region, spot)
            memo[key] = price
        out[code] = price
    return out


def _task_cost(nnodes: np.ndarray, hourly: np.ndarray,
               seconds: np.ndarray) -> np.ndarray:
    # Same associativity as PriceCatalog.task_cost:
    # ((nodes * price) * seconds) / 3600.0 — bit-exact per element.
    return nnodes * hourly * seconds / 3600.0


def _rates_per_row(snap: ColumnarSnapshot,
                   eviction: EvictionModel) -> np.ndarray:
    """``eviction.rate_per_hour(sku, nnodes)`` per row, deduped on one
    packed (sku code, node count) integer key."""
    low = int(snap.nnodes.min())
    span = int(snap.nnodes.max()) - low + 1
    keys = snap.sku_codes.astype(np.int64) * span + (snap.nnodes - low)
    uniq, inverse = np.unique(keys, return_inverse=True)
    rates = np.asarray([
        eviction.rate_per_hour(snap.skus[int(key) // span],
                               int(key) % span + low)
        for key in uniq
    ], dtype=np.float64)
    return rates[np.asarray(inverse).reshape(-1)]


def _unique_pairs(values: np.ndarray,
                  rates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct ``(value, rate)`` pair, each row's
    pair number), grouped on the raw float64 bits.

    Grouping by bits is never coarser than grouping by value, so the
    row that stands for a group holds exactly every member's inputs.
    """
    left, right = values.view(np.uint64), rates.view(np.uint64)
    order = np.lexsort((right, left))
    left, right = left[order], right[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    starts[1:] = (left[1:] != left[:-1]) | (right[1:] != right[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def capacity_columns(
    snap: ColumnarSnapshot,
    catalog: PriceCatalog,
    capacity: str,
    eviction: Optional[EvictionModel] = None,
    region: Optional[str] = None,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    p95_samples: int = 256,
) -> AdviceColumns:
    """Columnar twin of :func:`repro.core.cost.capacity_view`.

    Produces exactly the advice-relevant columns the object view's
    points would carry (costs, makespans, P95 metric, capacity labels),
    with the risk kernels evaluated once per unique ``(exec_time,
    rate)`` pair instead of once per point, and only for pairs no
    earlier request evaluated.
    """
    base = advice_columns(snap)
    if capacity == "ondemand":
        hourly = _price_per_sku(snap, catalog, region, spot=False)
        return AdviceColumns(
            n=base.n,
            exec_time_s=base.exec_time_s,
            cost_usd=_task_cost(snap.nnodes, hourly[snap.sku_codes],
                                snap.exec_time_s),
            nnodes=base.nnodes,
            ppn=base.ppn,
            predicted=base.predicted,
            preemptions=np.zeros(base.n, dtype=np.int64),
            makespan_s=snap.exec_time_s,
            sku_codes=base.sku_codes,
            skus=base.skus,
            appname_codes=base.appname_codes,
            appnames=base.appnames,
            appinputs_codes=base.appinputs_codes,
            appinputs_groups=base.appinputs_groups,
            capacity_codes=np.full(base.n, 0, dtype=np.int32),
            capacities=("ondemand",),
            p95=base.p95,
            has_p95=base.has_p95,
        )
    if capacity == "spot":
        model = eviction if eviction is not None else EvictionModel(
            region=region
        )
        if snap.n:
            rates = _rates_per_row(snap, model)
            firsts, inverse = _unique_pairs(snap.exec_time_s, rates)
            p95, expected = spot_pair_risks(
                snap.exec_time_s[firsts], rates[firsts], recovery,
                checkpoint_interval_s, checkpoint_overhead_s,
                samples=p95_samples, seed=model.seed)
            p95, expected = p95[inverse], expected[inverse]
        else:
            p95 = expected = np.empty(0, dtype=np.float64)
        measured_spot = np.asarray(
            [c == "spot" for c in snap.capacities], dtype=bool
        )[snap.capacity_codes] if snap.n else np.empty(0, dtype=bool)
        hourly = _price_per_sku(snap, catalog, region, spot=True)
        spot_cost = _task_cost(snap.nnodes, hourly[snap.sku_codes],
                               expected)
        # Measured-spot rows keep their realized makespan (exec time
        # when unset) and cost; converted rows get the expected values.
        kept_span = np.where(snap.makespan_s == 0.0, snap.exec_time_s,
                             snap.makespan_s)
        try:
            spot_code = snap.capacities.index("spot")
            capacities = snap.capacities
        except ValueError:
            capacities = snap.capacities + ("spot",)
            spot_code = len(capacities) - 1
        return AdviceColumns(
            n=base.n,
            exec_time_s=base.exec_time_s,
            cost_usd=np.where(measured_spot, snap.cost_usd, spot_cost),
            nnodes=base.nnodes,
            ppn=base.ppn,
            predicted=base.predicted,
            preemptions=base.preemptions,
            makespan_s=np.where(measured_spot, kept_span, expected),
            sku_codes=base.sku_codes,
            skus=base.skus,
            appname_codes=base.appname_codes,
            appnames=base.appnames,
            appinputs_codes=base.appinputs_codes,
            appinputs_groups=base.appinputs_groups,
            capacity_codes=np.where(
                measured_spot, snap.capacity_codes,
                np.int32(spot_code)).astype(np.int32),
            capacities=capacities,
            p95=p95,
            has_p95=np.ones(base.n, dtype=bool),
        )
    raise AdvisorError(
        f"capacity must be 'ondemand' or 'spot', got {capacity!r}"
    )


def advise_columns(
    cols: AdviceColumns,
    appname: Optional[str] = None,
    appinputs: Optional[Dict[str, str]] = None,
    sort_by: str = "time",
    max_rows: Optional[int] = None,
    objective: str = "measured",
) -> List[AdviceRow]:
    """Columnar twin of :meth:`repro.core.advisor.Advisor.advise`."""
    if sort_by not in ("time", "cost"):
        raise AdvisorError(f"sort_by must be 'time' or 'cost', got {sort_by!r}")
    if objective not in ("measured", "effective"):
        raise AdvisorError(
            f"objective must be 'measured' or 'effective', "
            f"got {objective!r}"
        )
    keep = _filter_mask(cols, appname, appinputs)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        raise AdvisorError(
            "no completed data points match the advice filter"
        )
    exec_t = cols.exec_time_s[idx]
    cost = cols.cost_usd[idx]
    makespan = cols.makespan_s[idx]
    if objective == "effective":
        eff = np.where(makespan == 0.0, exec_t, makespan)
        if bool(cols.has_p95[idx].all()):
            front = pareto_indices_nd(
                np.stack([eff, cost, cols.p95[idx]], axis=1)
            )
        else:
            front = pareto_indices(np.stack([eff, cost], axis=1))
    else:
        front = pareto_indices(np.stack([exec_t, cost], axis=1))
    rows = [_advice_row(cols, int(idx[i]), objective) for i in front]
    time_key = ((lambda r: r.effective_time_s)
                if objective == "effective"
                else (lambda r: r.exec_time_s))
    if sort_by == "time":
        rows.sort(key=lambda r: (time_key(r), r.cost_usd))
    else:
        rows.sort(key=lambda r: (r.cost_usd, time_key(r)))
    if max_rows is not None:
        rows = rows[:max_rows]
    return rows


def _filter_mask(cols: AdviceColumns, appname: Optional[str],
                 appinputs: Optional[Dict[str, str]]) -> np.ndarray:
    """``Dataset.filter(appname=..., appinputs=...)`` as a row mask."""
    mask = np.ones(cols.n, dtype=bool)
    if appname is not None:
        try:
            code = cols.appnames.index(appname)
        except ValueError:
            return np.zeros(cols.n, dtype=bool)
        mask &= cols.appname_codes == code
    if appinputs:
        want = {str(k): str(v) for k, v in appinputs.items()}
        ok = [i for i, g in enumerate(cols.appinputs_groups)
              if all(g.get(k) == v for k, v in want.items())]
        mask &= np.isin(cols.appinputs_codes, ok)
    return mask


def _advice_row(cols: AdviceColumns, i: int, objective: str) -> AdviceRow:
    capacity = cols.capacities[cols.capacity_codes[i]]
    return AdviceRow(
        exec_time_s=float(cols.exec_time_s[i]),
        cost_usd=float(cols.cost_usd[i]),
        nnodes=int(cols.nnodes[i]),
        sku=cols.skus[cols.sku_codes[i]],
        ppn=int(cols.ppn[i]),
        appinputs=dict(cols.appinputs_groups[cols.appinputs_codes[i]]),
        predicted=bool(cols.predicted[i]),
        capacity=(capacity if capacity != "ondemand"
                  or objective == "effective" else ""),
        preemptions=int(cols.preemptions[i]),
        makespan_s=float(cols.makespan_s[i]),
        p95_makespan_s=float(cols.p95[i]),
    )


# -- comparison -------------------------------------------------------------------


def _scenario_index(snap: ColumnarSnapshot) -> Dict[tuple, int]:
    """scenario_key -> row index, last occurrence winning (like
    ``compare_datasets``'s dict comprehension over append order)."""
    inputs_keys = snap.inputs_keys
    keys = zip(snap.appname_codes.tolist(), snap.sku_codes.tolist(),
               snap.nnodes.tolist(), snap.ppn.tolist(),
               snap.appinputs_codes.tolist())
    return {
        (snap.appnames[a], snap.skus[s], n, p, inputs_keys[g]): row
        for row, (a, s, n, p, g) in enumerate(keys)
    }


def compare_snapshots(a: ColumnarSnapshot,
                      b: ColumnarSnapshot) -> DatasetComparison:
    """Columnar twin of :func:`repro.core.compare.compare_datasets`."""
    index_a = _scenario_index(a)
    index_b = _scenario_index(b)
    rows = [
        ComparisonRow(
            key=key,
            time_a=float(a.exec_time_s[index_a[key]]),
            time_b=float(b.exec_time_s[index_b[key]]),
            cost_a=float(a.cost_usd[index_a[key]]),
            cost_b=float(b.cost_usd[index_b[key]]),
        )
        for key in sorted(set(index_a) & set(index_b))
    ]
    return DatasetComparison(
        rows=rows,
        only_in_a=sorted(set(index_a) - set(index_b)),
        only_in_b=sorted(set(index_b) - set(index_a)),
    )
