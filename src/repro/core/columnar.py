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
  makespans from the closed form.  The per-row results are kept on the
  snapshot per eviction model and recovery policy, so a repeated
  what-if skips the grouping, and one on an extended snapshot groups
  only the appended rows;
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
the correctness oracle (``AdviseRequest(engine="objects")``).
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
from repro.store.snapshot import ColumnarSnapshot, code_mask
from repro.telemetry import global_registry

_RISK_COLUMNS = global_registry().counter(
    "advisor_risk_columns_total",
    "Spot risk-column lookups on a snapshot, by result: hit (kept for"
    " every row), extended (computed for the appended rows only) or"
    " computed (for every row).",
)


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
        p95=p95_by_group.take(codes),
        has_p95=has_by_group.take(codes),
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
    """Per-row task cost, computed in place in ``hourly`` (a per-row
    price array the caller owns)."""
    # Same associativity as PriceCatalog.task_cost:
    # ((nodes * price) * seconds) / 3600.0 — bit-exact per element.
    cost = np.multiply(nnodes, hourly, out=hourly)
    cost *= seconds
    cost /= 3600.0
    return cost


def _rates_per_row(snap: ColumnarSnapshot, eviction: EvictionModel,
                   start: int = 0) -> np.ndarray:
    """``eviction.rate_per_hour(sku, nnodes)`` per row from ``start``
    on, deduped on one packed (sku code, node count) integer key."""
    nnodes = snap.nnodes[start:]
    low = int(nnodes.min())
    span = int(nnodes.max()) - low + 1
    keys = snap.sku_codes[start:].astype(np.int64) * span + (nnodes - low)
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


def _spot_risks(snap: ColumnarSnapshot, model: EvictionModel,
                recovery: str, checkpoint_interval_s: float,
                checkpoint_overhead_s: float,
                p95_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """(P95, expected) makespan per row of a non-empty snapshot.

    Kept in the snapshot's row memo under every input that decides a
    row's value, besides the row's own exec time, SKU and node count.
    An entry inherited from the snapshot this one extends covers its
    first rows; only the rows after them are grouped and looked up.
    Each row's value is a pure function of its (exec time, rate) pair
    and the key, so every path gives the same bits.
    """
    key = ("spot_risks", tuple(sorted(model.rates.items())),
           model.default_rate_per_hour, model.region, model.seed,
           recovery, checkpoint_interval_s, checkpoint_overhead_s,
           p95_samples)
    entry = snap.row_memo(key)
    done = 0 if entry is None else len(entry[0])
    if done == snap.n:
        _RISK_COLUMNS.labels(result="hit").inc()
        return entry
    rates = _rates_per_row(snap, model, done)
    exec_times = snap.exec_time_s[done:]
    firsts, inverse = _unique_pairs(exec_times, rates)
    p95, expected = spot_pair_risks(
        exec_times[firsts], rates[firsts], recovery,
        checkpoint_interval_s, checkpoint_overhead_s,
        samples=p95_samples, seed=model.seed)
    p95, expected = p95[inverse], expected[inverse]
    if entry is not None:
        p95 = np.concatenate((entry[0], p95))
        expected = np.concatenate((entry[1], expected))
    snap.keep_row_memo(key, (p95, expected))
    _RISK_COLUMNS.labels(
        result="computed" if entry is None else "extended").inc()
    return p95, expected


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
    earlier request evaluated.  A spot view reuses the risk columns an
    earlier request left on the snapshot (:func:`_spot_risks`).
    """
    if capacity == "ondemand":
        base = advice_columns(snap)
        hourly = _price_per_sku(snap, catalog, region, spot=False)
        return AdviceColumns(
            n=base.n,
            exec_time_s=base.exec_time_s,
            cost_usd=_task_cost(snap.nnodes, hourly.take(snap.sku_codes),
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
            p95, expected = _spot_risks(
                snap, model, recovery, checkpoint_interval_s,
                checkpoint_overhead_s, p95_samples)
        else:
            p95 = expected = np.empty(0, dtype=np.float64)
        try:
            spot_code = snap.capacities.index("spot")
            capacities = snap.capacities
        except ValueError:
            capacities = snap.capacities + ("spot",)
            spot_code = len(capacities) - 1
        # Measured-spot rows keep their realized makespan (exec time
        # when unset) and cost; converted rows get the expected values.
        # Every row ends up on the spot code.
        measured_spot = snap.capacity_codes == spot_code
        hourly = _price_per_sku(snap, catalog, region, spot=True)
        cost = _task_cost(snap.nnodes, hourly.take(snap.sku_codes),
                          expected)
        np.copyto(cost, snap.cost_usd, where=measured_spot)
        makespan = expected.copy()
        np.copyto(makespan, snap.makespan_s, where=measured_spot)
        np.copyto(makespan, snap.exec_time_s,
                  where=measured_spot & (snap.makespan_s == 0.0))
        return AdviceColumns(
            n=snap.n,
            exec_time_s=snap.exec_time_s,
            cost_usd=cost,
            nnodes=snap.nnodes,
            ppn=snap.ppn,
            predicted=snap.predicted,
            preemptions=snap.preemptions,
            makespan_s=makespan,
            sku_codes=snap.sku_codes,
            skus=snap.skus,
            appname_codes=snap.appname_codes,
            appnames=snap.appnames,
            appinputs_codes=snap.appinputs_codes,
            appinputs_groups=snap.appinputs_groups,
            capacity_codes=np.full(snap.n, spot_code, dtype=np.int32),
            capacities=capacities,
            p95=p95,
            has_p95=np.ones(snap.n, dtype=bool),
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
    if appname is None and not appinputs:
        # Nothing filters: the objectives read the columns themselves.
        idx = None
        size = cols.n
    else:
        idx = np.flatnonzero(_filter_mask(cols, appname, appinputs))
        size = idx.size
    if size == 0:
        raise AdvisorError(
            "no completed data points match the advice filter"
        )

    def rows_of(column: np.ndarray) -> np.ndarray:
        return column if idx is None else column[idx]

    # One (objectives, rows) array, handed over as its (rows,
    # objectives) transpose: the Pareto kernels work on exactly that
    # contiguous layout, so they copy nothing more.
    if objective == "effective":
        # The effective time is the makespan, or the exec time where
        # the makespan is unset.
        with_p95 = bool(rows_of(cols.has_p95).all())
        objectives = np.stack(
            [rows_of(cols.makespan_s), rows_of(cols.cost_usd)]
            + ([rows_of(cols.p95)] if with_p95 else []))
        np.copyto(objectives[0], rows_of(cols.exec_time_s),
                  where=objectives[0] == 0.0)
        front = (pareto_indices_nd(objectives.T) if with_p95
                 else pareto_indices(objectives.T))
    else:
        front = pareto_indices(
            np.stack([rows_of(cols.exec_time_s), rows_of(cols.cost_usd)]).T)
    if idx is not None:
        front = idx[front].tolist()
    rows = [_advice_row(cols, i, objective) for i in front]
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
        want = tuple((str(k), str(v)) for k, v in appinputs.items())
        mask &= code_mask(cols.appinputs_codes, cols.appinputs_groups,
                          lambda g: all(g.get(k) == v for k, v in want))
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
