"""Typed results returned by :class:`repro.api.AdvisorSession`.

Like the requests, these are frozen dataclasses with JSON round-tripping
(``to_dict``/``from_dict``/``to_json``), so CLI ``--json`` output, GUI
pages, and programmatic callers all consume the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.api.serde import DictMixin
from repro.core.advisor import AdviceRow
from repro.errors import ConfigError


def _decode_rows(raw) -> Tuple[AdviceRow, ...]:
    rows = []
    for item in raw or ():
        data = dict(item)
        data["appinputs"] = dict(data.get("appinputs", {}))
        rows.append(AdviceRow(**data))
    return tuple(rows)


def _render_rows(rows: Tuple[AdviceRow, ...]) -> str:
    """The paper's listing-style table for a row tuple."""
    from repro.core.advisor import Advisor
    from repro.core.dataset import Dataset

    return Advisor(Dataset()).render_table(list(rows))


@dataclass(frozen=True)
class SessionInfo(DictMixin):
    """One deployment as seen by the session (live or reattachable)."""

    name: str
    region: str = ""
    subscription: str = ""
    appname: str = ""
    scenario_count: int = 0
    vnet: str = ""
    storage_account: str = ""
    batch_account: str = ""
    jumpbox: Optional[str] = None
    created_at: float = 0.0
    #: Number of points collected so far (0 = collect not run yet).
    dataset_points: int = 0
    #: Set by deploy() when a previous same-named deployment's data had
    #: to be moved aside to the state dir's archive/.
    archived_data: Tuple[str, ...] = ()

    @property
    def has_data(self) -> bool:
        return self.dataset_points > 0


@dataclass(frozen=True)
class CollectResult(DictMixin):
    """Summary of one :meth:`AdvisorSession.collect` sweep."""

    deployment: str
    backend: str = "azurebatch"
    executed: int = 0
    completed: int = 0
    failed: int = 0
    skipped: int = 0
    predicted: int = 0
    task_cost_usd: float = 0.0
    infrastructure_cost_usd: float = 0.0
    provisioning_overhead_s: float = 0.0
    simulated_wall_s: float = 0.0
    #: Simulated sweep duration under the concurrency actually used; with
    #: ``max_parallel_pools`` > 1, independent SKU pools overlap and this
    #: drops well below the sequential duration.
    makespan_s: float = 0.0
    max_parallel_pools: int = 1
    #: Capacity tier the sweep ran on (``ondemand`` or ``spot``).
    capacity: str = "ondemand"
    #: Spot recovery policy in force (empty for on-demand sweeps).
    recovery: str = ""
    #: Spot interruptions absorbed across all scenarios.
    preemptions: int = 0
    #: Billed node-seconds that produced no surviving work.
    wasted_node_s: float = 0.0
    #: Execution engine that actually ran the sweep (``object`` or
    #: ``batched``).
    engine: str = "object"
    #: Why an ``auto`` or ``batched`` sweep fell back to the per-object
    #: scheduler (empty when no fallback happened).
    engine_fallback: str = ""
    failures: Tuple[str, ...] = ()
    dataset_points: int = 0
    dataset_path: str = ""
    #: Store the sweep wrote through: always ``sqlite``, the one store
    #: (kept like ``DataPointsResult.store_backend``, which perfbench's
    #: ``advise`` workload reads).
    store_backend: str = ""
    #: Smart-sampling extras (empty/zero when no sampler was used).
    sampler_decisions: Tuple[str, ...] = ()
    bottleneck_summary: str = ""
    budget_spent_usd: Optional[float] = None
    budget_skipped: int = 0
    #: Wall-time profile of the sweep by stage (``provision`` / ``setup``
    #: / ``scenario`` / ``persist`` / ``recovery`` plus ``total_s``), in
    #: real seconds — this is the reproduction's own cost, not the
    #: simulated cluster time ``simulated_wall_s`` reports.
    profile: Dict[str, float] = field(default_factory=dict)

    @property
    def total_tasks(self) -> int:
        return self.executed + self.skipped + self.predicted

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class AdviceResult(DictMixin):
    """The Pareto-front advice table for one deployment/filter."""

    deployment: str
    appname: str = ""
    sort_by: str = "time"
    rows: Tuple[AdviceRow, ...] = ()
    dataset_points: int = 0
    #: What-if capacity tier the advice was computed under ("" = as
    #: measured; see :class:`~repro.api.requests.AdviseRequest`).
    capacity: str = ""
    #: Advice read engine that served the request (``objects`` or
    #: ``columnar``; "" on results from older services).
    engine: str = ""
    #: Why a requested engine fell back to another ("" = no fallback).
    engine_fallback: str = ""

    _decoders = {"rows": _decode_rows}

    @property
    def best(self) -> Optional[AdviceRow]:
        return self.rows[0] if self.rows else None

    @property
    def cheapest(self) -> Optional[AdviceRow]:
        return min(self.rows, key=lambda r: r.cost_usd) if self.rows else None

    @property
    def fastest(self) -> Optional[AdviceRow]:
        return (min(self.rows, key=lambda r: r.exec_time_s)
                if self.rows else None)

    def render_table(self) -> str:
        return _render_rows(self.rows)

    def resorted(self, sort_by: str) -> "AdviceResult":
        if sort_by not in ("time", "cost"):
            raise ConfigError(
                f"sort_by must be 'time' or 'cost', got {sort_by!r}"
            )
        key = ((lambda r: (r.exec_time_s, r.cost_usd)) if sort_by == "time"
               else (lambda r: (r.cost_usd, r.exec_time_s)))
        return replace(self, sort_by=sort_by,
                       rows=tuple(sorted(self.rows, key=key)))


@dataclass(frozen=True)
class PredictResult(DictMixin):
    """Predicted advice (no executions) plus model quality metadata."""

    deployment: str
    appname: str = ""
    model: str = "ridge"
    inputs: Dict[str, str] = field(default_factory=dict)
    rows: Tuple[AdviceRow, ...] = ()
    trained_on: int = 0
    cv_mape: Optional[float] = None

    _decoders = {"rows": _decode_rows}

    def render_table(self) -> str:
        return _render_rows(self.rows)


@dataclass(frozen=True)
class CompareRow(DictMixin):
    """One matched scenario's before/after, flattened for JSON output."""

    appname: str
    sku: str = ""
    nnodes: int = 0
    ppn: int = 0
    inputs: str = ""
    time_a: float = 0.0
    time_b: float = 0.0
    cost_a: float = 0.0
    cost_b: float = 0.0
    time_ratio: float = 0.0
    cost_ratio: float = 0.0


def _decode_compare_rows(raw) -> Tuple[CompareRow, ...]:
    return tuple(CompareRow.from_dict(item) for item in raw or ())


@dataclass(frozen=True)
class CompareResult(DictMixin):
    """Matched-scenario comparison of two deployments' datasets."""

    deployment_a: str
    deployment_b: str = ""
    matched: int = 0
    only_in_a: Tuple[str, ...] = ()
    only_in_b: Tuple[str, ...] = ()
    geomean_time_ratio: Optional[float] = None
    regressions: int = 0
    improvements: int = 0
    rows: Tuple[CompareRow, ...] = ()

    _decoders = {"rows": _decode_compare_rows}

    @classmethod
    def from_comparison(cls, comparison, *, deployment_a: str,
                        deployment_b: str) -> "CompareResult":
        """Build from a :class:`repro.core.compare.DatasetComparison`."""

        def label(key) -> str:
            appname, sku, nnodes, _ppn, inputs = key
            return f"{appname} {sku} n={nnodes} {inputs}"

        return cls(
            deployment_a=deployment_a,
            deployment_b=deployment_b,
            matched=comparison.matched,
            only_in_a=tuple(label(k) for k in comparison.only_in_a),
            only_in_b=tuple(label(k) for k in comparison.only_in_b),
            geomean_time_ratio=(comparison.geomean_time_ratio
                                if comparison.rows else None),
            regressions=len(comparison.regressions()),
            improvements=len(comparison.improvements()),
            rows=tuple(
                CompareRow(
                    appname=row.key[0], sku=row.key[1], nnodes=row.key[2],
                    ppn=row.key[3], inputs=row.key[4],
                    time_a=row.time_a, time_b=row.time_b,
                    cost_a=row.cost_a, cost_b=row.cost_b,
                    time_ratio=row.time_ratio, cost_ratio=row.cost_ratio,
                )
                for row in comparison.rows
            ),
        )


def _decode_points(raw) -> Tuple:
    from repro.core.dataset import DataPoint

    return tuple(DataPoint.from_dict(item) for item in raw or ())


@dataclass(frozen=True)
class DataPointsResult(DictMixin):
    """One page of a deployment's data points (paginated listing).

    ``total`` counts every point matching the filter, ignoring the
    ``limit``/``offset`` window, so clients can page without a second
    count request.
    """

    deployment: str
    total: int = 0
    limit: Optional[int] = None
    offset: int = 0
    points: Tuple = ()
    #: Store that served the page: always ``sqlite``, the one store
    #: (perfbench's ``advise`` workload reads the field).
    store_backend: str = ""

    _decoders = {"points": _decode_points}

    @property
    def has_more(self) -> bool:
        return self.offset + len(self.points) < self.total


@dataclass(frozen=True)
class PlotResult(DictMixin):
    """Chart files written by :meth:`AdvisorSession.plot`."""

    deployment: str
    output_dir: str = ""
    paths: Tuple[str, ...] = ()
    kinds: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RecipeResult(DictMixin):
    """Executable recipes for one advice row (paper's Sec. VI vision)."""

    deployment: str
    row: Optional[AdviceRow] = None
    slurm_script: str = ""
    cluster_recipe: str = ""

    _decoders = {
        "row": lambda raw: (None if raw is None
                            else _decode_rows([raw])[0]),
    }
