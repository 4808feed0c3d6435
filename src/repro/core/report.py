"""Collection-sweep reports.

Renders a human-readable summary of a data-collection run: task states,
money spent (task vs infrastructure), per-SKU aggregates, failures — the
"collected, filtered, and organized" deliverable of the paper's pipeline in
a form suitable for a terminal, a file, or a pull-request comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.collector import CollectionReport
from repro.core.plotdata import PlotInput, as_columns
from repro.core.taskdb import TaskDB, TaskStatus
from repro.units import fmt_duration, fmt_usd


@dataclass(frozen=True)
class SkuAggregate:
    """Per-SKU rollup of a sweep."""

    sku: str
    scenarios: int
    total_time_s: float
    total_cost_usd: float
    best_time_s: float
    best_nodes: int


def aggregate_by_sku(data: PlotInput) -> List[SkuAggregate]:
    """One rollup per SKU spelling, in SKU order.  Totals are summed in
    row order, and the best run is the first of the fastest rows."""
    snap = as_columns(data)
    out = []
    for code in sorted(range(len(snap.skus)), key=snap.skus.__getitem__):
        rows = np.flatnonzero(snap.sku_codes == code)
        if not rows.size:
            continue
        times = snap.exec_time_s[rows].tolist()
        best = min(range(len(times)), key=times.__getitem__)
        out.append(SkuAggregate(
            sku=snap.skus[code],
            scenarios=len(times),
            total_time_s=sum(times),
            total_cost_usd=sum(snap.cost_usd[rows].tolist()),
            best_time_s=times[best],
            best_nodes=int(snap.nnodes[rows[best]]),
        ))
    return out


def render_report(
    report: CollectionReport,
    data: PlotInput,
    taskdb: Optional[TaskDB] = None,
    title: str = "Data collection report",
) -> str:
    """Render the full sweep summary as plain text.

    ``report`` is duck-typed: a :class:`CollectionReport` or anything with
    its summary fields (e.g. :class:`repro.api.results.CollectResult`).
    """
    lines = [f"=== {title} ===", ""]
    lines.append(
        f"scenarios: {report.total_tasks} total — "
        f"{report.completed} completed, {report.failed} failed, "
        f"{report.skipped} skipped, {report.predicted} predicted"
    )
    lines.append(
        f"spend: ${fmt_usd(report.task_cost_usd)} on tasks, "
        f"${fmt_usd(report.infrastructure_cost_usd)} billed infrastructure "
        f"(provisioning {fmt_duration(report.provisioning_overhead_s)})"
    )
    if report.task_cost_usd > 0:
        overhead = (report.infrastructure_cost_usd / report.task_cost_usd
                    - 1.0)
        lines.append(f"infrastructure overhead over pure task time: "
                     f"{overhead:.0%}")
    if getattr(report, "makespan_s", 0):
        lines.append(
            f"sweep makespan: {fmt_duration(report.makespan_s)} at "
            f"{report.max_parallel_pools} parallel pool(s)"
        )
    if getattr(report, "capacity", "ondemand") == "spot":
        lines.append(
            f"spot capacity: {getattr(report, 'preemptions', 0)} "
            f"preemption(s), "
            f"{fmt_duration(getattr(report, 'wasted_node_s', 0.0))} of "
            f"node-time wasted (recovery: "
            f"{getattr(report, 'recovery', '') or 'n/a'})"
        )
    lines.append("")

    aggregates = aggregate_by_sku(data)
    if aggregates:
        lines.append(f"{'SKU':<26} {'runs':>5} {'best time':>10} "
                     f"{'@nodes':>7} {'spend':>10}")
        for agg in aggregates:
            lines.append(
                f"{agg.sku:<26} {agg.scenarios:>5} "
                f"{agg.best_time_s:>9.0f}s {agg.best_nodes:>7} "
                f"${agg.total_cost_usd:>8.2f}"
            )
        lines.append("")

    if report.failures:
        lines.append("failures:")
        for failure in report.failures:
            lines.append(f"  - {failure}")
        lines.append("")

    if taskdb is not None:
        pending = [
            r.scenario.scenario_id
            for r in taskdb.in_status(TaskStatus.PENDING)
            if not r.skipped_by_sampler
        ]
        if pending:
            lines.append(f"still pending: {', '.join(pending)}")
            lines.append("")

    return "\n".join(lines).rstrip() + "\n"
