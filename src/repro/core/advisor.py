"""Advice generation: the Pareto front rendered as the paper's tables.

Listing 3/4 format::

    Exectime(s) Cost($)  Nodes  SKU
    34          0.5440   16     hb120rs_v3
    ...

"sorted by the least execution time first, but the tool has the option to
have the data sorted by cost as well."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dataset import Dataset
from repro.core.pareto import pareto_select, pareto_select_nd
from repro.errors import AdvisorError


@dataclass(frozen=True)
class AdviceRow:
    """One Pareto-efficient configuration."""

    exec_time_s: float
    cost_usd: float
    nnodes: int
    sku: str
    ppn: int = 0
    appinputs: Dict[str, str] = field(default_factory=dict)
    predicted: bool = False
    #: Capacity tier behind the numbers ("" for legacy/measured rows).
    capacity: str = ""
    #: Spot interruptions absorbed by the underlying measurement.
    preemptions: int = 0
    #: Expected (or realized) completion time including eviction recovery;
    #: 0 means "same as exec_time_s" (uninterrupted capacity).
    makespan_s: float = 0.0
    #: P95 of the makespan distribution under the eviction model (spot
    #: what-if advice only; 0 when not computed).
    p95_makespan_s: float = 0.0

    @property
    def sku_short(self) -> str:
        name = self.sku
        if name.lower().startswith("standard_"):
            name = name[len("standard_"):]
        return name.lower()

    @property
    def effective_time_s(self) -> float:
        """Honest time-to-result: the makespan when known, else exec time."""
        return self.makespan_s or self.exec_time_s


class Advisor:
    """Builds advice tables from a dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def advise(
        self,
        appname: Optional[str] = None,
        appinputs: Optional[Dict[str, str]] = None,
        sort_by: str = "time",
        max_rows: Optional[int] = None,
        objective: str = "measured",
    ) -> List[AdviceRow]:
        """Pareto-efficient configurations for the (filtered) dataset.

        Parameters
        ----------
        appname, appinputs:
            Optional data filter (the paper's ``advice`` command takes one);
            mixing different applications or inputs in one front would be
            meaningless, so filter accordingly.
        sort_by:
            ``"time"`` (default, as in the paper's listings) or ``"cost"``.
        max_rows:
            Truncate the table (None = all Pareto points).
        objective:
            ``"measured"`` (the paper's front over application execution
            time vs cost) or ``"effective"`` — the risk-adjusted front
            over expected makespan, cost, and (when the points carry a
            ``p95_makespan_s`` metric, as capacity views produce) the
            P95 makespan as a third objective: two configurations tying
            on expectation still differ by tail risk.
        """
        if sort_by not in ("time", "cost"):
            raise AdvisorError(f"sort_by must be 'time' or 'cost', got {sort_by!r}")
        if objective not in ("measured", "effective"):
            raise AdvisorError(
                f"objective must be 'measured' or 'effective', "
                f"got {objective!r}"
            )
        data = self.dataset.filter(appname=appname, appinputs=appinputs)
        points = data.points()
        if not points:
            raise AdvisorError(
                "no completed data points match the advice filter"
            )
        from repro.core.cost import P95_METRIC

        if objective == "effective":
            with_p95 = all(P95_METRIC in p.infra_metrics for p in points)

            def eff(p) -> float:
                return p.makespan_s or p.exec_time_s

            if with_p95:
                efficient = pareto_select_nd(
                    points,
                    key=lambda p: (eff(p), p.cost_usd,
                                   p.infra_metrics[P95_METRIC]),
                )
            else:
                efficient = pareto_select(
                    points, key=lambda p: (eff(p), p.cost_usd)
                )
        else:
            efficient = pareto_select(
                points, key=lambda p: (p.exec_time_s, p.cost_usd)
            )
        rows = [
            AdviceRow(
                exec_time_s=p.exec_time_s,
                cost_usd=p.cost_usd,
                nnodes=p.nnodes,
                sku=p.sku,
                ppn=p.ppn,
                appinputs=dict(p.appinputs),
                predicted=p.predicted,
                capacity=p.capacity if p.capacity != "ondemand" or
                objective == "effective" else "",
                preemptions=p.preemptions,
                makespan_s=p.makespan_s,
                p95_makespan_s=float(
                    p.infra_metrics.get(P95_METRIC, 0.0)
                ),
            )
            for p in efficient
        ]
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

    def render_table(self, rows: List[AdviceRow]) -> str:
        """Render rows in the paper's listing format.

        Spot rows extend the listing with the risk columns (expected and
        P95 makespan); pure on-demand tables keep the paper's exact
        four-column shape.
        """
        if not rows:
            return "(no advice rows)\n"
        spot = any(r.capacity == "spot" for r in rows)
        if spot:
            lines = [
                f"{'Exectime(s)':>11} {'E[Span](s)':>10} {'P95(s)':>8} "
                f"{'Cost($)':>8} {'Nodes':>6}  SKU"
            ]
        else:
            lines = [f"{'Exectime(s)':>11} {'Cost($)':>8} {'Nodes':>6}  SKU"]
        for row in rows:
            marker = " *" if row.predicted else ""
            if row.capacity == "spot":
                marker += " [spot]"
                if row.preemptions:
                    marker += f" ({row.preemptions} evictions)"
            if spot:
                p95 = (_fmt_seconds(row.p95_makespan_s, 8)
                       if row.p95_makespan_s else f"{'-':>8}")
                lines.append(
                    f"{row.exec_time_s:>11.0f} "
                    f"{_fmt_seconds(row.effective_time_s, 10)} "
                    f"{p95} {_fmt_cost(row.cost_usd)} "
                    f"{row.nnodes:>6}  {row.sku_short}{marker}"
                )
            else:
                lines.append(
                    f"{row.exec_time_s:>11.0f} {row.cost_usd:>8.4f} "
                    f"{row.nnodes:>6}  {row.sku_short}{marker}"
                )
        if any(r.predicted for r in rows):
            lines.append("(* predicted by the sampling model, not executed)")
        return "\n".join(lines) + "\n"


def _fmt_seconds(value: float, width: int) -> str:
    """Plain seconds up to a week of simulated time, scientific beyond.

    Risk-adjusted expected makespans explode exponentially with the
    eviction rate; a 200-digit integer column helps nobody.
    """
    if value < 1e6:
        return f"{value:>{width}.0f}"
    return f"{value:>{width}.1e}"


def _fmt_cost(value: float) -> str:
    if value < 1e4:
        return f"{value:>8.4f}"
    return f"{value:>8.1e}"
