"""Series extraction for the paper's four plot types (Sec. III-D).

1. **Execution Time vs Number of Nodes** — per VM type (Fig. 2);
2. **Execution Time vs Cost** — per VM type (Fig. 3);
3. **Speed up** — vs the single smallest-node-count run of the same VM type
   (Fig. 4);
4. **Efficiency** — speedup over number of nodes (Fig. 5; values above 1
   are superlinear).

Series are keyed by the SKU short name (``hb120rs_v3`` style, as in the
paper's legends); the subtitle mirrors the paper's "atoms=860M"-style
annotation built from app variables or inputs.

Every builder reads one model of the data: the columns of a
:class:`~repro.store.snapshot.ColumnarSnapshot` (what
``AdvisorSession.snapshot`` returns).  A :class:`Dataset` is converted
to columns once, at the builder's entry (:func:`as_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.errors import DatasetError
from repro.store.snapshot import ColumnarSnapshot, code_mask

PlotInput = Union[Dataset, ColumnarSnapshot]


def as_columns(data: PlotInput) -> ColumnarSnapshot:
    """The builders' input as snapshot columns.

    Callers filter before building: ``snapshot(name).view(query)`` for a
    stored corpus, ``dataset.query(query)`` for an in-memory one.
    """
    if isinstance(data, Dataset):
        return ColumnarSnapshot.from_points(data.points())
    return data


@dataclass(frozen=True)
class Series:
    """One plotted line: a label plus (x, y) pairs sorted by x."""

    label: str
    points: Tuple[Tuple[float, float], ...]

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]


@dataclass(frozen=True)
class PlotData:
    """A full chart: titled series with axis labels."""

    title: str
    xlabel: str
    ylabel: str
    series: Tuple[Series, ...]
    subtitle: str = ""

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise DatasetError(f"no series labelled {label!r}")


def _short(sku: str) -> str:
    name = sku
    if name.lower().startswith("standard_"):
        name = name[len("standard_"):]
    return name.lower()


def _group_rows_by_sku(snap: ColumnarSnapshot) -> Dict[str, np.ndarray]:
    """Row indices per short SKU name, rows in store order.

    Distinct full SKU spellings can share one short name, so grouping
    goes through the code table and merges them.
    """
    shorts = [_short(sku) for sku in snap.skus]
    out: Dict[str, np.ndarray] = {}
    for short in sorted(set(shorts)):
        rows = np.flatnonzero(
            code_mask(snap.sku_codes, shorts, lambda s: s == short))
        if rows.size:
            out[short] = rows
    return out


def _sorted_pairs(xs: np.ndarray, ys: np.ndarray) -> Tuple[Tuple[float, float], ...]:
    """``tuple(sorted(zip(xs, ys)))`` with native floats, via lexsort."""
    order = np.lexsort((ys, xs))
    return tuple(zip(xs[order].tolist(), ys[order].tolist()))


def _require_points(snap: ColumnarSnapshot, what: str) -> None:
    if snap.n == 0:
        raise DatasetError(f"no data points to build the {what} plot")


_SUBTITLE_VARS = {
    "LAMMPSATOMS": "atoms", "OFCELLS": "cells", "WRFGRIDPOINTS": "points",
    "GMXATOMS": "atoms", "NAMDATOMS": "atoms", "MMSIZE": "msize",
}


def default_subtitle(dataset: PlotInput) -> str:
    """Paper-style subtitle like ``atoms=860M`` from app vars or inputs:
    the first row (store order) that has a size variable or any input
    answers."""
    snap = as_columns(dataset)
    for var_code, inp_code in zip(snap.app_vars_codes.tolist(),
                                  snap.appinputs_codes.tolist()):
        app_vars = snap.app_vars_groups[var_code]
        for key in _SUBTITLE_VARS:
            if key in app_vars:
                return f"{_SUBTITLE_VARS[key]}={_human(float(app_vars[key]))}"
        appinputs = snap.appinputs_groups[inp_code]
        if appinputs:
            return ",".join(f"{k}={v}" for k, v in sorted(appinputs.items()))
    return ""


def _human(value: float) -> str:
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if value >= threshold:
            return f"{value / threshold:.0f}{suffix}"
    return f"{value:g}"


def _plot(snap: ColumnarSnapshot, title: str, xlabel: str, ylabel: str,
          series: List[Series], subtitle: Optional[str]) -> PlotData:
    return PlotData(
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
        series=tuple(series),
        subtitle=subtitle if subtitle is not None else default_subtitle(snap),
    )


# -- the four plot types -------------------------------------------------------------


def exectime_vs_nodes(dataset: PlotInput,
                      subtitle: Optional[str] = None) -> PlotData:
    """Plot type 1 (the paper's Fig. 2)."""
    snap = as_columns(dataset)
    _require_points(snap, "exec-time-vs-nodes")
    nodes = snap.nnodes.astype(np.float64)
    series = [Series(label=sku, points=_sorted_pairs(
                  nodes[rows], snap.exec_time_s[rows]))
              for sku, rows in _group_rows_by_sku(snap).items()]
    return _plot(snap, "Exectime", "Number of VMs",
                 "Execution time (seconds)", series, subtitle)


def exectime_vs_cost(dataset: PlotInput,
                     subtitle: Optional[str] = None) -> PlotData:
    """Plot type 2 (the paper's Fig. 3): x = exec time, y = cost."""
    snap = as_columns(dataset)
    _require_points(snap, "exec-time-vs-cost")
    series = [Series(label=sku, points=_sorted_pairs(
                  snap.exec_time_s[rows], snap.cost_usd[rows]))
              for sku, rows in _group_rows_by_sku(snap).items()]
    return _plot(snap, "Cost", "Execution time (seconds)", "Cost (USD)",
                 series, subtitle)


def _speedup_rows(snap: ColumnarSnapshot,
                  rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(kept rows, speedup per kept row) for one SKU's rows.

    The paper defines speedup vs the single-node run; when a sweep starts
    above one node (their Figures start at 2), the smallest run is the
    reference and speedup is normalised by the node ratio.  The
    reference is the first row (store order) with the fewest nodes;
    rows with a zero execution time are left out.
    """
    ref = rows[int(np.argmin(snap.nnodes[rows]))]
    ref_nodes, ref_time = float(snap.nnodes[ref]), float(snap.exec_time_s[ref])
    keep = rows[snap.exec_time_s[rows] > 0]
    return keep, ref_nodes * ref_time / snap.exec_time_s[keep]


def speedup(dataset: PlotInput,
            subtitle: Optional[str] = None) -> PlotData:
    """Plot type 3 (the paper's Fig. 4)."""
    snap = as_columns(dataset)
    _require_points(snap, "speedup")
    series = []
    for sku, rows in _group_rows_by_sku(snap).items():
        keep, gain = _speedup_rows(snap, rows)
        series.append(Series(label=sku, points=_sorted_pairs(
            snap.nnodes[keep].astype(np.float64), gain)))
    return _plot(snap, "Speedup", "Number of VMs", "Speedup", series,
                 subtitle)


def efficiency(dataset: PlotInput,
               subtitle: Optional[str] = None) -> PlotData:
    """Plot type 4 (the paper's Fig. 5): speedup / nodes, >1 is superlinear."""
    snap = as_columns(dataset)
    _require_points(snap, "efficiency")
    series = []
    for sku, rows in _group_rows_by_sku(snap).items():
        keep, gain = _speedup_rows(snap, rows)
        series.append(Series(label=sku, points=_sorted_pairs(
            snap.nnodes[keep].astype(np.float64),
            gain / snap.nnodes[keep])))
    return _plot(snap, "Efficiency", "Number of VMs", "Efficiency", series,
                 subtitle)


def pareto_scatter(dataset: PlotInput) -> Tuple[PlotData, Series]:
    """The Fig. 6 concept plot: all scenarios plus the Pareto front line."""
    from repro.core.pareto import pareto_front

    snap = as_columns(dataset)
    _require_points(snap, "pareto")
    all_points = _sorted_pairs(snap.exec_time_s, snap.cost_usd)
    front = pareto_front(list(all_points))
    scatter = PlotData(
        title="Advice based on pareto front",
        xlabel="Execution time (seconds)",
        ylabel="Cost (USD)",
        series=(Series(label="Scenarios", points=all_points),),
    )
    return scatter, Series(label="Pareto Front", points=tuple(front))
