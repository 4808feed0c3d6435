"""Plot generation: the tool's four charts plus the Pareto concept figure.

Mirrors the paper's user experience: "When using the CLI, the plots are
generated in the current folder" — :func:`generate_plots` writes one SVG per
chart type into an output directory and returns the paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.core.plotdata import (
    PlotData,
    PlotInput,
    as_columns,
    efficiency,
    exectime_vs_cost,
    exectime_vs_nodes,
    pareto_scatter,
    speedup,
)
from repro.core.svg import render_chart
from repro.errors import DatasetError

#: Chart-type keys, in the paper's Sec. III-D order.
PLOT_TYPES = ("exectime", "cost", "speedup", "efficiency")


@dataclass(frozen=True)
class GeneratedPlot:
    kind: str
    path: str
    data: PlotData


def build_plot(dataset: PlotInput, kind: str,
               subtitle: Optional[str] = None) -> PlotData:
    """Build the PlotData for one chart type."""
    builders = {
        "exectime": exectime_vs_nodes,
        "cost": exectime_vs_cost,
        "speedup": speedup,
        "efficiency": efficiency,
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise DatasetError(
            f"unknown plot type {kind!r} (expected one of {PLOT_TYPES})"
        ) from None
    return builder(dataset, subtitle=subtitle)


def generate_plots(
    dataset: PlotInput,
    output_dir: str,
    kinds: Optional[List[str]] = None,
    subtitle: Optional[str] = None,
    include_pareto: bool = True,
) -> List[GeneratedPlot]:
    """Write SVG charts for the dataset; returns what was generated."""
    dataset = as_columns(dataset)  # a Dataset is converted once, here
    if dataset.n == 0:
        raise DatasetError("cannot plot an empty dataset")
    os.makedirs(output_dir, exist_ok=True)
    out: List[GeneratedPlot] = []
    for kind in kinds or list(PLOT_TYPES):
        data = build_plot(dataset, kind, subtitle=subtitle)
        path = os.path.join(output_dir, f"plot_{kind}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_chart(data))
        out.append(GeneratedPlot(kind=kind, path=path, data=data))
    if include_pareto:
        scatter, front = pareto_scatter(dataset)
        path = os.path.join(output_dir, "plot_pareto.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_chart(scatter, overlay=front))
        out.append(GeneratedPlot(kind="pareto", path=path, data=scatter))
    return out


def ascii_table(data: PlotData, width: int = 10) -> str:
    """Plain-text rendering of a chart's series (for terminal output)."""
    lines = [f"{data.title}" + (f"  [{data.subtitle}]" if data.subtitle else "")]
    lines.append(f"{data.xlabel} -> {data.ylabel}")
    for series in data.series:
        lines.append(f"  {series.label}:")
        for x, y in series.points:
            lines.append(f"    {x:>{width}.4g}  {y:>{width}.4g}")
    return "\n".join(lines) + "\n"
