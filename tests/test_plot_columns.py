"""The plot builders read snapshot columns only; this checks them against
a per-point loop reference over random small corpora, with tied
measurements, zero execution times and several spellings of one short
SKU name (their series merge)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DataPoint, Dataset
from repro.core.plotdata import (
    default_subtitle,
    efficiency,
    exectime_vs_cost,
    exectime_vs_nodes,
    pareto_scatter,
    speedup,
)
from repro.store.snapshot import ColumnarSnapshot

SKUS = ["Standard_HB120rs_v3", "standard_hb120rs_v3", "HB120rs_v3",
        "Standard_HC44rs", "hc44rs"]


def _short(sku):
    name = sku.lower()
    return name[len("standard_"):] if name.startswith("standard_") else name


def reference(points, kind):
    """(label, sorted pairs) per short SKU name, one point at a time."""
    groups = {}
    for p in points:
        groups.setdefault(_short(p.sku), []).append(p)
    out = []
    for sku, group in sorted(groups.items()):
        ref = min(group, key=lambda p: p.nnodes)  # first of the fewest
        base = float(ref.nnodes) * ref.exec_time_s
        if kind == "exectime":
            pairs = [(float(p.nnodes), p.exec_time_s) for p in group]
        elif kind == "cost":
            pairs = [(p.exec_time_s, p.cost_usd) for p in group]
        elif kind == "speedup":
            pairs = [(float(p.nnodes), base / p.exec_time_s)
                     for p in group if p.exec_time_s > 0]
        else:
            pairs = [(float(p.nnodes), base / p.exec_time_s / p.nnodes)
                     for p in group if p.exec_time_s > 0]
        out.append((sku, tuple(sorted(pairs))))
    return tuple(out)


def reference_subtitle(points):
    sizes = {"LAMMPSATOMS": "atoms", "OFCELLS": "cells",
             "WRFGRIDPOINTS": "points", "GMXATOMS": "atoms",
             "NAMDATOMS": "atoms", "MMSIZE": "msize"}
    for p in points:
        for key, label in sizes.items():
            if key in p.app_vars:
                value = float(p.app_vars[key])
                for threshold, suffix in ((1e9, "B"), (1e6, "M"),
                                          (1e3, "K")):
                    if value >= threshold:
                        return f"{label}={value / threshold:.0f}{suffix}"
                return f"{label}={value:g}"
        if p.appinputs:
            return ",".join(f"{k}={v}" for k, v in sorted(p.appinputs.items()))
    return ""


points_st = st.lists(st.builds(
    DataPoint,
    appname=st.just("lammps"),
    sku=st.sampled_from(SKUS),
    nnodes=st.sampled_from([1, 2, 2, 4, 16]),
    ppn=st.just(120),
    exec_time_s=st.sampled_from([0.0, 10.0, 36.0])
    | st.floats(0, 1e4, allow_nan=False),
    cost_usd=st.sampled_from([0.0, 0.5]) | st.floats(0, 100, allow_nan=False),
    appinputs=st.sampled_from([{}, {"BOXFACTOR": "30"}, {"b": "2", "a": "1"}]),
    app_vars=st.sampled_from([{}, {"LAMMPSATOMS": "864000000"},
                              {"OFCELLS": "512"}, {"OTHER": "x"}]),
), min_size=1, max_size=12)

BUILDERS = {"exectime": exectime_vs_nodes, "cost": exectime_vs_cost,
            "speedup": speedup, "efficiency": efficiency}


@settings(max_examples=300, deadline=None)
@given(points_st)
def test_builders_equal_the_point_loop(points):
    for data in (Dataset(points), ColumnarSnapshot.from_points(points)):
        for kind, builder in BUILDERS.items():
            chart = builder(data)
            got = tuple((s.label, s.points) for s in chart.series)
            # repr: exact bits, -0.0 included.
            assert repr(got) == repr(reference(points, kind)), kind
            assert chart.subtitle == reference_subtitle(points)
        assert default_subtitle(data) == reference_subtitle(points)
        scatter, _ = pareto_scatter(data)
        assert repr(scatter.series[0].points) == repr(tuple(sorted(
            (p.exec_time_s, p.cost_usd) for p in points)))
