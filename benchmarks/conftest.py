"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one of the paper's tables or figures
(see DESIGN.md's experiment index): it runs the full pipeline — deploy,
Algorithm-1 collection, dataset, plots/advice — prints the rows or series
the paper reports, asserts the *shape* against the published values, and
times the pipeline stage under ``pytest-benchmark``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.backends.base import ExecutionBackend
from repro.backends.slurm import SlurmBackend
from repro.core.collector import CollectionReport, DataCollector
from repro.core.config import MainConfig
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer, Deployment
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB
from repro.slurmsim.cluster import SlurmCluster

#: The paper's three evaluation SKUs (Sec. IV: 44/120/120 cores, InfiniBand).
PAPER_SKUS = ["Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3"]

#: Node counts on the x-axis of Figures 2, 4 and 5.
FIGURE_NNODES = [2, 4, 6, 8, 10, 12, 14, 16]

#: Node counts behind the advice listings (3, 4, 8, 16).
ADVICE_NNODES = [3, 4, 8, 16]


def paper_config(appname: str, appinputs: Dict[str, List[str]],
                 nnodes: List[int], rgprefix: str) -> MainConfig:
    return MainConfig.from_dict({
        "subscription": "paper-repro",
        "skus": PAPER_SKUS,
        "rgprefix": rgprefix,
        "appsetupurl": f"https://example.org/{appname}.sh",
        "nnodes": nnodes,
        "appname": appname,
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": appinputs,
        "tags": {"experiment": rgprefix},
    })


def make_backend(deployment: Deployment, kind: str = "azurebatch",
                 ) -> ExecutionBackend:
    if kind == "azurebatch":
        return AzureBatchBackend(service=deployment.batch)
    cluster = SlurmCluster(
        provider=deployment.provider,
        subscription=deployment.provider.get_subscription(
            deployment.subscription_name
        ),
        region=deployment.region,
    )
    return SlurmBackend(cluster=cluster)


def run_sweep(config: MainConfig, backend_kind: str = "azurebatch",
              sampler=None, delete_pools: bool = False,
              max_parallel_pools: int = 1,
              ) -> tuple[CollectionReport, Dataset, Deployment]:
    """Deploy and collect one configuration; returns (report, dataset)."""
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=make_backend(deployment, backend_kind),
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        deployment_name=deployment.name,
        sampler=sampler,
        delete_pool_on_switch=delete_pools,
        max_parallel_pools=max_parallel_pools,
    )
    report = collector.collect(generate_scenarios(config))
    return report, collector.dataset, deployment


@pytest.fixture(scope="session")
def lammps_figure_dataset() -> Dataset:
    """LAMMPS bf=30 over the figure grid (Figures 2-5)."""
    config = paper_config("lammps", {"BOXFACTOR": ["30"]},
                          FIGURE_NNODES, "figlammps")
    _, dataset, _ = run_sweep(config)
    return dataset


@pytest.fixture(scope="session")
def lammps_advice_dataset() -> Dataset:
    """LAMMPS bf=30 over the advice grid (Listing 4)."""
    config = paper_config("lammps", {"BOXFACTOR": ["30"]},
                          ADVICE_NNODES, "advlammps")
    _, dataset, _ = run_sweep(config)
    return dataset


@pytest.fixture(scope="session")
def openfoam_advice_dataset() -> Dataset:
    """OpenFOAM '40 16 16' over the advice grid (Listing 3)."""
    config = paper_config("openfoam", {"mesh": ["40 16 16"]},
                          ADVICE_NNODES, "advopenfoam")
    _, dataset, _ = run_sweep(config)
    return dataset


def print_series(title: str, data) -> None:
    """Emit a figure's series the way the paper's plots present them."""
    print(f"\n=== {title}" + (f"  [{data.subtitle}]" if data.subtitle else "")
          + " ===")
    print(f"    x: {data.xlabel}   y: {data.ylabel}")
    for series in data.series:
        pts = "  ".join(f"({x:g}, {y:.4g})" for x, y in series.points)
        print(f"    {series.label}: {pts}")
