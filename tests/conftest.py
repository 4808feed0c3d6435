"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.api.registry import apps
from repro.backends.azurebatch import AzureBatchBackend
from repro.cloud.provider import CloudProvider
from repro.core.collector import DataCollector
from repro.core.config import MainConfig
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer, Deployment
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB

#: The paper's three evaluation SKUs.
PAPER_SKUS = ["Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3"]


def make_config(**overrides) -> MainConfig:
    """A small valid configuration; override any field."""
    base = {
        "subscription": "test-subscription",
        "skus": ["Standard_HB120rs_v3"],
        "rgprefix": "testrg",
        "appsetupurl": "https://example.org/app.sh",
        "nnodes": [1, 2],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["4"]},
        "tags": {"version": "test"},
    }
    base.update(overrides)
    return MainConfig.from_dict(base)


def collect_config(config: MainConfig) -> Dataset:
    """Deploy + collect a configuration, returning the dataset."""
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch),
        script=apps.create(config.appname),
        dataset=Dataset(),
        taskdb=TaskDB(),
        deployment_name=deployment.name,
    )
    collector.collect(generate_scenarios(config))
    return collector.dataset


@pytest.fixture
def provider() -> CloudProvider:
    return CloudProvider()


@pytest.fixture
def small_config() -> MainConfig:
    return make_config()


@pytest.fixture
def deployment(small_config) -> Deployment:
    return Deployer().deploy(small_config)


@pytest.fixture(scope="session")
def lammps_paper_dataset() -> Dataset:
    """The paper's Listing-4 sweep: LAMMPS bf=30 on 3 SKUs x [3,4,8,16]."""
    config = MainConfig.from_dict({
        "subscription": "paper",
        "skus": PAPER_SKUS,
        "rgprefix": "paperlammps",
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [3, 4, 8, 16],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["30"]},
    })
    return collect_config(config)


@pytest.fixture(scope="session")
def openfoam_paper_dataset() -> Dataset:
    """The paper's Listing-3 sweep: OpenFOAM '40 16 16' on 3 SKUs."""
    config = MainConfig.from_dict({
        "subscription": "paper",
        "skus": PAPER_SKUS,
        "rgprefix": "paperof",
        "appsetupurl": "https://example.org/openfoam.sh",
        "nnodes": [3, 4, 8, 16],
        "appname": "openfoam",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"mesh": ["40 16 16"]},
    })
    return collect_config(config)
