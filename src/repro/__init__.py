"""repro — a reproduction of HPCAdvisor (SC-W 2024).

HPCAdvisor assists users in selecting HPC resources in the cloud: given an
application, its inputs, and candidate VM types / node counts, it deploys a
cloud environment, sweeps the scenario space, and advises via the Pareto
front over execution time and cost.

This reproduction implements the complete tool over a *simulated* Azure
substrate (control plane, Batch service, InfiniBand cluster, application
performance models calibrated to the paper's published measurements), plus
the paper's planned extensions: smart sampling, a Slurm back-end, and
recipe generation.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart — the whole pipeline behind one typed facade::

    from repro import AdvisorSession

    result = AdvisorSession().run({
        "subscription": "my-subscription",
        "skus": ["Standard_HB120rs_v3", "Standard_HC44rs"],
        "rgprefix": "quickstart",
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [2, 4, 8],
        "appname": "lammps",
        "region": "southcentralus",
        "appinputs": {"BOXFACTOR": ["10"]},
    })
    print(result.render_table())        # the paper's advice table
    print(result.to_json())             # same object, machine-readable

Step by step (persistent sessions resume pools and datasets across
calls)::

    session = AdvisorSession(state_dir="~/.hpcadvisor-sim")
    info = session.deploy("config.yaml")
    session.collect(deployment=info.name, smart_sampling=True)
    advice = session.advise(deployment=info.name, sort_by="cost")

The pre-facade wiring (``Deployer`` -> ``DataCollector`` -> ``Advisor``,
see :mod:`repro.api.session` for what it looked like) still works and all
of its names remain importable from ``repro``; new code should prefer
:class:`repro.api.AdvisorSession`.
"""

from repro.errors import (
    AdvisorError,
    AppScriptError,
    BackendError,
    BatchError,
    CloudError,
    ConfigError,
    DatasetError,
    QuotaExceeded,
    ReproError,
    SamplingError,
)
from repro.cloud.provider import CloudProvider
from repro.cloud.pricing import PriceCatalog
from repro.cloud.skus import VmSku, get_sku, list_skus
from repro.core.advisor import AdviceRow, Advisor
from repro.core.collector import CollectionReport, DataCollector
from repro.core.config import MainConfig
from repro.core.dataset import DataPoint, Dataset
from repro.core.deployer import Deployer, Deployment
from repro.core.pareto import pareto_front
from repro.core.scenarios import Scenario, generate_scenarios
from repro.core.taskdb import TaskDB, TaskRecord, TaskStatus
from repro.api.registry import apps as _apps, perf_models as _perf_models
# Built-in capabilities register when their home module is imported.  The
# imports here (apps, perf models, and the backends and sampling policies
# below) are what fill the registries: Python runs this file before any
# ``repro.*`` module, so no lookup ever sees a registry without them.
from repro.appkit import plugins as _builtin_apps  # noqa: F401
from repro.perf import apps as _builtin_perf_models  # noqa: F401
from repro.backends.azurebatch import AzureBatchBackend
from repro.backends.slurm import SlurmBackend
from repro.perf.noise import NO_NOISE, NoiseModel
from repro.sampling.planner import SamplerPolicy, SmartSampler
from repro.api.requests import (
    AdviseRequest,
    CollectRequest,
    PlotRequest,
    PredictRequest,
    RecipeRequest,
)
from repro.api.results import (
    AdviceResult,
    CollectResult,
    PlotResult,
    PredictResult,
    RecipeResult,
    SessionInfo,
)
from repro.api.session import AdvisorSession

# The pre-registry lookup names, bound to the capability registry.
get_plugin = _apps.create
list_plugins = _apps.names
list_models = _perf_models.names


def get_model(name: str, noise: NoiseModel = NO_NOISE):
    """The performance model registered under ``name``, with ``noise``."""
    return _perf_models.create(name, noise)


__version__ = "1.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "ConfigError", "CloudError", "QuotaExceeded", "BatchError",
    "AppScriptError", "DatasetError", "AdvisorError", "SamplingError",
    "BackendError",
    # cloud
    "CloudProvider", "PriceCatalog", "VmSku", "get_sku", "list_skus",
    # core
    "MainConfig", "Scenario", "generate_scenarios", "TaskDB", "TaskRecord",
    "TaskStatus", "DataPoint", "Dataset", "pareto_front", "AdviceRow",
    "Advisor", "Deployer", "Deployment", "DataCollector", "CollectionReport",
    # apps & backends
    "get_plugin", "list_plugins", "AzureBatchBackend", "SlurmBackend",
    # perf
    "NoiseModel", "get_model", "list_models",
    # sampling
    "SmartSampler", "SamplerPolicy",
    # session facade (repro.api)
    "AdvisorSession",
    "CollectRequest", "AdviseRequest", "PlotRequest", "PredictRequest",
    "RecipeRequest",
    "SessionInfo", "CollectResult", "AdviceResult", "PredictResult",
    "PlotResult", "RecipeResult",
]
