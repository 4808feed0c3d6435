"""repro.api — the typed session facade over the advisory pipeline.

One entry point for the full paper workflow (Fig. 1: user input -> deploy
cloud environment -> collect data -> plots/advice), shared by the CLI, the
GUI, the examples, and programmatic callers::

    from repro.api import AdvisorSession

    session = AdvisorSession()              # private dir, removed with it
    result = session.run(config)            # deploy + collect + advise
    print(result.render_table())

    session = AdvisorSession(state_dir="~/.hpcadvisor-sim")  # persistent
    info = session.deploy("config.yaml")
    session.collect(deployment=info.name, smart_sampling=True)
    advice = session.advise(deployment=info.name)

Requests and results are frozen dataclasses with ``to_dict``/``from_dict``
JSON round-tripping, and every pluggable capability (backends, app
plugins, perf models, sampling policies) lives in one registry with
``register_*`` decorators.

The session/request/result names resolve lazily (PEP 562): the low-level
modules register their built-ins with :mod:`repro.api.registry` at import
time, so this package must stay importable from deep inside the core
without dragging the whole facade (and a circular import) along.
"""

from repro.api.registry import (  # registry only depends on repro.errors
    Registry,
    apps,
    backends,
    list_apps,
    list_backends,
    list_perf_models,
    list_sampling_policies,
    perf_models,
    register_app,
    register_backend,
    register_perf_model,
    register_sampling_policy,
    sampling_policies,
)

__all__ = [
    "AdvisorSession",
    # requests
    "CollectRequest", "AdviseRequest", "PlotRequest", "PredictRequest",
    "RecipeRequest",
    # results
    "SessionInfo", "CollectResult", "AdviceResult", "PredictResult",
    "PlotResult", "RecipeResult", "CompareResult", "CompareRow",
    "DataPointsResult",
    # queries
    "Query",
    # registry
    "Registry", "backends", "apps", "perf_models", "sampling_policies",
    "register_backend", "register_app", "register_perf_model",
    "register_sampling_policy", "list_backends", "list_apps",
    "list_perf_models", "list_sampling_policies",
]

_LAZY = {
    "AdvisorSession": "repro.api.session",
    "CollectRequest": "repro.api.requests",
    "AdviseRequest": "repro.api.requests",
    "PlotRequest": "repro.api.requests",
    "PredictRequest": "repro.api.requests",
    "RecipeRequest": "repro.api.requests",
    "SessionInfo": "repro.api.results",
    "CollectResult": "repro.api.results",
    "AdviceResult": "repro.api.results",
    "PredictResult": "repro.api.results",
    "PlotResult": "repro.api.results",
    "RecipeResult": "repro.api.results",
    "CompareResult": "repro.api.results",
    "CompareRow": "repro.api.results",
    "DataPointsResult": "repro.api.results",
    "Query": "repro.core.query",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
