"""Unified capability registry for the advisor API.

One registry mechanism for everything pluggable in the pipeline:

* **execution backends** — how scenarios run (``azurebatch``, ``slurm``);
* **application plugins** — the Listing-2 style app scripts;
* **performance models** — the simulated application physics;
* **sampling policies** — named :class:`~repro.sampling.planner.SamplerPolicy`
  presets for smart sampling.

It replaces the previous three ad-hoc registries (the perf-model and
app-plugin lookup functions and the backend ``if/else`` in the CLI) with
one idiom: a :class:`Registry` per capability kind, plus ``register_*``
decorators.  The pre-registry top-level names ``repro.get_model``,
``repro.list_models``, ``repro.get_plugin`` and ``repro.list_plugins``
are bound to these registries' ``create`` and ``names``.

Built-in capabilities self-register when their home module is imported.
``repro/__init__.py`` imports every one of those modules, and Python runs
it before any ``repro.*`` module, so the registries are complete before
the first lookup.

Extending the tool is one decorator::

    from repro.api import register_app

    @register_app("mycode")
    def make_mycode_script():
        return AppScript(...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from repro.errors import AppScriptError, BackendError, ConfigError, SamplingError


@dataclass
class Registry:
    """A named capability -> factory mapping with uniform error handling."""

    kind: str
    error_cls: Type[Exception] = ConfigError
    missing_template: str = "no {kind} named {name!r} (known: {known})"
    _entries: Dict[str, Callable] = field(default_factory=dict)

    # -- registration ---------------------------------------------------------

    def register(self, name: str, factory: Optional[Callable] = None):
        """Register ``factory`` under ``name`` (case-insensitive).

        Usable directly (``registry.register("x", make_x)``) or as a
        decorator (``@registry.register("x")``).  Duplicate names raise the
        registry's error class, guarding against typo shadowing.
        """
        if factory is None:
            return lambda f: self.register(name, f)
        key = name.lower()
        if key in self._entries:
            raise self.error_cls(
                f"{self.kind} {name!r} is already registered"
            )
        self._entries[key] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove an entry (primarily for tests and hot-reload)."""
        self._entries.pop(name.lower(), None)

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``."""
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise self.error_cls(
                self.missing_template.format(
                    kind=self.kind, name=name, known=", ".join(self.names())
                )
            ) from None

    def create(self, name: str, *args, **kwargs):
        """Instantiate the capability registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries


# -- the four capability kinds ------------------------------------------------------


#: Execution back-ends.  Factory signature:
#: ``(deployment: Deployment, config: MainConfig, noise: NoiseModel)
#: -> ExecutionBackend``.
backends = Registry(
    kind="execution backend",
    error_cls=BackendError,
    missing_template="no execution backend named {name!r} (known: {known})",
)

#: Application plugins.  Factory signature: ``() -> AppScript``.
apps = Registry(
    kind="application plugin",
    error_cls=AppScriptError,
    missing_template=(
        "no built-in plugin for application {name!r} (known: {known})"
    ),
)

#: Application performance models.  Factory signature:
#: ``(noise: NoiseModel) -> AppPerfModel``.
perf_models = Registry(
    kind="performance model",
    error_cls=ConfigError,
    missing_template=(
        "no performance model for application {name!r} (known: {known})"
    ),
)

#: Named smart-sampling policy presets.  Factory signature:
#: ``() -> SamplerPolicy``.
sampling_policies = Registry(
    kind="sampling policy",
    error_cls=SamplingError,
    missing_template="no sampling policy named {name!r} (known: {known})",
)


# -- decorators ---------------------------------------------------------------------


def register_backend(name: str):
    """Decorator: register an execution-backend factory under ``name``."""
    return backends.register(name)


def register_app(name: str):
    """Decorator: register an application-plugin factory under ``name``."""
    return apps.register(name)


def register_perf_model(name: str):
    """Decorator: register a performance-model factory under ``name``."""
    return perf_models.register(name)


def register_sampling_policy(name: str):
    """Decorator: register a sampling-policy preset under ``name``."""
    return sampling_policies.register(name)


# -- convenience lookups ------------------------------------------------------------


def list_backends() -> List[str]:
    return backends.names()


def list_apps() -> List[str]:
    return apps.names()


def list_perf_models() -> List[str]:
    return perf_models.names()


def list_sampling_policies() -> List[str]:
    return sampling_policies.names()
