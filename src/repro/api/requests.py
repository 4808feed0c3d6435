"""Typed requests accepted by :class:`repro.api.AdvisorSession`.

Frozen dataclasses with ``to_dict()``/``from_dict()`` JSON round-tripping,
so the same objects serve programmatic callers, the CLI (``--json``), and
future HTTP endpoints.  Every field has a default except the fields that
name what to operate on, so requests read like the CLI flags they mirror::

    CollectRequest(deployment="mysweep-000", smart_sampling=True,
                   budget_usd=25.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.api.serde import DictMixin
from repro.core.collector import (CAPACITY_TIERS, ENGINE_CHOICES,
                                  RECOVERY_POLICIES)
from repro.errors import ConfigError

#: Recovery policies with an expected-value model (``fail`` has none,
#: so the advise what-if refuses it while collect accepts it).
MODELED_RECOVERY_POLICIES = tuple(
    policy for policy in RECOVERY_POLICIES if policy != "fail"
)

#: Advice read engines (the read-path mirror of collect's
#: ``ENGINE_CHOICES``): ``auto`` and ``columnar`` run the snapshot
#: columns; ``objects`` forces the DataPoint path, the correctness oracle.
ADVICE_ENGINE_CHOICES = ("auto", "objects", "columnar")


def _check_spot_parameters(checkpoint_interval_s: float,
                           checkpoint_overhead_s: float,
                           eviction_rate: Optional[float]) -> None:
    """The checkpoint geometry and eviction rate both spot paths share.

    Every value must be a finite number: a NaN or infinite rate would
    stall the Monte-Carlo P95 loop or bill every scenario up to the
    preemption give-up, and a NaN interval fails deep in the kernels.
    """
    for name, value in (("checkpoint_interval_s", checkpoint_interval_s),
                        ("checkpoint_overhead_s", checkpoint_overhead_s),
                        ("eviction_rate", eviction_rate)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")
    if checkpoint_interval_s <= 0:
        raise ConfigError(
            f"checkpoint_interval_s must be > 0, got {checkpoint_interval_s}"
        )
    if checkpoint_overhead_s < 0:
        raise ConfigError(
            f"checkpoint_overhead_s must be >= 0, got {checkpoint_overhead_s}"
        )
    if eviction_rate is not None and eviction_rate < 0:
        raise ConfigError(f"eviction_rate must be >= 0, got {eviction_rate}")


@dataclass(frozen=True)
class CollectRequest(DictMixin):
    """Run (or resume) the data-collection sweep on a deployment."""

    deployment: str = ""
    backend: str = "azurebatch"
    smart_sampling: bool = False
    #: Named preset from the sampling-policy registry; implies smart
    #: sampling when set.
    sampling_policy: Optional[str] = None
    delete_pools: bool = False
    #: Run-to-run noise sigma.  ``None`` keeps the deployment backend's
    #: current noise model (0 on a fresh backend); an explicit value
    #: re-binds it.
    noise: Optional[float] = None
    seed: Optional[int] = None
    #: Hard USD budget for measured task spend (wraps the sampler).
    budget_usd: Optional[float] = None
    retry_failed: int = 0
    #: How many SKU pool lifecycles may run concurrently in simulated
    #: time.  1 (the default) reproduces the paper's sequential
    #: Algorithm 1 exactly; higher values overlap pools and cut the sweep
    #: makespan without changing the collected measurements.
    max_parallel_pools: int = 1
    #: Capacity tier: ``ondemand`` (the paper's billing) or ``spot``
    #: (discounted, interruptible — evictions are simulated and the
    #: recovery policy below decides what happens to interrupted tasks).
    capacity: str = "ondemand"
    #: Spot recovery policy: ``restart``, ``checkpoint_restart``, or
    #: ``fail`` (ignored on on-demand sweeps).
    recovery: str = "restart"
    #: Work seconds between checkpoints (``checkpoint_restart`` only).
    checkpoint_interval_s: float = 600.0
    #: Restore overhead paid on each resume from a checkpoint.
    checkpoint_overhead_s: float = 60.0
    #: Flat eviction rate override in interruptions per node-hour;
    #: ``None`` uses the per-SKU/region curve of the eviction model.
    eviction_rate: Optional[float] = None
    #: Seed for the interruption draws — same seed, same evictions,
    #: at any pool parallelism.
    eviction_seed: int = 0
    #: Execution engine: ``auto`` (the default) and ``batched`` run the
    #: vectorized sweep kernel — byte-identical results — whenever it
    #: reproduces the sweep exactly, and otherwise fall back to the
    #: per-object path with the reason in ``CollectResult.engine_fallback``;
    #: ``object`` always runs the per-task event-driven scheduler.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.noise is not None and self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.retry_failed < 0:
            raise ConfigError(
                f"retry_failed must be >= 0, got {self.retry_failed}"
            )
        if self.max_parallel_pools < 1:
            raise ConfigError(
                f"max_parallel_pools must be >= 1, got {self.max_parallel_pools}"
            )
        if self.capacity not in CAPACITY_TIERS:
            raise ConfigError(
                f"capacity must be one of {CAPACITY_TIERS}, "
                f"got {self.capacity!r}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {self.recovery!r}"
            )
        _check_spot_parameters(self.checkpoint_interval_s,
                               self.checkpoint_overhead_s,
                               self.eviction_rate)
        if self.engine not in ENGINE_CHOICES:
            raise ConfigError(
                f"engine must be one of {ENGINE_CHOICES}, "
                f"got {self.engine!r}"
            )

    @property
    def wants_sampler(self) -> bool:
        return (self.smart_sampling or self.budget_usd is not None
                or self.sampling_policy is not None)


@dataclass(frozen=True)
class AdviseRequest(DictMixin):
    """Compute the Pareto-front advice table for a deployment's dataset."""

    deployment: str = ""
    appname: Optional[str] = None
    #: appinput filter, e.g. ``{"mesh": "40 16 16"}``.
    filters: Dict[str, str] = field(default_factory=dict)
    #: Restrict to these node counts (empty = all).
    nnodes: Tuple[int, ...] = ()
    #: Restrict to one VM type (suffix match, like the CLI ``--sku``).
    sku: Optional[str] = None
    sort_by: str = "time"
    max_rows: Optional[int] = None
    #: What-if capacity tier for the advice: ``""`` (default) advises on
    #: the data exactly as measured; ``"ondemand"`` strips spot dynamics
    #: and reprices at the on-demand rate; ``"spot"`` risk-adjusts every
    #: configuration under the eviction model and recovery policy below,
    #: so the table answers "on-demand vs spot with checkpointing" with
    #: expected cost, expected makespan, and P95 makespan.
    capacity: str = ""
    #: Recovery policy assumed by the spot what-if (``restart`` or
    #: ``checkpoint_restart``; ``fail`` has no expected-value model).
    recovery: str = "checkpoint_restart"
    #: Work seconds between checkpoints for the spot what-if.
    checkpoint_interval_s: float = 600.0
    #: Restore overhead per resume for the spot what-if.
    checkpoint_overhead_s: float = 60.0
    #: Flat eviction-rate override (per node-hour); ``None`` uses the
    #: per-SKU/region curve.
    eviction_rate: Optional[float] = None
    #: Advice read engine: ``auto`` (columnar today), ``objects`` (the
    #: legacy per-DataPoint pipeline — the correctness oracle), or
    #: ``columnar`` (NumPy snapshot columns with vectorized risk math —
    #: byte-identical results, cached per store generation).
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.sort_by not in ("time", "cost"):
            raise ConfigError(
                f"sort_by must be 'time' or 'cost', got {self.sort_by!r}"
            )
        if self.capacity not in ("",) + CAPACITY_TIERS:
            raise ConfigError(
                f"capacity must be '' or one of {CAPACITY_TIERS}, "
                f"got {self.capacity!r}"
            )
        if self.recovery not in MODELED_RECOVERY_POLICIES:
            raise ConfigError(
                f"recovery must be one of {MODELED_RECOVERY_POLICIES}, "
                f"got {self.recovery!r}"
            )
        if self.max_rows is not None and self.max_rows < 0:
            raise ConfigError(f"max_rows must be >= 0, got {self.max_rows}")
        _check_spot_parameters(self.checkpoint_interval_s,
                               self.checkpoint_overhead_s,
                               self.eviction_rate)
        if self.engine not in ADVICE_ENGINE_CHOICES:
            raise ConfigError(
                f"engine must be one of {ADVICE_ENGINE_CHOICES}, "
                f"got {self.engine!r}"
            )


@dataclass(frozen=True)
class PlotRequest(DictMixin):
    """Generate the Sec. III-D chart set from a deployment's dataset."""

    deployment: str = ""
    #: Output directory; defaults to the session state dir's plots folder.
    output_dir: Optional[str] = None
    filters: Dict[str, str] = field(default_factory=dict)
    sku: Optional[str] = None
    subtitle: Optional[str] = None


@dataclass(frozen=True)
class PredictRequest(DictMixin):
    """Zero-execution advice for new inputs, trained on collected data."""

    deployment: str = ""
    #: Application inputs to predict for (default: the measured inputs).
    inputs: Dict[str, str] = field(default_factory=dict)
    #: Candidate node counts (empty = those in the dataset).
    nnodes: Tuple[int, ...] = ()
    model: str = "ridge"

    def __post_init__(self) -> None:
        if self.model not in ("ridge", "knn"):
            raise ConfigError(
                f"model must be 'ridge' or 'knn', got {self.model!r}"
            )


@dataclass(frozen=True)
class RecipeRequest(DictMixin):
    """Executable recipes (Slurm script + cluster YAML) for an advice row."""

    deployment: str = ""
    #: Which advice row to materialise (0 = top of the table).
    row: int = 0
    sort_by: str = "time"
    filters: Dict[str, str] = field(default_factory=dict)
    extra_env: Dict[str, str] = field(default_factory=dict)
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.row < 0:
            raise ConfigError(f"row must be >= 0, got {self.row}")
        if self.sort_by not in ("time", "cost"):
            raise ConfigError(
                f"sort_by must be 'time' or 'cost', got {self.sort_by!r}"
            )
