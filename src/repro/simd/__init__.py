"""Batched sweep kernel: scenario physics evaluated as a table, not tasks.

See :mod:`repro.simd.physics` for the pure measurement function and
:mod:`repro.simd.engine` for the flat sweep loop that drives the real
billing substrate around it.
"""

from repro.core.collector import ENGINE_CHOICES
from repro.simd.engine import batch_eligibility, run_batched_sweep
from repro.simd.physics import (ADAPTERS, FastPhysics, ScenarioPhysics,
                                covers, shared_physics, supported_apps)
from repro.simd.vector import prime_grid

__all__ = [
    "ADAPTERS",
    "ENGINE_CHOICES",
    "FastPhysics",
    "ScenarioPhysics",
    "batch_eligibility",
    "covers",
    "prime_grid",
    "run_batched_sweep",
    "shared_physics",
    "supported_apps",
]
