"""Spot-capacity eviction model: per-SKU/region interruption-rate curves.

The paper bills on-demand only; its companion cost-optimization work shows
spot/preemptible capacity is the biggest real-world cost lever — but only
if eviction risk is *modeled*, not just discounted.  This module provides
that risk model:

* a per-SKU table of eviction rates (interruptions per node-hour),
  scaled by a per-region factor — large InfiniBand SKUs are reclaimed
  more often than commodity sizes, and constrained regions churn more;
* seeded, stateless interruption sampling: the time-to-eviction of one
  task attempt is an exponential draw keyed by ``(seed, sku, *key)``
  through :func:`repro.rng.rng_for`, so a sweep replays byte-identically
  for a fixed ``eviction_seed`` regardless of pool interleaving — the
  draw depends on the attempt's identity, never on the wall clock.

Rates are the *memoryless* per-hour hazard of losing a node the task is
running on; a multi-node task dies when any of its nodes is reclaimed, so
the effective task-level rate scales with the node count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import math

import numpy as np

from repro.errors import CloudError
from repro.rng import rng_for

#: Default eviction rates in interruptions per node-hour, keyed by full SKU
#: name.  Loosely follows the public "frequency of eviction" bands: big
#: HPC/HBM SKUs sit in higher bands than general-purpose sizes.
DEFAULT_EVICTION_RATES: Dict[str, float] = {
    "Standard_HC44rs": 0.08,
    "Standard_HB120rs_v2": 0.06,
    "Standard_HB120rs_v3": 0.05,
    "Standard_HB176rs_v4": 0.10,
    "Standard_HX176rs": 0.12,
    "Standard_HC44-16rs": 0.08,  # constrained-core SKUs share the parent's pool
    "Standard_F72s_v2": 0.03,
    "Standard_D64s_v5": 0.02,
    "Standard_D96s_v5": 0.02,
    "Standard_E104is_v5": 0.04,
}

#: Fallback rate for SKUs not in the table (interruptions per node-hour).
DEFAULT_RATE_PER_HOUR = 0.05

#: Regional scarcity multiplier on the base rate (the paper's region,
#: southcentralus, is the 1.0 baseline — mirrors REGION_PRICE_FACTOR).
REGION_EVICTION_FACTOR: Dict[str, float] = {
    "southcentralus": 1.00,
    "eastus": 1.30,
    "westus2": 1.10,
    "westeurope": 1.40,
    "northeurope": 1.20,
    "japaneast": 1.50,
    "australiaeast": 1.35,
}


@dataclass(frozen=True)
class EvictionModel:
    """Seeded spot-interruption sampling over per-SKU/region rate curves.

    Parameters
    ----------
    rates:
        Mapping of full SKU name to eviction rate (per node-hour).
    default_rate_per_hour:
        Rate for SKUs absent from ``rates``.
    region:
        Deployment region; scales every rate by its
        :data:`REGION_EVICTION_FACTOR` (unknown regions use 1.0).
    seed:
        Base seed for the interruption draws (the sweep's
        ``eviction_seed``).
    """

    rates: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EVICTION_RATES)
    )
    default_rate_per_hour: float = DEFAULT_RATE_PER_HOUR
    region: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        # ``nan < 0`` is False: a NaN or infinite rate would turn every
        # risk-adjusted cost and makespan into NaN or inf downstream.
        for sku, rate in self.rates.items():
            if not math.isfinite(rate):
                raise CloudError(
                    f"non-finite eviction rate for {sku!r}: {rate}"
                )
            if rate < 0:
                raise CloudError(
                    f"negative eviction rate for {sku!r}: {rate}"
                )
        if not math.isfinite(self.default_rate_per_hour):
            raise CloudError(
                f"non-finite default eviction rate: "
                f"{self.default_rate_per_hour}"
            )
        if self.default_rate_per_hour < 0:
            raise CloudError(
                f"negative default eviction rate: {self.default_rate_per_hour}"
            )

    @classmethod
    def flat(cls, rate_per_hour: float, seed: int = 0,
             region: Optional[str] = None) -> "EvictionModel":
        """A model charging every SKU the same ``rate_per_hour``.

        Used when the user overrides the curve with a single
        ``--eviction-rate`` number; the region factor still applies.
        """
        return cls(rates={}, default_rate_per_hour=rate_per_hour,
                   region=region, seed=seed)

    # -- rate curves -------------------------------------------------------------

    def rate_per_hour(self, sku_name: str, nodes: int = 1) -> float:
        """Task-level eviction rate for ``nodes`` nodes of ``sku_name``.

        The per-node hazard is memoryless, so a task spanning N nodes is
        interrupted at N times the single-node rate (any node loss kills a
        tightly-coupled MPI job).
        """
        if nodes < 1:
            raise CloudError(f"nodes must be >= 1, got {nodes}")
        base = self.rates.get(sku_name)
        if base is None:
            # Allow short names ("hb120rs_v3"), mirroring PriceCatalog.
            matches = [
                r for name, r in self.rates.items()
                if name.lower().endswith(sku_name.lower())
            ]
            base = matches[0] if len(matches) == 1 else self.default_rate_per_hour
        factor = (REGION_EVICTION_FACTOR.get(self.region, 1.0)
                  if self.region else 1.0)
        return base * factor * nodes

    def survival_probability(self, sku_name: str, duration_s: float,
                             nodes: int = 1) -> float:
        """P(no eviction within ``duration_s``) for one task attempt."""
        if duration_s < 0:
            raise CloudError(f"negative duration: {duration_s}")
        rate = self.rate_per_hour(sku_name, nodes)
        return math.exp(-rate * duration_s / 3600.0)

    def mean_time_to_eviction_s(self, sku_name: str,
                                nodes: int = 1) -> float:
        """Expected uptime before an interruption (inf when rate is 0)."""
        rate = self.rate_per_hour(sku_name, nodes)
        return math.inf if rate <= 0.0 else 3600.0 / rate

    # -- interruption sampling ----------------------------------------------------

    def time_to_eviction(self, sku_name: str, *key: object,
                         nodes: int = 1) -> Optional[float]:
        """Sampled seconds until this attempt's interruption.

        ``key`` identifies the attempt (scenario id, attempt number); the
        draw is a pure function of ``(seed, sku, nodes, key)`` — stateless,
        so concurrent pool schedules replay the exact same evictions as a
        sequential walk.  Returns ``None`` when the rate is zero: a
        zero-rate spot sweep is byte-identical to an on-demand one.
        """
        rate = self.rate_per_hour(sku_name, nodes)
        if rate <= 0.0:
            return None
        rng = rng_for("spot-eviction", sku_name, nodes, *key,
                      base_seed=self.seed)
        return float(rng.exponential(3600.0 / rate))

    def times_to_eviction(self, sku_name: str,
                          scenario_ids: Sequence[str],
                          attempts: Sequence[int],
                          nodes: Sequence[int]) -> Optional[np.ndarray]:
        """Vectorized :meth:`time_to_eviction` over parallel sequences.

        ``scenario_ids[i]``/``attempts[i]``/``nodes[i]`` describe one
        attempt; the result's element ``i`` is bit-for-bit equal to
        ``time_to_eviction(sku_name, scenario_ids[i], attempts[i],
        nodes=nodes[i])``.  The per-draw hash prefix over
        ``(seed, "spot-eviction", sku_name)`` is computed once and
        forked per attempt, which is what makes batching the draws
        cheaper than the scalar loop; each draw still seeds its own
        generator, because the scalar contract keys the generator —
        not the variate stream — on the attempt identity.

        Returns ``None`` when the single-node rate is zero (then every
        per-attempt rate is zero and the scalar method returns ``None``
        throughout).
        """
        if self.rate_per_hour(sku_name, 1) <= 0.0:
            return None
        base_factor = self.rate_per_hour(sku_name, 1)
        prefix = hashlib.blake2b(digest_size=8)
        prefix.update(str(self.seed).encode())
        for part in ("spot-eviction", sku_name):
            prefix.update(b"\x1f")
            prefix.update(repr(part).encode())
        # The node count sits between the SKU and the scenario id in the
        # key, so fork one sub-prefix per distinct count (grids sweep few
        # distinct node counts over many scenarios).
        by_nodes: Dict[int, "hashlib.blake2b"] = {}
        default_rng = np.random.default_rng
        from_bytes = int.from_bytes
        mask = 2**63 - 1
        out = np.empty(len(scenario_ids), dtype=np.float64)
        for i, (sid, attempt, n) in enumerate(
                zip(scenario_ids, attempts, nodes)):
            n = int(n)
            node_prefix = by_nodes.get(n)
            if node_prefix is None:
                node_prefix = prefix.copy()
                node_prefix.update(b"\x1f")
                node_prefix.update(repr(n).encode())
                by_nodes[n] = node_prefix
            h = node_prefix.copy()
            h.update(b"\x1f")
            h.update(repr(sid).encode())
            h.update(b"\x1f")
            h.update(repr(int(attempt)).encode())
            seed = from_bytes(h.digest(), "big") & mask
            # Same operand order as the scalar path: (base*factor)*n,
            # then 3600/rate — keeps the scale bit-identical.
            out[i] = default_rng(seed).exponential(
                3600.0 / (base_factor * n)
            )
        return out
