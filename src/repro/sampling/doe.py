"""Design-of-experiments scenario orderings (paper Sec. III-F).

"We want to avoid using computing resources to find information in a search
space; problem that can be mapped to Design of Experiments."

Orderings decide which scenarios run first so the regression/discard models
converge before the expensive scenarios would have run:

* ``cheapest_first`` — ascending estimated cost (node count x price);
* ``extremes_first`` — per VM type: min nodes, max nodes, then bisection,
  which brackets the scaling curve with the fewest runs;
* ``lhs_subset`` — a Latin-hypercube-flavoured subset over the
  (sku, nnodes, input) grid for a fixed measurement budget.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.scenarios import Scenario
from repro.errors import SamplingError


def cheapest_first(
    scenarios: Sequence[Scenario], hourly_prices: Dict[str, float]
) -> List[Scenario]:
    """Order by estimated cost rate (nodes x hourly price), ascending.

    VM-type grouping is preserved within equal cost rates via the stable
    sort, so pool churn stays bounded.
    """
    def rate(s: Scenario) -> float:
        try:
            return s.nnodes * hourly_prices[s.sku_name]
        except KeyError:
            raise SamplingError(f"no price for SKU {s.sku_name!r}") from None

    return sorted(scenarios, key=lambda s: (rate(s), s.sku_name, s.nnodes))


def extremes_first(scenarios: Sequence[Scenario]) -> List[Scenario]:
    """Per VM type: endpoints first, then midpoints (bisection order)."""
    by_sku: Dict[str, List[Scenario]] = {}
    for scenario in scenarios:
        by_sku.setdefault(scenario.sku_name, []).append(scenario)
    ordered: List[Scenario] = []
    for sku in sorted(by_sku):
        group = sorted(by_sku[sku], key=lambda s: (s.nnodes, s.inputs_key()))
        ordered.extend(_bisection_order(group))
    return ordered


def _bisection_order(group: List[Scenario]) -> List[Scenario]:
    if len(group) <= 2:
        return list(group)
    picked = [group[0], group[-1]]
    remaining = group[1:-1]
    # Repeatedly take the middle of the largest unexplored gap.
    intervals = [(0, len(group) - 1)]
    chosen_idx = {0, len(group) - 1}
    while len(picked) < len(group):
        intervals.sort(key=lambda ab: ab[1] - ab[0], reverse=True)
        lo, hi = intervals.pop(0)
        if hi - lo < 2:
            # No interior point; fall back to any unchosen scenario.
            for idx in range(len(group)):
                if idx not in chosen_idx:
                    chosen_idx.add(idx)
                    picked.append(group[idx])
                    break
            continue
        mid = (lo + hi) // 2
        if mid in chosen_idx:
            mid += 1
        if mid >= hi or mid in chosen_idx:
            intervals.append((lo, hi - 1))
            continue
        chosen_idx.add(mid)
        picked.append(group[mid])
        intervals.extend([(lo, mid), (mid, hi)])
    return picked


def lhs_subset(
    scenarios: Sequence[Scenario], budget: int, seed: int = 0
) -> List[Scenario]:
    """Pick a space-filling subset of ``budget`` scenarios.

    Projects the grid onto (sku index, node index, input index) and samples
    with a scrambled Sobol/LHS design, snapping each sample to the nearest
    untaken grid point.
    """
    if budget <= 0:
        raise SamplingError(f"budget must be positive, got {budget}")
    if budget >= len(scenarios):
        return list(scenarios)
    skus = sorted({s.sku_name for s in scenarios})
    nodes = sorted({s.nnodes for s in scenarios})
    inputs = sorted({s.inputs_key() for s in scenarios})
    index = {
        (s.sku_name, s.nnodes, s.inputs_key()): s for s in scenarios
    }
    # Imported here: scipy costs ~1 s to import, and only this sampler
    # needs it, so ``import repro`` does not pay for it.
    from scipy.stats import qmc

    sampler = qmc.LatinHypercube(d=3, seed=seed)
    raw = sampler.random(n=budget * 4)  # oversample; snapping may collide
    picked: List[Scenario] = []
    taken = set()
    for row in raw:
        key = (
            skus[min(int(row[0] * len(skus)), len(skus) - 1)],
            nodes[min(int(row[1] * len(nodes)), len(nodes) - 1)],
            inputs[min(int(row[2] * len(inputs)), len(inputs) - 1)],
        )
        if key in taken or key not in index:
            continue
        taken.add(key)
        picked.append(index[key])
        if len(picked) == budget:
            break
    # Top up deterministically if collisions starved the sample.
    if len(picked) < budget:
        for scenario in scenarios:
            key = (scenario.sku_name, scenario.nnodes, scenario.inputs_key())
            if key not in taken:
                picked.append(scenario)
                taken.add(key)
                if len(picked) == budget:
                    break
    return picked
