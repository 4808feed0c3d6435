#!/usr/bin/env python3
"""Quickstart: advise on cloud resources for a small matrix-multiply job.

The minimal end-to-end flow from the paper's Figure 1:

    user input -> deploy cloud environment -> collect data -> plots/advice

driven through the one typed entry point, :class:`repro.api.AdvisorSession`.

Run with::

    python examples/quickstart.py
"""

from repro.api import AdvisorSession

# 1. The main configuration file (paper Listing 1), as a dict.  The
#    "matrix size for the matrix multiplication application" is the
#    paper's own canonical example of an application input.
session = AdvisorSession()  # private directory removed with the session
info = session.deploy({
    "subscription": "my-subscription",
    "skus": ["Standard_HB120rs_v3", "Standard_HC44rs", "Standard_F72s_v2"],
    "rgprefix": "quickstart",
    "appsetupurl": "https://example.org/matrixmult.sh",
    "nnodes": [1, 2, 4, 8],
    "appname": "matrixmult",
    "region": "southcentralus",
    "ppr": 100,
    "appinputs": {"msize": ["80000"]},
    "tags": {"example": "quickstart"},
})
print(f"configuration: {info.scenario_count} scenarios")
print(f"deployed {info.name} in {info.region} "
      f"(storage {info.storage_account})")

# 2.+3. Collect data: Algorithm 1 over all scenarios.
report = session.collect(deployment=info.name)
print(f"collected {report.completed} scenarios "
      f"(task cost ${report.task_cost_usd:.2f}, "
      f"infra cost ${report.infrastructure_cost_usd:.2f})")

# 4. Advice: the Pareto front over execution time and cost.
advice = session.advise(deployment=info.name, appname="matrixmult",
                        sort_by="time")
print("\nAdvice (Pareto front, sorted by execution time):")
print(advice.render_table())

best = advice.best
print(f"fastest option: {best.nnodes}x {best.sku} "
      f"-> {best.exec_time_s:.0f}s for ${best.cost_usd:.4f}")
cheapest = advice.cheapest
print(f"cheapest option: {cheapest.nnodes}x {cheapest.sku} "
      f"-> {cheapest.exec_time_s:.0f}s for ${cheapest.cost_usd:.4f}")
