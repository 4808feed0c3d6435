"""Application performance models — the simulated "physics".

The paper runs real applications (LAMMPS, OpenFOAM, WRF, GROMACS, NAMD) on
real Azure HPC clusters.  This package replaces the hardware with analytic
performance models:

* a roofline-style compute model per SKU (:mod:`repro.perf.machine`),
* a working-set/cache-pressure term (:mod:`repro.perf.cache`) that produces
  the superlinear parallel efficiencies visible in the paper's Figure 5,
* an alpha-beta communication model (:mod:`repro.cluster.network`) with
  app-specific patterns (halo exchange, solver reductions, PME all-to-all),
* a load-imbalance term growing with rank count.

Models are calibrated against the paper's published data points (Listings 3
and 4, Figures 2-5); see ``EXPERIMENTS.md`` for paper-vs-measured numbers.
"""

from repro.perf.machine import MachineModel
from repro.perf.model import AppPerfModel, PerfResult, SimError

__all__ = [
    "MachineModel",
    "AppPerfModel",
    "PerfResult",
    "SimError",
]
