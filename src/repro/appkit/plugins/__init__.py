"""Built-in application plugins.

One per application the paper validates (LAMMPS, OpenFOAM, WRF, GROMACS,
NAMD) plus the matrix-multiplication quickstart app.  Each mirrors the
bash-script workflow of the paper's Listing 2: stage input data during
setup, rewrite input files from environment variables, mpirun, check the
application log for success, and emit HPCADVISORVAR metrics.

Plugins live in the unified capability registry
(:mod:`repro.api.registry`); third-party applications register with the
``@register_app("name")`` decorator.  :func:`get_plugin` and
:func:`list_plugins` are kept as the historical entry points.
"""

from __future__ import annotations

from typing import List

from repro.api.registry import apps, register_app
from repro.appkit.script import AppScript

from repro.appkit.plugins.lammps import make_lammps_script
from repro.appkit.plugins.openfoam import make_openfoam_script
from repro.appkit.plugins.wrf import make_wrf_script
from repro.appkit.plugins.gromacs import make_gromacs_script
from repro.appkit.plugins.namd import make_namd_script
from repro.appkit.plugins.matrixmult import make_matrixmult_script

#: The plugins shipped with the package, by application name.  The
#: batched sweep kernel reproduces exactly these scripts, whatever the
#: registry currently holds under the same names.
BUNDLED = {
    "lammps": make_lammps_script,
    "openfoam": make_openfoam_script,
    "wrf": make_wrf_script,
    "gromacs": make_gromacs_script,
    "namd": make_namd_script,
    "matrixmult": make_matrixmult_script,
}

for _name, _factory in BUNDLED.items():
    if _name not in apps:
        register_app(_name)(_factory)


def get_plugin(appname: str) -> AppScript:
    """Instantiate the plugin registered for ``appname``."""
    return apps.create(appname)


def list_plugins() -> List[str]:
    return apps.names()
