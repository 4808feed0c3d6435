"""Per-application performance models.

Each module calibrates one of the applications the paper exercises
(its Sec. V: "We have successfully tested it with applications such as WRF,
OpenFOAM, GROMACS, LAMMPS, and NAMD"), plus a generic matrix-multiplication
app used by the quickstart example.

Importing this package registers each model class under its ``name`` in
:data:`repro.api.registry.perf_models`; a class is its own factory
(``AppPerfModel.__init__`` takes the noise model, defaulting to none).
"""

from repro.api.registry import perf_models
from repro.perf.apps.lammps import LammpsModel
from repro.perf.apps.openfoam import OpenFoamModel
from repro.perf.apps.wrf import WrfModel
from repro.perf.apps.gromacs import GromacsModel
from repro.perf.apps.namd import NamdModel
from repro.perf.apps.generic import MatrixMultModel

for _cls in (LammpsModel, OpenFoamModel, WrfModel, GromacsModel, NamdModel,
             MatrixMultModel):
    if _cls.name not in perf_models:
        perf_models.register(_cls.name, _cls)

__all__ = [
    "LammpsModel",
    "OpenFoamModel",
    "WrfModel",
    "GromacsModel",
    "NamdModel",
    "MatrixMultModel",
]
