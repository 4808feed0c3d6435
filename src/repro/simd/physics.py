"""Batched scenario physics: the pure part of a sweep, precomputable.

A scenario execution in the per-object path threads every run through a
``BatchTask`` / ``TaskContext`` / shared-filesystem / ``MpiLauncher``
tower, even though the *measurement* — execution time, application
variables, infrastructure metrics — is a pure function of
``(appname, sku, nnodes, ppn, appinputs)``.  This module evaluates that
function directly: one :class:`AppAdapter` per bundled plugin reproduces
the plugin's env handling and HPCADVISORVAR formatting byte for byte,
and :class:`ScenarioPhysics` caches every derived object (machine model,
network model, validated parameters, run shape) across the sweep so the
marginal cost per scenario is one ``simulate_shaped`` call.

Equivalence contract (enforced by ``tests/test_batched_kernel.py``):
for every scenario an adapter covers, :meth:`ScenarioPhysics.evaluate`
returns exactly the ``(succeeded, wall_time_s, app_vars, infra_metrics,
failure_reason)`` tuple that ``backends.common.execute_run`` would have
produced for the same scenario — including script-level failures
(missing required input, malformed MESH) and model-level failures
(out of memory).  Malformed *numeric* inputs raise the same
``ConfigError`` both paths raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.api.registry import perf_models
from repro.cloud.skus import VmSku
from repro.cluster.network import NetworkModel, network_for_sku
from repro.core.scenarios import Scenario
from repro.perf.machine import MachineModel
from repro.perf.model import AppPerfModel, PerfResult, RunShape
from repro.perf.noise import NO_NOISE, NoiseModel

#: What AzureBatchBackend reports when a run script fails without printing
#: a ``reason:`` line (missing env var, malformed input string).
SCRIPT_FAILURE = "application script returned a non-zero exit code"

#: Table I environment variables; an appinput whose uppercased name
#: collides with one of these would change the plugin's NNODES/PPN view
#: in the per-object path, so such scenarios are not batch-eligible.
RESERVED_ENV = frozenset({
    "NNODES", "PPN", "SKU", "VMTYPE",
    "HOSTLIST_PPN", "HOSTFILE_PATH", "TASKRUN_DIR",
})


@dataclass(frozen=True)
class FastPhysics:
    """What one scenario execution measures, minus the substrate.

    Mirrors the fields the backend extracts from a task's output:
    ``wall_time_s`` is the *un-resumed* application wall time (the
    engine applies ``resumed_wall_s`` per attempt), ``app_vars`` is the
    HPCADVISORVAR dict in emission order, and ``failure_reason`` is the
    line ``_failure_line`` would have pulled from stdout (``None`` on
    success).
    """

    succeeded: bool
    wall_time_s: float
    app_vars: Dict[str, str]
    infra_metrics: Dict[str, float]
    failure_reason: Optional[str] = None


def _default_app_vars(perf: PerfResult) -> Dict[str, str]:
    """APPEXECTIME then the model's own vars — most plugins' emission."""
    out = {"APPEXECTIME": f"{perf.exec_time_s:.6g}"}
    out.update(perf.app_vars)
    return out


def _lammps_app_vars(perf: PerfResult) -> Dict[str, str]:
    # The plugin round-trips through log.lammps' Loop line: fields 4/9/12
    # are the .6g-formatted time, the step count, and the atom count.
    return {
        "APPEXECTIME": f"{perf.exec_time_s:.6g}",
        "LAMMPSSTEPS": perf.app_vars["LAMMPSSTEPS"],
        "LAMMPSATOMS": perf.app_vars["LAMMPSATOMS"],
    }


def _openfoam_app_vars(perf: PerfResult) -> Dict[str, str]:
    # "ExecutionTime = {t:.2f} s" → split()[2] gives the .2f rendering.
    return {
        "APPEXECTIME": f"{perf.exec_time_s:.2f}",
        "OFCELLS": perf.app_vars["OFCELLS"],
        "OFITERATIONS": perf.app_vars["OFITERATIONS"],
    }


def _openfoam_inputs(env: Mapping[str, str]) -> Optional[Dict[str, str]]:
    mesh = env["MESH"]
    if len(mesh.split()) != 3:
        return None  # plugin: "invalid MESH specification", exit 1
    return {"mesh": mesh}


@dataclass(frozen=True)
class AppAdapter:
    """How one plugin turns its environment into a model invocation."""

    appname: str
    #: Uppercased env names the run function getenv()s without default.
    required_env: Tuple[str, ...]
    #: env -> perf-model inputs; ``None`` signals a script-level failure
    #: before mpirun (exit 1, no metrics, default failure line).
    model_inputs: Callable[[Mapping[str, str]], Optional[Dict[str, str]]]
    #: PerfResult -> HPCADVISORVAR dict, in the plugin's emission order.
    app_vars: Callable[[PerfResult], Dict[str, str]]


ADAPTERS: Dict[str, AppAdapter] = {
    adapter.appname: adapter
    for adapter in (
        AppAdapter(
            appname="lammps",
            required_env=("BOXFACTOR",),
            model_inputs=lambda env: {"BOXFACTOR": env["BOXFACTOR"]},
            app_vars=_lammps_app_vars,
        ),
        AppAdapter(
            appname="openfoam",
            required_env=("MESH",),
            model_inputs=_openfoam_inputs,
            app_vars=_openfoam_app_vars,
        ),
        AppAdapter(
            appname="gromacs",
            required_env=("ATOMS",),
            model_inputs=lambda env: {
                "atoms": env["ATOMS"],
                "steps": env.get("STEPS", "10000"),
            },
            app_vars=_default_app_vars,
        ),
        AppAdapter(
            appname="namd",
            required_env=("ATOMS",),
            model_inputs=lambda env: {
                "atoms": env["ATOMS"],
                "steps": env.get("STEPS", "5000"),
            },
            app_vars=_default_app_vars,
        ),
        AppAdapter(
            appname="wrf",
            required_env=("RESOLUTION",),
            model_inputs=lambda env: {
                "resolution": env["RESOLUTION"],
                "forecast_hours": env.get("FORECAST_HOURS", "6"),
            },
            app_vars=_default_app_vars,
        ),
        AppAdapter(
            appname="matrixmult",
            required_env=("MSIZE",),
            model_inputs=lambda env: {"msize": env["MSIZE"]},
            app_vars=_default_app_vars,
        ),
    )
}


def supported_apps() -> Tuple[str, ...]:
    return tuple(sorted(ADAPTERS))


def covers(scenario: Scenario) -> bool:
    """True when the batched physics can reproduce this scenario exactly."""
    if scenario.appname not in ADAPTERS:
        return False
    return not any(
        str(key).upper() in RESERVED_ENV for key in scenario.appinputs
    )


#: A script-level failure: no mpirun happened, so no metrics, zero wall.
_SCRIPT_FAIL = FastPhysics(
    succeeded=False, wall_time_s=0.0, app_vars={}, infra_metrics={},
    failure_reason=SCRIPT_FAILURE,
)


@dataclass
class ScenarioPhysics:
    """Memoizing batch evaluator over the pure physics of scenarios.

    Stateless with respect to simulated time and the shared filesystem
    (the plugins' staged-input reads are guaranteed by the setup task the
    engine still runs for real), so results may be computed in any order
    — including ahead of the sweep — and reused across spot attempts and
    retries, which are deterministic re-executions in both paths.
    """

    noise: NoiseModel = NO_NOISE
    _models: Dict[str, AppPerfModel] = field(default_factory=dict)
    _machines: Dict[str, MachineModel] = field(default_factory=dict)
    _networks: Dict[str, NetworkModel] = field(default_factory=dict)
    _shapes: Dict[Tuple[str, int, int], RunShape] = field(default_factory=dict)
    _params: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, float]] = \
        field(default_factory=dict)
    _results: Dict[tuple, FastPhysics] = field(default_factory=dict)

    def evaluate(self, scenario: Scenario, sku: VmSku) -> FastPhysics:
        """The measurement ``execute_run`` would produce for ``scenario``."""
        key = (scenario.appname, sku.name, scenario.nnodes, scenario.ppn,
               tuple(sorted(scenario.appinputs.items())))
        hit = self._results.get(key)
        if hit is None:
            hit = self._evaluate(scenario, sku)
            self._results[key] = hit
        return hit

    def _evaluate(self, scenario: Scenario, sku: VmSku) -> FastPhysics:
        adapter = ADAPTERS[scenario.appname]
        env = {str(k).upper(): str(v)
               for k, v in scenario.appinputs.items()}
        # getenv() without default raises AppScriptError → "run error:"
        # stdout, exit 1, no reason: line.
        if any(name not in env for name in adapter.required_env):
            return _SCRIPT_FAIL
        model_inputs = adapter.model_inputs(env)
        if model_inputs is None:
            return _SCRIPT_FAIL
        # MpiLauncher refuses ppn outside [1, cores] (AppScriptError).
        if not 1 <= scenario.ppn <= sku.cores:
            return _SCRIPT_FAIL

        model = self._models.get(scenario.appname)
        if model is None:
            model = perf_models.create(scenario.appname, self.noise)
            self._models[scenario.appname] = model
        machine = self._machines.get(sku.name)
        if machine is None:
            machine = MachineModel(sku)
            self._machines[sku.name] = machine
            self._networks[sku.name] = network_for_sku(sku)
        net = self._networks[sku.name]
        shape_key = (sku.name, scenario.nnodes, scenario.ppn)
        shape = self._shapes.get(shape_key)
        if shape is None:
            shape = RunShape(sku=sku, nodes=scenario.nnodes, ppn=scenario.ppn)
            self._shapes[shape_key] = shape
        params_key = (scenario.appname,
                      tuple(sorted(model_inputs.items())))
        params = self._params.get(params_key)
        if params is None:
            params = model.validate_inputs(model_inputs)
            self._params[params_key] = params

        perf = model.simulate_shaped(shape, params, machine, net,
                                     model_inputs)
        if not perf.succeeded:
            # Plugin echoes "reason: {perf.failure_reason}" and exits 1;
            # ctx.last_run is set, so the failure metrics survive.
            return FastPhysics(
                succeeded=False,
                wall_time_s=0.0,
                app_vars={},
                infra_metrics=perf.metrics.to_dict(),
                failure_reason=perf.failure_reason,
            )
        return FastPhysics(
            succeeded=True,
            wall_time_s=perf.exec_time_s,
            app_vars=adapter.app_vars(perf),
            infra_metrics=perf.metrics.to_dict(),
            failure_reason=None,
        )


_SHARED_TABLES: Dict[NoiseModel, ScenarioPhysics] = {}


def shared_physics(noise: NoiseModel = NO_NOISE) -> ScenarioPhysics:
    """The process-wide physics table for one noise configuration.

    The measurement is a pure function of ``(appname, sku, nnodes, ppn,
    appinputs)`` plus the (frozen, hashable) noise configuration — and
    notably *region-independent*: regions change prices, quotas, and
    boot latencies, never the application physics (``VmSku`` specs come
    from the global catalog).  Sharing the table across sweeps is what
    makes every-SKU, every-region advice interactive — the second
    region's sweep pays only the cache-hit cost per scenario.
    """
    table = _SHARED_TABLES.get(noise)
    if table is None:
        table = ScenarioPhysics(noise=noise)
        _SHARED_TABLES[noise] = table
    return table
