"""Vectorized physics priming: one pass evaluates a whole scenario grid.

:func:`prime_grid` is the "vectorized" half of the batched sweep kernel.
The scalar :meth:`~repro.simd.physics.ScenarioPhysics.evaluate` walks the
full ``simulate_shaped`` assembly once per scenario — re-deriving group
constants (throughput scale, imbalance factor, collective latencies) and
re-building small dicts tens of thousands of times per sweep.  This module
groups the grid by ``(appname, sku, nnodes, ppn)``, hoists everything that
is constant within a group, and evaluates the per-scenario remainder —
cache pressure, compute time, halo/PME/reduction communication, the five
infrastructure utilisations — as NumPy column operations over the group's
parameter axis.

Exact-equivalence contract
--------------------------

Every :class:`~repro.simd.physics.FastPhysics` this module stores is
**bit-identical** to what the scalar path would have produced, including
every float and every formatted HPCADVISORVAR string.  Three rules keep it
that way:

* each NumPy expression mirrors the scalar expression tree *operand for
  operand* — IEEE-754 binary ops (``+ - * /``, comparisons, ``minimum``)
  on float64 columns are bitwise-equal to the same CPython float ops;
* ``**`` is **never** evaluated through NumPy (its SIMD ``pow`` differs
  from libm by ULPs); fractional powers run through a CPython listcomp,
  and derived *parameters* (``bf**3``, ``n**2``...) come from the models'
  own scalar ``validate_inputs``/``working_set_bytes``/``total_work``;
* group-constant subexpressions (``allreduce_time``, ``bcast_time``'s
  tree depth, ``imbalance_factor``, ``compute_scale``) are computed by
  calling the *real* model/network methods once per group.

Anything the vector path cannot reproduce exactly — an app without a
kernel below, a noise model with ``sigma > 0`` (per-scenario RNG draws),
inputs the model rejects — is simply left un-primed; the scalar path
evaluates (or raises) for those scenarios at the usual point in the walk.
``tests/test_batched_kernel.py`` pins the bit-equivalence down per app
with grid goldens and Hypothesis-generated random grids.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as _np

from repro.api.registry import perf_models
from repro.cloud.skus import VmSku
from repro.cluster.network import NetworkModel, network_for_sku
from repro.core.scenarios import Scenario
from repro.errors import ConfigError
from repro.perf.apps import gromacs as _gromacs
from repro.perf.apps import lammps as _lammps
from repro.perf.apps import namd as _namd
from repro.perf.apps import openfoam as _openfoam
from repro.perf.cache import cache_profile_for
from repro.perf.comm import imbalance_factor, solver_reduction_time_per_iter
from repro.perf.machine import MachineModel
from repro.simd.physics import (ADAPTERS, FastPhysics, ScenarioPhysics,
                                _SCRIPT_FAIL)

_TWO_THIRDS = 2.0 / 3.0

#: Prep-memo sentinels: the scenario's inputs fail before the model runs
#: (script failure for every shape) / raise ConfigError in the scalar walk.
_PREP_SCRIPT_FAIL = ("script-fail",)
_PREP_CONFIG_ERROR = ("config-error",)


def _surface(col: List[float]):
    """``v ** (2/3)`` per element, via CPython pow (see module docstring)."""
    return _np.array([v ** _TWO_THIRDS for v in col])


# -- per-app communication kernels ------------------------------------------------
#
# Each mirrors the corresponding model's ``comm_time`` for nodes > 1; the
# caller substitutes a zero column for single-node groups, exactly like the
# scalar early-returns.  ``rows`` is the group's list of params dicts.

def _halo(net: NetworkModel, units: List[float], bytes_per_unit: float,
          neighbors: int):
    """``halo_time_per_step`` columnwise: one NIC, 3-D surface term."""
    nbytes = 6.0 * _surface(units) * bytes_per_unit
    return (neighbors / 2.0 * net.effective_latency
            + nbytes / net.effective_bandwidth)


def _comm_lammps(net: NetworkModel, nodes: int, rows: List[dict]):
    atoms = [p["atoms"] for p in rows]
    steps = _np.array([p["steps"] for p in rows])
    per_step = _halo(net, [a / nodes for a in atoms],
                     _lammps.HALO_BYTES_PER_ATOM, 6)
    per_step = per_step + net.allreduce_time(64.0, nodes)
    return per_step * steps


def _pme(net: NetworkModel, nodes: int, grid_bytes):
    """``pme_alltoall_time_per_step`` columnwise."""
    per_node = grid_bytes / nodes
    return ((nodes - 1) * net.effective_latency
            + 2.0 * per_node / net.effective_bandwidth)


def _comm_gromacs(net: NetworkModel, nodes: int, rows: List[dict]):
    atoms = [p["atoms"] for p in rows]
    steps = _np.array([p["steps"] for p in rows])
    halo = _halo(net, [a / nodes for a in atoms], 96.0, 6)
    grid = _np.array(atoms) * _gromacs.PME_GRID_BYTES_PER_ATOM
    return steps * (halo + _pme(net, nodes, grid))


def _comm_namd(net: NetworkModel, nodes: int, rows: List[dict]):
    atoms = [p["atoms"] for p in rows]
    steps = _np.array([p["steps"] for p in rows])
    halo = _halo(net, [a / nodes for a in atoms], 120.0, 6)
    grid = _np.array(atoms) * _namd.PME_GRID_BYTES_PER_ATOM
    return steps * (halo + _pme(net, nodes, grid)) * 0.67


def _comm_wrf(net: NetworkModel, nodes: int, rows: List[dict]):
    points = [p["points"] for p in rows]
    steps = _np.array([p["steps"] for p in rows])
    per_step = _halo(net, [v / nodes for v in points], 64.0, 4)
    return per_step * steps


def _comm_openfoam(net: NetworkModel, nodes: int, rows: List[dict]):
    cells = [p["cells"] for p in rows]
    iters = _np.array([p["iters"] for p in rows])
    reduction = solver_reduction_time_per_iter(
        net, nodes, _openfoam.REDUCTIONS_PER_ITER,
        software_alpha_s=_openfoam.GAMG_SOFTWARE_ALPHA_S,
    )
    halo = _halo(net, [c / nodes for c in cells], 200.0, 6)
    return iters * (reduction + halo)


def _comm_matrixmult(net: NetworkModel, nodes: int, rows: List[dict]):
    n = _np.array([p["n"] for p in rows])
    panels = _np.maximum(1.0, n / 512)
    block = 8.0 * n * 512 / nodes
    depth = math.ceil(math.log2(nodes))
    bcast = depth * (net.effective_latency + block / net.effective_bandwidth)
    return panels * 2.0 * bcast


# -- per-app HPCADVISORVAR row formatters ----------------------------------------
#
# Each reproduces ``AppAdapter.app_vars(model.app_metrics(...))`` for one
# row: same key order, same ``str``/format renderings, same operand order
# in the derived-rate arithmetic.

def _vars_lammps(p: dict, work: float, t: float) -> Dict[str, str]:
    return {"APPEXECTIME": f"{t:.6g}",
            "LAMMPSSTEPS": str(int(p["steps"])),
            "LAMMPSATOMS": str(int(p["atoms"]))}


def _vars_openfoam(p: dict, work: float, t: float) -> Dict[str, str]:
    return {"APPEXECTIME": f"{t:.2f}",
            "OFCELLS": str(int(p["cells"])),
            "OFITERATIONS": str(int(p["iters"]))}


def _vars_gromacs(p: dict, work: float, t: float) -> Dict[str, str]:
    ns = p["steps"] * 2e-6
    ns_per_day = ns / max(t, 1e-9) * 86_400.0
    return {"APPEXECTIME": f"{t:.6g}",
            "GMXATOMS": str(int(p["atoms"])),
            "GMXSTEPS": str(int(p["steps"])),
            "GMXNSPERDAY": f"{ns_per_day:.2f}"}


def _vars_namd(p: dict, work: float, t: float) -> Dict[str, str]:
    days_per_ns = t / 86_400.0 / max(p["steps"] * 2e-6, 1e-12)
    return {"APPEXECTIME": f"{t:.6g}",
            "NAMDATOMS": str(int(p["atoms"])),
            "NAMDSTEPS": str(int(p["steps"])),
            "NAMDDAYSPERNS": f"{days_per_ns:.4f}"}


def _vars_wrf(p: dict, work: float, t: float) -> Dict[str, str]:
    return {"APPEXECTIME": f"{t:.6g}",
            "WRFRESOLUTIONKM": f"{p['resolution_km']:g}",
            "WRFGRIDPOINTS": str(int(p["points"])),
            "WRFSTEPS": str(int(p["steps"]))}


def _vars_matrixmult(p: dict, work: float, t: float) -> Dict[str, str]:
    gflops = work / max(t, 1e-12) / 1e9
    return {"APPEXECTIME": f"{t:.6g}",
            "MMSIZE": str(int(p["n"])),
            "MMGFLOPS": f"{gflops:.1f}"}


_COMM: Dict[str, Callable] = {
    "lammps": _comm_lammps,
    "openfoam": _comm_openfoam,
    "gromacs": _comm_gromacs,
    "namd": _comm_namd,
    "wrf": _comm_wrf,
    "matrixmult": _comm_matrixmult,
}

_VARS: Dict[str, Callable[[dict, float, float], Dict[str, str]]] = {
    "lammps": _vars_lammps,
    "openfoam": _vars_openfoam,
    "gromacs": _vars_gromacs,
    "namd": _vars_namd,
    "wrf": _vars_wrf,
    "matrixmult": _vars_matrixmult,
}


def _model_for(physics: ScenarioPhysics, appname: str):
    model = physics._models.get(appname)
    if model is None:
        model = perf_models.create(appname, physics.noise)
        physics._models[appname] = model
    return model


def _machine_for(physics: ScenarioPhysics, sku: VmSku) -> MachineModel:
    machine = physics._machines.get(sku.name)
    if machine is None:
        machine = MachineModel(sku)
        physics._machines[sku.name] = machine
        physics._networks[sku.name] = network_for_sku(sku)
    return machine


def prime_grid(physics: ScenarioPhysics, scenarios: Sequence[Scenario],
               sku_for: Callable[[str], Optional[VmSku]],
               ) -> Dict[str, FastPhysics]:
    """Evaluate every coverable scenario in one vectorized pass.

    Returns ``{scenario_id: FastPhysics}`` for O(1) engine lookups and
    fills the physics table's memo, so later scalar ``evaluate`` calls
    (and warm cross-region sweeps) hit.  Scenarios that cannot be primed
    exactly are omitted — never approximated.
    """
    primed: Dict[str, FastPhysics] = {}
    if physics.noise.sigma > 0.0 or not scenarios:
        return primed
    results = physics._results
    params_memo = physics._params
    groups: Dict[tuple, tuple] = {}
    # Env handling and parameter validation depend only on (app, inputs) —
    # one prep per distinct appinputs, shared across the SKU × nnodes grid.
    prep: Dict[tuple, tuple] = {}
    prep_get = prep.get
    for s in scenarios:
        appname = s.appname
        adapter = ADAPTERS.get(appname)
        if adapter is None or appname not in _COMM:
            continue
        sku = sku_for(s.sku_name)
        if sku is None:
            continue
        ikey = tuple(sorted(s.appinputs.items()))
        rkey = (appname, sku.name, s.nnodes, s.ppn, ikey)
        hit = results.get(rkey)
        if hit is not None:
            primed[s.scenario_id] = hit
            continue
        got = prep_get((appname, ikey))
        if got is None:
            # The scalar _evaluate's pre-model short circuits, in order.
            env = {str(k).upper(): str(v) for k, v in s.appinputs.items()}
            if any(name not in env for name in adapter.required_env):
                got = _PREP_SCRIPT_FAIL
            else:
                model_inputs = adapter.model_inputs(env)
                if model_inputs is None:
                    got = _PREP_SCRIPT_FAIL
                else:
                    pkey = (appname, tuple(sorted(model_inputs.items())))
                    params = params_memo.get(pkey)
                    if params is None:
                        try:
                            params = _model_for(physics, appname) \
                                .validate_inputs(model_inputs)
                        except ConfigError:
                            # The scalar walk raises this at the scenario's
                            # position; leaving such scenarios un-primed
                            # preserves that behaviour exactly.
                            got = _PREP_CONFIG_ERROR
                        else:
                            params_memo[pkey] = params
                    if got is None:
                        got = (pkey, params)
            prep[(appname, ikey)] = got
        if got is _PREP_CONFIG_ERROR:
            continue
        if got is _PREP_SCRIPT_FAIL or not 1 <= s.ppn <= sku.cores:
            results[rkey] = primed[s.scenario_id] = _SCRIPT_FAIL
            continue
        pkey, params = got
        key = (appname, sku.name, s.nnodes, s.ppn)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = (sku, [])
        bucket[1].append((rkey, s.scenario_id, pkey, params))
    ws_work: Dict[tuple, tuple] = {}
    for (appname, _sku_name, nodes, ppn), (sku, rows) in groups.items():
        _prime_group(physics, appname, sku, nodes, ppn, rows, ws_work,
                     primed)
    return primed


def _prime_group(physics: ScenarioPhysics, appname: str, sku: VmSku,
                 nodes: int, ppn: int, rows: list, ws_work: Dict[tuple, tuple],
                 primed: Dict[str, FastPhysics]) -> None:
    """`simulate_shaped` columnwise for one (app, sku, nodes, ppn) group."""
    model = _model_for(physics, appname)
    machine = _machine_for(physics, sku)
    net = physics._networks[sku.name]
    ws_col: List[float] = []
    work_col: List[float] = []
    for _rkey, _sid, pkey, params in rows:
        cached = ws_work.get(pkey)
        if cached is None:
            cached = ws_work[pkey] = (model.working_set_bytes(params),
                                      model.total_work(params))
        ws_col.append(cached[0])
        work_col.append(cached[1])

    # Group constants, via the real model objects (scalar parity is free).
    params0 = rows[0][3]
    throughput = (model.node_throughput(machine, params0)
                  * machine.compute_scale(ppn, model.cpu_fraction))
    imb = imbalance_factor(nodes * ppn, model.imbalance_coeff)
    cpu_fraction = model.cpu_fraction
    serial = model.serial_overhead_s
    ram = machine.ram_bytes
    mm_sat = min(1.0, ppn / max(1.0, 0.5 * machine.cores))

    ws_node = _np.array(ws_col) / nodes
    fits = ws_node * 1.6 <= ram  # MachineModel.fits_in_memory, default safety

    profile = cache_profile_for(sku)
    ws_ref = profile.ws_ref_l3_multiple * sku.l3_bytes
    pressure = ws_node / ws_ref
    if profile.form == "power":
        if profile.gamma == 1.0:
            pg = pressure  # x ** 1.0 is exactly x on both paths
        else:
            pg = _np.array([v ** profile.gamma for v in pressure.tolist()])
        slow = 1.0 + profile.amp * pg
    else:
        slow = 1.0 + profile.amp * pressure / (pressure + profile.knee)

    t_comp = _np.array(work_col) * slow * imb / (nodes * throughput)
    if nodes > 1:
        t_comm = _COMM[appname](net, nodes, [r[3] for r in rows])
    else:
        t_comm = _np.zeros(len(rows))
    t_total = serial + t_comp + t_comm
    # All bundled models carry a positive serial overhead, so t_total > 0
    # and the metric ratios below match the scalar guards; if a model ever
    # breaks that assumption, leave the group to the scalar path.
    if not (t_total > 0.0).all():  # pragma: no cover - defensive
        return

    comm_fraction = t_comm / t_total
    busy = t_comp / t_total
    cpu_util = _np.minimum(1.0, cpu_fraction * busy / slow)
    mem_bw_util = _np.minimum(1.0, (1.0 - cpu_fraction) * busy * mm_sat)
    if nodes > 1:
        net_util = _np.minimum(1.0, 0.6 * comm_fraction)
    else:
        net_util = _np.zeros(len(rows))
    mem_used = _np.minimum(1.0, ws_node / ram)

    results = physics._results
    app_vars = _VARS[appname]
    sku_name = sku.name
    # tolist() materializes python floats in one C pass — bit-identical to
    # per-element float(), without 10 np.float64 boxings per row.
    fits_l = fits.tolist()
    total_l = t_total.tolist()
    cpu_l = cpu_util.tolist()
    bw_l = mem_bw_util.tolist()
    net_l = net_util.tolist()
    cf_l = comm_fraction.tolist()
    mu_l = mem_used.tolist()
    ws_l = ws_node.tolist()
    for i, (rkey, sid, _pkey, params) in enumerate(rows):
        if fits_l[i]:
            t = total_l[i]
            fp = FastPhysics(
                succeeded=True,
                wall_time_s=t,
                app_vars=app_vars(params, work_col[i], t),
                infra_metrics={
                    "cpu_util": cpu_l[i],
                    "mem_bw_util": bw_l[i],
                    "net_util": net_l[i],
                    "comm_fraction": cf_l[i],
                    "mem_used_fraction": mu_l[i],
                },
                failure_reason=None,
            )
        else:
            fp = FastPhysics(
                succeeded=False,
                wall_time_s=0.0,
                app_vars={},
                infra_metrics={
                    "cpu_util": 0.0, "mem_bw_util": 0.0, "net_util": 0.0,
                    "comm_fraction": 0.0, "mem_used_fraction": 1.0,
                },
                failure_reason=(
                    f"out of memory: working set {ws_l[i] / 1e9:.1f}"
                    f" GB/node exceeds {sku_name} capacity"
                ),
            )
        results[rkey] = fp
        primed[sid] = fp


# -- vectorized spot renewal walk --------------------------------------------------

def prime_spot_draws(eviction, sku_name: str, rows: Sequence[tuple], *,
                     recovery: str, interval_s: float, overhead_s: float,
                     max_preemptions: int,
                     retries: int) -> Dict[str, List[float]]:
    """Pre-draw one SKU group's eviction times via the renewal recurrence.

    ``rows`` is ``[(scenario_id, nnodes, wall_time_s, succeeded), ...]``
    for the group's primed scenarios.  The spot walk is a renewal
    process per scenario — attempt, maybe eviction, checkpoint salvage,
    next attempt — whose *draw schedule* (how many eviction draws each
    scenario consumes, at which cumulative draw numbers) depends only on
    the physics wall time, the recovery policy geometry, and the draws
    themselves.  This function replays that recurrence as NumPy column
    operations, iterating only over the still-alive frontier per attempt
    round, and returns ``{scenario_id: [draw0, draw1, ...]}`` where the
    k-th element is bit-for-bit the scalar walk's
    ``time_to_eviction(sku, sid, k, nodes=nnodes)``
    (:meth:`~repro.cloud.eviction.EvictionModel.times_to_eviction`
    guarantees the equality per draw).

    The engine's apply loop still performs every substrate interaction
    (clock advances, node leases, billing windows) scalar and in order —
    byte-identity entangles the checkpoint arithmetic with absolute
    simulated timestamps the recurrence cannot know — so the recurrence
    predicts the *schedule*, not the outcome.  A predicted list that
    turns out too short (a survival/eviction race within one ULP of the
    scalar timeline) simply makes the walk fall back to scalar draws
    keyed on the same cumulative counter, which yields the identical
    value; prediction accuracy is a throughput concern, never a
    correctness one.  Returns ``{}`` when the rate is zero.
    """
    if not rows or eviction is None:
        return {}
    sids = [r[0] for r in rows]
    nnodes = [int(r[1]) for r in rows]
    full = _np.array([r[2] for r in rows], dtype=_np.float64)
    succeeded = _np.array([bool(r[3]) for r in rows])
    n = len(rows)
    draws: List[List[float]] = [[] for _ in range(n)]
    checkpointed = _np.zeros(n)
    preempts = _np.zeros(n, dtype=_np.int64)
    runs_left = _np.full(n, int(retries), dtype=_np.int64)
    alive = _np.ones(n, dtype=bool)
    ckpt = recovery == "checkpoint_restart"
    give_up_always = recovery == "fail"
    # Every round either finishes a run (bounded by retries) or absorbs a
    # preemption (bounded by max_preemptions per run); anything beyond
    # this cap means the prediction lost the race somewhere — leave the
    # rest to the walk's scalar fallback.
    round_cap = (int(max_preemptions) + 2) * (int(retries) + 1) + 2
    for _ in range(round_cap):
        idx = _np.flatnonzero(alive)
        if idx.size == 0:
            break
        c = checkpointed[idx]
        overhead = _np.where(c > 0.0, overhead_s, 0.0)
        # resumed_wall_s, columnwise: a fresh run (c == 0, overhead 0)
        # takes the full wall; a resume replays max(0, full - c) plus
        # the restore overhead.
        wall = _np.where(c > 0.0,
                         _np.maximum(0.0, full[idx] - c) + overhead,
                         full[idx])
        drawn = eviction.times_to_eviction(
            sku_name,
            [sids[i] for i in idx],
            [len(draws[i]) for i in idx],
            [nnodes[i] for i in idx],
        )
        if drawn is None:  # rate is zero: the walk never draws
            return {}
        for j, i in enumerate(idx):
            draws[i].append(float(drawn[j]))
        evicted = drawn < wall
        # Survivors complete this run; failed physics retries afresh.
        done = idx[~evicted]
        retry = done[~succeeded[done] & (runs_left[done] > 0)]
        alive[done] = False
        alive[retry] = True
        runs_left[retry] -= 1
        checkpointed[retry] = 0.0
        preempts[retry] = 0
        # Evicted attempts salvage checkpointed progress and either
        # continue the run, or give up and burn a retry_failed re-run.
        hit = idx[evicted]
        if hit.size:
            preempts[hit] += 1
            if ckpt:
                elapsed = drawn[evicted]
                progress = checkpointed[hit] + _np.maximum(
                    0.0, elapsed - overhead[evicted]
                )
                checkpointed[hit] = _np.floor(
                    progress / interval_s
                ) * interval_s
            if give_up_always:
                gave_up = hit
            else:
                gave_up = hit[preempts[hit] >= max_preemptions]
            if gave_up.size:
                rerun = gave_up[runs_left[gave_up] > 0]
                alive[gave_up] = False
                alive[rerun] = True
                runs_left[rerun] -= 1
                checkpointed[rerun] = 0.0
                preempts[rerun] = 0
    return {sid: seq for sid, seq in zip(sids, draws)}
