"""mpirun-like launcher over simulated hosts.

The bridge between the application layer and the physics: a plugin's run
function calls :meth:`MpiLauncher.run` the way the paper's Listing 2 calls
``mpirun -np $NP --host "$HOSTLIST_PPN" $APP`` — the launcher validates the
host/rank geometry, resolves the application's performance model, and
returns the simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.cluster.host import Host, hostlist_ppn
from repro.cluster.network import NetworkModel, network_for_sku
from repro.errors import AppScriptError

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoids a cycle
    from repro.perf.model import AppPerfModel, PerfResult
    from repro.perf.noise import NoiseModel


@dataclass(frozen=True)
class MpiRunResult:
    """Outcome of one mpirun invocation."""

    perf: "PerfResult"
    nodes: int
    ppn: int
    np: int
    hostlist: str
    app: str

    @property
    def succeeded(self) -> bool:
        return self.perf.succeeded

    @property
    def exec_time_s(self) -> float:
        return self.perf.exec_time_s


@dataclass
class MpiLauncher:
    """Launches simulated MPI jobs on a fixed set of hosts.

    Parameters
    ----------
    hosts:
        The nodes available to this job (all must share one SKU, as a Batch
        pool or Slurm partition guarantees).
    noise:
        Noise model threaded into the performance models.
    """

    hosts: List[Host]
    noise: Optional["NoiseModel"] = None
    launch_log: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hosts:
            raise AppScriptError("MpiLauncher needs at least one host")
        skus = {h.sku.name for h in self.hosts}
        if len(skus) > 1:
            raise AppScriptError(
                f"all hosts in one MPI job must share a SKU, got {sorted(skus)}"
            )

    @property
    def sku(self):
        return self.hosts[0].sku

    @property
    def network(self) -> NetworkModel:
        return network_for_sku(self.sku)

    def run(
        self,
        app: str,
        inputs: Mapping[str, str],
        ppn: Optional[int] = None,
        np: Optional[int] = None,
        model: Optional["AppPerfModel"] = None,
    ) -> MpiRunResult:
        """Run application ``app`` across all hosts.

        Parameters
        ----------
        app:
            Registered model name (``lammps``, ``openfoam``, ...), i.e. the
            binary the run script would have passed to mpirun.
        inputs:
            Application input parameters.
        ppn:
            Ranks per node; defaults to every slot on each host.
        np:
            Total ranks; must equal ``nodes * ppn`` when given (mirrors the
            ``NP=$(($NNODES * $PPN))`` arithmetic in the paper's script).
        model:
            Explicit model instance (overrides registry lookup).
        """
        nodes = len(self.hosts)
        slots = self.hosts[0].slots
        effective_ppn = ppn if ppn is not None else slots
        if not 1 <= effective_ppn <= slots:
            raise AppScriptError(
                f"ppn {effective_ppn} out of range [1, {slots}] for {self.sku.name}"
            )
        expected_np = nodes * effective_ppn
        if np is not None and np != expected_np:
            raise AppScriptError(
                f"np mismatch: mpirun got -np {np} but hostlist provides "
                f"{nodes} nodes x {effective_ppn} ppn = {expected_np}"
            )
        from repro.perf.noise import NO_NOISE
        from repro.api.registry import perf_models

        noise = self.noise if self.noise is not None else NO_NOISE
        perf_model = (model if model is not None
                      else perf_models.create(app, noise))
        result = perf_model.simulate(
            self.sku, nodes, effective_ppn, inputs, network=self.network
        )
        hostlist = hostlist_ppn(self.hosts, effective_ppn)
        self.launch_log.append(
            f"mpirun -np {expected_np} --host {hostlist} {app} "
            f"-> {'ok' if result.succeeded else 'FAILED'} "
            f"({result.exec_time_s:.2f}s)"
        )
        return MpiRunResult(
            perf=result,
            nodes=nodes,
            ppn=effective_ppn,
            np=expected_np,
            hostlist=hostlist,
            app=app,
        )
