"""Azure Batch back-end: the paper's default execution substrate.

Maps the collector's primitives onto the simulated Batch service: one pool
per VM type (named after the SKU), setup tasks on pool creation, and
multi-instance compute tasks per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.appkit.metricvars import extract_vars
from repro.appkit.script import AppScript
from repro.backends.base import (AsyncOp, ExecutionBackend,
                                 ScenarioRunResult, resumed_wall_s)
from repro.backends.common import execute_run, execute_setup
from repro.batch.service import BatchService
from repro.batch.task import BatchTask, TaskContext, TaskKind, TaskOutput
from repro.clock import SimClock
from repro.core.scenarios import Scenario
from repro.errors import BackendError

if False:  # pragma: no cover - typing only
    from repro.perf.noise import NoiseModel


def pool_id_for(sku_name: str, capacity: str = "ondemand") -> str:
    prefix = "pool-spot-" if capacity == "spot" else "pool-"
    return prefix + sku_name.lower().replace("standard_", "")


@dataclass
class AzureBatchBackend(ExecutionBackend):
    """ExecutionBackend over :class:`repro.batch.service.BatchService`."""

    service: BatchService
    noise: Optional["NoiseModel"] = None
    job_id: str = "hpcadvisor-job"
    #: Capacity tier for pools created from here on: ``ondemand`` (the
    #: paper's billing) or ``spot`` (discounted, interruptible).  Spot
    #: pools live under distinct ids, so both tiers can coexist on one
    #: deployment and each bills at its own rate.
    capacity: str = "ondemand"
    _task_counter: int = 0
    _provisioning_s: float = 0.0
    _setup_done: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.job_id not in self.service.jobs:
            # One job per pool is the Batch pattern; jobs are created lazily
            # as pools appear (a job must reference an existing pool).
            pass

    @property
    def name(self) -> str:
        return "azurebatch"

    @property
    def supports_preemption(self) -> bool:
        return True

    @property
    def clock(self) -> SimClock:
        return self.service.clock

    def _pool_id(self, sku_name: str) -> str:
        return pool_id_for(sku_name, self.capacity)

    # -- capacity ----------------------------------------------------------------

    def submit_provision(self, sku_name: str, nodes: int) -> AsyncOp:
        pool_id = self._pool_id(sku_name)
        if pool_id not in self.service.pools or (
            self.service.pools[pool_id].state.value == "deleted"
        ):
            # Boot jitter is keyed tier-independently so an on-demand and
            # a spot sweep of the same deployment see identical boots.
            self.service.create_pool(pool_id, sku_name, target_nodes=0,
                                     spot=self.capacity == "spot",
                                     boot_key=pool_id_for(sku_name))
            self._setup_done[pool_id] = False
            job_id = self._job_for(pool_id)
            if job_id not in self.service.jobs:
                self.service.create_job(job_id, pool_id)
        pool = self.service.get_pool(pool_id)
        if pool.current_nodes < nodes:
            ready_at = pool.begin_resize(nodes)
        else:
            ready_at = self.service.clock.now
        # Boot waits count as provisioning overhead even when they overlap
        # other pools' work (the per-pool sum, as with one pool at a time).
        self._provisioning_s += ready_at - self.service.clock.now
        return AsyncOp(ready_at, pool.finish_resize)

    def release_capacity(self, sku_name: str, delete: bool) -> None:
        pool_id = self._pool_id(sku_name)
        if pool_id not in self.service.pools:
            return
        pool = self.service.pools[pool_id]
        if pool.state.value == "deleted":
            return
        if delete:
            self.service.delete_pool(pool_id)
            # Deleting the pool discards its prepared state: if the VM type
            # comes back, the application setup task must run again.
            self._setup_done[pool_id] = False
        else:
            pool.resize(0)

    def teardown(self) -> None:
        self.service.teardown()

    # -- execution -----------------------------------------------------------------

    def needs_setup(self, sku_name: str) -> bool:
        return not self._setup_done.get(self._pool_id(sku_name), False)

    def submit_setup(self, sku_name: str, script: AppScript) -> AsyncOp:
        pool_id = self._pool_id(sku_name)
        if self._setup_done.get(pool_id):
            return AsyncOp(self.service.clock.now, lambda: True)
        task = self._start(
            pool_id,
            kind=TaskKind.SETUP,
            required_nodes=1,
            executor=lambda ctx: self._setup_executor(ctx, script),
        )

        def finalize() -> bool:
            self.service.complete_task(self._job_for(pool_id), task.task_id)
            assert task.output is not None
            self._setup_done[pool_id] = task.output.succeeded
            return self._setup_done[pool_id]

        return AsyncOp(self._finish_eta(task), finalize)

    def submit_scenario(self, scenario: Scenario, script: AppScript,
                        resume_from_s: float = 0.0,
                        restart_overhead_s: float = 0.0) -> AsyncOp:
        pool_id = self._pool_id(scenario.sku_name)
        task = self._start(
            pool_id,
            kind=TaskKind.COMPUTE,
            required_nodes=scenario.nnodes,
            executor=lambda ctx: self._run_executor(
                ctx, scenario, script,
                resume_from_s=resume_from_s,
                restart_overhead_s=restart_overhead_s,
            ),
        )

        def finalize() -> ScenarioRunResult:
            accounting = self.service.complete_task(
                self._job_for(pool_id), task.task_id
            )
            output = task.output
            if output is None:
                raise BackendError(f"task {task.task_id} produced no output")
            failure = None
            if not output.succeeded:
                failure = _failure_line(output.stdout)
            return ScenarioRunResult(
                succeeded=output.succeeded,
                exec_time_s=output.wall_time_s,
                cost_usd=accounting.cost_usd,
                stdout=output.stdout,
                app_vars=extract_vars(output.stdout),
                infra_metrics=dict(output.metrics),
                failure_reason=failure,
                started_at=task.started_at or 0.0,
                finished_at=task.finished_at or 0.0,
                capacity=self.capacity,
            )

        def interrupt() -> ScenarioRunResult:
            accounting = self.service.interrupt_task(
                self._job_for(pool_id), task.task_id
            )
            return ScenarioRunResult(
                succeeded=False,
                exec_time_s=accounting.wall_time_s,
                cost_usd=accounting.cost_usd,
                stdout="",
                failure_reason="spot capacity reclaimed",
                started_at=task.started_at or 0.0,
                finished_at=task.finished_at or 0.0,
                capacity=self.capacity,
                preempted=True,
                preemptions=1,
            )

        return AsyncOp(self._finish_eta(task), finalize, interrupt)

    # -- internals ---------------------------------------------------------------------

    def _job_for(self, pool_id: str) -> str:
        return f"{self.job_id}-{pool_id}"

    @staticmethod
    def _finish_eta(task: BatchTask) -> float:
        assert task.started_at is not None and task.output is not None
        return task.started_at + task.output.wall_time_s

    def _start(self, pool_id: str, kind: TaskKind, required_nodes: int,
               executor) -> BatchTask:
        job_id = self._job_for(pool_id)
        if job_id not in self.service.jobs:
            self.service.create_job(job_id, pool_id)
        self._task_counter += 1
        task = BatchTask(
            task_id=f"{kind.value}-{self._task_counter:05d}",
            kind=kind,
            executor=executor,
            required_nodes=required_nodes,
        )
        self.service.submit_task(job_id, task)
        return self.service.start_task(job_id, task.task_id)

    def _setup_executor(self, ctx: TaskContext, script: AppScript) -> TaskOutput:
        execution = execute_setup(
            script, ctx.hosts, ctx.filesystem, ctx.workdir, noise=self.noise
        )
        return TaskOutput(
            exit_code=execution.exit_code,
            stdout=execution.stdout,
            wall_time_s=execution.wall_time_s,
        )

    def _run_executor(self, ctx: TaskContext, scenario: Scenario,
                      script: AppScript, resume_from_s: float = 0.0,
                      restart_overhead_s: float = 0.0) -> TaskOutput:
        execution = execute_run(
            script, scenario, ctx.hosts, ctx.filesystem, ctx.workdir,
            noise=self.noise,
        )
        return TaskOutput(
            exit_code=execution.exit_code,
            stdout=execution.stdout,
            wall_time_s=resumed_wall_s(execution.wall_time_s,
                                       resume_from_s, restart_overhead_s),
            metrics=execution.infra_metrics,
        )

    # -- observability ---------------------------------------------------------------------

    @property
    def provisioning_overhead_s(self) -> float:
        return self._provisioning_s

    @property
    def total_infrastructure_cost_usd(self) -> float:
        return self.service.total_pool_cost_usd


def _failure_line(stdout: str) -> str:
    for line in stdout.splitlines():
        if "reason:" in line:
            return line.split("reason:", 1)[1].strip()
    return "application script returned a non-zero exit code"
