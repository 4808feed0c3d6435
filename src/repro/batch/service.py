"""The Batch service: pool management plus synchronous task execution.

Execution is synchronous in simulated time: running a task leases nodes,
invokes the executor, advances the shared clock by the task's wall time,
then releases the nodes.  This mirrors the data-collection loop of the
paper's Algorithm 1, which processes scenarios one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.batch.job import BatchJob
from repro.batch.node import ComputeNode
from repro.batch.pool import BatchPool, PoolState
from repro.batch.task import BatchTask, TaskContext, TaskState
from repro.clock import SimClock
from repro.cloud.provider import CloudProvider
from repro.cloud.subscription import Subscription
from repro.cluster.filesystem import SharedFilesystem
from repro.cluster.host import Host
from repro.errors import BatchError, ResourceNotFound


@dataclass
class TaskAccounting:
    """Cost attribution for one executed task (the paper's task cost)."""

    task_id: str
    pool_id: str
    nodes: int
    wall_time_s: float
    cost_usd: float


@dataclass
class BatchService:
    """A Batch account scoped to one deployment."""

    account_name: str
    provider: CloudProvider
    subscription: Subscription
    region: str
    filesystem: SharedFilesystem = field(default_factory=SharedFilesystem)
    seed: int = 0
    pools: Dict[str, BatchPool] = field(default_factory=dict)
    jobs: Dict[str, BatchJob] = field(default_factory=dict)
    accounting: List[TaskAccounting] = field(default_factory=list)
    _retired_pool_cost_usd: float = 0.0
    _leases: Dict[Tuple[str, str], List[ComputeNode]] = field(
        default_factory=dict, repr=False
    )

    @property
    def clock(self) -> SimClock:
        return self.provider.clock

    # -- pools -------------------------------------------------------------------

    def create_pool(self, pool_id: str, sku_name: str,
                    target_nodes: int = 0, spot: bool = False,
                    boot_key: Optional[str] = None) -> BatchPool:
        if pool_id in self.pools:
            old = self.pools[pool_id]
            if old.state is not PoolState.DELETED:
                raise BatchError(f"pool {pool_id!r} already exists")
            # Recreating under the same id: keep the old pool's billed cost.
            self._retired_pool_cost_usd += old.accrued_cost_usd
        sku = self.provider.validate_sku_in_region(sku_name, self.region)
        pool = BatchPool(
            pool_id=pool_id,
            sku=sku,
            region=self.region,
            subscription=self.subscription,
            clock=self.clock,
            hourly_price=self.provider.prices.hourly_price(
                sku.name, self.region, spot=spot
            ),
            base_boot_s=self.provider.latencies.node_boot,
            seed=self.seed,
            spot=spot,
            boot_key=boot_key,
        )
        self.pools[pool_id] = pool
        if target_nodes:
            pool.resize(target_nodes)
        return pool

    def get_pool(self, pool_id: str) -> BatchPool:
        pool = self.pools.get(pool_id)
        if pool is None or pool.state is PoolState.DELETED:
            raise ResourceNotFound(f"pool {pool_id!r} not found")
        return pool

    def delete_pool(self, pool_id: str) -> None:
        self.get_pool(pool_id).delete()

    def list_pools(self, include_deleted: bool = False) -> List[BatchPool]:
        return [
            p for p in self.pools.values()
            if include_deleted or p.state is not PoolState.DELETED
        ]

    # -- jobs / tasks --------------------------------------------------------------

    def create_job(self, job_id: str, pool_id: str) -> BatchJob:
        if job_id in self.jobs:
            raise BatchError(f"job {job_id!r} already exists")
        self.get_pool(pool_id)  # validates
        job = BatchJob(job_id=job_id, pool_id=pool_id)
        self.jobs[job_id] = job
        return job

    def get_job(self, job_id: str) -> BatchJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ResourceNotFound(f"job {job_id!r} not found") from None

    def submit_task(self, job_id: str, task: BatchTask) -> BatchTask:
        return self.get_job(job_id).add_task(task)

    def run_task(self, job_id: str, task_id: str) -> BatchTask:
        """Execute a pending task synchronously (in simulated time)."""
        task = self.start_task(job_id, task_id)
        assert task.output is not None
        self.clock.advance(task.output.wall_time_s)
        self.complete_task(job_id, task_id)
        return task

    def start_task(self, job_id: str, task_id: str) -> BatchTask:
        """Begin a pending task without advancing the clock.

        Leases the nodes, invokes the executor (the simulated application is
        pure computation — only its ``wall_time_s`` consumes simulated time)
        and leaves the task ``RUNNING`` with its output attached.  The
        caller must let the clock reach ``task.started_at +
        output.wall_time_s`` and then call :meth:`complete_task`; the nodes
        stay leased until then, so concurrent work cannot steal them.
        """
        job = self.get_job(job_id)
        task = job.get_task(task_id)
        if task.state is not TaskState.PENDING:
            raise BatchError(
                f"task {task_id!r} is {task.state.value}, expected pending"
            )
        pool = self.get_pool(job.pool_id)
        nodes = pool.acquire_nodes(task.required_nodes)
        task.assigned_node_ids = [n.node_id for n in nodes]
        task.state = TaskState.RUNNING
        task.started_at = self.clock.now
        hosts = [
            Host(hostname=n.node_id, sku=n.sku, ip=f"10.44.1.{i + 10}",
                 slots=n.sku.cores)
            for i, n in enumerate(nodes)
        ]
        workdir = f"/mnt/nfs/jobs/{job_id}/{task_id}"
        self.filesystem.mkdir(workdir)
        context = TaskContext(
            hosts=hosts,
            filesystem=self.filesystem,
            env=dict(task.env),
            workdir=workdir,
            clock_now=self.clock.now,
        )
        try:
            task.output = task.executor(context)
        except BaseException:
            pool.release_nodes(nodes)
            task.state = TaskState.PENDING
            task.started_at = None
            task.assigned_node_ids = []
            raise
        self._leases[(job_id, task_id)] = nodes
        return task

    def complete_task(self, job_id: str, task_id: str) -> TaskAccounting:
        """Finish a task started via :meth:`start_task`.

        Must be called once the clock has reached the task's finish time;
        releases the nodes, finalizes the state, and returns the cost
        accounting entry for this task (also appended to ``accounting``).
        """
        job = self.get_job(job_id)
        task = job.get_task(task_id)
        if task.state is not TaskState.RUNNING or task.output is None:
            raise BatchError(
                f"task {task_id!r} is {task.state.value}, expected running"
            )
        pool = self.get_pool(job.pool_id)
        output = task.output
        pool.release_nodes(self._leases.pop((job_id, task_id)))
        task.finished_at = self.clock.now
        task.state = TaskState.COMPLETED if output.succeeded else TaskState.FAILED
        entry = TaskAccounting(
            task_id=task_id,
            pool_id=pool.pool_id,
            nodes=task.required_nodes,
            wall_time_s=output.wall_time_s,
            cost_usd=task.required_nodes * pool.hourly_price
            * output.wall_time_s / 3600.0,
        )
        self.accounting.append(entry)
        return entry

    def interrupt_task(self, job_id: str, task_id: str,
                       reclaimed_nodes: int = 1) -> TaskAccounting:
        """Spot preemption of a task started via :meth:`start_task`.

        Must be called with the clock sitting at the interruption time
        (strictly before the task's natural finish).  ``reclaimed_nodes``
        of the task's lease vanish (quota returned, billing stopped); the
        surviving nodes go back to idle.  The task ends ``PREEMPTED``, and
        the partial window is billed — the cloud charges spot VMs up to
        the eviction instant.  Returns the partial accounting entry.
        """
        job = self.get_job(job_id)
        task = job.get_task(task_id)
        if task.state is not TaskState.RUNNING or task.output is None:
            raise BatchError(
                f"task {task_id!r} is {task.state.value}, expected running"
            )
        assert task.started_at is not None
        natural_finish = task.started_at + task.output.wall_time_s
        if self.clock.now >= natural_finish - 1e-9:
            raise BatchError(
                f"task {task_id!r} already finished at {natural_finish}; "
                "complete it instead of interrupting"
            )
        pool = self.get_pool(job.pool_id)
        nodes = self._leases.pop((job_id, task_id))
        if not 1 <= reclaimed_nodes <= len(nodes):
            raise BatchError(
                f"cannot reclaim {reclaimed_nodes} of {len(nodes)} "
                f"leased node(s)"
            )
        for node in nodes[:reclaimed_nodes]:
            pool.preempt_node(node)
        pool.release_nodes(nodes[reclaimed_nodes:])
        task.finished_at = self.clock.now
        task.state = TaskState.PREEMPTED
        elapsed = self.clock.now - task.started_at
        entry = TaskAccounting(
            task_id=task_id,
            pool_id=pool.pool_id,
            nodes=task.required_nodes,
            wall_time_s=elapsed,
            cost_usd=task.required_nodes * pool.hourly_price
            * elapsed / 3600.0,
        )
        self.accounting.append(entry)
        return entry

    # -- accounting -------------------------------------------------------------------

    @property
    def total_task_cost_usd(self) -> float:
        """Sum of per-task VM costs (the paper's advice-cost basis)."""
        return sum(a.cost_usd for a in self.accounting)

    @property
    def total_pool_cost_usd(self) -> float:
        """Billed pool cost including boot and idle time.

        Includes pools that were deleted and recreated under the same id —
        the cloud bill does not forget them.
        """
        return self._retired_pool_cost_usd + sum(
            p.accrued_cost_usd for p in self.pools.values()
        )

    def teardown(self) -> None:
        """Delete every remaining pool (deployment shutdown)."""
        for pool in list(self.pools.values()):
            if pool.state is not PoolState.DELETED:
                pool.delete()
