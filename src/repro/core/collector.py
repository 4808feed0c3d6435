"""Data collection: the paper's Algorithm 1, scheduled event-driven.

::

    previousVMType <- empty
    foreach task in tasks do
        if previousVMType != task.vmtype then
            if pool exists then resize pool to zero or delete pool
            create setup task(task)
        pool <- resize pool(task.vmtype, task.nnodes)
        create compute task(task); execute; store data; mark completed
        previousVMType <- task.vmtype
    if pool then resize pool to zero or delete pool

Extensions over the bare algorithm, as the paper describes elsewhere:
failed tasks are marked ``failed`` rather than aborting the sweep
(Sec. III-C's task states), and an optional smart-sampling planner
(Sec. III-F) may skip or predict scenarios instead of executing them.

Beyond the paper: scenarios are partitioned by VM type and each SKU's
pool lifecycle (provision -> setup -> ascending-node scenario chain ->
release) runs as an independent timeline on a shared
:class:`~repro.clock.EventQueue`.  Up to ``max_parallel_pools``
lifecycles are in flight at once — the way a real cloud account
provisions independent pools concurrently — which cuts the sweep
makespan roughly by the number of VM types while keeping the collected
measurements identical (executions are deterministic per scenario, so
only timestamps and the makespan depend on the interleaving).  With
``max_parallel_pools=1`` the schedule degenerates to Algorithm 1's
sequential walk, timestamps included.  The batched kernel
(:mod:`repro.simd`, ``engine="batched"``) runs that one-pool walk as a
single flat loop and reproduces it byte for byte.

**Spot capacity** (``capacity="spot"``): scenarios run on discounted,
interruptible nodes.  An :class:`~repro.cloud.eviction.EvictionModel`
samples each attempt's time-to-interruption (seeded and stateless, so a
fixed ``eviction_seed`` replays identically at any pool parallelism);
when the eviction lands before the attempt finishes, the backend's task
is killed mid-run, the reclaimed node leaves the pool, and the recovery
policy decides what happens next:

* ``restart`` — re-run from scratch (all progress lost);
* ``checkpoint_restart`` — resume from the last completed checkpoint
  (progress is checkpointed every ``checkpoint_interval_s`` seconds of
  work; each resume pays ``checkpoint_overhead_s`` of restore time, so
  at most one interval of work is lost per eviction);
* ``fail`` — the scenario fails on its first eviction.

Every attempt (including interrupted ones) bills normally, so the data
point's ``cost_usd`` is the *effective* spot cost, and ``preemptions`` /
``wasted_node_s`` / ``makespan_s`` record the risk the sweep absorbed.
With an eviction rate of zero the spot path degenerates to the
on-demand execution byte for byte (only priced at the spot rate).

**Persistence** is incremental: when the dataset and task DB are backed
by a :mod:`repro.store` backend (as the session always arranges for
persistent state), every ``dataset.append`` and task-status transition
writes through to the store the moment it happens, so a crashed or
cancelled sweep keeps everything it measured and a resumed sweep starts
from exactly what completed.  The end-of-sweep ``_save_state`` is then
only a durability flush, never a whole-corpus rewrite.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Generator, Iterator, List, Optional,
                    Protocol, runtime_checkable)

from repro.appkit.script import AppScript
from repro.backends.base import ExecutionBackend, ScenarioRunResult
from repro.clock import EventQueue
from repro.cloud.eviction import EvictionModel
from repro.core.dataset import DataPoint, Dataset
from repro.core.scenarios import Scenario
from repro.core.taskdb import TaskDB, TaskStatus
from repro.errors import BackendError, ConfigError
from repro.telemetry import SweepProfiler, global_registry

#: Engine decisions, observable on /metrics: which engine each sweep
#: ran on, and how often a requested ``batched`` engine had to degrade.
_ENGINE_SELECTED = global_registry().counter(
    "advisor_engine_selected_total",
    "Sweep execution engine selections, by engine actually used.",
)
_ENGINE_FALLBACK = global_registry().counter(
    "advisor_engine_fallback_total",
    "Requested batched engine degradations to the per-object path.",
)

#: The capacity tiers a sweep can run on.
CAPACITY_TIERS = ("ondemand", "spot")

#: Execution-engine selectors a sweep accepts: ``auto`` (per-object
#: today), ``object`` (the event-driven per-task scheduler), and
#: ``batched`` (the :mod:`repro.simd` kernel, with automatic fallback
#: to the per-object path for sweeps it cannot reproduce exactly).
ENGINE_CHOICES = ("auto", "object", "batched")

#: Task-level recovery policies for spot interruptions.
RECOVERY_POLICIES = ("restart", "checkpoint_restart", "fail")


@runtime_checkable
class SamplingPlanner(Protocol):
    """What the collector needs from a smart-sampling strategy."""

    def decide(self, scenario: Scenario) -> "SamplingDecision":
        """Choose run / skip / predict for a scenario."""

    def observe(self, point: DataPoint) -> None:
        """Feed back a measured point."""


@dataclass(frozen=True)
class SamplingDecision:
    """Outcome of a planner consultation."""

    action: str  # "run" | "skip" | "predict"
    predicted_time_s: Optional[float] = None
    predicted_cost_usd: Optional[float] = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in ("run", "skip", "predict"):
            raise ValueError(f"unknown sampling action: {self.action!r}")
        if self.action == "predict" and (
            self.predicted_time_s is None or self.predicted_cost_usd is None
        ):
            raise ValueError("predict decisions need predicted time and cost")


RUN = SamplingDecision(action="run")


@dataclass
class CollectionReport:
    """Summary of one collection sweep."""

    executed: int = 0
    completed: int = 0
    failed: int = 0
    skipped: int = 0
    predicted: int = 0
    task_cost_usd: float = 0.0
    infrastructure_cost_usd: float = 0.0
    provisioning_overhead_s: float = 0.0
    #: Last task completion minus first task start (task-level span).
    simulated_wall_s: float = 0.0
    #: Simulated sweep duration under the concurrency actually used:
    #: how far the clock moved during the sweep, pool boots and setup
    #: tasks included.
    makespan_s: float = 0.0
    max_parallel_pools: int = 1
    #: Capacity tier the sweep ran on (``ondemand`` or ``spot``).
    capacity: str = "ondemand"
    #: Recovery policy in force (empty for on-demand sweeps).
    recovery: str = ""
    #: Spot interruptions absorbed across all scenarios.
    preemptions: int = 0
    #: Billed node-seconds that produced no surviving work.
    wasted_node_s: float = 0.0
    #: Execution engine that actually ran the sweep (``object`` or
    #: ``batched`` — the latter only when requested *and* eligible).
    engine: str = "object"
    #: Why a requested ``batched`` engine fell back to the per-object
    #: path (empty when no fallback happened).
    engine_fallback: str = ""
    #: Wall-time attribution per stage (see
    #: :class:`repro.telemetry.SweepProfiler`): real seconds this
    #: process spent in provision/setup/scenario/persist/recovery, plus
    #: ``total_s`` — distinct from the *simulated* timings above.
    profile: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    _first_started_at: Optional[float] = field(default=None, repr=False)
    _last_finished_at: Optional[float] = field(default=None, repr=False)

    @property
    def total_tasks(self) -> int:
        return self.executed + self.skipped + self.predicted

    def note_execution(self, result: ScenarioRunResult) -> None:
        """Fold one execution's window into the task-level span."""
        self.executed += 1
        if (self._first_started_at is None
                or result.started_at < self._first_started_at):
            self._first_started_at = result.started_at
        if (self._last_finished_at is None
                or result.finished_at > self._last_finished_at):
            self._last_finished_at = result.finished_at
        self.simulated_wall_s = (
            self._last_finished_at - self._first_started_at
        )


@dataclass
class _SweepState:
    """Mutable cross-lifecycle coordination for one scheduled sweep."""

    report: CollectionReport
    stop: bool = False
    active: int = 0


@dataclass
class DataCollector:
    """Drives Algorithm 1 against an execution back-end."""

    backend: ExecutionBackend
    script: AppScript
    dataset: Dataset
    taskdb: TaskDB
    deployment_name: str = ""
    delete_pool_on_switch: bool = False
    sampler: Optional[SamplingPlanner] = None
    stop_on_failure: bool = False
    #: Immediate retries for failed scenarios (transient-failure tolerance;
    #: with noise enabled, reruns genuinely differ).
    retry_failed: int = 0
    #: How many SKU pool lifecycles may be in flight at once.  1 reproduces
    #: the paper's sequential Algorithm 1 exactly; higher values overlap
    #: pools in simulated time.
    max_parallel_pools: int = 1
    #: Capacity tier: ``ondemand`` (the paper's billing) or ``spot``
    #: (discounted, interruptible; needs a back-end with
    #: ``supports_preemption`` and usually an ``eviction`` model).
    capacity: str = "ondemand"
    #: What happens to a task when its spot capacity is reclaimed (see
    #: module docstring): ``restart``, ``checkpoint_restart``, or ``fail``.
    recovery: str = "restart"
    #: Work seconds between checkpoints (``checkpoint_restart`` only).
    checkpoint_interval_s: float = 600.0
    #: Restore overhead paid on each resume from a checkpoint.
    checkpoint_overhead_s: float = 60.0
    #: Execution engine: ``auto`` (per-object today), ``object``, or
    #: ``batched`` — the :mod:`repro.simd` kernel, which evaluates
    #: scenario physics from a memoized table over the real billing
    #: substrate and falls back to the per-object path (recording why
    #: on the report) for sweeps it cannot reproduce byte-for-byte.
    engine: str = "auto"
    #: Interruption sampler for spot sweeps; ``None`` means spot pricing
    #: without evictions (a best-case what-if).
    eviction: Optional[EvictionModel] = None
    #: Evictions after which a scenario is abandoned as failed — a
    #: backstop so pathological rates cannot loop forever.
    max_preemptions: int = 50
    #: Called with ``(report, total_scenarios)`` after every scenario
    #: outcome (executed, skipped, predicted, or setup-failed), so
    #: long-running sweeps can surface live progress (the service's job
    #: manager feeds its job records from this).  An exception raised
    #: here aborts the sweep — cooperative cancellation.
    on_progress: Optional[Callable[[CollectionReport, int], None]] = None
    #: Per-sweep wall-time accumulator; replaced at the top of each
    #: :meth:`collect` run (the default keeps direct calls into the
    #: per-scenario helpers safe in tests).
    _profiler: SweepProfiler = field(default_factory=SweepProfiler,
                                     init=False, repr=False, compare=False)
    #: Cumulative eviction draws consumed per scenario this sweep.  Spot
    #: draws are keyed on this counter — not on the attempt index local
    #: to one execution — so a ``retry_failed`` re-run draws *fresh*
    #: eviction times instead of replaying the sequence that already
    #: killed the scenario.  Reset at the top of each :meth:`collect`,
    #: which keeps fixed-seed sweeps replayable run to run.
    _spot_draws: Dict[str, int] = field(default_factory=dict,
                                        init=False, repr=False,
                                        compare=False)

    def collect(self, scenarios: List[Scenario]) -> CollectionReport:
        """Run the full task list; returns the sweep summary."""
        if self.max_parallel_pools < 1:
            raise ValueError(
                f"max_parallel_pools must be >= 1, got {self.max_parallel_pools}"
            )
        if self.capacity not in CAPACITY_TIERS:
            raise ConfigError(
                f"capacity must be one of {CAPACITY_TIERS}, "
                f"got {self.capacity!r}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {self.recovery!r}"
            )
        if self.checkpoint_interval_s <= 0:
            raise ConfigError(
                f"checkpoint_interval_s must be > 0, "
                f"got {self.checkpoint_interval_s}"
            )
        if self.checkpoint_overhead_s < 0:
            raise ConfigError(
                f"checkpoint_overhead_s must be >= 0, "
                f"got {self.checkpoint_overhead_s}"
            )
        if self.engine not in ENGINE_CHOICES:
            raise ConfigError(
                f"engine must be one of {ENGINE_CHOICES}, "
                f"got {self.engine!r}"
            )
        if self.capacity == "spot" and not self.backend.supports_preemption:
            raise BackendError(
                f"backend {self.backend.name!r} cannot run spot capacity "
                "(no preemption support)"
            )
        self._profiler = SweepProfiler()
        self._spot_draws = {}
        if not scenarios:
            self._total_scenarios = 0
            report = self._new_report()
            report.profile = self._profiler.as_dict()
            return report

        # Group by VM type (Algorithm 1's loop assumes this ordering) and
        # walk node counts ascending so resizes only ever grow a pool.
        ordered = sorted(
            scenarios, key=lambda s: (s.sku_name, s.nnodes, s.inputs_key())
        )
        engine_used, fallback = self._resolve_engine(ordered)
        try:
            if engine_used == "batched":
                # Store write-through is deferred around the whole sweep:
                # the initial PENDING rows and every status transition
                # merge into one bulk task sync (each record at its final
                # state) plus one bulk point append at the end (or on
                # abort) instead of per-scenario I/O.
                with self.dataset.deferred_sync(), self.taskdb.deferred_sync():
                    self._register_scenarios(scenarios)
                    report = self._collect_batched(ordered)
            else:
                self._register_scenarios(scenarios)
                report = self._collect_scheduled(ordered)
        except BaseException:
            # An aborted sweep (e.g. cooperative cancellation raised from
            # on_progress) still persists what it measured: the task DB
            # keeps its completed records, so a later collect() resumes
            # instead of re-running paid-for scenarios.  The save is
            # best-effort here — it must not mask the real outcome (a
            # cancellation misreported as a disk error).
            try:
                self._save_state()
            except Exception:  # noqa: BLE001
                pass
            raise
        report.infrastructure_cost_usd = self.backend.total_infrastructure_cost_usd
        report.provisioning_overhead_s = self.backend.provisioning_overhead_s
        report.engine = engine_used
        report.engine_fallback = fallback
        with self._profiler.stage("persist"):
            self._save_state()
        report.profile = self._profiler.as_dict()
        return report

    def _register_scenarios(self, scenarios: List[Scenario]) -> None:
        """Add this sweep's scenarios to the task DB (idempotently)."""
        known_ids = {
            r.scenario.scenario_id for r in self.taskdb.all()
        }
        self.taskdb.add_scenarios(
            s for s in scenarios if s.scenario_id not in known_ids
        )
        # Progress denominators count only *this sweep's* work: a resumed
        # sweep's already-completed scenarios never reach _notify, so
        # counting them would leave progress stuck below total forever.
        self._total_scenarios = sum(
            1 for s in scenarios
            if self.taskdb.get(s.scenario_id).status is TaskStatus.PENDING
            and not self.taskdb.get(s.scenario_id).skipped_by_sampler
        )

    def _resolve_engine(self, ordered: List[Scenario]) -> tuple:
        """Pick the execution engine for this sweep.

        Returns ``(engine_used, fallback_reason)``; a requested
        ``batched`` engine degrades gracefully to ``object`` with the
        reason recorded rather than erroring, per the engine contract.
        """
        if self.engine != "batched":
            _ENGINE_SELECTED.inc(engine="object")
            return "object", ""
        # Imported lazily: repro.simd sits above the collector in the
        # layering (it implements the backend protocol defined below us).
        from repro.simd.engine import batch_eligibility

        reason = batch_eligibility(self.backend, self.max_parallel_pools,
                                   ordered)
        if reason is not None:
            _ENGINE_SELECTED.inc(engine="object")
            _ENGINE_FALLBACK.inc()
            return "object", reason
        _ENGINE_SELECTED.inc(engine="batched")
        return "batched", ""

    def _collect_batched(self, ordered: List[Scenario]) -> CollectionReport:
        """Run the sweep on the :mod:`repro.simd` batched kernel.

        The kernel is a flat transliteration of the scheduled walk below
        at ``max_parallel_pools=1`` over the same substrate (see
        :mod:`repro.simd.engine`); spot recovery, retries, sampling, and
        reporting reproduce it byte for byte — the goldens in
        ``tests/test_batched_kernel.py`` pin this.
        """
        from repro.simd.engine import run_batched_sweep

        return run_batched_sweep(self, ordered)

    def _new_report(self) -> CollectionReport:
        return CollectionReport(
            max_parallel_pools=self.max_parallel_pools,
            capacity=self.capacity,
            recovery=self.recovery if self.capacity == "spot" else "",
        )

    def _save_state(self) -> None:
        if self.taskdb.path:
            self.taskdb.save()
        if self.dataset.path:
            self.dataset.save()

    def _notify(self, report: CollectionReport) -> None:
        if self.on_progress is not None:
            self.on_progress(report, getattr(self, "_total_scenarios", 0))

    # -- event-driven schedule ------------------------------------------------

    def _collect_scheduled(self, ordered: List[Scenario]) -> CollectionReport:
        """Run per-SKU pool lifecycles on an event queue.

        Lifecycles are launched in Algorithm 1's SKU order; at most
        ``max_parallel_pools`` are in flight, and a finished lifecycle's
        slot is handed to the next SKU immediately (list scheduling).
        """
        engine = EventQueue(self.backend.clock)
        state = _SweepState(report=self._new_report())
        sweep_start = self.backend.clock.now

        groups: Dict[str, List[Scenario]] = {}
        for scenario in ordered:
            groups.setdefault(scenario.sku_name, []).append(scenario)
        waiting = deque(groups.items())

        def on_lifecycle_done() -> None:
            state.active -= 1
            launch()

        def launch() -> None:
            while (waiting and state.active < self.max_parallel_pools
                    and not state.stop):
                sku, group = waiting.popleft()
                state.active += 1
                engine.spawn(self._pool_lifecycle(sku, group, state),
                             on_done=on_lifecycle_done)

        launch()
        # Coarse attribution: the whole event-queue drive is scenario
        # work, minus whatever the lifecycles spent persisting results
        # (credited to "persist" by _record_result as it happens).
        persist_before = self._profiler.totals.get("persist", 0.0)
        drive_started = time.perf_counter()
        engine.run_until_idle()
        drive_elapsed = time.perf_counter() - drive_started
        persist_delta = (self._profiler.totals.get("persist", 0.0)
                         - persist_before)
        self._profiler.add("scenario", drive_elapsed - persist_delta)
        state.report.makespan_s = self.backend.clock.now - sweep_start
        return state.report

    def _pool_lifecycle(self, sku: str, group: List[Scenario],
                        state: _SweepState) -> Iterator[float]:
        """One SKU's pool lifecycle as an event-queue process.

        Yields absolute simulated timestamps to wait for (boot completions,
        task finish times); the engine resumes the generator once the shared
        clock reaches them.
        """
        report = state.report
        provisioned = False
        for scenario in group:
            if state.stop:
                break
            record = self.taskdb.get(scenario.scenario_id)
            if record.status is not TaskStatus.PENDING or record.skipped_by_sampler:
                continue  # resumed sweep: already handled
            if not self._should_run(scenario, report):
                continue

            # -- Algorithm 1 lines 3-7: pool bring-up -----------------------
            if not provisioned and self.backend.needs_setup(sku):
                provisioned = True
                op = self.backend.submit_provision(sku, 1)
                yield op.ready_at
                op.finish()
                setup_op = self.backend.submit_setup(sku, self.script)
                yield setup_op.ready_at
                if not setup_op.finish():
                    self._fail_setup_group(sku, group, report)
                    break
            provisioned = True
            op = self.backend.submit_provision(sku, scenario.nnodes)
            yield op.ready_at
            op.finish()

            # -- Algorithm 1 lines 8-11: execute and store -------------------
            result = yield from self._run_scheduled(scenario)
            attempts = 0
            while not result.succeeded and attempts < self.retry_failed:
                attempts += 1
                if self.capacity == "spot":
                    # A losing spot attempt may have ended in an
                    # eviction that reclaimed the node(s); grow the
                    # pool back before retrying.
                    op = self.backend.submit_provision(sku, scenario.nnodes)
                    yield op.ready_at
                    op.finish()
                result = yield from self._run_scheduled(scenario)
            self._record_result(scenario, result, report)
            if not result.succeeded and self.stop_on_failure:
                state.stop = True
                break

        # -- Algorithm 1 lines 13-14: pool release ---------------------------
        if provisioned:
            self.backend.release_capacity(
                sku, delete=self.delete_pool_on_switch
            )

    # -- execution primitives -------------------------------------------------

    def _run_scheduled(
        self, scenario: Scenario
    ) -> Generator[float, None, ScenarioRunResult]:
        """One scenario execution as an event-queue process."""
        if self.capacity == "spot":
            result = yield from self._spot_execute(scenario)
            return result
        run_op = self.backend.submit_scenario(scenario, self.script)
        yield run_op.ready_at
        result = run_op.finish()
        assert isinstance(result, ScenarioRunResult)
        return result

    def _spot_execute(
        self, scenario: Scenario
    ) -> Generator[float, None, ScenarioRunResult]:
        """Run one scenario on spot capacity under the recovery policy.

        Yields absolute timestamps to wait for (attempt completions,
        eviction instants, replacement-node boots); returns the synthesized
        final result, whose cost sums every billed attempt and whose
        counters record the interruptions absorbed.

        Work progress is measured in seconds of application runtime.
        ``checkpoint_restart`` keeps the progress completed at the last
        multiple of ``checkpoint_interval_s``; a resumed attempt first pays
        ``checkpoint_overhead_s`` of restore time, so an eviction can never
        lose more than one interval of work (plus the restore it was in).
        Checkpoint *writes* are modelled as asynchronous and free, which is
        what makes a zero-eviction spot run identical to on-demand.
        """
        interval = self.checkpoint_interval_s
        preemptions = 0
        checkpointed = 0.0
        wasted_node_s = 0.0
        total_cost = 0.0
        first_started: Optional[float] = None
        attempt = 0
        while True:
            if attempt > 0:
                # The reclaimed node left the pool: grow back to the
                # scenario's size and wait out the replacement boot.
                op = self.backend.submit_provision(
                    scenario.sku_name, scenario.nnodes
                )
                yield op.ready_at
                op.finish()
            resume_overhead = (self.checkpoint_overhead_s
                               if checkpointed > 0 else 0.0)
            run_op = self.backend.submit_scenario(
                scenario, self.script,
                resume_from_s=checkpointed,
                restart_overhead_s=resume_overhead,
            )
            started = self.backend.clock.now
            if first_started is None:
                first_started = started
            duration = run_op.ready_at - started
            evict_after = None
            if self.eviction is not None and run_op.interruptible:
                # Draws are keyed on the sweep-cumulative counter (see
                # ``_spot_draws``): within one execution it counts
                # 0, 1, 2, ... like the old per-call attempt index did,
                # but a retry_failed re-run *continues* the sequence
                # instead of replaying the draws that already evicted it.
                draw_no = self._spot_draws.get(scenario.scenario_id, 0)
                self._spot_draws[scenario.scenario_id] = draw_no + 1
                evict_after = self.eviction.time_to_eviction(
                    scenario.sku_name, scenario.scenario_id, draw_no,
                    nodes=scenario.nnodes,
                )

            if evict_after is None or evict_after >= duration:
                # The attempt outruns the reaper.
                yield run_op.ready_at
                final = run_op.finish()
                assert isinstance(final, ScenarioRunResult)
                if preemptions == 0:
                    return final  # pristine: identical to the on-demand walk
                total_cost += final.cost_usd
                # The restore overhead bought no new work; the app time is
                # the checkpointed progress plus this attempt's remainder.
                wasted_node_s += resume_overhead * scenario.nnodes
                return replace(
                    final,
                    exec_time_s=(checkpointed + final.exec_time_s
                                 - resume_overhead),
                    cost_usd=total_cost,
                    started_at=first_started,
                    preemptions=preemptions,
                    wasted_node_s=wasted_node_s,
                )

            # -- the platform wins the race: interruption mid-attempt --------
            yield started + evict_after
            partial = run_op.interrupt()
            assert isinstance(partial, ScenarioRunResult)
            preemptions += 1
            total_cost += partial.cost_usd
            elapsed = partial.exec_time_s
            if self.recovery == "checkpoint_restart":
                progress = checkpointed + max(0.0, elapsed - resume_overhead)
                survived = math.floor(progress / interval) * interval
                wasted_node_s += (
                    (elapsed - (survived - checkpointed)) * scenario.nnodes
                )
                checkpointed = survived
            else:  # restart / fail: the whole attempt is lost
                wasted_node_s += elapsed * scenario.nnodes

            give_up: Optional[str] = None
            if self.recovery == "fail":
                give_up = ("spot capacity reclaimed "
                           "(recovery policy: fail)")
            elif preemptions >= self.max_preemptions:
                give_up = (f"gave up after {preemptions} spot "
                           "preemption(s)")
            if give_up is not None:
                return replace(
                    partial,
                    failure_reason=give_up,
                    cost_usd=total_cost,
                    started_at=first_started,
                    preemptions=preemptions,
                    wasted_node_s=wasted_node_s,
                )
            attempt += 1

    # -- shared per-scenario handling -------------------------------------------

    def _should_run(self, scenario: Scenario,
                    report: CollectionReport) -> bool:
        """Consult the sampler; handle skip/predict; True means execute."""
        decision = self.sampler.decide(scenario) if self.sampler else RUN
        if decision.action == "skip":
            self.taskdb.mark_skipped(scenario.scenario_id)
            report.skipped += 1
            self._notify(report)
            return False
        if decision.action == "predict":
            assert decision.predicted_time_s is not None
            assert decision.predicted_cost_usd is not None
            self._store(scenario, decision.predicted_time_s,
                        decision.predicted_cost_usd, {}, {}, 0.0,
                        predicted=True)
            report.predicted += 1
            self._notify(report)
            return False
        return True

    def _record_result(self, scenario: Scenario, result: ScenarioRunResult,
                       report: CollectionReport) -> None:
        """Store a (possibly failed) execution outcome."""
        report.note_execution(result)
        report.preemptions += result.preemptions
        report.wasted_node_s += result.wasted_node_s
        if result.succeeded:
            with self._profiler.stage("persist"):
                self._store(
                    scenario, result.exec_time_s, result.cost_usd,
                    result.app_vars, result.infra_metrics,
                    result.finished_at,
                    capacity=result.capacity,
                    preemptions=result.preemptions,
                    wasted_node_s=result.wasted_node_s,
                    makespan_s=max(0.0,
                                   result.finished_at - result.started_at),
                )
                self.taskdb.mark_completed(
                    scenario.scenario_id,
                    exec_time_s=result.exec_time_s,
                    cost_usd=result.cost_usd,
                    app_vars=result.app_vars,
                    infra_metrics=result.infra_metrics,
                    started_at=result.started_at,
                    finished_at=result.finished_at,
                    preemptions=result.preemptions,
                )
            report.completed += 1
            report.task_cost_usd += result.cost_usd
        else:
            reason = result.failure_reason or "unknown failure"
            with self._profiler.stage("persist"):
                self.taskdb.mark_failed(
                    scenario.scenario_id, reason,
                    started_at=result.started_at,
                    finished_at=result.finished_at,
                    preemptions=result.preemptions,
                )
            report.failed += 1
            report.failures.append(f"{scenario.scenario_id}: {reason}")
        self._notify(report)

    def _fail_setup_group(self, sku: str, scenarios: List[Scenario],
                          report: CollectionReport) -> None:
        """Mark every still-runnable scenario on ``sku`` as failed.

        A failed application setup poisons the whole VM type: no scenario
        on that SKU can produce a valid measurement, so the entire group is
        failed up front instead of letting later scenarios run on an
        unprepared pool.
        """
        reason = f"application setup failed on {sku}"
        marked = 0
        for scenario in scenarios:
            if scenario.sku_name != sku:
                continue
            record = self.taskdb.get(scenario.scenario_id)
            if record.status is not TaskStatus.PENDING or record.skipped_by_sampler:
                continue
            self.taskdb.mark_failed(scenario.scenario_id, reason)
            marked += 1
        report.executed += 1  # the setup attempt consumed backend effort
        report.failed += marked
        report.failures.append(f"{reason} ({marked} scenario(s))")
        self._notify(report)

    def _store(
        self,
        scenario: Scenario,
        exec_time_s: float,
        cost_usd: float,
        app_vars,
        infra_metrics,
        timestamp: float,
        predicted: bool = False,
        capacity: str = "ondemand",
        preemptions: int = 0,
        wasted_node_s: float = 0.0,
        makespan_s: float = 0.0,
    ) -> None:
        point = DataPoint(
            appname=scenario.appname,
            sku=scenario.sku_name,
            nnodes=scenario.nnodes,
            ppn=scenario.ppn,
            exec_time_s=exec_time_s,
            cost_usd=cost_usd,
            appinputs=dict(scenario.appinputs),
            app_vars=dict(app_vars),
            infra_metrics=dict(infra_metrics),
            tags=dict(scenario.tags),
            deployment=self.deployment_name,
            timestamp=timestamp,
            predicted=predicted,
            capacity=capacity,
            preemptions=preemptions,
            wasted_node_s=wasted_node_s,
            makespan_s=makespan_s,
        )
        self.dataset.append(point)
        if predicted:
            self.taskdb.mark_completed(
                scenario.scenario_id,
                exec_time_s=exec_time_s,
                cost_usd=cost_usd,
                predicted=True,
            )
        if self.sampler is not None and not predicted:
            self.sampler.observe(point)
