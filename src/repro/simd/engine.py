"""The batched execution engine: a flat sweep loop, no per-task objects.

:func:`run_batched_sweep` advances the whole ordered scenario array in one
tight loop over the *real* execution substrate — the wrapped
:class:`~repro.backends.azurebatch.AzureBatchBackend`'s
:class:`~repro.batch.service.BatchService`, its pools, boot-jitter draws,
billing meters, and the shared clock.  Everything stateful (pool creation
and resizes, quota, setup tasks staging input data on the shared
filesystem, spot preemptions, provisioning bookkeeping) happens on those
objects exactly as the per-object scheduled walk would do it; only the
per-scenario ceremony is gone.  Instead of constructing a
``BatchTask``/``TaskContext``/``AsyncOp`` per task and running the plugin
against the simulated filesystem, the kernel looks the measurement up in
a memoized :class:`~repro.simd.physics.ScenarioPhysics` table and applies
the same clock advances, lease transitions, and accounting appends inline.

The loop body is a line-for-line transliteration of the collector's
scheduled walk at ``max_parallel_pools=1``
(``DataCollector._pool_lifecycle`` + ``_spot_execute``) +
``AzureBatchBackend``'s task finalize/interrupt closures — same clock
advances in the same order, same billing expressions (operand order
included), same task-id numbering, same eviction draws keyed per
(scenario, cumulative draw number) — so batched sweeps reproduce that
walk byte for byte.  Pool bring-up goes through the
back-end's own ``submit_provision``/``submit_setup``, waited out with
:func:`~repro.backends.base.drive`.  The determinism goldens and the
Hypothesis equivalence suite in ``tests/test_batched_kernel.py`` pin this
down; anything the kernel cannot reproduce exactly is rejected up front
by :func:`batch_eligibility` and falls back to the per-object path.

Known (intentional) divergences from the per-object path, none of which
reach a DataPoint, TaskRecord, report field, or accounting entry:

* no ``BatchTask`` objects are added to the service's jobs for compute
  tasks (setup tasks still run for real);
* no per-task workdirs, hostfiles, or application log files are written
  to the shared filesystem;
* ``ScenarioRunResult.stdout`` is empty (stdout is never persisted);
* on-demand runs do not flip node states to RUNNING for the task's
  duration (spot runs do — preemption needs a running node);
* store writes land once per pool, at its release, as one commit of
  points plus task records (``DataCollector._commit_held``) instead of
  once per scenario; the stored rows are the same.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.appkit.plugins import BUNDLED
from repro.appkit.script import AppScript
from repro.backends.azurebatch import AzureBatchBackend
from repro.backends.base import (ExecutionBackend, ScenarioRunResult,
                                 drive, resumed_wall_s)
from repro.batch.service import TaskAccounting
from repro.core.dataset import DataPoint
from repro.core.scenarios import Scenario
from repro.core.taskdb import TaskStatus
from repro.perf.noise import NO_NOISE
from repro.simd.physics import (ADAPTERS, RESERVED_ENV, FastPhysics,
                                shared_physics)
from repro.simd.vector import prime_grid, prime_spot_draws

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.collector import CollectionReport, DataCollector


def batch_eligibility(backend: ExecutionBackend, max_parallel_pools: int,
                      scenarios: List[Scenario],
                      script: AppScript) -> Optional[str]:
    """``None`` when the batched engine covers this sweep, else why not.

    The checks are exact-equivalence guards, not capability guesses: any
    configuration the fast path cannot reproduce byte-for-byte falls
    back to the per-object scheduler.  The kernel never runs ``script``
    for a scenario (it looks the measurement up in the physics table of
    the scenario's app), so the script must be that app's bundled
    plugin, unchanged.
    """
    if type(backend) is not AzureBatchBackend:
        return (f"backend {backend.name!r} is not the plain Azure Batch "
                "substrate")
    if max_parallel_pools != 1:
        return ("batched engine reproduces the one-pool walk; "
                f"max_parallel_pools={max_parallel_pools} needs the "
                "per-object scheduler")
    # Inlined covers(): one adapter lookup + key scan per scenario, no
    # call frames — this gate runs over every scenario of a large grid.
    uncovered = set()
    for s in scenarios:
        if s.appname not in ADAPTERS:
            uncovered.add(s.appname)
            continue
        for key in s.appinputs:
            if str(key).upper() in RESERVED_ENV:
                uncovered.add(s.appname)
                break
    if uncovered:
        return ("no batched physics adapter for: "
                + ", ".join(sorted(uncovered)))
    for appname in sorted({s.appname for s in scenarios}):
        if script != BUNDLED[appname]():
            return (f"application script {script.appname!r} is not the "
                    f"bundled {appname!r} plugin")
    return None


def run_batched_sweep(collector: "DataCollector",
                      ordered: List[Scenario]) -> "CollectionReport":
    """Drive one sweep through the batched kernel (module docstring).

    ``ordered`` is the collector's sorted scenario walk; eligibility
    (:func:`batch_eligibility`) must already have passed.  Returns the
    same :class:`~repro.core.collector.CollectionReport` the scheduled
    walk at one pool would have produced; the collector stamps
    engine/fallback and infrastructure totals on it afterwards.
    """
    backend: AzureBatchBackend = collector.backend
    service = backend.service
    clock = service.clock
    accounting = service.accounting
    noise = backend.noise if backend.noise is not None else NO_NOISE
    physics = shared_physics(noise)
    evaluate = physics.evaluate
    taskdb = collector.taskdb
    get_record = taskdb.get
    script = collector.script
    sampler = collector.sampler
    capacity = backend.capacity
    spot = collector.capacity == "spot"
    eviction = collector.eviction if spot else None
    recovery = collector.recovery
    interval = collector.checkpoint_interval_s
    ckpt_overhead_s = collector.checkpoint_overhead_s
    max_preemptions = collector.max_preemptions
    retry_failed = collector.retry_failed
    pending = TaskStatus.PENDING

    report = collector._new_report()
    sweep_start = clock.now
    previous_vmtype: Optional[str] = None
    # Per-SKU handles, refreshed on each VM-type switch so the hot loop
    # never re-derives pool ids (string munging) or re-looks-up pools.
    pool = None
    pool_id = ""
    hourly = 0.0
    sku = None
    cur_nodes = 0

    records = taskdb._records  # populated by _register_scenarios
    on_progress = collector.on_progress
    notify = collector._notify
    dataset_append = collector.dataset.append
    deployment = collector.deployment_name
    mark_completed = taskdb.mark_completed
    mark_failed = taskdb.mark_failed
    stop_on_failure = collector.stop_on_failure
    # Each released pool's group is committed as one unit (points and
    # task records together); the collector commits any remainder when
    # the sweep ends or aborts.
    commit = collector._commit_held

    # Still-runnable scenarios grouped by SKU: each group is primed
    # through the vectorized grid evaluator at pool-switch time, with the
    # *pool's* VmSku (never a catalog lookup), so even a backend carrying
    # a custom SKU keeps exact parity with the scalar path.
    pending_by_sku: Dict[str, List[Scenario]] = {}
    for s in ordered:
        r = records.get(s.scenario_id)
        if r is not None and r.status is pending and not r.skipped_by_sampler:
            pending_by_sku.setdefault(s.sku_name, []).append(s)
    primed: Dict[str, FastPhysics] = {}
    primed_get = primed.get

    # Spot eviction draws: keyed on the sweep-cumulative per-scenario
    # counter shared with the scalar walk (``DataCollector._spot_draws``),
    # so a retry_failed re-run continues the draw sequence instead of
    # replaying it.  ``draw_plans`` holds the vectorized walk's pre-drawn
    # times per scenario (``prime_spot_draws``), indexed by that same
    # counter; a plan that runs short falls back to the scalar draw,
    # which returns the identical value.
    spot_draws = collector._spot_draws
    spot_draws_get = spot_draws.get
    draw_plans: Dict[str, List[float]] = {}
    draw_plans_get = draw_plans.get

    def run_once(scenario: Scenario) -> ScenarioRunResult:
        """One spot scenario execution: ``DataCollector._spot_execute``
        transliterated, with the backend's submit/finalize/interrupt
        closures inlined.

        (On-demand executions are inlined in the main loop below.)"""
        nnodes = scenario.nnodes
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
                if pool.current_nodes < nnodes:
                    ready_at = pool.begin_resize(nnodes)
                    backend._provisioning_s += ready_at - clock.now
                    if ready_at > clock.now:
                        clock.advance_to(ready_at)
                    pool.finish_resize()
            resume_overhead = ckpt_overhead_s if checkpointed > 0 else 0.0
            phys = primed_get(scenario.scenario_id)
            if phys is None:
                phys = evaluate(scenario, sku)
            backend._task_counter += 1
            task_id = f"compute-{backend._task_counter:05d}"
            wall = resumed_wall_s(phys.wall_time_s, checkpointed,
                                  resume_overhead)
            started = clock.now
            if first_started is None:
                first_started = started
            evict_after = None
            if eviction is not None:
                sid = scenario.scenario_id
                draw_no = spot_draws_get(sid, 0)
                spot_draws[sid] = draw_no + 1
                plan = draw_plans_get(sid)
                if plan is not None and draw_no < len(plan):
                    evict_after = plan[draw_no]
                else:
                    evict_after = eviction.time_to_eviction(
                        scenario.sku_name, sid, draw_no, nodes=nnodes,
                    )
            # Preemption needs RUNNING nodes; lease like start_task does.
            lease = pool.acquire_nodes(nnodes)

            if evict_after is None or evict_after >= wall:
                # The attempt outruns the reaper.
                if wall > 0.0:
                    clock.advance_to(started + wall)
                pool.release_nodes(lease)
                cost = nnodes * hourly * wall / 3600.0
                accounting.append(TaskAccounting(
                    task_id=task_id, pool_id=pool_id, nodes=nnodes,
                    wall_time_s=wall, cost_usd=cost,
                ))
                if preemptions == 0:
                    # Pristine: identical to the on-demand walk.
                    return ScenarioRunResult(
                        succeeded=phys.succeeded,
                        exec_time_s=wall,
                        cost_usd=cost,
                        stdout="",
                        app_vars=phys.app_vars,
                        infra_metrics=phys.infra_metrics,
                        failure_reason=phys.failure_reason,
                        started_at=started,
                        finished_at=clock.now,
                        capacity=capacity,
                    )
                total_cost += cost
                # The restore overhead bought no new work; the app time is
                # the checkpointed progress plus this attempt's remainder.
                wasted_node_s += resume_overhead * nnodes
                return ScenarioRunResult(
                    succeeded=phys.succeeded,
                    exec_time_s=checkpointed + wall - resume_overhead,
                    cost_usd=total_cost,
                    stdout="",
                    app_vars=phys.app_vars,
                    infra_metrics=phys.infra_metrics,
                    failure_reason=phys.failure_reason,
                    started_at=first_started,
                    finished_at=clock.now,
                    capacity=capacity,
                    preemptions=preemptions,
                    wasted_node_s=wasted_node_s,
                )

            # -- the platform wins the race: interruption mid-attempt ----
            clock.advance_to(started + evict_after)
            pool.preempt_node(lease[0])
            pool.release_nodes(lease[1:])
            elapsed = clock.now - started
            cost = nnodes * hourly * elapsed / 3600.0
            accounting.append(TaskAccounting(
                task_id=task_id, pool_id=pool_id, nodes=nnodes,
                wall_time_s=elapsed, cost_usd=cost,
            ))
            preemptions += 1
            total_cost += cost
            if recovery == "checkpoint_restart":
                progress = checkpointed + max(0.0, elapsed - resume_overhead)
                survived = math.floor(progress / interval) * interval
                wasted_node_s += (
                    (elapsed - (survived - checkpointed)) * nnodes
                )
                checkpointed = survived
            else:  # restart / fail: the whole attempt is lost
                wasted_node_s += elapsed * nnodes

            give_up: Optional[str] = None
            if recovery == "fail":
                give_up = ("spot capacity reclaimed "
                           "(recovery policy: fail)")
            elif preemptions >= max_preemptions:
                give_up = (f"gave up after {preemptions} spot "
                           "preemption(s)")
            if give_up is not None:
                return ScenarioRunResult(
                    succeeded=False,
                    exec_time_s=elapsed,
                    cost_usd=total_cost,
                    stdout="",
                    failure_reason=give_up,
                    started_at=first_started,
                    finished_at=clock.now,
                    capacity=capacity,
                    preempted=True,
                    preemptions=preemptions,
                    wasted_node_s=wasted_node_s,
                )
            attempt += 1

    # Coarse wall-time attribution (CollectionReport.profile): bare
    # float accumulators, two perf_counter calls per timed section, so
    # the ~µs-per-scenario hot loop keeps its interactive latency; the
    # totals feed the collector's SweepProfiler once at the end.
    perf = time.perf_counter
    prof_setup = 0.0
    prof_provision = 0.0
    prof_scenario = 0.0
    prof_persist = 0.0
    prof_recovery = 0.0

    for scenario in ordered:
        sid = scenario.scenario_id
        record = records.get(sid)
        if record is None:  # pragma: no cover - registration guarantees it
            record = get_record(sid)
        if record.status is not pending or record.skipped_by_sampler:
            continue  # resumed sweep: already handled
        if sampler is not None and not collector._should_run(scenario, report):
            continue

        # -- Algorithm 1 lines 3-7: pool lifecycle -----------------------
        sku_name = scenario.sku_name
        if previous_vmtype != sku_name:
            if previous_vmtype is not None:
                t0 = perf()
                backend.release_capacity(
                    previous_vmtype, delete=collector.delete_pool_on_switch
                )
                prof_provision += perf() - t0
                commit()
            t0 = perf()
            previous_vmtype = sku_name
            pool = None
            if backend.needs_setup(sku_name):
                drive(clock, backend.submit_provision(sku_name, 1))
                if not drive(clock, backend.submit_setup(sku_name, script)):
                    prof_setup += perf() - t0
                    collector._fail_setup_group(sku_name, ordered, report)
                    continue
            pool_id = backend._pool_id(sku_name)
            pool = service.get_pool(pool_id)
            hourly = pool.hourly_price
            sku = pool.sku
            cur_nodes = pool.current_nodes
            primed.update(prime_grid(
                physics, pending_by_sku.get(sku_name, ()), lambda _n: sku
            ))
            prof_setup += perf() - t0
            if eviction is not None and sampler is None:
                # Vectorized spot renewal walk: pre-draw the group's
                # eviction schedule in one frontier sweep (credited to
                # the recovery stage, like the draws it replaces).  With
                # a sampler in play the executed subset is unknown, so
                # the walk keeps its scalar per-attempt draws.
                t0 = perf()
                rows = []
                for gs in pending_by_sku.get(sku_name, ()):
                    ph = primed_get(gs.scenario_id)
                    if ph is not None:
                        rows.append((gs.scenario_id, gs.nnodes,
                                     ph.wall_time_s, ph.succeeded))
                draw_plans.clear()
                draw_plans.update(prime_spot_draws(
                    eviction, sku_name, rows,
                    recovery=recovery, interval_s=interval,
                    overhead_s=ckpt_overhead_s,
                    max_preemptions=max_preemptions,
                    retries=retry_failed,
                ))
                prof_recovery += perf() - t0
        if pool is None:  # pragma: no cover - guarded by the FAILED marks
            continue
        nnodes = scenario.nnodes
        if spot:
            # Evictions inside run_once shrink the pool behind the
            # tracked count; re-read it before sizing.
            cur_nodes = pool.current_nodes
        if cur_nodes < nnodes:
            t0 = perf()
            ready_at = pool.begin_resize(nnodes)
            backend._provisioning_s += ready_at - clock.now
            if ready_at > clock.now:
                clock.advance_to(ready_at)
            pool.finish_resize()
            cur_nodes = nnodes
            prof_provision += perf() - t0

        # -- Algorithm 1 lines 8-11: execute and store --------------------
        if spot:
            t0 = perf()
            result = run_once(scenario)
            attempts = 0
            while not result.succeeded and attempts < retry_failed:
                attempts += 1
                # A losing spot attempt may have ended in an eviction
                # that reclaimed the node(s); grow the pool back before
                # retrying (mirrors the scheduled walk exactly).
                drive(clock, backend.submit_provision(sku_name, nnodes))
                result = run_once(scenario)
            prof_recovery += perf() - t0
            collector._record_result(scenario, result, report)
            if not result.succeeded and stop_on_failure:
                break
            continue

        # On-demand fast path: submit_scenario + retry loop + _record_result
        # with the intermediate ScenarioRunResult elided.  Field for field
        # identical to the pristine branch of run_once followed by
        # _record_result — preemptions and wasted_node_s stay zero on
        # on-demand capacity, so their `+= 0` folds are omitted as exact
        # identities.  Only the final attempt's window and cost are
        # recorded, exactly as the retry loop above keeps only the last
        # ``result``.
        phys = primed_get(sid)
        if phys is None:
            phys = evaluate(scenario, sku)
        attempts_left = retry_failed
        t0 = perf()
        while True:
            backend._task_counter += 1
            wall = phys.wall_time_s
            started = clock.now
            if wall > 0.0:
                clock.advance_to(started + wall)
            cost = nnodes * hourly * wall / 3600.0
            accounting.append(TaskAccounting(
                task_id=f"compute-{backend._task_counter:05d}",
                pool_id=pool_id, nodes=nnodes,
                wall_time_s=wall, cost_usd=cost,
            ))
            if phys.succeeded or attempts_left <= 0:
                break
            attempts_left -= 1
        finished = clock.now
        prof_scenario += perf() - t0
        # CollectionReport.note_execution, inlined.
        report.executed += 1
        if (report._first_started_at is None
                or started < report._first_started_at):
            report._first_started_at = started
        if (report._last_finished_at is None
                or finished > report._last_finished_at):
            report._last_finished_at = finished
        report.simulated_wall_s = (
            report._last_finished_at - report._first_started_at
        )
        t0 = perf()
        if phys.succeeded:
            point = DataPoint(
                appname=scenario.appname,
                sku=sku_name,
                nnodes=nnodes,
                ppn=scenario.ppn,
                exec_time_s=wall,
                cost_usd=cost,
                appinputs=dict(scenario.appinputs),
                app_vars=dict(phys.app_vars),
                infra_metrics=dict(phys.infra_metrics),
                tags=dict(scenario.tags),
                deployment=deployment,
                timestamp=finished,
                predicted=False,
                capacity=capacity,
                preemptions=0,
                wasted_node_s=0.0,
                makespan_s=max(0.0, finished - started),
            )
            dataset_append(point)
            if sampler is not None:
                sampler.observe(point)
            mark_completed(sid, point, started, finished)
            report.completed += 1
            report.task_cost_usd += cost
        else:
            reason = phys.failure_reason or "unknown failure"
            mark_failed(
                sid, reason,
                started_at=started,
                finished_at=finished,
                preemptions=0,
            )
            report.failed += 1
            report.failures.append(f"{sid}: {reason}")
        prof_persist += perf() - t0
        if on_progress is not None:
            notify(report)
        if not phys.succeeded and stop_on_failure:
            break

    # -- Algorithm 1 lines 13-14: final pool cleanup ----------------------
    if previous_vmtype is not None:
        t0 = perf()
        backend.release_capacity(
            previous_vmtype, delete=collector.delete_pool_on_switch
        )
        prof_provision += perf() - t0
        commit()
    report.makespan_s = clock.now - sweep_start
    profiler = collector._profiler
    profiler.add("setup", prof_setup)
    profiler.add("provision", prof_provision)
    profiler.add("scenario", prof_scenario)
    profiler.add("persist", prof_persist)
    profiler.add("recovery", prof_recovery)
    return report
