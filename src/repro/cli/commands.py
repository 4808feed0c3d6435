"""Implementations of the CLI commands.

Every command is a thin presenter over :class:`repro.api.AdvisorSession`:
the session owns deployment, state, backend, dataset, and task-DB
lifecycle; this module only parses arguments into typed requests and
prints the typed results (as text, or as JSON with ``--json``).
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.api import (
    AdviseRequest,
    AdvisorSession,
    CollectRequest,
    PlotRequest,
    PredictRequest,
)
from repro.api.serde import parse_key_values
from repro.core.statefiles import resolve_state_dir
from repro.errors import ReproError
from repro.units import fmt_duration, fmt_usd


def _session(state_dir: Optional[str]) -> AdvisorSession:
    """The CLI always persists state (default dir when none is given)."""
    return AdvisorSession(state_dir=resolve_state_dir(state_dir))


# -- deploy ------------------------------------------------------------------------


def deploy_create(args: argparse.Namespace) -> int:
    info = _session(args.state_dir).deploy(args.config)
    print(f"created deployment {info.name} in {info.region}")
    print(f"  resource group:  {info.name}")
    print(f"  vnet:            {info.vnet}")
    print(f"  storage account: {info.storage_account}")
    print(f"  batch account:   {info.batch_account}")
    if info.jumpbox:
        print(f"  jumpbox:         {info.jumpbox}")
    print(f"  scenarios:       {info.scenario_count}")
    for path in info.archived_data:
        print(f"  note: archived data of a previous deployment "
              f"named {info.name}: {path}")
    return 0


def deploy_list(args: argparse.Namespace) -> int:
    import json

    session = _session(args.state_dir)
    total = session.count_deployments()
    infos = session.list_deployments(limit=args.limit, offset=args.offset)
    if args.as_json:
        print(json.dumps(
            {"deployments": [info.to_dict() for info in infos],
             "total": total, "limit": args.limit, "offset": args.offset},
            indent=1,
        ))
        return 0
    if not infos:
        print("(no deployments)")
        return 0
    print(f"{'NAME':<28} {'REGION':<16} {'APP':<12} SCENARIOS")
    for info in infos:
        scenarios = str(info.scenario_count) if info.scenario_count else "-"
        print(f"{info.name:<28} {info.region:<16} "
              f"{info.appname or '-':<12} {scenarios}")
    if len(infos) < total:
        print(f"({len(infos)} of {total} deployment(s); "
              "use --limit/--offset to page)")
    return 0


def deploy_shutdown(args: argparse.Namespace) -> int:
    _session(args.state_dir).shutdown(args.name, purge_data=args.purge_data)
    # Simulated resources live in-process; removing the record is the
    # persistent part.  Report the same wording as the real tool.
    print(f"deployment {args.name} shut down; all resources deleted")
    if args.purge_data:
        print(f"collected data of {args.name} purged")
    return 0


# -- collect -------------------------------------------------------------------------


def collect_request(args: argparse.Namespace) -> CollectRequest:
    """The sweep request of ``collect`` and ``submit``, from the flags
    both register (``main._add_collect_arguments``)."""
    return CollectRequest(
        deployment=args.name,
        backend=args.backend,
        smart_sampling=args.smart_sampling,
        sampling_policy=args.sampling_policy,
        delete_pools=args.delete_pools,
        noise=args.noise,
        seed=args.seed,
        budget_usd=args.budget,
        retry_failed=args.retry_failed,
        max_parallel_pools=args.parallel_pools,
        capacity=args.capacity,
        recovery=args.recovery,
        eviction_rate=args.eviction_rate,
        eviction_seed=args.eviction_seed,
        checkpoint_interval_s=args.checkpoint_interval,
        checkpoint_overhead_s=args.checkpoint_overhead,
    )


def collect(args: argparse.Namespace) -> int:
    if args.as_json and args.report:
        raise ReproError("--json cannot be combined with --report")
    session = _session(args.state_dir)
    result = session.collect(collect_request(args))
    if args.as_json:
        print(result.to_json(indent=1))
        return 0 if result.ok else 1
    print(f"collection finished on {result.backend}:")
    print(f"  executed:  {result.executed} "
          f"(completed {result.completed}, failed {result.failed})")
    if result.skipped or result.predicted:
        print(f"  skipped:   {result.skipped} (smart sampling)")
        print(f"  predicted: {result.predicted} (smart sampling)")
    print(f"  task cost:           ${fmt_usd(result.task_cost_usd)}")
    print(f"  infrastructure cost: "
          f"${fmt_usd(result.infrastructure_cost_usd)}")
    print(f"  provisioning time:   "
          f"{fmt_duration(result.provisioning_overhead_s)}")
    print(f"  sweep makespan:      {fmt_duration(result.makespan_s)} "
          f"({result.max_parallel_pools} parallel pool(s))")
    if result.engine != "object" or result.engine_fallback:
        line = f"  engine:              {result.engine}"
        if result.engine_fallback:
            line += f" (fell back: {result.engine_fallback})"
        print(line)
    if result.capacity == "spot":
        print(f"  spot capacity:       {result.preemptions} preemption(s), "
              f"{fmt_duration(result.wasted_node_s)} node-time wasted "
              f"(recovery: {result.recovery})")
    print(f"  dataset:             {result.dataset_path} "
          f"({result.dataset_points} points)")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    if args.report:
        from repro.core.report import render_report

        print()
        print(render_report(result, session.dataset(args.name),
                            taskdb=session.taskdb(args.name),
                            title=f"Sweep report for {args.name}"), end="")
    return 0 if result.ok else 1


# -- plot ---------------------------------------------------------------------------


def plot(args: argparse.Namespace) -> int:
    result = _session(args.state_dir).plot(PlotRequest(
        deployment=args.name,
        output_dir=args.output,
        filters=parse_key_values(args.filter),
        sku=args.sku,
        subtitle=args.subtitle,
    ))
    if args.as_json:
        print(result.to_json(indent=1))
        return 0
    for path in result.paths:
        print(f"wrote {path}")
    return 0


# -- advice --------------------------------------------------------------------------


def advice(args: argparse.Namespace) -> int:
    if args.as_json and (args.recipes or args.spot):
        raise ReproError(
            "--json cannot be combined with --recipes or --spot"
        )
    session = _session(args.state_dir)
    req = AdviseRequest(
        deployment=args.name,
        filters=parse_key_values(args.filter),
        sort_by=args.sort,
        max_rows=args.max_rows,
        capacity=args.capacity or "",
        recovery=args.recovery,
        eviction_rate=args.eviction_rate,
        checkpoint_interval_s=args.checkpoint_interval,
        checkpoint_overhead_s=args.checkpoint_overhead,
    )
    result = session.advise(req)
    if args.as_json:
        print(result.to_json(indent=1))
        return 0
    print(result.render_table(), end="")
    if args.spot:
        from repro.cloud.eviction import EvictionModel
        from repro.core.cost import spot_savings_summary
        from repro.core.query import Query

        # Same region, price catalog and snapshot as the advice table
        # above, so the summary and a `--capacity spot` table never
        # disagree about the same configuration.
        region = str(session.record(args.name).get("region") or "") or None
        eviction = (EvictionModel.flat(req.eviction_rate, region=region)
                    if req.eviction_rate is not None else None)
        print("\n--- What-if: spot capacity (risk-adjusted) ---")
        print(spot_savings_summary(
            session.snapshot(args.name).view(
                Query(appinputs=dict(req.filters))),
            session.deployment(args.name).provider.prices,
            region=region,
            eviction=eviction,
            recovery=req.recovery,
            checkpoint_interval_s=req.checkpoint_interval_s,
            checkpoint_overhead_s=req.checkpoint_overhead_s,
        ), end="")
    if args.recipes and result.rows:
        recipe = session.recipe_for(result.rows[0], deployment=args.name,
                                    appname=result.appname)
        print("\n--- Slurm recipe for the top advice row ---")
        print(recipe.slurm_script)
        print("--- Cluster recipe ---")
        print(recipe.cluster_recipe)
    return 0


# -- predict (extension) ----------------------------------------------------------


def predict(args: argparse.Namespace) -> int:
    """Predicted advice for new inputs, trained on the deployment's data."""
    result = _session(args.state_dir).predict(PredictRequest(
        deployment=args.name,
        inputs=parse_key_values(args.input),
        nnodes=tuple(args.nnodes or ()),
        model=args.backend,
    ))
    if args.as_json:
        print(result.to_json(indent=1))
        return 0
    inputs_label = ", ".join(
        f"{k}={v}" for k, v in sorted(result.inputs.items())
    )
    print(f"predicted advice for {result.appname} ({inputs_label}) — "
          f"0 executions, trained on {result.trained_on} points"
          + (f", CV MAPE {result.cv_mape:.1%}" if result.cv_mape else ""))
    print(result.render_table(), end="")
    return 0


# -- data (extension: paginated point listings) ----------------------------------


def data(args: argparse.Namespace) -> int:
    """Paginated listing of a deployment's stored points.

    The filter runs inside the store (SQL pushdown), so paging a huge
    corpus never loads it whole.
    """
    from repro.core.query import Query

    result = _session(args.state_dir).datapoints(args.name, Query(
        appname=args.appname,
        sku=args.sku,
        nnodes=tuple(args.nnodes or ()),
        capacity=args.capacity,
        appinputs=parse_key_values(args.filter),
        tags=parse_key_values(args.tag),
        include_predicted=not args.measured_only,
        limit=args.limit,
        offset=args.offset,
    ))
    if args.as_json:
        print(result.to_json(indent=1))
        return 0
    if not result.total:
        print("(no matching data points)")
        return 0
    print(f"{'APP':<10} {'SKU':<22} {'NODES':>5} {'PPN':>4} "
          f"{'TIME(S)':>9} {'COST($)':>9}  CAP")
    for p in result.points:
        marker = " *" if p.predicted else ""
        print(f"{p.appname:<10} {p.sku:<22} {p.nnodes:>5} {p.ppn:>4} "
              f"{p.exec_time_s:>9.1f} {p.cost_usd:>9.4f}  "
              f"{p.capacity}{marker}")
    shown = len(result.points)
    print(f"({shown} of {result.total} matching point(s), offset "
          f"{result.offset}, store: {result.store_backend})")
    return 0


# -- export (extension) ----------------------------------------------------------


def export(args: argparse.Namespace) -> int:
    """Write a deployment's data in the legacy JSON-file layout."""
    store = _session(args.state_dir).store
    for path in store.export_data(args.name, args.output):
        print(f"wrote {path}")
    return 0


# -- compare (extension) ---------------------------------------------------------


def compare(args: argparse.Namespace) -> int:
    """Matched-scenario comparison of two deployments' datasets."""
    from repro.core.compare import render_comparison

    comparison = _session(args.state_dir).compare(args.a, args.b)
    regressions = comparison.regressions()
    if args.as_json:
        from repro.api.results import CompareResult

        print(CompareResult.from_comparison(
            comparison, deployment_a=args.a, deployment_b=args.b,
        ).to_json(indent=1))
        return 1 if regressions else 0
    print(render_comparison(comparison, label_a=args.a, label_b=args.b),
          end="")
    if regressions:
        print(f"\n{len(regressions)} scenario(s) regressed by more than 5%")
        return 1
    return 0


# -- gui ------------------------------------------------------------------------------


def gui(args: argparse.Namespace) -> int:
    from repro.gui.server import serve

    return serve(_session(args.state_dir), host=args.host, port=args.port,
                 once=args.once)


# -- service (extension: advisor-as-a-service) --------------------------------


def serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve as serve_service

    return serve_service(resolve_state_dir(args.state_dir), host=args.host,
                         port=args.port, workers=args.workers, once=args.once)


def fleet_serve(args: argparse.Namespace) -> int:
    from repro.fleet.supervisor import serve_fleet

    return serve_fleet(resolve_state_dir(args.state_dir), host=args.host,
                       port=args.port, workers=args.workers,
                       job_workers=args.job_workers)


def trace(args: argparse.Namespace) -> int:
    """Print a deployment's recorded span tree(s) with timings."""
    import json

    from repro import telemetry
    from repro.core.statefiles import StateStore

    store = StateStore(root=resolve_state_dir(args.state_dir))
    events = telemetry.read_events(store.traces_path(args.name))
    if not events:
        print(f"(no traces recorded for {args.name})")
        return 1
    if args.as_json:
        print(json.dumps({"deployment": args.name, "events": events},
                         indent=1))
        return 0
    if args.show_all:
        blocks = [
            telemetry.render_tree(trace_events)
            for trace_events in telemetry.group_traces(events).values()
        ]
        print("\n\n".join(blocks))
        return 0
    latest = telemetry.latest_trace(events)
    print(telemetry.render_tree(latest[1]))
    return 0


def _print_job(record, as_json: bool) -> None:
    if as_json:
        print(record.to_json(indent=1))
        return
    print(f"job {record.id}: {record.state} "
          f"({record.kind} on {record.deployment})")
    if record.progress:
        total = record.progress.get("total", 0)
        done = (record.progress.get("completed", 0)
                + record.progress.get("failed", 0)
                + record.progress.get("skipped", 0)
                + record.progress.get("predicted", 0))
        print(f"  progress: {done}/{total} scenario(s)")
    if record.error:
        print(f"  error: {record.error}")


def submit(args: argparse.Namespace) -> int:
    """Submit an async collect job to a running service.

    With ``--trace``, the client opens its own span in the deployment's
    trace ring under ``--state-dir`` and propagates the trace id to the
    service, so ``repro trace <deployment>`` afterwards shows one linked
    tree from this submit down to the worker's sweep stages.
    """
    from repro.client import RemoteSession

    remote = RemoteSession(
        args.url,
        trace_dir=resolve_state_dir(args.state_dir) if args.trace else None,
    )
    job = remote.collect(collect_request(args))
    if args.wait:
        job.wait(timeout=args.timeout, raise_on_failure=False)
    _print_job(job.record, args.as_json)
    # Any terminal state other than done is a failure for scripting.
    if job.record.finished and job.record.state != "done":
        return 1
    return 0


def status(args: argparse.Namespace) -> int:
    """Show one job, or a (paginated) job listing, of a running service."""
    import json

    from repro.client import RemoteSession

    remote = RemoteSession(args.url)
    if args.job_id:
        _print_job(remote.job(args.job_id), args.as_json)
        return 0
    records = remote.jobs(limit=args.limit, offset=args.offset)
    if args.as_json:
        print(json.dumps({"jobs": [r.to_dict() for r in records]}, indent=1))
        return 0
    if not records:
        print("(no jobs)")
        return 0
    print(f"{'JOB':<18} {'STATE':<10} {'KIND':<8} DEPLOYMENT")
    for record in records:
        print(f"{record.id:<18} {record.state:<10} {record.kind:<8} "
              f"{record.deployment}")
    return 0


def result(args: argparse.Namespace) -> int:
    """Wait for a job and print its typed result."""
    from repro.client import JobHandle, RemoteSession

    remote = RemoteSession(args.url)
    job = JobHandle(remote, remote.job(args.job_id))
    record = job.wait(timeout=args.timeout, raise_on_failure=False)
    if record.state != "done":
        _print_job(record, args.as_json)
        return 1
    payload = job.result()
    if args.as_json:
        print(payload.to_json(indent=1))
        return 0
    if record.kind == "collect":
        print(f"collection finished on {payload.backend}:")
        print(f"  executed:  {payload.executed} "
              f"(completed {payload.completed}, failed {payload.failed})")
        print(f"  task cost:           ${fmt_usd(payload.task_cost_usd)}")
        print(f"  sweep makespan:      {fmt_duration(payload.makespan_s)}")
        print(f"  dataset:             {payload.dataset_path} "
              f"({payload.dataset_points} points)")
        return 0 if payload.ok else 1
    print(payload.render_table(), end="")
    return 0
