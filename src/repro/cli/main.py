"""hpcadvisor-sim: CLI entry point.

Reproduces the paper's Table II::

    deploy create     Creates a cloud deployment
    deploy list       Lists all previous and current cloud deployments.
    deploy shutdown   Shuts down a given cloud deployment, deleting all its
                      resources.
    collect           Collects data, i.e. runs all scenarios on a given
                      deployment.
    plot              Generates plots using a given data filter.
    advice            Generates advice (i.e. Pareto front) using a given
                      data filter.
    gui               Starts the GUI mode.

Extensions beyond Table II: ``predict``, ``compare``, ``export`` (the
paper's JSON-file layout of a deployment's data), and the service
commands — ``serve`` (JSON HTTP API with async collect jobs) plus the
remote-client trio ``submit`` / ``status`` / ``result``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcadvisor-sim",
        description=(
            "HPCAdvisor (reproduction): assist HPC users in selecting cloud "
            "resources, over a simulated Azure back-end."
        ),
    )
    parser.add_argument(
        "--state-dir",
        help="state directory (default: $HPCADVISOR_STATE_DIR or ~/.hpcadvisor-sim)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # deploy ------------------------------------------------------------------
    deploy = sub.add_parser("deploy", help="manage cloud deployments")
    deploy_sub = deploy.add_subparsers(dest="deploy_command", required=True)

    deploy_create = deploy_sub.add_parser("create", help="create a deployment")
    deploy_create.add_argument("-c", "--config", required=True,
                               help="main YAML configuration file")

    deploy_list = deploy_sub.add_parser("list", help="list deployments")
    deploy_list.add_argument("--limit", type=int,
                             help="page size (default: all)")
    deploy_list.add_argument("--offset", type=int, default=0,
                             help="skip the first N deployments")
    deploy_list.add_argument("--json", action="store_true", dest="as_json",
                             help="emit the deployment list as JSON")

    deploy_shutdown = deploy_sub.add_parser(
        "shutdown", help="delete a deployment and all its resources"
    )
    deploy_shutdown.add_argument("-n", "--name", required=True)
    deploy_shutdown.add_argument(
        "--purge-data", action="store_true",
        help="also delete the deployment's collected data "
             "(dataset/task-DB/store files, locks, plots)",
    )

    # collect ------------------------------------------------------------------
    collect = sub.add_parser("collect", help="run all scenarios on a deployment")
    collect.add_argument("-n", "--name", required=True, help="deployment name")
    collect.add_argument(
        "--backend", default="azurebatch",
        help="execution back-end from the registry (built-in: azurebatch, "
             "slurm; default: azurebatch, as in the paper)",
    )
    collect.add_argument(
        "--smart-sampling", action="store_true",
        help="enable the Sec. III-F sampling optimizations",
    )
    collect.add_argument(
        "--delete-pools", action="store_true",
        help="delete pools on VM-type switch instead of resizing to zero",
    )
    collect.add_argument("--noise", type=float,
                         help="run-to-run noise sigma (default 0: deterministic)")
    collect.add_argument("--seed", type=int, help="noise seed")
    collect.add_argument("--budget", type=float,
                         help="hard USD budget for measured task spend")
    collect.add_argument("--retry-failed", type=int, default=0,
                         help="immediate retries for failed scenarios")
    collect.add_argument(
        "--parallel-pools", type=int, default=1, metavar="N",
        help="run up to N VM-type pools concurrently in simulated time "
             "(default 1: the paper's sequential Algorithm 1)",
    )
    _add_spot_arguments(collect, default_recovery="restart")
    collect.add_argument("--eviction-seed", type=int, default=0,
                         help="seed for the spot interruption draws "
                              "(same seed, same evictions)")
    _add_engine_argument(collect)
    collect.add_argument("--report", action="store_true",
                         help="print the full sweep report afterwards")
    collect.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the collection result as JSON")

    # plot ----------------------------------------------------------------------
    plot = sub.add_parser("plot", help="generate plots using a data filter")
    plot.add_argument("-n", "--name", required=True, help="deployment name")
    plot.add_argument("-o", "--output", help="output directory for SVGs")
    plot.add_argument("--filter", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="appinput filter, repeatable (e.g. --filter mesh='40 16 16')")
    plot.add_argument("--sku", help="restrict to one VM type")
    plot.add_argument("--subtitle", help="override the plot subtitle")
    plot.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the plot result (paths, kinds) as JSON")

    # advice ---------------------------------------------------------------------
    advice = sub.add_parser("advice", help="generate Pareto-front advice")
    advice.add_argument("-n", "--name", required=True, help="deployment name")
    advice.add_argument("--sort", choices=["time", "cost"], default="time")
    advice.add_argument("--filter", action="append", default=[],
                        metavar="KEY=VALUE")
    advice.add_argument("--max-rows", type=int)
    advice.add_argument("--recipes", action="store_true",
                        help="emit Slurm + cluster recipes for the top row")
    advice.add_argument("--spot", action="store_true",
                        help="also show the risk-adjusted spot comparison "
                             "table")
    advice.add_argument(
        "--capacity", choices=["ondemand", "spot"],
        help="what-if tier for the advice itself: 'spot' risk-adjusts "
             "every configuration (expected cost, expected/P95 makespan) "
             "under the eviction model; 'ondemand' strips spot dynamics",
    )
    advice.add_argument("--recovery",
                        choices=["restart", "checkpoint_restart"],
                        default="checkpoint_restart",
                        help="recovery policy assumed by --capacity spot")
    advice.add_argument("--eviction-rate", type=float, metavar="PER_HOUR",
                        help="flat eviction-rate override "
                             "(interruptions per node-hour)")
    advice.add_argument("--checkpoint-interval", type=float, default=600.0,
                        metavar="S", help="checkpoint interval in work "
                                          "seconds (default 600)")
    advice.add_argument("--checkpoint-overhead", type=float, default=60.0,
                        metavar="S", help="restore overhead per resume "
                                          "(default 60)")
    advice.add_argument(
        "--engine", choices=["auto", "objects", "columnar"], default="auto",
        help="advice read engine: 'columnar' serves from the NumPy "
             "snapshot cache with vectorized risk math (byte-identical "
             "results); 'objects' forces the legacy per-point pipeline; "
             "see `repro engines`",
    )
    advice.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the advice result as JSON")

    # predict (extension: the paper's zero-execution advice vision) ----------
    predict = sub.add_parser(
        "predict",
        help="predict advice for new inputs from collected data (extension)",
    )
    predict.add_argument("-n", "--name", required=True,
                         help="deployment whose dataset trains the model")
    predict.add_argument("--input", action="append", default=[],
                         metavar="KEY=VALUE", required=False,
                         help="application input(s) to predict for")
    predict.add_argument("--nnodes", type=int, nargs="+",
                         help="candidate node counts "
                              "(default: those in the dataset)")
    predict.add_argument("--backend", choices=["ridge", "knn"],
                         default="ridge")
    predict.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the prediction result as JSON")

    # data (extension: paginated, store-pushed point listings) -----------------
    data = sub.add_parser(
        "data",
        help="list a deployment's stored data points with filters and "
             "pagination (extension)",
    )
    data.add_argument("-n", "--name", required=True, help="deployment name")
    data.add_argument("--appname", help="restrict to one application")
    data.add_argument("--sku", help="restrict to one VM type")
    data.add_argument("--nnodes", type=int, nargs="+",
                      help="restrict to these node counts")
    data.add_argument("--capacity", choices=["ondemand", "spot"],
                      help="restrict to one capacity tier")
    data.add_argument("--filter", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="appinput filter, repeatable")
    data.add_argument("--tag", action="append", default=[],
                      metavar="KEY=VALUE", help="tag filter, repeatable")
    data.add_argument("--measured-only", action="store_true",
                      help="exclude sampler-predicted points")
    data.add_argument("--limit", type=int, default=50,
                      help="page size (default 50; 0 counts only)")
    data.add_argument("--offset", type=int, default=0,
                      help="skip the first N matching points")
    data.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the page as JSON")

    # export (extension: the legacy JSON-file layout) -------------------------
    export = sub.add_parser(
        "export",
        help="write a deployment's collected data in the legacy layout "
             "(dataset-<name>.jsonl + tasks-<name>.json), which a state "
             "directory imports on first open (extension)",
    )
    export.add_argument("-n", "--name", required=True, help="deployment name")
    export.add_argument("-o", "--output", required=True, metavar="DIR",
                        help="directory to write the two files to (not "
                             "the state directory itself)")

    # compare (extension: before/after sweeps via tags) ------------------------
    engines = sub.add_parser(
        "engines",
        help="list execution and advice read engines and their "
             "feature coverage",
    )
    engines.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the engine matrix as JSON")

    compare = sub.add_parser(
        "compare",
        help="compare two deployments' datasets scenario by scenario "
             "(extension)",
    )
    compare.add_argument("-a", required=True, metavar="NAME",
                         help="baseline deployment")
    compare.add_argument("-b", required=True, metavar="NAME",
                         help="candidate deployment")
    compare.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the comparison as JSON")

    # gui -------------------------------------------------------------------------
    trace = sub.add_parser(
        "trace", help="print a deployment's telemetry span tree"
    )
    trace.add_argument("-n", "--name", required=True, help="deployment name")
    trace.add_argument("--all", action="store_true", dest="show_all",
                       help="print every recorded trace, not just the "
                            "most recent one")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the raw span events as JSON")

    gui = sub.add_parser("gui", help="start the browser GUI")
    gui.add_argument("--port", type=int, default=8040)
    gui.add_argument("--host", default="127.0.0.1")
    gui.add_argument("--once", action="store_true",
                     help=argparse.SUPPRESS)  # test hook: handle one request

    # serve (extension: the advisor as a JSON HTTP service) --------------------
    serve = sub.add_parser(
        "serve",
        help="start the JSON HTTP API service with async collect jobs "
             "(extension)",
    )
    serve.add_argument("--port", type=int, default=8050)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--workers", type=int, default=4,
                       help="job worker threads (default 4)")
    serve.add_argument("--once", action="store_true",
                       help=argparse.SUPPRESS)  # test hook: handle one request

    # fleet (extension: multi-process serving over one state dir) --------------
    fleet = sub.add_parser(
        "fleet",
        help="multi-worker service tier over one state directory "
             "(extension)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="pre-fork N HTTP server workers sharing one port and one "
             "job queue; crashed workers are restarted and their jobs "
             "re-claimed",
    )
    fleet_serve.add_argument("--port", type=int, default=8050)
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument("--workers", type=int, default=2,
                             help="server processes (default 2)")
    fleet_serve.add_argument("--job-workers", type=int, default=4,
                             help="job worker threads per process "
                                  "(default 4)")

    # remote-client subcommands: submit / status / result ----------------------
    submit = sub.add_parser(
        "submit", help="submit an async collect job to a running service"
    )
    submit.add_argument("--url", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8050")
    submit.add_argument("-n", "--name", required=True, help="deployment name")
    submit.add_argument("--backend", default="azurebatch")
    submit.add_argument("--smart-sampling", action="store_true")
    submit.add_argument("--sampling-policy",
                        help="named preset (implies smart sampling)")
    submit.add_argument("--delete-pools", action="store_true")
    submit.add_argument("--noise", type=float)
    submit.add_argument("--seed", type=int)
    submit.add_argument("--budget", type=float)
    submit.add_argument("--retry-failed", type=int, default=0)
    submit.add_argument("--parallel-pools", type=int, default=1, metavar="N")
    _add_spot_arguments(submit, default_recovery="restart")
    submit.add_argument("--eviction-seed", type=int, default=0)
    _add_engine_argument(submit)
    submit.add_argument("--trace", action="store_true",
                        help="open a client-side span for the submit in the "
                             "deployment's trace ring under --state-dir "
                             "(links client and server spans; see "
                             "`trace`)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="wait budget in seconds (with --wait)")
    submit.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the job record as JSON")

    status = sub.add_parser(
        "status", help="show one job (or all jobs) of a running service"
    )
    status.add_argument("--url", required=True)
    status.add_argument("job_id", nargs="?",
                        help="job id; omit to list all jobs")
    status.add_argument("--limit", type=int,
                        help="page size for the job listing (default: all)")
    status.add_argument("--offset", type=int, default=0,
                        help="skip the first N jobs (newest first)")
    status.add_argument("--json", action="store_true", dest="as_json")

    result = sub.add_parser(
        "result", help="wait for a job and print its result"
    )
    result.add_argument("--url", required=True)
    result.add_argument("job_id")
    result.add_argument("--timeout", type=float, default=600.0)
    result.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    """The execution-engine flag shared by ``collect`` and ``submit``."""
    parser.add_argument(
        "--engine", choices=["auto", "object", "batched"], default="auto",
        help="execution engine: 'auto' (default) and 'batched' run the "
             "vectorized sweep kernel (byte-identical results, falls back "
             "to the per-object scheduler when ineligible), 'object' "
             "forces the per-object scheduler; see `repro engines`",
    )


def _add_spot_arguments(parser: argparse.ArgumentParser,
                        default_recovery: str) -> None:
    """The spot-capacity flag group shared by ``collect`` and ``submit``."""
    parser.add_argument(
        "--capacity", choices=["ondemand", "spot"], default="ondemand",
        help="capacity tier: 'spot' is ~70%% cheaper but interruptible — "
             "evictions are simulated and tasks recover per --recovery",
    )
    parser.add_argument(
        "--recovery", choices=["restart", "checkpoint_restart", "fail"],
        default=default_recovery,
        help="what happens to a task when its spot node is reclaimed "
             f"(default: {default_recovery})",
    )
    parser.add_argument("--eviction-rate", type=float, metavar="PER_HOUR",
                        help="flat eviction-rate override in interruptions "
                             "per node-hour (default: per-SKU/region curve)")
    parser.add_argument("--checkpoint-interval", type=float, default=600.0,
                        metavar="S",
                        help="work seconds between checkpoints "
                             "(checkpoint_restart; default 600)")
    parser.add_argument("--checkpoint-overhead", type=float, default=60.0,
                        metavar="S",
                        help="restore overhead per resume (default 60)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    # Imports are local so `--help` stays fast.
    from repro.cli import commands

    if args.command == "deploy":
        if args.deploy_command == "create":
            return commands.deploy_create(args.state_dir, args.config)
        if args.deploy_command == "list":
            return commands.deploy_list(args.state_dir,
                                        limit=args.limit,
                                        offset=args.offset,
                                        as_json=args.as_json)
        return commands.deploy_shutdown(args.state_dir, args.name,
                                        purge_data=args.purge_data)
    if args.command == "collect":
        return commands.collect(
            args.state_dir, args.name,
            backend=args.backend,
            smart_sampling=args.smart_sampling,
            delete_pools=args.delete_pools,
            noise=args.noise,
            seed=args.seed,
            budget=args.budget,
            retry_failed=args.retry_failed,
            parallel_pools=args.parallel_pools,
            capacity=args.capacity,
            recovery=args.recovery,
            eviction_rate=args.eviction_rate,
            eviction_seed=args.eviction_seed,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_overhead=args.checkpoint_overhead,
            engine=args.engine,
            show_report=args.report,
            as_json=args.as_json,
        )
    if args.command == "plot":
        return commands.plot(
            args.state_dir, args.name,
            output=args.output,
            filters=parse_filters(args.filter),
            sku=args.sku,
            subtitle=args.subtitle,
            as_json=args.as_json,
        )
    if args.command == "advice":
        return commands.advice(
            args.state_dir, args.name,
            sort_by=args.sort,
            filters=parse_filters(args.filter),
            max_rows=args.max_rows,
            recipes=args.recipes,
            spot=args.spot,
            capacity=args.capacity,
            recovery=args.recovery,
            eviction_rate=args.eviction_rate,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_overhead=args.checkpoint_overhead,
            engine=args.engine,
            as_json=args.as_json,
        )
    if args.command == "predict":
        return commands.predict(
            args.state_dir, args.name,
            inputs=parse_filters(args.input),
            nnodes=args.nnodes,
            backend=args.backend,
            as_json=args.as_json,
        )
    if args.command == "data":
        return commands.data(
            args.state_dir, args.name,
            appname=args.appname,
            sku=args.sku,
            nnodes=args.nnodes,
            capacity=args.capacity,
            filters=parse_filters(args.filter),
            tags=parse_filters(args.tag),
            measured_only=args.measured_only,
            limit=args.limit,
            offset=args.offset,
            as_json=args.as_json,
        )
    if args.command == "export":
        return commands.export(args.state_dir, args.name, args.output)
    if args.command == "compare":
        return commands.compare(args.state_dir, args.a, args.b,
                                as_json=args.as_json)
    if args.command == "engines":
        return commands.engines(args.state_dir, as_json=args.as_json)
    if args.command == "trace":
        return commands.trace(args.state_dir, args.name,
                              show_all=args.show_all,
                              as_json=args.as_json)
    if args.command == "gui":
        return commands.gui(args.state_dir, host=args.host, port=args.port,
                            once=args.once)
    if args.command == "serve":
        return commands.serve(args.state_dir, host=args.host, port=args.port,
                              workers=args.workers, once=args.once)
    if args.command == "fleet":
        return commands.fleet_serve(
            args.state_dir, host=args.host, port=args.port,
            workers=args.workers, job_workers=args.job_workers)
    if args.command == "submit":
        return commands.submit(
            args.url, args.name,
            backend=args.backend,
            smart_sampling=args.smart_sampling,
            sampling_policy=args.sampling_policy,
            delete_pools=args.delete_pools,
            noise=args.noise,
            seed=args.seed,
            budget=args.budget,
            retry_failed=args.retry_failed,
            parallel_pools=args.parallel_pools,
            capacity=args.capacity,
            recovery=args.recovery,
            eviction_rate=args.eviction_rate,
            eviction_seed=args.eviction_seed,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_overhead=args.checkpoint_overhead,
            engine=args.engine,
            wait=args.wait,
            timeout=args.timeout,
            as_json=args.as_json,
            state_dir=args.state_dir,
            trace=args.trace,
        )
    if args.command == "status":
        return commands.status(args.url, args.job_id,
                               limit=args.limit, offset=args.offset,
                               as_json=args.as_json)
    if args.command == "result":
        return commands.result(args.url, args.job_id, timeout=args.timeout,
                               as_json=args.as_json)
    raise AssertionError(f"unhandled command {args.command!r}")


def parse_filters(items: List[str]) -> Dict[str, str]:
    """Parse repeated KEY=VALUE filter arguments."""
    from repro.api.serde import parse_key_values

    return parse_key_values(items)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
