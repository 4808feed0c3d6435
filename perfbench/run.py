"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {sweep,advise,ingest_advise} \\
        --seed N --seconds S --trace {0,1}

Builds nothing: the program is this checkout's ``src`` tree, imported
fresh in every process the benchmark starts.  ``--trace 0`` prints the
end-to-end metrics with tracing off; ``--trace 1`` prints the per-layer
metrics of a traced run.  Either way the workload's outputs are checked,
and the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("sweep", "advise", "ingest_advise")

#: Develop a performance change on seed 1; confirm its claim on this one.
CLAIM_CHECK_SEED = 2


def _workload_module(name: str):
    import advise
    import ingest
    import sweep

    return {"sweep": sweep, "advise": advise, "ingest_advise": ingest}[name]


def worker_main(argv) -> int:
    """Entry of the benchmark's own worker processes."""
    common.require_source_tree()
    kind = argv[0]
    if kind == "sweep":
        import sweep

        seed, traced, workdir = argv[1:4]
        result = sweep.worker(int(seed), traced == "1", workdir, _STARTED)
    elif kind == "ingest":
        import ingest

        seed, seconds, trace, workdir, setup_only = argv[1:6]
        result = ingest.worker(int(seed), float(seconds), trace == "1",
                               setup_only == "1", workdir, _STARTED)
    else:
        raise common.BenchError(f"unknown worker {kind!r}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the servers it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_source_tree()
        common.check_client_threads()
        cpu = speed.pin_to_one_cpu()
        with common.work_dir(args.workload) as workdir:
            metrics, attempted, failed, detail = _workload_module(
                args.workload).run(args.seed, args.seconds,
                                   bool(args.trace), workdir)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("perfbench detail: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "claim_check_seed": CLAIM_CHECK_SEED,
        "host": common.host_info(), "pinned_cpu": cpu, **detail}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
