"""Store benchmark: SQLite pushdown vs the legacy JSONL file.

Builds a large synthetic corpus (default 50k points, the acceptance
scale; override with ``BENCH_STORE_POINTS``) and measures the two hot
paths the ``repro.store`` database exists for:

* **filtered advice query** — what ``advise``/``plot``/``predict`` do:
  fetch one (app, SKU) slice of the corpus.  The JSONL baseline
  deserializes every point ever collected and filters in memory
  (``query.apply(Dataset.load(path).points())``); the SQLite path
  pushes the filter down to an indexed ``WHERE``.
  Acceptance: >= 10x faster at 50k points.
* **single-point append** — what the collector does per completed
  scenario.  The historical JSON path was a load-modify-save of the
  whole corpus (``Dataset.save`` rewrites the file); the store path is
  one ``INSERT``.  Acceptance: >= 20x faster at 50k points.

Run standalone::

    python benchmarks/bench_store.py [--points 50000] [--no-check]

or via pytest (the CI smoke step)::

    BENCH_STORE_POINTS=8000 pytest benchmarks/bench_store.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

from repro.core.dataset import DataPoint, Dataset
from repro.core.query import Query
from repro.store import SqliteStore

APPS = ("lammps", "openfoam")
SKUS = ("Standard_HB120rs_v3", "Standard_HB120rs_v2", "Standard_HC44rs",
        "Standard_D32s_v5", "Standard_F72s_v2")
NNODES = (1, 2, 4, 8, 16, 32)

#: Acceptance floors at the 50k-point scale.  Smoke runs at smaller
#: scales use proportionally softer floors (the gap *grows* with corpus
#: size, since the JSONL path is O(corpus) and the SQLite path is not).
QUERY_SPEEDUP_FLOOR = 10.0
APPEND_SPEEDUP_FLOOR = 20.0


def synthetic_corpus(n: int):
    """``n`` deterministic points spread over apps/SKUs/node counts."""
    points = []
    for i in range(n):
        sku = SKUS[i % len(SKUS)]
        points.append(DataPoint(
            appname=APPS[i % len(APPS)],
            sku=sku,
            nnodes=NNODES[i % len(NNODES)],
            ppn=120,
            exec_time_s=100.0 + (i % 997),
            cost_usd=0.01 * (1 + i % 89),
            appinputs={"BOXFACTOR": str(4 + i % 4)},
            tags={"experiment": "bench-store"},
            deployment="bench-000",
            timestamp=float(i),
        ))
    return points


def _advice_query() -> Query:
    """The shape of a real advice read: one app, one SKU slice."""
    return Query(appname="lammps", sku="hb120rs_v3",
                 appinputs={"BOXFACTOR": "4"})


def _timed(fn, repeat: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(n_points: int, check: bool = True,
                  query_floor: float = None,
                  append_floor: float = None) -> dict:
    # Floors scale with corpus size below the acceptance scale so the
    # CI smoke stays meaningful without being flaky.
    scale = min(1.0, n_points / 50_000)
    query_floor = (query_floor if query_floor is not None
                   else max(2.0, QUERY_SPEEDUP_FLOOR * scale))
    append_floor = (append_floor if append_floor is not None
                    else max(4.0, APPEND_SPEEDUP_FLOOR * scale))

    workdir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        points = synthetic_corpus(n_points)
        extra = synthetic_corpus(1)[0]
        jsonl_path = os.path.join(workdir, "dataset-bench.jsonl")
        sqlite = SqliteStore(os.path.join(workdir, "store-bench.sqlite"))

        load_jsonl = _timed(lambda: Dataset(points).save(jsonl_path),
                            repeat=1)
        load_sqlite = _timed(lambda: sqlite.append_points(points), repeat=1)

        # -- filtered advice query ----------------------------------------
        query = _advice_query()

        def jsonl_query():
            return query.apply(Dataset.load(jsonl_path).points())

        expected = query.apply(points)
        assert jsonl_query() == expected
        assert sqlite.query_points(query) == expected
        t_jsonl_query = _timed(jsonl_query)
        t_sqlite_query = _timed(lambda: sqlite.query_points(query))
        query_speedup = t_jsonl_query / t_sqlite_query

        # -- single-point append ------------------------------------------
        # The historical JSON path: the whole corpus rewritten per point.
        legacy = Dataset(points)
        legacy_path = os.path.join(workdir, "legacy.jsonl")

        def legacy_append():
            legacy.append(extra)
            legacy.save(legacy_path)

        t_legacy_append = _timed(legacy_append)
        t_sqlite_append = _timed(lambda: sqlite.append_point(extra))
        append_speedup = t_legacy_append / t_sqlite_append

        results = {
            "points": n_points,
            "bulk_load_jsonl_s": load_jsonl,
            "bulk_load_sqlite_s": load_sqlite,
            "filtered_query_jsonl_s": t_jsonl_query,
            "filtered_query_sqlite_s": t_sqlite_query,
            "filtered_query_speedup": query_speedup,
            "append_legacy_rewrite_s": t_legacy_append,
            "append_sqlite_s": t_sqlite_append,
            "append_speedup_vs_legacy": append_speedup,
            "query_floor": query_floor,
            "append_floor": append_floor,
        }
        sqlite.close()

        print(f"\n=== repro.store benchmark @ {n_points} points ===")
        print(f"bulk load:        jsonl {load_jsonl * 1e3:9.1f} ms   "
              f"sqlite {load_sqlite * 1e3:9.1f} ms")
        print(f"filtered query:   jsonl {t_jsonl_query * 1e3:9.1f} ms   "
              f"sqlite {t_sqlite_query * 1e3:9.1f} ms   "
              f"-> {query_speedup:6.1f}x (floor {query_floor:.0f}x)")
        print(f"append one point: legacy rewrite "
              f"{t_legacy_append * 1e3:9.1f} ms   "
              f"sqlite {t_sqlite_append * 1e3:9.1f} ms   "
              f"-> {append_speedup:6.1f}x (floor {append_floor:.0f}x)")

        if check:
            assert query_speedup >= query_floor, (
                f"filtered-query speedup {query_speedup:.1f}x below the "
                f"{query_floor:.0f}x floor at {n_points} points"
            )
            assert append_speedup >= append_floor, (
                f"append speedup {append_speedup:.1f}x below the "
                f"{append_floor:.0f}x floor at {n_points} points"
            )
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _configured_points(default: int = 50_000) -> int:
    return int(os.environ.get("BENCH_STORE_POINTS", default))


def test_store_speedups():
    """CI smoke: the speedup floors hold at the configured scale."""
    run_benchmark(_configured_points())


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=_configured_points())
    parser.add_argument("--no-check", action="store_true",
                        help="report without asserting the floors")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw numbers as JSON")
    args = parser.parse_args(argv)
    results = run_benchmark(args.points, check=not args.no_check)
    if args.json:
        print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
