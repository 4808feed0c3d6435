"""The session facade: one typed entry point for deploy -> collect -> advise.

:class:`AdvisorSession` owns the whole pipeline — deployer, state store,
execution backend, dataset, and task DB lifecycle — behind high-level
methods, so the CLI, the GUI, examples, and programmatic callers all drive
the same code path instead of hand-wiring ``Deployer`` + ``DataCollector``
+ ``Advisor`` themselves.

Every session keeps deployments, datasets, and task DBs in a
:class:`~repro.core.statefiles.StateStore` (one SQLite database per
deployment) and reads and writes them the same way:

* ``AdvisorSession(state_dir=...)`` persists them in that directory, so
  sessions are resumable: a new session reattaches deployments and
  reloads datasets on demand, and repeated ``collect`` calls reuse
  pools and append to the same dataset instead of rebuilding from
  scratch;
* ``AdvisorSession()`` makes a private directory
  (``tempfile.mkdtemp(prefix="hpcadvisor-")``) and removes it with the
  session — good for examples, notebooks, and tests.

One-shot convenience::

    from repro.api import AdvisorSession

    result = AdvisorSession().run(config)   # deploy + collect + advise
    print(result.render_table())
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.api import registry
from repro.api.requests import (
    AdviseRequest,
    CollectRequest,
    PlotRequest,
    PredictRequest,
    RecipeRequest,
)
from repro.api.results import (
    AdviceResult,
    CollectResult,
    DataPointsResult,
    PlotResult,
    PredictResult,
    RecipeResult,
    SessionInfo,
)
from repro.core.advisor import Advisor
from repro.core.collector import DataCollector
from repro.core.config import MainConfig
from repro.core.dataset import DataPoint, Dataset
from repro.core.deployer import Deployer, Deployment
from repro.core.query import Query
from repro.api.serde import coerce_request as _coerce_request
from repro.core.statefiles import StateStore, file_lock, resolve_state_dir
from repro.core.taskdb import TaskDB
from repro.errors import ConfigError, ReproError
from repro.perf.noise import NoiseModel
from repro.sampling.planner import SmartSampler
from repro.store.sqlite import SqliteStore
from repro import telemetry

ConfigLike = Union[MainConfig, Mapping, str]

_DATAPOINT_READS = telemetry.global_registry().counter(
    "advisor_datapoints_reads_total",
    "Datapoints pages served, by source: the columnar snapshot this"
    " process already held (snapshot) or the store's query pushdown"
    " (store).",
)


class AdvisorSession:
    """Facade over the full advisory pipeline (see module docstring).

    Parameters
    ----------
    state_dir:
        Directory for persistent state.  ``None`` (default) makes the
        session ephemeral: its state lives in a private directory that
        is removed with the session.
    store:
        An explicit :class:`StateStore` (overrides ``state_dir``).
    store_backend:
        Kept for callers that name the store: ``None`` or ``"sqlite"``,
        the one store engine.  The legacy JSONL layout is an import and
        export format (:meth:`StateStore.export_data`), not a store.
    deployer:
        Injectable for tests; defaults to a fresh simulated provider.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        *,
        store: Optional[StateStore] = None,
        store_backend: Optional[str] = None,
        deployer: Optional[Deployer] = None,
    ) -> None:
        if store_backend not in (None, SqliteStore.kind):
            raise ConfigError(
                f"unknown store backend {store_backend!r}: SQLite is the "
                "only store; the legacy JSONL layout is written by "
                "`hpcadvisor-sim export` and imported on first open"
            )
        #: True when the session made its own state directory.
        self._private = state_dir is None and not store
        if self._private:
            store = StateStore(root=tempfile.mkdtemp(prefix="hpcadvisor-"))
            weakref.finalize(self, _remove_private_dir, store)
        self.store: StateStore = (
            store or StateStore(root=resolve_state_dir(state_dir)))
        self.deployer = deployer or Deployer()
        self._deployments: Dict[str, Deployment] = {}
        self._taskdbs: Dict[str, TaskDB] = {}
        self._taskdb_sigs: Dict[str, Tuple[int, int]] = {}
        self._count_cache: Dict[str, Tuple[Tuple[int, int], int]] = {}
        self._backends: Dict[Tuple[str, str], object] = {}

    # -- deploy -----------------------------------------------------------------

    def deploy(self, config: ConfigLike) -> SessionInfo:
        """Run the paper's Sec. III-B provisioning sequence.

        ``config`` may be a :class:`MainConfig`, a plain mapping, or a
        path to a YAML file.
        """
        import dataclasses

        cfg = self._coerce_config(config)
        # Name allocation is a read-modify-write on the deployments
        # index: hold its lock from the taken-names read to the save, or
        # two concurrent deploys with one prefix could both claim
        # `<prefix>-000` and interleave their sweeps in one task DB.
        with file_lock(self.store.deployments_file):
            deployment = self.deployer.deploy(cfg, taken=self._taken_names())
            archived = self._discard_orphaned_state(deployment.name)
            self._deployments[deployment.name] = deployment
            self.store.save_deployment(deployment)
        return dataclasses.replace(self._info(deployment),
                                   archived_data=archived)

    def _taken_names(self) -> set:
        """Names the deployer's fresh provider cannot see: the store's
        records (other processes' deployments) plus this session's —
        without these, a second CLI process would re-allocate
        ``<prefix>-000`` and clobber a live deployment's data.
        """
        return set(self._deployments) | {
            str(r["name"]) for r in self.store.list_deployments()}

    def _discard_orphaned_state(self, name: str) -> Tuple[str, ...]:
        """Move aside dataset/task DB left by a shut-down deployment of
        the same name — a fresh deployment must start clean, not inherit
        old data (a stale task DB would make its first ``collect`` a
        no-op).  Files are archived, never deleted: the data was paid
        for.  Returns the archive paths (surfaced by ``deploy``).
        """
        # Close the cached store first: archiving a live SQLite database
        # under an open connection would leave writes going to the
        # renamed file.
        self.store.release_data_store(name)
        # Take the same locks (same order) a running collect holds from
        # load to save: archiving mid-sweep would let the sweep's final
        # save resurrect the old files under the fresh deployment's name.
        with file_lock(self.store.taskdb_path(name)), \
                file_lock(self.store.dataset_path(name)):
            archived = [self._archive(path)
                        for path in self.store.data_files(name)]
        # Plots are regenerable from the archived dataset.
        shutil.rmtree(self.store.plots_dir(name), ignore_errors=True)
        self._taskdbs.pop(name, None)
        self._taskdb_sigs.pop(name, None)
        self._count_cache.pop(name, None)
        return tuple(archived)

    def _archive(self, path: str) -> str:
        archive_dir = os.path.join(self.store.root, "archive")
        os.makedirs(archive_dir, exist_ok=True)
        base = os.path.basename(path)
        dest = os.path.join(archive_dir, base)
        k = 1
        while os.path.exists(dest):
            dest = os.path.join(archive_dir, f"{base}.{k}")
            k += 1
        os.replace(path, dest)
        return dest

    def deployment(self, name: str) -> Deployment:
        """The live deployment, reattaching from the state store if needed.

        Reattachment replays the recorded configuration on the *session's*
        provider (the simulated control plane is deterministic), so all of
        a session's deployments share one provider and one price catalog.
        """
        if name not in self._deployments:
            self._deployments[name] = self.store.attach(
                name, deployer=self.deployer
            )
        return self._deployments[name]

    def record(self, name: str) -> Dict:
        """The serializable deployment record (config included)."""
        return self.store.get_deployment_record(name)

    def list_deployments(self, limit: Optional[int] = None,
                         offset: int = 0) -> List[SessionInfo]:
        """Deployments this session can see, sorted by name.

        ``limit``/``offset`` window the sorted listing (service
        pagination); the default returns everything.
        """
        if limit is not None and limit < 0:
            raise ConfigError(f"limit must be >= 0, got {limit}")
        if offset < 0:
            raise ConfigError(f"offset must be >= 0, got {offset}")
        records: Dict[str, Optional[Mapping]] = {
            name: None for name in self._deployments
        }
        for rec in self.store.list_deployments():
            records.setdefault(str(rec["name"]), rec)
        names = sorted(records)
        if offset:
            names = names[offset:]
        if limit is not None:
            names = names[:limit]
        # Build infos only for the requested page: each one costs a
        # point count, so a windowed listing must not pay for the rest.
        return [
            self._info(self._deployments[name])
            if records[name] is None
            else self._info_from_record(records[name])
            for name in names
        ]

    def count_deployments(self) -> int:
        """How many deployments :meth:`list_deployments` would return,
        without building (and point-counting) the listing."""
        return len(self._taken_names())

    def info(self, name: str,
             record: Optional[Mapping] = None) -> SessionInfo:
        """Session info for one deployment.

        Pass ``record`` when the caller already holds the deployment
        record, to avoid a second store read.
        """
        if name in self._deployments:
            return self._info(self._deployments[name])
        return self._info_from_record(
            record if record is not None else self.record(name)
        )

    def shutdown(self, name: str, purge_data: bool = False) -> None:
        """Tear down a deployment's cloud resources and drop its record.

        By default collected data (dataset, task DB, plots) survives —
        like the real tool, you can keep running ``advise``/``plot`` on
        data you paid for after releasing the resources; a later
        :meth:`deploy` that recycles the name discards the orphaned
        data first.  ``purge_data=True`` deletes the deployment's
        dataset/task-DB/store files, lock sidecars, and plots too, so
        nothing orphaned stays behind.
        """
        self.store.get_deployment_record(name)  # raises if unknown
        self.store.remove_deployment(name, purge_data=purge_data)
        deployment = self._deployments.pop(name, None)
        if deployment is not None:
            # Tear down on the provider that owns the deployment (a session
            # restored from disk may hold deployments from several).
            Deployer(provider=deployment.provider).shutdown(deployment)
        for key in [k for k in self._backends if k[0] == name]:
            del self._backends[key]
        if purge_data:
            self._taskdbs.pop(name, None)
            self._taskdb_sigs.pop(name, None)
            self._count_cache.pop(name, None)

    # -- data access ------------------------------------------------------------

    def data_store(self, name: str) -> SqliteStore:
        """The deployment's store."""
        return self.store.data_store(name)

    def _stored(self, name: str,
                must_exist: bool = False) -> Optional[SqliteStore]:
        """The deployment's store once a dataset was persisted there,
        else None (a ``ReproError`` when ``must_exist``).

        Checks for data files *before* opening the store: opening
        creates the (empty) SQLite database as a side effect, and a
        listing over N never-collected deployments must not litter the
        state dir with N empty databases.
        """
        if self.store.data_files(name):
            stored = self.store.data_store(name)
            if stored.exists():
                return stored
        if must_exist:
            raise ReproError(
                f"no dataset for deployment {name!r}; run collect first"
            )
        return None

    def dataset(self, name: str, must_exist: bool = True) -> Dataset:
        """The deployment's full dataset as :class:`DataPoint` objects.

        Decodes the store's JSON rows afresh on every call, so a
        long-lived session (the GUI server) never serves stale data.
        Appending to the result never persists: sweeps commit each point
        together with its task record (``DataCollector``), and
        ``data_store(name).append_points`` adds points to the store
        directly.  The decode deliberately does not read the columnar
        snapshot, so the objects engine and correctness checks built on
        this accessor keep a read of their own.  Column readers (advice,
        plots, the GUI) use :meth:`snapshot`; filtered reads
        :meth:`query_dataset`.
        """
        return self.query_dataset(name, Query(), must_exist=must_exist)

    def query_dataset(self, name: str, query: Query,
                      must_exist: bool = True) -> Dataset:
        """A filtered view of the deployment's dataset.

        The query is pushed down to SQL, so only matching points are
        deserialized — the read path of the objects engine and of
        :meth:`datapoints` in a process that holds no snapshot of the
        store.
        """
        stored = self._stored(name, must_exist)
        if stored is None:
            return Dataset()
        return Dataset(stored.query_points(query))

    def snapshot(self, name: str, must_exist: bool = True):
        """The deployment's corpus as a :class:`ColumnarSnapshot`.

        Goes through the process-wide generation-keyed LRU
        (``repro.store.snapshot``): the build cost is paid once per
        store change, then shared across requests — the columnar
        engines' read path.
        """
        from repro.store.snapshot import (ColumnarSnapshot,
                                          snapshot_for_store)

        stored = self._stored(name, must_exist)
        if stored is None:
            return ColumnarSnapshot.from_points([])
        with telemetry.span("stage.snapshot", deployment=name,
                            backend=stored.kind):
            return snapshot_for_store(stored)

    def _snapshot_held(self, name: str) -> bool:
        """Does this process hold a snapshot of the deployment's stored
        corpus (of any generation)?"""
        from repro.store.snapshot import snapshot_held

        stored = self._stored(name)
        return stored is not None and snapshot_held(stored)

    def query_points(self, name: str, query: Optional[Query] = None,
                     must_exist: bool = True) -> List[DataPoint]:
        """Matching points, via pushdown (see :meth:`query_dataset`)."""
        return self.query_dataset(
            name, query or Query(), must_exist=must_exist
        ).points()

    def count_points(self, name: str,
                     query: Optional[Query] = None) -> int:
        """How many stored points match (window ignored; 0 when none)."""
        stored = self._stored(name)
        return 0 if stored is None else stored.count_points(query)

    def datapoints(self, name: str,
                   query: Optional[Query] = None) -> DataPointsResult:
        """One page of the deployment's points plus the filter's total.

        When this process already holds a columnar snapshot of the
        deployment's store (of any generation), the snapshot is brought
        current as the next advice would, the total is the count of the
        query's row mask, and the page is the query's window over the
        matching rows.  Otherwise the windowed page and the total run as
        store queries, so listing a page never builds a snapshot of the
        whole corpus.  Both return the same points in the same order.
        This backs ``GET /v1/datapoints`` and the CLI ``data`` command.
        """
        query = query or Query()
        if self._snapshot_held(name):
            snap = self.snapshot(name)
            matching = snap.query_mask(query).nonzero()[0]
            total = len(matching)
            points = [snap.point(int(i)) for i in query._window(matching)]
            _DATAPOINT_READS.labels(source="snapshot").inc()
        else:
            # A process that holds no snapshot pushes the page down
            # rather than build one of the whole corpus for it.  Once
            # persisted snapshot checkpoints let a cold process load a
            # snapshot in milliseconds, this branch can go.
            points = self.query_points(name, query)
            total = self.count_points(name, query)
            _DATAPOINT_READS.labels(source="store").inc()
        return DataPointsResult(
            deployment=name,
            total=total,
            limit=query.limit,
            offset=query.offset,
            points=tuple(points),
            store_backend=SqliteStore.kind,
        )

    def taskdb(self, name: str) -> TaskDB:
        """The deployment's task DB (cached; a ``collect`` commits its
        transitions to the store as the sweep goes).

        Invalidated whenever the store's task signature changes — a stale
        task DB would make a resumed ``collect`` re-execute scenarios
        another process already completed, duplicating dataset points.
        """
        data_store = self.data_store(name)
        sig = data_store.tasks_signature()
        if name in self._taskdbs and self._taskdb_sigs.get(name) == sig:
            return self._taskdbs[name]
        self._taskdbs.pop(name, None)
        self._taskdb_sigs.pop(name, None)
        db = TaskDB.from_records(data_store.load_tasks())
        self._taskdbs[name] = db
        self._taskdb_sigs[name] = sig
        return db

    def backend(self, name: str, backend: str = "azurebatch",
                noise: Optional[float] = None, seed: Optional[int] = None,
                capacity: Optional[str] = None):
        """The (cached) execution backend bound to a deployment.

        One backend per (deployment, backend kind): repeated ``collect``
        calls reuse pools instead of re-provisioning, and inspection
        calls (``session.backend(name, "slurm").cluster``) see the same
        instance that ran the sweep regardless of its noise settings.
        Passing ``noise``/``seed`` re-binds the noise model on the
        existing backend; omitting them leaves it untouched.  Passing
        ``capacity`` switches the tier new pools are created on (spot
        pools live under separate ids, so both tiers coexist).
        """
        key = (name, backend.lower())  # registry lookups are case-insensitive
        instance = self._backends.get(key)
        if instance is None:
            deployment = self.deployment(name)
            config = self._config_for(name, deployment)
            noise_model = NoiseModel(sigma=noise or 0.0, seed=seed or 0)
            instance = registry.backends.create(
                backend, deployment, config, noise_model
            )
            self._backends[key] = instance
        elif noise is not None or seed is not None:
            # Partial re-bind: an omitted component keeps its current value
            # (collect(seed=2) must not silently zero a 0.1 sigma).
            current = instance.noise or NoiseModel()
            instance.noise = NoiseModel(
                sigma=current.sigma if noise is None else noise,
                seed=current.seed if seed is None else seed,
            )
        if capacity is not None and hasattr(instance, "capacity"):
            instance.capacity = capacity
        return instance

    # -- collect ----------------------------------------------------------------

    def collect(self, request: Optional[CollectRequest] = None,
                /, *, progress=None, **kwargs) -> CollectResult:
        """Run Algorithm 1 over the deployment's scenario space.

        Accepts a :class:`CollectRequest` or its fields as keyword
        arguments.  Resumable: already-completed scenarios in the task DB
        are not re-executed, and new points append to the existing
        dataset.

        ``progress`` (keyword-only, not part of the serializable request)
        is called with ``(CollectionReport, total_scenarios)`` after every
        scenario outcome; raising from it aborts the sweep after
        persisting partial state — the service's cancellation hook.
        """
        req = _coerce_request(CollectRequest, request, kwargs)
        name = _require_deployment(req.deployment)
        deployment = self.deployment(name)
        config = self._config_for(name, deployment)
        scenarios = _generate_scenarios(config)

        exec_backend = self.backend(name, req.backend,
                                    noise=req.noise, seed=req.seed,
                                    capacity=req.capacity)
        eviction = None
        if req.capacity == "spot":
            from repro.cloud.eviction import EvictionModel

            if req.eviction_rate is not None:
                eviction = EvictionModel.flat(
                    req.eviction_rate, seed=req.eviction_seed,
                    region=config.region,
                )
            else:
                eviction = EvictionModel(region=config.region,
                                         seed=req.eviction_seed)
        # The cached backend accumulates over the deployment's lifetime;
        # snapshot its counters so this result reports per-sweep numbers.
        infra_before = exec_backend.total_infrastructure_cost_usd
        provisioning_before = exec_backend.provisioning_overhead_s

        # The sweep is one read-modify-write transaction on the task DB
        # and dataset files: hold their advisory locks from *load* to
        # save, so a concurrent collect in another process (service job
        # worker, second CLI) waits and then resumes on fresh state
        # instead of re-running scenarios and clobbering points.
        import contextlib

        with contextlib.ExitStack() as stack:
            # Spans go to the deployment's trace ring; the sink resets
            # *after* the sweep span closes (LIFO unwind), so the span
            # itself lands in the file.
            sink_token = telemetry.set_sink(self.store.traces_path(name))
            stack.callback(telemetry.reset_sink, sink_token)
            sweep_span = stack.enter_context(
                telemetry.span("collect.sweep", deployment=name,
                               backend=req.backend)
            )
            stack.enter_context(file_lock(self.store.taskdb_path(name)))
            stack.enter_context(file_lock(self.store.dataset_path(name)))
            data_store = self.data_store(name)
            taskdb = self.taskdb(name)
            sampler, smart = self._make_sampler(req, deployment, config,
                                                scenarios)

            collector = DataCollector(
                backend=exec_backend,
                script=registry.apps.create(config.appname),
                # The collector only appends: a sweep starts from an
                # empty dataset instead of parsing every stored row.
                dataset=Dataset(),
                taskdb=taskdb,
                store=data_store,
                deployment_name=name,
                delete_pool_on_switch=req.delete_pools,
                sampler=sampler,
                retry_failed=req.retry_failed,
                max_parallel_pools=req.max_parallel_pools,
                capacity=req.capacity,
                recovery=req.recovery,
                checkpoint_interval_s=req.checkpoint_interval_s,
                checkpoint_overhead_s=req.checkpoint_overhead_s,
                eviction=eviction,
                engine=req.engine,
                on_progress=progress,
            )
            try:
                report = collector.collect(scenarios)
            except BaseException:
                # The cached task DB may hold transitions the aborted
                # sweep could not commit: reload it from the store.
                self._taskdbs.pop(name, None)
                raise
            sweep_span.set("engine", report.engine)
            sweep_span.set("executed", report.executed)
            sweep_span.set("completed", report.completed)
            # Per-stage child spans reconstructed from the profiler's
            # wall-time attribution (each anchored to end at "now").
            for stage, seconds in report.profile.items():
                if stage != "total_s":
                    telemetry.emit_event(f"stage.{stage}", seconds)
            # collect() committed the transitions of our own cached task
            # DB; record the new signature so the next taskdb() call does
            # not reload it.
            self._taskdb_sigs[name] = data_store.tasks_signature()
        return CollectResult(
            deployment=name,
            backend=exec_backend.name,
            executed=report.executed,
            completed=report.completed,
            failed=report.failed,
            skipped=report.skipped,
            predicted=report.predicted,
            task_cost_usd=report.task_cost_usd,
            infrastructure_cost_usd=(report.infrastructure_cost_usd
                                     - infra_before),
            provisioning_overhead_s=(report.provisioning_overhead_s
                                     - provisioning_before),
            simulated_wall_s=report.simulated_wall_s,
            makespan_s=report.makespan_s,
            max_parallel_pools=report.max_parallel_pools,
            capacity=report.capacity,
            recovery=report.recovery,
            engine=report.engine,
            engine_fallback=report.engine_fallback,
            preemptions=report.preemptions,
            wasted_node_s=report.wasted_node_s,
            failures=tuple(report.failures),
            dataset_points=data_store.count_points(),
            dataset_path=data_store.db_path,
            store_backend=data_store.kind,
            sampler_decisions=(tuple(smart.decisions_log) if smart else ()),
            bottleneck_summary=(smart.bottlenecks.summary() if smart else ""),
            budget_spent_usd=(getattr(sampler, "spent_usd", None)
                              if req.budget_usd is not None else None),
            budget_skipped=getattr(sampler, "skipped_over_budget", 0),
            profile=dict(report.profile),
        )

    def _make_sampler(self, req: CollectRequest, deployment: Deployment,
                      config: MainConfig, scenarios) -> Tuple[object, object]:
        """(collector sampler, underlying SmartSampler) or (None, None)."""
        if not req.wants_sampler:
            return None, None
        policy = (registry.sampling_policies.create(req.sampling_policy)
                  if req.sampling_policy else None)
        prices = {
            s.sku_name: deployment.provider.prices.hourly_price(
                s.sku_name, config.region
            )
            for s in scenarios
        }
        smart = SmartSampler.for_scenarios(scenarios, prices, policy=policy)
        if req.budget_usd is not None:
            from repro.sampling.budget import BudgetedSampler

            return BudgetedSampler(inner=smart,
                                   budget_usd=req.budget_usd), smart
        return smart, smart

    # -- advise -----------------------------------------------------------------

    def advise(self, request: Optional[AdviseRequest] = None,
               /, **kwargs) -> AdviceResult:
        """The Pareto-front advice table for a deployment's dataset.

        With ``capacity`` set on the request, the table is a what-if on
        that tier: ``"spot"`` risk-adjusts every configuration under the
        eviction model (expected cost, expected and P95 makespan — the
        front gains the tail-risk objective), ``"ondemand"`` strips spot
        dynamics from spot-collected data.
        """
        req = _coerce_request(AdviseRequest, request, kwargs)
        name = _require_deployment(req.deployment)
        if req.engine != "objects":
            return self._advise_columnar(req, name)
        # The request's filters travel to the storage engine as a Query;
        # on a cold cache only the matching points are deserialized.
        dataset = self.query_dataset(name, Query(
            appinputs=dict(req.filters),
            nnodes=tuple(req.nnodes),
            sku=req.sku,
        ))
        objective = "measured"
        if req.capacity:
            from repro.core.cost import capacity_view

            region = self._region_of(name) or None
            dataset = capacity_view(
                dataset,
                self.deployment(name).provider.prices,
                req.capacity,
                eviction=self._advice_eviction(req, region),
                region=region,
                recovery=req.recovery,
                checkpoint_interval_s=req.checkpoint_interval_s,
                checkpoint_overhead_s=req.checkpoint_overhead_s,
            )
            objective = "effective"
        advisor = Advisor(dataset)
        rows = advisor.advise(
            appname=req.appname, sort_by=req.sort_by, max_rows=req.max_rows,
            objective=objective,
        )
        appname = req.appname or (dataset.points()[0].appname
                                  if len(dataset) else "")
        return AdviceResult(
            deployment=name,
            appname=appname,
            sort_by=req.sort_by,
            rows=tuple(rows),
            dataset_points=len(dataset),
            capacity=req.capacity,
            engine="objects",
            engine_fallback="",
        )

    @staticmethod
    def _advice_eviction(req: AdviseRequest, region: Optional[str]):
        from repro.cloud.eviction import EvictionModel

        if req.eviction_rate is not None:
            return EvictionModel.flat(req.eviction_rate, region=region)
        return EvictionModel(region=region)

    def _advise_columnar(self, req: AdviseRequest, name: str) -> AdviceResult:
        """The advice pipeline over snapshot columns (byte-identical to
        the object path; see :mod:`repro.core.columnar`)."""
        from repro.core.columnar import (advice_columns, advise_columns,
                                         capacity_columns)

        view = self.snapshot(name).view(Query(
            appinputs=dict(req.filters),
            nnodes=tuple(req.nnodes),
            sku=req.sku,
        ))
        objective = "measured"
        if req.capacity:
            region = self._region_of(name) or None
            cols = capacity_columns(
                view,
                self.deployment(name).provider.prices,
                req.capacity,
                eviction=self._advice_eviction(req, region),
                region=region,
                recovery=req.recovery,
                checkpoint_interval_s=req.checkpoint_interval_s,
                checkpoint_overhead_s=req.checkpoint_overhead_s,
            )
            objective = "effective"
        else:
            cols = advice_columns(view)
        rows = advise_columns(
            cols, appname=req.appname, sort_by=req.sort_by,
            max_rows=req.max_rows, objective=objective,
        )
        appname = req.appname or (
            view.appnames[view.appname_codes[0]] if view.n else "")
        return AdviceResult(
            deployment=name,
            appname=appname,
            sort_by=req.sort_by,
            rows=tuple(rows),
            dataset_points=view.n,
            capacity=req.capacity,
            engine="columnar",
            engine_fallback="",
        )

    # -- plot -------------------------------------------------------------------

    def plot(self, request: Optional[PlotRequest] = None,
             /, **kwargs) -> PlotResult:
        """Write the Sec. III-D chart set as SVG files."""
        from repro.core.plots import generate_plots

        req = _coerce_request(PlotRequest, request, kwargs)
        name = _require_deployment(req.deployment)
        # The builders consume snapshot columns directly (same filter
        # vocabulary; the series come out byte-identical).
        dataset = self.snapshot(name).view(Query(
            appinputs=dict(req.filters), sku=req.sku,
        ))
        out_dir = req.output_dir
        if out_dir is None:
            if self._private:
                # A default inside the private directory would vanish
                # with the session.
                raise ConfigError(
                    "an ephemeral session needs an explicit plot "
                    "output_dir"
                )
            out_dir = self.store.plots_dir(name)
        generated = generate_plots(dataset, out_dir, subtitle=req.subtitle)
        return PlotResult(
            deployment=name,
            output_dir=out_dir,
            paths=tuple(item.path for item in generated),
            kinds=tuple(item.kind for item in generated),
        )

    # -- recipes ----------------------------------------------------------------

    def recipe(self, request: Optional[RecipeRequest] = None,
               /, **kwargs) -> RecipeResult:
        """Slurm script + cluster recipe for one advice row."""
        req = _coerce_request(RecipeRequest, request, kwargs)
        name = _require_deployment(req.deployment)
        advice = self.advise(deployment=name, sort_by=req.sort_by,
                             filters=dict(req.filters))
        if req.row >= len(advice.rows):
            raise ReproError(
                f"advice has {len(advice.rows)} row(s); "
                f"cannot build recipe for row {req.row}"
            )
        return self.recipe_for(
            advice.rows[req.row], deployment=name, appname=advice.appname,
            extra_env=dict(req.extra_env), region=req.region,
        )

    def recipe_for(self, row, *, deployment: str, appname: str = "",
                   extra_env: Optional[Dict[str, str]] = None,
                   region: Optional[str] = None) -> RecipeResult:
        """Recipes for an already-computed advice row (no re-advising)."""
        from repro.core.recipes import cluster_recipe, slurm_script

        region = region or self._region_of(deployment) or "southcentralus"
        return RecipeResult(
            deployment=deployment,
            row=row,
            slurm_script=slurm_script(row, appname or "app",
                                      extra_env=extra_env or None),
            cluster_recipe=cluster_recipe(row, region=region),
        )

    # -- predict ----------------------------------------------------------------

    def predict(self, request: Optional[PredictRequest] = None,
                /, **kwargs) -> PredictResult:
        """Predicted advice for new inputs (paper Sec. III-F end state)."""
        from repro.core.scenarios import Scenario, ppn_for
        from repro.predict import PerformancePredictor

        req = _coerce_request(PredictRequest, request, kwargs)
        name = _require_deployment(req.deployment)
        # Sampler-predicted points never train the model: exclude them
        # in the snapshot view instead of loading and dropping them.
        measured = self.snapshot(name).view(
            Query(include_predicted=False)
        )
        if not measured.n:
            raise ReproError("dataset has no measured points to train on")
        appname = measured.appnames[measured.appname_codes[0]]
        predictor = PerformancePredictor(backend=req.model).fit_columns(
            measured, cv_folds=min(5, measured.n)
        )
        skus = sorted({measured.skus[c]
                       for c in set(measured.sku_codes.tolist())})
        node_counts = (list(req.nnodes)
                       or sorted(set(measured.nnodes.tolist())))
        appinputs = (dict(req.inputs) if req.inputs
                     else dict(measured.appinputs_groups[
                         measured.appinputs_codes[0]]))
        # Candidates must match the process layout the model was trained
        # on: reuse each SKU's measured ppn, falling back to the stored
        # config's ppr for SKUs without data.
        ppn_by_sku = {measured.skus[c]: p for c, p in
                      zip(measured.sku_codes.tolist(),
                          measured.ppn.tolist())}
        ppr = self._ppr_of(name)
        candidates = [
            Scenario(
                scenario_id=f"q{i:04d}",
                sku_name=sku,
                nnodes=n,
                ppn=ppn_by_sku.get(sku) or ppn_for(sku, ppr),
                appname=appname,
                appinputs=appinputs,
            )
            for i, (sku, n) in enumerate(
                (sku, n) for sku in skus for n in node_counts
            )
        ]
        rows = predictor.predicted_front(candidates)
        return PredictResult(
            deployment=name,
            appname=appname,
            model=req.model,
            inputs=appinputs,
            rows=tuple(rows),
            trained_on=len(measured),
            cv_mape=predictor.cv_mape,
        )

    # -- compare ----------------------------------------------------------------

    def compare(self, name_a: str, name_b: str,
                query: Optional[Query] = None):
        """Matched-scenario comparison of two deployments' datasets.

        ``query`` restricts the comparison; it is applied as a mask on
        each deployment's columnar snapshot (built once per store
        generation) rather than filtering rehydrated objects.
        """
        from repro.core.columnar import compare_snapshots

        q = query or Query()
        return compare_snapshots(self.snapshot(name_a).view(q),
                                 self.snapshot(name_b).view(q))

    # -- one-shot ---------------------------------------------------------------

    def run(
        self,
        config: ConfigLike,
        collect: Optional[CollectRequest] = None,
        advise: Optional[AdviseRequest] = None,
    ) -> AdviceResult:
        """Deploy, collect, and advise in one call (paper Fig. 1 flow).

        ``collect``/``advise`` act as templates; their ``deployment``
        field is filled in with the fresh deployment's name.
        """
        import dataclasses

        info = self.deploy(config)
        collect_req = dataclasses.replace(
            collect or CollectRequest(), deployment=info.name
        )
        result = self.collect(collect_req)
        if result.failed and not result.completed:
            raise ReproError(
                f"collection failed for all scenarios of {info.name}: "
                f"{'; '.join(result.failures)}"
            )
        advise_req = dataclasses.replace(
            advise or AdviseRequest(), deployment=info.name,
            appname=(advise.appname if advise else None) or info.appname,
        )
        return self.advise(advise_req)

    # -- internals --------------------------------------------------------------

    def _coerce_config(self, config: ConfigLike) -> MainConfig:
        if isinstance(config, MainConfig):
            return config
        if isinstance(config, str):
            return MainConfig.from_file(config)
        if isinstance(config, Mapping):
            return MainConfig.from_dict(config)
        raise ConfigError(
            f"cannot build a configuration from {type(config).__name__}"
        )

    def _config_for(self, name: str, deployment: Deployment) -> MainConfig:
        if deployment.config is not None:
            return deployment.config
        raise ConfigError(
            f"deployment {name!r} has no stored configuration"
        )

    def _info(self, deployment: Deployment) -> SessionInfo:
        config = deployment.config
        return SessionInfo(
            name=deployment.name,
            region=deployment.region,
            subscription=deployment.subscription_name,
            appname=config.appname if config else "",
            scenario_count=config.scenario_count if config else 0,
            vnet=deployment.vnet_name,
            storage_account=deployment.storage_account,
            batch_account=deployment.batch.account_name,
            jumpbox=deployment.jumpbox_name,
            created_at=deployment.created_at,
            dataset_points=self._point_count(deployment.name),
        )

    def _info_from_record(self, record: Mapping) -> SessionInfo:
        config = record.get("config") or {}
        scenario_count = 0
        appname = str(config.get("appname", "")) if config else ""
        if config:
            try:
                scenario_count = MainConfig.from_dict(config).scenario_count
            except ReproError:
                pass
        name = str(record["name"])
        return SessionInfo(
            name=name,
            region=str(record.get("region", "")),
            subscription=str(record.get("subscription", "")),
            appname=appname,
            scenario_count=scenario_count,
            vnet=str(record.get("vnet", "")),
            storage_account=str(record.get("storage_account", "")),
            batch_account=str(record.get("batch_account")
                              or f"{name}-batch"),
            jumpbox=record.get("jumpbox"),
            created_at=float(record.get("created_at") or 0.0),
            dataset_points=self._point_count(name),
        )

    def _ppr_of(self, name: str) -> int:
        """The deployment's configured processes-per-resource (default 100)."""
        if name in self._deployments:
            config = self._deployments[name].config
            if config is not None:
                return config.ppr
        try:
            record_config = self.record(name).get("config") or {}
            return int(record_config.get("ppr", 100))
        except ReproError:
            return 100

    def _region_of(self, name: str) -> str:
        """The deployment's region, without touching dataset files."""
        if name in self._deployments:
            return self._deployments[name].region
        return str(self.record(name).get("region") or "")

    def _point_count(self, name: str) -> int:
        stored = self._stored(name)
        if stored is None:
            return 0
        # Cache on the store signature: listings (the GUI index polls
        # list_deployments per request) cost a freshness probe, not a
        # count query — and the count itself is a COUNT(*), never a
        # deserialize.
        sig = stored.dataset_signature()
        cached = self._count_cache.get(name)
        if cached is None or cached[0] != sig:
            cached = (sig, stored.count_points())
            self._count_cache[name] = cached
        return cached[1]


def _remove_private_dir(store: StateStore) -> None:
    """Close the stores of an ephemeral session's private directory,
    then delete it (the session's ``weakref.finalize`` callback)."""
    for name in list(store._data_stores):
        store.release_data_store(name)
    shutil.rmtree(store.root, ignore_errors=True)


def _generate_scenarios(config: MainConfig):
    from repro.core.scenarios import generate_scenarios

    return generate_scenarios(config)


def _require_deployment(name: str) -> str:
    if not name:
        raise ConfigError("request needs a deployment name")
    return name


