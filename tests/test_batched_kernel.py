"""The batched sweep kernel's exact-equivalence contract (ISSUE 7).

``engine="batched"`` (:mod:`repro.simd`) replaces the per-object
scheduler with a flat array walk, and its entire value rests on one
promise: **byte-identical output** — the same DataPoints, the same
TaskRecords, the same billing totals and report fields — as the
scheduled Algorithm-1 walk at ``max_parallel_pools=1``.  These tests
pin that promise down:

* grid goldens per app, on-demand and seeded spot under every recovery
  policy, including failure paths (OOM, bad inputs);
* the vectorized ``prime_grid`` pass bit-equal to scalar ``evaluate``
  over a randomized mixed-app grid;
* Hypothesis-generated sweeps: any (inputs, nodes, eviction, recovery,
  retries) draw must agree engine-to-engine;
* graceful degradation: ineligible sweeps fall back to the object
  engine with the reason recorded, and a missing NumPy only un-primes
  the vector pass (the batched engine stays exact through the scalar
  path);
* the deferred store sync still persists completed work when a sweep
  aborts mid-flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appkit.plugins import get_plugin
from repro.backends.azurebatch import AzureBatchBackend
from repro.cloud.eviction import EvictionModel
from repro.cloud.skus import get_sku
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import Scenario, generate_scenarios
from repro.core.taskdb import TaskDB, TaskStatus
from repro.errors import ConfigError
from repro.simd import batch_eligibility, prime_grid, vector_ready
from repro.simd.physics import ScenarioPhysics
from tests.conftest import make_config


def sweep(engine, appname="lammps", appinputs=None, skus=None,
          nnodes=None, capacity="ondemand", recovery="restart",
          eviction=None, retry_failed=0, store=None, on_progress=None):
    config = make_config(
        appname=appname,
        appinputs=appinputs or {"BOXFACTOR": ["4", "8"]},
        skus=skus or ["Standard_HB120rs_v3", "Standard_HC44rs"],
        nnodes=nnodes or [1, 2, 3],
    )
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch,
                                  capacity=capacity),
        script=get_plugin(appname),
        dataset=Dataset(store=store),
        taskdb=TaskDB(store=store),
        deployment_name="batched-kernel-test",
        capacity=capacity, recovery=recovery, eviction=eviction,
        retry_failed=retry_failed, engine=engine,
        on_progress=on_progress,
    )
    report = collector.collect(generate_scenarios(config))
    return collector, report


REPORT_FIELDS = ("executed", "completed", "failed", "skipped",
                 "task_cost_usd", "infrastructure_cost_usd",
                 "provisioning_overhead_s", "simulated_wall_s",
                 "makespan_s", "preemptions", "wasted_node_s",
                 "failures")


def assert_equivalent(**kwargs):
    obj, obj_report = sweep("object", **kwargs)
    bat, bat_report = sweep("batched", **kwargs)
    assert bat_report.engine == "batched", bat_report.engine_fallback
    assert ([p.to_dict() for p in obj.dataset.points()]
            == [p.to_dict() for p in bat.dataset.points()])
    assert ([r.to_dict() for r in obj.taskdb.all()]
            == [r.to_dict() for r in bat.taskdb.all()])
    for name in REPORT_FIELDS:
        assert getattr(obj_report, name) == getattr(bat_report, name), name
    return bat, bat_report


# -- grid goldens ---------------------------------------------------------------


def test_ondemand_byte_identical():
    bat, report = assert_equivalent()
    assert report.completed > 0
    assert bat.dataset.points()


@pytest.mark.parametrize("appname,appinputs", [
    ("openfoam", {"MESH": ["40 16 16", "80 32 32", "bogus"]}),
    ("gromacs", {"ATOMS": ["3000000"]}),
    ("matrixmult", {"MSIZE": ["20000", "40000"]}),
])
def test_multiapp_byte_identical(appname, appinputs):
    assert_equivalent(appname=appname, appinputs=appinputs)


def test_oom_and_retry_byte_identical():
    # BOXFACTOR 120 overflows node memory -> the OOM failure path, with
    # retries exercising the repeat-attempt accounting.
    _, report = assert_equivalent(appinputs={"BOXFACTOR": ["4", "120"]},
                                  retry_failed=2)
    assert report.failed > 0


@pytest.mark.parametrize("recovery",
                         ["restart", "checkpoint_restart", "fail"])
def test_spot_byte_identical(recovery):
    _, report = assert_equivalent(
        capacity="spot", recovery=recovery,
        eviction=EvictionModel(default_rate_per_hour=40.0, rates={},
                               seed=7),
        appinputs={"BOXFACTOR": ["20", "24"]},
    )
    assert report.preemptions > 0


def test_spot_rate_zero_byte_identical_to_ondemand():
    """ISSUE golden, batched path: a spot sweep whose eviction rate is
    0.0 must reproduce the on-demand measurements byte for byte once the
    tier label and the spot discount are factored out."""
    from tests.test_collector_spot import full_dicts

    def run(capacity, eviction):
        config = make_config(appinputs={"BOXFACTOR": ["4", "8"]},
                             skus=["Standard_HB120rs_v3",
                                   "Standard_HC44rs"],
                             nnodes=[1, 2, 3])
        deployment = Deployer().deploy(config)
        deployment.provider.prices.spot_discount = 0.0
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch,
                                      capacity=capacity),
            script=get_plugin("lammps"),
            dataset=Dataset(), taskdb=TaskDB(),
            deployment_name="batched-kernel-test",
            capacity=capacity, eviction=eviction, engine="batched",
        )
        report = collector.collect(generate_scenarios(config))
        assert report.engine == "batched", report.engine_fallback
        return collector, report

    spot, spot_report = run("spot", EvictionModel.flat(0.0, seed=7))
    ondemand, _ = run("ondemand", None)
    assert spot_report.preemptions == 0
    assert full_dicts(spot.dataset, drop=("capacity",)) \
        == full_dicts(ondemand.dataset, drop=("capacity",))
    assert all(p.capacity == "spot" for p in spot.dataset)


def test_batched_spot_profile_attributes_recovery_stage():
    """The vectorized draw prefetch is real work: stage attribution on a
    batched spot sweep must include a nonzero recovery bucket alongside
    the usual stages, and the stage times must sum to total_s."""
    _, report = sweep(
        "batched", capacity="spot", recovery="checkpoint_restart",
        eviction=EvictionModel(default_rate_per_hour=40.0, rates={},
                               seed=7),
        appinputs={"BOXFACTOR": ["20", "24"]},
    )
    assert report.engine == "batched"
    assert report.preemptions > 0
    profile = report.profile
    # The whole interruption/retry drive (including the vectorized draw
    # prefetch) lands in the recovery bucket; "scenario" only appears
    # for on-demand rows.
    for stage in ("provision", "setup", "persist", "recovery"):
        assert stage in profile, profile
    assert profile["recovery"] > 0.0
    staged = sum(v for k, v in profile.items() if k != "total_s")
    assert 0.0 < staged <= profile["total_s"] + 1e-6


def test_makespan_is_the_clock_span():
    """Regression: the kernel reported ``simulated_wall_s`` plus this
    sweep's provisioning, which counts every later pool's boot twice
    (the task span already contains it) and drops the first pool's
    boot and setup.  The makespan is how far the clock moved during
    the sweep, on both engines."""
    config = make_config(appinputs={"BOXFACTOR": ["4", "8"]},
                         skus=["Standard_HB120rs_v3", "Standard_HC44rs"],
                         nnodes=[1, 2, 3])
    makespans = {}
    for engine in ("object", "batched"):
        deployment = Deployer().deploy(config)
        collector = DataCollector(
            backend=AzureBatchBackend(service=deployment.batch),
            script=get_plugin("lammps"),
            dataset=Dataset(), taskdb=TaskDB(), engine=engine,
        )
        start = collector.backend.clock.now
        report = collector.collect(generate_scenarios(config))
        assert report.engine == engine, report.engine_fallback
        assert report.makespan_s == collector.backend.clock.now - start
        makespans[engine] = report.makespan_s
    assert makespans["batched"] == makespans["object"]


def test_spot_billing_identity():
    """Billed node-seconds decompose exactly: useful + wasted."""
    config = make_config(appinputs={"BOXFACTOR": ["20"]},
                         skus=["Standard_HB120rs_v3"], nnodes=[2, 3])
    deployment = Deployer().deploy(config)
    collector = DataCollector(
        backend=AzureBatchBackend(service=deployment.batch,
                                  capacity="spot"),
        script=get_plugin("lammps"),
        dataset=Dataset(), taskdb=TaskDB(),
        deployment_name="batched-kernel-test",
        capacity="spot", recovery="checkpoint_restart",
        eviction=EvictionModel(default_rate_per_hour=60.0, rates={},
                               seed=11),
        engine="batched",
    )
    report = collector.collect(generate_scenarios(config))
    assert report.engine == "batched"
    assert report.preemptions > 0
    for point in collector.dataset.points():
        price = deployment.provider.prices.hourly_price(
            point.sku, config.region, spot=True)
        billed_node_s = (point.exec_time_s * point.nnodes
                         + point.wasted_node_s)
        assert point.cost_usd == pytest.approx(
            price * billed_node_s / 3600.0, rel=1e-9)


# -- vectorized prime == scalar evaluate ----------------------------------------


def random_grid(rng, count):
    """A mixed-app grid with deliberately hostile corners: bad inputs,
    missing env, extreme sizes, every ppn regime."""
    skus = ["Standard_HC44rs", "Standard_HB120rs_v2",
            "Standard_HB120rs_v3"]
    scenarios = []
    for i in range(count):
        sku_name = rng.choice(skus)
        cores = get_sku(sku_name).cores
        app = rng.choice(["lammps", "openfoam", "gromacs", "namd",
                          "wrf", "matrixmult"])
        if app == "lammps":
            inputs = {"BOXFACTOR": f"{rng.uniform(0.5, 60):.4f}"}
        elif app == "openfoam":
            inputs = {"MESH": f"{rng.randint(5, 120)} "
                              f"{rng.randint(4, 40)} {rng.randint(4, 40)}"}
            if rng.random() < 0.1:
                inputs = {"MESH": "bad mesh"}
        elif app in ("gromacs", "namd"):
            inputs = {"ATOMS": str(rng.randint(10_000, 500_000_000))}
        elif app == "wrf":
            inputs = {"RESOLUTION": f"{rng.uniform(0.5, 50):.3f}"}
        else:
            inputs = {"MSIZE": str(rng.randint(100, 2_000_000))}
        if rng.random() < 0.05:
            inputs = {}  # missing required env -> script failure
        scenarios.append(Scenario(
            scenario_id=f"grid-{i}", sku_name=sku_name,
            nnodes=rng.choice([1, 2, 3, 7, 16]),
            ppn=rng.choice([1, 2, cores // 2, cores]),
            appname=app, appinputs=inputs,
        ))
    return scenarios


def assert_physics_equal(reference, primed_value, scenario):
    for name in ("succeeded", "wall_time_s", "app_vars", "infra_metrics",
                 "failure_reason"):
        ref, got = getattr(reference, name), getattr(primed_value, name)
        assert ref == got, (scenario.scenario_id, name, ref, got)
        if isinstance(ref, dict):
            # bit-identical: same key order, same types, same reprs
            # (0.5 == 0.5000000000000001 would pass ==, not repr).
            assert list(ref) == list(got)
            assert all(repr(ref[k]) == repr(got[k]) for k in ref)
        if isinstance(ref, float):
            assert repr(ref) == repr(got)


@pytest.mark.skipif(not vector_ready(), reason="NumPy not available")
def test_prime_grid_bit_equal_to_scalar():
    import random

    scenarios = random_grid(random.Random(42), 200)
    primed = prime_grid(ScenarioPhysics(), scenarios,
                        lambda name: get_sku(name))
    scalar = ScenarioPhysics()
    missing = []
    for scenario in scenarios:
        reference = scalar.evaluate(scenario, get_sku(scenario.sku_name))
        got = primed.get(scenario.scenario_id)
        if got is None:
            missing.append(scenario.scenario_id)
            continue
        assert_physics_equal(reference, got, scenario)
    # every supported-app scenario must be primed (nothing silently
    # skipped); the grid above only draws from covered apps
    assert not missing, missing


def test_prime_grid_without_numpy(monkeypatch):
    """No NumPy -> no vector pass, but the batched engine stays exact
    through the scalar path."""
    import repro.simd.vector as vector

    monkeypatch.setattr(vector, "_np", None)
    assert not vector.vector_ready()
    scenarios = random_grid(__import__("random").Random(1), 10)
    assert prime_grid(ScenarioPhysics(), scenarios,
                      lambda name: get_sku(name)) == {}
    assert_equivalent(appinputs={"BOXFACTOR": ["4", "8"]})


# -- eligibility and fallback ---------------------------------------------------


def test_batch_eligibility_reasons():
    batch = Deployer().deploy(make_config()).batch
    backend = AzureBatchBackend(service=batch)
    ok = Scenario(scenario_id="a", sku_name="Standard_HC44rs", nnodes=2,
                  ppn=4, appname="lammps", appinputs={"BOXFACTOR": "4"})
    alien = Scenario(scenario_id="b", sku_name="Standard_HC44rs",
                     nnodes=2, ppn=4, appname="customsolver",
                     appinputs={})
    reserved = Scenario(scenario_id="c", sku_name="Standard_HC44rs",
                        nnodes=2, ppn=4, appname="lammps",
                        appinputs={"NNODES": "4"})
    assert batch_eligibility(backend, 1, [ok]) is None
    assert "customsolver" in batch_eligibility(backend, 1, [ok, alien])
    assert batch_eligibility(backend, 1, [reserved]) is not None
    assert "max_parallel_pools" in batch_eligibility(backend, 4, [ok])
    # Exact type check: a subclass may override behaviour the kernel
    # cannot see, so it must not be treated as the plain substrate.
    class Subclassed(AzureBatchBackend):
        pass

    assert batch_eligibility(Subclassed(service=batch), 1, [ok]) is not None


def test_requested_batched_falls_back_with_reason():
    # A reserved env key in appinputs makes the sweep ineligible; the
    # engine must degrade to the object scheduler and say why.
    _, report = sweep("batched", appinputs={"NNODES": ["4"]},
                      skus=["Standard_HB120rs_v3"], nnodes=[1])
    assert report.engine == "object"
    assert report.engine_fallback != ""


def test_auto_engine_stays_object():
    _, report = sweep("auto", appinputs={"BOXFACTOR": ["4"]},
                      skus=["Standard_HB120rs_v3"], nnodes=[1])
    assert report.engine == "object"
    assert report.engine_fallback == ""


# -- request/result plumbing ----------------------------------------------------


def test_collect_request_engine_serde():
    from repro.api.requests import CollectRequest
    from repro.api.results import CollectResult

    request = CollectRequest(deployment="d", engine="batched")
    assert CollectRequest.from_dict(request.to_dict()).engine == "batched"
    assert CollectRequest(deployment="d").engine == "auto"
    with pytest.raises(ConfigError):
        CollectRequest(deployment="d", engine="warp")
    result = CollectResult(deployment="d", engine="batched",
                           engine_fallback="")
    assert CollectResult.from_dict(result.to_dict()).engine == "batched"


def test_session_collect_reports_engine(tmp_path):
    from repro.api.session import AdvisorSession
    from repro.core.statefiles import StateStore

    session = AdvisorSession(store=StateStore(root=str(tmp_path)))
    info = session.deploy(make_config())
    result = session.collect(deployment=info.name, engine="batched")
    assert result.engine == "batched"
    assert result.engine_fallback == ""
    assert result.completed > 0


# -- deferred sync exception safety ---------------------------------------------


def test_abort_mid_sweep_persists_completed_records(tmp_path):
    from repro.store.sqlite import SqliteStore

    class Abort(RuntimeError):
        pass

    calls = {"n": 0}

    def explode_after_three(report, total):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise Abort

    store = SqliteStore(str(tmp_path / "state.sqlite"))
    with pytest.raises(Abort):
        sweep("batched", appinputs={"BOXFACTOR": ["4", "8", "12"]},
              store=store, on_progress=explode_after_three)
    persisted = store.load_tasks()
    completed = [r for r in persisted if r.status is TaskStatus.COMPLETED]
    assert len(completed) == 3
    assert len(store.query_points()) == 3


def test_spot_retry_after_giveup_regrows_pool():
    """Regression (found by the Hypothesis sweep below): a spot run that
    gives up after its final eviction leaves the pool at zero nodes, and
    ``retry_failed`` used to re-run the scenario without re-provisioning
    — crashing with PoolStateError in every walk."""
    _, report = assert_equivalent(
        appinputs={"BOXFACTOR": ["29.000"]},
        skus=["Standard_HB120rs_v3"], nnodes=[1],
        capacity="spot", recovery="restart", retry_failed=1,
        eviction=EvictionModel(default_rate_per_hour=40.0, rates={},
                               seed=0),
    )
    # The re-run draws a fresh eviction sequence (cumulative draw
    # counter) and happens to survive at this seed; before that fix it
    # replayed the evictions that killed the first run and could only
    # ever fail again.
    assert report.executed == 1
    assert report.completed + report.failed == 1


# -- Hypothesis: any draw agrees engine-to-engine -------------------------------


@settings(max_examples=20, deadline=None)
@given(
    boxfactors=st.lists(
        st.floats(min_value=0.5, max_value=90.0, allow_nan=False),
        min_size=1, max_size=2, unique=True),
    nnodes=st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1,
                    max_size=2, unique=True),
    retry_failed=st.integers(min_value=0, max_value=2),
    recovery=st.sampled_from(["restart", "checkpoint_restart", "fail"]),
    rate=st.sampled_from([0.0, 40.0, 600.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_sweeps_byte_identical(boxfactors, nnodes, retry_failed,
                                      recovery, rate, seed):
    assert_equivalent(
        appinputs={"BOXFACTOR": [f"{b:.3f}" for b in boxfactors]},
        skus=["Standard_HB120rs_v3"],
        nnodes=sorted(nnodes),
        capacity="spot", recovery=recovery, retry_failed=retry_failed,
        eviction=EvictionModel(default_rate_per_hour=rate, rates={},
                               seed=seed),
    )
