"""repro.api.AdvisorSession: the facade's full lifecycle.

Covers the acceptance path of the API redesign: deploy -> collect ->
advise -> plot -> recipe -> shutdown through one object, the one-shot
``run``, resume-from-state across session instances, and ephemeral
(no-disk) sessions.
"""

import json
import os

import pytest

from repro.api import (
    AdviseRequest,
    AdvisorSession,
    CollectRequest,
    AdviceResult,
    CollectResult,
    SessionInfo,
)
from repro.errors import ConfigError, ReproError, ResourceNotFound
from tests.conftest import make_config


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


class TestDeploy:
    def test_deploy_returns_session_info(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        assert isinstance(info, SessionInfo)
        assert info.name.startswith("testrg")
        assert info.region == "southcentralus"
        assert info.appname == "lammps"
        assert info.scenario_count == 2
        assert info.batch_account == f"{info.name}-batch"
        assert not info.has_data

    def test_deploy_accepts_dict_and_yaml_path(self, tmp_path):
        session = AdvisorSession()
        info = session.deploy(make_config().to_dict())
        assert info.scenario_count == 2
        path = tmp_path / "config.yaml"
        path.write_text(make_config(rgprefix="yamlrg").to_yaml())
        info2 = session.deploy(str(path))
        assert info2.name.startswith("yamlrg")

    def test_deploy_rejects_other_types(self):
        with pytest.raises(ConfigError, match="cannot build"):
            AdvisorSession().deploy(42)

    def test_list_deployments_sorted(self):
        session = AdvisorSession()
        names = [session.deploy(make_config(rgprefix=p)).name
                 for p in ("bbb", "aaa")]
        assert [i.name for i in session.list_deployments()] == sorted(names)


class TestCollectAdvise:
    def test_collect_then_advise(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        result = session.collect(deployment=info.name)
        assert isinstance(result, CollectResult)
        assert result.executed == 2
        assert result.completed == 2
        assert result.ok
        assert result.dataset_points == 2
        assert result.backend == "azurebatch"

        advice = session.advise(deployment=info.name, appname="lammps")
        assert isinstance(advice, AdviceResult)
        assert advice.rows
        assert advice.best is advice.rows[0]
        assert "Exectime(s)" in advice.render_table()

    def test_collect_accepts_request_object(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        result = session.collect(CollectRequest(deployment=info.name))
        assert result.completed == 2

    def test_request_and_kwargs_are_exclusive(self):
        session = AdvisorSession()
        with pytest.raises(ConfigError, match="not both"):
            session.collect(CollectRequest(deployment="x"), deployment="y")

    def test_missing_deployment_name_is_config_error(self):
        with pytest.raises(ConfigError, match="deployment name"):
            AdvisorSession().collect()

    def test_advise_before_collect_is_error(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        with pytest.raises(ReproError, match="run collect first"):
            session.advise(deployment=info.name)

    def test_advise_filters_by_nnodes(self):
        session = AdvisorSession()
        info = session.deploy(make_config(nnodes=[1, 2, 4]))
        session.collect(deployment=info.name)
        advice = session.advise(deployment=info.name, nnodes=(1, 2))
        assert {r.nnodes for r in advice.rows} <= {1, 2}

    def test_collect_on_slurm_backend(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        result = session.collect(deployment=info.name, backend="slurm")
        assert result.backend == "slurm"
        assert result.completed == 2
        assert session.backend(info.name, "slurm").cluster is not None

    def test_smart_sampling_populates_decisions(self):
        session = AdvisorSession()
        info = session.deploy(make_config(
            nnodes=[1, 2, 3, 4, 6, 8, 12, 16]
        ))
        result = session.collect(deployment=info.name, smart_sampling=True)
        assert result.sampler_decisions
        assert result.total_tasks == 8

    def test_budget_fields_populated(self):
        session = AdvisorSession()
        info = session.deploy(make_config(
            nnodes=[1, 2, 3, 4, 6, 8, 12, 16]
        ))
        result = session.collect(deployment=info.name, budget_usd=50.0)
        assert result.budget_spent_usd is not None
        assert result.budget_spent_usd <= 50.0


class TestPlotRecipePredict:
    def test_plot_requires_output_dir_when_ephemeral(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        with pytest.raises(ConfigError, match="output_dir"):
            session.plot(deployment=info.name)

    def test_plot_writes_charts(self, tmp_path):
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        result = session.plot(deployment=info.name,
                              output_dir=str(tmp_path / "plots"))
        assert len(result.paths) == 5
        assert all(os.path.exists(p) for p in result.paths)
        assert "pareto" in result.kinds

    def test_recipe_top_row(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        recipe = session.recipe(deployment=info.name,
                                extra_env={"OMP_NUM_THREADS": "1"})
        assert "#SBATCH --nodes=" in recipe.slurm_script
        assert "OMP_NUM_THREADS" in recipe.slurm_script
        assert "vm_type" in recipe.cluster_recipe
        assert recipe.row is not None

    def test_recipe_row_out_of_range(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        with pytest.raises(ReproError, match="row"):
            session.recipe(deployment=info.name, row=99)

    def test_predict_trains_on_session_data(self):
        session = AdvisorSession()
        info = session.deploy(make_config(nnodes=[1, 2, 4, 8]))
        session.collect(deployment=info.name)
        result = session.predict(deployment=info.name, nnodes=(16,))
        assert result.trained_on == 4
        assert result.rows
        assert all(r.predicted for r in result.rows)

    def test_predict_candidates_use_measured_ppn(self):
        """Candidates must match the trained process layout, not ppr=100."""
        session = AdvisorSession()
        info = session.deploy(make_config(nnodes=[1, 2, 4, 8], ppr=50))
        session.collect(deployment=info.name)
        measured_ppn = {p.ppn for p in session.dataset(info.name)}
        result = session.predict(deployment=info.name, nnodes=(16,))
        assert {r.ppn for r in result.rows} <= measured_ppn


class TestRun:
    def test_one_shot_run_returns_populated_advice(self):
        result = AdvisorSession().run(make_config())
        assert isinstance(result, AdviceResult)
        assert result.rows
        assert result.dataset_points == 2
        assert result.appname == "lammps"

    def test_run_json_round_trips(self):
        result = AdvisorSession().run(make_config())
        payload = json.loads(json.dumps(result.to_dict()))
        assert AdviceResult.from_dict(payload) == result

    def test_run_accepts_request_templates(self):
        result = AdvisorSession().run(
            make_config(nnodes=[1, 2, 4]),
            collect=CollectRequest(backend="slurm"),
            advise=AdviseRequest(sort_by="cost", max_rows=1),
        )
        assert len(result.rows) == 1
        assert result.sort_by == "cost"


class TestPersistenceAndResume:
    def test_tilde_state_dir_resolves_to_home(self, tmp_path, monkeypatch):
        """The documented state_dir='~/...' must land in $HOME, not a
        literal ./~ directory."""
        monkeypatch.setenv("HOME", str(tmp_path))
        session = AdvisorSession(state_dir="~/.hpcadvisor-test")
        assert session.store.root == str(tmp_path / ".hpcadvisor-test")

    def test_resume_reuses_collected_dataset(self, state_dir):
        config = make_config()
        first = AdvisorSession(state_dir=state_dir)
        info = first.deploy(config)
        r1 = first.collect(deployment=info.name)
        assert r1.executed == 2

        resumed = AdvisorSession(state_dir=state_dir)
        assert [i.name for i in resumed.list_deployments()] == [info.name]
        r2 = resumed.collect(deployment=info.name)
        assert r2.executed == 0  # nothing re-run
        assert r2.dataset_points == 2
        advice = resumed.advise(deployment=info.name)
        assert advice.rows

    def test_dataset_persists_on_disk(self, state_dir):
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        result = session.collect(deployment=info.name)
        assert os.path.exists(result.dataset_path)

    def test_shutdown_removes_record(self, state_dir):
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        session.shutdown(info.name)
        assert session.list_deployments() == []
        fresh = AdvisorSession(state_dir=state_dir)
        with pytest.raises(ResourceNotFound):
            fresh.deployment(info.name)

    def test_shutdown_keeps_data_for_analysis(self, state_dir):
        """'Release the resources, keep the data': advice still works on
        a shut-down deployment's dataset."""
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        session.shutdown(info.name)
        # The data files (whatever engine holds them) survive shutdown.
        assert session.store.data_files(info.name)
        advice = AdvisorSession(state_dir=state_dir).advise(
            deployment=info.name
        )
        assert advice.rows

    def test_recycled_name_starts_fresh(self, state_dir):
        """A deployment recycling a shut-down name must not inherit the
        old dataset/task DB (collect would no-op on stale 'completed')."""
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        r1 = session.collect(deployment=info.name)
        assert r1.executed == 2
        session.shutdown(info.name)

        fresh = AdvisorSession(state_dir=state_dir)
        info2 = fresh.deploy(make_config())
        assert info2.name == info.name  # counter restarts -> same name
        assert info2.dataset_points == 0
        # The old data is archived (never deleted), and the caller is
        # told.  How many files that is depends on the storage engine
        # (two JSON files, or one SQLite database).
        assert info2.archived_data
        assert all(os.path.exists(p) for p in info2.archived_data)
        r2 = fresh.collect(deployment=info2.name)
        assert r2.executed == 2
        assert r2.dataset_points == 2

    def test_second_process_deploy_does_not_clobber_live_deployment(
            self, state_dir):
        """Name allocation must consult the store: a fresh process
        deploying the same rgprefix gets -001, leaving -000's data."""
        first = AdvisorSession(state_dir=state_dir)
        info = first.deploy(make_config())
        first.collect(deployment=info.name)
        assert info.name.endswith("-000")

        second = AdvisorSession(state_dir=state_dir)  # new provider
        info2 = second.deploy(make_config())
        assert info2.name.endswith("-001")
        assert second.store.data_store(info.name).exists()
        assert second.advise(deployment=info.name).rows

    def test_external_delete_invalidates_cache(self, state_dir):
        """A cached dataset must not mask externally deleted storage."""
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        assert len(session.dataset(info.name)) == 2  # cached from disk
        for path in session.store.data_files(info.name):
            os.remove(path)
        with pytest.raises(ReproError, match="run collect first"):
            session.dataset(info.name)
        assert session.info(info.name).dataset_points == 0

    def test_seed_only_rebind_keeps_sigma(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name, noise=0.1, seed=1)
        session.collect(deployment=info.name, seed=2)
        noise = session.backend(info.name).noise
        assert noise.sigma == 0.1
        assert noise.seed == 2

    def test_omitted_noise_keeps_backend_binding(self):
        """collect() without noise must not reset a noisy backend."""
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name, noise=0.05, seed=3)
        assert session.backend(info.name).noise.sigma == 0.05
        session.collect(deployment=info.name, retry_failed=1)
        assert session.backend(info.name).noise.sigma == 0.05
        session.collect(deployment=info.name, noise=0.0)
        assert session.backend(info.name).noise.sigma == 0.0

    def test_collect_reports_per_sweep_infrastructure_cost(self):
        """Cached backends accumulate; results must report sweep deltas."""
        session = AdvisorSession()
        info = session.deploy(make_config())
        r1 = session.collect(deployment=info.name)
        assert r1.infrastructure_cost_usd > 0
        r2 = session.collect(deployment=info.name)
        assert r2.executed == 0
        assert r2.infrastructure_cost_usd == 0.0
        assert r2.provisioning_overhead_s == 0.0

    def test_shutdown_unknown_raises(self, state_dir):
        with pytest.raises(ResourceNotFound):
            AdvisorSession(state_dir=state_dir).shutdown("ghost")

    def test_ephemeral_attach_unknown_raises(self):
        with pytest.raises(ResourceNotFound):
            AdvisorSession().deployment("ghost")

    def test_backend_cached_per_deployment(self):
        session = AdvisorSession()
        info = session.deploy(make_config())
        b1 = session.backend(info.name)
        assert session.backend(info.name) is b1
        # noise/seed re-bind on the same instance (pools stay reused)...
        rebound = session.backend(info.name, noise=0.1, seed=1)
        assert rebound is b1
        assert rebound.noise.sigma == 0.1
        # ...and a bare inspection call leaves the binding untouched.
        assert session.backend(info.name).noise.sigma == 0.1

    def test_backend_inspection_sees_sweep_with_noise(self):
        """session.backend(name, 'slurm') must return the instance that
        ran collect(..., noise=...), not a fresh empty cluster."""
        session = AdvisorSession()
        info = session.deploy(make_config())
        session.collect(deployment=info.name, backend="slurm",
                        noise=0.05, seed=3)
        cluster = session.backend(info.name, "slurm").cluster
        assert len(cluster.sacct()) > 0

    def test_dataset_cache_sees_external_writes(self, state_dir):
        """A long-lived session (the GUI server) must not serve stale data
        after another process appends to the store."""
        import time

        from repro.core.dataset import DataPoint

        writer = AdvisorSession(state_dir=state_dir)
        info = writer.deploy(make_config())
        writer.collect(deployment=info.name)

        reader = AdvisorSession(state_dir=state_dir)
        assert len(reader.dataset(info.name)) == 2

        # Simulate a separate `collect` process appending a point: a
        # fresh StateStore means a fresh store handle (own connection),
        # exactly like another OS process.
        from repro.core.statefiles import StateStore

        external = StateStore(root=reader.store.root).data_store(info.name)
        external.append_point(DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=4, ppn=120,
            exec_time_s=1.0, cost_usd=0.1, appinputs={"BOXFACTOR": "4"},
        ))
        external.close()
        for path in reader.store.data_files(info.name):
            future = time.time() + 2
            os.utime(path, (future, future))  # defeat mtime granularity

        assert len(reader.dataset(info.name)) == 3
        assert reader.info(info.name).dataset_points == 3

    def test_listings_count_without_reading_points(self, state_dir,
                                                   monkeypatch):
        """A persistent session holds no copy of a stored corpus: after
        dataset(), info() and list_deployments() count another handle's
        append with COUNT(*), without reading a point row."""
        from repro.core.dataset import DataPoint
        from repro.core.statefiles import StateStore
        from repro.store.sqlite import SqliteStore

        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(make_config())
        session.collect(deployment=info.name)
        dataset = session.dataset(info.name)
        assert len(dataset) == 2
        assert session.dataset(info.name) is not dataset  # a fresh read

        external = StateStore(root=state_dir).data_store(info.name)
        external.append_point(DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=4, ppn=120,
            exec_time_s=1.0, cost_usd=0.1, appinputs={"BOXFACTOR": "4"},
        ))
        external.close()

        def no_point_rows(*args, **kwargs):
            raise AssertionError("a listing read point rows")

        monkeypatch.setattr(SqliteStore, "query_points", no_point_rows)
        monkeypatch.setattr(SqliteStore, "fetch_point_columns",
                            no_point_rows)
        assert session.info(info.name).dataset_points == 3
        assert [i.dataset_points for i in session.list_deployments()] \
            == [3]

    def test_non_string_mapping_values_are_stored_as_strings(self,
                                                             state_dir):
        """A point built with a non-string input value matches the same
        string filter on every read path: the store's pushdown (cold
        page and total), the snapshot (warm page) and its own round
        trip."""
        from repro.core.dataset import DataPoint
        from repro.core.query import Query

        point = DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=2, ppn=120,
            exec_time_s=10.0, cost_usd=0.5, appinputs={"BOXFACTOR": 4},
            app_vars={"LAMMPSATOMS": 864000000}, tags={"run": 1},
        )
        assert point.appinputs == {"BOXFACTOR": "4"}
        assert DataPoint.from_dict(point.to_dict()) == point

        session = AdvisorSession(state_dir=state_dir)
        name = session.deploy(make_config()).name
        session.data_store(name).append_points([point])
        query = Query(appinputs={"BOXFACTOR": "4"}, tags={"run": "1"})
        cold = session.datapoints(name, query)
        session.snapshot(name)  # the process now holds a snapshot
        warm = session.datapoints(name, query)
        assert cold.total == warm.total == 1
        assert [p.to_dict() for p in cold.points] \
            == [p.to_dict() for p in warm.points] == [point.to_dict()]

    def test_taskdb_cache_sees_external_collect(self, state_dir):
        """A session that cached an empty task DB must not re-execute
        scenarios another process completed (duplicate points)."""
        import time

        watcher = AdvisorSession(state_dir=state_dir)
        info = watcher.deploy(make_config())
        assert len(watcher.taskdb(info.name)) == 0  # cached, empty

        other = AdvisorSession(state_dir=state_dir)
        other.collect(deployment=info.name)
        for path in watcher.store.data_files(info.name):
            future = time.time() + 2
            os.utime(path, (future, future))  # defeat mtime granularity

        result = watcher.collect(deployment=info.name)
        assert result.executed == 0
        assert result.dataset_points == 2  # no duplicates appended

    def test_compare_between_deployments(self, state_dir):
        session = AdvisorSession(state_dir=state_dir)
        a = session.deploy(make_config(rgprefix="cma"))
        b = session.deploy(make_config(rgprefix="cmb"))
        session.collect(deployment=a.name)
        session.collect(deployment=b.name)
        comparison = session.compare(a.name, b.name)
        assert comparison.matched == 2
