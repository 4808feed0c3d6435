"""RemoteSession client tests against a live in-process server.

Socket-level behaviour: typed results decoding, HTTP error mapping to
:class:`RemoteError`, connect/read timeouts, and JobHandle waiting.
"""

import socket
import threading

import pytest

from repro.api.requests import PredictRequest
from repro.api.results import AdviceResult, PredictResult, SessionInfo
from repro.client import (
    JobHandle,
    RemoteError,
    RemoteJobFailed,
    RemoteSession,
    RemoteTimeout,
)
from repro.errors import ConfigError
from repro.fleet.jobstore import FleetJobStore, fleet_db_path
from repro.fleet.manager import FleetJobManager
from repro.service.app import make_server
from repro.service.router import ServiceState
from repro.api.session import AdvisorSession
from tests.conftest import make_config


def one_worker_jobs(state_dir, session_factory):
    """The service's job manager with one executor and a custom session."""
    return FleetJobManager(FleetJobStore(fleet_db_path(state_dir)),
                           session_factory=session_factory, workers=1,
                           poll_s=0.02, owns_store=True)


@pytest.fixture
def server(tmp_path):
    srv = make_server(str(tmp_path / "state"), port=0, workers=2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.state.close()
    thread.join(timeout=10)


@pytest.fixture
def remote(server):
    port = server.server_address[1]
    return RemoteSession(f"http://127.0.0.1:{port}", timeout=10)


def deploy(remote, prefix="remoterg", **overrides):
    return remote.deploy(make_config(rgprefix=prefix, **overrides).to_dict())


class TestTypedSurface:
    def test_deploy_returns_session_info(self, remote):
        info = deploy(remote)
        assert isinstance(info, SessionInfo)
        assert info.name == "remoterg-000"
        assert info.scenario_count == 2

    def test_deploy_rejects_non_mapping(self, remote):
        with pytest.raises(ConfigError):
            remote.deploy(42)

    def test_deploy_from_local_yaml_path(self, remote, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(make_config(rgprefix="yamlrg").to_yaml())
        info = remote.deploy(str(path))
        assert info.name == "yamlrg-000"

    def test_list_info_shutdown(self, remote):
        info = deploy(remote)
        assert [d.name for d in remote.list_deployments()] == [info.name]
        assert remote.info(info.name).appname == "lammps"
        remote.shutdown(info.name)
        assert remote.list_deployments() == []

    def test_collect_wait_advise(self, remote):
        info = deploy(remote)
        job = remote.collect(deployment=info.name)
        assert isinstance(job, JobHandle)
        record = job.wait(timeout=60)
        assert record.state == "done"
        result = job.result()
        assert result.completed == 2
        advice = remote.advise(deployment=info.name)
        assert isinstance(advice, AdviceResult)
        assert advice.rows
        # The remote result decodes to the same types an in-process
        # advise would produce.
        assert advice.rows[0].sku

    def test_predict_and_compare_and_plot(self, remote):
        info_a = deploy(remote, prefix="cmpxrg", nnodes=[1, 2, 4])
        info_b = deploy(remote, prefix="cmpyrg", nnodes=[1, 2, 4])
        remote.collect(deployment=info_a.name).wait(timeout=60)
        remote.collect(deployment=info_b.name).wait(timeout=60)
        prediction = remote.predict(deployment=info_a.name)
        assert prediction.trained_on == 3
        comparison = remote.compare(info_a.name, info_b.name)
        assert comparison.matched == 3
        plots = remote.plot(deployment=info_a.name)
        assert len(plots.paths) == 5

    def test_predict_job_result_is_the_synchronous_prediction(self, remote):
        info = deploy(remote, prefix="predjobrg", nnodes=[1, 2, 4])
        remote.collect(deployment=info.name).wait(timeout=60)
        request = PredictRequest(deployment=info.name)
        job = remote.predict_job(request)
        assert job.wait(timeout=60).kind == "predict"
        result = job.result()
        assert isinstance(result, PredictResult)
        assert result.rows
        assert result == remote.predict(request)

    def test_health_and_metrics(self, remote):
        assert remote.health()["status"] == "ok"
        remote.health()
        text = remote.metrics_text()
        assert 'route="/healthz"' in text


class TestErrorMapping:
    def test_unknown_deployment_maps_to_remote_error_404(self, remote):
        with pytest.raises(RemoteError) as err:
            remote.info("ghost-000")
        assert err.value.status == 404
        assert "ghost-000" in str(err.value)

    def test_bad_request_maps_to_400(self, remote):
        with pytest.raises(RemoteError) as err:
            remote.advise(deployment="")  # missing name -> ConfigError
        assert err.value.status == 400

    def test_unknown_job_maps_to_404(self, remote):
        with pytest.raises(RemoteError) as err:
            remote.job("job-nope")
        assert err.value.status == 404

    def test_connection_refused_is_remote_error_status_0(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=2)
        with pytest.raises(RemoteError) as err:
            remote.health()
        assert err.value.status == 0
        assert not isinstance(err.value, RemoteTimeout)


class TestTimeouts:
    def test_read_timeout_raises_remote_timeout(self):
        """A server that accepts but never answers must not hang the
        client past its timeout."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        port = silent.getsockname()[1]
        try:
            remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=0.3)
            with pytest.raises(RemoteTimeout):
                remote.health()
        finally:
            silent.close()

    def test_job_wait_timeout(self, tmp_path):
        """JobHandle.wait gives up with RemoteTimeout, not a hang."""
        gate = threading.Event()

        class BlockedSession:
            def collect(self, request, progress=None):
                gate.wait(timeout=30)
                from repro.api.results import CollectResult

                return CollectResult(deployment=request.deployment)

        state_dir = str(tmp_path / "state")
        info = AdvisorSession(state_dir=state_dir).deploy(
            make_config(rgprefix="slowrg"))
        state = ServiceState(
            session=AdvisorSession(state_dir=state_dir),
            jobs=one_worker_jobs(state_dir, BlockedSession),
        )
        server = make_server(state_dir, port=0, state=state)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=5)
            job = remote.collect(deployment=info.name)
            with pytest.raises(RemoteTimeout):
                job.wait(timeout=0.4, poll=0.05)
            gate.set()
            assert job.wait(timeout=30).state == "done"
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            state.close()
            thread.join(timeout=10)

    def test_submit_for_unknown_deployment_is_404(self, remote):
        # Validated at submit time, under the same lock as shutdown.
        with pytest.raises(RemoteError) as err:
            remote.collect(deployment="ghost-000")
        assert err.value.status == 404
        assert "ghost-000" in str(err.value)

    def test_wait_raises_on_failed_job(self, tmp_path):
        """A job that fails server-side surfaces as RemoteJobFailed."""
        from repro.errors import BackendError

        class FailingSession:
            def collect(self, request, progress=None):
                raise BackendError("pool exploded")

        state_dir = str(tmp_path / "state")
        control = AdvisorSession(state_dir=state_dir)
        info = control.deploy(make_config(rgprefix="failrg"))
        state = ServiceState(
            session=AdvisorSession(state_dir=state_dir),
            jobs=one_worker_jobs(state_dir, FailingSession),
        )
        server = make_server(state_dir, port=0, state=state)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=5)
            job = remote.collect(deployment=info.name)
            with pytest.raises(RemoteJobFailed) as err:
                job.wait(timeout=30)
            assert "pool exploded" in str(err.value)
            assert job.refresh().state == "failed"
            with pytest.raises(RemoteJobFailed):
                job.result()
            # raise_on_failure=False returns the failed record instead.
            record = job.wait(timeout=30, raise_on_failure=False)
            assert record.state == "failed"
            assert "pool exploded" in record.error
        finally:
            server.shutdown()
            server.server_close()
            state.close()
            thread.join(timeout=10)


class TestCancelOverTheWire:
    def test_cancel_queued_job(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        class BlockedSession:
            def collect(self, request, progress=None):
                started.set()
                gate.wait(timeout=30)
                from repro.api.results import CollectResult

                return CollectResult(deployment=request.deployment)

        state_dir = str(tmp_path / "state")
        control = AdvisorSession(state_dir=state_dir)
        info_a = control.deploy(make_config(rgprefix="cxarg"))
        info_b = control.deploy(make_config(rgprefix="cxbrg"))
        state = ServiceState(
            session=AdvisorSession(state_dir=state_dir),
            jobs=one_worker_jobs(state_dir, BlockedSession),
        )
        server = make_server(state_dir, port=0, state=state)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=5)
            blocker = remote.collect(deployment=info_a.name)
            assert started.wait(timeout=10)
            queued = remote.collect(deployment=info_b.name)
            record = queued.cancel()
            assert record.state == "cancelled"
            gate.set()
            assert blocker.wait(timeout=30).state == "done"
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            state.close()
            thread.join(timeout=10)


class TestSpotOverTheWire:
    """Acceptance: spot collection and risk-adjusted advice work
    end-to-end through RemoteSession, sockets included."""

    def test_spot_collect_and_advise(self, remote):
        from repro.api import AdviseRequest, CollectRequest

        info = deploy(remote, prefix="spotwire",
                      nnodes=[1, 2], appinputs={"BOXFACTOR": ["16"]})
        job = remote.collect(CollectRequest(
            deployment=info.name,
            capacity="spot",
            recovery="checkpoint_restart",
            checkpoint_interval_s=5.0,
            checkpoint_overhead_s=1.0,
            eviction_rate=120.0,
            eviction_seed=5,
        ))
        record = job.wait(timeout=60)
        assert record.state == "done"
        result = job.result()
        assert result.capacity == "spot"
        assert result.recovery == "checkpoint_restart"
        assert result.preemptions > 0
        assert result.wasted_node_s > 0

        advice = remote.advise(AdviseRequest(
            deployment=info.name, capacity="spot",
            recovery="checkpoint_restart",
        ))
        assert advice.capacity == "spot"
        assert advice.rows
        for row in advice.rows:
            assert row.capacity == "spot"
            assert row.makespan_s >= row.exec_time_s
            assert row.p95_makespan_s > 0

    def test_spot_request_validation_maps_to_remote_error(self, remote):
        from repro.errors import RemoteError

        info = deploy(remote, prefix="spotwirebad")
        with pytest.raises(RemoteError) as excinfo:
            remote._call("POST", "/v1/jobs/collect", body={
                "deployment": info.name, "capacity": "flex",
            })
        assert excinfo.value.status == 400


class TestConditionalGets:
    def test_etag_cached_and_304_reuses_body(self, remote):
        info = deploy(remote, prefix="etagrg")
        job = remote.collect(deployment=info.name)
        job.wait(timeout=60)

        first = remote.datapoints(info.name)
        assert remote._etag_cache  # the ETag was remembered per URL
        second = remote.datapoints(info.name)
        assert second.points == first.points
        # The wire said 304 for the revalidation; the body came from the
        # client cache.
        metrics = remote._call("GET", "/metrics", raw=True)
        assert 'route="/v1/datapoints",status="304"' in metrics

    def test_advice_conditional_get_roundtrip(self, remote):
        info = deploy(remote, prefix="etagadvrg")
        remote.collect(deployment=info.name).wait(timeout=60)
        query = {"deployment": info.name}
        first = AdviceResult.from_dict(
            remote._call("GET", "/v1/advice", query=query))
        second = AdviceResult.from_dict(
            remote._call("GET", "/v1/advice", query=query))
        assert second.rows == first.rows
        metrics = remote._call("GET", "/metrics", raw=True)
        assert 'route="/v1/advice",status="304"' in metrics

    def test_etag_cache_is_bounded(self, remote):
        remote._etag_cache.clear()
        for i in range(remote.ETAG_CACHE_SIZE + 10):
            with remote._etag_lock:
                remote._etag_cache[f"http://x/{i}"] = ('"e"', "{}")
        # A real GET with an ETag triggers the LRU trim.
        deploy(remote, prefix="lrurg")
        remote.collect(deployment="lrurg-000").wait(timeout=60)
        remote.datapoints("lrurg-000")
        assert len(remote._etag_cache) <= remote.ETAG_CACHE_SIZE


class TestRefusedRetries:
    """Faults are injected where the session opens its connections."""

    def test_connection_refused_is_retried(self, remote, monkeypatch):
        real = remote._new_connection
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionRefusedError(111, "Connection refused")
            return real()

        monkeypatch.setattr(remote, "_new_connection", flaky)
        remote.backoff_s = 0.001
        health = remote.health()
        assert health["status"] == "ok"
        assert calls["n"] == 3

    def test_retries_exhausted_raises_remote_error(self, remote,
                                                   monkeypatch):
        def always_refused():
            raise ConnectionRefusedError(111, "Connection refused")

        monkeypatch.setattr(remote, "_new_connection", always_refused)
        remote.backoff_s = 0.001
        remote.retries = 2
        with pytest.raises(RemoteError):
            remote.health()

    def test_non_refused_errors_are_not_retried(self, remote,
                                                monkeypatch):
        """A reset, at connect or on a fresh connection's first
        exchange, is one attempt: only a refused connect is retried,
        and only a reused connection is ever resent on."""

        class ResetOnSend:
            def request(self, *args, **kwargs):
                raise ConnectionResetError(104, "Connection reset by peer")

            def close(self):
                pass

        for fault in ("connect", "exchange"):
            calls = {"n": 0}

            def reset():
                calls["n"] += 1
                if fault == "connect":
                    raise ConnectionResetError(104,
                                               "Connection reset by peer")
                return ResetOnSend()

            monkeypatch.setattr(remote, "_new_connection", reset)
            with pytest.raises(RemoteError) as err:
                remote.health()
            assert err.value.status == 0
            assert calls["n"] == 1, fault
