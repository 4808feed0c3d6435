"""Service router tests: the JSON API contract, no sockets involved.

The :class:`~repro.service.router.Router` is HTTP-agnostic, so the whole
wire contract — routes, payload shapes, status codes, error mapping —
is testable by calling ``handle()`` directly.  Socket-level behaviour is
covered by ``test_client_remote.py`` and ``test_service_e2e.py``.
"""

import json
import math
import re
from pathlib import Path
from urllib.parse import urlencode

import pytest

from repro.api import AdvisorSession
from repro.api.results import (
    AdviceResult,
    CompareResult,
    PlotResult,
    PredictResult,
    RecipeResult,
    SessionInfo,
)
from repro.core.advisor import AdviceRow
from repro.service.app import build_state, warn_if_exposed
from repro.service.router import Router, ServiceState
from repro.service.router import Response, _index
from tests.conftest import make_config


@pytest.fixture
def state(tmp_path):
    service_state = build_state(str(tmp_path / "state"), workers=2)
    yield service_state
    service_state.close()


@pytest.fixture
def router(state):
    return Router(state)


def deploy(router, prefix="httprg", **overrides):
    config = make_config(rgprefix=prefix, **overrides)
    response = router.handle("POST", "/v1/deployments",
                             json.dumps({"config": config.to_dict()}))
    assert response.status == 201, response.payload
    return SessionInfo.from_dict(response.payload)


def collect_done(router, name):
    response = router.handle("POST", "/v1/jobs/collect",
                             json.dumps({"deployment": name}))
    assert response.status == 202, response.payload
    job_id = response.payload["id"]
    record = router.state.jobs.wait(job_id, timeout=30)
    assert record.state == "done", record.error
    return record


class TestHealthAndMetrics:
    def test_healthz(self, router):
        response = router.handle("GET", "/healthz")
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["jobs"]["running"] == 0

    def test_metrics_counts_requests_with_latency(self, router):
        router.handle("GET", "/healthz")
        router.handle("GET", "/v1/deployments")
        response = router.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.payload
        assert ('advisor_http_requests_total{method="GET",'
                'route="/healthz",status="200"} 1') in text
        assert "advisor_http_request_seconds_sum" in text
        assert "advisor_jobs_done 0" in text

    def test_metrics_normalizes_job_routes(self, router):
        router.handle("GET", "/v1/jobs/job-does-not-exist")
        response = router.handle("GET", "/metrics")
        assert 'route="/v1/jobs/<id>",status="404"' in response.payload
        assert "job-does-not-exist" not in response.payload


class TestErrorMapping:
    def test_unknown_route_is_404(self, router):
        assert router.handle("GET", "/nope").status == 404
        assert router.handle("GET", "/v1/nope").status == 404

    def test_wrong_method_is_405_with_allowed_list(self, router):
        response = router.handle("PUT", "/v1/deployments")
        assert response.status == 405
        assert response.payload["allowed"] == ["GET", "POST"]
        assert router.handle("GET", "/v1/plots").status == 405
        assert router.handle("DELETE", "/healthz").status == 405

    def test_bad_json_body_is_400(self, router):
        assert router.handle("POST", "/v1/deployments", "{oops").status == 400
        assert router.handle("POST", "/v1/deployments", None).status == 400
        assert router.handle("POST", "/v1/deployments",
                             json.dumps([1, 2])).status == 400

    def test_unknown_deployment_is_404(self, router):
        assert router.handle("GET", "/v1/deployments/ghost-000").status == 404
        assert router.handle("DELETE",
                             "/v1/deployments/ghost-000").status == 404

    def test_unknown_request_key_is_400(self, router):
        response = router.handle("POST", "/v1/advice",
                                 json.dumps({"bogus_key": 1}))
        assert response.status == 400
        assert "bogus_key" in response.payload["error"]

    def test_advise_without_data_is_422(self, router):
        info = deploy(router)
        response = router.handle("POST", "/v1/advice",
                                 json.dumps({"deployment": info.name}))
        assert response.status == 422
        assert "collect" in response.payload["error"]


class TestDeployments:
    def test_create_list_get_shutdown(self, router):
        info = deploy(router)
        assert info.scenario_count == 2

        listing = router.handle("GET", "/v1/deployments")
        names = [d["name"] for d in listing.payload["deployments"]]
        assert names == [info.name]

        got = router.handle("GET", f"/v1/deployments/{info.name}")
        assert SessionInfo.from_dict(got.payload).name == info.name

        gone = router.handle("DELETE", f"/v1/deployments/{info.name}")
        assert gone.status == 200
        assert gone.payload["status"] == "shutdown"
        assert router.handle(
            "GET", f"/v1/deployments/{info.name}").status == 404

    def test_create_requires_config_envelope(self, router):
        response = router.handle("POST", "/v1/deployments",
                                 json.dumps({"not_config": {}}))
        assert response.status == 400


class TestQueries:
    def test_advice_get_with_query_params(self, router):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "GET",
            f"/v1/advice?deployment={info.name}&sort=cost&max_rows=1",
        )
        assert response.status == 200
        result = AdviceResult.from_dict(response.payload)
        assert result.sort_by == "cost"
        assert len(result.rows) == 1

    def test_advice_get_filters_and_nnodes(self, router):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "GET",
            f"/v1/advice?deployment={info.name}"
            "&filter=BOXFACTOR%3D4&nnodes=1,2",
        )
        assert response.status == 200
        assert AdviceResult.from_dict(response.payload).rows

        # A filter matching nothing is an AdvisorError -> 422 on the wire.
        nothing = router.handle(
            "GET",
            f"/v1/advice?deployment={info.name}&filter=BOXFACTOR%3D99",
        )
        assert nothing.status == 422
        assert "no completed data points" in nothing.payload["error"]

    def test_predict_post(self, router):
        info = deploy(router, nnodes=[1, 2, 4])
        collect_done(router, info.name)
        response = router.handle(
            "POST", "/v1/predict",
            json.dumps({"deployment": info.name, "model": "ridge"}),
        )
        assert response.status == 200
        result = PredictResult.from_dict(response.payload)
        assert result.trained_on == 3
        assert result.rows

    def test_compare(self, router):
        info_a = deploy(router, prefix="cmparg")
        info_b = deploy(router, prefix="cmpbrg")
        collect_done(router, info_a.name)
        collect_done(router, info_b.name)
        response = router.handle(
            "GET", f"/v1/compare?a={info_a.name}&b={info_b.name}")
        assert response.status == 200
        result = CompareResult.from_dict(response.payload)
        assert result.matched == 2
        assert router.handle("GET", "/v1/compare?a=x").status == 400

    def test_plots(self, router, tmp_path):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "POST", "/v1/plots", json.dumps({"deployment": info.name}))
        assert response.status == 200
        result = PlotResult.from_dict(response.payload)
        assert len(result.paths) == 5
        assert "pareto" in result.kinds


class TestJobRoutes:
    def test_collect_job_lifecycle_over_routes(self, router):
        info = deploy(router)
        submitted = router.handle(
            "POST", "/v1/jobs/collect",
            json.dumps({"deployment": info.name}))
        assert submitted.status == 202
        job_id = submitted.payload["id"]
        assert submitted.payload["state"] == "queued"

        router.state.jobs.wait(job_id, timeout=30)
        fetched = router.handle("GET", f"/v1/jobs/{job_id}")
        assert fetched.payload["state"] == "done"
        assert fetched.payload["result"]["completed"] == 2

        listing = router.handle("GET", "/v1/jobs")
        assert [j["id"] for j in listing.payload["jobs"]] == [job_id]
        filtered = router.handle(
            "GET", f"/v1/jobs?deployment={info.name}&state=done")
        assert len(filtered.payload["jobs"]) == 1
        empty = router.handle("GET", "/v1/jobs?state=failed")
        assert empty.payload["jobs"] == []

    def test_cancel_route_conflicts_on_finished_job(self, router):
        info = deploy(router)
        record = collect_done(router, info.name)
        response = router.handle("POST", f"/v1/jobs/{record.id}/cancel")
        assert response.status == 409

    def test_jobs_unavailable_without_manager(self, tmp_path):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        router = Router(ServiceState(session=session, jobs=None))
        # A job-less state is read-only: a submit is a 405, a listing 503.
        response = router.handle("POST", "/v1/jobs/collect",
                                 json.dumps({"deployment": "x"}))
        assert response.status == 405
        assert router.handle("GET", "/v1/jobs").status == 503
        # Health still answers, just without job counts.
        health = router.handle("GET", "/healthz")
        assert health.status == 200
        assert "jobs" not in health.payload


class TestShutdownGuards:
    def test_shutdown_refused_while_jobs_active(self, router):
        """DELETE on a deployment with live jobs is a 409, not a freeze."""
        import os
        import threading

        from repro.fleet.jobstore import FleetJobStore
        from repro.fleet.manager import FleetJobManager
        from repro.service.router import Router, ServiceState

        gate = threading.Event()
        started = threading.Event()

        class BlockedSession:
            def collect(self, request, progress=None):
                started.set()
                gate.wait(timeout=30)
                from repro.api.results import CollectResult

                return CollectResult(deployment=request.deployment)

        info = deploy(router, prefix="guardrg")
        state = ServiceState(
            session=router.state.session,
            # A queue of its own: the fixture's workers must not claim
            # this job with a real session.
            jobs=FleetJobManager(
                FleetJobStore(os.path.join(
                    router.state.session.store.root, "fleet-g.sqlite")),
                session_factory=BlockedSession, workers=1, poll_s=0.02,
                owns_store=True),
        )
        guarded = Router(state)
        try:
            submitted = guarded.handle(
                "POST", "/v1/jobs/collect",
                json.dumps({"deployment": info.name}))
            assert submitted.status == 202
            assert started.wait(timeout=10)
            refused = guarded.handle(
                "DELETE", f"/v1/deployments/{info.name}")
            assert refused.status == 409
            assert submitted.payload["id"] in refused.payload["error"]
            gate.set()
            state.jobs.wait(submitted.payload["id"], timeout=10)
            allowed = guarded.handle(
                "DELETE", f"/v1/deployments/{info.name}")
            assert allowed.status == 200
        finally:
            gate.set()
            state.close()


class TestExposureWarning:
    @pytest.mark.parametrize("host, warned", [
        ("127.0.0.1", False), ("localhost", False), ("::1", False),
        ("0.0.0.0", True),
    ])
    def test_only_a_non_loopback_host_is_warned_about(self, capsys, host,
                                                      warned):
        warn_if_exposed(host)
        assert ("no authentication" in capsys.readouterr().out) == warned


class TestBindFailure:
    def test_bind_failure_starts_no_workers(self, tmp_path):
        """A port conflict must fail before the job manager starts (no
        leaked worker threads, no recovered job falsely marked running)."""
        import socket
        import threading

        from repro.service.app import make_server
        from repro.service.jobs import JobRecord

        jobs_dir = tmp_path / "state" / "jobs"
        jobs_dir.mkdir(parents=True)
        pending = JobRecord(id="job-q", kind="collect", deployment="d-000",
                            state="queued",
                            request={"deployment": "d-000"}, created_at=1.0)
        (jobs_dir / "job-q.json").write_text(pending.to_json())

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        before = threading.active_count()
        try:
            with pytest.raises(OSError):
                make_server(str(tmp_path / "state"), port=port)
        finally:
            blocker.close()
        assert threading.active_count() == before  # no leaked workers
        assert json.loads(
            (jobs_dir / "job-q.json").read_text())["state"] == "queued"


class TestSpotWire:
    """Wire coverage for the spot-capacity parameters (ISSUE 4)."""

    def test_collect_job_carries_spot_parameters(self, router):
        info = deploy(router, prefix="spotrg")
        body = {
            "deployment": info.name,
            "capacity": "spot",
            "recovery": "checkpoint_restart",
            "checkpoint_interval_s": 5.0,
            "checkpoint_overhead_s": 1.0,
            "eviction_rate": 120.0,
            "eviction_seed": 9,
        }
        response = router.handle("POST", "/v1/jobs/collect",
                                 json.dumps(body))
        assert response.status == 202
        assert response.payload["request"]["capacity"] == "spot"
        assert response.payload["request"]["eviction_seed"] == 9
        record = router.state.jobs.wait(response.payload["id"], timeout=30)
        assert record.state == "done", record.error
        from repro.api.results import CollectResult

        result = CollectResult.from_dict(record.result)
        assert result.capacity == "spot"
        assert result.recovery == "checkpoint_restart"
        assert result.preemptions >= 0
        assert record.progress.get("preemptions") == result.preemptions

    def test_collect_job_rejects_bad_spot_parameters(self, router):
        info = deploy(router, prefix="spotbadrg")
        response = router.handle("POST", "/v1/jobs/collect", json.dumps({
            "deployment": info.name, "capacity": "flex",
        }))
        assert response.status == 400
        assert "capacity" in response.payload["error"]

    def test_advice_get_spot_query_params(self, router):
        info = deploy(router, prefix="spotadvrg")
        collect_done(router, info.name)
        response = router.handle(
            "GET",
            f"/v1/advice?deployment={info.name}&capacity=spot"
            "&recovery=restart&eviction_rate=40"
            "&checkpoint_interval=90&checkpoint_overhead=9",
        )
        assert response.status == 200
        result = AdviceResult.from_dict(response.payload)
        assert result.capacity == "spot"
        assert result.rows
        for row in result.rows:
            assert row.capacity == "spot"
            assert row.makespan_s >= row.exec_time_s
            assert row.p95_makespan_s > 0

    def test_advice_post_spot_body(self, router):
        info = deploy(router, prefix="spotpostrg")
        collect_done(router, info.name)
        response = router.handle("POST", "/v1/advice", json.dumps({
            "deployment": info.name, "capacity": "ondemand",
        }))
        assert response.status == 200
        result = AdviceResult.from_dict(response.payload)
        assert result.capacity == "ondemand"

    @pytest.mark.parametrize("params, error", [
        ("max_rows=-1", "max_rows must be >= 0"),
        ("capacity=spot&eviction_rate=nan", "eviction_rate must be a finite"),
        ("capacity=spot&eviction_rate=inf", "eviction_rate must be a finite"),
        ("capacity=spot&checkpoint_interval=nan",
         "checkpoint_interval_s must be a finite"),
    ])
    def test_advice_get_rejects_malformed_numbers(self, router, params,
                                                  error):
        # The deployment has no data, so a request that slipped past
        # validation would answer 422 without running any risk kernel.
        info = deploy(router, prefix="spotnumrg")
        response = router.handle(
            "GET", f"/v1/advice?deployment={info.name}&{params}")
        assert response.status == 400
        assert error in response.payload["error"]

    def test_advice_post_rejects_non_finite_rate(self, router):
        info = deploy(router, prefix="spotpostnanrg")
        response = router.handle("POST", "/v1/advice", json.dumps({
            "deployment": info.name, "capacity": "spot",
            "eviction_rate": math.nan,
        }))
        assert response.status == 400
        assert "eviction_rate must be a finite" in response.payload["error"]

    def test_advice_get_rejects_bad_eviction_rate(self, router):
        info = deploy(router, prefix="spotnanrg")
        response = router.handle(
            "GET",
            f"/v1/advice?deployment={info.name}&capacity=spot"
            "&eviction_rate=banana",
        )
        assert response.status == 400
        assert "number" in response.payload["error"]


class TestResponseBodies:
    """JSON bodies are compact: one line that parses back to the
    payload the router built (str payloads go out verbatim)."""

    SPOT_ROW = AdviceRow(exec_time_s=34.0, cost_usd=0.21, nnodes=16,
                         sku="Standard_HB120rs_v3", capacity="spot",
                         makespan_s=math.inf, p95_makespan_s=math.inf)

    @pytest.mark.parametrize("payload", [
        {"error": "line one\nline two", "values": [1.5, math.inf, None,
                                                   True, -0.0, 2**53]},
        [{"nested": {"list": [1, [2, []]], "empty": {}}}, "text\r\n"],
        RecipeResult(deployment="d", row=SPOT_ROW,
                     slurm_script="#!/bin/bash\nsrun lmp\n",
                     cluster_recipe="vm_type: x\n").to_dict(),
    ], ids=["mapping", "list", "recipe"])
    def test_body_is_one_line_of_the_payload(self, payload):
        body = Response(payload=payload).body_bytes()
        assert b"\n" not in body
        assert json.loads(body) == payload

    def test_routed_bodies_parse_back_to_their_payloads(self, router):
        info = deploy(router, prefix="bodyrg")
        collect_done(router, info.name)
        for target in (f"/v1/advice?deployment={info.name}",
                       f"/v1/datapoints?deployment={info.name}&limit=3",
                       f"/v1/deployments/{info.name}"):
            response = router.handle("GET", target)
            assert response.status == 200, target
            body = response.body_bytes()
            assert b"\n" not in body
            assert json.loads(body) == response.payload
        assert AdviceResult.from_dict(json.loads(
            router.handle("GET", f"/v1/advice?deployment={info.name}"
                          ).body_bytes())).rows


#: Every route as clients see it today: its /metrics label and the
#: methods it serves, in the order a 405's ``allowed`` list names them.
ROUTE_METHODS = [
    ("/", ["GET"]),
    ("/deployment/<name>", ["GET"]),
    ("/plots/<name>", ["GET"]),
    ("/bottlenecks/<name>", ["GET"]),
    ("/advice/<name>", ["GET"]),
    ("/healthz", ["GET"]),
    ("/metrics", ["GET"]),
    ("/v1/deployments", ["GET", "POST"]),
    ("/v1/deployments/<name>", ["GET", "DELETE"]),
    ("/v1/datapoints", ["GET"]),
    ("/v1/advice", ["GET", "POST"]),
    ("/v1/predict", ["GET", "POST"]),
    ("/v1/compare", ["GET"]),
    ("/v1/plots", ["POST"]),
    ("/v1/jobs/collect", ["POST"]),
    ("/v1/jobs/predict", ["POST"]),
    ("/v1/jobs", ["GET"]),
    ("/v1/jobs/<id>", ["GET", "DELETE"]),
    ("/v1/jobs/<id>/cancel", ["POST"]),
]


class TestRouteTable:
    @pytest.mark.parametrize("label, allowed, method", [
        (label, allowed, method)
        for label, allowed in ROUTE_METHODS
        for method in ("GET", "POST", "PUT", "DELETE", "PATCH")
        if method not in allowed
    ])
    def test_a_method_the_route_lacks_is_a_405_under_its_label(
            self, router, label, allowed, method):
        response = router.handle(method, re.sub(r"<\w+>", "x", label))
        assert response.status == 405
        assert response.payload["allowed"] == allowed
        assert response.payload["type"] == "MethodNotAllowed"
        metrics = router.handle("GET", "/metrics").payload
        assert (f'advisor_http_requests_total{{method="{method}",'
                f'route="{label}",status="405"}} 1') in metrics

    def test_the_table_serves_exactly_these_routes(self):
        assert [(label, list(handlers)) for label, handlers
                in Router.ROUTES] == ROUTE_METHODS

    def test_a_route_an_earlier_pattern_shadows_is_refused(self):
        # First match wins, so this literal route could never be served.
        with pytest.raises(ValueError, match="shadowed"):
            _index((("/v1/jobs/<id>", {}), ("/v1/jobs/collect", {})))
        with pytest.raises(ValueError, match="shadowed"):
            _index((("/healthz", {}), ("/healthz", {})))

    def test_service_md_lists_the_table(self):
        """docs/SERVICE.md's endpoint table has one row per route, with
        the route's methods, in the table's order."""
        text = (Path(__file__).resolve().parent.parent
                / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        section = text.split("## Endpoints", 1)[1].split("\n## ", 1)[0]
        rows = []
        for cell in re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE):
            methods, path = cell.split(" ", 1)
            rows.append((re.split(r"[\[?]", path)[0], methods.split("\\|")))
        assert rows == [(label, list(handlers)) for label, handlers
                        in Router.ROUTES]


class TestGetDecoders:
    """A GET query builds its request from the parameters it carries,
    so the request dataclass's defaults are the only defaults."""

    @pytest.mark.parametrize("route, fields", [
        ("/v1/advice", {}),
        ("/v1/advice", {"capacity": "spot"}),
        ("/v1/predict", {}),
    ], ids=["advice-measured", "advice-spot", "predict"])
    def test_a_get_answers_what_a_post_of_the_request_answers(
            self, router, route, fields):
        info = deploy(router, prefix="getpostrg", nnodes=[1, 2, 4])
        collect_done(router, info.name)
        request = {"deployment": info.name, **fields}
        got = router.handle("GET", f"{route}?{urlencode(request)}")
        posted = router.handle("POST", route, json.dumps(request))
        assert got.status == posted.status == 200, got.payload
        assert got.payload == posted.payload
