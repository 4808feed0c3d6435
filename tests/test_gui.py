"""GUI tests: page rendering plus one live HTTP round-trip.

Pages render from an :class:`repro.api.AdvisorSession`, the only thing
``make_server`` accepts; the plots and bottlenecks pages read its
columnar snapshot and must say what ``plot`` and the points say.
"""

import dataclasses
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import AdvisorSession
from repro.core.plots import PLOT_TYPES
from repro.gui import pages
from repro.sampling.bottleneck import BottleneckAnalyzer
from repro.service.app import make_server as make_service_server
from repro.service.router import ServiceState
from tests.conftest import make_config


def make_server(session, host="127.0.0.1", port=0):
    """The ``gui`` command's server: the service over a job-less state."""
    return make_service_server(session.store.root, host, port,
                               state=ServiceState(session=session))


@pytest.fixture
def session(tmp_path):
    return AdvisorSession(state_dir=str(tmp_path))


@pytest.fixture
def session_with_data(session):
    config = make_config(nnodes=[1, 2])
    info = session.deploy(config)
    session.collect(deployment=info.name)
    return session, info.name


class TestPages:
    def test_index_empty(self, session):
        html = pages.render_index(session)
        assert "No deployments yet" in html

    def test_index_lists_deployments(self, session_with_data):
        session, name = session_with_data
        html = pages.render_index(session)
        assert name in html
        assert "advice" in html

    def test_deployment_page(self, session_with_data):
        session, name = session_with_data
        html = pages.render_deployment(session, name)
        assert name in html
        assert "lammps" in html
        assert "Collected points: 2" in html

    def test_plots_page_embeds_svgs(self, session_with_data):
        session, name = session_with_data
        html = pages.render_plots(session, name)
        assert html.count("<svg") == 4

    def test_advice_page_table(self, session_with_data):
        session, name = session_with_data
        html = pages.render_advice(session, name)
        assert "hb120rs_v3" in html
        assert "Exectime" in html

    def test_advice_sorted_by_cost(self, session_with_data):
        session, name = session_with_data
        html = pages.render_advice(session, name, sort_by="cost")
        assert "Pareto front" in html


@pytest.fixture
def session_with_mixed_data(session):
    """Two SKUs over three node counts, plus appended points: a second
    measurement of one configuration with other metrics, a second
    spelling of a SKU, and a point without metrics."""
    info = session.deploy(make_config(
        skus=["Standard_HB120rs_v3", "Standard_HC44rs"], nnodes=[1, 2, 4]))
    session.collect(deployment=info.name)
    first = session.dataset(info.name).points()[0]
    session.data_store(info.name).append_points([
        dataclasses.replace(first, exec_time_s=first.exec_time_s * 1.5,
                            infra_metrics={"cpu_util": 0.1,
                                           "comm_fraction": 0.9}),
        dataclasses.replace(first, sku="standard_hb120rs_v3", nnodes=8,
                            exec_time_s=first.exec_time_s / 5),
        dataclasses.replace(first, nnodes=16, infra_metrics={}),
    ])
    return session, info.name


class TestPagesMatchTheirSources:
    def test_plots_page_charts_are_the_plot_command_svgs(
            self, session_with_mixed_data, tmp_path):
        session, name = session_with_mixed_data
        page = pages.render_plots(session, name)
        charts = re.findall(r"<div>(<svg.*?</svg>\s*)</div>", page,
                            flags=re.S)
        written = session.plot(deployment=name,
                               output_dir=str(tmp_path / "plots"))
        paths = dict(zip(written.kinds, written.paths))
        expected = []
        for kind in PLOT_TYPES:
            with open(paths[kind], encoding="utf-8") as fh:
                expected.append(fh.read())
        assert charts == expected

    def test_bottlenecks_page_reports_the_points(
            self, session_with_mixed_data, monkeypatch):
        session, name = session_with_mixed_data
        expected = BottleneckAnalyzer()
        for point in session.dataset(name):
            expected.observe_dict(point.sku, point.nnodes,
                                  point.infra_metrics)
        want = expected.reports()

        served = []
        reports = BottleneckAnalyzer.reports
        monkeypatch.setattr(BottleneckAnalyzer, "reports",
                            lambda self: served.append(reports(self))
                            or served[-1])
        page = pages.render_bottlenecks(session, name)
        assert served == [want]
        # Two SKUs at 1/2/4 nodes each, plus the 8-node point of the
        # second spelling; the metric-less 16-node point has no row.
        assert len(want) == 7
        rows = re.findall(r"<tr><td>([^<]*)</td><td>(\d+)</td>", page)
        assert rows == [(r.sku, str(r.nnodes)) for r in want]


class TestHttpServer:
    def test_live_roundtrip(self, session_with_data):
        session, name = session_with_data
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/", timeout=5
            ) as response:
                assert response.status == 200
                body = response.read().decode()
            assert name in body
        finally:
            thread.join(timeout=5)
            server.server_close()

    def test_404_for_unknown_page(self, session):
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
            assert err.value.code == 404
        finally:
            thread.join(timeout=5)
            server.server_close()

    def test_advice_page_over_http(self, session_with_data):
        session, name = session_with_data
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/advice/{name}?sort=cost", timeout=5
            ) as response:
                body = response.read().decode()
            assert "hb120rs_v3" in body
        finally:
            thread.join(timeout=5)
            server.server_close()


def _one_request(server, method, path, port):
    thread = threading.Thread(target=server.handle_request)
    thread.start()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.read().decode()
    finally:
        thread.join(timeout=5)


class TestHealthAnd405:
    def test_healthz_endpoint(self, session):
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        try:
            status, body = _one_request(server, "GET", "/healthz", port)
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
        finally:
            server.server_close()

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "PATCH"])
    def test_non_get_methods_are_405(self, session, method):
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        try:
            thread = threading.Thread(target=server.handle_request)
            thread.start()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/", method=method
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=5)
            assert err.value.code == 405
            thread.join(timeout=5)
        finally:
            server.server_close()


class TestApiMount:
    """The GUI reuses the service router for its JSON data needs."""

    def test_api_deployments_lists_json(self, session_with_data):
        session, name = session_with_data
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        try:
            status, body = _one_request(
                server, "GET", "/api/v1/deployments", port)
            assert status == 200
            payload = json.loads(body)
            assert [d["name"] for d in payload["deployments"]] == [name]
        finally:
            server.server_close()

    def test_api_advice_matches_html_page_data(self, session_with_data):
        session, name = session_with_data
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        try:
            status, body = _one_request(
                server, "GET", f"/api/v1/advice?deployment={name}", port)
            assert status == 200
            payload = json.loads(body)
            assert payload["deployment"] == name
            assert payload["rows"]
        finally:
            server.server_close()

    def test_api_jobs_unavailable_on_gui_mount(self, session):
        server = make_server(session, host="127.0.0.1", port=0)
        port = server.server_address[1]
        try:
            thread = threading.Thread(target=server.handle_request)
            thread.start()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/api/v1/jobs", timeout=5)
            assert err.value.code == 503
            thread.join(timeout=5)
        finally:
            server.server_close()


@pytest.fixture
def served(session):
    """A GUI server answering on a thread: (session, base URL)."""
    server = make_server(session)
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield session, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestOneServer:
    """The GUI is the service's threaded server over a read-only state."""

    def test_healthz_answers_while_a_page_render_is_blocked(
            self, served, monkeypatch):
        session, url = served
        entered, release = threading.Event(), threading.Event()
        listing = AdvisorSession.list_deployments

        def blocked(self, *args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return listing(self, *args, **kwargs)

        def render_index():
            with urllib.request.urlopen(f"{url}/", timeout=30) as response:
                response.read()

        monkeypatch.setattr(AdvisorSession, "list_deployments", blocked)
        page = threading.Thread(target=render_index)
        page.start()
        try:
            assert entered.wait(timeout=10)
            with urllib.request.urlopen(f"{url}/healthz",
                                        timeout=2) as response:
                assert response.status == 200
        finally:
            release.set()
            page.join(timeout=10)
        assert not page.is_alive()

    @pytest.mark.parametrize("page", ["deployment", "plots"])
    def test_a_page_that_cannot_render_is_an_html_404(self, served, page):
        """An unknown deployment, or one with no data to plot."""
        session, url = served
        name = session.deploy(make_config()).name
        for target in ("ghost", name if page == "plots" else "ghost"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}/{page}/{target}", timeout=5)
            with err.value:
                assert err.value.code == 404
                assert err.value.headers["Content-Type"].startswith(
                    "text/html")
                assert "<h1>404</h1>" in err.value.read().decode()

    def test_a_page_that_breaks_is_an_html_500(self, served, monkeypatch):
        _, url = served

        def broken(self, *args, **kwargs):
            raise RuntimeError("index went wrong")

        monkeypatch.setattr(AdvisorSession, "list_deployments", broken)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/", timeout=5)
        with err.value:
            assert err.value.code == 500
            assert err.value.headers["Content-Type"].startswith("text/html")
            body = err.value.read().decode()
        assert "<h1>500</h1>" in body
        assert "internal error: index went wrong" in body

    def test_page_requests_are_counted_by_route(self, served):
        session, url = served
        name = session.deploy(make_config()).name
        with urllib.request.urlopen(f"{url}/deployment/{name}",
                                    timeout=5) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            metrics = response.read().decode()
        assert ('advisor_http_requests_total{method="GET",'
                'route="/deployment/<name>",status="200"} 1') in metrics

    @pytest.mark.parametrize("path", ["/", "/v1/deployments",
                                      "/api/v1/deployments"])
    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "PATCH"])
    def test_writes_are_405_and_deploy_nothing(self, served, method, path):
        session, url = served
        body = json.dumps({"config": make_config().to_dict()})
        request = urllib.request.Request(
            f"{url}{path}", data=body.encode(), method=method,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        err.value.close()
        assert err.value.code == 405
        assert session.count_deployments() == 0


class TestSweepTimelineEvictionMarkers:
    def test_markers_shown_for_spot_sweeps(self, tmp_path):
        from repro.api import AdvisorSession, CollectRequest
        from repro.gui.pages import render_deployment

        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(make_config(rgprefix="guispot",
                                          appinputs={"BOXFACTOR": ["16"]}))
        result = session.collect(CollectRequest(
            deployment=info.name, capacity="spot",
            recovery="checkpoint_restart",
            checkpoint_interval_s=5.0, checkpoint_overhead_s=1.0,
            eviction_rate=150.0, eviction_seed=3,
        ))
        assert result.preemptions > 0
        html = render_deployment(session, info.name)
        assert "Evictions" in html
        assert "&#9889;" in html  # the lightning marker
        assert "spot capacity" in html

    def test_no_marker_column_for_ondemand_sweeps(self, tmp_path):
        from repro.api import AdvisorSession, CollectRequest
        from repro.gui.pages import render_deployment

        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(make_config(rgprefix="guiod"))
        session.collect(CollectRequest(deployment=info.name))
        html = render_deployment(session, info.name)
        assert "Evictions" not in html
        assert "&#9889;" not in html
