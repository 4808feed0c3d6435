"""Edge-case tests for paths not covered elsewhere."""

import threading
import urllib.request

import pytest

from repro.backends.common import execute_run, execute_setup, shared_dir_for
from repro.batch.task import TaskOutput
from repro.appkit.script import AppScript
from repro.cli.main import main
from repro.cloud.skus import get_sku
from repro.cluster.filesystem import SharedFilesystem
from repro.cluster.host import make_hosts
from repro.core.scenarios import Scenario
from repro.errors import QuotaExceeded
from repro.perf.model import RunShape
from repro.api.registry import perf_models


class TestRunShape:
    def test_valid(self):
        shape = RunShape(sku=get_sku("Standard_HC44rs"), nodes=4, ppn=44)
        assert shape.total_ranks == 176

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            RunShape(sku=get_sku("Standard_HC44rs"), nodes=0, ppn=1)

    def test_invalid_ppn(self):
        with pytest.raises(ValueError):
            RunShape(sku=get_sku("Standard_HC44rs"), nodes=1, ppn=45)


class TestExplicitNetwork:
    def test_slower_network_slows_multinode_runs(self):
        from repro.cluster.network import NetworkModel

        model = perf_models.create("openfoam")
        sku = get_sku("Standard_HB120rs_v3")
        fast = model.simulate(sku, 8, 120, {"mesh": "40 16 16"})
        slow_net = NetworkModel(latency_s=50e-6, bandwidth_Bps=1e9,
                                rdma=False)
        slow = model.simulate(sku, 8, 120, {"mesh": "40 16 16"},
                              network=slow_net)
        assert slow.exec_time_s > fast.exec_time_s


class TestTaskOutput:
    def test_negative_wall_time_rejected(self):
        with pytest.raises(ValueError):
            TaskOutput(exit_code=0, stdout="", wall_time_s=-1.0)

    def test_succeeded(self):
        assert TaskOutput(exit_code=0, stdout="", wall_time_s=0).succeeded
        assert not TaskOutput(exit_code=2, stdout="", wall_time_s=0).succeeded


class TestQuotaError:
    def test_message_carries_numbers(self):
        err = QuotaExceeded("standardHBrsv3Family", 4800, 4000)
        assert "4800" in str(err)
        assert "4000" in str(err)
        assert err.family == "standardHBrsv3Family"


class TestBackendCommon:
    def scenario(self):
        return Scenario(scenario_id="t", sku_name="Standard_HB120rs_v3",
                        nnodes=1, ppn=120, appname="lammps",
                        appinputs={"BOXFACTOR": "4"})

    def test_shared_dir_layout(self):
        assert shared_dir_for("lammps") == "/mnt/nfs/apps/lammps"

    def test_setup_error_becomes_exit_one(self):
        from repro.errors import AppScriptError

        def bad_setup(ctx):
            raise AppScriptError("cannot download input")

        script = AppScript(appname="lammps", setup=bad_setup,
                           run=lambda ctx: 0, setup_seconds=1.0)
        hosts = make_hosts(get_sku("Standard_HB120rs_v3"), 1)
        execution = execute_setup(script, hosts, SharedFilesystem(), "/w")
        assert execution.exit_code == 1
        assert "cannot download input" in execution.stdout

    def test_run_error_becomes_exit_one(self):
        from repro.errors import AppScriptError

        def bad_run(ctx):
            raise AppScriptError("missing env")

        script = AppScript(appname="lammps", setup=lambda ctx: 0,
                           run=bad_run)
        hosts = make_hosts(get_sku("Standard_HB120rs_v3"), 1)
        execution = execute_run(script, self.scenario(), hosts,
                                SharedFilesystem(), "/w")
        assert execution.exit_code == 1

    def test_run_writes_hostfile(self):
        def check_hostfile(ctx):
            path = ctx.getenv("HOSTFILE_PATH")
            assert "slots=120" in ctx.filesystem.read_text(path)
            return 0

        script = AppScript(appname="lammps", setup=lambda ctx: 0,
                           run=check_hostfile)
        hosts = make_hosts(get_sku("Standard_HB120rs_v3"), 1)
        execution = execute_run(script, self.scenario(), hosts,
                                SharedFilesystem(), "/w")
        assert execution.exit_code == 0


class TestCliGuiOnce:
    def test_gui_once_serves_a_request(self, tmp_path, capsys, monkeypatch):
        """`hpcadvisor-sim gui` end to end, one request then exit."""
        from repro.service import app

        captured = {}
        original = app.make_server

        def patched(root, host, port, state):
            httpd = original(root, host, 0, state=state)  # ephemeral port
            captured["port"] = httpd.server_address[1]

            def hit():
                urllib.request.urlopen(
                    f"http://127.0.0.1:{captured['port']}/", timeout=5
                ).read()

            threading.Thread(target=hit, daemon=True).start()
            return httpd

        monkeypatch.setattr(app, "make_server", patched)
        assert main(["--state-dir", str(tmp_path), "gui", "--once"]) == 0
        assert "HPCAdvisor GUI" in capsys.readouterr().out

    def test_serve_once_answers_its_request(self, tmp_path, monkeypatch):
        """A request sent after the accept is still answered before the
        server closes."""
        import http.client
        import time

        from repro.service import app

        answers = []
        original = app.make_server

        def patched(state_dir, host, port, workers):
            httpd = original(state_dir, host=host, port=0, workers=workers)

            def hit():
                conn = http.client.HTTPConnection(
                    "127.0.0.1", httpd.server_address[1], timeout=5)
                try:
                    conn.connect()
                    time.sleep(0.2)
                    conn.request("GET", "/healthz",
                                 headers={"Connection": "close"})
                    answers.append(conn.getresponse().status)
                finally:
                    conn.close()

            client = threading.Thread(target=hit, daemon=True)
            client.start()
            threads.append(client)
            return httpd

        threads = []
        monkeypatch.setattr(app, "make_server", patched)
        assert main(["--state-dir", str(tmp_path), "serve", "--once",
                     "--workers", "1"]) == 0
        threads[0].join(timeout=10)
        assert answers == [200]


class TestCliErrorPaths:
    """A ReproError from a handler ends the command with exit 2."""

    def test_collect_unknown_deployment(self, tmp_path, capsys):
        assert main(["--state-dir", str(tmp_path),
                     "collect", "-n", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_plot_before_collect(self, tmp_path, capsys):
        assert main(["--state-dir", str(tmp_path / "s"),
                     "plot", "-n", "ghost"]) == 2
        assert "run collect first" in capsys.readouterr().err
