"""Built-in plugin tests: faithful Listing-2-style behaviour."""

import pytest

from repro.appkit.context import AppRunContext
from repro.appkit.envvars import build_task_env
from repro.appkit.metricvars import extract_vars
from repro.api.registry import apps
from repro.appkit.plugins.lammps import IN_LJ_TEMPLATE, _sed_boxfactor
from repro.cloud.skus import get_sku
from repro.cluster.filesystem import SharedFilesystem
from repro.errors import AppScriptError

ALL_PLUGINS = {
    "lammps": {"BOXFACTOR": "10"},
    "openfoam": {"mesh": "40 16 16"},
    "wrf": {"resolution": "12"},
    "gromacs": {"atoms": "3000000"},
    "namd": {"atoms": "1060000"},
    "matrixmult": {"msize": "50000"},
}


def run_plugin(appname, appinputs, nodes=2, run_setup=True):
    plugin = apps.create(appname)
    sku = get_sku("Standard_HB120rs_v3")
    fs = SharedFilesystem()
    from repro.cluster.host import make_hosts

    hosts = make_hosts(sku, nodes, "p")
    shared = f"/mnt/nfs/apps/{appname}"
    if run_setup:
        setup_ctx = AppRunContext.from_task_context_like(
            hosts=hosts[:1], filesystem=fs,
            env=build_task_env(hosts[:1], 1, "/mnt/nfs/setup"),
            workdir="/mnt/nfs/setup", shared_dir=shared,
        )
        assert plugin.setup(setup_ctx) == 0
    ctx = AppRunContext.from_task_context_like(
        hosts=hosts, filesystem=fs,
        env=build_task_env(hosts, sku.cores, "/mnt/nfs/jobs/t1",
                           appinputs=appinputs),
        workdir="/mnt/nfs/jobs/t1", shared_dir=shared,
    )
    code = plugin.run(ctx)
    return code, ctx


class TestRegistry:
    def test_paper_apps_all_have_plugins(self):
        for name in ("wrf", "openfoam", "gromacs", "lammps", "namd"):
            assert name in apps.names()

    def test_unknown_plugin(self):
        with pytest.raises(AppScriptError):
            apps.create("crysis")


@pytest.mark.parametrize("appname", sorted(ALL_PLUGINS))
class TestAllPlugins:
    def test_setup_then_run_succeeds(self, appname):
        code, ctx = run_plugin(appname, ALL_PLUGINS[appname])
        assert code == 0

    def test_appexectime_emitted(self, appname):
        _, ctx = run_plugin(appname, ALL_PLUGINS[appname])
        metrics = extract_vars(ctx.stdout)
        assert "APPEXECTIME" in metrics
        assert float(metrics["APPEXECTIME"]) > 0

    def test_setup_idempotent(self, appname):
        """Paper: 'a simple test can be done to avoid repeating such setup'."""
        plugin = apps.create(appname)
        sku = get_sku("Standard_HB120rs_v3")
        from repro.cluster.host import make_hosts

        fs = SharedFilesystem()
        hosts = make_hosts(sku, 1)
        shared = f"/mnt/nfs/apps/{appname}"

        def do_setup():
            ctx = AppRunContext.from_task_context_like(
                hosts=hosts, filesystem=fs,
                env=build_task_env(hosts, 1, "/setup"),
                workdir="/setup", shared_dir=shared,
            )
            return plugin.setup(ctx), ctx

        code1, _ = do_setup()
        code2, ctx2 = do_setup()
        assert code1 == 0 and code2 == 0
        assert "already" in ctx2.stdout.lower() or appname == "matrixmult"


class TestLammpsPluginFidelity:
    def test_sed_substitution(self):
        """The three sed lines of Listing 2, ported exactly."""
        result = _sed_boxfactor(IN_LJ_TEMPLATE, "30")
        assert "variable        x index 30" in result
        assert "variable        y index 30" in result
        assert "variable        z index 30" in result
        assert "index 1" not in result

    def test_log_lammps_written_in_real_format(self):
        _, ctx = run_plugin("lammps", {"BOXFACTOR": "10"})
        log = ctx.read_file("log.lammps")
        assert "Loop time of" in log
        assert "Total wall time:" in log
        # awk-field positions used by Listing 2: $4 time, $9 steps, $12 atoms
        loop = next(ln for ln in log.splitlines() if ln.startswith("Loop"))
        fields = loop.split()
        assert float(fields[3]) > 0
        assert fields[8] == "100"
        assert fields[11] == str(32000 * 1000)

    def test_metrics_match_log(self):
        _, ctx = run_plugin("lammps", {"BOXFACTOR": "10"})
        metrics = extract_vars(ctx.stdout)
        assert metrics["LAMMPSATOMS"] == str(32000 * 1000)
        assert metrics["LAMMPSSTEPS"] == "100"

    def test_missing_boxfactor_fails(self):
        with pytest.raises(AppScriptError):
            run_plugin("lammps", {})

    def test_oom_returns_one_with_message(self):
        code, ctx = run_plugin("lammps", {"BOXFACTOR": "60"}, nodes=1)
        assert code == 1
        assert "did not complete successfully" in ctx.stdout
        assert "out of memory" in ctx.stdout

    def test_input_file_copied_from_shared(self):
        _, ctx = run_plugin("lammps", {"BOXFACTOR": "10"})
        assert ctx.file_exists("in.lj.txt")
        assert "variable        x index 10" in ctx.read_file("in.lj.txt")


class TestOpenFoamPluginFidelity:
    def test_blockmesh_dict_written(self):
        _, ctx = run_plugin("openfoam", {"mesh": "40 16 16"})
        dict_text = ctx.read_file("system/blockMeshDict")
        assert "(40 16 16)" in dict_text

    def test_log_simplefoam_format(self):
        _, ctx = run_plugin("openfoam", {"mesh": "40 16 16"})
        log = ctx.read_file("log.simpleFoam")
        assert "ExecutionTime" in log
        assert "End" in log

    def test_invalid_mesh_fails_cleanly(self):
        code, ctx = run_plugin("openfoam", {"mesh": "40 16"})
        assert code == 1
        assert "invalid MESH" in ctx.stdout

    def test_cells_metric(self):
        _, ctx = run_plugin("openfoam", {"mesh": "40 16 16"})
        metrics = extract_vars(ctx.stdout)
        assert int(metrics["OFCELLS"]) == pytest.approx(8e6, rel=0.05)
