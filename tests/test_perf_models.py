"""Application-model behaviour tests (all six apps)."""

import pytest

from repro.cloud.skus import get_sku
from repro.errors import ConfigError
from repro.api.registry import perf_models

V3 = get_sku("Standard_HB120rs_v3")

#: Valid inputs per app for generic behaviour tests.
APP_INPUTS = {
    "lammps": {"BOXFACTOR": "10"},
    "openfoam": {"mesh": "40 16 16"},
    "wrf": {"resolution": "12"},
    "gromacs": {"atoms": "3000000"},
    "namd": {"atoms": "1060000"},
    "matrixmult": {"msize": "60000"},
}


class TestRegistry:
    def test_all_paper_apps_registered(self):
        """Paper Sec. V: WRF, OpenFOAM, GROMACS, LAMMPS, NAMD."""
        for name in ("wrf", "openfoam", "gromacs", "lammps", "namd"):
            assert name in perf_models.names()

    def test_lookup_case_insensitive(self):
        assert perf_models.create("LAMMPS").name == "lammps"

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="no performance model"):
            perf_models.create("fortnite")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            perf_models.register("lammps", lambda noise: None)


@pytest.mark.parametrize("appname", sorted(APP_INPUTS))
class TestGenericModelProperties:
    """Invariants every application model must satisfy."""

    def test_simulation_succeeds(self, appname):
        result = perf_models.create(appname).simulate(V3, 2, 120, APP_INPUTS[appname])
        assert result.succeeded
        assert result.exec_time_s > 0

    def test_more_nodes_not_slower_at_small_scale(self, appname):
        """From 1 to 2 nodes every modelled app must gain."""
        model = perf_models.create(appname)
        t1 = model.simulate(V3, 1, 120, APP_INPUTS[appname]).exec_time_s
        t2 = model.simulate(V3, 2, 120, APP_INPUTS[appname]).exec_time_s
        assert t2 < t1

    def test_breakdown_sums_to_total(self, appname):
        result = perf_models.create(appname).simulate(V3, 4, 120, APP_INPUTS[appname])
        b = result.breakdown
        reconstructed = (b["compute_s"] + b["comm_s"] + b["serial_s"]) \
            * b["noise_factor"]
        assert reconstructed == pytest.approx(result.exec_time_s, rel=1e-9)

    def test_metrics_in_bounds(self, appname):
        result = perf_models.create(appname).simulate(V3, 4, 120, APP_INPUTS[appname])
        metrics = result.metrics.to_dict()
        assert all(0.0 <= v <= 1.0 for v in metrics.values())

    def test_app_vars_are_strings(self, appname):
        result = perf_models.create(appname).simulate(V3, 2, 120, APP_INPUTS[appname])
        assert all(isinstance(v, str) for v in result.app_vars.values())

    def test_missing_inputs_raise_config_error(self, appname):
        with pytest.raises(ConfigError):
            perf_models.create(appname).validate_inputs({})

    def test_fewer_ranks_per_node_not_faster(self, appname):
        model = perf_models.create(appname)
        full = model.simulate(V3, 2, 120, APP_INPUTS[appname]).exec_time_s
        quarter = model.simulate(V3, 2, 30, APP_INPUTS[appname]).exec_time_s
        assert quarter >= full * 0.999


class TestInputValidation:
    def test_lammps_bad_boxfactor(self):
        with pytest.raises(ConfigError, match="invalid BOXFACTOR"):
            perf_models.create("lammps").validate_inputs({"BOXFACTOR": "abc"})

    def test_lammps_negative_boxfactor(self):
        with pytest.raises(ConfigError, match="positive"):
            perf_models.create("lammps").validate_inputs({"BOXFACTOR": "-3"})

    def test_openfoam_mesh_shape(self):
        with pytest.raises(ConfigError, match="three integers"):
            perf_models.create("openfoam").validate_inputs({"mesh": "40 16"})

    def test_openfoam_mesh_nonint(self):
        with pytest.raises(ConfigError, match="non-integer"):
            perf_models.create("openfoam").validate_inputs({"mesh": "a b c"})

    def test_wrf_resolution(self):
        params = perf_models.create("wrf").validate_inputs({"resolution": "12"})
        assert params["points"] > 0
        assert params["steps"] > 0

    def test_wrf_finer_resolution_more_work(self):
        model = perf_models.create("wrf")
        coarse = model.validate_inputs({"resolution": "12"})
        fine = model.validate_inputs({"resolution": "3"})
        # 4x finer: 16x the points and 4x the steps.
        assert fine["points"] == pytest.approx(16 * coarse["points"])
        assert fine["steps"] == pytest.approx(4 * coarse["steps"])

    def test_gromacs_atoms(self):
        with pytest.raises(ConfigError):
            perf_models.create("gromacs").validate_inputs({"atoms": "zero"})

    def test_matrixmult_size(self):
        with pytest.raises(ConfigError):
            perf_models.create("matrixmult").validate_inputs({"msize": "0.5"})


class TestOutOfMemory:
    def test_oom_reported_not_raised(self):
        result = perf_models.create("lammps").simulate(V3, 1, 120, {"BOXFACTOR": "60"})
        assert not result.succeeded
        assert "out of memory" in result.failure_reason
        assert result.metrics.mem_used_fraction == 1.0

    def test_same_problem_fits_on_more_nodes(self):
        result = perf_models.create("lammps").simulate(V3, 16, 120, {"BOXFACTOR": "60"})
        assert result.succeeded


class TestAppSpecificMetrics:
    def test_lammps_emits_listing2_vars(self):
        result = perf_models.create("lammps").simulate(V3, 2, 120, {"BOXFACTOR": "10"})
        assert result.app_vars["LAMMPSATOMS"] == str(32000 * 1000)
        assert result.app_vars["LAMMPSSTEPS"] == "100"

    def test_gromacs_ns_per_day(self):
        result = perf_models.create("gromacs").simulate(V3, 2, 120,
                                               {"atoms": "3000000"})
        assert float(result.app_vars["GMXNSPERDAY"]) > 0

    def test_matrixmult_gflops(self):
        result = perf_models.create("matrixmult").simulate(V3, 2, 120,
                                                  {"msize": "40000"})
        assert float(result.app_vars["MMGFLOPS"]) > 0

    def test_namd_days_per_ns(self):
        result = perf_models.create("namd").simulate(V3, 2, 120, {"atoms": "1060000"})
        assert float(result.app_vars["NAMDDAYSPERNS"]) > 0

    def test_gromacs_pme_limits_scaling_vs_lammps(self):
        """PME all-to-all should flatten GROMACS scaling earlier."""
        gmx = perf_models.create("gromacs")
        lj = perf_models.create("lammps")
        gmx_speedup = (
            gmx.simulate(V3, 1, 120, {"atoms": "3000000"}).exec_time_s
            / gmx.simulate(V3, 16, 120, {"atoms": "3000000"}).exec_time_s
        )
        lj_speedup = (
            lj.simulate(V3, 1, 120, {"BOXFACTOR": "30"}).exec_time_s
            / lj.simulate(V3, 16, 120, {"BOXFACTOR": "30"}).exec_time_s
        )
        assert gmx_speedup < lj_speedup
