"""The unified capability registry (repro.api.registry)."""

import pytest

from repro.api import registry as reg
from repro.api.registry import Registry
from repro.errors import (
    AppScriptError,
    BackendError,
    ConfigError,
    SamplingError,
)


class TestGenericRegistry:
    def test_register_and_create(self):
        r = Registry(kind="widget")
        r.register("a", lambda: "made-a")
        assert r.create("a") == "made-a"
        assert r.names() == ["a"]
        assert "a" in r and "A" in r

    def test_decorator_form(self):
        r = Registry(kind="widget")

        @r.register("dec")
        def make():
            return 1

        assert r.create("dec") == 1
        assert make() == 1  # decorator returns the factory unchanged

    def test_duplicate_registration_raises(self):
        r = Registry(kind="widget")
        r.register("a", lambda: 1)
        with pytest.raises(ConfigError, match="already registered"):
            r.register("A", lambda: 2)

    def test_missing_name_lists_known(self):
        r = Registry(kind="widget")
        r.register("alpha", lambda: 1)
        with pytest.raises(ConfigError, match="alpha"):
            r.get("beta")

    def test_custom_error_class(self):
        r = Registry(kind="thing", error_cls=SamplingError)
        with pytest.raises(SamplingError):
            r.get("nope")

    def test_unregister(self):
        r = Registry(kind="widget")
        r.register("a", lambda: 1)
        r.unregister("a")
        assert "a" not in r
        r.register("a", lambda: 2)  # name reusable afterwards
        assert r.create("a") == 2


class TestBuiltinRegistries:
    def test_backends(self):
        assert reg.list_backends() == ["azurebatch", "slurm"]
        with pytest.raises(BackendError, match="no execution backend"):
            reg.backends.get("kubernetes")

    def test_apps(self):
        names = reg.list_apps()
        for expected in ("lammps", "openfoam", "wrf", "gromacs", "namd",
                         "matrixmult"):
            assert expected in names
        with pytest.raises(AppScriptError, match="no built-in plugin"):
            reg.apps.get("fortranzilla")

    def test_perf_models(self):
        assert "lammps" in reg.list_perf_models()
        with pytest.raises(ConfigError, match="no performance model"):
            reg.perf_models.get("fortranzilla")

    def test_sampling_policies(self):
        names = reg.list_sampling_policies()
        for expected in ("default", "aggressive", "conservative",
                         "measure-all"):
            assert expected in names
        policy = reg.sampling_policies.create("aggressive")
        assert policy.min_r_squared == 0.95
        with pytest.raises(SamplingError, match="no sampling policy"):
            reg.sampling_policies.get("yolo")

    def test_measure_all_policy_disables_everything(self):
        policy = reg.sampling_policies.create("measure-all")
        assert not policy.enable_discard
        assert not policy.enable_predict
        assert not policy.enable_bottleneck
        assert not policy.enable_transfer


class TestLegacyShims:
    """The pre-registry top-level names (``repro.get_model``,
    ``repro.list_models``, ``repro.get_plugin``, ``repro.list_plugins``)
    are the registry's ``create`` and ``names``."""

    def test_perf_registry_shim(self):
        import repro
        from repro.perf.apps.lammps import LammpsModel
        from repro.perf.noise import NoiseModel

        assert repro.list_models() == reg.perf_models.names()
        assert "openfoam" in repro.list_models()
        assert isinstance(repro.get_model("lammps"), LammpsModel)
        noise = NoiseModel(sigma=0.1, seed=3)
        assert repro.get_model("LAMMPS", noise).noise is noise

    def test_appkit_shim(self):
        import repro

        assert repro.list_plugins() == reg.apps.names()
        assert "lammps" in repro.list_plugins()
        assert repro.get_plugin("lammps").appname == "lammps"

    def test_custom_registration_visible_through_shim(self):
        """A model registered with the documented ``(noise)`` factory
        signature gets the no-noise default from ``repro.get_model``."""
        import repro
        from repro.perf.noise import NO_NOISE

        class FakeModel:
            def __init__(self, noise):
                self.noise = noise

        reg.register_perf_model("testonly-fake")(
            lambda noise: FakeModel(noise))
        try:
            assert "testonly-fake" in repro.list_models()
            model = repro.get_model("testonly-fake")
            assert isinstance(model, FakeModel)
            assert model.noise is NO_NOISE
        finally:
            reg.perf_models.unregister("testonly-fake")

    def test_session_uses_registered_backend(self):
        """A backend registered at runtime is reachable from collect()."""
        from repro.api import AdvisorSession
        from repro.backends.azurebatch import AzureBatchBackend
        from tests.conftest import make_config

        created = []

        def make_tracked(deployment, config, noise):
            backend = AzureBatchBackend(service=deployment.batch,
                                        noise=noise)
            created.append(backend)
            return backend

        reg.register_backend("testonly-tracked")(make_tracked)
        try:
            session = AdvisorSession()
            info = session.deploy(make_config())
            result = session.collect(deployment=info.name,
                                     backend="testonly-tracked")
            assert result.completed == 2
            assert len(created) == 1
        finally:
            reg.backends.unregister("testonly-tracked")
