"""Property-based tests over the performance models and samplers."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cloud.skus import get_sku
from repro.cluster.network import NetworkModel
from repro.perf.cache import ARCH_CACHE_PROFILES
from repro.perf.comm import imbalance_factor
from repro.api.registry import perf_models
from repro.sampling.perffactor import fit_scaling_law

V3 = get_sku("Standard_HB120rs_v3")


@given(
    nodes=st.integers(min_value=1, max_value=64),
    bf=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_lammps_time_positive_and_finite(nodes, bf):
    result = perf_models.create("lammps").simulate(V3, nodes, 120,
                                          {"BOXFACTOR": str(bf)})
    if result.succeeded:
        assert result.exec_time_s > 0
        assert result.exec_time_s < 1e9


@given(
    bf=st.integers(min_value=5, max_value=30),
    n1=st.integers(min_value=1, max_value=32),
    n2=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=60, deadline=None)
def test_lammps_work_conservation(bf, n1, n2):
    """Node-seconds never improve by more than the cache bound allows."""
    assume(n1 < n2)
    model = perf_models.create("lammps")
    r1 = model.simulate(V3, n1, 120, {"BOXFACTOR": str(bf)})
    r2 = model.simulate(V3, n2, 120, {"BOXFACTOR": str(bf)})
    assume(r1.succeeded and r2.succeeded)
    ns1 = n1 * r1.exec_time_s
    ns2 = n2 * r2.exec_time_s
    # Milan's saturating cache profile bounds superlinearity at amp=0.05.
    assert ns2 > ns1 / 1.06


@given(
    message=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    ranks=st.integers(min_value=1, max_value=4096),
)
def test_allreduce_nonnegative_and_monotone_in_size(message, ranks):
    net = NetworkModel(latency_s=2e-6, bandwidth_Bps=25e9)
    t = net.allreduce_time(message, ranks)
    assert t >= 0
    assert net.allreduce_time(message * 2 + 1, ranks) >= t


@given(
    ws=st.floats(min_value=0, max_value=1e13, allow_nan=False),
    l3=st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)
def test_cache_profiles_bounded_below_by_one(ws, l3):
    for profile in ARCH_CACHE_PROFILES.values():
        assert profile.slowdown(ws, l3) >= 1.0


@given(
    ranks=st.integers(min_value=1, max_value=100_000),
    coeff=st.floats(min_value=0, max_value=0.2, allow_nan=False),
)
def test_imbalance_factor_at_least_one(ranks, coeff):
    assert imbalance_factor(ranks, coeff) >= 1.0


@given(
    a=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    b=st.floats(min_value=0, max_value=1e3, allow_nan=False),
    c=st.floats(min_value=0, max_value=10, allow_nan=False),
)
@settings(max_examples=60)
def test_scaling_law_fit_recovers_exact_data(a, b, c):
    """Noise-free samples from the model family fit with R^2 ~ 1."""
    assume(a + b + c > 0.01)
    points = [(float(n), a / n + b + c * n) for n in (1, 2, 4, 8, 16)]
    law = fit_scaling_law(points)
    for n, t in points:
        assert abs(law.predict(n) - t) <= max(0.02 * t, 1e-6)


@given(st.integers(min_value=1, max_value=120))
def test_compute_scale_bounded(ppn):
    from repro.perf.machine import MachineModel

    machine = MachineModel(V3)
    for fraction in (0.0, 0.3, 1.0):
        scale = machine.compute_scale(ppn, fraction)
        assert 0 < scale <= 1.0


@given(
    sigma=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_noise_deterministic_and_positive(sigma, seed):
    from repro.perf.noise import NoiseModel

    noise = NoiseModel(sigma=sigma, seed=seed)
    value = noise.factor("scenario", 4)
    assert value > 0
    assert noise.factor("scenario", 4) == value
