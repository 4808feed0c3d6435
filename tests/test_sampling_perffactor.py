"""Scaling-law regression tests."""

import pytest

from repro.cloud.skus import get_sku
from repro.api.registry import perf_models
from repro.sampling.perffactor import ScalingLaw, fit_per_group, fit_scaling_law
from repro.errors import SamplingError


class TestFit:
    def test_recovers_known_coefficients(self):
        # T(n) = 1000/n + 10 + 2n, sampled exactly.
        points = [(n, 1000 / n + 10 + 2 * n) for n in (1, 2, 4, 8, 16)]
        law = fit_scaling_law(points)
        assert law.a == pytest.approx(1000, rel=1e-6)
        assert law.b == pytest.approx(10, rel=1e-4)
        assert law.c == pytest.approx(2, rel=1e-4)
        assert law.r_squared == pytest.approx(1.0)

    def test_interpolation_accurate(self):
        points = [(n, 500 / n + 5) for n in (1, 2, 8, 16)]
        law = fit_scaling_law(points)
        assert law.predict(4) == pytest.approx(130, rel=0.01)

    def test_coefficients_nonnegative(self):
        # Decreasing superlinearly: nnls must not go negative.
        points = [(1, 100), (2, 40), (4, 18), (8, 9)]
        law = fit_scaling_law(points)
        assert law.a >= 0 and law.b >= 0 and law.c >= 0

    def test_needs_three_distinct_node_counts(self):
        with pytest.raises(SamplingError, match="3 distinct"):
            fit_scaling_law([(1, 10), (1, 11), (2, 6)])

    def test_invalid_values(self):
        with pytest.raises(SamplingError):
            fit_scaling_law([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(SamplingError):
            fit_scaling_law([(1, -1), (2, 2), (4, 3)])

    def test_predict_validation(self):
        law = fit_scaling_law([(1, 10), (2, 6), (4, 4)])
        with pytest.raises(SamplingError):
            law.predict(0)

    def test_fits_simulated_lammps_well(self):
        """The paper's own workload should regress nearly perfectly."""
        sku = get_sku("Standard_HB120rs_v3")
        model = perf_models.create("lammps")
        points = [
            (n, model.simulate(sku, n, 120, {"BOXFACTOR": "30"}).exec_time_s)
            for n in (2, 3, 4, 8, 16)
        ]
        law = fit_scaling_law(points)
        assert law.r_squared > 0.998
        predicted = law.predict(6)
        actual = model.simulate(sku, 6, 120, {"BOXFACTOR": "30"}).exec_time_s
        assert predicted == pytest.approx(actual, rel=0.08)


class TestLawBehaviour:
    def test_optimistic_below_predict(self):
        law = ScalingLaw(a=100, b=5, c=1, r_squared=1, n_points=4,
                         n_min=1, n_max=8)
        assert law.optimistic(4) < law.predict(4)

    def test_within_range(self):
        law = ScalingLaw(a=1, b=1, c=0, r_squared=1, n_points=3,
                         n_min=2, n_max=8)
        assert law.within_range(4)
        assert law.within_range(16, extrapolation=2.0)
        assert not law.within_range(17, extrapolation=2.0)
        assert not law.within_range(0.5, extrapolation=1.0)

    def test_scaled_by_work(self):
        """Cross-input transfer: compute terms scale linearly with work."""
        law = ScalingLaw(a=100, b=10, c=3, r_squared=1, n_points=4,
                         n_min=1, n_max=16)
        double = law.scaled_by_work(2.0)
        assert double.a == 200
        assert double.b == 20
        assert double.c == pytest.approx(3 * 2 ** (2 / 3))
        with pytest.raises(SamplingError):
            law.scaled_by_work(0)


class TestFitPerGroup:
    def test_groups_fitted_independently(self):
        observations = (
            [("v3", n, 100 / n) for n in (1, 2, 4, 8)]
            + [("hc", n, 400 / n) for n in (1, 2, 4)]
            + [("sparse", 1, 10.0)]  # too few points -> omitted
        )
        laws = fit_per_group(observations)
        assert set(laws) == {"v3", "hc"}
        assert laws["hc"].a == pytest.approx(400, rel=1e-6)
