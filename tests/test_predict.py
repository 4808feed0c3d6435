"""Tests for the prediction layer (repro.predict)."""

import numpy as np
import pytest

from repro.core.config import MainConfig
from repro.core.dataset import DataPoint, Dataset
from repro.core.scenarios import Scenario, generate_scenarios
from repro.errors import SamplingError
from repro.predict.features import (
    FeatureSpec,
    design_matrix,
    featurize_point,
    featurize_scenario,
)
from repro.predict.knn import KnnModel
from repro.predict.predictor import PerformancePredictor
from repro.predict.regression import RidgeModel, cross_validate, mape
from tests.conftest import PAPER_SKUS, collect_config, make_config


def scenario(sku="Standard_HB120rs_v3", nnodes=4, bf="30"):
    return Scenario(scenario_id=f"s-{sku}-{nnodes}-{bf}", sku_name=sku,
                    nnodes=nnodes, ppn=120, appname="lammps",
                    appinputs={"BOXFACTOR": bf})


@pytest.fixture(scope="module")
def training_dataset():
    """LAMMPS over 3 SKUs x 5 node counts x 2 box factors."""
    config = MainConfig.from_dict({
        "subscription": "train", "skus": PAPER_SKUS, "rgprefix": "train",
        "appsetupurl": "", "nnodes": [2, 3, 4, 8, 16], "appname": "lammps",
        "region": "southcentralus", "ppr": 100,
        "appinputs": {"BOXFACTOR": ["20", "30"]},
    })
    return collect_config(config)


class TestFeatures:
    def test_spec_with_app_model(self, training_dataset):
        spec = FeatureSpec.for_dataset(training_dataset.points())
        assert spec.appname == "lammps"
        assert "log_work" in spec.names

    def test_spec_model_free(self, training_dataset):
        spec = FeatureSpec.for_dataset(training_dataset.points(),
                                       use_app_model=False)
        assert spec.appname is None
        assert "log_input_BOXFACTOR" in spec.names

    def test_vector_dimensions_consistent(self, training_dataset):
        spec = FeatureSpec.for_dataset(training_dataset.points())
        X = design_matrix(spec, training_dataset.points())
        assert X.shape == (len(training_dataset), spec.dim)
        v = featurize_scenario(spec, scenario())
        assert v.shape == (spec.dim,)

    def test_point_and_scenario_agree(self, training_dataset):
        spec = FeatureSpec.for_dataset(training_dataset.points())
        point = training_dataset.points()[0]
        s = Scenario(scenario_id="x", sku_name=point.sku,
                     nnodes=point.nnodes, ppn=point.ppn,
                     appname=point.appname, appinputs=point.appinputs)
        assert np.allclose(featurize_point(spec, point),
                           featurize_scenario(spec, s))

    def test_features_finite(self, training_dataset):
        spec = FeatureSpec.for_dataset(training_dataset.points())
        X = design_matrix(spec, training_dataset.points())
        assert np.isfinite(X).all()


class TestRidge:
    def test_fits_synthetic_loglinear(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        times = np.exp(1.0 + X @ np.array([0.5, -1.0, 0.2]))
        model = RidgeModel(alpha=1e-6).fit(X, times)
        assert mape(times, model.predict(X)) < 0.01

    def test_rejects_bad_input(self):
        with pytest.raises(SamplingError):
            RidgeModel().fit(np.ones((3, 2)), np.array([1.0, -1.0, 2.0]))
        with pytest.raises(SamplingError):
            RidgeModel().fit(np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(SamplingError):
            RidgeModel().predict(np.ones((1, 2)))

    def test_constant_feature_tolerated(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        times = np.exp(np.arange(10.0) * 0.1 + 1)
        model = RidgeModel().fit(X, times)
        assert np.isfinite(model.predict(X)).all()

    def test_cross_validation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        times = np.exp(X @ np.array([0.3, 0.3, 0.3]) + 2)
        mean_mape, folds = cross_validate(X, times, folds=5)
        assert len(folds) == 5
        assert mean_mape < 0.05

    def test_cv_validation_errors(self):
        X = np.ones((3, 2))
        with pytest.raises(SamplingError):
            cross_validate(X, np.ones(3), folds=1)
        with pytest.raises(SamplingError):
            cross_validate(X, np.ones(3), folds=5)


class TestKnn:
    def test_exact_match_returns_training_value(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        times = np.array([10.0, 20.0, 30.0])
        model = KnnModel(k=2).fit(X, times)
        assert model.predict_one(np.array([1.0, 1.0])) == pytest.approx(20.0)

    def test_interpolates_between_neighbors(self):
        X = np.array([[0.0], [2.0]])
        times = np.array([10.0, 40.0])
        model = KnnModel(k=2).fit(X, times)
        mid = model.predict_one(np.array([1.0]))
        assert 10.0 < mid < 40.0

    def test_k_validation(self):
        with pytest.raises(SamplingError):
            KnnModel(k=0).fit(np.ones((2, 1)), np.ones(2))


class TestPerformancePredictor:
    def test_interpolation_accuracy(self, training_dataset):
        """Held-in-range predictions land within ~15% of the simulator."""
        predictor = PerformancePredictor().fit(training_dataset, cv_folds=5)
        from repro.api.registry import perf_models
        from repro.cloud.skus import get_sku

        target = scenario(nnodes=6, bf="30")  # unmeasured node count
        predicted = predictor.predict_time(target)
        actual = perf_models.create("lammps").simulate(
            get_sku(target.sku_name), 6, 120, target.appinputs
        ).exec_time_s
        assert predicted == pytest.approx(actual, rel=0.15)

    def test_cross_input_generalisation(self, training_dataset):
        """Predict an unseen BOXFACTOR: the physics features carry it."""
        predictor = PerformancePredictor().fit(training_dataset)
        from repro.api.registry import perf_models
        from repro.cloud.skus import get_sku

        target = scenario(nnodes=8, bf="25")  # input never measured
        predicted = predictor.predict_time(target)
        actual = perf_models.create("lammps").simulate(
            get_sku(target.sku_name), 8, 120, target.appinputs
        ).exec_time_s
        assert predicted == pytest.approx(actual, rel=0.25)

    def test_cv_mape_reported(self, training_dataset):
        predictor = PerformancePredictor().fit(training_dataset, cv_folds=5)
        assert predictor.cv_mape is not None
        assert predictor.cv_mape < 0.25

    def test_predicted_front_no_executions(self, training_dataset):
        """The paper's end state: a Pareto front with zero cloud runs."""
        predictor = PerformancePredictor().fit(training_dataset)
        config = make_config(
            skus=PAPER_SKUS, nnodes=[3, 4, 8, 16],
            appinputs={"BOXFACTOR": ["30"]},
        )
        rows = predictor.predicted_front(generate_scenarios(config))
        assert rows
        assert all(r.predicted for r in rows)
        # Shape of Listing 4 survives prediction: v3 dominates, time-sorted.
        assert rows[0].sku_short == "hb120rs_v3"
        times = [r.exec_time_s for r in rows]
        assert times == sorted(times)

    def test_predict_cost_uses_price_catalog(self, training_dataset):
        predictor = PerformancePredictor().fit(training_dataset)
        p = predictor.predict(scenario(nnodes=4, bf="30"))
        assert p.cost_usd == pytest.approx(
            4 * 3.60 * p.exec_time_s / 3600.0
        )
        assert p.as_datapoint().predicted

    def test_knn_backend(self, training_dataset):
        predictor = PerformancePredictor(backend="knn", k=4).fit(
            training_dataset
        )
        assert predictor.predict_time(scenario(nnodes=4, bf="30")) > 0

    def test_unknown_backend(self, training_dataset):
        with pytest.raises(SamplingError):
            PerformancePredictor(backend="forest").fit(training_dataset)

    def test_needs_enough_data(self):
        tiny = Dataset([
            DataPoint(appname="lammps", sku="Standard_HC44rs", nnodes=1,
                      ppn=44, exec_time_s=10, cost_usd=0.01,
                      appinputs={"BOXFACTOR": "4"}),
        ])
        with pytest.raises(SamplingError, match="at least 3"):
            PerformancePredictor().fit(tiny)

    def test_feature_importances(self, training_dataset):
        predictor = PerformancePredictor().fit(training_dataset)
        importances = predictor.feature_importances()
        assert set(importances) == set(
            FeatureSpec.for_dataset(training_dataset.points()).names
        )
        # Work and parallelism must matter most for a scaling sweep.
        top = sorted(importances, key=importances.get, reverse=True)[:4]
        assert any(name in top for name in
                   ("log_work", "log_ranks", "log_nodes"))

    def test_model_free_mode(self, training_dataset):
        predictor = PerformancePredictor(use_app_model=False).fit(
            training_dataset
        )
        assert predictor.predict_time(scenario(nnodes=4, bf="30")) > 0
