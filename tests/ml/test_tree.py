"""Unit and property tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, 2))
    y = np.where(X[:, 0] > 5.0, 10.0, -10.0)
    return X, y


class TestFitValidation:
    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.arange(5.0), np.arange(5.0))

    def test_rejects_mismatched_y(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_nonfinite_targets(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="non-finite"):
            DecisionTreeRegressor().fit(X, np.array([1.0, np.inf, 2.0]))

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_predict_wrong_width(self):
        t = DecisionTreeRegressor().fit(*step_data())
        with pytest.raises(ValueError):
            t.predict(np.ones((2, 3)))


class TestLearning:
    def test_recovers_step_function(self):
        X, y = step_data()
        t = DecisionTreeRegressor().fit(X, y)
        Xt = np.array([[2.0, 5.0], [8.0, 5.0]])
        np.testing.assert_allclose(t.predict(Xt), [-10.0, 10.0])

    def test_split_at_true_boundary(self):
        X, y = step_data()
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        nodes = t._nodes
        assert nodes.feature[0] == 0
        assert 4.0 < nodes.threshold[0] < 6.0

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).uniform(0, 1, (50, 3))
        t = DecisionTreeRegressor().fit(X, np.full(50, 7.0))
        assert t.node_count == 1
        np.testing.assert_allclose(t.predict(X[:5]), 7.0)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (300, 4))
        y = rng.standard_normal(300)
        t = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert t.depth <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (300, 4))
        y = rng.standard_normal(300)
        t = DecisionTreeRegressor(min_samples_leaf=25).fit(X, y)
        leaf_sizes = t._nodes.n_samples[t._nodes.feature == -1]
        assert leaf_sizes.min() >= 25

    def test_unbounded_tree_interpolates_unique_points(self):
        rng = np.random.default_rng(1)
        X = rng.permutation(100).reshape(-1, 1).astype(float)
        y = rng.standard_normal(100)
        t = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_integer_features_exact_thresholds(self):
        """Thresholds fall between consecutive integers."""
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert t._nodes.threshold[0] == pytest.approx(2.5)

    def test_duplicate_feature_values_handled(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([1.0, 3.0, 10.0, 12.0])
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        np.testing.assert_allclose(
            t.predict(np.array([[1.0], [2.0]])), [2.0, 11.0]
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (60, 3))
        y = rng.uniform(-5, 5, 60)
        t = DecisionTreeRegressor(max_depth=4).fit(X, y)
        preds = t.predict(rng.uniform(-1, 1, (40, 3)))
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    def test_feature_subsetting_reproducible(self):
        X, y = step_data(100)
        t1 = DecisionTreeRegressor(
            max_features=1, rng=np.random.default_rng(3)
        ).fit(X, y)
        t2 = DecisionTreeRegressor(
            max_features=1, rng=np.random.default_rng(3)
        ).fit(X, y)
        np.testing.assert_array_equal(t1.predict(X), t2.predict(X))
