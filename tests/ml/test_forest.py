"""Unit tests for the random forest regressor."""

import numpy as np
import pytest

from repro.ml import RandomForestRegressor


def smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 3))
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] ** 2
    return X, y + 0.05 * rng.standard_normal(n)


class TestValidation:
    def test_rejects_zero_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((2, 2)))

    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("y, kwargs", [
        (np.array([1.0, np.nan, 2.0, 3.0]), {}),
        (np.array([1.0, 2.0, np.inf, 3.0]), {}),
        (np.ones(3), {}),
        (np.ones(4), {"max_features": 5}),
        (np.ones(4), {"min_samples_leaf": 0}),
    ])
    def test_rejected_fit_leaves_generator_untouched(self, y, kwargs):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        forest = RandomForestRegressor(n_estimators=3, rng=rng, **kwargs)
        with pytest.raises(ValueError):
            forest.fit(np.arange(8.0).reshape(4, 2), y)
        assert rng.bit_generator.state == before
        assert not forest.is_fitted

    def test_oob_indices_are_the_rows_each_bootstrap_missed(self):
        X, y = smooth_data(60)
        f = RandomForestRegressor(
            n_estimators=4, rng=np.random.default_rng(2)
        ).fit(X, y)
        draws = np.random.default_rng(2)
        sums, counts = np.zeros(60), np.zeros(60)
        for tree in f.trees:
            oob = np.setdiff1d(np.arange(60), draws.integers(0, 60, 60))
            sums[oob] += tree.predict(X[oob])
            counts[oob] += 1
        seen = counts > 0
        pred = sums[seen] / counts[seen]
        r2 = 1 - ((y[seen] - pred) ** 2).sum() / (
            (y[seen] - y[seen].mean()) ** 2).sum()
        assert f.oob_score() == r2

    def test_oob_requires_bootstrap(self):
        X, y = smooth_data(50)
        f = RandomForestRegressor(
            n_estimators=3, bootstrap=False, rng=np.random.default_rng(0)
        ).fit(X, y)
        with pytest.raises(ValueError):
            f.oob_score()


class TestLearning:
    def test_generalizes_smooth_function(self):
        X, y = smooth_data()
        f = RandomForestRegressor(
            n_estimators=40, rng=np.random.default_rng(0)
        ).fit(X, y)
        rng = np.random.default_rng(9)
        Xt = rng.uniform(-2, 2, (400, 3))
        yt = np.sin(2 * Xt[:, 0]) + 0.5 * Xt[:, 1] ** 2
        r2 = 1 - ((f.predict(Xt) - yt) ** 2).mean() / yt.var()
        assert r2 > 0.8

    def test_prediction_is_tree_average(self):
        X, y = smooth_data(100)
        f = RandomForestRegressor(
            n_estimators=7, rng=np.random.default_rng(0)
        ).fit(X, y)
        manual = np.mean([t.predict(X[:10]) for t in f.trees], axis=0)
        np.testing.assert_allclose(f.predict(X[:10]), manual)

    def test_reproducible_with_seed(self):
        X, y = smooth_data(100)
        a = RandomForestRegressor(
            n_estimators=5, rng=np.random.default_rng(1)
        ).fit(X, y).predict(X[:20])
        b = RandomForestRegressor(
            n_estimators=5, rng=np.random.default_rng(1)
        ).fit(X, y).predict(X[:20])
        np.testing.assert_array_equal(a, b)

    def test_predict_std_positive_on_noisy_data(self):
        X, y = smooth_data(150)
        f = RandomForestRegressor(
            n_estimators=10, rng=np.random.default_rng(0)
        ).fit(X, y)
        stds = f.predict_std(X[:30])
        assert stds.shape == (30,)
        assert stds.mean() > 0

    def test_oob_score_reasonable(self):
        X, y = smooth_data(400)
        f = RandomForestRegressor(
            n_estimators=30, rng=np.random.default_rng(0)
        ).fit(X, y)
        assert 0.5 < f.oob_score() <= 1.0

    def test_bagging_differs_across_trees(self):
        X, y = smooth_data(150)
        f = RandomForestRegressor(
            n_estimators=5, rng=np.random.default_rng(0)
        ).fit(X, y)
        preds = np.stack([t.predict(X[:50]) for t in f.trees])
        assert preds.std(axis=0).max() > 0
