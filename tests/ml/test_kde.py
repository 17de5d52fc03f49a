"""Unit tests for the adaptive Parzen estimator (TPE substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import AdaptiveParzenEstimator1D


class TestValidation:
    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D(5, 4)

    def test_invalid_prior_weight(self):
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D(0, 4, prior_weight=0.0)

    def test_observations_outside_range(self):
        est = AdaptiveParzenEstimator1D(1, 8)
        with pytest.raises(ValueError):
            est.fit(np.array([0]))

    def test_non_finite_observations_rejected(self):
        """A NaN observation used to be accepted and made every
        probability NaN, so TPE's argmax silently picked candidate 0."""
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                AdaptiveParzenEstimator1D(1, 8).fit(np.array([3.0, bad, 7.0]))
        with pytest.raises(ValueError, match="finite"):
            AdaptiveParzenEstimator1D([0, 0], [7, 7]).fit(
                np.array([[1.0, 2.0], [3.0, np.nan]])
            )

    @pytest.mark.parametrize("method", ["prob", "log_prob"])
    def test_non_integer_candidates_rejected(self, method):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([4]))
        for bad in ([2.5], [np.nan], [np.inf], [3.0, 4.000001]):
            with pytest.raises(ValueError, match="integers"):
                getattr(est, method)(np.array(bad))

    def test_integer_valued_float_candidates_accepted(self):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([4]))
        np.testing.assert_array_equal(
            est.prob(np.array([2.0, 5.0])), est.prob(np.array([2, 5]))
        )

    def test_column_shapes_validated(self):
        est = AdaptiveParzenEstimator1D([0, 0, 0], [7, 7, 3])
        with pytest.raises(ValueError):
            est.fit(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D([0, 0], [7, 7, 3])
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D([0, 5], [7, 4])
        est.fit(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            est.prob(np.zeros(3))

    def test_unfitted_raises(self):
        est = AdaptiveParzenEstimator1D(1, 8)
        with pytest.raises(RuntimeError):
            est.prob(np.array([1]))
        with pytest.raises(RuntimeError):
            est.sample(np.random.default_rng(0), 1)


class TestDensity:
    def test_probabilities_sum_to_one(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([3, 3, 4, 12]))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_fit_is_prior_only(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([]))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # Wide prior: roughly flat, peaked mildly at the center.
        assert p.max() / p.min() < 4.0

    def test_mass_concentrates_on_observations(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(
            np.array([4, 4, 4, 4, 5, 4])
        )
        p = est.prob(np.arange(1, 17))
        assert np.argmax(p) + 1 in (4, 5)
        assert p[3] > 5 * p[12]

    def test_outside_range_zero(self):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([4]))
        p = est.prob(np.array([0, 9, 100]))
        np.testing.assert_array_equal(p, 0.0)

    def test_outside_range_zero_per_column(self):
        est = AdaptiveParzenEstimator1D([1, -3], [8, 2]).fit(
            np.array([[4, 0], [5, -1]])
        )
        p = est.prob(np.array([[0, 3], [9, -4], [4, 0]]))
        np.testing.assert_array_equal(p[:2], 0.0)
        assert (p[2] > 0).all()
        with np.errstate(divide="ignore"):
            assert est.log_prob(np.array([[0, 3]])).tolist() == [
                [-np.inf, -np.inf]
            ]

    def test_log_prob_matches_prob(self):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([2, 6]))
        v = np.arange(1, 9)
        np.testing.assert_allclose(est.log_prob(v), np.log(est.prob(v)))

    def test_adaptive_bandwidth_wider_when_isolated(self):
        """A lone observation far from others gets a wider bandwidth than
        clustered observations (Bergstra's adaptive rule)."""
        est = AdaptiveParzenEstimator1D(1, 100).fit(
            np.array([10, 11, 12, 90])
        )
        # Column 0 of the (components, columns) tables; row 0 is the prior.
        by_mu = dict(zip(est._mus[1:, 0], est._sigmas[1:, 0]))
        assert by_mu[90.0] > by_mu[11.0]

    def test_min_bandwidth_shrinks_with_more_observations(self):
        """HyperOpt clips bandwidths to prior/(1+n): more data allows
        sharper densities."""
        few = AdaptiveParzenEstimator1D(1, 100).fit(np.full(3, 50))
        many = AdaptiveParzenEstimator1D(1, 100).fit(np.full(60, 50))
        p_few = few.prob(np.array([50]))[0]
        p_many = many.prob(np.array([50]))[0]
        assert p_many > 2 * p_few

    @given(
        st.lists(st.integers(1, 16), min_size=0, max_size=30),
    )
    @settings(max_examples=40)
    def test_normalization_property(self, obs):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array(obs))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(p >= 0)


class TestColumns:
    """Each column of a multi-column estimator is an independent 1-D
    estimator over its own range."""

    def test_each_column_normalized(self):
        est = AdaptiveParzenEstimator1D([1, 1], [16, 4]).fit(
            np.array([[3, 2], [3, 4], [9, 1]])
        )
        grid = np.stack([np.arange(1, 17), np.minimum(np.arange(1, 17), 4)],
                        axis=1)
        p = est.prob(grid)
        assert p[:, 0].sum() == pytest.approx(1.0, abs=1e-9)
        assert p[:4, 1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_sample_shape_and_ranges(self):
        est = AdaptiveParzenEstimator1D([1, 0], [16, 3]).fit(
            np.array([[4, 1], [8, 3]])
        )
        s = est.sample(np.random.default_rng(0), 300)
        assert s.shape == (300, 2)
        assert s[:, 0].min() >= 1 and s[:, 0].max() <= 16
        assert s[:, 1].min() >= 0 and s[:, 1].max() <= 3

    def test_vector_is_the_one_column_case(self):
        est = AdaptiveParzenEstimator1D([1], [8]).fit(np.array([2, 6]))
        assert est.prob(np.arange(1, 9)).shape == (8, 1)
        assert est.sample(np.random.default_rng(0), 5).shape == (5, 1)


class TestSampling:
    def test_samples_within_range(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4, 8]))
        s = est.sample(np.random.default_rng(0), 500)
        assert s.min() >= 1 and s.max() <= 16

    def test_samples_follow_density(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4] * 20))
        s = est.sample(np.random.default_rng(0), 2000)
        # Most mass near 4.
        assert np.median(s) in (3, 4, 5)

    def test_sample_count_validation(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4]))
        with pytest.raises(ValueError):
            est.sample(np.random.default_rng(0), 0)

    def test_reproducible(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4, 9]))
        a = est.sample(np.random.default_rng(5), 50)
        b = est.sample(np.random.default_rng(5), 50)
        np.testing.assert_array_equal(a, b)
