"""Parity of the column-wise Parzen estimator, TPE's suggestion step and
the chunked space sampler against the per-dimension / per-configuration
code they replaced (kept verbatim in ``kde_oracle.py``).

Everything must match to the last bit — fitted tables, drawn values,
``log_prob`` bytes, sampled configurations — and so must the generator
state afterwards, so the tuners downstream see the same stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import get_kernel
from repro.ml import AdaptiveParzenEstimator1D
from repro.search.bo_tpe import BayesianTpeTuner
from repro.searchspace import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    SearchSpace,
)
from repro.searchspace.constraints import (
    PredicateConstraint,
    workgroup_product_limit,
)

from . import kde_oracle as oracle

PAPER_KERNELS = ("add", "harris", "mandelbrot")


def _state(rng: np.random.Generator) -> int:
    """A draw that differs whenever the generator states differ."""
    return int(rng.integers(2**62))


@st.composite
def estimator_cases(draw):
    d = draw(st.integers(1, 6))
    low = np.array(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
    # Cardinality 1 included: every observation sits on the prior mean.
    card = np.array(draw(st.lists(st.integers(1, 18), min_size=d, max_size=d)))
    high = low + card - 1
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    data_rng = np.random.default_rng(seed)
    obs = data_rng.integers(low, high + 1, size=(n, d))
    if n and draw(st.booleans()):
        obs[: n // 2] = obs[0]  # heavy duplicates: zero-width gaps
    prior_weight = draw(
        st.sampled_from([1.0, 0.25, 3.5])
        | st.floats(0.01, 10.0, allow_nan=False)
    )
    m = draw(st.integers(1, 30))
    return low, high, obs, prior_weight, m, seed


class TestEstimatorParity:
    @given(estimator_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_one_estimator_per_column(self, case):
        low, high, obs, prior_weight, m, seed = case
        d = low.size
        new = AdaptiveParzenEstimator1D(low, high, prior_weight).fit(obs)
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        draws = new.sample(new_rng, m)
        # Out-of-range integers (probability 0) ride along with the draws.
        candidates = np.concatenate(
            [draws, np.random.default_rng(seed + 1).integers(
                low - 3, high + 4, size=(8, d))]
        )
        with np.errstate(divide="ignore"):
            log_p = new.log_prob(candidates)
        for c in range(d):
            old = oracle.AdaptiveParzenEstimator1D(
                int(low[c]), int(high[c]), prior_weight
            ).fit(obs[:, c])
            assert old._mus.tobytes() == new._mus[:, c].tobytes()
            assert old._sigmas.tobytes() == new._sigmas[:, c].tobytes()
            assert (
                old._trunc_mass.tobytes() == new._trunc_mass[:, c].tobytes()
            )
            assert old._weights.tobytes() == new._weights.tobytes()
            np.testing.assert_array_equal(old.sample(old_rng, m), draws[:, c])
            with np.errstate(divide="ignore"):
                expected = old.log_prob(candidates[:, c])
            assert expected.tobytes() == log_p[:, c].tobytes()
        assert _state(new_rng) == _state(old_rng)

    @given(estimator_cases())
    @settings(max_examples=100, deadline=None)
    def test_scalar_bounds_match_the_old_estimator(self, case):
        low, high, obs, prior_weight, m, seed = case
        lo, hi = int(low[0]), int(high[0])
        new = AdaptiveParzenEstimator1D(lo, hi, prior_weight).fit(obs[:, 0])
        old = oracle.AdaptiveParzenEstimator1D(lo, hi, prior_weight).fit(
            obs[:, 0]
        )
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        draws = new.sample(new_rng, m)
        assert draws.shape == (m,)
        np.testing.assert_array_equal(draws, old.sample(old_rng, m))
        grid = np.arange(lo - 2, hi + 3)
        with np.errstate(divide="ignore"):
            assert new.log_prob(grid).tobytes() == old.log_prob(grid).tobytes()
        assert _state(new_rng) == _state(old_rng)

    def test_empty_fit_matches(self):
        low, high = np.array([0, 0]), np.array([15, 7])
        new = AdaptiveParzenEstimator1D(low, high).fit(np.empty((0, 2)))
        for c in range(2):
            old = oracle.AdaptiveParzenEstimator1D(0, int(high[c])).fit([])
            grid = np.arange(int(high[c]) + 1)
            full = np.zeros((grid.size, 2), dtype=np.int64)
            full[:, c] = grid
            assert (
                new.prob(full)[:, c].tobytes() == old.prob(grid).tobytes()
            )


@st.composite
def suggest_cases(draw):
    n = draw(st.integers(2, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    data_rng = np.random.default_rng(seed)
    space = get_kernel(draw(st.sampled_from(PAPER_KERNELS))).space()
    obs = data_rng.integers(0, space.cardinalities(), size=(n, space.dimensions))
    losses = data_rng.normal(size=n)
    if draw(st.booleans()):
        losses = np.round(losses, 1)  # ties in the good/bad split
    tuner = BayesianTpeTuner(
        gamma=draw(st.sampled_from([0.25, 0.1, 0.6])),
        n_ei_candidates=draw(st.sampled_from([24, 1, 7])),
        prior_weight=draw(st.sampled_from([1.0, 0.5, 2.0])),
    )
    return space, obs, losses, tuner, seed


class TestSuggestParity:
    @given(suggest_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_dimension_loop(self, case):
        space, obs, losses, tuner, seed = case
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        suggestion = tuner._suggest(space, obs, losses, new_rng)
        expected = oracle.tpe_suggest(tuner, space, obs, losses, old_rng)
        assert space.indices_to_config(suggestion) == expected
        assert _state(new_rng) == _state(old_rng)


def _constrained_variants(space: SearchSpace):
    yield space, False
    yield space, True
    # A tighter vectorized limit (rejects ~70%) and a predicate-only
    # constraint (the per-row fallback path).
    yield space.without_constraints().with_constraints(
        workgroup_product_limit(limit=64)
    ), True
    yield space.with_constraints(
        PredicateConstraint(
            lambda cfg: (cfg["thread_x"] + cfg["thread_y"]) % 3 != 0,
            name="mod3",
        )
    ), True


class TestSamplerParity:
    @pytest.mark.parametrize("kernel", PAPER_KERNELS)
    @given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_config_loop(self, kernel, n, seed):
        for space, feasible_only in _constrained_variants(
            get_kernel(kernel).space()
        ):
            new_rng = np.random.default_rng(seed)
            old_rng = np.random.default_rng(seed)
            got = space.sample(new_rng, n, feasible_only=feasible_only)
            assert got == oracle.space_sample(
                space, old_rng, n, feasible_only=feasible_only
            )
            assert _state(new_rng) == _state(old_rng)

    @pytest.mark.parametrize("n", [1, 2, 5000])
    def test_edges_of_the_size_range(self, n):
        space = get_kernel("harris").space()
        for feasible_only in (False, True):
            new_rng = np.random.default_rng(n)
            old_rng = np.random.default_rng(n)
            indices = space.sample_indices(new_rng, n, feasible_only)
            assert indices.shape == (n, space.dimensions)
            assert space.index_matrix_to_configs(indices) == (
                oracle.space_sample(space, old_rng, n, feasible_only)
            )
            assert _state(new_rng) == _state(old_rng)

    def test_mixed_parameter_types(self):
        space = SearchSpace(
            [
                IntegerParameter("a", 3, 9),
                OrdinalParameter("b", (1, 2, 4, 8)),
                CategoricalParameter("c", ("x", "y", "z")),
                IntegerParameter("one", 5, 5),
            ],
            [PredicateConstraint(lambda cfg: cfg["c"] != "y" or cfg["a"] > 5)],
        )
        for feasible_only in (False, True):
            new_rng = np.random.default_rng(11)
            old_rng = np.random.default_rng(11)
            assert space.sample(new_rng, 700, feasible_only) == (
                oracle.space_sample(space, old_rng, 700, feasible_only)
            )
            assert _state(new_rng) == _state(old_rng)

    def test_zero_draws(self):
        space = get_kernel("add").space()
        rng = np.random.default_rng(0)
        assert space.sample(rng, 0) == []
        assert space.sample_indices(rng, 0).shape == (0, space.dimensions)
        assert _state(rng) == _state(np.random.default_rng(0))

    def test_unsatisfiable_constraints_still_raise(self):
        space = get_kernel("add").space().with_constraints(
            PredicateConstraint(lambda cfg: False, name="never")
        )
        with pytest.raises(RuntimeError, match="exceeded 50 rejections"):
            space.sample(np.random.default_rng(0), 3, True, max_rejections=50)
        with pytest.raises(RuntimeError, match="exceeded 50 rejections"):
            oracle.space_sample(
                space, np.random.default_rng(0), 3, True, max_rejections=50
            )

    @given(
        n=st.integers(1, 60),
        max_rejections=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejection_limit_trips_exactly_when_the_loop_did(
        self, n, max_rejections, seed
    ):
        space = get_kernel("add").space().without_constraints()
        space = space.with_constraints(workgroup_product_limit(limit=64))

        def outcome(sampler):
            try:
                return sampler(
                    np.random.default_rng(seed), n, True, max_rejections
                )
            except RuntimeError:
                return "raised"

        assert outcome(space.sample) == outcome(
            lambda *a: oracle.space_sample(space, *a)
        )
