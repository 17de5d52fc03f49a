"""Reference implementation: the per-dimension adaptive Parzen estimator,
TPE's per-dimension suggestion loop, and the per-configuration
``SearchSpace.sample`` loop that the column-wise estimator in
:mod:`repro.ml.kde` and the chunked index sampler in
:mod:`repro.searchspace.space` replaced.

The estimator class and the two loop bodies are kept verbatim as the
oracle the vectorized code must match bit for bit (see
``test_kde_parity.py``).  Only this docstring, the imports, ``__all__``
and the two module-level wrappers (which take the tuner or the space
as their first argument in place of ``self``) are new.  Nothing in the
package imports this module.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy.special import ndtr  # vectorized standard normal CDF

from repro.searchspace import SearchSpace

__all__ = ["AdaptiveParzenEstimator1D", "tpe_suggest", "space_sample"]

Configuration = dict


class AdaptiveParzenEstimator1D:
    """Quantized adaptive Parzen density over integers ``[low..high]``.

    Parameters
    ----------
    low, high:
        Inclusive integer range of the variable.
    prior_weight:
        Weight of the wide prior component, in units of one observation
        (HyperOpt default: 1.0).
    """

    def __init__(self, low: int, high: int, prior_weight: float = 1.0) -> None:
        if high < low:
            raise ValueError(f"invalid range [{low}, {high}]")
        if prior_weight <= 0:
            raise ValueError("prior_weight must be > 0")
        self.low = int(low)
        self.high = int(high)
        self.prior_weight = float(prior_weight)
        self._fitted = False

    # -- fitting --------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "AdaptiveParzenEstimator1D":
        """Fit the mixture to observed integer values (may be empty)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size and (
            values.min() < self.low or values.max() > self.high
        ):
            raise ValueError(
                f"observations outside [{self.low}, {self.high}]"
            )
        prior_mu = 0.5 * (self.low + self.high)
        prior_sigma = max(float(self.high - self.low), 1.0)

        mus = np.concatenate([[prior_mu], values])
        weights = np.concatenate(
            [[self.prior_weight], np.ones(values.size)]
        )

        # Adaptive bandwidths: distance to the nearest neighbour among the
        # sorted means (prior included), clipped as HyperOpt does.
        order = np.argsort(mus, kind="stable")
        sorted_mus = mus[order]
        sigmas_sorted = np.empty_like(sorted_mus)
        if sorted_mus.size == 1:
            sigmas_sorted[:] = prior_sigma
        else:
            gaps = sorted_mus[1:] - sorted_mus[:-1]
            left = np.empty_like(sorted_mus)
            right = np.empty_like(sorted_mus)
            left[1:] = gaps
            right[:-1] = gaps
            # Edge components use their single available gap (HyperOpt's
            # behaviour) rather than the full prior width.
            left[0] = right[0]
            right[-1] = left[-1]
            sigmas_sorted = np.maximum(left, right)
        sig_max = prior_sigma
        sig_min = prior_sigma / min(100.0, 1.0 + sorted_mus.size)
        sigmas_sorted = np.clip(sigmas_sorted, sig_min, sig_max)
        sigmas = np.empty_like(sigmas_sorted)
        sigmas[order] = sigmas_sorted
        sigmas[0] = prior_sigma  # the prior component stays wide

        self._mus = mus
        self._sigmas = sigmas
        self._weights = weights / weights.sum()
        # Truncation mass of each component on [low-0.5, high+0.5].
        lo_z = (self.low - 0.5 - mus) / sigmas
        hi_z = (self.high + 0.5 - mus) / sigmas
        self._trunc_mass = np.maximum(ndtr(hi_z) - ndtr(lo_z), 1e-300)
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")

    # -- evaluation -------------------------------------------------------------
    def prob(self, candidates: np.ndarray) -> np.ndarray:
        """P(v) for each candidate integer (vectorized)."""
        self._require_fitted()
        v = np.asarray(candidates, dtype=np.float64).ravel()
        # (n_candidates, n_components) CDF-difference masses.
        hi = (v[:, None] + 0.5 - self._mus[None, :]) / self._sigmas[None, :]
        lo = (v[:, None] - 0.5 - self._mus[None, :]) / self._sigmas[None, :]
        mass = (ndtr(hi) - ndtr(lo)) / self._trunc_mass[None, :]
        p = mass @ self._weights
        inside = (v >= self.low) & (v <= self.high)
        return np.where(inside, np.maximum(p, 1e-300), 0.0)

    def log_prob(self, candidates: np.ndarray) -> np.ndarray:
        """log P(v) for each candidate integer."""
        return np.log(self.prob(candidates))

    # -- sampling ----------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integers from the fitted mixture (truncated, rounded)."""
        self._require_fitted()
        if n < 1:
            raise ValueError("n must be >= 1")
        comp = rng.choice(self._mus.size, size=n, p=self._weights)
        out = np.empty(n, dtype=np.int64)
        for i, c in enumerate(comp):
            # Rejection-sample the truncated normal (ranges are wide
            # relative to bandwidths, so this terminates fast).
            mu, sigma = self._mus[c], self._sigmas[c]
            for _ in range(100):
                draw = rng.normal(mu, sigma)
                if self.low - 0.5 <= draw <= self.high + 0.5:
                    break
            else:
                draw = rng.uniform(self.low - 0.5, self.high + 0.5)
            out[i] = int(np.clip(round(draw), self.low, self.high))
        return out


class _TpeSuggest:
    """The suggestion half of ``BayesianTpeTuner`` as it was."""

    def __init__(self, gamma: float, n_ei_candidates: int,
                 prior_weight: float) -> None:
        self.gamma = gamma
        self.n_ei_candidates = n_ei_candidates
        self.prior_weight = prior_weight

    def _n_good(self, n_obs: int) -> int:
        """HyperOpt's split size: ``min(ceil(gamma * sqrt(n)), 25)``."""
        return max(1, min(int(np.ceil(self.gamma * np.sqrt(n_obs))), 25))

    def _suggest(
        self,
        space: SearchSpace,
        observations: np.ndarray,
        losses: np.ndarray,
        rng: np.random.Generator,
    ) -> dict:
        """One TPE suggestion from the (index-matrix, loss) history."""
        n_good = self._n_good(losses.size)
        order = np.argsort(losses, kind="stable")
        good = observations[order[:n_good]]
        bad = observations[order[n_good:]]

        best_score = -np.inf
        best_vector: List[int] = []
        # Per-dimension candidate draws from l(x), scored by l/g; the
        # vector is assembled dimension-wise (HyperOpt treats flat search
        # spaces as independent dimensions).
        candidate_matrix = np.empty(
            (self.n_ei_candidates, space.dimensions), dtype=np.int64
        )
        score = np.zeros(self.n_ei_candidates, dtype=np.float64)
        for d, param in enumerate(space.parameters):
            lo, hi = 0, param.cardinality - 1
            l_est = AdaptiveParzenEstimator1D(
                lo, hi, prior_weight=self.prior_weight
            ).fit(good[:, d])
            g_est = AdaptiveParzenEstimator1D(
                lo, hi, prior_weight=self.prior_weight
            ).fit(bad[:, d])
            draws = l_est.sample(rng, self.n_ei_candidates)
            score += l_est.log_prob(draws) - g_est.log_prob(draws)
            candidate_matrix[:, d] = draws
        best = int(np.argmax(score))
        best_vector = candidate_matrix[best].tolist()
        return space.indices_to_config(best_vector)


def tpe_suggest(tuner, space, observations, losses, rng) -> dict:
    """``tuner._suggest(space, observations, losses, rng)`` as it was."""
    return _TpeSuggest(
        tuner.gamma, tuner.n_ei_candidates, tuner.prior_weight
    )._suggest(space, observations, losses, rng)


class _SpaceSample:
    """``SearchSpace.sample`` as it was, bound to one space."""

    def __init__(self, space: SearchSpace) -> None:
        self._parameters = space.parameters
        self._constraints = space.constraints
        self.is_feasible = space.is_feasible

    def sample(
        self,
        rng: np.random.Generator,
        n: int = 1,
        feasible_only: bool = False,
        max_rejections: int = 10_000,
    ) -> List[Configuration]:
        """Draw ``n`` configurations uniformly at random.

        With ``feasible_only=True``, rejection-samples until ``n`` feasible
        configurations are found (the paper's "constraint specification"
        sampling used for non-SMBO methods).  Sampling *with replacement*:
        duplicates are possible, as in real measurement campaigns.
        """
        out: List[Configuration] = []
        rejections = 0
        while len(out) < n:
            cfg = {p.name: p.sample(rng) for p in self._parameters}
            if feasible_only and not self.is_feasible(cfg):
                rejections += 1
                if rejections > max_rejections:
                    raise RuntimeError(
                        f"exceeded {max_rejections} rejections while sampling "
                        f"feasible configurations; constraints may be "
                        f"unsatisfiable: {self._constraints.describe()}"
                    )
                continue
            out.append(cfg)
        return out


def space_sample(space, rng, n=1, feasible_only=False,
                 max_rejections=10_000) -> List[Configuration]:
    """``space.sample(rng, n, feasible_only, max_rejections)`` as it was."""
    return _SpaceSample(space).sample(rng, n, feasible_only, max_rejections)
