"""Adaptive Parzen estimators — the density substrate of TPE.

The paper's BO TPE tuner uses the HyperOpt library (Section VI-B), whose
core is Bergstra et al.'s *adaptive Parzen estimator* (NeurIPS 2011): a
1-D mixture of Gaussians, one component per observation, with

* per-component bandwidths set to the distance to the neighbouring
  observations (wide where data is sparse, narrow where dense), clipped to
  a fraction of the prior range,
* a wide *prior* component over the whole range, so unexplored regions
  keep non-zero probability, and
* quantization for integer parameters: the probability of integer ``v`` is
  the mixture CDF mass on ``[v - 0.5, v + 0.5]``, truncated to the range.

This reimplements that estimator faithfully for integer-valued tuning
parameters (everything in the paper's space is an integer range).  TPE
treats a flat search space as independent dimensions, so one estimator
holds one such 1-D mixture per column of an ``(n, d)`` index matrix and
fits, samples and scores all of them together:

* ``fit`` is one vectorized pass.  It evaluates the normal CDF once per
  bin edge of each column's range (``v + 0.5`` is exactly bin ``v + 1``'s
  lower edge) and per *distinct* component — duplicate observations share
  a mean and bandwidth — and tabulates every integer's mass.
* ``prob``/``log_prob`` gather each candidate's row of that table and
  take one ``(candidates, components)`` matrix-vector product per column.
* ``sample`` keeps, column by column, the component choice and the
  scalar rejection loop, so it consumes the generator exactly as one
  estimator per column did.

The results are bit-identical to fitting one estimator per column.  In
the benchmark's traced surrogate-design pass (harris/titan_v, S = 25..400,
2-core x86 host), fit + sample + log_prob time fell from 2.7 s to 0.8 s.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr  # vectorized standard normal CDF

__all__ = ["AdaptiveParzenEstimator1D"]


class AdaptiveParzenEstimator1D:
    """Quantized adaptive Parzen densities over integers ``[low..high]``.

    Parameters
    ----------
    low, high:
        Inclusive integer range of the variable — scalars for a single
        variable, or length-``d`` arrays for ``d`` independent columns.
        With scalar bounds, ``fit`` takes and ``sample``/``prob``/
        ``log_prob`` return vectors; with array bounds they take and
        return ``(n, d)`` matrices.
    prior_weight:
        Weight of the wide prior component, in units of one observation
        (HyperOpt default: 1.0).  Every column uses the same weights.
    """

    def __init__(self, low, high, prior_weight: float = 1.0) -> None:
        self._scalar = np.ndim(low) == 0 and np.ndim(high) == 0
        low = np.atleast_1d(np.asarray(low, dtype=np.int64))
        high = np.atleast_1d(np.asarray(high, dtype=np.int64))
        if low.ndim != 1 or low.shape != high.shape:
            raise ValueError(
                f"low and high must be scalars or equal-length vectors, "
                f"got shapes {low.shape} and {high.shape}"
            )
        if (high < low).any():
            raise ValueError(
                f"invalid range [{low.tolist()}, {high.tolist()}]"
            )
        if prior_weight <= 0:
            raise ValueError("prior_weight must be > 0")
        self.low = low
        self.high = high
        self.prior_weight = float(prior_weight)
        self._fitted = False

    @property
    def dimensions(self) -> int:
        return self.low.size

    def _as_matrix(self, values: np.ndarray, what: str) -> np.ndarray:
        """``values`` as an ``(n, d)`` float matrix (a vector when d = 1)."""
        values = np.asarray(values, dtype=np.float64)
        if self._scalar or (values.ndim == 1 and self.dimensions == 1):
            return values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[1] != self.dimensions:
            raise ValueError(
                f"expected an (n, {self.dimensions}) {what} matrix, got "
                f"shape {values.shape}"
            )
        return values

    def _shaped(self, out: np.ndarray) -> np.ndarray:
        return out[:, 0] if self._scalar else out

    # -- fitting --------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "AdaptiveParzenEstimator1D":
        """Fit each column's mixture to its observed integers (may be
        empty)."""
        values = self._as_matrix(values, "observation")
        if not np.isfinite(values).all():
            raise ValueError("observations must be finite")
        if (values < self.low).any() or (values > self.high).any():
            raise ValueError(
                f"observations outside [{self.low.tolist()}, "
                f"{self.high.tolist()}]"
            )
        prior_mu = 0.5 * (self.low + self.high)
        prior_sigma = np.maximum((self.high - self.low).astype(np.float64), 1.0)

        # Component 0 of every column is the prior; rows 1.. are the data.
        mus = np.concatenate([prior_mu[None, :], values])
        n_components = mus.shape[0]
        weights = np.concatenate(
            [[self.prior_weight], np.ones(n_components - 1)]
        )

        # Adaptive bandwidths: distance to the nearest neighbour among the
        # sorted means (prior included), clipped as HyperOpt does.
        order = np.argsort(mus, axis=0, kind="stable")
        sorted_mus = np.take_along_axis(mus, order, axis=0)
        if n_components == 1:
            sigmas_sorted = prior_sigma[None, :]
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
        sig_min = prior_sigma / min(100.0, 1.0 + n_components)
        sigmas_sorted = np.clip(sigmas_sorted, sig_min, sig_max)
        # The prior component stays wide.
        sigmas_sorted[np.argmin(order, axis=0), np.arange(self.dimensions)] = (
            prior_sigma
        )
        sigmas = np.empty_like(sigmas_sorted)
        np.put_along_axis(sigmas, order, sigmas_sorted, axis=0)

        # Duplicate observations make runs of equal (mean, bandwidth) in
        # sorted order, and equal components have equal CDF values, so
        # the CDF is evaluated once per distinct component of a column:
        # ``ids[c, k]`` numbers component ``k`` of column ``c`` among them.
        distinct = np.ones(mus.shape, dtype=bool)
        distinct[1:] = (sorted_mus[1:] != sorted_mus[:-1]) | (
            sigmas_sorted[1:] != sigmas_sorted[:-1]
        )
        first = distinct.T
        ids = np.empty(first.shape, dtype=np.int64)
        np.put_along_axis(
            ids, order.T, np.cumsum(first).reshape(first.shape) - 1, axis=1
        )
        u_column = np.nonzero(first)[0]
        u_low, u_high = self.low[u_column], self.high[u_column]
        u_mu, u_sigma = sorted_mus.T[first], sigmas_sorted.T[first]
        # Truncation mass of each component on [low-0.5, high+0.5].
        lo_z = (u_low - 0.5 - u_mu) / u_sigma
        hi_z = (u_high + 0.5 - u_mu) / u_sigma
        u_trunc = np.maximum(ndtr(hi_z) - ndtr(lo_z), 1e-300)
        # Quantized mass per integer: bin edge j of a column is
        # ``low + j - 0.5``, so bin j's upper edge is bin j+1's lower one.
        # Columns narrower than the widest get padding bins that no
        # in-range candidate reaches.
        edges = (
            u_low[:, None] + np.arange(int((self.high - self.low).max()) + 2)
        ) - 0.5
        cdf = ndtr((edges - u_mu[:, None]) / u_sigma[:, None])
        u_bin_mass = (cdf[:, 1:] - cdf[:, :-1]) / u_trunc[:, None]

        self._mus = mus
        self._sigmas = sigmas
        self._weights = weights / weights.sum()
        self._trunc_mass = u_trunc[ids].T
        #: ``(bins, columns, components)`` masses.
        self._bin_mass = np.take(u_bin_mass.T, ids, axis=1)
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")

    # -- evaluation -------------------------------------------------------------
    def prob(self, candidates: np.ndarray) -> np.ndarray:
        """P(v) of each candidate integer, column by column; integers
        outside a column's range get 0."""
        self._require_fitted()
        v = self._as_matrix(candidates, "candidate")
        if not (np.isfinite(v) & (v == np.floor(v))).all():
            raise ValueError("candidates must be integers")
        inside = (v >= self.low) & (v <= self.high)
        bins = np.where(inside, v - self.low, 0).astype(np.int64)
        # (d, n_candidates, n_components): each column's candidate rows
        # are one (n_candidates, n_components) matrix-vector product.
        mass = self._bin_mass[bins.T, np.arange(self.dimensions)[:, None]]
        p = (mass @ self._weights).T
        return self._shaped(np.where(inside, np.maximum(p, 1e-300), 0.0))

    def log_prob(self, candidates: np.ndarray) -> np.ndarray:
        """log P(v) of each candidate integer."""
        return np.log(self.prob(candidates))

    # -- sampling ----------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integers per column from the fitted mixtures
        (truncated, rounded).

        Columns draw in order, each as one component choice followed by
        per-draw rejection sampling — the stream ``d`` one-column
        estimators sampled one after another would consume.
        """
        self._require_fitted()
        if n < 1:
            raise ValueError("n must be >= 1")
        normal = rng.normal
        out = np.empty((n, self.dimensions), dtype=np.int64)
        for c, (lo_edge, hi_edge) in enumerate(
            zip((self.low - 0.5).tolist(), (self.high + 0.5).tolist())
        ):
            comp = rng.choice(self._mus.shape[0], size=n, p=self._weights)
            column = []
            for mu, sigma in zip(
                self._mus[comp, c].tolist(), self._sigmas[comp, c].tolist()
            ):
                # Rejection-sample the truncated normal (ranges are wide
                # relative to bandwidths, so this terminates fast).
                for _ in range(100):
                    draw = normal(mu, sigma)
                    if lo_edge <= draw <= hi_edge:
                        break
                else:
                    draw = rng.uniform(lo_edge, hi_edge)
                column.append(round(draw))
            out[:, c] = column
        # A draw within half a step of an edge can round past it.
        np.clip(out, self.low, self.high, out=out)
        return self._shaped(out)
