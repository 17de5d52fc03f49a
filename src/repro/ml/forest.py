"""Random Forest regression (Breiman 2001), from scratch.

The paper's RF tuner uses sk-learn's ``RandomForestRegressor``
(Section VI-B); this is the same algorithm: an ensemble of CART trees,
each fit on a bootstrap resample of the data with per-node random feature
subsetting, predictions averaged (*bagging* + random subspaces — exactly
the combination Section III-A describes).

Defaults mirror sk-learn's: 100 trees, unbounded depth,
``max_features=1.0`` (all features — sk-learn's regression default),
bootstrap on.  Out-of-bag scoring is provided for diagnostics.

Performance: all trees grow together, level by level, in one
:func:`~repro.ml.tree.grow_trees` call (see :mod:`repro.ml.tree`), so a
fit costs a few dozen NumPy calls per tree *depth*, not per node.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tree import (
    DecisionTreeRegressor,
    check_training_data,
    grow_trees,
    n_candidate_features,
)

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bagged ensemble of CART regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed to each :class:`~repro.ml.tree.DecisionTreeRegressor`.
    bootstrap:
        Fit each tree on an n-out-of-n resample with replacement.
    rng:
        Source of all randomness (bootstraps + feature subsets).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.rng = rng if rng is not None else np.random.default_rng()
        self._trees: List[DecisionTreeRegressor] = []
        self._n_features = 0

    @property
    def trees(self) -> List[DecisionTreeRegressor]:
        return self._trees

    @property
    def is_fitted(self) -> bool:
        return len(self._trees) > 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        # Validate data and hyperparameters before any bootstrap is drawn:
        # a rejected fit leaves the caller's generator untouched.
        X, y = check_training_data(X, y)
        n, d = X.shape
        k = n_candidate_features(self.max_features, d)
        trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self.rng,
            )
            for _ in range(self.n_estimators)
        ]
        if self.bootstrap:
            # One draw per tree: a single (trees, n) draw would consume
            # the generator differently.
            samples = np.stack([
                self.rng.integers(0, n, size=n)
                for _ in range(self.n_estimators)
            ])
        else:
            samples = np.broadcast_to(np.arange(n), (self.n_estimators, n))
        grown = grow_trees(
            X, y, samples,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_candidates=k,
            rng=self.rng,
        )
        self._trees = [
            tree._fitted(nodes, d) for tree, nodes in zip(trees, grown)
        ]
        self._n_features = d
        self._samples = samples
        self._X_train, self._y_train = X, y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        preds = np.zeros(np.asarray(X).shape[0], dtype=np.float64)
        for tree in self._trees:
            preds += tree.predict(X)
        return preds / len(self._trees)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation (ensemble disagreement)."""
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        all_preds = np.stack([t.predict(X) for t in self._trees])
        return all_preds.std(axis=0)

    def oob_score(self) -> float:
        """Out-of-bag R^2 (requires ``bootstrap=True`` and enough trees).

        Samples never left out by any bootstrap are skipped; returns NaN if
        no sample has an OOB prediction.
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        if not self.bootstrap:
            raise ValueError("OOB score requires bootstrap=True")
        n = self._X_train.shape[0]
        sums = np.zeros(n)
        counts = np.zeros(n)
        for tree, sample in zip(self._trees, self._samples):
            oob = np.flatnonzero(np.bincount(sample, minlength=n) == 0)
            if oob.size == 0:
                continue
            sums[oob] += tree.predict(self._X_train[oob])
            counts[oob] += 1
        mask = counts > 0
        if not mask.any():
            return float("nan")
        pred = sums[mask] / counts[mask]
        resid = self._y_train[mask] - pred
        total = self._y_train[mask] - self._y_train[mask].mean()
        denom = float((total**2).sum())
        if denom == 0.0:
            return float("nan")
        return 1.0 - float((resid**2).sum()) / denom
