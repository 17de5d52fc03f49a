"""Reference implementation: the recursive, node-by-node CART tree and the
tree-at-a-time random forest that preceded the level-wise builder in
:mod:`repro.ml.tree`.

Both classes are kept verbatim as the oracle the level-wise builder must
match bit for bit (see ``test_cart_parity.py``); only this docstring and
``__all__`` are new.  Nothing in the package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor"]

_LEAF = -1


@dataclass
class _Node:
    feature: int = _LEAF
    threshold: float = 0.0
    left: int = _LEAF
    right: int = _LEAF
    value: float = 0.0
    n_samples: int = 0


class DecisionTreeRegressor:
    """A CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unbounded).
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum samples in each child.
    max_features:
        Features examined per split: ``None`` (all), an int, a float
        fraction, or ``"sqrt"`` (Breiman's forest default).
    rng:
        Generator used for feature subsetting; required when
        ``max_features`` restricts the candidate set.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self._nodes: List[_Node] = []
        self._n_features = 0

    # -- fitting -------------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(round(mf * d)))
        k = int(mf)
        if not 1 <= k <= d:
            raise ValueError(f"max_features {mf!r} out of range for {d} features")
        return k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match X {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite values; penalize "
                             "failed measurements before model fitting")
        d = self._n_features = X.shape[1]
        k = self._n_candidate_features(d)
        if k < d and self.rng is None:
            self.rng = np.random.default_rng()

        # Bin every column once: codes index the column's sorted unique
        # values.  All columns share one flat bin index space so the
        # per-node statistics come from a single bincount.
        bin_values: List[np.ndarray] = []
        codes = np.empty(X.shape, dtype=np.int64)
        widths = np.empty(d, dtype=np.int64)
        for f in range(d):
            uniques, col_codes = np.unique(X[:, f], return_inverse=True)
            bin_values.append(uniques)
            codes[:, f] = col_codes
            widths[f] = uniques.size
        offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
        total_bins = int(widths.sum())

        # Per-flat-bin lookup tables used by the vectorized split search.
        bin_feature = np.repeat(np.arange(d), widths)
        feat_start = offsets[bin_feature]          # first bin of the feature
        feat_end = (offsets + widths - 1)[bin_feature]  # last bin
        # A bin can host a split "after itself" only if it is not the
        # feature's last bin.
        not_last = np.arange(total_bins) != feat_end
        # Midpoint threshold for a split after bin b (undefined at last
        # bins; those stay masked out).
        flat_values = np.concatenate(bin_values)
        thresholds = np.empty(total_bins, dtype=np.float64)
        thresholds[:-1] = 0.5 * (flat_values[:-1] + flat_values[1:])
        thresholds[-1] = np.inf

        self._bins = {
            "values": bin_values,
            "flat_codes": codes + offsets[None, :],
            "feature": bin_feature,
            "start": feat_start,
            "end": feat_end,
            "not_last": not_last,
            "thresholds": thresholds,
            "total": total_bins,
            "d": d,
            "k": k,
        }
        self._X = X
        self._y = y
        self._nodes = []
        self._build(np.arange(X.shape[0]), depth=0)
        del self._bins, self._X, self._y
        # Freeze the finished tree into flat arrays once.  _build mutates
        # nodes after appending them (children are assigned post-recursion),
        # so this can only happen here — and predict used to rebuild these
        # five arrays from the node list on every call.
        nodes = self._nodes
        self._flat_features = np.array(
            [n.feature for n in nodes], dtype=np.int64
        )
        self._flat_thresholds = np.array([n.threshold for n in nodes])
        self._flat_lefts = np.array([n.left for n in nodes], dtype=np.int64)
        self._flat_rights = np.array([n.right for n in nodes], dtype=np.int64)
        self._flat_values = np.array([n.value for n in nodes])
        return self

    def _best_split(self, idx: np.ndarray) -> tuple:
        """Exact CART split over all (selected) features in one pass.

        Returns ``(feature, threshold)`` or ``(_LEAF, nan)``.
        """
        b = self._bins
        y_node = self._y[idx]
        n = idx.size
        d, k = b["d"], b["k"]

        fc = b["flat_codes"][idx].ravel()
        y_rep = np.repeat(y_node, d)
        counts = np.bincount(fc, minlength=b["total"])
        sums = np.bincount(fc, weights=y_rep, minlength=b["total"])
        sqs = np.bincount(fc, weights=y_rep * y_rep, minlength=b["total"])

        cc = np.cumsum(counts)
        cs = np.cumsum(sums)
        cq = np.cumsum(sqs)
        # Within-feature cumulatives: subtract the running total at the
        # feature's first bin (exclusive).
        start = b["start"]
        base_c = np.where(start > 0, cc[start - 1], 0)
        base_s = np.where(start > 0, cs[start - 1], 0.0)
        base_q = np.where(start > 0, cq[start - 1], 0.0)
        left_n = (cc - base_c).astype(np.float64)
        left_s = cs - base_s
        left_q = cq - base_q
        # Feature totals, broadcast per bin (they equal n and the node's
        # y-sums, but keeping the general form documents the structure).
        tot_s = float(y_node.sum())
        tot_q = float((y_node * y_node).sum())
        right_n = n - left_n

        valid = (
            b["not_last"]
            & (left_n >= self.min_samples_leaf)
            & (right_n >= self.min_samples_leaf)
            & (left_n > 0)
            & (right_n > 0)
        )
        if k < d:
            chosen = self.rng.choice(d, size=k, replace=False)
            sel = np.zeros(d, dtype=bool)
            sel[chosen] = True
            valid &= sel[b["feature"]]
        if not valid.any():
            return _LEAF, np.nan

        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (
                (left_q - left_s**2 / left_n)
                + ((tot_q - left_q) - (tot_s - left_s) ** 2 / right_n)
            )
        sse = np.where(valid, sse, np.inf)
        j = int(np.argmin(sse))
        if not np.isfinite(sse[j]):
            return _LEAF, np.nan
        return int(b["feature"][j]), float(b["thresholds"][j])

    def _build(self, idx: np.ndarray, depth: int) -> int:
        node_id = len(self._nodes)
        y_node = self._y[idx]
        node = _Node(value=float(y_node.mean()), n_samples=idx.size)
        self._nodes.append(node)

        if (
            idx.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.ptp(y_node) == 0.0
        ):
            return node_id

        feature, threshold = self._best_split(idx)
        if feature == _LEAF:
            return node_id

        mask = self._X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:  # numeric edge case
            return node_id

        node.feature = feature
        node.threshold = threshold
        node.left = self._build(left_idx, depth + 1)
        node.right = self._build(right_idx, depth + 1)
        return node_id

    # -- prediction -----------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return len(self._nodes) > 0

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 = a single leaf)."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")

        def d(i: int) -> int:
            node = self._nodes[i]
            if node.feature == _LEAF:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values, shape ``(n,)``; vectorized descent."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must be (n, {self._n_features}), got shape {X.shape}"
            )
        features = self._flat_features
        thresholds = self._flat_thresholds
        lefts = self._flat_lefts
        rights = self._flat_rights
        values = self._flat_values

        current = np.zeros(X.shape[0], dtype=np.int64)
        active = features[current] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            nodes = current[idx]
            go_left = X[idx, features[nodes]] <= thresholds[nodes]
            current[idx] = np.where(go_left, lefts[nodes], rights[nodes])
            active[idx] = features[current[idx]] != _LEAF
        return values[current]


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
        self._oob_indices: List[np.ndarray] = []
        self._n_features = 0

    @property
    def trees(self) -> List[DecisionTreeRegressor]:
        return self._trees

    @property
    def is_fitted(self) -> bool:
        return len(self._trees) > 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        if y.shape != (n,):
            raise ValueError(f"y shape {y.shape} does not match X {X.shape}")
        self._n_features = X.shape[1]
        self._trees = []
        self._oob_indices = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample = self.rng.integers(0, n, size=n)
                oob = np.setdiff1d(np.arange(n), sample, assume_unique=False)
            else:
                sample = np.arange(n)
                oob = np.empty(0, dtype=np.int64)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self.rng,
            )
            tree.fit(X[sample], y[sample])
            self._trees.append(tree)
            self._oob_indices.append(oob)
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
        for tree, oob in zip(self._trees, self._oob_indices):
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
