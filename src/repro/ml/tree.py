"""CART regression trees, from scratch.

The substrate behind the paper's Random Forest tuner (sk-learn's
``RandomForestRegressor`` in the original; Section VI-B).  This is a
standard CART variance-reduction regression tree:

* binary axis-aligned splits chosen to minimize the summed squared error
  of the two children;
* candidate thresholds are the midpoints between consecutive *unique*
  feature values of the tree's training sample — exactly CART's candidate
  set — evaluated from per-bin sufficient statistics, not per-node sorting;
* optional per-node random feature subsetting (``max_features``), which is
  what lets :mod:`repro.ml.forest` build Breiman-style random forests.

Performance: :func:`grow_trees` grows many trees at once — a forest's
100 bootstraps share one call — breadth first.  Every column is binned
once per call (``np.unique``).  At each depth, one ``bincount`` keyed by
(open node, flat bin) gives every open node of every tree its per-bin
counts and target sums, and cumulative sums, an SSE and an ``argmin``
along the bin axis pick all the level's splits together: a few dozen
NumPy calls per *level*, however many nodes it holds.  Open nodes go through
the split search in batches of at most ``_BATCH_CELLS`` (node x bin)
cells, which bounds its temporaries on wide levels.

The trees are bit-identical to growing each one recursively, depth first,
node by node, because the builder keeps three things of that order:

* a node's target sum follows ``ndarray.sum``'s summation order
  (:func:`_segment_sums`);
* rows keep their stable order inside every node, so per-bin sums add
  in the same order;
* a split's threshold is the midpoint to the next feature value present
  in *that tree's* sample, not in the whole training set.

One thing differs: when ``max_features`` is below the number of features,
each node's feature subset is drawn from ``rng`` level by level — all
nodes of one depth, tree after tree, then the next depth — rather than in
depth-first order, and a forest draws all its bootstraps before any
subset.  Equal seeds still give equal trees.

Fitted trees are stored in flat arrays in depth-first pre-order, so
prediction is a vectorized level-by-level descent.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["DecisionTreeRegressor", "grow_trees"]

_LEAF = -1

#: Most (open node x flat bin) cells one split-search batch holds: 1 MiB
#: per float temporary.  A level of a 100-tree forest on 390 rows holds
#: thousands of open nodes; fitting one on 6 features of 16 values each
#: peaks at ~17 MiB of allocations batched, ~29 MiB unbatched.
_BATCH_CELLS = 1 << 17

#: Segments up to this length are summed without splitting in two
#: (NumPy's ``PW_BLOCKSIZE``).
_PAIRWISE_BLOCK = 128


class Nodes(NamedTuple):
    """A fitted tree as flat per-node arrays, in depth-first pre-order."""

    #: Split feature; ``-1`` at leaves.
    feature: np.ndarray
    #: Samples with ``x[feature] <= threshold`` go left; 0 at leaves.
    threshold: np.ndarray
    #: Child node indices; ``-1`` at leaves.
    left: np.ndarray
    right: np.ndarray
    #: Mean target of the node's training samples.
    value: np.ndarray
    n_samples: np.ndarray


def check_training_data(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float arrays, or ``ValueError`` if they cannot be fit."""
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
    return X, y


def n_candidate_features(max_features, d: int) -> int:
    """Features examined per split for a ``max_features`` setting."""
    if max_features is None:
        return d
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(round(max_features * d)))
    k = int(max_features)
    if not 1 <= k <= d:
        raise ValueError(
            f"max_features {max_features!r} out of range for {d} features"
        )
    return k


# -- summation order -----------------------------------------------------------

def _segment_sums(values: np.ndarray, start: np.ndarray,
                  length: np.ndarray) -> np.ndarray:
    """``values[s:s + n].sum(axis=0)`` for every segment, bit for bit.

    ``values`` is ``(rows + 1, channels)`` and its last row is ``-0.0``,
    the padding that leaves any sum unchanged.  NumPy sums fewer than 8
    items in sequence; up to 128 in 8 interleaved lanes, folded as
    ``((0+1)+(2+3))+((4+5)+(6+7))``, then the tail in sequence; and
    longer runs as the sum of two halves split at a multiple of 8.
    ``np.add.reduceat`` adds in plain sequence and does not match.
    """
    return _pairwise(values, start, length) + 0.0  # NumPy starts from +0.0


def _pairwise(values, start, length):
    out = np.empty((start.size, values.shape[1]))
    big = length > _PAIRWISE_BLOCK
    if big.any():
        s, n = start[big], length[big]
        half = n // 2
        half -= half % 8
        out[big] = _pairwise(values, s, half) + _pairwise(
            values, s + half, n - half
        )
    small = ~big
    if small.any():
        out[small] = _block_sums(values, start[small], length[small])
    return out


def _block_sums(values, start, length):
    pad = values.shape[0] - 1
    lanes = length >= 8
    # Lane part: blocks of 8 summed lane by lane, then folded.
    full = np.where(lanes, length - length % 8, 0)
    acc = np.full((start.size, values.shape[1]), -0.0)
    if lanes.any():
        s, f = start[lanes], full[lanes]
        k = np.arange(int(f.max()))
        blocks = values[np.where(k < f[:, None], s[:, None] + k, pad)]
        blocks = blocks.reshape(s.size, -1, 8, values.shape[1])
        r = blocks[:, 0]
        for b in range(1, blocks.shape[1]):
            r = r + blocks[:, b]
        acc[lanes] = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + (
            (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
        )
    # Sequential part: the whole of a short segment, the tail of a long one.
    k = np.arange(7)
    tail = values[np.where(k < (length - full)[:, None],
                           (start + full)[:, None] + k, pad)]
    for j in range(7):
        acc = acc + tail[:, j]
    return acc


def _segment_positions(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for every segment."""
    offsets = np.cumsum(length) - length
    return np.arange(int(length.sum())) + np.repeat(start - offsets, length)


# -- the level-wise builder ------------------------------------------------------

class _Bins(NamedTuple):
    """Every column's sorted unique values in one flat bin index space."""

    codes: np.ndarray  # (n, d) flat bin of each training value
    value: np.ndarray  # value of each flat bin
    feature: np.ndarray  # feature of each flat bin
    first: np.ndarray  # first flat bin of each bin's feature
    #: Sorted ``tree * n_bins + bin`` keys of the bins each tree's sample
    #: holds, for the next-value-present lookup behind thresholds.
    present: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, samples: np.ndarray) -> "_Bins":
        columns = [np.unique(col, return_inverse=True) for col in X.T]
        widths = np.array([u.size for u, _ in columns])
        starts = np.cumsum(widths) - widths
        codes = np.stack([c for _, c in columns], axis=1) + starts
        feature = np.repeat(np.arange(X.shape[1]), widths)
        n_bins = int(widths.sum())
        keys = np.arange(samples.shape[0])[:, None, None] * n_bins
        present = np.flatnonzero(np.bincount(
            (keys + codes[samples]).ravel(),
            minlength=samples.shape[0] * n_bins,
        ))
        return cls(codes, np.concatenate([u for u, _ in columns]),
                   feature, starts[feature], present)

    def threshold(self, tree: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Midpoint from bin ``b`` to the next value in ``tree``'s sample."""
        n_bins = self.value.size
        key = tree * n_bins + b
        nxt = self.present[np.searchsorted(self.present, key, side="right")]
        return 0.5 * (self.value[b] + self.value[nxt - tree * n_bins])


def _best_splits(bins: _Bins, rows: np.ndarray, y_rows: np.ndarray,
                 size: np.ndarray, totals: np.ndarray, n_candidates: int,
                 min_samples_leaf: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """The exact CART split of each node in a batch.

    ``rows``/``y_rows`` hold the batch's rows grouped by node (``size``
    rows each) and ``totals`` each node's ``(sum y, sum y^2)``.  Returns
    ``(flat bin, ok)``: the split goes after that bin, and nodes with no
    valid split have ``ok`` False.
    """
    n_nodes, n_bins = size.size, bins.value.size
    d = bins.codes.shape[1]
    owner = np.repeat(np.arange(n_nodes), size)
    keys = (owner[:, None] * n_bins + bins.codes[rows]).ravel()
    weights = np.repeat(y_rows, d)
    cells = n_nodes * n_bins
    counts = np.bincount(keys, minlength=cells).reshape(n_nodes, n_bins)
    sums = np.bincount(keys, weights=weights, minlength=cells)
    sqs = np.bincount(keys, weights=weights * weights, minlength=cells)

    def within_feature(c):
        # Running totals restarted at each feature's first bin.
        c = np.cumsum(c.reshape(n_nodes, n_bins), axis=1)
        before = np.concatenate([np.zeros((n_nodes, 1), c.dtype), c], axis=1)
        return c - before[:, bins.first]

    left_n = within_feature(counts).astype(np.float64)
    left_s = within_feature(sums)
    left_q = within_feature(sqs)
    right_n = size[:, None].astype(np.float64) - left_n
    valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    if n_candidates < d:
        chosen = np.zeros((n_nodes, d), dtype=bool)
        for i in range(n_nodes):
            chosen[i, rng.choice(d, size=n_candidates, replace=False)] = True
        valid &= chosen[:, bins.feature]

    tot_s, tot_q = totals[:, :1], totals[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (
            (left_q - left_s**2 / left_n)
            + ((tot_q - left_q) - (tot_s - left_s) ** 2 / right_n)
        )
    sse = np.where(valid, sse, np.inf)
    best = np.argmin(sse, axis=1)
    ok = np.isfinite(sse[np.arange(n_nodes), best])
    return best, ok


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    *,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidates: int,
    rng: Optional[np.random.Generator],
) -> List[Nodes]:
    """Grow one CART tree per row of ``samples``, all together, level by level.

    ``samples[t]`` lists the training rows of tree ``t`` (repeats allowed,
    as in a bootstrap); ``X``/``y`` must have passed
    :func:`check_training_data`.  ``rng`` draws the feature subsets when
    ``n_candidates`` is below the number of features.
    """
    n_trees, m = samples.shape
    bins = _Bins.of(X, samples)
    per_batch = max(1, _BATCH_CELLS // bins.value.size)

    rows = samples.ravel()  # training rows, grouped by open node
    size = np.full(n_trees, m)  # rows per open node
    tree = np.arange(n_trees)  # tree of each open node
    levels = []
    depth = 0
    while size.size:
        start = np.cumsum(size) - size
        y_rows = y[rows]
        padded = np.append(np.stack([y_rows, y_rows * y_rows], axis=1),
                           [[-0.0, -0.0]], axis=0)
        totals = _segment_sums(padded, start, size)
        value = totals[:, 0] / size
        feature = np.full(size.size, _LEAF)
        threshold = np.zeros(size.size)

        splittable = (size >= min_samples_split) & (
            np.maximum.reduceat(y_rows, start)
            != np.minimum.reduceat(y_rows, start)
        )
        if max_depth is not None and depth >= max_depth:
            splittable[:] = False
        candidates = np.flatnonzero(splittable)
        for lo in range(0, candidates.size, per_batch):
            batch = candidates[lo:lo + per_batch]
            pos = _segment_positions(start[batch], size[batch])
            b, ok = _best_splits(
                bins, rows[pos], y_rows[pos], size[batch], totals[batch],
                n_candidates, min_samples_leaf, rng,
            )
            batch, b = batch[ok], b[ok]
            feature[batch] = bins.feature[b]
            threshold[batch] = bins.threshold(tree[batch], b)

        # Partition by the threshold itself, as prediction will; a split
        # that sends every row one way leaves a leaf.
        split = np.flatnonzero(feature != _LEAF)
        pos = _segment_positions(start[split], size[split])
        owner = np.repeat(np.arange(split.size), size[split])
        go_left = X[rows[pos], feature[split][owner]] <= threshold[split][owner]
        n_left = np.bincount(owner, weights=go_left, minlength=split.size)
        degenerate = (n_left == 0) | (n_left == size[split])
        feature[split[degenerate]] = _LEAF
        threshold[split[degenerate]] = 0.0
        levels.append((tree, feature, threshold, value, size))

        # Children open the next level as [left 0, right 0, left 1, ...],
        # each keeping its rows' order.
        kept = ~degenerate[owner]
        rank = np.cumsum(~degenerate) - 1
        child = 2 * rank[owner[kept]] + ~go_left[kept]
        order = np.argsort(child, kind="stable")
        rows = rows[pos[kept]][order]
        size = np.bincount(child, minlength=2 * int((~degenerate).sum()))
        tree = np.repeat(tree[split[~degenerate]], 2)
        depth += 1
    return _preorder(levels, n_trees)


def _preorder(levels, n_trees: int) -> List[Nodes]:
    """Split breadth-first levels into per-tree depth-first node arrays."""
    tree, feature, threshold, value, size = (
        np.concatenate(part) for part in zip(*levels)
    )
    bounds = np.cumsum([0] + [lv[0].size for lv in levels])
    internal = feature != _LEAF
    # Level l + 1 lists the children of level l's internal nodes in
    # order, so all non-root nodes pair up with the internal nodes.
    parents = np.flatnonzero(internal)
    left = np.full(feature.size, _LEAF)
    right = np.full(feature.size, _LEAF)
    left[parents] = np.arange(n_trees, feature.size, 2)
    right[parents] = left[parents] + 1
    by_level = [parents[(parents >= lo) & (parents < hi)]
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    subtree = np.ones(feature.size, dtype=np.int64)
    for p in reversed(by_level):
        subtree[p] += subtree[left[p]] + subtree[right[p]]
    pre = np.zeros(feature.size, dtype=np.int64)
    for p in by_level:
        pre[left[p]] = pre[p] + 1
        pre[right[p]] = pre[p] + 1 + subtree[left[p]]

    # Node ids are breadth first and trees interleave; each tree's nodes
    # are ordered by (tree, pre-order index).
    first = np.cumsum(subtree[:n_trees]) - subtree[:n_trees]
    at = first[tree] + pre

    def placed(a):
        out = np.empty_like(a)
        out[at] = a
        return out

    arrays = [placed(a) for a in (
        feature, threshold,
        np.where(internal, pre[left], _LEAF),
        np.where(internal, pre[right], _LEAF),
        value, size,
    )]
    ends = first + subtree[:n_trees]
    return [
        Nodes(*(a[lo:hi] for a in arrays)) for lo, hi in zip(first, ends)
    ]


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
        self._nodes: Optional[Nodes] = None
        self._n_features = 0

    # -- fitting -------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_training_data(X, y)
        d = X.shape[1]
        k = n_candidate_features(self.max_features, d)
        if k < d and self.rng is None:
            self.rng = np.random.default_rng()
        (nodes,) = grow_trees(
            X, y, np.arange(X.shape[0])[None, :],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_candidates=k,
            rng=self.rng,
        )
        return self._fitted(nodes, d)

    def _fitted(self, nodes: Nodes, n_features: int) -> "DecisionTreeRegressor":
        self._nodes = nodes
        self._n_features = n_features
        return self

    # -- prediction -----------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._nodes is not None

    @property
    def node_count(self) -> int:
        return 0 if self._nodes is None else self._nodes.feature.size

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 = a single leaf)."""
        if self._nodes is None:
            raise RuntimeError("tree is not fitted")
        nodes = self._nodes
        frontier = np.zeros(1, dtype=np.int64)
        depth = 0
        while True:
            frontier = frontier[nodes.feature[frontier] != _LEAF]
            if not frontier.size:
                return depth
            frontier = np.concatenate(
                [nodes.left[frontier], nodes.right[frontier]]
            )
            depth += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values, shape ``(n,)``; vectorized descent."""
        if self._nodes is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must be (n, {self._n_features}), got shape {X.shape}"
            )
        features, thresholds, lefts, rights, values, _ = self._nodes

        current = np.zeros(X.shape[0], dtype=np.int64)
        active = features[current] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            nodes = current[idx]
            go_left = X[idx, features[nodes]] <= thresholds[nodes]
            current[idx] = np.where(go_left, lefts[nodes], rights[nodes])
            active[idx] = features[current[idx]] != _LEAF
        return values[current]
