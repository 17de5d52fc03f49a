"""The level-wise CART builder against the recursive reference.

``cart_oracle`` holds the recursive, node-by-node builder the level-wise
one replaced.  With every feature examined at every split (the only
setting any tuner or study uses), both must grow the same trees to the
last bit: the same ``(feature, threshold, value, n_samples)`` at every
node of a depth-first walk, and bit-identical ``predict``,
``predict_std`` and ``oob_score``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.tree import _segment_sums

from . import cart_oracle

PENALTY_MS = 1e4


@st.composite
def training_sets(draw):
    """Small-integer features with duplicate rows and penalized targets."""
    n = draw(st.integers(2, 400))
    d = draw(st.integers(1, 6))
    # Up to 1,000 distinct values make thousands of bins, which splits
    # wide levels into several split-search batches.
    levels = draw(st.sampled_from([1, 2, 3, 5, 8, 12, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, levels, (n, d)).astype(np.float64)
    repeats = rng.random(n) < 0.3
    X[repeats] = X[rng.integers(0, n, int(repeats.sum()))]
    if draw(st.booleans()):
        y = rng.lognormal(0.0, 1.0, n)
    else:
        y = np.full(n, 2.5)
    failed = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.25, 0.3]))
    y[failed] = PENALTY_MS
    return X, y


tree_settings = st.fixed_dictionaries({
    "min_samples_leaf": st.sampled_from([1, 3]),
    "max_depth": st.sampled_from([None, 1, 4]),
})


def walk(tree) -> list:
    """``(feature, threshold, value, n_samples)`` of each node, depth first."""
    nodes = tree._nodes
    if isinstance(nodes, list):  # the oracle's node objects
        def node(i):
            n = nodes[i]
            return (n.feature, n.threshold, n.value, n.n_samples), n.left, n.right
    else:
        def node(i):
            return (
                (int(nodes.feature[i]), float(nodes.threshold[i]),
                 float(nodes.value[i]), int(nodes.n_samples[i])),
                int(nodes.left[i]), int(nodes.right[i]),
            )
    out, stack = [], [0]
    while stack:
        fields, left, right = node(stack.pop())
        out.append(fields)
        if fields[0] != -1:
            stack += [right, left]
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(training_sets(), tree_settings, st.booleans(), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_forest_matches_recursive_reference(data, params, bootstrap,
                                            n_estimators, seed):
    X, y = data
    kwargs = dict(params, bootstrap=bootstrap, n_estimators=n_estimators)
    ours = RandomForestRegressor(rng=np.random.default_rng(seed), **kwargs)
    ref = cart_oracle.RandomForestRegressor(
        rng=np.random.default_rng(seed), **kwargs
    )
    ours.fit(X, y)
    ref.fit(X, y)

    for mine, theirs in zip(ours.trees, ref.trees, strict=True):
        assert walk(mine) == walk(theirs)
    probe = np.vstack([X, X + 0.5, X - 1.0])
    assert same_bits(ours.predict(probe), ref.predict(probe))
    assert same_bits(ours.predict_std(probe), ref.predict_std(probe))
    if bootstrap:
        assert same_bits(ours.oob_score(), ref.oob_score())
    # Both consumed the generator alike.
    assert ours.rng.bit_generator.state == ref.rng.bit_generator.state


@given(training_sets(), tree_settings)
@settings(max_examples=40, deadline=None)
def test_single_tree_matches_recursive_reference(data, params):
    X, y = data
    ours = DecisionTreeRegressor(**params).fit(X, y)
    ref = cart_oracle.DecisionTreeRegressor(**params).fit(X, y)
    assert walk(ours) == walk(ref)
    assert ours.node_count == ref.node_count
    assert ours.depth == ref.depth
    assert same_bits(ours.predict(X), ref.predict(X))


@given(st.lists(st.integers(1, 700), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_segment_sums_follow_ndarray_sum(lengths, seed):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    values = rng.standard_normal((int(lengths.sum()), 2))
    values *= 10.0 ** rng.integers(-4, 8, values.shape)
    start = np.cumsum(lengths) - lengths
    got = _segment_sums(np.vstack([values, [-0.0, -0.0]]), start, lengths)
    want = np.array([
        [np.ascontiguousarray(values[s:s + n, c]).sum() for c in range(2)]
        for s, n in zip(start, lengths)
    ])
    assert same_bits(got, want)


def test_segment_sums_of_negative_zeros():
    values = np.full((3, 1), -0.0)
    got = _segment_sums(values, np.array([0]), np.array([2]))
    assert same_bits(got, [[np.full(2, -0.0).sum()]])
