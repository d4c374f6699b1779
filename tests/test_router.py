"""Forest.leaves and everything built on it against per-tree reference loops.

The reference router is the depth-first, one-tree-at-a-time routing the
library used before the packed router, and the reference estimators
are the per-tree accumulation loops the forest used on top of it. Every
comparison is exact: the packed versions add the same numbers in the same
order.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox.data_model import Dataset
from forestprox.forest import Forest, ForestParams, train_forest
from forestprox.tree import TreeParams, route
from test_tree import leaves_of, tree_view


def trees_of(f):
    return [tree_view(f, t) for t in range(f.n_trees)]


def reference_apply(t, X):
    """Leaf of every row of X in tree t, one node at a time."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if t.feature[node] < 0:
            out[idx] = node
            continue
        mask = X[idx, t.feature[node]] <= t.threshold[node]
        l_idx, r_idx = idx[mask], idx[~mask]
        if l_idx.size:
            stack.append((int(t.left[node]), l_idx))
        if r_idx.size:
            stack.append((int(t.right[node]), r_idx))
    return out


def reference_locate(t, x):
    i = 0
    while t.feature[i] >= 0:
        i = t.left[i] if x[t.feature[i]] <= t.threshold[i] else t.right[i]
    return i


def reference_predict(f, X, mode):
    q = X.shape[0]
    if mode == "prox":
        num = np.zeros(q)
        den = np.zeros(q)
        for t in trees_of(f):
            leaves = reference_apply(t, X)
            num += t.leaf_pos[leaves]
            den += t.leaf_n[leaves]
        return num / den
    acc = np.zeros(q)
    for t in trees_of(f):
        leaves = reference_apply(t, X)
        p_t = t.leaf_pos[leaves] / t.leaf_n[leaves]
        acc += (p_t >= 0.5) if mode == "class_vote" else p_t
    return acc / f.n_trees


def reference_proximity_many(f, X, z):
    acc = np.zeros(X.shape[0])
    for t in trees_of(f):
        acc += reference_apply(t, X) == reference_locate(t, z)
    return acc / f.n_trees


def reference_voting_weights(f, x0):
    counts = np.zeros(f.train.n)
    for t in trees_of(f):
        same = reference_apply(t, f.train.features) == reference_locate(t, x0)
        counts += np.where(same, t.inbag, 0)
    return counts / counts.sum()


def with_single_leaf_tree(f):
    """f with one more tree: a single leaf holding every training row once."""
    return Forest(
        f.train, replace(f.params, n_trees=f.n_trees + 1),
        np.append(f.n_nodes, 1), np.append(f.feature, -1), np.append(f.threshold, np.nan),
        np.vstack([f.inbag, np.ones(f.train.n, dtype=np.int64)]),
    )


# Few distinct values, so trees split on ties, and both signed zeros.
VALUES = (-1.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0)


@st.composite
def forests_and_queries(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    p = draw(st.integers(min_value=1, max_value=3))
    features = np.array(draw(st.lists(
        st.sampled_from(VALUES), min_size=n * p, max_size=n * p,
    ))).reshape(n, p)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    d = Dataset(features, labels, tuple(f"f{j}" for j in range(p)))
    params = ForestParams(
        n_trees=draw(st.integers(min_value=1, max_value=4)),
        tree=TreeParams(
            mtry=draw(st.integers(min_value=1, max_value=p)),
            min_node_size=draw(st.sampled_from([1, 3])),
            split_mode=draw(st.sampled_from(["impurity", "completely_random"])),
            bootstrap=draw(st.booleans()),
        ),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    f = train_forest(d, params)
    if draw(st.booleans()):
        f = with_single_leaf_tree(f)
    # Queries sit on thresholds, one float either side of them, on the
    # training values and on both zeros.
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in trees_of(f)])
    pool = np.unique(np.concatenate([
        thresholds, np.nextafter(thresholds, np.inf), np.nextafter(thresholds, -np.inf),
        np.array(VALUES), [-0.0, 0.0, -3.0, 3.0],
    ]))
    pool = np.concatenate([pool, [-0.0]])  # np.unique keeps only one zero
    q = draw(st.one_of(st.sampled_from([0, 1]), st.integers(min_value=2, max_value=12)))
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(pool) - 1), min_size=q * p, max_size=q * p,
    ))
    return f, pool[np.array(picks, dtype=np.int64)].reshape(q, p)


@st.composite
def forests_and_non_finite_queries(draw):
    """A forest and queries as above, with some cells NaN or +-inf."""
    f, X = draw(forests_and_queries())
    kind = np.array(draw(st.lists(
        st.integers(min_value=0, max_value=3), min_size=X.size, max_size=X.size,
    )), dtype=np.int64).reshape(X.shape)
    return f, np.where(kind == 0, X, np.array([0.0, np.nan, np.inf, -np.inf])[kind])


class TestRoute:
    @settings(max_examples=80, deadline=None)
    @given(case=forests_and_non_finite_queries())
    def test_equals_reference_walkers(self, case):
        # route itself takes NaN and +-inf (NaN as +inf, so right at every
        # split); Forest.leaves refuses them before it is reached
        f, X = case
        L = route(f.feature, f.threshold, f.first_child, f.roots[:, None], np.arange(len(X)), X)
        assert L.shape == (f.n_trees, len(X))
        for t, (tree, row) in enumerate(zip(trees_of(f), L)):
            np.testing.assert_array_equal(row, f.roots[t] + reference_apply(tree, X))
        if len(X):  # a pair started at a leaf stays there
            leaf = np.flatnonzero(f.feature < 0)
            np.testing.assert_array_equal(
                route(f.feature, f.threshold, f.first_child, leaf, 0, X), leaf
            )

    def test_pairs_broadcast_to_the_result(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), ("a", "b", "c"))
        f = train_forest(d, ForestParams(n_trees=4, tree=TreeParams(mtry=2), seed=6))
        X = rng.normal(size=(7, 3))
        L = f.leaves(X)
        t, i = np.nonzero(rng.integers(0, 2, size=L.shape))
        np.testing.assert_array_equal(
            route(f.feature, f.threshold, f.first_child, f.roots[t], i, X), L[t, i]
        )
        assert route(f.feature, f.threshold, f.first_child, f.roots[:0], 0, X).shape == (0,)


class TestInBagRouting:
    """The constructor routes only each tree's in-bag training rows."""

    @settings(max_examples=60, deadline=None)
    @given(case=forests_and_queries())
    def test_leaf_counts_and_weights_equal_every_pair_routed(self, case):
        f, X = case
        G = f.leaves(f.train.features)  # every pair, in bag or not
        m = len(f.feature)
        np.testing.assert_array_equal(
            f.leaf_n, np.bincount(G.ravel(), weights=f.inbag.ravel(), minlength=m)
        )
        np.testing.assert_array_equal(
            f.leaf_pos,
            np.bincount(G.ravel(), weights=(f.inbag * f.train.labels).ravel(), minlength=m),
        )
        for x in X[:3]:
            counts = np.where(G == f.leaves(x[None]), f.inbag, 0).sum(axis=0)
            np.testing.assert_array_equal(f.voting_weights(x), counts / counts.sum())

    @settings(max_examples=40, deadline=None)
    @given(case=forests_and_queries())
    def test_out_of_bag_training_leaves_hold_minus_one(self, case):
        f, _ = case
        G = f.leaves(f.train.features)  # every pair, in bag or not
        np.testing.assert_array_equal(f._train_leaves, np.where(f.inbag > 0, G, -1))

    def test_bootstrap_leaves_some_rows_out_of_bag(self):
        rng = np.random.default_rng(7)
        d = Dataset(rng.normal(size=(100, 2)), rng.integers(0, 2, 100), ("a", "b"))
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=8))
        out = f.inbag == 0
        assert out.any(axis=1).all()
        assert (f._train_leaves[out] == -1).all()
        assert (f.feature[f._train_leaves[~out]] < 0).all()


class TestLeaves:
    @settings(max_examples=80, deadline=None)
    @given(case=forests_and_queries())
    def test_equals_reference_router(self, case):
        f, X = case
        L = f.leaves(X)
        assert L.shape == (f.n_trees, X.shape[0])
        for t, (tree, row) in enumerate(zip(trees_of(f), L)):
            np.testing.assert_array_equal(row, f.roots[t] + reference_apply(tree, X))
        assert (f.feature[L] < 0).all()

    @settings(max_examples=40, deadline=None)
    @given(case=forests_and_queries())
    def test_ids_index_the_node_table(self, case):
        # tree t's ids lie in its own range of the table and land on
        # leaves, whose leaf_n and leaf_pos count the training rows, at
        # their in-bag multiplicity, that reach the same leaf
        f, X = case
        L, train = f.leaves(X), f.leaves(f.train.features)
        lo = f.roots[:, None]
        assert ((lo <= L) & (L < lo + f.n_nodes[:, None])).all()
        assert (f.feature[L] < 0).all()
        shared = L[:, :, None] == train[:, None, :]  # (T, q, n)
        np.testing.assert_array_equal(
            f.leaf_n[L], (shared * f.inbag[:, None, :]).sum(axis=2)
        )
        np.testing.assert_array_equal(
            f.leaf_pos[L], (shared * (f.inbag * f.train.labels)[:, None, :]).sum(axis=2)
        )

    @settings(max_examples=40, deadline=None)
    @given(case=forests_and_queries())
    def test_estimators_equal_reference_loops(self, case):
        f, X = case
        for mode in ("class_vote", "reg_mean", "prox"):
            np.testing.assert_array_equal(
                f.predict_proba_batch(X, mode), reference_predict(f, X, mode)
            )
            L = f.leaves(X)
            np.testing.assert_array_equal(f.estimate(L, mode), reference_predict(f, X, mode))
        if len(X):
            z = X[0]
            np.testing.assert_array_equal(
                f.proximity_many(X, z), reference_proximity_many(f, X, z)
            )
            np.testing.assert_array_equal(
                f.proximity_many(X[-1:], z), reference_proximity_many(f, X[-1:], z)
            )
            np.testing.assert_array_equal(f.voting_weights(z), reference_voting_weights(f, z))

    def test_leaf_rows_indexing(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(60, 3)), rng.integers(0, 2, 60), ("a", "b", "c"))
        f = train_forest(
            d, ForestParams(n_trees=5, tree=TreeParams(mtry=2, bootstrap=False), seed=1)
        )
        # ids index the table: the training rows routed to a leaf of tree
        # t, counted inbag[t] times, are the rows tree t counts there
        L = f.leaves(d.features)
        m = len(f.feature)
        for t, (tree, row) in enumerate(zip(trees_of(f), L)):
            nodes = slice(f.roots[t], f.roots[t] + f.n_nodes[t])
            n = np.bincount(row, weights=tree.inbag, minlength=m)
            pos = np.bincount(row, weights=tree.inbag * d.labels, minlength=m)
            assert n[nodes].sum() == n.sum()  # no row leaves its tree's range
            np.testing.assert_array_equal(n[nodes], tree.leaf_n)
            np.testing.assert_array_equal(pos[nodes], tree.leaf_pos)

    def test_route_sends_nan_right(self):
        # Forest.leaves refuses NaN; under it, route sends NaN to the second
        # child, since NaN fails x <= threshold
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(60, 2)), rng.integers(0, 2, 60), ("a", "b"))
        f = train_forest(d, ForestParams(n_trees=1, tree=TreeParams(mtry=1), seed=4))
        t = tree_view(f)
        X = rng.normal(size=(30, 2))
        X[::2, 0] = X[::3, 1] = np.nan
        leaves = leaves_of(t, X)
        np.testing.assert_array_equal(leaves, reference_apply(t, X))
        inf = np.full((1, 2), np.inf)
        assert leaves[0] == leaves_of(t, inf)[0]
        with pytest.raises(ValueError, match="non-finite"):
            f.leaves(X)

    def test_empty_batch(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), ("a", "b"))
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=2))
        assert f.leaves(np.empty((0, 2))).shape == (3, 0)
        for mode in ("class_vote", "reg_mean", "prox"):
            assert f.predict_proba_batch(np.empty((0, 2)), mode).shape == (0,)
        assert f.proximity_matrix(np.empty((0, 2))).shape == (0, 0)

    def test_reg_mean_adds_trees_in_order(self):
        # many trees and one point at a time: numpy's own sum over trees
        # would add pairwise and change the last bits for most points
        rng = np.random.default_rng(2)
        d = Dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200), ("a", "b", "c"))
        f = train_forest(
            d, ForestParams(n_trees=60, tree=TreeParams(mtry=1, min_node_size=7), seed=3)
        )
        X = rng.normal(size=(20, 3))
        for q in (1, 2):
            for i in range(0, len(X), q):
                np.testing.assert_array_equal(
                    f.predict_proba_batch(X[i:i + q], "reg_mean"),
                    reference_predict(f, X[i:i + q], "reg_mean"),
                )
