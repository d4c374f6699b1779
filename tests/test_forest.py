import base64
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox import data_model
from forestprox import tree as tree_module
from forestprox.data_model import Dataset
from forestprox.forest import Forest, ForestParams, derive_seeds, train_forest
from forestprox.synthgen import get_model, sample
from forestprox.tree import TreeParams, node_depth
from test_tree import grow_one, same_tree, tree_view


def make_data(features, labels, names=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    names = names or tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, np.asarray(labels), names)


def hand_built_tree(thresholds, inbag):
    """(feature, threshold, inbag) of a tree splitting feature 0 at its
    breadth-first `thresholds`, NaN at leaves; inbag counts the draws of
    every training row."""
    threshold = np.array(thresholds, dtype=np.float64)
    return np.where(np.isnan(threshold), -1, 0), threshold, np.array(inbag)


def single_leaf_tree(inbag):
    return hand_built_tree([np.nan], inbag)


def stump(inbag):
    """Tree splitting feature 0 at 0.5."""
    return hand_built_tree([0.5, np.nan, np.nan], inbag)


def leaf_fraction(f, t, x):
    """Positive fraction of the leaf x reaches in tree t of forest f."""
    leaf = f.leaves(np.asarray(x, dtype=np.float64)[None, :])[t, 0]
    return f.leaf_pos[leaf] / f.leaf_n[leaf]


def forest_from_trees(trees, train, n_trees=None):
    """Forest of hand-built trees, built from their arrays as `load` builds one."""
    feature, threshold, inbag = zip(*trees)
    params = ForestParams(
        n_trees=n_trees or len(trees), tree=TreeParams(mtry=1, bootstrap=False), seed=0
    )
    return Forest(
        train, params, np.array([len(f) for f in feature]),
        np.concatenate(feature), np.concatenate(threshold), np.array(inbag),
    )


def trees_of(f):
    return [tree_view(f, t) for t in range(f.n_trees)]


def random_data(rng, n, p):
    return Dataset(
        rng.normal(size=(n, p)),
        rng.integers(0, 2, n),
        tuple(f"f{j}" for j in range(p)),
    )


class TestTrainForest:
    def test_single_tree_reduction(self):
        d = random_data(np.random.default_rng(0), 60, 3)
        f = train_forest(d, ForestParams(n_trees=1, tree=TreeParams(mtry=2), seed=4))
        x = d.features[5]
        single = leaf_fraction(f, 0, x)
        assert f.predict_proba_batch(x[None], "reg_mean")[0] == pytest.approx(single)
        assert f.predict_proba_batch(x[None], "prox")[0] == pytest.approx(single)
        assert f.predict_proba_batch(x[None], "class_vote")[0] == float(single >= 0.5)

    def test_deterministic(self):
        d = random_data(np.random.default_rng(1), 80, 3)
        params = ForestParams(n_trees=12, tree=TreeParams(mtry=2), seed=9)
        a = train_forest(d, params)
        b = train_forest(d, params)
        X = np.random.default_rng(2).normal(size=(40, 3))
        for mode in ("class_vote", "reg_mean", "prox"):
            np.testing.assert_array_equal(
                a.predict_proba_batch(X, mode), b.predict_proba_batch(X, mode)
            )

    def test_tree_seeds_are_stable_per_index(self):
        d = random_data(np.random.default_rng(1), 50, 2)
        small = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=5))
        large = train_forest(d, ForestParams(n_trees=6, tree=TreeParams(mtry=1), seed=5))
        assert derive_seeds(5, 3) == derive_seeds(5, 6)[:3]
        for t_small, t_large in zip(trees_of(small), trees_of(large)):
            assert same_tree(t_small, t_large)


@pytest.mark.parametrize(
    "chunk_elements, group_rows", [(1, 1), (1 << 62, 1 << 62)], ids=["smallest", "unbounded"]
)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    p=st.integers(min_value=1, max_value=4),
    ties=st.booleans(),
    n_trees=st.integers(min_value=1, max_value=9),
    mtry=st.integers(min_value=1, max_value=4),
    min_node_size=st.sampled_from([1, 5]),
    max_leaves=st.sampled_from([None, 3, 17]),
    mode=st.sampled_from(["impurity", "completely_random"]),
    bootstrap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forest_trees_are_the_trees_grown_alone(
    chunk_elements, group_rows, n, p, ties, n_trees, mtry, min_node_size, max_leaves, mode,
    bootstrap, seed,
):
    # Trees grown together, with a level cut into one call per node or
    # none, and one tree per group or one group, are bit for bit the trees
    # grown one at a time under the default caps.
    rng = np.random.default_rng(seed)
    if ties:
        X = rng.integers(-1, 2, size=(n, p)).astype(float)
        X[X == 0] = rng.choice([0.0, -0.0], size=int((X == 0).sum()))
    else:
        X = rng.normal(size=(n, p))
    d = Dataset(X, rng.integers(0, 2, n), tuple(f"f{j}" for j in range(p)))
    params = ForestParams(n_trees, TreeParams(
        mtry=min(mtry, p),
        min_node_size=min_node_size,
        max_leaves=max_leaves,
        split_mode=mode,
        bootstrap=bootstrap,
    ), seed=seed)
    alone = [tree_view(grow_one(d, params.tree, s)) for s in derive_seeds(seed, n_trees)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "_CHUNK_ELEMENTS", chunk_elements)
        mp.setattr(tree_module, "_GROUP_ROWS", group_rows)
        forest = train_forest(d, params)
    for t, ref in enumerate(alone):
        got = tree_view(forest, t)
        for name in ("feature", "threshold", "leaf_n", "leaf_pos", "inbag"):
            a, b = getattr(got, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=160),
    p=st.integers(min_value=1, max_value=4),
    ties=st.booleans(),
    n_trees=st.integers(min_value=1, max_value=5),
    mtry=st.integers(min_value=1, max_value=4),
    sizes=st.sampled_from([(1, 5), (5, 25), (5, 50)]),
    mode=st.sampled_from(["impurity", "completely_random"]),
    bootstrap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cut_is_the_forest_grown_at_the_larger_node_size(
    n, p, ties, n_trees, mtry, sizes, mode, bootstrap, seed
):
    rng = np.random.default_rng(seed)
    X = rng.integers(-1, 2, size=(n, p)).astype(float) if ties else rng.normal(size=(n, p))
    d = Dataset(X, rng.integers(0, 2, n), tuple(f"f{j}" for j in range(p)))
    Q = rng.normal(size=(30, p))

    def params(min_node_size):
        return ForestParams(n_trees, TreeParams(
            mtry=min(mtry, p),
            min_node_size=min_node_size,
            split_mode=mode,
            bootstrap=bootstrap,
        ), seed=seed)

    small, large = sizes
    got = train_forest(d, params(small)).cut(large)
    want = train_forest(d, params(large))
    assert got.params == want.params
    for name in ("n_nodes", "feature", "threshold", "inbag"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for m in ("class_vote", "reg_mean", "prox"):
        assert got.predict_proba_batch(Q, m).tobytes() == want.predict_proba_batch(Q, m).tobytes()


class TestCut:
    @pytest.mark.parametrize(
        "size, error, message",
        [
            (4, ValueError, "min_node_size 5 to 4"),
            # refused before any work, even where the value equals the grown size
            (5.0, TypeError, "min_node_size must be an integer, got 5.0"),
            (True, TypeError, "min_node_size must be an integer, got True"),
            (7.5, TypeError, "min_node_size must be an integer, got 7.5"),
        ],
    )
    def test_refuses_a_smaller_node_size(self, size, error, message):
        d = random_data(np.random.default_rng(0), 80, 3)
        f = train_forest(d, ForestParams(3, TreeParams(mtry=2, min_node_size=5), seed=1))
        with pytest.raises(error, match=message):
            f.cut(size)

    def test_refuses_a_forest_grown_with_max_leaves(self):
        d = random_data(np.random.default_rng(0), 80, 3)
        f = train_forest(d, ForestParams(3, TreeParams(mtry=2, max_leaves=9), seed=1))
        with pytest.raises(ValueError, match="max_leaves"):
            f.cut(5)

    def test_own_node_size_is_the_forest_itself(self):
        d = random_data(np.random.default_rng(0), 80, 3)
        f = train_forest(d, ForestParams(3, TreeParams(mtry=2, min_node_size=5), seed=1))
        assert f.cut(5) is f

    def test_cut_to_a_numpy_size_can_be_saved(self, tmp_path):
        d = random_data(np.random.default_rng(0), 120, 3)
        cut = train_forest(d, ForestParams(4, TreeParams(mtry=2), seed=1)).cut(np.int64(5))
        assert type(cut.params.tree.min_node_size) is int
        cut.save(tmp_path / "c.json")
        assert Forest.load(tmp_path / "c.json").params == cut.params

    def test_cut_of_a_loaded_forest_can_be_saved(self, tmp_path):
        d = random_data(np.random.default_rng(0), 120, 3)
        f = train_forest(d, ForestParams(4, TreeParams(mtry=2), seed=1))
        f.save(tmp_path / "m.json")
        cut = Forest.load(tmp_path / "m.json").cut(10)
        assert cut.params.tree.min_node_size == 10
        assert cut.stats()["mean_leaf_count"] < f.stats()["mean_leaf_count"]
        cut.save(tmp_path / "c.json")
        again = Forest.load(tmp_path / "c.json")
        np.testing.assert_array_equal(again.feature, cut.feature)
        np.testing.assert_array_equal(again.leaf_n, cut.leaf_n)


class TestPredictProba:
    def test_all_labels_one(self):
        d = make_data(np.linspace(0, 1, 12), np.ones(12, dtype=int))
        f = train_forest(d, ForestParams(n_trees=5, tree=TreeParams(mtry=1), seed=0))
        X = np.array([[0.5]])
        for mode in ("class_vote", "reg_mean", "prox"):
            assert f.predict_proba_batch(X, mode)[0] == 1.0

    def test_hand_built_two_tree_weighting(self):
        # x0 = 0 reaches each stump's left leaf, which holds N_t of the 8
        # in-bag draws: 2 in the first stump, 6 in the second
        train = make_data([0, 0, 0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0, 1, 1])
        X = np.array([[0.0]])

        f = forest_from_trees([stump([1, 0, 1, 0, 2, 2, 1, 1]),
                               stump([3, 0, 3, 0, 1, 0, 1, 0])], train)
        assert f.predict_proba_batch(X, "reg_mean")[0] == pytest.approx(0.5)  # (1/2 + 3/6) / 2
        assert f.predict_proba_batch(X, "prox")[0] == pytest.approx(0.5)  # (1 + 3) / (2 + 6)

        f = forest_from_trees([stump([1, 1, 0, 0, 2, 2, 1, 1]),
                               stump([0, 0, 3, 3, 1, 0, 1, 0])], train)
        assert f.predict_proba_batch(X, "reg_mean")[0] == pytest.approx(0.5)  # (2/2 + 0/6) / 2
        assert f.predict_proba_batch(X, "prox")[0] == pytest.approx(2 / 8)  # (2 + 0) / (2 + 6)

    def test_round_half_votes_one(self):
        train = make_data(np.zeros(2), [0, 1])
        f = forest_from_trees([single_leaf_tree([1, 1])], train)
        assert f.predict_proba_batch(np.array([[0.0]]), "class_vote")[0] == 1.0

    def test_modes_bounded(self):
        rng = np.random.default_rng(3)
        d = random_data(rng, 100, 3)
        f = train_forest(d, ForestParams(n_trees=20, tree=TreeParams(mtry=2), seed=1))
        X = rng.normal(size=(200, 3))
        for mode in ("class_vote", "reg_mean", "prox"):
            preds = f.predict_proba_batch(X, mode)
            assert preds.min() >= 0.0 and preds.max() <= 1.0

    def test_singleton_leaves_make_prox_equal_class(self):
        # every leaf of size one: the three estimators coincide exactly
        train = make_data(np.arange(4, dtype=float), [0, 1, 1, 0])
        nan = np.nan
        chain = hand_built_tree([0.5, nan, 1.5, nan, 2.5, nan, nan], [1] * 4)
        balanced = hand_built_tree([1.5, 0.5, 2.5, nan, nan, nan, nan], [1] * 4)
        f = forest_from_trees([chain, balanced], train)
        X = np.linspace(-1, 4, 23)[:, None]
        np.testing.assert_allclose(
            f.predict_proba_batch(X, "prox"), f.predict_proba_batch(X, "class_vote")
        )
        np.testing.assert_allclose(
            f.predict_proba_batch(X, "prox"), f.predict_proba_batch(X, "reg_mean")
        )

    def test_purity_growth_prox_tracks_class(self):
        # with multi-row pure leaves the two estimators agree statistically,
        # not identically: leaf-size weighting shifts prox
        d = sample(get_model("logistic3d"), 300, seed=1)
        test = sample(get_model("logistic3d"), 200, seed=2)
        f = train_forest(
            d,
            ForestParams(
                n_trees=150, tree=TreeParams(mtry=1, min_node_size=1, bootstrap=False), seed=3
            ),
        )
        pc = f.predict_proba_batch(test.features, "class_vote")
        pp = f.predict_proba_batch(test.features, "prox")
        assert np.abs(pp - pc).mean() < 0.15
        assert np.corrcoef(pp, pc)[0, 1] > 0.9

    def test_dimension_mismatch(self):
        d = random_data(np.random.default_rng(4), 30, 2)
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=0))
        with pytest.raises(ValueError, match="expected"):
            f.predict_proba_batch(np.zeros((1, 3)), "reg_mean")
        with pytest.raises(ValueError, match="expected"):
            f.predict_proba_batch(np.zeros(2), "reg_mean")  # a point, not a matrix
        with pytest.raises(ValueError, match="mode"):
            f.predict_proba_batch(np.zeros((1, 2)), "median")

    @pytest.mark.parametrize("x", [[np.nan, np.nan], [np.inf, -np.inf], [0.0, np.nan]])
    def test_non_finite_query_rejected(self, x):
        # NaN would route right at every split and return a silent estimate
        d = sample(get_model("xor"), 60, seed=1)
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=0))
        with pytest.raises(ValueError, match="non-finite"):
            f.predict_proba_batch(np.array([x]), "prox")
        with pytest.raises(ValueError, match="non-finite"):
            f.proximity_many(np.zeros((1, 2)), x)
        with pytest.raises(ValueError, match="non-finite"):
            f.proximity_many(np.array([x]), np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            f.predict_proba_batch(np.array([[0.1, 0.2], x]), "reg_mean")


class TestFromTrees:
    """A forest of hand-built trees meets every check `load` makes, and
    takes its leaf counts from its training rows: a tree states none."""

    def test_tree_counts_are_not_read(self, tmp_path):
        train = make_data([0, 0, 0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0, 1, 1])
        trees = [
            single_leaf_tree([1] * 8),  # 8 draws, 4 positive
            stump([1, 1, 0, 0, 2, 2, 1, 1]),
            stump([0, 0, 3, 3, 1, 0, 1, 0]),
        ]
        f = forest_from_trees(trees, train)
        np.testing.assert_array_equal(f.leaf_n, [8, 0, 2, 6, 0, 6, 2])
        np.testing.assert_array_equal(f.leaf_pos, [4, 0, 2, 2, 0, 0, 1])
        X = np.array([[0.0], [1.0], [0.5], [-3.0], [3.0]])
        prox = f.predict_proba_batch(X, "prox")
        for x, p in zip(X, prox):
            assert f.voting_weights(x) @ train.labels == pytest.approx(p, abs=1e-12)
        path = tmp_path / "forest.json"
        f.save(path)
        g = Forest.load(path)
        for mode in ("class_vote", "reg_mean", "prox"):
            np.testing.assert_array_equal(
                g.predict_proba_batch(X, mode), f.predict_proba_batch(X, mode)
            )

    @pytest.mark.parametrize(
        "inbag, n_trees, message",
        [
            ([1, 1, 2], 1, "inbag must hold 4"),  # one row short
            ([1, 1, 1, 0], 1, "summing to 4"),
            ([0, 0, 2, 2], 1, "leaf_n > 0"),  # nothing drawn left of 0.5
            ([1, 1, 1, 1], 2, "holds 1 trees, params say 2"),
        ],
    )
    def test_refused_with_load_messages(self, inbag, n_trees, message):
        train = make_data([0, 0, 1, 1], [0, 1, 0, 1])
        with pytest.raises(ValueError, match=message):
            forest_from_trees([stump(inbag)], train, n_trees)

    def test_mtry_above_the_feature_count_refused(self):
        train = make_data([0, 0, 1, 1], [0, 1, 0, 1])
        params = ForestParams(1, TreeParams(mtry=2, bootstrap=False))
        feature, threshold, inbag = stump([1, 1, 1, 1])
        with pytest.raises(ValueError, match="mtry=2 exceeds feature count p=1"):
            Forest(train, params, np.array([3]), feature, threshold, np.array([inbag]))


class TestProximity:
    def test_self_proximity_is_one(self):
        d = random_data(np.random.default_rng(5), 60, 2)
        f = train_forest(d, ForestParams(n_trees=10, tree=TreeParams(mtry=1), seed=2))
        x = np.array([0.3, -0.8])
        assert f.proximity_many(x[None], x).tolist() == [1.0]

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        d = random_data(rng, 60, 2)
        f = train_forest(d, ForestParams(n_trees=15, tree=TreeParams(mtry=1), seed=2))
        for _ in range(10):
            x, z = rng.normal(size=2), rng.normal(size=2)
            assert f.proximity_many(x[None], z)[0] == f.proximity_many(z[None], x)[0]

    def test_hand_built_half_co_occupancy(self):
        train = make_data([0.2, 0.8], [0, 1])
        f = forest_from_trees([stump([1, 1]), single_leaf_tree([1, 1])], train)
        assert f.proximity_many(np.array([[0.2]]), np.array([0.8]))[0] == pytest.approx(0.5)

    def test_proximity_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        d = random_data(rng, 50, 2)
        f = train_forest(d, ForestParams(n_trees=8, tree=TreeParams(mtry=1), seed=3))
        z = rng.normal(size=2)
        X = rng.normal(size=(9, 2))
        many = f.proximity_many(X, z)
        single = [f.proximity_many(x[None], z)[0] for x in X]
        np.testing.assert_array_equal(many, single)
        # the fraction of trees in which x shares z's leaf
        np.testing.assert_array_equal(many, (f.leaves(X) == f.leaves(z[None])).mean(axis=0))


class TestProximityMatrix:
    def test_single_point(self):
        d = random_data(np.random.default_rng(8), 30, 2)
        f = train_forest(d, ForestParams(n_trees=5, tree=TreeParams(mtry=1), seed=1))
        P = f.proximity_matrix(d.features[:1])
        np.testing.assert_array_equal(P, [[1.0]])

    def test_symmetric_unit_diagonal(self):
        d = random_data(np.random.default_rng(9), 40, 2)
        f = train_forest(
            d, ForestParams(n_trees=10, tree=TreeParams(mtry=1, bootstrap=False), seed=1)
        )
        P = f.proximity_matrix(d.features)
        np.testing.assert_array_equal(P, P.T)
        np.testing.assert_allclose(np.diag(P), 1.0)
        assert P.min() >= 0.0 and P.max() <= 1.0

    def test_positive_semidefinite_small_forest(self):
        d = random_data(np.random.default_rng(10), 10, 2)
        f = train_forest(
            d, ForestParams(n_trees=25, tree=TreeParams(mtry=2, bootstrap=False), seed=4)
        )
        P = f.proximity_matrix(d.features)
        eigs = np.linalg.eigvalsh(P)
        assert eigs.min() >= -1e-9

    def test_one_minus_p_embeds_in_euclidean_space(self):
        # double-centering -(1/2) J (1 - P) J must be PSD
        d = random_data(np.random.default_rng(11), 12, 3)
        f = train_forest(
            d, ForestParams(n_trees=30, tree=TreeParams(mtry=2, bootstrap=False), seed=5)
        )
        P = f.proximity_matrix(d.features)
        n = P.shape[0]
        J = np.eye(n) - np.ones((n, n)) / n
        G = -0.5 * J @ (1.0 - P) @ J
        assert np.linalg.eigvalsh(G).min() >= -1e-9

    def test_cap_guard(self, monkeypatch):
        d = random_data(np.random.default_rng(12), 30, 2)
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=0))
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 9 * 10 * 10)
        with pytest.raises(ValueError, match="cap of 900"):
            f.proximity_matrix(d.features)

    def test_byte_bound_checked_before_allocating(self, monkeypatch):
        # a broadcast query holds no n x p matrix, so a guard that ran after
        # any allocation of the result or the leaves would show in the peak
        import tracemalloc

        d = random_data(np.random.default_rng(12), 30, 2)
        f = train_forest(d, ForestParams(n_trees=3, tree=TreeParams(mtry=1), seed=0))
        n = int(np.sqrt(data_model.MAX_REQUEST_BYTES / 9)) + 1
        X = np.broadcast_to(np.zeros(2), (n, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                f.proximity_matrix(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        # the bound counts 9 bytes a pair: 8 for the result, 1 for the mask
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 900)
        assert f.proximity_matrix(d.features[:10]).shape == (10, 10)
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 899)
        with pytest.raises(ValueError, match="cap"):
            f.proximity_matrix(d.features[:10])


class TestVotingWeights:
    def test_sum_to_one_and_nonnegative(self):
        d = random_data(np.random.default_rng(13), 70, 3)
        f = train_forest(d, ForestParams(n_trees=12, tree=TreeParams(mtry=2), seed=6))
        w = f.voting_weights(np.zeros(3))
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_weighted_labels_equal_prox_estimate(self, bootstrap):
        rng = np.random.default_rng(14)
        d = random_data(rng, 80, 3)
        f = train_forest(
            d,
            ForestParams(
                n_trees=15,
                tree=TreeParams(mtry=2, min_node_size=4, bootstrap=bootstrap),
                seed=7,
            ),
        )
        X = rng.normal(size=(8, 3))
        for x, p in zip(X, f.predict_proba_batch(X, "prox")):
            assert f.voting_weights(x) @ d.labels == pytest.approx(p, abs=1e-12)

    def test_single_tree_uniform_over_leaf(self):
        rng = np.random.default_rng(15)
        d = random_data(rng, 40, 2)
        f = train_forest(
            d,
            ForestParams(
                n_trees=1, tree=TreeParams(mtry=1, min_node_size=5, bootstrap=False), seed=8
            ),
        )
        x = rng.normal(size=2)
        w = f.voting_weights(x)
        inside = f.leaves(d.features)[0] == f.leaves(x[None, :])[0, 0]
        np.testing.assert_array_equal(f.inbag, 1)
        np.testing.assert_allclose(w[inside], 1.0 / inside.sum())
        np.testing.assert_allclose(w[~inside], 0.0)


class TestStats:
    def test_single_leaf_forest(self):
        train = make_data([0.0, 1.0], [0, 1])
        f = forest_from_trees([single_leaf_tree([1, 1])], train)
        s = f.stats()
        assert s["mean_leaf_count"] == 1.0
        assert s["mean_depth"] == 0.0

    def test_mean_of_leaf_counts(self):
        train = make_data([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], [0, 1, 0, 1, 0, 1])
        nan = np.nan
        three = hand_built_tree([0.3, nan, 0.7, nan, nan], [1] * 6)  # depth 2
        five = hand_built_tree([0.1, nan, 0.3, nan, 0.5, nan, 0.7, nan, nan], [1] * 6)  # depth 4
        f = forest_from_trees([three, five], train)
        assert f.stats() == {"mean_leaf_count": 4.0, "mean_depth": 3.0}

    def test_table_depths_are_the_trees_depths(self):
        def reference_depth(t):
            depth = np.zeros(t.n_nodes, dtype=np.int64)
            for k in np.flatnonzero(t.feature >= 0):  # a parent comes before its children
                depth[t.left[k]] = depth[t.right[k]] = depth[k] + 1
            return depth

        d = random_data(np.random.default_rng(18), 80, 3)
        f = train_forest(d, ForestParams(n_trees=6, tree=TreeParams(mtry=1), seed=2))
        trees = trees_of(f)
        depth = node_depth(f.feature, f.first_child, f.roots)
        alone = [node_depth(t.feature, t.left, [0]) for t in trees]
        np.testing.assert_array_equal(depth, np.concatenate(alone))
        np.testing.assert_array_equal(depth, np.concatenate([reference_depth(t) for t in trees]))
        assert f.stats()["mean_depth"] == np.mean([reference_depth(t).max() for t in trees]) > 1

    def test_uniform_leaf_sizes_collapse_reg_and_prox(self):
        rng = np.random.default_rng(16)
        d = random_data(rng, 50, 2)
        f = train_forest(
            d,
            ForestParams(
                n_trees=9, tree=TreeParams(mtry=1, max_leaves=1, bootstrap=True), seed=9
            ),
        )
        X = rng.normal(size=(20, 2))
        np.testing.assert_allclose(
            f.predict_proba_batch(X, "reg_mean"), f.predict_proba_batch(X, "prox")
        )


class TestVoteCollapse:
    def test_bagged_stumps_concentrate_votes(self):
        d = sample(get_model("motivating50"), 600, seed=21)
        test = sample(get_model("motivating50"), 400, seed=22)
        f = train_forest(
            d,
            ForestParams(
                n_trees=200,
                tree=TreeParams(mtry=50, max_leaves=2, bootstrap=True),
                seed=10,
            ),
        )
        preds = f.predict_proba_batch(test.features, "class_vote")
        outside = (preds < 0.1) | (preds > 0.9)
        assert outside.mean() >= 0.9


class TestSaveLoad:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(17)
        d = random_data(rng, 60, 3)
        f = train_forest(
            d, ForestParams(n_trees=8, tree=TreeParams(mtry=2, min_node_size=3), seed=11)
        )
        path = tmp_path / "forest.json"
        f.save(path)
        g = Forest.load(path)
        X = rng.normal(size=(25, 3))
        for mode in ("class_vote", "reg_mean", "prox"):
            np.testing.assert_array_equal(
                f.predict_proba_batch(X, mode), g.predict_proba_batch(X, mode)
            )
        np.testing.assert_array_equal(f.train.features, g.train.features)
        assert g.params == f.params

    def test_round_trip_numpy_params(self, tmp_path):
        # numpy integers are stored as ints, so the params save as JSON
        d = random_data(np.random.default_rng(3), 60, 3)
        tree = TreeParams(mtry=np.int64(2), min_node_size=np.int32(3), max_leaves=np.uint8(4))
        f = train_forest(d, ForestParams(np.int64(3), tree, seed=np.uint64(7)))
        f.save(tmp_path / "f.json")
        g = Forest.load(tmp_path / "f.json")
        assert g.params == f.params
        np.testing.assert_array_equal(g.feature, f.feature)
        np.testing.assert_array_equal(g.threshold, f.threshold)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        p=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(["impurity", "completely_random"]),
        bootstrap=st.booleans(),
        max_leaves=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_round_trip_derives_leaf_counts(self, n, p, mode, bootstrap, max_leaves, seed):
        # load keeps no leaf counts from the file; routing the training rows
        # at their in-bag multiplicity must give back the grown ones
        rng = np.random.default_rng(seed)
        d = Dataset(rng.integers(0, 4, size=(n, p)) / 2.0, rng.integers(0, 2, n),
                    tuple(f"f{j}" for j in range(p)))
        tree = TreeParams(
            mtry=p, max_leaves=max_leaves, bootstrap=bootstrap,
            split_mode=mode,
        )
        f = train_forest(d, ForestParams(n_trees=3, tree=tree, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "forest.json", Path(tmp) / "again.json"
            f.save(path)
            g = Forest.load(path)
            g.save(again)
            assert again.read_bytes() == path.read_bytes()
        for a, b in zip(trees_of(f), trees_of(g)):
            assert same_tree(b, a)
        assert g.params == f.params
        X = np.vstack([d.features, rng.uniform(-0.5, 2.0, size=(5, p))])
        for pm in ("class_vote", "reg_mean", "prox"):
            assert f.predict_proba_batch(X, pm).tobytes() == g.predict_proba_batch(X, pm).tobytes()
        for x in X[::7]:
            assert f.proximity_many(X, x).tobytes() == g.proximity_many(X, x).tobytes()
            assert f.voting_weights(x).tobytes() == g.voting_weights(x).tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="forestprox-forest"):
            Forest.load(path)


# A saved file's arrays, decoded and re-encoded without the library's
# reader and writer. Integers are widened to int64 and written back that
# wide, so the reader must also take dtypes the writer never narrows to.
NODE_ARRAYS = ("feature", "threshold")


def decode_arrays(payload):
    out = {}
    for name, h in payload["arrays"].items():
        a = np.frombuffer(base64.b64decode(h["data"]), dtype=h["dtype"]).reshape(h["shape"])
        out[name] = a.astype(np.int64) if a.dtype.kind in "iu" else a.copy()
    return out


def encode_arrays(arrays):
    out = {}
    for name, a in arrays.items():
        dt = a.dtype.newbyteorder("<")
        data = base64.b64encode(a.astype(dt).tobytes()).decode("ascii")
        out[name] = {"dtype": dt.str, "shape": list(a.shape), "data": data}
    return out


# Each corrupts a saved forest's arrays, most of them tree 0, which holds
# the first n_nodes[0] nodes and inbag row 0; leaf_of is the leaf each
# training row reaches in tree 0.
def _self_loop(a, leaf_of):
    # the root becomes a leaf and the last node a split, so the count of
    # nodes holds; that split's second child is the node itself
    last = a["n_nodes"][0] - 1
    a["feature"][0], a["threshold"][0] = -1, np.nan
    a["feature"][last], a["threshold"][last] = 0, 0.0


def _child_out_of_range(a, leaf_of):
    # the first leaf becomes a split, so the last split's children lie
    # past the tree's last node
    first_leaf = np.flatnonzero(a["feature"] < 0)[0]
    a["feature"][first_leaf], a["threshold"][first_leaf] = 0, 0.0


def _feature_out_of_range(a, leaf_of):
    a["feature"][0] = 2


def _threshold_not_finite(a, leaf_of):
    a["threshold"][0] = np.nan


def _arrays_of_unequal_length(a, leaf_of):
    a["threshold"] = a["threshold"][:-1]


def _n_nodes_of_wrong_length(a, leaf_of):
    a["n_nodes"] = a["n_nodes"][:1]


def _n_nodes_of_wrong_shape(a, leaf_of):
    a["n_nodes"] = a["n_nodes"][:, None]


def _n_nodes_of_no_dimension(a, leaf_of):
    a["n_nodes"] = a["n_nodes"][0]


def _inbag_too_short(a, leaf_of):
    a["inbag"] = a["inbag"][:, :-1]


def _negative_count(a, leaf_of):
    b = a["inbag"][0]
    b[0], b[1] = -1, b[1] + b[0] + 1  # the sum stays n


def _counts_not_summing_to_n(a, leaf_of):
    a["inbag"][0, 0] += 1


def _fractional_count(a, leaf_of):
    a["inbag"] = a["inbag"].astype(np.float64)
    a["inbag"][0, 0] += 0.5
    a["inbag"][0, 1] -= 0.5


def _counts_wrapping_to_n(a, leaf_of):
    a["inbag"][0, :4] += 2**62  # four times 2**62 wraps an int64 sum back to n


def _empty_leaf(a, leaf_of):
    # move every in-bag draw of one leaf's rows to a row of another leaf
    b = a["inbag"][0]
    here = leaf_of == leaf_of[np.flatnonzero(b)[0]]
    b[np.flatnonzero(~here)[0]] += b[here].sum()
    b[here] = 0


def _fractional(name, delta):
    def corrupt(a, leaf_of):
        a[name] = a[name].astype(np.float64)
        a[name][0] += delta
    corrupt.__name__ = f"_fractional_{name}"
    return corrupt


def _features_of_wrong_width(a, leaf_of):
    a["features"] = a["features"][:, :1]


def _labels_too_short(a, leaf_of):
    a["labels"] = a["labels"][:-1]


class TestLoadValidation:
    """A model file whose tree could misroute or hang fails at load."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        d = sample(get_model("xor"), 60, seed=3)
        f = train_forest(
            d, ForestParams(n_trees=2, tree=TreeParams(mtry=2, min_node_size=3), seed=0)
        )
        path = tmp_path_factory.mktemp("load") / "forest.json"
        f.save(path)
        return json.loads(path.read_text()), f.leaves(d.features)[0]

    def _load(self, payload, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return Forest.load(path)

    def _copy(self, saved):
        return json.loads(json.dumps(saved[0]))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_self_loop, "child index"),
            (_child_out_of_range, "child index"),
            (_feature_out_of_range, "split feature"),
            (_threshold_not_finite, "threshold"),
            (_arrays_of_unequal_length, "one length"),
            (_n_nodes_of_wrong_length, "forest holds 1 trees, params say 2"),
            (_n_nodes_of_wrong_shape, "one length"),
            (_n_nodes_of_no_dimension, "forest holds 1 trees, params say 2"),
            (_inbag_too_short, "inbag must hold 60"),
            (_negative_count, "non-negative"),
            (_counts_not_summing_to_n, "summing to 60"),
            (_fractional_count, "integer counts"),
            (_counts_wrapping_to_n, "summing to 60"),
            (_empty_leaf, "leaf_n > 0"),
            (_fractional("labels", 0.6), "labels must hold integers"),
            (_fractional("feature", 0.7), "feature must hold integers"),
            (_features_of_wrong_width, "feature names"),
            (_labels_too_short, "labels must have shape"),
        ],
    )
    def test_corrupt_tree_rejected(self, saved, tmp_path, corrupt, message):
        payload, leaf_of = self._copy(saved), saved[1]
        a = decode_arrays(payload)
        assert a["feature"][0] >= 0  # the root splits
        corrupt(a, leaf_of)
        payload["arrays"] = encode_arrays(a)
        with pytest.raises(ValueError, match=message):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize("feature, threshold", [(-1, 0.5), (-1, np.inf), (-2, np.nan)])
    def test_leaf_that_could_step_off_rejected(self, saved, tmp_path, feature, threshold):
        # a pair stays at its leaf because x > NaN is false and feature -1
        # reads a cell of the flattened query; a finite threshold could send
        # it on, and another negative feature read outside the query
        payload = self._copy(saved)
        a = decode_arrays(payload)
        leaf = np.flatnonzero(a["feature"] < 0)[0]
        a["feature"][leaf], a["threshold"][leaf] = feature, threshold
        payload["arrays"] = encode_arrays(a)
        with pytest.raises(ValueError, match="a leaf needs feature -1 and a NaN threshold"):
            self._load(payload, tmp_path)

    def test_intact_file_loads(self, saved, tmp_path):
        payload = self._copy(saved)
        assert self._load(payload, tmp_path).n_trees == 2
        # widened to int64 by the test's encoder, the file still loads
        payload["arrays"] = encode_arrays(decode_arrays(payload))
        assert self._load(payload, tmp_path).n_trees == 2

    @pytest.mark.parametrize("kept", [0, 1])
    def test_tree_count_mismatch_rejected(self, saved, tmp_path, kept):
        # a short file would answer as a smaller forest, or not at all
        payload = self._copy(saved)
        a = decode_arrays(payload)
        m = a["n_nodes"][:kept].sum()
        a["n_nodes"], a["inbag"] = a["n_nodes"][:kept], a["inbag"][:kept]
        for name in NODE_ARRAYS:
            a[name] = a[name][:m]
        payload["arrays"] = encode_arrays(a)
        with pytest.raises(ValueError, match=f"forest holds {kept} trees, params say 2"):
            self._load(payload, tmp_path)

    def test_node_counts_wrapping_to_m_rejected(self, saved, tmp_path):
        # four node counts of 2**62 and more wrap an int64 sum back to the
        # node arrays' length; each count must be bounded before the sum
        payload = self._copy(saved)
        a = decode_arrays(payload)
        a["n_nodes"] = np.array([2**62] * 3 + [2**62 + len(a["feature"])])
        a["inbag"] = np.tile(a["inbag"][:1], (4, 1))
        payload["params"]["n_trees"] = 4
        payload["arrays"] = encode_arrays(a)
        with pytest.raises(ValueError, match="one length"):
            self._load(payload, tmp_path)

    def test_repeated_feature_names_rejected(self, saved, tmp_path):
        # query columns are read by name, so a repeated name would read one
        # column twice
        payload = self._copy(saved)
        payload["feature_names"] = ["x1", "x1"]
        with pytest.raises(ValueError, match="feature names repeat"):
            self._load(payload, tmp_path)

    def test_v1_file_rejected(self, saved, tmp_path):
        # v1 stored per-leaf row lists, v2 JSON number arrays, v3 edge and
        # depth arrays, v4 a criterion that selected nothing and v5 the tree
        # seeds and training true_probs; none is read, whatever the rest of
        # the file holds
        for k in (1, 2, 3, 4, 5):
            payload = self._copy(saved)
            payload["format"] = f"forestprox-forest-v{k}"
            with pytest.raises(ValueError, match="not a forestprox-forest-v6 file"):
                self._load(payload, tmp_path)

    def test_criterion_key_rejected(self, saved, tmp_path):
        # a v4 file's params relabelled v6 are not read as v6 params
        payload = self._copy(saved)
        payload["params"]["tree"]["criterion"] = "gini"
        with pytest.raises(ValueError, match="bad params"):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("tree", "min_node_size", 2.5, "bad params: min_node_size must be an integer"),
            ("tree", "mtry", 2.0, "bad params: mtry must be an integer"),
            ("tree", "bootstrap", "no", "bad params: bootstrap must be a bool"),
            ("tree", "bootstrap", 1, "bad params: bootstrap must be a bool"),
            (None, "seed", "abc", "bad params: seed must be an integer"),
            (None, "n_trees", 2.0, "bad params: n_trees must be an integer"),
            ("tree", "mtry", 7, "mtry=7 exceeds feature count p=2"),
        ],
    )
    def test_params_of_the_wrong_type_or_width_rejected(
        self, saved, tmp_path, where, key, value, message,
    ):
        payload = self._copy(saved)
        params = payload["params"] if where is None else payload["params"][where]
        params[key] = value
        with pytest.raises(ValueError, match=message):
            self._load(payload, tmp_path)


class TestArrayHeaders:
    """An array header that is malformed or lies about its data fails
    with ValueError before its bytes are used."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        d = sample(get_model("xor"), 60, seed=3)
        f = train_forest(d, ForestParams(n_trees=2, tree=TreeParams(mtry=2), seed=0))
        path = tmp_path_factory.mktemp("headers") / "forest.json"
        f.save(path)
        return path.read_text()

    def _load(self, payload, tmp_path):
        path = tmp_path / "bad.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return Forest.load(path)

    @pytest.mark.parametrize(
        "dtype", ["|O", "|V8", "[('a', '<i4')]", ">i8", ">f8", "<f4", "<u8", "<U2", 8]
    )
    def test_dtype_outside_allowlist(self, saved, tmp_path, dtype):
        payload = json.loads(saved)
        payload["arrays"]["labels"]["dtype"] = dtype
        with pytest.raises(ValueError, match="dtype"):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize("name, cut", [("features", 8), ("labels", 1), ("threshold", 3)])
    def test_byte_count_must_match_shape(self, saved, tmp_path, name, cut):
        payload = json.loads(saved)
        h = payload["arrays"][name]
        h["data"] = base64.b64encode(base64.b64decode(h["data"])[:-cut]).decode("ascii")
        with pytest.raises(ValueError, match="bytes of data"):
            self._load(payload, tmp_path)

    def test_byte_bound_checked_before_allocating(self, saved, tmp_path):
        # a header claiming 8 TB of features must be refused from its
        # byte count, not by a failed allocation
        import tracemalloc

        payload = json.loads(saved)
        payload["arrays"]["features"]["shape"] = [10**12, 2]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes of data"):
                Forest.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("shape", [[-60], [60.0], [True], "60", None])
    def test_malformed_shape(self, saved, tmp_path, shape):
        payload = json.loads(saved)
        payload["arrays"]["labels"]["shape"] = shape
        with pytest.raises(ValueError, match="shape must be a list"):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize("data", ["@@@@", "AAA", "AA=A", 12, None])
    def test_invalid_base64(self, saved, tmp_path, data):
        payload = json.loads(saved)
        payload["arrays"]["labels"]["data"] = data
        with pytest.raises(ValueError, match="base64"):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"forestprox-forest-v3"'])
    def test_top_level_not_an_object(self, tmp_path, text):
        with pytest.raises(ValueError, match="not a forestprox-forest-v6 file"):
            self._load(text, tmp_path)

    @pytest.mark.parametrize(
        "path",
        [
            ("params",), ("params", "tree"), ("params", "tree", "mtry"),
            ("feature_names",), ("arrays",), ("arrays", "threshold"),
            ("arrays", "inbag", "data"), ("arrays", "labels", "dtype"),
        ],
    )
    def test_missing_key(self, saved, tmp_path, path):
        payload = json.loads(saved)
        obj = payload
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
        with pytest.raises(ValueError):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize(
        "key, value", [("arrays", []), ("feature_names", "x1x2")]
    )
    def test_field_of_wrong_type(self, saved, tmp_path, key, value):
        payload = json.loads(saved)
        payload[key] = value
        with pytest.raises(ValueError):
            self._load(payload, tmp_path)
