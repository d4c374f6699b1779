import dataclasses
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestprox import tree as tree_module
from forestprox.data_model import Dataset
from forestprox.synthgen import get_model, sample
from forestprox.forest import Forest, ForestParams, derive_seeds, train_forest
from forestprox.tree import TreeParams, grow_trees, route


def make_data(features, labels, names=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    names = names or tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, np.asarray(labels), names)


def random_data(rng, n, p):
    return Dataset(
        rng.normal(size=(n, p)),
        rng.integers(0, 2, n),
        tuple(f"f{j}" for j in range(p)),
    )


def grow_one(d, params, seed):
    """The one-tree forest `seed` grows: tree t of `train_forest` for
    seeds[t]. Its root is node 0, so its table ids are the tree's own."""
    return Forest(d, ForestParams(1, params), *grow_trees(d, params, [seed]))


def tree_view(f, t=0):
    """Tree t of forest f on its own: its slice of the node table, with ids
    local to the tree and children from the breadth-first numbering (the
    r-th internal node's are 2r + 1 and 2r + 2), not from `first_child`."""
    nodes = slice(f.roots[t], f.roots[t] + f.n_nodes[t])
    feature = f.feature[nodes]
    inner = feature >= 0
    left = np.full(feature.size, -1)
    left[inner] = 2 * np.arange(inner.sum()) + 1
    return SimpleNamespace(
        feature=feature, threshold=f.threshold[nodes], leaf_n=f.leaf_n[nodes],
        leaf_pos=f.leaf_pos[nodes], inbag=f.inbag[t], n_nodes=int(f.n_nodes[t]),
        n_features=f.p, left=left, right=np.where(inner, left + 1, -1),
    )


def same_tree(a, b):
    """Tree views a and b hold equal node arrays (NaN thresholds at the
    same leaves) and equal in-bag counts."""
    return all(
        np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
        for k in ("feature", "threshold", "leaf_n", "leaf_pos", "inbag")
    )


def leaves_of(t, X):
    """Leaf every row of X reaches in tree view t, through `route`, which
    takes a leaf as its own first child."""
    X = np.asarray(X, dtype=np.float64)
    first = np.where(t.feature >= 0, t.left, np.arange(t.n_nodes))
    return route(t.feature, t.threshold, first, 0, np.arange(len(X)), X)


def leaf_boxes(tree):
    """Explicit (lo, hi] hyper-rectangles per leaf, derived from the split
    structure rather than the routing walk."""
    boxes = []
    stack = [(0, np.full(tree.n_features, -np.inf), np.full(tree.n_features, np.inf))]
    while stack:
        node, lo, hi = stack.pop()
        if tree.feature[node] < 0:
            boxes.append((node, lo, hi))
            continue
        j, thr = int(tree.feature[node]), float(tree.threshold[node])
        hi_left = hi.copy()
        hi_left[j] = min(hi[j], thr)
        lo_right = lo.copy()
        lo_right[j] = max(lo[j], thr)
        stack.append((int(tree.left[node]), lo, hi_left))
        stack.append((int(tree.right[node]), lo_right, hi))
    return boxes


class TestTreeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeParams(mtry=0)
        with pytest.raises(ValueError):
            TreeParams(mtry=1, min_node_size=0)
        with pytest.raises(ValueError):
            TreeParams(mtry=1, split_mode="surprise")
        with pytest.raises(TypeError):  # one impurity, so no criterion to choose
            TreeParams(mtry=1, criterion="gini")
        with pytest.raises(ValueError):
            TreeParams(mtry=5).check_dimension(3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(mtry=1.5), "mtry must be an integer"),
            (dict(mtry=True), "mtry must be an integer"),
            (dict(mtry="2"), "mtry must be an integer"),
            (dict(mtry=1, min_node_size=2.5), "min_node_size must be an integer"),
            (dict(mtry=1, max_leaves=4.0), "max_leaves must be an integer"),
            (dict(mtry=1, bootstrap="no"), "bootstrap must be a bool"),
            (dict(mtry=1, bootstrap=0), "bootstrap must be a bool"),
        ],
    )
    def test_types_checked(self, kwargs, message):
        with pytest.raises(TypeError, match=message):
            TreeParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_trees=2.0), "n_trees must be an integer"),
            (dict(n_trees=True), "n_trees must be an integer"),
            (dict(n_trees=2, seed="abc"), "seed must be an integer"),
            (dict(n_trees=2, seed=1.0), "seed must be an integer"),
        ],
    )
    def test_forest_params_types_checked(self, kwargs, message):
        with pytest.raises(TypeError, match=message):
            ForestParams(tree=TreeParams(mtry=1), **kwargs)

    def test_forest_params_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ForestParams(n_trees=2, tree=TreeParams(mtry=1), seed=-1)

    def test_numpy_integers_accepted(self):
        tp = TreeParams(mtry=np.int64(2), min_node_size=np.int32(3), max_leaves=np.uint8(4))
        fp = ForestParams(np.int64(2), tp, seed=np.uint64(7))
        fields = (fp.n_trees, fp.seed, tp.mtry, tp.min_node_size, tp.max_leaves)
        assert fields == (2, 7, 2, 3, 4)
        assert [type(v) for v in fields] == [int] * 5

    # A value of every field, other than its default, that grows another
    # forest on the fixture below: an option that selects nothing has no
    # entry that passes.
    OTHER_VALUES = {
        "mtry": 3,
        "min_node_size": 5,
        "max_leaves": 3,
        "split_mode": "completely_random",
        "bootstrap": False,
    }

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TreeParams)])
    def test_every_field_changes_the_forest(self, name):
        assert name in self.OTHER_VALUES, f"no value of {name} shown to change growth"
        d = random_data(np.random.default_rng(3), 60, 3)
        base = TreeParams(mtry=1)
        other = dataclasses.replace(base, **{name: self.OTHER_VALUES[name]})
        a, b = (train_forest(d, ForestParams(5, tree, seed=1)) for tree in (base, other))
        assert any(
            getattr(a, k).tobytes() != getattr(b, k).tobytes()
            for k in ("n_nodes", "feature", "threshold", "inbag")
        ), name


def root_split(d, rows=None):
    """(feature, threshold) at the root of the one-split tree grown on rows
    (all by default) over every feature, or None when it stays a leaf."""
    if rows is not None:
        d = Dataset(d.features[rows], d.labels[rows], d.feature_names)
    f = grow_one(d, TreeParams(mtry=d.p, max_leaves=2, bootstrap=False), 0)
    return None if f.feature[0] < 0 else (int(f.feature[0]), float(f.threshold[0]))


def assert_root_is_gini_and_mse_best(d, rows=None):
    """The grown root split on rows is the reference's best split under
    gini and under mse; a pure node stays a leaf before any scoring."""
    rows = np.arange(d.n) if rows is None else rows
    got = root_split(d, rows)
    pure = d.labels[rows].sum() in (0, rows.size)
    for criterion in ("gini", "mse"):
        want = None if pure else reference_split(d, rows, np.arange(d.p), criterion)
        assert got == want, criterion
    return got


class TestBestSplit:
    """The root split of a stump: the best split over every feature."""

    def test_two_point_perfect_split(self):
        d = make_data([0.0, 1.0], [0, 1])
        f = grow_one(d, TreeParams(mtry=1, max_leaves=2, bootstrap=False), 0)
        assert (f.feature[0], f.threshold[0]) == (0, pytest.approx(0.5))
        np.testing.assert_array_equal(f.leaf_pos[1:], [0, 1])  # both sides pure

    def test_pure_node_returns_none(self):
        d = make_data([0.0, 1.0, 2.0], [1, 1, 1])
        assert root_split(d) is None

    def test_constant_feature_returns_none(self):
        d = make_data([2.0, 2.0, 2.0], [0, 1, 0])
        assert root_split(d) is None

    def test_midpoint_thresholds(self):
        d = make_data([1.0, 2.0, 4.0], [0, 0, 1])
        assert root_split(d) == (0, pytest.approx(3.0))

    def test_adjacent_floats_threshold_falls_back_to_lower_value(self):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert lo + (hi - lo) / 2.0 == hi  # the midpoint rounds onto hi
        d = make_data([lo, hi, hi], [0, 1, 1])
        f = grow_one(d, TreeParams(mtry=1, bootstrap=False), 0)
        assert f.threshold[0] == lo and (f.feature < 0).sum() == 2
        assert (f.leaf_n[1], f.leaf_n[2]) == (1, 2)

    def test_midpoint_of_a_span_past_the_float_range(self):
        # hi - lo overflows: each end is halved first, with no warning
        d = make_data([-1.7e308, 1.6e308, -1.7e308, 1.7e308], [0, 1, 0, 1])
        with np.errstate(all="raise"):
            f = grow_one(d, TreeParams(mtry=1, bootstrap=False), 0)
        assert (f.feature[0], f.threshold[0]) == (0, -1.7e308 / 2 + 1.6e308 / 2)
        assert (f.leaf_n[1], f.leaf_n[2]) == (2, 2)

    def test_random_threshold_inside_a_span_past_the_float_range(self):
        # lo + u * (hi - lo) would be inf; (1 - u) * lo + u * hi stays inside
        d = make_data([-1.7e308, 1.7e308, -1.5e308, 1.6e308], [0, 1, 1, 0])
        params = TreeParams(mtry=1, max_leaves=2, split_mode="completely_random",
                            bootstrap=False)
        for seed in range(20):
            with np.errstate(all="raise"):
                f = grow_one(d, params, seed)
            assert f.feature[0] == 0 and -1.7e308 < f.threshold[0] < 1.7e308

    def test_tie_breaks_to_lowest_feature(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        d = make_data(np.column_stack([x, x]), [0, 0, 1, 1])
        assert root_split(d)[0] == 0

    def test_tie_breaks_to_lowest_threshold(self):
        # boundaries at 0.5 and 2.5 isolate one point each: exact score tie
        d = make_data([0.0, 1.0, 2.0, 3.0], [1, 0, 0, 1])
        assert root_split(d) == (0, pytest.approx(0.5))

    def test_sides_nonempty_and_partition(self):
        rng = np.random.default_rng(0)
        d = random_data(rng, 25, 3)
        t = tree_view(grow_one(d, TreeParams(mtry=3, max_leaves=2, bootstrap=False), 0))
        j, thr = t.feature[0], t.threshold[0]
        leaves = leaves_of(t, d.features)
        assert 0 < t.leaf_n[1] < 25 and t.leaf_n[1] + t.leaf_n[2] == 25
        assert (d.features[leaves == 1, j] <= thr).all()
        assert (d.features[leaves == 2, j] > thr).all()

    def test_gini_equals_mse_argmin_on_random_data(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            n = int(rng.integers(2, 31))
            p = int(rng.integers(1, 5))
            d = random_data(rng, n, p)
            assert_root_is_gini_and_mse_best(d)

    def test_criteria_agree_on_nodes_of_grown_trees(self):
        # replay every internal node of grown trees against both reference
        # impurities over the full feature set
        rng = np.random.default_rng(23)
        for trial in range(12):
            d = random_data(rng, int(rng.integers(20, 80)), 3)
            t = tree_view(grow_one(d, TreeParams(mtry=2, bootstrap=False), trial))
            stack = [(0, np.arange(d.n))]
            while stack:
                node, rows = stack.pop()
                if t.feature[node] < 0:
                    continue
                assert assert_root_is_gini_and_mse_best(d, rows) is not None
                mask = d.features[rows, t.feature[node]] <= t.threshold[node]
                stack.append((int(t.left[node]), rows[mask]))
                stack.append((int(t.right[node]), rows[~mask]))

    def test_gini_equals_mse_with_heavy_ties(self):
        # few distinct values force exact score ties across features
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(4, 25))
            p = int(rng.integers(1, 5))
            d = Dataset(
                rng.integers(0, 3, size=(n, p)).astype(float),
                rng.integers(0, 2, n),
                tuple(f"f{j}" for j in range(p)),
            )
            assert_root_is_gini_and_mse_best(d)


class TestGrowTree:
    def test_single_row_gives_single_leaf(self):
        d = make_data([[3.0, 1.0]], [1])
        f = grow_one(d, TreeParams(mtry=2, bootstrap=False), 0)
        assert (f.feature < 0).sum() == 1
        assert f.leaf_n[0] == 1
        assert f.stats()["mean_depth"] == 0

    def test_deterministic(self):
        d = random_data(np.random.default_rng(1), 60, 4)
        a = grow_one(d, TreeParams(mtry=2), 11)
        b = grow_one(d, TreeParams(mtry=2), 11)
        assert same_tree(tree_view(a), tree_view(b))

    def test_different_seeds_differ(self):
        d = random_data(np.random.default_rng(1), 60, 4)
        a = grow_one(d, TreeParams(mtry=2), 11)
        b = grow_one(d, TreeParams(mtry=2), 12)
        assert not same_tree(tree_view(a), tree_view(b))

    def test_stump_on_halfspace_model(self):
        d = sample(get_model("motivating50"), 1000, seed=3)
        f = grow_one(d, TreeParams(mtry=50, min_node_size=400, bootstrap=False), 0)
        assert f.feature[0] == 0
        assert abs(f.threshold[0]) < 0.15
        fracs = sorted(f.leaf_pos[i] / f.leaf_n[i] for i in np.flatnonzero(f.feature < 0))
        assert fracs[0] == pytest.approx(0.3, abs=0.06)
        assert fracs[1] == pytest.approx(0.7, abs=0.06)

    def test_max_leaves_budget(self):
        d = random_data(np.random.default_rng(2), 200, 3)
        for budget in (1, 2, 5, 16):
            f = grow_one(d, TreeParams(mtry=3, max_leaves=budget), 5)
            assert (f.feature < 0).sum() <= budget

    def test_max_leaves_two_gives_stump(self):
        d = random_data(np.random.default_rng(2), 100, 3)
        f = grow_one(d, TreeParams(mtry=3, max_leaves=2, bootstrap=False), 5)
        assert (f.feature < 0).sum() == 2
        assert f.stats()["mean_depth"] == 1

    def test_every_training_row_reaches_exactly_one_leaf(self):
        rng = np.random.default_rng(3)
        d = random_data(rng, 120, 3)
        t = tree_view(grow_one(d, TreeParams(mtry=2, bootstrap=False), 9))
        np.testing.assert_array_equal(t.inbag, np.ones(120))
        leaves = leaves_of(t, d.features)
        assert (t.feature[leaves] < 0).all()
        np.testing.assert_array_equal(np.bincount(leaves, minlength=t.n_nodes), t.leaf_n)

    def test_bootstrap_rows_multiset(self):
        rng = np.random.default_rng(4)
        d = random_data(rng, 50, 2)
        t = tree_view(grow_one(d, TreeParams(mtry=2, bootstrap=True), 9))
        assert t.inbag.sum() == 50  # bootstrap keeps the sample size
        assert (t.inbag == 0).any()
        assert t.leaf_n.sum() - t.leaf_n[t.feature >= 0].sum() == 50
        leaves = leaves_of(t, d.features)
        np.testing.assert_array_equal(
            np.bincount(leaves, weights=t.inbag, minlength=t.n_nodes), t.leaf_n
        )

    def test_partition_property_random_queries(self):
        rng = np.random.default_rng(5)
        d = random_data(rng, 200, 3)
        for mode in ("impurity", "completely_random"):
            t = tree_view(grow_one(d, TreeParams(mtry=2, split_mode=mode, bootstrap=False), 1))
            queries = rng.uniform(-4, 4, size=(10_000, 3))
            located = leaves_of(t, queries)
            boxes = leaf_boxes(t)
            matches = np.zeros(len(queries), dtype=int)
            box_of = np.full(len(queries), -1)
            for node, lo, hi in boxes:
                inside = ((queries > lo) & (queries <= hi)).all(axis=1)
                matches += inside
                box_of[inside] = node
            assert (matches == 1).all()
            assert (box_of == located).all()

    def test_thresholds_strictly_inside_in_node_range(self):
        rng = np.random.default_rng(6)
        d = random_data(rng, 150, 3)
        for mode in ("impurity", "completely_random"):
            t = tree_view(grow_one(d, TreeParams(mtry=3, split_mode=mode, bootstrap=False), 2))
            # every internal threshold separates values on both sides
            stack = [(0, np.arange(150))]
            while stack:
                node, rows = stack.pop()
                if t.feature[node] < 0:
                    continue
                vals = d.features[rows, t.feature[node]]
                thr = t.threshold[node]
                assert vals.min() <= thr < vals.max()
                mask = vals <= thr
                assert 0 < mask.sum() < len(rows)
                stack.append((int(t.left[node]), rows[mask]))
                stack.append((int(t.right[node]), rows[~mask]))

    def test_min_node_size_stops_splitting(self):
        rng = np.random.default_rng(7)
        d = random_data(rng, 64, 2)
        f = grow_one(d, TreeParams(mtry=2, min_node_size=16, bootstrap=False), 0)
        # an impure node with >= 2 * min_node_size rows would have split
        for i in np.flatnonzero(f.feature < 0):
            if 0 < f.leaf_pos[i] < f.leaf_n[i]:
                assert f.leaf_n[i] < 32

    def test_completely_random_ignores_mtry_and_uses_range(self):
        rng = np.random.default_rng(8)
        d = random_data(rng, 100, 4)
        f = grow_one(d, TreeParams(mtry=1, split_mode="completely_random", bootstrap=False), 3)
        assert (f.feature < 0).sum() > 2
        used = set(int(j) for j in f.feature if j >= 0)
        assert len(used) > 1  # uniform choice touches several features

    def test_leaf_count_decreases_with_mtry_on_average(self):
        d = sample(get_model("motivating50"), 300, seed=12)
        means = {}
        for mtry in (1, 50):
            counts = [
                (grow_one(d, TreeParams(mtry=mtry, min_node_size=1), s).feature < 0).sum()
                for s in range(8)
            ]
            means[mtry] = np.mean(counts)
        assert means[50] < means[1]


def leaf_fraction(t, x):
    """Positive fraction of the leaf x reaches in tree view t."""
    leaf = leaves_of(t, [x])[0]
    return t.leaf_pos[leaf] / t.leaf_n[leaf]


def hand_built_stump(inbag):
    """Tree 0 of a forest of one stump, x <= 0.5, on five rows: rows 0 and 1
    on the left, rows 2 to 4 on the right, labels 1, 0, 1, 0, 1."""
    d = make_data([0.2, 0.4, 0.6, 0.7, 0.9], [1, 0, 1, 0, 1])
    f = Forest(d, ForestParams(1, TreeParams(mtry=1)), np.array([3]),
               np.array([0, -1, -1]), np.array([0.5, np.nan, np.nan]), np.array([inbag]))
    return tree_view(f)


class TestTreeProb:
    def test_single_leaf_fraction(self):
        d = make_data([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        t = tree_view(grow_one(d, TreeParams(mtry=1, max_leaves=1, bootstrap=False), 0))
        assert leaf_fraction(t, np.array([2.5])) == pytest.approx(0.75)

    def test_training_rows_in_purity_tree_recover_labels(self):
        rng = np.random.default_rng(9)
        d = random_data(rng, 80, 3)
        t = tree_view(grow_one(d, TreeParams(mtry=3, min_node_size=1, bootstrap=False), 4))
        for i in range(d.n):
            assert leaf_fraction(t, d.features[i]) == float(d.labels[i])

    def test_hand_built_depth_one_tree(self):
        t = hand_built_stump([1, 1, 2, 0, 1])
        assert leaf_fraction(t, np.array([0.2])) == pytest.approx(0.5)
        assert leaf_fraction(t, np.array([0.9])) == pytest.approx(1.0)
        assert (t.feature < 0).sum() == 2

    def test_dimension_mismatch(self):
        # a tree is read through its forest's router, which checks the width
        d = make_data([1.0, 2.0], [0, 1])
        f = train_forest(d, ForestParams(1, TreeParams(mtry=1, bootstrap=False)))
        with pytest.raises(ValueError, match="expected"):
            f.leaves(np.array([[1.0, 2.0]]))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_grown_tree_invariants(n, p, seed):
    rng = np.random.default_rng(seed)
    d = Dataset(
        rng.normal(size=(n, p)),
        rng.integers(0, 2, n),
        tuple(f"f{j}" for j in range(p)),
    )
    f = grow_one(d, TreeParams(mtry=min(2, p), bootstrap=False), seed)
    leaves = np.flatnonzero(f.feature < 0)
    assert (f.leaf_n[leaves] >= 1).all()
    assert (f.leaf_pos[leaves] <= f.leaf_n[leaves]).all()
    assert f.leaf_n[leaves].sum() == n
    assert f.stats()["mean_leaf_count"] == len(leaves)


def reference_split(d, rows, cand, criterion):
    """Per-node split search, one node at a time: the reference that the
    level-synchronous scorer must match bit for bit."""
    m = rows.size
    yv = d.labels[rows]
    total_pos = int(yv.sum())
    Xs = d.features[rows][:, np.unique(cand)]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = float(m) - nl
    pos_l = np.cumsum(yv[order], axis=0)[:-1].astype(np.float64)
    pos_r = float(total_pos) - pos_l
    pl, pr = pos_l / nl, pos_r / nr
    if criterion == "gini":
        score = nl * pl * (1.0 - pl) + nr * pr * (1.0 - pr)
    else:
        score = (
            pos_l * (1.0 - pl) ** 2 + (nl - pos_l) * pl**2
            + pos_r * (1.0 - pr) ** 2 + (nr - pos_r) * pr**2
        )
    score = np.where(xs[1:] != xs[:-1], score, np.inf)
    col_min = score.min(axis=0)
    if not np.isfinite(col_min.min()):
        return None
    eps = 1e-12 * max(1.0, float(m))
    col = int(np.argmax(col_min <= col_min.min() + eps))
    row = int(np.argmax(score[:, col] <= col_min[col] + eps))
    lo, hi = float(xs[row, col]), float(xs[row + 1, col])
    thr = lo + (hi - lo) / 2.0
    return int(np.unique(cand)[col]), lo if thr >= hi else thr


_M64 = 2**64 - 1


def scalar_mix(key, tag):
    """splitmix64's tag-th output from seed key, in Python ints mod 2**64:
    an independent reference for the vectorized key mix of growth."""
    z = (key + (tag + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def reference_grow(d, params, seed):
    """Node-at-a-time breadth-first growth with keyed draws: a root's key is
    mix(seed, 0), a node's children have keys mix(key, 0) and mix(key, 1),
    impurity mode scores the mtry features j of smallest mix(key, 4 + j),
    and completely_random takes the (mix(key, 2) % count)-th of the count
    features with spread and a threshold from mix(key, 3). Returns the
    nodes and the drawn rows."""
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, d.n, size=d.n) if params.bootstrap else np.arange(d.n)
    nodes = []  # (feature, threshold, left, right, rows)
    queue = [(0, drawn, scalar_mix(seed, 0))]
    nodes.append(None)
    n_leaves = 1
    while queue:
        idx, rows, key = queue.pop(0)
        m, pos = rows.size, int(d.labels[rows].sum())
        split = None
        budget_ok = params.max_leaves is None or n_leaves < params.max_leaves
        if budget_ok and m >= 2 * params.min_node_size and 0 < pos < m:
            if params.split_mode == "impurity":
                priority = [scalar_mix(key, 4 + j) for j in range(d.p)]
                cand = sorted(range(d.p), key=priority.__getitem__)[: params.mtry]
                split = reference_split(d, rows, np.array(cand), "gini")
                assert split == reference_split(d, rows, np.array(cand), "mse")
            else:
                sub = d.features[rows]
                lo, hi = sub.min(axis=0), sub.max(axis=0)
                spread = np.flatnonzero(hi > lo)
                if spread.size:
                    j = int(spread[scalar_mix(key, 2) % spread.size])
                    u = (scalar_mix(key, 3) >> 11) * 2.0**-53
                    lo_j, hi_j = float(lo[j]), float(hi[j])
                    thr = lo_j + u * (hi_j - lo_j)
                    split = (j, thr) if lo_j < thr < hi_j else None
        if split is None:
            nodes[idx] = (-1, np.nan, -1, -1, rows)
            continue
        j, thr = split
        mask = d.features[rows, j] <= thr
        nodes[idx] = (j, thr, len(nodes), len(nodes) + 1, None)
        nodes += [None, None]
        n_leaves += 1
        queue += [
            (len(nodes) - 2, rows[mask], scalar_mix(key, 0)),
            (len(nodes) - 1, rows[~mask], scalar_mix(key, 1)),
        ]
    return nodes, drawn


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=90),
    p=st.integers(min_value=1, max_value=5),
    ties=st.booleans(),
    mtry=st.integers(min_value=1, max_value=5),
    min_node_size=st.sampled_from([1, 2, 5]),
    max_leaves=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    mode=st.sampled_from(["impurity", "completely_random"]),
    bootstrap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_level_growth_matches_node_at_a_time_reference(
    n, p, ties, mtry, min_node_size, max_leaves, mode, bootstrap, seed
):
    # few distinct values make nodes whose drawn candidates cannot split,
    # so a leaf budget can run out partway through a level
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, p)).astype(float) if ties else rng.normal(size=(n, p))
    d = Dataset(X, rng.integers(0, 2, n), tuple(f"f{j}" for j in range(p)))
    params = TreeParams(
        mtry=min(mtry, p),
        min_node_size=min_node_size,
        max_leaves=max_leaves,
        split_mode=mode,
        bootstrap=bootstrap,
    )
    assert_matches_reference(d, params, seed)


def assert_matches_reference(d, params, seed):
    t = tree_view(grow_one(d, params, seed))
    ref, drawn = reference_grow(d, params, seed)
    assert t.n_nodes == len(ref)
    np.testing.assert_array_equal(t.inbag, np.bincount(drawn, minlength=d.n))
    leaf_of = leaves_of(t, d.features)
    for i, (f, thr, left, right, rows) in enumerate(ref):
        assert (t.feature[i], t.left[i], t.right[i]) == (f, left, right)
        if f < 0:
            assert np.isnan(t.threshold[i])
            # the training rows routed here, at their in-bag multiplicity
            here = np.flatnonzero(leaf_of == i)
            np.testing.assert_array_equal(np.repeat(here, t.inbag[here]), np.sort(rows))
            assert t.leaf_n[i] == rows.size
            assert t.leaf_pos[i] == d.labels[rows].sum()
        else:
            assert t.threshold[i] == thr
    return t


@pytest.mark.parametrize("n, seed, top", [
    (9, 1, 2), (8, 0, 3), (9, 4, 4), (8, 36, 5), (9, 2740, 6), (10, 368, 7), (8, 20637, 7),
])
def test_growth_matches_reference_at_large_in_bag_counts(n, seed, top):
    # A sort key's low bits hold 2 * count + label, in as many bits as the
    # largest in-bag count of the batch needs: count 2 needs 3 bits, 4 needs
    # 4, and 3 and 7 fill all of them. The seed's bootstrap draws one row top
    # times; that row is the only negative, so the root is scored with it.
    counts = np.bincount(np.random.default_rng(seed).integers(0, n, n), minlength=n)
    assert counts.max() == top
    rng = np.random.default_rng([seed, 1])
    X = np.column_stack([rng.normal(size=n), rng.integers(0, 3, n).astype(float)])
    d = Dataset(X, (counts != top).astype(int), ("a", "b"))
    for mtry in (1, 2):
        assert_matches_reference(d, TreeParams(mtry=mtry), seed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.integers(min_value=1, max_value=3),
    ties=st.booleans(),
    wide=st.sampled_from([1, 2**10 - 1, 2**10, 2**12, 2**16]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=5, p=2, ties=True, wide=2**16, seed=0)
def test_best_split_of_weighted_rows_matches_repeated_rows(n, p, ties, wide, seed):
    # counts far beyond a bootstrap's, in low-bit fields of up to 18 bits
    # (2 * 2^16 + 1 needs 18): scoring rows once with their counts finds the
    # split that scoring every copy does. A node of weighted size 2^16 or
    # more needs shift >= 17, so its packed sums take more than 31 bits and
    # the scorer works in int64; smaller counts keep it in int32
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, p)).astype(float) if ties else rng.normal(size=(n, p))
    d = Dataset(X, rng.integers(0, 2, n), tuple(f"f{j}" for j in range(p)))
    weight = rng.integers(1, 6, n)
    weight[rng.integers(0, n)] = wide
    rows = rng.permutation(n)
    node = [np.array([v]) for v in (0, n, weight.sum(), d.labels @ weight)]
    f, thr = tree_module._best_splits(d, rows, weight[rows], *node, np.arange(p)[None, :])
    ref = reference_split(d, np.repeat(np.arange(n), weight), np.arange(p), "gini")
    if ref is None:
        assert f[0] == -1
    else:
        assert (int(f[0]), float(thr[0])) == ref


@pytest.mark.parametrize("ties", [False, True])
def test_best_splits_with_int64_keys_match_each_node_alone(ties):
    # 200 nodes of 4 rows out of 800, one row of weight 4096 among them:
    # the 14 low bits put the batch's keys past 2^31, so the batch sorts
    # int64 keys, while each node alone sorts int32 keys; the packed sums
    # fit in int32 either way
    rng = np.random.default_rng(11)
    n, p, n_nodes = 800, 3, 200
    X = rng.integers(0, 4, size=(n, p)).astype(float) if ties else rng.normal(size=(n, p))
    d = Dataset(X, rng.integers(0, 2, n), ("f0", "f1", "f2"))
    rows = rng.permutation(n)
    weight = rng.integers(1, 6, n)
    weight[rng.integers(0, n)] = 4096
    bits = int(2 * weight.max() + 1).bit_length()
    assert (n_nodes * n) << bits > 2**31 > n << bits
    starts, lens = np.arange(0, n, 4), np.full(n_nodes, 4)
    sizes = np.add.reduceat(weight, starts)
    pos = np.add.reduceat(weight * d.labels[rows], starts)
    cand = np.tile(np.arange(p), (n_nodes, 1))
    f, thr = tree_module._best_splits(d, rows, weight, starts, lens, sizes, pos, cand)
    for i in range(n_nodes):
        one = slice(i, i + 1)
        alone = tree_module._best_splits(d, rows, weight, starts[one], lens[one], sizes[one],
                                         pos[one], cand[one])
        at = slice(starts[i], starts[i] + 4)
        ref = reference_split(d, np.repeat(rows[at], weight[at]), np.arange(p), "gini")
        if ref is None:
            assert f[i] == alone[0][0] == -1
        else:
            assert (int(f[i]), float(thr[i])) == (int(alone[0][0]), float(alone[1][0])) == ref


def test_budget_left_by_a_node_without_split_goes_to_the_next():
    # both features are constant among the rows with x0 = 0, so once the
    # root splits on x0 its left child cannot split, and the last unit of
    # a 3-leaf budget passes to the right child on the same level
    x0 = np.repeat([0.0, 1.0], 6)
    x1 = np.r_[np.full(6, 5.0), np.arange(6.0)]
    d = Dataset(np.column_stack([x0, x1]), [0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1], ("x0", "x1"))
    params = TreeParams(mtry=1, max_leaves=3, bootstrap=False)
    seen = 0
    for seed in range(20):
        t = assert_matches_reference(d, params, seed)
        seen += t.n_nodes == 5 and t.feature[0] == 0 and t.feature[1] < 0
    assert seen


def test_dataset_ranks_order_like_values():
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=40), rng.integers(0, 4, 40).astype(float)])
    X[:6, 1] = [0.0, -0.0, 0.0, -0.0, 1.0, 1.0]
    d = Dataset(X, rng.integers(0, 2, 40), ("a", "b"))
    for j in range(2):
        r, x = d.ranks[j], X[:, j]
        np.testing.assert_array_equal(r[:, None] == r[None, :], x[:, None] == x[None, :])
        np.testing.assert_array_equal(r[:, None] < r[None, :], x[:, None] < x[None, :])
        np.testing.assert_array_equal(d.sorted_features[r, j], x)


def test_growth_memory_does_not_scale_with_forest_size():
    # 256 trees of 1000 rows hold 256,000 rows a level if grown all at once.
    # Grown in groups of about 2^15 rows, growth's peak beyond what it
    # returns stays near one copy of the result (the groups' parts, before
    # they are joined), 2.8 MiB here; without the groups it is 11.9 MiB.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1000, 5))
    d = Dataset(X, (rng.random(1000) < 1 / (1 + np.exp(-X[:, 0]))).astype(int),
                tuple(f"f{j}" for j in range(5)))
    d.ranks, d.sorted_features  # computed once per dataset, before growth
    tracemalloc.start()
    try:
        grown = grow_trees(d, TreeParams(mtry=1, min_node_size=5), derive_seeds(0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in grown) < 8 << 20


def test_best_splits_temporaries_stay_lean():
    # One wide node: the ~630 distinct rows of a bootstrap of 1000, scored
    # over 30 candidates. The scorer's temporaries peak at about 33 bytes
    # per (candidate, distinct row) element: the sort key in its own dtype
    # and three float buffers. Another (k, M) intp or float temporary alive
    # at the peak would pass 40, and the chunk window, set so that a call's
    # temporaries stay in cache, would no longer fit them.
    rng = np.random.default_rng(3)
    n, p, k = 1000, 50, 30
    d = make_data(rng.uniform(-1, 1, size=(n, p)), rng.integers(0, 2, n))
    d.ranks, d.sorted_features  # computed once per dataset, before growth
    inbag = np.bincount(rng.integers(0, n, n), minlength=n)
    rows = np.flatnonzero(inbag)
    weight = inbag[rows]
    node = [np.array([v]) for v in (0, rows.size, weight.sum(), weight @ d.labels[rows])]
    cand = np.sort(rng.choice(p, k, replace=False))[None, :]
    tracemalloc.start()
    try:
        feature, _ = tree_module._best_splits(d, rows, weight, *node, cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feature[0] >= 0 and 550 < rows.size < 700
    assert peak / (k * rows.size) < 40


def uniformity_keys():
    """3 * 10^5 node keys: the roots of seeds 0..10^5 - 1 and their children."""
    roots = tree_module._mix(np.arange(100_000, dtype=np.uint64), 0)
    return [roots, tree_module._mix(roots, 0), tree_module._mix(roots, 1)]


def assert_within_3se(freq, expected, trials, what):
    se = np.sqrt(expected * (1 - expected) / trials)
    z = np.abs(freq - expected) / np.where(se > 0, se, 1.0)
    assert (np.where(se > 0, z <= 3, freq == expected)).all(), f"{what}: worst {z.max():.2f} SE"


def test_scalar_mix_matches_vectorized_and_splitmix64():
    assert scalar_mix(0, 0) == 0xE220A8397B1DCDAF  # splitmix64's first output from seed 0
    keys = [0, 1, 2**63, _M64, 0x0123456789ABCDEF]
    got = tree_module._mix(np.array(keys, dtype=np.uint64)[:, None], np.arange(60))
    assert got.dtype == np.uint64
    assert [[int(v) for v in row] for row in got] == [
        [scalar_mix(k, t) for t in range(60)] for k in keys
    ]


@pytest.mark.parametrize("mtry", [1, 3, 7])
def test_candidates_are_uniform_without_replacement(mtry):
    # every feature is a candidate with probability mtry/p, every pair with
    # mtry(mtry-1)/(p(p-1)), over 3 * 10^5 node keys, each within 3 SE
    p = 10
    cand = np.concatenate([tree_module._candidates(k, p, mtry) for k in uniformity_keys()])
    trials = len(cand)
    assert (np.diff(cand, axis=1) > 0).all()  # sorted and distinct
    member = np.zeros((trials, p))
    member[np.arange(trials)[:, None], cand] = 1.0
    assert_within_3se(member.mean(axis=0), mtry / p, trials, "feature")
    pairs = (member.T @ member / trials)[np.triu_indices(p, 1)]
    assert_within_3se(pairs, mtry * (mtry - 1) / (p * (p - 1)), trials, "pair")


def test_completely_random_draws_uniformly_among_spread_features():
    # every node holds the same two rows, which differ in features 1, 4, 5
    # and 8 only: each of those is drawn with probability 1/4, the others
    # never, and the threshold is uniform in (0, 1)
    p, spread = 10, [1, 4, 5, 8]
    X = np.zeros((2, p))
    X[1, spread] = 1.0
    d = Dataset(X, np.array([0, 1]), tuple(f"f{j}" for j in range(p)))
    feature, threshold = [], []
    for keys in uniformity_keys():
        nodes = keys.size
        f, thr = tree_module._random_splits(
            d, np.tile([0, 1], nodes), np.arange(0, 2 * nodes, 2), np.full(nodes, 2), keys
        )
        feature.append(f)
        threshold.append(thr)
    feature, threshold = np.concatenate(feature), np.concatenate(threshold)
    trials = feature.size
    assert np.isin(feature, spread).all()
    assert_within_3se(np.bincount(feature, minlength=p)[spread] / trials, 0.25, trials, "feature")
    assert ((threshold > 0) & (threshold < 1)).all()
    assert abs(threshold.mean() - 0.5) <= 3 * np.sqrt(1 / 12 / trials)


def realistic_growth_digest(mtry):
    """SHA-256 of feature, threshold and inbag of 5 bootstrap trees grown to
    node size 1 on n = 1000, p = 50: in-bag counts reach 7 here, which
    the 70-row golden sets never stress. Columns 40-49 are rounded to one
    decimal, so many values tie."""
    rng = np.random.default_rng([2018, 1000, 50])
    X = rng.normal(size=(1000, 50))
    X[:, 40:] = np.round(X[:, 40:], 1)
    logit = X[:, 0] - X[:, 1] + 0.5 * X[:, 40]
    y = (rng.random(1000) < 1 / (1 + np.exp(-logit))).astype(int)
    d = Dataset(X, y, tuple(f"x{j}" for j in range(50)))
    forest = train_forest(d, ForestParams(5, TreeParams(mtry=mtry), seed=7))
    h = hashlib.sha256()
    for a in (forest.feature, forest.threshold, forest.inbag):
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return int(forest.inbag.max()), h.hexdigest()


@pytest.mark.parametrize("mtry, digest", [
    (1, "adfa5a4664a90c729e01584ca8e678d38a59dd088359ba508d1d0e3497d21797"),
    (30, "8c5553c1caca1ed0dbab7f9904bd067a4d8cf94a37d717bcaffd8a64092597d2"),
])
def test_growth_at_realistic_scale_is_pinned(mtry, digest):
    top, got = realistic_growth_digest(mtry)
    assert top >= 5
    assert got == digest
