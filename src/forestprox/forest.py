"""Forest training, the three probability estimators, and the proximity
kernel.

The three ways to turn a forest into a probability estimate at x0, with
p_t(x0) the positive fraction of x0's leaf in tree t and N_t(x0) its
training-row count:

  class_vote   mean over trees of round(p_t), round(0.5) -> 1
  reg_mean     mean over trees of p_t
  prox         sum_t N_t * p_t / sum_t N_t

The prox form equals the kernel-regression estimate whose kernel is the
leaf co-occupancy fraction, with training rows counted at their in-bag
multiplicity; `voting_weights` exposes those normalized kernel weights.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data_model import Dataset, check_bytes, check_integer, store_integers
from .tree import TreeParams, first_child, grow_trees, node_depth, route

PREDICT_MODES = ("class_vote", "reg_mean", "prox")

FOREST_FORMAT = "forestprox-forest-v6"

# Integer dtypes from narrowest to widest. `save` writes an integer array
# in the first that holds its min and max; there is no '<u8', so every
# value read back fits int64.
_INT_DTYPES = tuple(np.dtype(s) for s in ("|u1", "|i1", "<u2", "<i2", "<u4", "<i4", "<i8"))
_ARRAY_DTYPES = frozenset(["<f8", *(dt.str for dt in _INT_DTYPES)])


@dataclass(frozen=True)
class ForestParams:
    n_trees: int
    tree: TreeParams
    seed: int = 0

    def __post_init__(self):
        store_integers(self, n_trees=1, seed=0)


def derive_seeds(entropy: int, count: int, spawn_key=()) -> list[int]:
    """Counter-style seeds; the i-th depends on neither count nor order."""
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return [int(s) for s in seq.generate_state(count, dtype=np.uint64)]


@dataclass(frozen=True, eq=False)
class Forest:
    """Every tree's nodes in one table: what a v6 file holds, and what
    the constructor derives from it.

    Tree t owns the n_nodes[t] nodes from roots[t] on, numbered
    breadth-first; internal node k's children are first_child[k] and
    first_child[k] + 1, indices into the whole table, and a leaf is its
    own first child. inbag[t] is tree t's in-bag count vector. However a
    forest is made, the constructor checks the trees and their inbag and
    routes each tree's in-bag training rows once: leaf_n and leaf_pos
    count the rows that reach each leaf, and the positive ones, at their
    in-bag multiplicity.
    """

    train: Dataset
    params: ForestParams
    n_nodes: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    inbag: np.ndarray
    roots: np.ndarray = field(init=False)
    first_child: np.ndarray = field(init=False)
    leaf_n: np.ndarray = field(init=False)
    leaf_pos: np.ndarray = field(init=False)
    # (T, n) leaf of every in-bag training row, -1 where out of bag, for voting_weights
    _train_leaves: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T, n = self.params.n_trees, self.train.n
        if self.n_nodes.size != T:
            raise ValueError(f"forest holds {self.n_nodes.size} trees, params say {T}")
        self.params.tree.check_dimension(self.p)
        roots, first = _check_nodes(self.feature, self.threshold, self.n_nodes, T, self.p)
        inbag = self.inbag
        if (inbag.dtype.kind != "i" or inbag.shape != (T, n)
                or ((inbag < 0) | (inbag > n)).any() or (inbag.sum(axis=1) != n).any()):
            raise ValueError(
                f"inbag must hold {n} non-negative integer counts summing to {n} per tree"
            )
        t, i = np.nonzero(inbag)
        leaf = route(self.feature, self.threshold, first, roots[t], i, self.train.features)
        G = np.full((T, n), -1, dtype=np.intp)
        G[t, i] = leaf
        w = inbag[t, i]
        leaf_n, leaf_pos = (
            np.bincount(leaf, weights=v, minlength=len(self.feature)).astype(np.int64)
            for v in (w, w * self.train.labels[i])
        )
        if (leaf_n[self.feature < 0] == 0).any():
            raise ValueError("every leaf needs leaf_n > 0: a leaf holds no in-bag training row")
        derived = dict(roots=roots, first_child=first, leaf_n=leaf_n, leaf_pos=leaf_pos,
                       _train_leaves=G)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n_trees(self) -> int:
        return self.params.n_trees

    @property
    def p(self) -> int:
        return self.train.p

    # NaN would route right at every split, since x <= thr is false for it
    def _check_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ValueError(f"expected (q, {self.p}) matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            bad = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"non-finite query value at row {bad[0]}, column {bad[1]}")
        return X

    def leaves(self, X) -> np.ndarray:
        """Leaf reached by every row of X in every tree, shape (T, q).

        Ids index the node table (`feature`, `leaf_n`, `leaf_pos`), so
        tree t's lie in [roots[t], roots[t] + n_nodes[t]).
        """
        return self._route(self._check_matrix(X))

    def _route(self, X) -> np.ndarray:
        return route(self.feature, self.threshold, self.first_child, self.roots[:, None],
                     np.arange(len(X)), X)

    def estimate(self, L: np.ndarray, mode: str = "prox") -> np.ndarray:
        """One estimator at q points from their leaves, as `leaves` gives them."""
        if mode not in PREDICT_MODES:
            raise ValueError(f"mode must be one of {PREDICT_MODES}, got {mode!r}")
        if mode == "prox":
            return self.leaf_pos[L].sum(axis=0) / self.leaf_n[L].sum(axis=0)
        p_t = self.leaf_pos[L] / self.leaf_n[L]
        if mode == "class_vote":
            return (p_t >= 0.5).sum(axis=0) / self.n_trees
        # cumsum adds trees in tree order; sum(axis=0) adds pairwise at q = 1
        return np.cumsum(p_t, axis=0)[-1] / self.n_trees

    def predict_proba_batch(self, X, mode: str = "prox") -> np.ndarray:
        return self.estimate(self.leaves(X), mode)

    def proximity_many(self, X, z) -> np.ndarray:
        """Fraction of trees in which each row of X shares z's leaf. X
        and z are checked once each and routed in one pass."""
        z = self._check_matrix(np.asarray(z, dtype=np.float64)[None])
        X = np.concatenate([z, self._check_matrix(X)])
        G = self._route(X)
        return (G[:, 1:] == G[:, :1]).sum(axis=0) / self.n_trees

    def proximity_matrix(self, X) -> np.ndarray:
        """Dense (n, n) proximity of every pair of rows of X.

        Refused before anything is allocated when the float64 result plus
        one tree's (n, n) boolean co-occupancy, 9 bytes a pair, exceeds
        the request cap (`check_bytes`; about 5,460 points).
        """
        X = np.asarray(X)
        n = X.shape[0] if X.ndim else 0
        check_bytes(f"{n} points need", 9 * n * n)
        L = self.leaves(X)
        P = np.zeros((n, n))
        for leaves in L:
            P += leaves[:, None] == leaves[None, :]
        P /= self.n_trees
        return P

    def voting_weights(self, x0) -> np.ndarray:
        """Normalized kernel weights of the training rows at x0.

        Rows are counted at their in-bag multiplicity per tree, so the
        weighted label average equals the prox estimate exactly.
        """
        L = self.leaves(np.asarray(x0, dtype=np.float64)[None])
        counts = np.where(self._train_leaves == L, self.inbag, 0).sum(axis=0).astype(np.float64)
        # every leaf holds an in-bag row (the constructor checks it), so the sum is >= n_trees
        return counts / counts.sum()

    def cut(self, min_node_size: int) -> "Forest":
        """The forest these params grow at a larger min_node_size.

        A node's split depends only on its path (see `grow_trees`), so
        without a leaf budget the tree grown at node size s' >= s is the
        size-s tree cut at the first nodes with fewer than 2 * s' in-bag
        rows, counted with multiplicity: they become leaves and what lies
        below them goes. The kept nodes keep their breadth-first order.
        """
        check_integer("min_node_size", min_node_size)
        tp = self.params.tree
        if tp.max_leaves is not None:
            raise ValueError("a forest grown with max_leaves cannot be cut: its trees do not nest")
        if min_node_size < tp.min_node_size:
            raise ValueError(
                f"cannot cut a forest grown at min_node_size {tp.min_node_size} to {min_node_size}"
            )
        if min_node_size == tp.min_node_size:
            return self
        first, inner = self.first_child, self.feature >= 0
        at = np.flatnonzero(inner)
        depth = node_depth(self.feature, first, self.roots)[at]
        rows = self.leaf_n.copy()  # every node's in-bag rows, summed up from its leaves
        for d in range(depth.max(initial=0), -1, -1):
            level = at[depth == d]
            rows[level] = rows[first[level]] + rows[first[level] + 1]
        # rows never grow down a path, so every ancestor of a node that
        # splits splits too: a node is kept when it is a root or its parent splits
        split = inner & (rows >= 2 * min_node_size)
        keep = np.zeros(len(self.feature), dtype=bool)
        keep[self.roots] = keep[first[split]] = keep[first[split] + 1] = True
        tree_of = np.repeat(np.arange(self.n_trees), self.n_nodes)
        return Forest(
            self.train,
            replace(self.params, tree=replace(tp, min_node_size=min_node_size)),
            np.bincount(tree_of[keep], minlength=self.n_trees),
            np.where(split, self.feature, -1)[keep],
            np.where(split, self.threshold, np.nan)[keep],
            self.inbag,
        )

    def stats(self) -> dict[str, float]:
        depth = node_depth(self.feature, self.first_child, self.roots)
        return {
            "mean_leaf_count": float((self.feature < 0).sum() / self.n_trees),
            "mean_depth": float(np.maximum.reduceat(depth, self.roots).mean()),
        }

    def save(self, path: str | Path) -> None:
        """Write the forest's fields as a `forestprox-forest-v6` file
        (README "File formats"); the constructor derives the rest."""
        tr = self.train
        arrays = {
            "features": tr.features,
            "labels": tr.labels,
            "inbag": self.inbag,
            "n_nodes": self.n_nodes,
            "feature": self.feature,
            "threshold": self.threshold,
        }
        payload = {
            "format": FOREST_FORMAT,
            "params": asdict(self.params),
            "feature_names": list(tr.feature_names),
            "arrays": {k: _encode(a) for k, a in arrays.items()},
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Forest":
        """Read a saved forest; its arrays are checked as they are decoded,
        its trees and inbag by the constructor."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("format") != FOREST_FORMAT:
            raise ValueError(f"not a {FOREST_FORMAT} file: {path}")
        pp = _field(payload, "params", "model file")
        try:
            params = ForestParams(**{**pp, "tree": TreeParams(**_field(pp, "tree", "params"))})
        except TypeError as exc:
            raise ValueError(f"bad params: {exc}") from exc
        names = _field(payload, "feature_names", "model file")
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ValueError("feature_names must be a list of strings")
        arrays = _field(payload, "arrays", "model file")
        a = {k: _decode(_field(arrays, k, "arrays"), k, kind) for k, kind in _ARRAY_KINDS.items()}
        train = Dataset(a.pop("features"), a.pop("labels"), tuple(names))
        return cls(train, params, **a)


# Every array a v6 file holds, with the kind it must hold ('f' float64,
# 'i' integers); inbag's kind is checked with its counts.
_ARRAY_KINDS = {
    "features": "f",
    "labels": "i",
    "inbag": None,
    "n_nodes": "i",
    "feature": "i",
    "threshold": "f",
}


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} needs an object with key {key!r}")
    return obj[key]


def _encode(a: np.ndarray) -> dict:
    """{dtype, shape, data}: floats as '<f8', integers in the narrowest
    dtype of _INT_DTYPES that holds their range, data the base64 of the
    little-endian bytes."""
    if a.dtype.kind == "f":
        dt = np.dtype("<f8")
    else:
        lo, hi = int(a.min()), int(a.max())
        dt = next(d for d in _INT_DTYPES if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max)
    data = base64.b64encode(np.ascontiguousarray(a, dtype=dt).tobytes()).decode("ascii")
    return {"dtype": dt.str, "shape": list(a.shape), "data": data}


def _decode(header, name: str, kind: str | None) -> np.ndarray:
    """The array a {dtype, shape, data} header describes, integers widened
    to int64. The header is checked before its bytes are used: an
    allowed dtype of the wanted kind, a shape of non-negative integers,
    valid base64, and exactly prod(shape) * itemsize bytes."""
    dtype, shape, data = (_field(header, k, f"array {name}") for k in ("dtype", "shape", "data"))
    if not isinstance(dtype, str) or dtype not in _ARRAY_DTYPES:
        raise ValueError(f"array {name}: dtype {dtype!r} is not one of {sorted(_ARRAY_DTYPES)}")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"array {name}: shape must be a list of non-negative ints, got {shape!r}")
    if kind is not None and (dtype == "<f8") != (kind == "f"):
        wanted = "float64 values" if kind == "f" else "integers"
        raise ValueError(f"array {name} must hold {wanted}, got dtype {dtype}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, binascii.Error) as exc:
        raise ValueError(f"array {name}: data is not valid base64") from exc
    dt = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dt.itemsize:
        raise ValueError(f"array {name}: {len(raw)} bytes of data for shape {shape} of {dtype}")
    out = np.frombuffer(raw, dtype=dt).reshape(shape)
    return out if dt.kind == "f" else out.astype(np.int64)


def _check_nodes(feature, threshold, sizes, n_trees: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Check n_trees trees of sizes[t] nodes each, their node arrays
    `feature` and `threshold`, and return their roots and first
    children (see `Forest`).

    Every tree is nonempty and the node arrays have one length. A tree
    with r internal nodes has 2r + 1 nodes, and its r-th internal node
    comes before node 2r + 1, so every child index exceeds its parent's
    and lies inside the tree, and routing always ends at a leaf. Splits
    use a feature in [0, p) and a finite threshold, and leaves feature -1
    and a NaN threshold, so that `route` leaves a pair at its leaf.
    """
    m = feature.size
    # sizes are bounded before they are summed, so the sum cannot wrap
    if (sizes.shape != (n_trees,) or ((sizes < 1) | (sizes > m)).any() or sizes.sum() != m
            or threshold.shape != (m,)):
        raise ValueError("tree node arrays must be nonempty and of one length, the sum of n_nodes")
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(n_trees), sizes)
    inner = np.flatnonzero(feature >= 0)
    if (2 * np.bincount(tree_of[inner], minlength=n_trees) + 1 != sizes).any():
        raise ValueError("a tree of r splits needs 2r + 1 nodes, or a child index leaves it")
    first = first_child(feature, tree_of)
    if (first[inner] <= inner).any():
        raise ValueError("a tree's r-th split must come before node 2r + 1, its first child index")
    if (feature[inner] >= p).any():
        raise ValueError(f"split feature outside [0, {p})")
    if not np.isfinite(threshold[inner]).all():
        raise ValueError("split thresholds must be finite")
    leaf = feature < 0
    if (feature[leaf] != -1).any() or not np.isnan(threshold[leaf]).all():
        raise ValueError("a leaf needs feature -1 and a NaN threshold")
    return roots, first


def train_forest(d: Dataset, params: ForestParams) -> Forest:
    seeds = derive_seeds(params.seed, params.n_trees)
    return Forest(d, params, *grow_trees(d, params.tree, seeds))

