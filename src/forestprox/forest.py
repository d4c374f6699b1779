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

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .data_model import Dataset
from .tree import Tree, TreeParams, grow_tree, route

PREDICT_MODES = ("class_vote", "reg_mean", "prox")

FOREST_FORMAT = "forestprox-forest-v2"


@dataclass(frozen=True)
class ForestParams:
    n_trees: int
    tree: TreeParams
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


# Largest proximity matrix, in bytes, that `proximity_matrix` builds:
# the float64 result plus one tree's boolean co-occupancy, 9 bytes a pair
# (about 5,460 points).
PROXIMITY_MATRIX_MAX_BYTES = 1 << 28


def derive_tree_seeds(seed: int, n_trees: int) -> list[int]:
    """Counter-style per-tree seeds; independent of training order."""
    state = np.random.SeedSequence(seed).generate_state(n_trees, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    train: Dataset
    params: ForestParams

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def p(self) -> int:
        return self.train.p

    # NaN would route right at every split, since x <= thr is false for it
    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"expected {self.p} coordinates, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite query coordinate {int(np.argmin(np.isfinite(x)))}")
        return x

    def _check_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ValueError(f"expected (q, {self.p}) matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            bad = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"non-finite query value at row {bad[0]}, column {bad[1]}")
        return X

    @cached_property
    def _packed(self) -> SimpleNamespace:
        """Every tree's node arrays concatenated once, child indices
        shifted to point into the concatenation."""
        sizes = np.array([t.n_nodes for t in self.trees], dtype=np.intp)
        roots = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
        cat = lambda name: np.concatenate([getattr(t, name) for t in self.trees])
        shift = np.repeat(roots, sizes)
        return SimpleNamespace(
            roots=roots,
            feature=cat("feature").astype(np.intp),
            threshold=cat("threshold"),
            children=np.stack([cat("right") + shift, cat("left") + shift], axis=1).ravel(),
        )

    # Packed apart from the routing arrays: `load` routes the training rows
    # before it knows the trees' leaf counts.
    @cached_property
    def _leaf_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.concatenate([t.leaf_n for t in self.trees]),
                np.concatenate([t.leaf_pos for t in self.trees]))

    @cached_property
    def _train_leaves(self) -> np.ndarray:
        """(T, n) tree-local leaf of every training row."""
        return self.leaves(self.train.features)

    def _route(self, X: np.ndarray) -> np.ndarray:
        k = self._packed
        return route(k.feature, k.threshold, k.children, k.roots, X)

    def leaves(self, X) -> np.ndarray:
        """Leaf reached by every row of X in every tree, shape (T, q).

        Ids are tree-local: the training rows whose leaf in tree t is
        L[t, i], counted trees[t].inbag times, share row i's leaf there.
        """
        return self._route(self._check_matrix(X)) - self._packed.roots[:, None]

    def estimate(self, L: np.ndarray, mode: str = "prox") -> np.ndarray:
        """One estimator at q points from their leaves, as `leaves` gives them."""
        if mode not in PREDICT_MODES:
            raise ValueError(f"mode must be one of {PREDICT_MODES}, got {mode!r}")
        leaf_n, leaf_pos = self._leaf_counts
        G = L + self._packed.roots[:, None]
        if mode == "prox":
            return leaf_pos[G].sum(axis=0) / leaf_n[G].sum(axis=0)
        p_t = leaf_pos[G] / leaf_n[G]
        if mode == "class_vote":
            return (p_t >= 0.5).sum(axis=0) / self.n_trees
        # cumsum adds trees in tree order; sum(axis=0) adds pairwise at q = 1
        return np.cumsum(p_t, axis=0)[-1] / self.n_trees

    def predict_proba(self, x, mode: str = "prox") -> float:
        return float(self.predict_proba_batch(np.asarray(x, dtype=np.float64)[None, :], mode)[0])

    def predict_proba_batch(self, X, mode: str = "prox") -> np.ndarray:
        return self.estimate(self.leaves(X), mode)

    def proximity(self, x, z) -> float:
        """Fraction of trees in which x and z share a terminal node."""
        return float(self.proximity_many(self._check_vector(x)[None, :], z)[0])

    def proximity_many(self, X, z) -> np.ndarray:
        """proximity(x, z) for every row x of X, from one routing pass."""
        z = self._check_vector(z)
        X = self._check_matrix(X)
        G = self._route(np.concatenate([z[None, :], X]))
        return (G[:, 1:] == G[:, :1]).sum(axis=0) / self.n_trees

    def proximity_matrix(self, points, max_bytes: int = PROXIMITY_MATRIX_MAX_BYTES) -> np.ndarray:
        """Dense (n, n) proximity of every pair of points.

        Refused before anything is allocated when the float64 result plus
        one tree's (n, n) boolean co-occupancy exceeds `max_bytes`.
        """
        X = np.asarray(points.features if isinstance(points, Dataset) else points)
        n = X.shape[0] if X.ndim else 0
        if 9 * n * n > max_bytes:
            raise ValueError(f"{n} points need {9 * n * n} bytes, over the cap of {max_bytes}")
        L = self._route(self._check_matrix(X))
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
        L = self.leaves(self._check_vector(x0)[None, :])
        inbag = np.stack([t.inbag for t in self.trees])
        counts = np.where(self._train_leaves == L, inbag, 0).sum(axis=0).astype(np.float64)
        total = counts.sum()
        if total <= 0:
            raise ValueError("no training rows share a leaf with x0")
        return counts / total

    def stats(self) -> dict[str, float]:
        return {
            "mean_leaf_count": float(np.mean([t.leaf_count for t in self.trees])),
            "mean_depth": float(np.mean([t.depth for t in self.trees])),
        }

    def save(self, path: str | Path) -> None:
        payload = {
            "format": FOREST_FORMAT,
            "params": {
                "n_trees": self.params.n_trees,
                "seed": self.params.seed,
                "tree": {
                    "mtry": self.params.tree.mtry,
                    "min_node_size": self.params.tree.min_node_size,
                    "max_leaves": self.params.tree.max_leaves,
                    "split_mode": self.params.tree.split_mode,
                    "bootstrap": self.params.tree.bootstrap,
                    "criterion": self.params.tree.criterion,
                },
            },
            "train": {
                "features": self.train.features.tolist(),
                "labels": self.train.labels.tolist(),
                "feature_names": list(self.train.feature_names),
                "true_probs": None
                if self.train.true_probs is None
                else self.train.true_probs.tolist(),
            },
            "trees": [
                {
                    "seed": t.seed,
                    "feature": t.feature.tolist(),
                    "threshold": [None if f < 0 else float(v) for f, v in zip(t.feature, t.threshold)],
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "node_depth": t.node_depth.tolist(),
                    "inbag": t.inbag.tolist(),
                }
                for t in self.trees
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Forest":
        """Read a saved forest, check every tree, and derive each leaf's
        counts by routing the training rows at their in-bag multiplicity."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != FOREST_FORMAT:
            raise ValueError(f"not a {FOREST_FORMAT} file: {path}")
        tr = payload["train"]
        train = Dataset(
            features=np.asarray(tr["features"], dtype=np.float64),
            labels=np.asarray(tr["labels"], dtype=np.int64),
            feature_names=tuple(tr["feature_names"]),
            true_probs=None if tr["true_probs"] is None else np.asarray(tr["true_probs"]),
        )
        tp = payload["params"]["tree"]
        params = ForestParams(
            n_trees=payload["params"]["n_trees"],
            tree=TreeParams(**tp),
            seed=payload["params"]["seed"],
        )
        if len(payload["trees"]) != params.n_trees:
            raise ValueError(f"file holds {len(payload['trees'])} trees, params say {params.n_trees}")
        trees = []
        for td in payload["trees"]:
            trees.append(
                Tree(
                    feature=np.asarray(td["feature"], dtype=np.int32),
                    threshold=np.asarray(
                        [np.nan if v is None else v for v in td["threshold"]], dtype=np.float64
                    ),
                    left=np.asarray(td["left"], dtype=np.int32),
                    right=np.asarray(td["right"], dtype=np.int32),
                    node_depth=np.asarray(td["node_depth"], dtype=np.int32),
                    leaf_n=None,  # derived below from the routed training rows
                    leaf_pos=None,
                    inbag=np.asarray(td["inbag"]),
                    seed=int(td["seed"]),
                    n_features=train.p,
                )
            )
            trees[-1].check(train.n)
        forest = cls(trees=tuple(trees), train=train, params=params)
        for t, leaf in zip(trees, forest._train_leaves):
            t.leaf_n, t.leaf_pos = (
                np.bincount(leaf, weights=w, minlength=t.n_nodes).astype(np.int64)
                for w in (t.inbag, t.inbag * train.labels)
            )
            if (t.leaf_n[t.feature < 0] == 0).any():
                raise ValueError("every leaf needs leaf_n > 0: a leaf holds no in-bag training row")
        return forest


def train_forest(d: Dataset, params: ForestParams) -> Forest:
    params.tree.check_dimension(d.p)
    seeds = derive_tree_seeds(params.seed, params.n_trees)
    trees = tuple(grow_tree(d, params.tree, s) for s in seeds)
    return Forest(trees=trees, train=d, params=params)
