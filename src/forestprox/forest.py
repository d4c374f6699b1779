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
from pathlib import Path

import numpy as np

from .data_model import Dataset
from .tree import Tree, TreeParams, grow_tree

PREDICT_MODES = ("class_vote", "reg_mean", "prox")

FOREST_FORMAT = "forestprox-forest-v1"


@dataclass(frozen=True)
class ForestParams:
    n_trees: int
    tree: TreeParams
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


@dataclass(frozen=True)
class ProximityMatrix:
    values: np.ndarray
    n: int


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

    def predict_proba(self, x, mode: str = "prox") -> float:
        return float(self.predict_proba_batch(np.asarray(x, dtype=np.float64)[None, :], mode)[0])

    def predict_proba_batch(self, X, mode: str = "prox") -> np.ndarray:
        if mode not in PREDICT_MODES:
            raise ValueError(f"mode must be one of {PREDICT_MODES}, got {mode!r}")
        X = self._check_matrix(X)
        q = X.shape[0]
        if mode == "prox":
            num = np.zeros(q)
            den = np.zeros(q)
            for t in self.trees:
                leaves = t.apply(X)
                num += t.leaf_pos[leaves]
                den += t.leaf_n[leaves]
            return num / den
        acc = np.zeros(q)
        for t in self.trees:
            leaves = t.apply(X)
            p_t = t.leaf_pos[leaves] / t.leaf_n[leaves]
            acc += (p_t >= 0.5) if mode == "class_vote" else p_t
        return acc / self.n_trees

    def proximity(self, x, z) -> float:
        """Fraction of trees in which x and z share a terminal node."""
        x = self._check_vector(x)
        z = self._check_vector(z)
        same = sum(t.locate(x) == t.locate(z) for t in self.trees)
        return same / self.n_trees

    def proximity_many(self, X, z) -> np.ndarray:
        """proximity(x, z) for every row x of X, vectorized per tree."""
        X = self._check_matrix(X)
        z = self._check_vector(z)
        acc = np.zeros(X.shape[0])
        for t in self.trees:
            acc += t.apply(X) == t.locate(z)
        return acc / self.n_trees

    def proximity_matrix(self, points, cap: int = 10_000) -> ProximityMatrix:
        X = points.features if isinstance(points, Dataset) else self._check_matrix(points)
        X = self._check_matrix(X)
        n = X.shape[0]
        if n > cap:
            raise ValueError(
                f"{n} points exceed the dense proximity-matrix cap of {cap}"
            )
        P = np.zeros((n, n))
        for t in self.trees:
            leaves = t.apply(X)
            P += leaves[:, None] == leaves[None, :]
        P /= self.n_trees
        return ProximityMatrix(values=P, n=n)

    def voting_weights(self, x0) -> np.ndarray:
        """Normalized kernel weights of the training rows at x0.

        Rows are counted at their in-bag multiplicity per tree, so the
        weighted label average equals the prox estimate exactly.
        """
        x0 = self._check_vector(x0)
        counts = np.zeros(self.train.n)
        for t in self.trees:
            rows = t.leaf_rows[t.locate(x0)]
            np.add.at(counts, rows, 1.0)
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
                    "leaf_n": t.leaf_n.tolist(),
                    "leaf_pos": t.leaf_pos.tolist(),
                    "leaf_rows": [None if r is None else [int(v) for v in r] for r in t.leaf_rows],
                }
                for t in self.trees
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Forest":
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
                    leaf_n=np.asarray(td["leaf_n"], dtype=np.int64),
                    leaf_pos=np.asarray(td["leaf_pos"], dtype=np.int64),
                    leaf_rows=[
                        None if r is None else np.asarray(r, dtype=np.int64)
                        for r in td["leaf_rows"]
                    ],
                    seed=int(td["seed"]),
                    n_features=train.p,
                )
            )
            trees[-1].check(train.labels)
        return cls(trees=tuple(trees), train=train, params=params)


def train_forest(d: Dataset, params: ForestParams) -> Forest:
    params.tree.check_dimension(d.p)
    seeds = derive_tree_seeds(params.seed, params.n_trees)
    trees = tuple(grow_tree(d, params.tree, s) for s in seeds)
    return Forest(trees=trees, train=d, params=params)
