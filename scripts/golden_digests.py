#!/usr/bin/env python3
"""Golden-output gate: SHA-256 digests of fixed-seed trees and predictions.

Grows small forests over a matrix of seeds x split modes {impurity,
completely_random} x bootstrap on/off x {min_node_size 1, min_node_size
5, max_leaves 3, max_leaves 17} and digests every tree's arrays, its
in-bag count vector and the class_vote, reg_mean and prox vectors on a
fixed query batch. A refactor that must keep outputs bit-identical leaves
every digest unchanged.

    python scripts/golden_digests.py            # check against the stored file
    python scripts/golden_digests.py --write    # regenerate the stored file
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from forestprox.data_model import Dataset
from forestprox.forest import PREDICT_MODES, ForestParams, derive_seeds, train_forest
from forestprox.tree import SPLIT_MODES, TreeParams, node_depth

DIGEST_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_digests.json"

# (seed, mtry) pairs; p = 5, so mtry 5 scores every feature at every node
SEEDS = ((0, 1), (1, 2), (2, 5))
STOPS = {
    "min_node_size=1": dict(min_node_size=1),
    "min_node_size=5": dict(min_node_size=5),
    "max_leaves=3": dict(max_leaves=3),
    "max_leaves=17": dict(max_leaves=17),
}
N_TREES = 3
TREE_ARRAYS = ("feature", "threshold", "left", "right", "node_depth", "leaf_n", "leaf_pos")


def golden_data(seed: int) -> tuple[Dataset, np.ndarray]:
    """Training set (70 x 5) and query batch (40 x 5) with many ties.

    Columns: two continuous normals, an integer in 0..3, a value rounded to
    one decimal, and a normal with a block of signed zeros.
    """
    rng = np.random.default_rng([seed, 2018])

    def draw(n):
        X = np.column_stack(
            [
                rng.normal(size=n),
                rng.normal(size=n),
                rng.integers(0, 4, size=n).astype(float),
                np.round(rng.uniform(-1, 1, size=n), 1),
                rng.normal(size=n),
            ]
        )
        X[: n // 5, 4] = np.where(np.arange(n // 5) % 2 == 0, 0.0, -0.0)
        return X

    X = draw(70)
    logit = 2.0 * X[:, 0] + X[:, 2] - 1.5
    y = (rng.random(70) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    d = Dataset(X, y, tuple(f"x{j + 1}" for j in range(X.shape[1])))
    Q = np.vstack([draw(30), X[:10]])
    return d, Q


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def tree_digest(f, t: int) -> str:
    """Digest of tree t of forest f: its slice of the node table, with
    child ids local to the tree (-1 at leaves) and node depths."""
    nodes = slice(f.roots[t], f.roots[t] + f.n_nodes[t])
    inner = f.feature[nodes] >= 0
    left = np.where(inner, f.first_child[nodes] - f.roots[t], -1)
    arrays = {
        "feature": f.feature[nodes],
        "threshold": f.threshold[nodes],
        "left": left,
        "right": np.where(inner, left + 1, -1),
        "node_depth": node_depth(f.feature, f.first_child, f.roots)[nodes],
        "leaf_n": f.leaf_n[nodes],
        "leaf_pos": f.leaf_pos[nodes],
    }
    chunks = [str(derive_seeds(f.params.seed, f.n_trees)[t]).encode(), str(f.p).encode()]
    for name in TREE_ARRAYS:
        arr = arrays[name]
        dtype = "<f8" if arr.dtype.kind == "f" else "<i8"
        chunks += [name.encode(), arr.astype(dtype).tobytes()]
    chunks += [b"inbag", f.inbag[t].astype("<i8").tobytes()]
    return _sha(chunks)


def compute_digests() -> dict:
    out = {}
    for seed, mtry in SEEDS:
        d, Q = golden_data(seed)
        for mode in SPLIT_MODES:
            for bootstrap in (True, False):
                for stop, stop_kw in STOPS.items():
                    params = ForestParams(
                        n_trees=N_TREES,
                        tree=TreeParams(mtry=mtry, split_mode=mode, bootstrap=bootstrap, **stop_kw),
                        seed=seed,
                    )
                    f = train_forest(d, params)
                    entry = {"trees": [tree_digest(f, t) for t in range(f.n_trees)]}
                    for pm in PREDICT_MODES:
                        entry[pm] = _sha([f.predict_proba_batch(Q, pm).astype("<f8").tobytes()])
                    key = f"seed={seed},mtry={mtry},{mode},bootstrap={int(bootstrap)},{stop}"
                    out[key] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help="rewrite the stored digests")
    args = ap.parse_args(argv)
    digests = compute_digests()
    if args.write:
        DIGEST_PATH.parent.mkdir(parents=True, exist_ok=True)
        DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} configurations to {DIGEST_PATH}")
        return 0
    stored = json.loads(DIGEST_PATH.read_text())
    bad = sorted(k for k in stored.keys() | digests.keys() if stored.get(k) != digests.get(k))
    for k in bad:
        print(f"MISMATCH {k}")
    print(f"{len(digests) - len(bad)}/{len(stored)} configurations match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
