"""Analytic model of the forest kernel, and a Laplace-kernel bandwidth sweep.

The stylized tree here grows a fixed number of leaves on [0,1]^p with no
data: each step picks a leaf uniformly, draws `mtry` candidate
coordinates, prefers a signal ("strong") coordinate uniformly when one
was drawn (otherwise splits a noise coordinate), and cuts uniformly
inside the leaf's extent. The closed-form kernel approximation assigns
per-coordinate decay weights p_S / p_W from the per-split selection
probabilities; both are validated against direct simulation.

Convention throughout: strong coordinates come first (indices 0..S-1);
another strong set is reached by permuting the columns at the caller,
`X[:, np.r_[sorted(strong), weak]]`. Every kernel here is batched: it
takes an (m, p) matrix of points and returns (m,) values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log

import numpy as np

from .data_model import Dataset, check_bytes, check_integer


@dataclass(frozen=True)
class NaiveKernelSpec:
    leaves: int
    strong: int
    weak: int
    mtry: int

    def __post_init__(self):
        check_integer("leaves", self.leaves, 1)
        check_integer("strong", self.strong, 0)
        check_integer("weak", self.weak, 0)
        check_integer("mtry", self.mtry)
        if self.p < 1:
            raise ValueError("need at least one coordinate (strong + weak >= 1)")
        if not 1 <= self.mtry <= self.p:
            raise ValueError(f"mtry must be in [1, {self.p}], got {self.mtry}")

    @property
    def p(self) -> int:
        return self.strong + self.weak


def strong_weak_weights(spec: NaiveKernelSpec) -> tuple[float, float]:
    """Per-split selection probability of one strong / one weak coordinate.

    A strong coordinate is split exactly when the mtry candidates hold at
    least one, and then each of the S is equally likely, so with
    m = mtry and p = S + W

      p_S = (1 - C(W, m) / C(p, m)) / S,   p_W = C(W, m) / (W C(p, m)),

    and p_W is exactly 0 once m > W. This is the paper's sum
    sum_k C(S-1, k-1) C(W, m-k) / (k C(p, m)) in closed form, and the
    one the Monte Carlo oracle confirms. Each weight is one division of
    exact integers, so it is correctly rounded.
    """
    S, W, m, p = spec.strong, spec.weak, spec.mtry, spec.p
    # misses: the draws of m candidates that hold no strong coordinate
    draws, misses = comb(p, m), comb(W, m)
    p_s = (draws - misses) / (S * draws) if S else 0.0
    p_w = misses / (W * draws) if W else 0.0
    return p_s, p_w


def _check_unit_points(X, p: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"expected an (m, {p}) matrix of points, got shape {X.shape}")
    if not ((X >= 0.0) & (X <= 1.0)).all():
        raise ValueError("coordinates must lie in [0, 1]")
    return X


def naive_kernel(spec: NaiveKernelSpec, X) -> np.ndarray:
    """Closed-form kernel value against the origin for every row of X, (m,).

    exp(-log(leaves) * (p_S * sum of strong coords + p_W * sum of weak)),
    the strong coordinates being the first S columns. Translation-variant
    by construction; callers wanting K(x, z) evaluate at |x - z|.
    """
    X = _check_unit_points(X, spec.p)
    S = spec.strong
    p_s, p_w = strong_weak_weights(spec)
    # C-contiguous copies sum each row in the order a lone vector's sum does
    strong_sum = np.ascontiguousarray(X[:, :S]).sum(axis=1)
    weak_sum = np.ascontiguousarray(X[:, S:]).sum(axis=1)
    return np.exp(-log(spec.leaves) * (p_s * strong_sum + p_w * weak_sum))


# the candidate draws' and the bandwidth sweep's work arrays hold about this
# many elements: they walk their rows (nodes, evaluation rows) in blocks
_BLOCK_ELEMENTS = 1 << 17


def _blocks(n: int, p: int):
    """Consecutive slices covering range(n), each of _BLOCK_ELEMENTS // p
    rows (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // p)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _split_coords(rng: np.random.Generator, spec: NaiveKernelSpec, k: int) -> np.ndarray:
    """Split coordinate of k stylized nodes (strong = first S coordinates).

    Each node draws `mtry` candidates as the smallest of p uniform keys,
    then one uniform per coordinate that picks among the strong
    candidates when there are any and among all candidates otherwise.
    Both (k, p) draws come from `rng`, keys first, each in the row blocks
    of `_blocks`: all key blocks, then all pick blocks. So `rng` yields the
    doubles of two whole (k, p) draws in the same order and ends in the
    same state, while only the (k, p) boolean mask of non-candidates is
    kept between the passes; the draws reuse one block-sized buffer.
    """
    p, S, mtry = spec.p, spec.strong, spec.mtry
    blocks = _blocks(k, p)
    buf = np.empty((blocks[0].stop if blocks else 0, p))
    partitioned = np.empty_like(buf)
    outside = np.empty((k, p), dtype=bool)
    for b in blocks:
        m = b.stop - b.start
        keys = rng.random(out=buf[:m])
        part = partitioned[:m]
        np.copyto(part, keys)
        part.partition(mtry - 1, axis=1)
        rows = outside[b]
        # the non-candidates are the keys above each row's mtry-th smallest,
        # p - mtry of them in every row unless a key ties that value
        np.greater(keys, part[:, mtry - 1 : mtry], out=rows)
        if np.count_nonzero(rows) != m * (p - mtry):
            rows.fill(True)
            np.put_along_axis(
                rows, np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], False, axis=1
            )
        # a node holding a strong candidate picks among the strong ones only
        rows[~rows[:, :S].all(axis=1), S:] = True
    coord = np.empty(k, dtype=np.intp)
    for b in blocks:
        pick = rng.random(out=buf[: b.stop - b.start])
        # picks lie in [0, 1): adding one lifts every non-candidate above them all
        pick += outside[b]
        coord[b] = pick.argmin(axis=1)
    return coord


# trials per `_split_coords` pass of mc_selection_freq: the passes set how a
# seed's draws interleave, so another value would give other counts
_TRIALS_PER_PASS = 20_000


def mc_selection_freq(spec: NaiveKernelSpec, trials: int, seed: int) -> np.ndarray:
    """Empirical per-coordinate split frequency over `trials` simulated
    candidate draws (strong = first S coordinates), made `_split_coords`
    passes of `_TRIALS_PER_PASS` nodes at a time. Oracle for
    strong_weak_weights.
    """
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    counts = np.zeros(spec.p, dtype=np.int64)
    for done in range(0, trials, _TRIALS_PER_PASS):
        b = min(_TRIALS_PER_PASS, trials - done)
        counts += np.bincount(_split_coords(rng, spec, b), minlength=spec.p)
    return counts / trials


# bytes a cut costs at the peak of `_origin_cuts`, which holds the step
# lists, their concatenations, the sort order and the sorted copies at once:
# tracemalloc reads 80 at leaves 2, where every cut is a pair of its own,
# and 50-61 at more leaves, where a pair's cuts share its entries
_CUT_BYTES = 80


def _cut_list_bytes(cuts: int, k: int, p: int) -> int:
    """Most bytes `_origin_cuts` holds once it has drawn `cuts` cuts, the
    latest step's k among them: _CUT_BYTES a cut, plus that step's (k, p)
    candidate mask and two float64 draw blocks in `_split_coords`."""
    return _CUT_BYTES * cuts + k * p + 16 * min(k * p, max(_BLOCK_ELEMENTS, p))


def _origin_cuts(
    spec: NaiveKernelSpec, n_trees: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the cell containing the origin for n_trees stylized trees;
    returns (tree, coord, hi): one entry for each (tree, coordinate) pair
    that was cut, sorted by tree then coordinate, with the pair's upper
    edge after growth. Every other edge stays at 1.

    Only the origin cell needs tracking: at step m there are m leaves, so
    it is selected with probability 1/m, and splits of other leaves do not
    move its boundaries. A cut at u scales the pair's edge by u, so the
    edge is the product of its cuts' u in step order: u * 1.0 is u and
    IEEE products commute, so this is the edge a dense (n_trees, p) array
    updated in place would hold, bit for bit.

    Each step's cuts are counted as its selection is drawn, before its
    candidates are: a growth whose `_cut_list_bytes` exceed the request
    cap (`check_bytes`) is refused then, so a refusal depends only on
    (spec, n_trees, seed).
    """
    rng = np.random.default_rng(seed)
    keys, us = [], []
    cuts = 0
    for m in range(1, spec.leaves):
        sel = np.flatnonzero(rng.random(n_trees) < 1.0 / m)
        if sel.size == 0:
            continue
        cuts += sel.size
        check_bytes(
            f"{cuts} cuts on {n_trees} trees need", _cut_list_bytes(cuts, sel.size, spec.p)
        )
        keys.append(sel * spec.p + _split_coords(rng, spec, sel.size))
        us.append(rng.random(sel.size))
    if not keys:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    # reduceat multiplies each pair's run of cuts left to right, in step order
    hi = np.multiply.reduceat(np.concatenate(us)[order], first)
    tree, coord = np.divmod(key[first], spec.p)
    return tree, coord, hi


def mc_proximity(spec: NaiveKernelSpec, X, *, n_trees: int, seed: int) -> np.ndarray:
    """For every row x of X, the fraction of simulated stylized trees whose
    origin cell contains x (strong = first S coordinates), (m,).

    This is the direct simulation the closed form approximates; one call
    simulates one batch of n_trees trees (`_origin_cuts`) and scores every
    row against it: a tree holds x unless one of its cut edges lies below
    x's coordinate. Two sizes are refused before the first draw, against
    the request cap (`check_bytes`): n_trees whose first growth step,
    which cuts every tree, would hold more (`_cut_list_bytes`), and a
    growth whose selection draws, 8 * n_trees * (leaves - 1) bytes were
    they held at once, would. `_origin_cuts` refuses a larger cut list as
    it is drawn.
    """
    check_integer("n_trees", n_trees, 1)
    check_integer("seed", seed, 0)
    if spec.leaves > 1:  # step 1 selects every tree: its draws all lie below 1
        check_bytes(f"{n_trees} trees need", _cut_list_bytes(n_trees, n_trees, spec.p))
    check_bytes(
        f"the selection draws of {spec.leaves} leaves on {n_trees} trees need",
        8 * n_trees * (spec.leaves - 1),
    )
    X = _check_unit_points(X, spec.p)
    tree, coord, hi = _origin_cuts(spec, n_trees, seed)
    # the trees come sorted: each tree with an edge below x starts one run
    out = [np.count_nonzero(np.diff(tree[hi < x[coord]], prepend=-1)) for x in X]
    return (n_trees - np.array(out, dtype=np.int64)) / n_trees


def breiman_kernel(Z, x0, leaves: int) -> np.ndarray:
    """Symmetric Laplacian kernel for fully non-adaptive splitting,
    exp(-(log(leaves) / p) * L1 distance), for every row z of Z against
    x0, (m,)."""
    Z = np.asarray(Z, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if Z.ndim != 2 or x0.ndim != 1 or Z.shape[1] != x0.size:
        raise ValueError(f"need an (m, p) matrix and a p-vector, got {Z.shape} and {x0.shape}")
    check_integer("leaves", leaves, 1)
    return np.exp(-(log(leaves) / x0.size) * np.ascontiguousarray(np.abs(Z - x0)).sum(axis=1))


def bandwidth_sweep(
    train: Dataset, X_eval, targets, weights, bandwidths
) -> np.ndarray:
    """Holdout RMSE against `targets` of the kernel-weighted label average
    under exp(-bandwidth * sum_j weights_j |x_j - z_j|), for each bandwidth;
    NaN where the kernel degenerates. One distance matrix is shared, built
    from the differences of one row block of X_eval (`_blocks`) at a time."""
    targets = np.asarray(targets, dtype=np.float64)
    X_eval = np.asarray(X_eval, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    D = np.empty((len(X_eval), train.n))
    for b in _blocks(len(X_eval), train.n * train.p):
        D[b] = np.abs(X_eval[b, None, :] - train.features[None, :, :]).dot(w)
    out = np.empty(len(bandwidths))
    for i, lam in enumerate(np.asarray(bandwidths, dtype=np.float64)):
        K = np.exp(-lam * D)
        mass = K.sum(axis=1)
        if not (mass > 0).all():
            out[i] = np.nan
            continue
        preds = (K @ train.labels) / mass
        out[i] = float(np.sqrt(np.mean((preds - targets) ** 2)))
    return out
