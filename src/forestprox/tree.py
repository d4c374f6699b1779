"""Growth, routing and node depths over a node table: binary-label trees
stored one after another, each numbered breadth-first.

`grow_trees` grows a table. Each node draws `mtry` candidate features and
minimizes gini impurity over midpoint thresholds (for 0/1 labels the
squared error about the side means has the same minimizer), or, in
completely_random mode, draws the feature and threshold uniformly.
Every draw of a node is a mix of its 64-bit key, and a key is a mix of
its parent's key and its side, so a node's split depends only on its
path from the root: the tree grown at a larger min_node_size is a cut of
the smaller one's (`Forest.cut`). Growth carries each tree's distinct
in-bag rows once, weighted by their in-bag counts, and scores each
level's nodes once with `_best_splits`, the one split search, a chunk of
nodes per call. It returns only the node arrays and the in-bag counts;
the forest routes its in-bag training rows (`route`) to count each leaf's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, store_integers

SPLIT_MODES = ("impurity", "completely_random")

# Resolves float noise when two splits have algebraically equal scores; far
# below the smallest nonzero score gap for the node sizes handled here.
_TIE_EPS = 1e-12
# A chunk of a level's nodes is those whose first (candidate or feature,
# distinct row) element falls in one window of this many, so the scorer's
# temporaries, about 33 bytes an element at their peak, stay in a 2 MiB L2
# cache. Growing 50 trees at n = 1000 and p = 50 with bootstrap, 2^15 took 4, 4,
# 7 and 13 % less time than 2^14 at mtry 1, 8 and 30 and completely_random, and
# 2^16 took 4 % less, 5 % more, 1 % less and 19 % less; without bootstrap at
# mtry 30, 2^15 and 2^16 took 9 and 4 % less (medians of 12 interleaved runs).
_CHUNK_ELEMENTS = 1 << 15
# Trees grow in groups of about this many rows, so growth's memory does not scale
# with the forest: 256 trees of 1000 rows peak 2.8 MiB above their result, not 11.9.
_GROUP_ROWS = 1 << 15

# Counter-based draws (Salmon et al., SC 2011): the draw `tag` of a node is
# `_mix(key, tag)`. Tags 0 and 1 give the keys of its left and right child,
# _PICK and _THRESHOLD completely_random's feature and threshold, and
# _FEATURE + j the priority of feature j as an impurity-mode candidate.
_PICK, _THRESHOLD, _FEATURE = 2, 3, 4
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(key, tag) -> np.ndarray:
    """The tag-th output of the splitmix64 stream seeded with key: its
    output function at key + (tag + 1) * golden, mod 2**64.

    key is a uint64 array and tag an int or int array that broadcasts
    against it. Only array operations are used: they wrap silently, where
    numpy scalar operations warn on overflow.
    """
    z = key + (np.atleast_1d(np.asarray(tag, dtype=np.uint64)) + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class TreeParams:
    mtry: int
    min_node_size: int = 1
    max_leaves: int | None = None
    split_mode: str = "impurity"
    bootstrap: bool = True

    def __post_init__(self):
        store_integers(self, mtry=1, min_node_size=1)
        if self.max_leaves is not None:
            store_integers(self, max_leaves=1)
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"split_mode must be one of {SPLIT_MODES}")
        if not isinstance(self.bootstrap, bool):
            raise TypeError(f"bootstrap must be a bool, got {self.bootstrap!r}")

    def check_dimension(self, p: int) -> None:
        if self.mtry > p:
            raise ValueError(f"mtry={self.mtry} exceeds feature count p={p}")


def first_child(feature, tree) -> np.ndarray:
    """First child of every internal node; a leaf is its own.

    A breadth-first tree's r-th internal node has children 2r + 1 and
    2r + 2. Over trees stored one after another, tree[k] the tree of node
    k, the table's R-th internal node has first child 2R + tree + 1.
    """
    inner = feature >= 0
    rank = np.cumsum(inner) - inner
    return np.where(inner, 2 * rank + tree + 1, np.arange(len(feature)))


def route(feature, threshold, first, node, row, X) -> np.ndarray:
    """Leaf reached from start node `node` by row `row` of X, for every
    pair of the two, which broadcast against each other to the result's
    shape.

    A node is a leaf when its feature is negative; otherwise its children
    are first[k] and first[k] + 1 (see `first_child`). Rows with
    x[feature] > threshold go to the second child, all others to the
    first; NaN reads as +inf, so it goes right at every split. A leaf is
    its own first child, with a NaN threshold, which no value exceeds,
    and feature -1, which reads the cell before the row's (any value will
    do), so the step leaves a pair that has reached it where it is. All
    pairs step together, two levels a pass, and the pairs still at an
    internal node are gathered into shorter arrays only once at most half
    are left.
    """
    p = X.shape[1]
    flat = np.fmin(X, np.inf).ravel()  # a C-ordered copy, NaN as +inf
    shape = np.broadcast(node, row).shape
    at, off = np.empty((2, *shape), dtype=np.intp)
    at[...], off[...] = node, row
    at, off = at.ravel(), off.ravel() * p
    out, idx = np.empty_like(at), np.arange(at.size)  # idx: where each carried pair goes
    f = feature[at]
    while True:
        inner = f >= 0
        live = np.count_nonzero(inner)
        if not live:
            break
        if 2 * live <= at.size:
            out[idx] = at
            keep = np.flatnonzero(inner)
            at, off, f, idx = at[keep], off[keep], f[keep], idx[keep]
        for _ in range(2):
            right = flat[off + f] > threshold[at]
            at = first[at]
            at += right
            f = feature[at]
    out[idx] = at
    return out.reshape(shape)


def node_depth(feature, first, roots) -> np.ndarray:
    """Depth of every node of the trees that start at roots, walking
    breadth-first from them through first[k] and first[k] + 1."""
    depth = np.zeros(len(feature), dtype=np.int64)
    level, d = np.asarray(roots, dtype=np.intp), 0
    while level.size:
        depth[level] = d
        kids = first[level[feature[level] >= 0]]
        level, d = np.concatenate([kids, kids + 1]), d + 1
    return depth


def _candidates(keys, p: int, k: int) -> np.ndarray:
    """Impurity-mode candidates of nodes with these keys, shape (nodes, k):
    the k features j of smallest `_mix(key, _FEATURE + j)`, sorted. The
    priorities are independent uniform draws, so this is a uniform draw of
    k of the p features without replacement."""
    priority = _mix(keys[:, None], _FEATURE + np.arange(p))
    return np.sort(np.argpartition(priority, k - 1, axis=1)[:, :k], axis=1)


def _gather(starts, lens):
    """Positions starts[i]:starts[i] + lens[i] for every i, one run after
    another, and where each run begins among them."""
    offset = np.cumsum(lens) - lens
    return np.arange(lens.sum()) + np.repeat(starts - offset, lens), offset


def _random_splits(d, rows, starts, lens, keys):
    """(feature, threshold) of nodes laid out as in `_best_splits`, drawn
    from keys[i] for node i: the (mix % count)-th of the count features
    with in-node spread, and lo + u * (hi - lo) in its range for u in
    [0, 1) from a second mix, or (1 - u) * lo + u * hi where hi - lo
    overflows. Feature -1 where no feature has spread or the threshold is
    not strictly inside (lo, hi)."""
    at, offset = _gather(starts, lens)
    X = d.features[rows[at]]
    lo, hi = np.minimum.reduceat(X, offset), np.maximum.reduceat(X, offset)
    spread = hi > lo
    count = spread.sum(axis=1)
    r = (_mix(keys, _PICK) % np.maximum(count, 1).astype(np.uint64)).astype(np.int64)
    j = np.argmax(np.cumsum(spread, axis=1) > r[:, None], axis=1)
    at = np.arange(lens.size)
    lo, hi = lo[at, j], hi[at, j]
    u = (_mix(keys, _THRESHOLD) >> np.uint64(11)) * 2.0**-53  # top 53 bits, in [0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        threshold = np.where(np.isfinite(span), lo + u * span, (1 - u) * lo + u * hi)
    ok = (count > 0) & (lo < threshold) & (threshold < hi)
    return np.where(ok, j, -1), np.where(ok, threshold, np.nan)


def _best_splits(d, rows, weight, starts, lens, sizes, pos, cand):
    """Best split of every node of a batch over that node's candidates.

    Node i holds the distinct rows rows[starts[i]:starts[i] + lens[i]],
    each counted as often as `weight` says at its position: sizes[i] rows
    and pos[i] positives at that multiplicity. It scores the sorted,
    distinct features cand[i]. With sizes and positives so counted, gini's
    n_l p_l (1 - p_l) + n_r p_r (1 - p_r) and the squared error about the
    side means both equal pos - (pos_l^2 / n_l + pos_r^2 / n_r) for 0/1
    labels, so every boundary is scored by s = pos_l^2 / n_l +
    pos_r^2 / n_r and the best split has the largest s. Each candidate's rows of all the nodes are
    sorted at once, by a key that packs node, rank and 2 * weight + label
    into one integer, int32 when the call's keys and sums fit in it and
    int64 otherwise, and one cumulative sum gives the weighted size and
    positives left of every boundary. Returns (feature, threshold)
    arrays; feature is -1 for a node where no candidate has two distinct
    values.
    """
    n, (n_nodes, k) = d.n, cand.shape
    at, offset = _gather(starts, lens)
    rb, wb = rows[at], weight[at]
    M = rb.size
    # Row c of the (k, M) layout holds every node's rows under its c-th
    # candidate, node by node. Sorting a row by (node, rank, low bits)
    # keeps the nodes in place and orders each by value; the order within
    # a run of equal values does not matter, as no boundary inside a run
    # is scored and the sums at its ends do not depend on it. The low bits
    # are as many as the batch's largest count needs.
    bits = int(2 * wb.max() + 1).bit_length()
    # weighted count and positives left of the boundary after each element,
    # packed as count + (positives << shift) so that one cumulative sum
    # carries both; each node's first element also takes off the totals of
    # the node before it, so the sums restart at every node. Packed sums
    # and those negative entries lie strictly within +-2^(2 * shift).
    shift = int(sizes.max()).bit_length()
    # Keys lie below (n_nodes * n) << bits. When they and the packed sums
    # fit in int32, as at n = 1000 with bootstrap counts, all the integer
    # work below is int32, which halves the bytes that every pass and the
    # sort move; otherwise it is int64. Both give the same numbers.
    small = (n_nodes * n) << bits <= 2**31 and 2 * shift <= 31
    dt = np.int32 if small else np.int64
    key = np.repeat(cand.T * n, lens, axis=1)
    key += rb
    key = d.ranks.ravel()[key].astype(dt, copy=False)
    key <<= bits
    key += (np.repeat(np.arange(n_nodes) * n << bits, lens) + 2 * wb + d.labels[rb]).astype(dt)
    key.sort(axis=1)
    # the low bits, 2 * count + label, become the element's packed count and
    # positives, count + (count * label << shift), with shifts and a multiply
    # in the key's own dtype; each integer buffer goes once it has been read
    cs = key & (1 << bits) - 1
    key >>= bits  # node * n + rank
    label = cs & 1
    cs >>= 1
    label *= cs
    label <<= shift
    cs += label
    del label
    cs[:, offset[1:]] -= sizes[:-1] + (pos[:-1] << shift)
    np.cumsum(cs, axis=1, dtype=dt, out=cs)
    # three float buffers: pos_l becomes the score, and nl becomes nr once
    # the score has read it; the float operations and their order are those
    # of pos_l^2 / nl + pos_r^2 / nr
    pos_l = (cs >> shift).astype(np.float64)
    cs &= (1 << shift) - 1
    nl = cs.astype(np.float64)
    del cs
    pos_r = np.repeat(pos.astype(np.float64), lens) - pos_l
    # one errstate for the call: nr = 0 at node ends, and a span hi - lo
    # past the float range overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        score = np.multiply(pos_l, pos_l, out=pos_l)
        score /= nl
        nr = np.subtract(np.repeat(sizes.astype(np.float64), lens), nl, out=nl)
        pos_r *= pos_r
        pos_r /= nr
        score += pos_r
        del nl, nr, pos_r
        # valid only when the next element is in the same node and has a
        # larger value
        np.copyto(score[:, :-1], -np.inf, where=key[:, 1:] == key[:, :-1])
        score[:, offset + lens - 1] = -np.inf

        # lowest feature within eps of the node's best, then lowest threshold
        seg_max = np.maximum.reduceat(score, offset, axis=1)  # (k, n_nodes)
        best = seg_max.max(axis=0)
        ok = best > -np.inf
        eps = _TIE_EPS * sizes  # sizes >= 1
        col = np.argmax(seg_max >= best - eps, axis=0)
        # first boundary of each node's chosen segment within eps of its maximum
        top = seg_max[col, np.arange(n_nodes)] - eps
        hit = np.flatnonzero(score[np.repeat(col, lens), np.arange(M)] >= np.repeat(top, lens))
        first = hit[np.searchsorted(hit, offset[ok])]

        # key - node * n is the value's rank; a run that mixes 0.0 and -0.0
        # gives the same threshold whichever of them the rank maps to
        row = col[ok]
        jf, base = cand[ok, row], np.flatnonzero(ok) * n
        lo = d.sorted_features[key[row, first] - base, jf]
        hi = d.sorted_features[key[row, first + 1] - base, jf]
        half = (hi - lo) / 2.0
        # a span past the float range: halve each end first
        thr = np.where(np.isfinite(half), lo + half, lo / 2.0 + hi / 2.0)
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.full(n_nodes, np.nan)
    feature[ok] = jf
    threshold[ok] = np.where(thr >= hi, lo, thr)  # adjacent floats; keep both sides nonempty
    return feature, threshold


def grow_trees(d: Dataset, params: TreeParams, seeds) -> tuple[np.ndarray, ...]:
    """One tree per seed, grown breadth-first and deterministically for it.

    A node becomes a leaf when it is pure, smaller than twice
    min_node_size, its tree's leaf budget is exhausted, or no usable split
    exists among the drawn candidates. Returns n_nodes, then feature and
    threshold of every tree's nodes one after another, then the (T, n)
    inbag: the arrays a `Forest` is built from. Seeds lie in [0, 2**64).

    Only the bootstrap is drawn from `np.random.default_rng(seed)`; every
    other draw is keyed. A root's key is `_mix(seed, 0)`, and the children
    of a node with key k have keys `_mix(k, 0)` (left) and `_mix(k, 1)`
    (right). Impurity mode scores the candidates `_candidates` draws from
    the key; completely_random draws as `_random_splits` says. So a node's
    split depends only on its path: without a leaf budget, the tree grown
    at a larger min_node_size is this one cut (`Forest.cut`).

    A group of trees grows one BFS level of all of them per pass. Each
    tree's distinct in-bag rows sit once in one array, node by node in
    tree and then BFS order, each with its in-bag count as a weight that
    the partition moves with it. A node's size and positives, which the
    stopping rules and the scorer's tie tolerance read, count rows at
    their multiplicity; the chunk windows count distinct rows. Every
    splittable node of a tree with leaf budget left is scored once; the
    tree keeps its first `budget` splits in BFS order, and its other nodes
    become leaves. A node's scores do not depend on which nodes share its
    `_best_splits` call: trees grow as if alone, and as if one node at a
    time.
    """
    params.check_dimension(d.p)
    step = max(1, _GROUP_ROWS // d.n)
    if len(seeds) > step:
        groups = [grow_trees(d, params, seeds[i:i + step]) for i in range(0, len(seeds), step)]
        return tuple(np.concatenate(arrays) for arrays in zip(*groups))
    n, p, T, k = d.n, d.p, len(seeds), params.mtry
    random = params.split_mode == "completely_random"
    inbag = np.stack([
        np.bincount(np.random.default_rng(seed).integers(0, n, size=n), minlength=n)
        if params.bootstrap else np.ones(n, dtype=np.int64)
        for seed in seeds
    ])
    # each tree's distinct in-bag rows, weighted by their in-bag counts
    tree_of, rows = np.nonzero(inbag)
    weight = inbag[tree_of, rows]
    lens = np.bincount(tree_of, minlength=T)
    tree = np.arange(T)  # the tree of every node of the level
    key = _mix(np.array(seeds, dtype=np.uint64), 0)
    # splits left in each tree's leaf budget; a tree never has more than n leaves
    budget = np.full(T, n if params.max_leaves is None else params.max_leaves - 1)
    levels = []
    while lens.size:
        cnt = lens.size
        starts = np.cumsum(lens) - lens
        sizes = np.add.reduceat(weight, starts)
        pos = np.add.reduceat(weight * d.labels[rows], starts)
        feature, threshold = np.full(cnt, -1, dtype=np.int32), np.full(cnt, np.nan)
        # every splittable node of a tree with budget left is scored, in BFS order;
        # each tree keeps its first `budget` splits and the rest become leaves
        todo = np.flatnonzero(
            (sizes >= 2 * params.min_node_size) & (pos > 0) & (pos < sizes) & (budget[tree] > 0)
        )
        elems = lens[todo] * (p if random else k)
        window = (np.cumsum(elems) - elems) // _CHUNK_ELEMENTS
        for c in np.split(todo, np.flatnonzero(np.diff(window)) + 1) if todo.size else ():
            if random:
                found = _random_splits(d, rows, starts[c], lens[c], key[c])
            else:
                found = _best_splits(d, rows, weight, starts[c], lens[c], sizes[c], pos[c],
                                     _candidates(key[c], p, k))
            feature[c], threshold[c] = found
        split = np.flatnonzero(feature >= 0)
        t_of = tree[split]
        over = np.arange(split.size) - np.searchsorted(t_of, t_of) >= budget[t_of]
        feature[split[over]], threshold[split[over]] = -1, np.nan
        split = split[~over]
        budget -= np.bincount(tree[split], minlength=T)
        leaf = feature < 0
        levels.append((tree, feature, threshold))

        # stable partition: each split node's left rows, then its right rows,
        # rows and weights together
        node_of = np.repeat(np.arange(cnt), lens)
        keep = ~leaf[node_of]
        rows, weight, node_of = rows[keep], weight[keep], node_of[keep]
        side = 2 * node_of + (d.features[rows, feature[node_of]] > threshold[node_of])
        order = np.argsort(side, kind="stable")
        rows, weight = rows[order], weight[order]
        lens = np.bincount(side, minlength=2 * cnt).reshape(cnt, 2)[split].ravel()
        tree = np.repeat(tree[split], 2)
        key = _mix(key[split, None], np.arange(2)).ravel()

    # a stable sort by tree gathers each tree's nodes, still in BFS order
    tree, *nodes = (np.concatenate(cols) for cols in zip(*levels))
    order = np.argsort(tree, kind="stable")
    return (np.bincount(tree, minlength=T), *(a[order] for a in nodes), inbag)
