"""Analytic model of the forest kernel and weighted-Laplace regression.

The stylized tree here grows a fixed number of leaves on [0,1]^p with no
data: each step picks a leaf uniformly, draws `mtry` candidate
coordinates, prefers a signal ("strong") coordinate uniformly when one
was drawn (otherwise splits a noise coordinate), and cuts uniformly
inside the leaf's extent. The closed-form kernel approximation assigns
per-coordinate decay weights p_S / p_W from the per-split selection
probabilities; both are validated against direct simulation.

Convention throughout: strong coordinates come first (indices 0..S-1)
unless an explicit `strong_set` says otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, log

import numpy as np

from .data_model import Dataset


@dataclass(frozen=True)
class NaiveKernelSpec:
    leaves: int
    strong: int
    weak: int
    mtry: int

    def __post_init__(self):
        if self.leaves < 1:
            raise ValueError(f"leaves must be >= 1, got {self.leaves}")
        if self.strong < 0 or self.weak < 0:
            raise ValueError("strong and weak counts must be >= 0")
        if self.p < 1:
            raise ValueError("need at least one coordinate (strong + weak >= 1)")
        if not 1 <= self.mtry <= self.p:
            raise ValueError(f"mtry must be in [1, {self.p}], got {self.mtry}")

    @property
    def p(self) -> int:
        return self.strong + self.weak


def strong_weak_weights(
    spec: NaiveKernelSpec, use_printed_coefficient: bool = False
) -> tuple[float, float]:
    """Per-split selection probability of one strong / one weak coordinate.

    The default binomial coefficient counts `mtry - k` weak candidates
    alongside k strong ones so that the drawn set has exactly `mtry`
    members; `use_printed_coefficient` switches to the off-by-one variant
    (mtry - k + 1) for side-by-side comparison. The default is the one the
    Monte Carlo oracle confirms, and the only one with the correct
    all-strong limit of 1/S.
    """
    S, W, mtry, p = spec.strong, spec.weak, spec.mtry, spec.p
    shift = 1 if use_printed_coefficient else 0
    p_s = 0.0
    if S >= 1:
        denom_all = comb(p, mtry)
        for k in range(1, min(S, mtry) + 1):
            w_take = mtry - k + shift
            if w_take > W:
                continue
            p_s += comb(S - 1, k - 1) * comb(W, w_take) / (k * denom_all)
    p_w = (1.0 - S * p_s) / W if W > 0 else 0.0
    if not use_printed_coefficient:
        # rounding guard: exact zero when every draw holds a strong
        # coordinate; the printed variant keeps its (diagnostic) negativity
        p_w = max(0.0, p_w)
    return p_s, p_w


def _check_unit_vector(x, p: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p,):
        raise ValueError(f"expected {p} coordinates, got shape {x.shape}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("coordinates must lie in [0, 1]")
    return x


def _check_strong_set(strong_set, spec: NaiveKernelSpec) -> np.ndarray:
    idx = np.asarray(sorted({int(i) for i in strong_set}), dtype=np.int64)
    if idx.size != spec.strong:
        raise ValueError(f"strong_set must name {spec.strong} distinct coordinates")
    if idx.size and (idx.min() < 0 or idx.max() >= spec.p):
        raise ValueError(f"strong_set indices must lie in [0, {spec.p})")
    return idx


def naive_kernel(spec: NaiveKernelSpec, x, strong_set) -> float:
    """Closed-form kernel value against the origin.

    exp(-log(leaves) * (p_S * sum of strong coords + p_W * sum of weak)).
    Translation-variant by construction; callers wanting K(x, z) evaluate
    at |x - z|.
    """
    x = _check_unit_vector(x, spec.p)
    strong = _check_strong_set(strong_set, spec)
    mask = np.zeros(spec.p, dtype=bool)
    mask[strong] = True
    p_s, p_w = strong_weak_weights(spec)
    expo = p_s * x[mask].sum() + p_w * x[~mask].sum()
    return float(np.exp(-log(spec.leaves) * expo))


def _split_coords(rng: np.random.Generator, spec: NaiveKernelSpec, k: int) -> np.ndarray:
    """Split coordinate of k stylized nodes (strong = first S coordinates).

    Each node draws `mtry` candidates as the smallest of p uniform keys,
    then one uniform per coordinate that picks among the strong
    candidates when there are any and among all candidates otherwise.
    Both (k, p) draws come from `rng` in that order; only the candidate
    set is kept between them.
    """
    p, S, mtry = spec.p, spec.strong, spec.mtry
    members = np.argpartition(rng.random((k, p)), mtry - 1, axis=1)[:, :mtry].copy()
    outside = np.ones((k, p), dtype=bool)
    outside[np.arange(k)[:, None], members] = False
    del members
    pick = rng.random((k, p))
    outside[~outside[:, :S].all(axis=1), S:] = True
    pick[outside] = np.inf
    return pick.argmin(axis=1)


def mc_selection_freq(
    spec: NaiveKernelSpec, trials: int, seed: int, chunk: int = 20_000
) -> np.ndarray:
    """Empirical per-coordinate split frequency over simulated candidate
    draws (strong = first S coordinates). Oracle for strong_weak_weights."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    counts = np.zeros(spec.p, dtype=np.int64)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        counts += np.bincount(_split_coords(rng, spec, b), minlength=spec.p)
        done += b
    return counts / trials


# Each entry is an (n_trees, p) array, 8 MB at 20,000 trees and p = 50;
# two entries serve repeated calls with one seed without holding many.
@functools.lru_cache(maxsize=2)
def _zero_cell_extents(spec: NaiveKernelSpec, n_trees: int, seed: int) -> np.ndarray:
    """Simulate the cell containing the origin for n_trees stylized trees;
    returns its per-coordinate upper edges after growth (n_trees, p).

    Only the origin cell needs tracking: at step m there are m leaves, so
    it is selected with probability 1/m, and splits of other leaves do not
    move its boundaries.
    """
    rng = np.random.default_rng(seed)
    hi = np.ones((n_trees, spec.p))
    for m in range(1, spec.leaves):
        sel = np.flatnonzero(rng.random(n_trees) < 1.0 / m)
        if sel.size == 0:
            continue
        coord = _split_coords(rng, spec, sel.size)
        cuts = rng.random(sel.size) * hi[sel, coord]
        hi[sel, coord] = cuts
    hi.setflags(write=False)
    return hi


def mc_proximity(
    spec: NaiveKernelSpec, x, strong_set, n_trees: int, seed: int
) -> float:
    """Fraction of simulated stylized trees whose origin cell contains x.

    This is the direct simulation the closed form approximates; repeated
    calls with the same (spec, n_trees, seed) reuse one simulated batch.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    x = _check_unit_vector(x, spec.p)
    strong = _check_strong_set(strong_set, spec)
    weak = np.setdiff1d(np.arange(spec.p), strong)
    x_canonical = np.concatenate([x[strong], x[weak]])
    hi = _zero_cell_extents(spec, n_trees, seed)
    return float((x_canonical <= hi).all(axis=1).mean())


def breiman_kernel(x, z, leaves: int) -> float:
    """Symmetric Laplacian kernel for fully non-adaptive splitting:
    exp(-(log(leaves) / p) * L1 distance)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape or x.ndim != 1:
        raise ValueError(f"need two equal-length vectors, got {x.shape} and {z.shape}")
    if leaves < 1:
        raise ValueError(f"leaves must be >= 1, got {leaves}")
    p = x.size
    return float(np.exp(-(log(leaves) / p) * np.abs(x - z).sum()))


@dataclass(frozen=True)
class LaplaceKernel:
    """exp(-bandwidth * sum_j weights_j * |x_j - z_j|).

    The plain constructor takes the weights as given (needed for skewed
    shapes like (10, 1)); `normalized` rescales them to sum to one.
    """

    bandwidth: float
    weights: np.ndarray

    def __post_init__(self):
        if self.bandwidth < 0:
            raise ValueError(f"bandwidth must be >= 0, got {self.bandwidth}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        w = np.array(w, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def normalized(cls, bandwidth: float, weights) -> "LaplaceKernel":
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum to normalize")
        return cls(bandwidth=bandwidth, weights=w / total)

    def __call__(self, Z, x0) -> np.ndarray:
        """k(z, x0) for every row z of Z, shape (m,)."""
        Z = np.asarray(Z, dtype=np.float64)
        x0 = np.asarray(x0, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[1:] != x0.shape or x0.shape != self.weights.shape:
            raise ValueError(
                f"dimension mismatch: Z {Z.shape}, x0 {x0.shape}, weights {self.weights.shape}"
            )
        return np.exp(-self.bandwidth * (self.weights * np.abs(Z - x0)).sum(axis=1))


def laplace_eval(k: LaplaceKernel, x, z) -> float:
    """k(x, z) for two single points."""
    return float(k(np.asarray(x, dtype=np.float64)[None, :], z)[0])


def nw_estimate(kernel, train: Dataset, x0) -> float:
    """Kernel-weighted label average over the training set at x0, from one
    batched call kernel(train.features, x0) -> (n,)."""
    vals = np.asarray(kernel(train.features, np.asarray(x0, dtype=np.float64)), dtype=np.float64)
    total = vals.sum()
    if not total > 0:
        raise ValueError("kernel mass at x0 is zero; bandwidth too extreme")
    return float(vals @ train.labels / total)


def weighted_l1_distances(A, B, weights) -> np.ndarray:
    """Matrix of sum_j w_j |a_j - b_j| for all row pairs of A and B."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return np.abs(A[:, None, :] - B[None, :, :]).dot(w)


def laplace_regress_batch(train: Dataset, X_eval, weights, bandwidth: float) -> np.ndarray:
    """Vectorized kernel regression for many query points at one bandwidth.

    Returns NaN where the kernel mass underflows to zero.
    """
    D = weighted_l1_distances(X_eval, train.features, weights)
    K = np.exp(-bandwidth * D)
    mass = K.sum(axis=1)
    out = np.full(X_eval.shape[0] if hasattr(X_eval, "shape") else len(X_eval), np.nan)
    ok = mass > 0
    out[ok] = (K[ok] @ train.labels) / mass[ok]
    return out


def bandwidth_sweep(
    train: Dataset, X_eval, targets, weights, bandwidths
) -> np.ndarray:
    """Holdout RMSE against `targets` for each bandwidth; NaN where the
    kernel degenerates. One distance matrix is shared across the sweep."""
    targets = np.asarray(targets, dtype=np.float64)
    D = weighted_l1_distances(X_eval, train.features, weights)
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


def default_bandwidth_grid(low: float = 1e-3, high: float = 10.0, count: int = 30) -> np.ndarray:
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    return np.geomspace(low, high, count)
