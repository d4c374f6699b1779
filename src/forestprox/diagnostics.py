"""Kernel-shape probes: one-sided directional derivatives, 2-d level-set
grids, and probability histograms.

A kernel evaluator here is any callable k(x, z) -> float bounded by 1
with k(x, x) = 1: a forest's proximity, the analytic kernels, or a
Laplace kernel. Forest proximity is piecewise constant, so derivative
magnitudes depend on the step size relative to typical cell widths;
steps are therefore always explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DerivativeReport:
    center: np.ndarray
    steps: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """Mean of the two one-sided derivative magnitudes per coordinate."""
        return 0.5 * (np.abs(self.left) + np.abs(self.right))


@dataclass(frozen=True)
class KernelGrid:
    center: np.ndarray
    dims: tuple[int, int]
    axis_i: np.ndarray
    axis_j: np.ndarray
    values: np.ndarray


def _one_sided(kernel, x0, k0, coord: int, sign: int, h: float) -> float:
    x = x0.copy()
    x[coord] += sign * h
    return (kernel(x, x0) - k0) / h


def directional_derivative(kernel, x0, coord: int, sign: int, h: float) -> float:
    """One-sided finite difference (k(x0 + sign*h*e_coord, x0) - k(x0, x0)) / h."""
    x0 = np.asarray(x0, dtype=np.float64)
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not 0 <= coord < x0.size:
        raise ValueError(f"coordinate {coord} out of range for p={x0.size}")
    return _one_sided(kernel, x0, kernel(x0, x0), coord, sign, h)


def derivative_report(kernel, x0, steps) -> DerivativeReport:
    """Both one-sided derivatives for every coordinate.

    `steps` is a scalar or a per-coordinate vector of positive step sizes.
    k(x0, x0) is evaluated once, so the report costs 2p + 1 kernel calls.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    h = np.broadcast_to(np.asarray(steps, dtype=np.float64), x0.shape).copy()
    if (h <= 0).any():
        raise ValueError("all steps must be > 0")
    k0 = kernel(x0, x0)
    left = np.empty(x0.size)
    right = np.empty(x0.size)
    for j in range(x0.size):
        right[j] = _one_sided(kernel, x0, k0, j, +1, float(h[j]))
        left[j] = _one_sided(kernel, x0, k0, j, -1, float(h[j]))
    return DerivativeReport(center=x0, steps=h, left=left, right=right)


def kernel_grid(kernel, x0, dims, resolution: int, bounds) -> KernelGrid:
    """Evaluate k(z, x0) over a 2-d slice through x0.

    `dims` picks the two plotted coordinates; the remaining coordinates of
    z stay pinned to x0. `bounds` gives ((lo_i, hi_i), (lo_j, hi_j)).
    values[a, b] corresponds to (axis_i[a], axis_j[b]).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    i, j = int(dims[0]), int(dims[1])
    if i == j:
        raise ValueError("plotted dimensions must differ")
    for d in (i, j):
        if not 0 <= d < x0.size:
            raise ValueError(f"dimension {d} out of range for p={x0.size}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    (lo_i, hi_i), (lo_j, hi_j) = bounds
    axis_i = np.linspace(lo_i, hi_i, resolution)
    axis_j = np.linspace(lo_j, hi_j, resolution)
    values = np.empty((resolution, resolution))
    z = x0.copy()
    for a, vi in enumerate(axis_i):
        z[i] = vi
        for b, vj in enumerate(axis_j):
            z[j] = vj
            values[a, b] = kernel(z, x0)
        z[j] = x0[j]
    return KernelGrid(center=x0, dims=(i, j), axis_i=axis_i, axis_j=axis_j, values=values)


def half_max_extent(grid: KernelGrid, axis: int) -> float:
    """Span of the region where the grid reaches half its maximum, along
    one of the two plotted axes (0 = axis_i, 1 = axis_j).

    Scalar stand-in for eyeballing level-set width in a plot.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    mask = grid.values >= 0.5 * grid.values.max()
    idx = np.flatnonzero(mask.any(axis=1 - axis))
    coords = grid.axis_i if axis == 0 else grid.axis_j
    return float(coords[idx[-1]] - coords[idx[0]])


def prob_histogram(predictions, n_bins: int) -> np.ndarray:
    """Counts over equal-width bins of [0, 1]; the last bin is right-closed."""
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("predictions must be nonempty")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if preds.min() < 0.0 or preds.max() > 1.0:
        raise ValueError("predictions must lie in [0, 1]")
    idx = np.minimum((preds * n_bins).astype(np.int64), n_bins - 1)
    return np.bincount(idx, minlength=n_bins)
