"""Kernel-shape probes: one-sided directional derivatives, 2-d level-set
grids, and probability histograms.

A kernel evaluator here is any batched callable k(Z, x0) -> (m,) that
returns k(z, x0) for every row z of the (m, p) matrix Z, bounded by 1
with k(x0, x0) = 1: a forest's `proximity_many`, or an analytic kernel
such as `kernel_lab.breiman_kernel`. Each probe hands the kernel all
its points in one call (the grid, one call per row). Forest proximity
is piecewise constant, so derivative magnitudes depend on the step size
relative to typical cell widths; steps are therefore always explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import check_bytes, check_integer


@dataclass(frozen=True)
class DerivativeReport:
    steps: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """Mean of the two one-sided derivative magnitudes per coordinate."""
        return 0.5 * (np.abs(self.left) + np.abs(self.right))


@dataclass(frozen=True)
class KernelGrid:
    axis_i: np.ndarray
    axis_j: np.ndarray
    values: np.ndarray


def _refuse(bad, what: str, values) -> None:
    """ValueError naming the first coordinate j where bad[j], and values[j]."""
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(f"{what}, got {values[j]} at coordinate {j}")


def derivative_report(kernel, x0, steps) -> DerivativeReport:
    """Both one-sided derivatives for every coordinate.

    x0 must be finite, and `steps` a scalar or a per-coordinate vector of
    finite steps > 0 that keep every probe finite. The kernel is called
    once, on 2p + 1 probe rows: x0, then x0 + h_j e_j for every j, then
    x0 - h_j e_j. Probes whose float64 values exceed the request cap
    (`check_bytes`) are refused before anything is allocated.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    p = x0.size
    check_bytes(f"{2 * p + 1} probes of {p} coordinates need", 8 * (2 * p + 1) * p)
    _refuse(~np.isfinite(x0), "center must be finite", x0)
    h = np.broadcast_to(np.asarray(steps, dtype=np.float64), x0.shape).copy()
    _refuse(~(np.isfinite(h) & (h > 0)), "steps must be finite and > 0", h)
    with np.errstate(over="ignore"):  # only x0_j +- h_j can overflow
        up, down = x0 + h, x0 - h
    _refuse(~(np.isfinite(up) & np.isfinite(down)), "steps must keep center +- step finite", h)
    Z = np.tile(x0, (2 * p + 1, 1))
    j = np.arange(p)
    Z[1 + j, j] = up
    Z[1 + p + j, j] = down
    k = np.asarray(kernel(Z, x0))
    right, left = (k[1:] - k[0]).reshape(2, -1) / h
    return DerivativeReport(steps=h, left=left, right=right)


def kernel_grid(kernel, x0, dims, resolution: int, bounds) -> KernelGrid:
    """Evaluate k(z, x0) over a 2-d slice through x0.

    `dims` picks the two plotted coordinates; the remaining coordinates of
    z stay pinned to x0. `bounds` gives ((lo_i, hi_i), (lo_j, hi_j)).
    values[a, b] corresponds to (axis_i[a], axis_j[b]). `dims` and
    `resolution` must be integers; x0, the bounds and every axis value
    must be finite. A resolution r whose (r, r) float64 values and (r, p)
    float64 probes exceed the request cap (`check_bytes`) is refused
    before anything is allocated. The kernel is called once per axis_i
    value, on the same `resolution` rows with column i rewritten.
    """
    check_integer("resolution", resolution, 2)
    x0 = np.asarray(x0, dtype=np.float64)
    check_bytes(f"resolution {resolution} needs", 8 * resolution * (resolution + x0.size))
    _refuse(~np.isfinite(x0), "center must be finite", x0)
    i, j = dims
    for d in (i, j):
        check_integer("dims", d)
        if not 0 <= d < x0.size:
            raise ValueError(f"dimension {d} out of range for p={x0.size}")
    if i == j:
        raise ValueError("plotted dimensions must differ")
    (lo_i, hi_i), (lo_j, hi_j) = bounds
    if not np.isfinite([lo_i, hi_i, lo_j, hi_j]).all():
        raise ValueError(f"bounds must be finite, got {[lo_i, hi_i, lo_j, hi_j]}")
    with np.errstate(over="ignore", invalid="ignore"):
        axis_i = np.linspace(lo_i, hi_i, resolution)
        axis_j = np.linspace(lo_j, hi_j, resolution)
    if not np.isfinite([axis_i, axis_j]).all():
        raise ValueError(f"bounds {[lo_i, hi_i, lo_j, hi_j]} span more than the finite range")
    values = np.empty((resolution, resolution))
    # one block of probes, rewritten in column i for each row of the grid
    Z = np.tile(x0, (resolution, 1))
    Z[:, j] = axis_j
    for a, vi in enumerate(axis_i):
        Z[:, i] = vi
        values[a] = kernel(Z, x0)
    return KernelGrid(axis_i=axis_i, axis_j=axis_j, values=values)


def prob_histogram(predictions, n_bins: int) -> np.ndarray:
    """Counts over equal-width bins of [0, 1]; the last bin is right-closed."""
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("predictions must be nonempty")
    check_integer("n_bins", n_bins, 1)
    if not ((preds >= 0.0) & (preds <= 1.0)).all():
        raise ValueError("predictions must lie in [0, 1]")
    idx = np.minimum((preds * n_bins).astype(np.int64), n_bins - 1)
    return np.bincount(idx, minlength=n_bins)
