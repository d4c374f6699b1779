#!/usr/bin/env python3
"""Holdout RMSE versus bandwidth for a symmetric and a (10, 1)-skewed
Laplace kernel on the circle model: kernel shape matters at fixed n."""

import argparse
import csv
from pathlib import Path

import numpy as np

from forestprox.kernel_lab import bandwidth_sweep
from forestprox.synthgen import get_model, sample


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-n", type=int, default=500)
    ap.add_argument("--holdout-n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=9000)
    ap.add_argument("--grid-low", type=float, default=1e-3)
    ap.add_argument("--grid-high", type=float, default=10.0)
    ap.add_argument("--grid-count", type=int, default=30)
    ap.add_argument("--out", default="out_kernel/circle_sweep.csv")
    args = ap.parse_args()

    model = get_model("circle")
    train = sample(model, args.train_n, args.seed)
    hold = sample(model, args.holdout_n, args.seed + 100)
    grid = np.geomspace(args.grid_low, args.grid_high, args.grid_count)
    shapes = {"symmetric": np.array([1.0, 1.0]), "skewed_10_1": np.array([10.0, 1.0])}
    curves = {
        name: bandwidth_sweep(train, hold.features, hold.true_probs, w, grid)
        for name, w in shapes.items()
    }
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bandwidth"] + [f"rmse_{n}" for n in curves])
        for i, lam in enumerate(grid):
            writer.writerow([lam] + [curves[n][i] for n in curves])
    for name, curve in curves.items():
        print(f"{name}: best rmse {np.nanmin(curve):.4f} at bandwidth {grid[np.nanargmin(curve)]:.4f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
