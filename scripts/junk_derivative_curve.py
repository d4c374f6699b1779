#!/usr/bin/env python3
"""Mean absolute kernel derivative over permuted junk predictors as a
function of mtry: adaptive forests flatten their kernel in noise
directions as mtry grows.

Works on any CSV with a binary label column; defaults to a synthetic
22-d logistic stand-in.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from forestprox.data_model import augment_junk, load_csv
from forestprox.diagnostics import derivative_report
from forestprox.forest import ForestParams, train_forest
from forestprox.synthgen import get_model, sample
from forestprox.tree import TreeParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None, help="CSV path; synthetic stand-in when omitted")
    ap.add_argument("--label-column", default="label")
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--junk", type=int, default=20)
    ap.add_argument("--mtry", type=int, nargs="+", default=None)
    ap.add_argument("--trees", type=int, default=200)
    ap.add_argument("--h-sd", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=51)
    ap.add_argument("--out", default="out_kernel/junk_derivatives.csv")
    args = ap.parse_args()

    if args.data is None:
        base = sample(get_model("logistic2_22d"), args.n, args.seed)
    else:
        base = load_csv(args.data, args.label_column)
    d = augment_junk(base, args.junk, args.seed + 1)
    junk_slice = slice(base.p, d.p)
    x0 = d.features.mean(axis=0)
    sd = d.features.std(axis=0)
    steps = np.where(sd > 0, args.h_sd * sd, 1e-6)
    mtry_grid = args.mtry or sorted({2, max(2, d.p // 8), d.p // 3, 2 * d.p // 3, d.p})

    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mtry", "mean_abs_junk_derivative", "mean_abs_original_derivative"])
        for m in mtry_grid:
            forest = train_forest(
                d,
                ForestParams(
                    n_trees=args.trees,
                    tree=TreeParams(mtry=m, min_node_size=1, bootstrap=True),
                    seed=args.seed + m,
                ),
            )
            rep = derivative_report(forest.proximity_many, x0, steps)
            junk_mag = rep.magnitude[junk_slice].mean()
            orig_mag = rep.magnitude[: base.p].mean()
            writer.writerow([m, junk_mag, orig_mag])
            print(f"mtry={m}: junk |D|={junk_mag:.4f} original |D|={orig_mag:.4f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
