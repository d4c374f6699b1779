"""Command-line surface.

Subcommands: simulate, train, predict, proximity, kernel, deriv, grid,
bench. All outputs are CSV tables or JSON reports; failures exit nonzero
with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentConfig,
    default_estimators,
    resolve_mtry,
    run_experiment,
)
from .data_model import augment_junk, load_csv, load_points, save_csv
from .diagnostics import derivative_report, kernel_grid
from .forest import PREDICT_MODES, Forest, ForestParams, train_forest
from .kernel_lab import (
    NaiveKernelSpec,
    mc_proximity,
    naive_kernel,
    strong_weak_weights,
)
from .synthgen import MODELS, get_model, sample
from .tree import TreeParams

MODE_GROWTH = {
    # mode -> (split_mode, default min_node_size)
    "class": ("impurity", 1),
    "reg": ("impurity", 5),
    "prox": ("impurity", 5),
    "random": ("completely_random", 1),
}

# `kernel` without --mtry computes every mtry's weights from exact binomials
# whose cost grows about as p^3: 0.26 s at p = 2,000, 1.9 s at 4,096 and
# 6.2 s at 6,000 on a 2-core x86 machine, so larger sweeps are refused
SWEEP_MAX_COORDINATES = 4096


@functools.cache  # built once a process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestprox",
        description="Random-forest probability estimation and proximity-kernel tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by the commands that read a saved forest and query points
    queries = argparse.ArgumentParser(add_help=False)
    queries.add_argument("--model", required=True)
    queries.add_argument("--data", required=True)
    queries.add_argument("--out", required=True)

    # flags shared by the commands that grow forests from a training set
    growth = argparse.ArgumentParser(add_help=False)
    growth.add_argument("--label-column", default="label")
    growth.add_argument(
        "--true-prob-column", default="auto",
        help="column to exclude as a known-probability companion; "
        "'auto' drops a column named true_prob, 'none' keeps everything",
    )
    growth.add_argument("--trees", type=int, default=200)
    growth.add_argument("--junk", type=int, default=0)
    growth.add_argument("--bootstrap", choices=("on", "off"), default="on")
    growth.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    p_sim.add_argument("--model", required=True, choices=sorted(MODELS))
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--junk", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_train = sub.add_parser("train", parents=[growth], help="train a forest on a CSV and save it")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--mtry", default="sqrt")
    p_train.add_argument("--mode", choices=sorted(MODE_GROWTH), default="class")
    p_train.add_argument("--min-node-size", type=int, default=None)
    p_train.add_argument("--out", required=True)

    sub.add_parser("predict", parents=[queries], help="per-point probabilities from a saved forest")
    sub.add_parser(
        "proximity", parents=[queries], help="pairwise proximity matrix for a CSV of points"
    )

    p_kern = sub.add_parser(
        "kernel", help="analytic selection weights and simulated-vs-analytic kernel curves"
    )
    p_kern.add_argument("--strong", type=int, required=True)
    p_kern.add_argument("--weak", type=int, required=True)
    p_kern.add_argument("--leaves", type=int, default=32)
    p_kern.add_argument("--mtry", type=int, default=None, help="single mtry; default sweeps 1..p")
    p_kern.add_argument("--trees", type=int, default=20_000)
    p_kern.add_argument("--seed", type=int, default=0)
    p_kern.add_argument("--out-weights", required=True)
    p_kern.add_argument("--out-compare", default=None)

    p_der = sub.add_parser("deriv", help="one-sided derivative report for a forest's kernel")
    p_der.add_argument("--model", required=True)
    p_der.add_argument("--center", default="means", help="'means' or comma-separated values")
    p_der.add_argument("--h", type=float, default=None, help="fixed step for all coordinates")
    p_der.add_argument(
        "--h-sd", type=float, default=0.2,
        help="step as a multiple of each feature's training standard deviation",
    )
    p_der.add_argument("--out", required=True)

    p_grid = sub.add_parser("grid", help="2-d level-set grid of a forest's kernel")
    p_grid.add_argument("--model", required=True)
    p_grid.add_argument("--center", required=True, help="'means' or comma-separated values")
    p_grid.add_argument("--dims", default="0,1")
    p_grid.add_argument("--resolution", type=int, default=41)
    p_grid.add_argument("--bounds", default=None, help="lo_i,hi_i,lo_j,hi_j (default: data range)")
    p_grid.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", parents=[growth], help="repeated-split estimator comparison")
    src = p_bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", choices=sorted(MODELS))
    src.add_argument("--data")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--train-n", type=int, default=500)
    p_bench.add_argument("--test-n", type=int, default=1000)
    p_bench.add_argument("--train-fraction", type=float, default=0.8)
    p_bench.add_argument(
        "--estimators", default="all",
        help="comma-separated roster names, or 'all' for the default roster",
    )
    p_bench.add_argument("--out", required=True, help="JSON report path")
    p_bench.add_argument("--out-csv", default=None, help="optional summary table CSV")

    return parser


def _write_csv(path: str, header: list[str], rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _repr_cells(a: np.ndarray) -> list:
    """repr of every float of a 2-d array, as nested lists, each distinct
    value (bit pattern, so 0.0 and -0.0 stay apart) formatted once: a
    T-tree proximity holds at most T + 1 distinct values."""
    bits, inverse = np.unique(a.astype(np.float64).view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].reshape(a.shape).tolist()


def _int_or_text(value):
    """`value` as an int when it parses as one, else unchanged."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _true_prob_column(args) -> str | None:
    """The CSV's true-prob column as load_csv takes it; "auto" is resolved
    there, against the header it reads."""
    return None if args.data is None or args.true_prob_column == "none" else args.true_prob_column


def _with_junk(data, args):
    """`data` with args.junk junk predictors appended, none for 0."""
    if args.junk < 0:
        raise ValueError(f"--junk must be >= 0, got {args.junk}")
    return augment_junk(data, args.junk, args.seed + 1) if args.junk else data


def _center(text: str, forest: Forest) -> np.ndarray:
    """--center: "means" for the forest's training-feature means, else
    comma-separated values, one per coordinate of the forest."""
    if text == "means":
        return _column_stat(forest.train.features, np.mean)
    p = forest.p
    return np.array(_values(text, "--center", p, f"the forest's {p} coordinates", float))


def _column_stat(X, stat) -> np.ndarray:
    """stat(X, axis=0), np.mean or np.std, taken in units of a column's
    largest magnitude where it overflows: a sum past the float range, or
    squares of values beyond about 1e154."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = stat(X, axis=0)
    big = ~np.isfinite(out)
    scale = np.abs(X[:, big]).max(axis=0)
    out[big] = scale * stat(X[:, big] / scale, axis=0)
    return out


def _values(text: str, flag: str, count: int, what: str, kind) -> list:
    """A flag's `count` comma-separated values as `kind` (int or float);
    `what` names them."""
    values = []
    for v in text.split(","):
        try:
            values.append(kind(v))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag}: {v!r} is not {noun}") from None
    if len(values) != count:
        raise ValueError(f"{flag} needs {what}, got {len(values)} values")
    return values


def _cmd_simulate(args) -> int:
    data = _with_junk(sample(get_model(args.model), args.n, args.seed), args)
    save_csv(data, args.out)
    return 0


def _cmd_train(args) -> int:
    data = load_csv(args.data, args.label_column, true_prob_column=_true_prob_column(args))
    data = _with_junk(data, args)
    split_mode, default_mns = MODE_GROWTH[args.mode]
    mns = default_mns if args.min_node_size is None else args.min_node_size
    mtry_arg = _int_or_text(args.mtry)
    if mtry_arg == "best":
        raise ValueError("mtry 'best' is a bench roster option; give train a value or symbol")
    mtry = resolve_mtry(mtry_arg, data.p)
    params = ForestParams(
        n_trees=args.trees,
        tree=TreeParams(
            mtry=mtry,
            min_node_size=mns,
            split_mode=split_mode,
            bootstrap=args.bootstrap == "on",
        ),
        seed=args.seed,
    )
    forest = train_forest(data, params)
    forest.save(args.out)
    return 0


def _cmd_predict(args) -> int:
    forest = Forest.load(args.model)
    X = load_points(args.data, forest.train.feature_names)
    leaves = forest.leaves(X)
    P = np.column_stack([forest.estimate(leaves, mode) for mode in PREDICT_MODES])
    _write_csv(
        args.out,
        ["row", "p_class", "p_reg", "p_prox"],
        [[i, *map(repr, row)] for i, row in enumerate(P.tolist())],
    )
    return 0


def _cmd_proximity(args) -> int:
    forest = Forest.load(args.model)
    X = load_points(args.data, forest.train.feature_names)
    P = forest.proximity_matrix(X)
    _write_csv(
        args.out,
        [f"p{j}" for j in range(P.shape[1])],
        _repr_cells(P),
    )
    return 0


def _cmd_kernel(args) -> int:
    if args.trees < 1:
        raise ValueError(f"--trees must be >= 1, got {args.trees}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    p = args.strong + args.weak

    def spec(m):
        return NaiveKernelSpec(leaves=args.leaves, strong=args.strong, weak=args.weak, mtry=m)

    compare = spec(args.mtry if args.mtry is not None else max(1, p // 2))
    if args.mtry is None and p > SWEEP_MAX_COORDINATES:
        raise ValueError(
            f"sweeping mtry over {p} coordinates is refused above {SWEEP_MAX_COORDINATES}; "
            "give --mtry"
        )
    mtry_values = [args.mtry] if args.mtry is not None else list(range(1, p + 1))
    rows = [[m, *map(repr, strong_weak_weights(spec(m)))] for m in mtry_values]
    outputs = [(args.out_weights, ["mtry", "p_strong", "p_weak"], rows)]

    if args.out_compare is not None:
        # ten probes along each axis that has coordinates: the first strong
        # coordinate, the first weak one, and all p coordinates evenly
        scales = np.linspace(0.05, 0.5, 10)
        axes = [a for a, n in (("strong", args.strong), ("weak", args.weak), ("spread", p)) if n]
        X = np.zeros((len(axes), scales.size, p))
        for block, axis in zip(X, axes):
            if axis == "spread":
                block[:] = scales[:, None] / p
            else:
                block[:, 0 if axis == "strong" else args.strong] = scales
        X = X.reshape(-1, p)
        probes = [[axis, repr(t)] for axis in axes for t in scales.tolist()]
        ana = naive_kernel(compare, X).tolist()
        mc = mc_proximity(compare, X, n_trees=args.trees, seed=args.seed).tolist()
        outputs.append((
            args.out_compare,
            ["axis", "scale", "analytic", "monte_carlo"],
            [[*probe, repr(a), repr(b)] for probe, a, b in zip(probes, ana, mc)],
        ))
    # both kernels are computed first, so a refusal leaves no file written
    for path, header, body in outputs:
        _write_csv(path, header, body)
    return 0


def _cmd_deriv(args) -> int:
    forest = Forest.load(args.model)
    center = _center(args.center, forest)
    if args.h is not None:
        steps = np.full(forest.p, args.h)
    else:
        sd = _column_stat(forest.train.features, np.std)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.where(sd > 0, args.h_sd * sd, 1e-6)
        if np.isfinite(args.h_sd) and not np.isfinite(steps).all():
            j = int(np.argmin(np.isfinite(steps)))
            raise ValueError(
                f"--h-sd {args.h_sd} times the training SD {float(sd[j])!r} of column "
                f"{forest.train.feature_names[j]!r} overflows; give a smaller --h-sd or --h"
            )
    report = derivative_report(forest.proximity_many, center, steps)
    cols = np.column_stack([report.left, report.right, report.steps]).tolist()
    _write_csv(
        args.out,
        ["coordinate", "name", "left", "right", "step"],
        [[j, forest.train.feature_names[j], *map(repr, row)] for j, row in enumerate(cols)],
    )
    return 0


def _cmd_grid(args) -> int:
    forest = Forest.load(args.model)
    center = _center(args.center, forest)
    i, j = _values(args.dims, "--dims", 2, "2 coordinate indices", int)
    if not (0 <= i < forest.p and 0 <= j < forest.p):
        raise ValueError(f"--dims needs indices in [0, {forest.p}), got {i},{j}")
    if args.bounds is not None:
        bounds = _values(args.bounds, "--bounds", 4, "4 values (lo_i,hi_i,lo_j,hi_j)", float)
        lo_i, hi_i, lo_j, hi_j = bounds
    else:
        X = forest.train.features
        lo_i, hi_i = float(X[:, i].min()), float(X[:, i].max())
        lo_j, hi_j = float(X[:, j].min()), float(X[:, j].max())
    grid = kernel_grid(
        forest.proximity_many, center, (i, j), args.resolution, ((lo_i, hi_i), (lo_j, hi_j))
    )
    rows = [
        [repr(vi), repr(vj), v]
        for vi, values in zip(grid.axis_i.tolist(), _repr_cells(grid.values))
        for vj, v in zip(grid.axis_j.tolist(), values)
    ]
    _write_csv(args.out, [f"x{i + 1}", f"x{j + 1}", "kernel"], rows)
    return 0


def _cmd_bench(args) -> int:
    roster = default_estimators()
    if args.estimators != "all":
        wanted = [tok.strip() for tok in args.estimators.split(",") if tok.strip()]
        by_name = {e.name: e for e in roster}
        missing = [w for w in wanted if w not in by_name]
        if missing:
            raise ValueError(f"unknown estimators {missing}; roster: {sorted(by_name)}")
        roster = tuple(by_name[w] for w in wanted)
    cfg = ExperimentConfig(
        source=args.synthetic if args.synthetic else "csv",
        estimators=tuple(roster),
        csv_path=args.data,
        label_column=args.label_column,
        true_prob_column=_true_prob_column(args),
        n_trees=args.trees,
        repetitions=args.reps,
        train_size=args.train_n,
        test_size=args.test_n,
        train_fraction=args.train_fraction,
        junk=args.junk,
        seed=args.seed,
        bootstrap=args.bootstrap == "on",
    )
    report = run_experiment(cfg)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    if args.out_csv:
        rows = report.table_rows()
        header = list(rows[0].keys())
        _write_csv(args.out_csv, header, [[row[k] for k in header] for row in rows])
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "proximity": _cmd_proximity,
    "kernel": _cmd_kernel,
    "deriv": _cmd_deriv,
    "grid": _cmd_grid,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
