"""Benchmark harness: repeated-split probability-estimation experiments.

A run draws data (synthetic model or user CSV), fits a roster of forest
estimators per repetition, and aggregates RMSE and misclassification.
Synthetic runs score against the known generating probabilities; CSV runs
fall back to empirical RMSE against the held-out labels. Everything is
deterministic for a fixed base seed, with per-repetition and
per-estimator seeds derived by spawn keys so results do not depend on
execution order.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data_model import (
    TRUE_PROB_COLUMN, Dataset, augment_junk, check_integer, load_csv, store_integers,
    train_test_split,
)
from .forest import PREDICT_MODES, Forest, ForestParams, derive_seeds, train_forest
from .synthgen import get_model, sample
from .tree import SPLIT_MODES, TreeParams

# Each mtry symbol as a function of p; resolve_mtry rounds and clips it to [1, p].
_MTRY_OF_P = {
    "sqrt": math.sqrt,
    "third": lambda p: p / 3,
    "half": lambda p: p / 2,
    "threequarters": lambda p: 3 * p / 4,
    "all": lambda p: p,
}
MTRY_SYMBOLS = (*_MTRY_OF_P, "best")


def rmse_true(predictions, targets) -> float:
    """Root mean squared error against known probabilities (report key
    `rmse_true`) or 0/1 labels (report key `rmse_empirical`); the mean
    sits inside the root, so values are comparable across dataset sizes."""
    p_hat = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p_hat.shape != y.shape or p_hat.size == 0:
        raise ValueError(f"need equal nonempty lengths, got {p_hat.shape} vs {y.shape}")
    return float(np.sqrt(np.mean((p_hat - y) ** 2)))


def misclassification(predictions, labels) -> float:
    """Error of the induced classifier; predict 1 when p >= 0.5."""
    p_hat = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels)
    return float(np.mean((p_hat >= 0.5).astype(np.int64) != y))


def resolve_mtry(mtry, p: int) -> int:
    if isinstance(mtry, str):
        if mtry not in _MTRY_OF_P:
            raise ValueError(f"unknown mtry symbol {mtry!r}")
        return max(1, min(p, round(_MTRY_OF_P[mtry](p))))
    check_integer("mtry", mtry)
    if not 1 <= mtry <= p:
        raise ValueError(f"mtry={mtry} out of range [1, {p}]")
    return int(mtry)


def tuning_grid(p: int) -> list[int]:
    return sorted({1, *(resolve_mtry(symbol, p) for symbol in _MTRY_OF_P)})


@dataclass(frozen=True)
class EstimatorSpec:
    """One column of the comparison table.

    `mtry` is an integer, a symbolic fraction of p resolved per dataset,
    or "best" for an inner validation sweep. mode picks the aggregation;
    split_mode "completely_random" gives the non-adaptive baseline.
    """

    name: str
    mode: str
    mtry: int | str
    split_mode: str = "impurity"
    min_node_size: int = 1

    def __post_init__(self):
        if self.mode not in PREDICT_MODES:
            raise ValueError(f"bad mode {self.mode!r}")
        if isinstance(self.mtry, str):
            if self.mtry not in MTRY_SYMBOLS:
                raise ValueError(f"bad mtry symbol {self.mtry!r}")
        else:
            # the range is checked per dataset, where p is known
            store_integers(self, mtry=None)
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"split_mode must be one of {SPLIT_MODES}")
        store_integers(self, min_node_size=1)


def default_estimators() -> tuple[EstimatorSpec, ...]:
    """Roster mirroring the standard comparison: class/reg forests at p/3
    and sqrt(p), bagged trees, a completely random forest, and a
    validation-tuned prox estimator."""
    return (
        EstimatorSpec("class_third", "class_vote", "third", min_node_size=1),
        EstimatorSpec("reg_third", "reg_mean", "third", min_node_size=5),
        EstimatorSpec("class_sqrt", "class_vote", "sqrt", min_node_size=1),
        EstimatorSpec("reg_sqrt", "reg_mean", "sqrt", min_node_size=5),
        EstimatorSpec("bagged", "class_vote", "all", min_node_size=1),
        EstimatorSpec("random", "reg_mean", "all", split_mode="completely_random", min_node_size=1),
        EstimatorSpec("prox_best", "prox", "best", min_node_size=5),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    source: str  # synthetic model name, or "csv"
    estimators: tuple[EstimatorSpec, ...] = field(default_factory=default_estimators)
    csv_path: str | None = None
    label_column: str = "label"
    true_prob_column: str | None = None  # excluded from CSV features; "auto" as in load_csv
    n_trees: int = 200
    repetitions: int = 10
    train_size: int = 500
    test_size: int = 1000
    train_fraction: float = 0.8
    junk: int = 0
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        store_integers(self, repetitions=1, n_trees=1, junk=0, train_size=1, test_size=1, seed=0)
        if not isinstance(self.bootstrap, bool):
            raise TypeError(f"bootstrap must be a bool, got {self.bootstrap!r}")
        # checked for every source, though only a csv source is split by it
        if not isinstance(self.train_fraction, numbers.Real):
            raise TypeError(f"train_fraction must be a number, got {self.train_fraction!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        names = [e.name for e in self.estimators]
        if len(set(names)) < len(names):
            raise ValueError(f"estimator names must be unique, got {names}")
        if self.source == "csv" and not self.csv_path:
            raise ValueError("csv source requires csv_path")
        if self.source != "csv":
            get_model(self.source)

    @property
    def synthetic(self) -> bool:
        return self.source != "csv"


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    stderr: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class EstimatorResult:
    spec: EstimatorSpec
    metrics: dict[str, MetricSummary]
    chosen: tuple[tuple[int, int], ...]  # (mtry, min_node_size) per repetition
    errors: tuple[tuple[int, str], ...]
    # per repetition, beside chosen: every tuned (mtry, min_node_size,
    # validation RMSE) in grid order; empty for an estimator that is not tuned
    surface: tuple[tuple[tuple[int, int, float], ...], ...]


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    results: tuple[EstimatorResult, ...]
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "results": [
                {
                    **asdict(r.spec),
                    "chosen": [{"mtry": m, "min_node_size": ns} for m, ns in r.chosen],
                    "surface": [
                        [{"mtry": m, "min_node_size": ns, "rmse_empirical": e} for m, ns, e in cells]
                        for cells in r.surface
                    ],
                    "errors": [{"repetition": rep, "message": msg} for rep, msg in r.errors],
                    "metrics": {
                        name: {"mean": s.mean, "stderr": s.stderr, "values": list(s.values)}
                        for name, s in r.metrics.items()
                    },
                }
                for r in self.results
            ],
            "wall_clock_s": self.wall_clock_s,
        }

    def table_rows(self) -> list[dict]:
        rows = []
        for r in self.results:
            row = {"estimator": r.spec.name, "mode": r.spec.mode, "mtry": str(r.spec.mtry)}
            for name, s in r.metrics.items():
                row[f"{name}_mean"] = s.mean
                row[f"{name}_stderr"] = s.stderr
            row["failures"] = len(r.errors)
            rows.append(row)
        return rows


NODE_SIZE_GRID = (5, 25, 50)


def _forest(
    spec: EstimatorSpec, cfg: ExperimentConfig, data: Dataset, mtry: int, node_size: int, seed: int
) -> Forest:
    tree = TreeParams(
        mtry=mtry, min_node_size=node_size, split_mode=spec.split_mode, bootstrap=cfg.bootstrap
    )
    return train_forest(data, ForestParams(n_trees=cfg.n_trees, tree=tree, seed=seed))


def _fit_predict(
    spec: EstimatorSpec,
    cfg: ExperimentConfig,
    train: Dataset,
    test_features: np.ndarray,
    forest_seed: int,
    tune_seed: int,
) -> tuple[np.ndarray, tuple[int, int], tuple[tuple[int, int, float], ...]]:
    """Predictions at test_features, the (mtry, node size) they were made
    at, and the validation surface behind that choice (empty when fixed)."""
    if spec.mtry == "best":
        (mtry, node_size), surface = _tune_forest(spec, cfg, train, tune_seed)
    else:
        mtry, node_size, surface = resolve_mtry(spec.mtry, train.p), spec.min_node_size, ()
    forest = _forest(spec, cfg, train, mtry, node_size, forest_seed)
    return forest.predict_proba_batch(test_features, spec.mode), (mtry, node_size), surface


def _tune_forest(
    spec: EstimatorSpec, cfg: ExperimentConfig, train: Dataset, tune_seed: int
) -> tuple[tuple[int, int], tuple[tuple[int, int, float], ...]]:
    """Pick (mtry, node size) on a 25% validation carve-out by empirical
    RMSE; the generating probabilities are never consulted. Node size acts
    as the kernel bandwidth for the prox estimator, so it is swept
    alongside mtry. One forest per mtry is grown at the smallest node size,
    and each larger size is scored on its `Forest.cut`, the forest that
    size grows. Returns the first cell of lowest RMSE in grid order, and
    every cell's (mtry, node size, RMSE) in that order."""
    carve_train, carve_test = train_test_split(train, 0.75, tune_seed)
    mtrys = tuning_grid(train.p)
    surface = []
    for m, seed in zip(mtrys, derive_seeds(tune_seed, len(mtrys))):
        grown = _forest(spec, cfg, carve_train, m, NODE_SIZE_GRID[0], seed)
        for ns in NODE_SIZE_GRID:
            preds = grown.cut(ns).predict_proba_batch(carve_test.features, spec.mode)
            surface.append((m, ns, rmse_true(preds, carve_test.labels)))
    m, ns, _ = min(surface, key=lambda cell: cell[2])  # min keeps the first of equals
    return (m, ns), tuple(surface)


def _summary(values: list[float]) -> MetricSummary:
    if not values:
        return MetricSummary(mean=float("nan"), stderr=float("nan"), values=())
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return MetricSummary(mean=float(np.mean(values)), stderr=stderr, values=tuple(values))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    csv_data = None
    if not cfg.synthetic:
        csv_data = load_csv(
            cfg.csv_path, cfg.label_column, true_prob_column=cfg.true_prob_column
        )
        if cfg.true_prob_column == "auto":  # the report echoes what it resolved to
            resolved = None if csv_data.true_probs is None else TRUE_PROB_COLUMN
            cfg = replace(cfg, true_prob_column=resolved)

    metric_names = ("rmse_true",) if cfg.synthetic else ()
    metric_names += ("rmse_empirical", "test_error")
    # per estimator: (metric values, (mtry, node size), surface) for each
    # repetition it completed, and (repetition, message) for each it did not
    done = [[] for _ in cfg.estimators]
    errors = [[] for _ in cfg.estimators]

    for rep in range(cfg.repetitions):
        seeds = derive_seeds(cfg.seed, 8, (rep,))
        if cfg.synthetic:
            model = get_model(cfg.source)
            train = sample(model, cfg.train_size, seeds[0])
            test = sample(model, cfg.test_size, seeds[1])
            if cfg.junk > 0:
                train = augment_junk(train, cfg.junk, seeds[2])
                test = augment_junk(test, cfg.junk, seeds[3])
        else:
            full = csv_data
            if cfg.junk > 0:
                full = augment_junk(full, cfg.junk, seeds[2])
            train, test = train_test_split(full, cfg.train_fraction, seeds[4])

        for est_idx, spec in enumerate(cfg.estimators):
            forest_seed, tune_seed = derive_seeds(cfg.seed, 2, (rep, est_idx + 1))
            try:
                preds, used, surface = _fit_predict(
                    spec, cfg, train, test.features, forest_seed, tune_seed
                )
            except Exception as exc:  # recorded per cell, not fatal to the run
                errors[est_idx].append((rep, f"{type(exc).__name__}: {exc}"))
                continue
            values = [rmse_true(preds, test.true_probs)] if cfg.synthetic else []
            values += [rmse_true(preds, test.labels), misclassification(preds, test.labels)]
            done[est_idx].append((values, used, surface))

    results = []
    for spec, reps, errs in zip(cfg.estimators, done, errors):
        values, chosen, surfaces = zip(*reps) if reps else ((), (), ())
        metrics = {name: _summary([v[k] for v in values]) for k, name in enumerate(metric_names)}
        results.append(EstimatorResult(spec, metrics, chosen, tuple(errs), surfaces))
    return ExperimentReport(cfg, tuple(results), time.perf_counter() - start)
