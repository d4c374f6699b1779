"""Output checks for the benchmark's workloads.

Every check compares the program's output with a computation made here,
apart from the program, or with a property the method must have. None
compares with a stored copy of earlier output. Each raises CheckFailed
with the reason. `self_test` feeds each check a wrong output and fails
unless the check rejects it.
"""

from __future__ import annotations

import math

import numpy as np

P = 50  # motivating50: x1 carries the signal, x2..x50 are noise
# The harness's tuning grid for p = 50: mtry in {1, sqrt, p/3, p/2, 3p/4, p}
# (rounded half to even) crossed with the node sizes it sweeps.
MTRY_GRID = (1, 7, 17, 25, 38, 50)
NODE_SIZE_GRID = (5, 25, 50)


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def truth_of(X: np.ndarray) -> np.ndarray:
    """P(y=1 | x) of motivating50: 0.3 where x1 < 0, 0.7 elsewhere."""
    return np.where(X[:, 0] < 0.0, 0.3, 0.7)


def rmse(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def chance_bound(n: int) -> float:
    """Error a classifier must stay under to beat chance by 3 SE on n points."""
    return 0.5 - 3.0 * math.sqrt(0.25 / n)


def multiples_of(values, trees: int, what: str) -> None:
    scaled = np.asarray(values) * trees
    require(
        np.all(np.abs(scaled - np.round(scaled)) <= 1e-9 * trees),
        f"{what} are not multiples of 1/{trees}",
    )


def predictions(pred: np.ndarray, trees: int) -> None:
    """pred columns: p_class, p_reg, p_prox, one row per query point."""
    require(pred.ndim == 2 and pred.shape[1] == 3, f"prediction table has shape {pred.shape}")
    require(np.all((pred >= 0.0) & (pred <= 1.0)), "a probability lies outside [0, 1]")
    multiples_of(pred[:, 0], trees, "class votes")


def fit_quality(weak: np.ndarray, strong: np.ndarray, truth, labels) -> None:
    """The strong forest (mtry 30) estimates the truth better than the weak
    one (mtry 1) and classifies better than chance."""
    e_weak, e_strong = rmse(weak[:, 1], truth), rmse(strong[:, 1], truth)
    require(e_strong < e_weak, f"strong reg_mean RMSE {e_strong:.4f} >= weak {e_weak:.4f}")
    err = float(np.mean((strong[:, 0] >= 0.5).astype(int) != np.asarray(labels)))
    bound = chance_bound(len(labels))
    require(err <= bound, f"strong forest error {err:.4f} above chance bound {bound:.4f}")


def proximity_matrix(P_: np.ndarray, trees: int) -> None:
    n = P_.shape[0]
    require(P_.shape == (n, n), f"proximity matrix has shape {P_.shape}")
    require(np.array_equal(P_, P_.T), "proximity matrix is not symmetric")
    require(np.all(np.diag(P_) == 1.0), "proximity matrix diagonal is not 1")
    multiples_of(P_, trees, "proximities")
    low = float(np.linalg.eigvalsh(P_).min())
    require(low >= -1e-9 * n, f"proximity matrix is not PSD (eigenvalue {low:.3g})")


def weighted_labels(p_prox, weights: np.ndarray, labels) -> None:
    """prox estimate = label average weighted by the voting weights."""
    est = weights @ np.asarray(labels, dtype=np.float64)
    gap = float(np.max(np.abs(est - np.asarray(p_prox))))
    require(gap <= 1e-12, f"prox differs from the weighted label average by {gap:.3g}")


def derivatives(left, right) -> None:
    """k(x0 + h e_j, x0) <= k(x0, x0) = 1, and x1, the only signal
    coordinate, has the steepest kernel."""
    left, right = np.asarray(left), np.asarray(right)
    require(np.all(left <= 0.0) and np.all(right <= 0.0), "a one-sided derivative is positive")
    mag = 0.5 * (np.abs(left) + np.abs(right))
    require(
        mag[0] >= mag[1:].max(),
        f"x1's derivative magnitude {mag[0]:.4f} is below {mag[1:].max():.4f}",
    )


def grid(values: np.ndarray) -> None:
    require(np.all((values >= 0.0) & (values <= 1.0)), "a grid value lies outside [0, 1]")
    c = values.shape[0] // 2, values.shape[1] // 2
    require(values[c] == 1.0, f"grid value at the centre is {values[c]}, not 1")


def weights_sum(strong: int, weak: int, p_s, p_w) -> None:
    total = strong * np.asarray(p_s) + weak * np.asarray(p_w)
    gap = float(np.max(np.abs(total - 1.0)))
    require(gap <= 1e-9, f"S*p_S + W*p_W misses 1 by {gap:.3g}")


def selection(freq: np.ndarray, strong: int, p_s: float, trials: int) -> None:
    """Simulated share of splits on strong coordinates within 3 sigma of S*p_S."""
    total, hat = strong * p_s, float(np.sum(freq[:strong]))
    sigma = math.sqrt(max(total * (1.0 - total), 0.0) / trials)
    require(
        abs(hat - total) <= 3.0 * sigma + 1e-12,
        f"simulated strong share {hat:.5f} is {abs(hat - total) / sigma:.1f} sigma from {total:.5f}",
    )


def kernel_agreement(analytic, simulated) -> None:
    mad = float(np.mean(np.abs(np.asarray(analytic) - np.asarray(simulated))))
    require(mad <= 0.05, f"closed-form and simulated kernels differ by MAD {mad:.4f}")


def bench_report(report: dict) -> None:
    """No cell failed, every estimator ran at a configuration it may use, and
    every reported metric is a number in [0, 1]."""
    by_name = {r["name"]: r for r in report["results"]}
    for r in report["results"]:
        require(not r["errors"], f"{r['name']} has per-cell errors {r['errors']}")
        for metric, summary in r["metrics"].items():
            require(0.0 <= summary["mean"] <= 1.0, f"{r['name']} {metric} is {summary['mean']}")
    for c in by_name["class_sqrt"]["chosen"]:
        require((c["mtry"], c["min_node_size"]) == (7, 1), f"class_sqrt ran at {c}")
    for c in by_name.get("prox_best", {}).get("chosen", []):
        require(
            c["mtry"] in MTRY_GRID and c["min_node_size"] in NODE_SIZE_GRID,
            f"prox_best chose {c}, outside the tuning grid",
        )


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test() -> list[str]:
    """Names of the checks that accepted a wrong output (empty when all reject)."""
    rng = np.random.default_rng(0)
    n, trees = 400, 50
    X = rng.uniform(-1, 1, size=(n, P))
    truth = truth_of(X)
    labels = (rng.random(n) < truth).astype(int)
    good = np.column_stack([(truth > 0.5).astype(float), truth, truth])
    blurred = np.column_stack([np.full(n, 0.5), np.full(n, 0.5), np.full(n, 0.5)])
    chance = np.column_stack([rng.integers(0, 2, n).astype(float), truth, truth])
    leaves = rng.integers(0, 8, size=(trees, 30))
    P_ = (leaves[:, :, None] == leaves[:, None, :]).mean(axis=0)
    asym = P_.copy()
    asym[0, 1] += 1.0 / trees
    not_psd = np.full((3, 3), 0.0)
    not_psd[0, 1] = not_psd[1, 0] = not_psd[1, 2] = not_psd[2, 1] = 1.0
    np.fill_diagonal(not_psd, 1.0)
    w = rng.random(n)
    w /= w.sum()

    def report(prox_rmse=0.10, prox_chosen=(7, 5), errors=()):
        return {"results": [
            {"name": "class_sqrt", "errors": list(errors),
             "chosen": [{"mtry": 7, "min_node_size": 1}], "metrics": {"rmse_true": {"mean": 0.15}}},
            {"name": "prox_best", "errors": [],
             "chosen": [{"mtry": prox_chosen[0], "min_node_size": prox_chosen[1]}],
             "metrics": {"rmse_true": {"mean": prox_rmse}}},
        ]}

    # Each entry: a correct output that must pass, then a wrong one that must fail.
    cases = {
        "predictions": (
            (predictions, good, trees),
            (predictions, np.full_like(good, 0.5 / trees), trees),
        ),
        "fit_quality": (
            (fit_quality, blurred, good, truth, labels),
            (fit_quality, blurred, chance, truth, labels),
        ),
        "fit_quality_rmse": (
            (fit_quality, blurred, good, truth, labels),
            (fit_quality, good, blurred, truth, labels),
        ),
        "proximity_matrix": ((proximity_matrix, P_, trees), (proximity_matrix, asym, trees)),
        "proximity_psd": ((proximity_matrix, P_, trees), (proximity_matrix, not_psd, 1)),
        "weighted_labels": (
            (weighted_labels, w @ labels, w, labels),
            (weighted_labels, w @ labels + 1e-9, w, labels),
        ),
        "derivatives_sign": (
            (derivatives, np.r_[-2.0, -np.ones(P - 1)], -np.ones(P)),
            (derivatives, np.r_[-2.0, -np.ones(P - 2), 0.1], -np.ones(P)),
        ),
        "derivatives_x1": (
            (derivatives, np.r_[-2.0, -np.ones(P - 1)], -np.ones(P)),
            (derivatives, -np.ones(P), np.r_[-0.5, -np.ones(P - 1)]),
        ),
        "grid": (
            (grid, np.pad(np.ones((1, 1)), 2, constant_values=0.3)),
            (grid, np.pad(np.full((1, 1), 0.98), 2, constant_values=0.3)),
        ),
        "weights_sum": (
            (weights_sum, 5, 45, 0.1, 0.5 / 45),
            (weights_sum, 5, 45, 0.1, 0.51 / 45),
        ),
        "selection": (
            (selection, np.r_[np.full(5, 0.1), np.full(45, 0.5 / 45)], 5, 0.1, 100_000),
            (selection, np.r_[np.full(5, 0.102), np.full(45, 0.49 / 45)], 5, 0.1, 100_000),
        ),
        "kernel_agreement": (
            (kernel_agreement, np.linspace(0.2, 1, 30), np.linspace(0.2, 1, 30) + 0.02),
            (kernel_agreement, np.linspace(0.2, 1, 30), np.linspace(0.2, 1, 30) + 0.06),
        ),
        "bench_range": (
            (bench_report, report()),
            (bench_report, report(prox_rmse=float("nan"))),
        ),
        "bench_grid": (
            (bench_report, report()),
            (bench_report, report(prox_chosen=(8, 5))),
        ),
        "bench_errors": (
            (bench_report, report()),
            (bench_report, report(errors=[[0, "ValueError: boom"]])),
        ),
    }
    bad = []
    for name, (right, wrong) in cases.items():
        if _rejects(*right) or not _rejects(*wrong):
            bad.append(name)
    return bad
