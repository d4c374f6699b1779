"""Synthetic binary-classification models with known conditional class
probabilities.

Each model's `ccpf` maps an (m, p) matrix of points on its domain to
their exact P(y=1|x), (m,): the ground truth every RMSE-against-truth
experiment scores against. Sampling draws x uniformly on the domain and
y ~ Bernoulli(ccpf(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data_model import Dataset, check_integer


@dataclass(frozen=True)
class SyntheticModel:
    name: str
    p: int
    low: float
    high: float
    ccpf: Callable[[np.ndarray], np.ndarray]


def _p_motivating(X: np.ndarray) -> np.ndarray:
    return np.where(X[:, 0] < 0.0, 0.3, 0.7)


def _p_circle(X: np.ndarray) -> np.ndarray:
    r = np.sqrt(X[:, 0] ** 2 + X[:, 1] ** 2)
    return np.clip((28.0 - r) / 20.0, 0.0, 1.0)


def _p_kinked(X: np.ndarray) -> np.ndarray:
    a = 1.0 / (1.0 + np.exp(-3.0 * X[:, 0] - X[:, 1]))
    b = 1.0 / (1.0 + np.exp(-X[:, 0] - 3.0 * X[:, 1]))
    return np.where(X[:, 0] < 0.0, a, b)


def _p_logistic1(X: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))


def _p_logistic2(X: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-2.0 * X[:, 0] - 2.0 * X[:, 1]))


def _p_logistic3(X: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-2.0 * (X[:, 0] + X[:, 1] + X[:, 2])))


def _p_tend(X: np.ndarray) -> np.ndarray:
    signs = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    first = 1.0 + X[:, :6] @ signs
    second = X[:, :6].sum(axis=1)
    return 1.0 / (1.0 + np.exp(-0.5 * first * second))


def _p_xor(X: np.ndarray) -> np.ndarray:
    return np.where(X[:, 0] * X[:, 1] >= 0.0, 0.3, 0.7)


MODELS: dict[str, SyntheticModel] = {
    m.name: m
    for m in (
        SyntheticModel("motivating50", 50, -1.0, 1.0, _p_motivating),
        SyntheticModel("circle", 2, -25.0, 25.0, _p_circle),
        SyntheticModel("kinked", 2, -1.0, 1.0, _p_kinked),
        SyntheticModel("logistic1_2d", 2, -1.0, 1.0, _p_logistic1),
        SyntheticModel("logistic2_22d", 22, -1.0, 1.0, _p_logistic2),
        SyntheticModel("logistic3d", 3, -1.0, 1.0, _p_logistic3),
        SyntheticModel("tend", 10, -1.0, 1.0, _p_tend),
        SyntheticModel("xor", 2, -1.0, 1.0, _p_xor),
    )
}


def get_model(name: str) -> SyntheticModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODELS)}"
        ) from None


def sample(m: SyntheticModel, n: int, seed: int) -> Dataset:
    """Draw n rows: x uniform on the domain, y ~ Bernoulli(m.ccpf(x)).

    The generating probabilities ride along as `Dataset.true_probs`.
    """
    check_integer("n", n, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(m.low, m.high, size=(n, m.p))
    probs = m.ccpf(X)
    y = (rng.random(n) < probs).astype(np.int64)
    names = tuple(f"x{j + 1}" for j in range(m.p))
    return Dataset(features=X, labels=y, feature_names=names, true_probs=probs)
