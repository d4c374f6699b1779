"""Random-forest probability estimation through the proximity-kernel lens."""

from .bench import (
    EstimatorSpec,
    ExperimentConfig,
    ExperimentReport,
    default_estimators,
    misclassification,
    rmse_true,
    run_experiment,
)
from .data_model import Dataset, augment_junk, load_csv, save_csv, train_test_split
from .diagnostics import (
    DerivativeReport,
    KernelGrid,
    derivative_report,
    kernel_grid,
    prob_histogram,
)
from .forest import Forest, ForestParams, train_forest
from .kernel_lab import (
    NaiveKernelSpec,
    bandwidth_sweep,
    breiman_kernel,
    mc_proximity,
    mc_selection_freq,
    naive_kernel,
    strong_weak_weights,
)
from .synthgen import MODELS, SyntheticModel, get_model, sample
from .tree import TreeParams

__all__ = [
    "Dataset",
    "load_csv",
    "save_csv",
    "augment_junk",
    "train_test_split",
    "TreeParams",
    "Forest",
    "ForestParams",
    "train_forest",
    "NaiveKernelSpec",
    "strong_weak_weights",
    "naive_kernel",
    "mc_selection_freq",
    "mc_proximity",
    "breiman_kernel",
    "bandwidth_sweep",
    "DerivativeReport",
    "KernelGrid",
    "derivative_report",
    "kernel_grid",
    "prob_histogram",
    "SyntheticModel",
    "MODELS",
    "get_model",
    "sample",
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "default_estimators",
    "run_experiment",
    "rmse_true",
    "misclassification",
]

__version__ = "0.1.0"
