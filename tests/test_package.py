import forestprox


def test_every_public_name_resolves():
    missing = [name for name in forestprox.__all__ if not hasattr(forestprox, name)]
    assert not missing
    assert len(set(forestprox.__all__)) == len(forestprox.__all__)


def test_no_public_name_is_an_alias():
    # each object is exported under one name
    objects = {}
    for name in forestprox.__all__:
        objects.setdefault(id(getattr(forestprox, name)), []).append(name)
    assert [names for names in objects.values() if len(names) > 1] == []


def test_public_surface_is_pinned():
    # a change to the public API is a declared edit of this list
    assert sorted(forestprox.__all__) == [
        "Dataset",
        "DerivativeReport",
        "EstimatorSpec",
        "ExperimentConfig",
        "ExperimentReport",
        "Forest",
        "ForestParams",
        "KernelGrid",
        "MODELS",
        "NaiveKernelSpec",
        "SyntheticModel",
        "TreeParams",
        "augment_junk",
        "bandwidth_sweep",
        "breiman_kernel",
        "default_estimators",
        "derivative_report",
        "get_model",
        "kernel_grid",
        "load_csv",
        "mc_proximity",
        "mc_selection_freq",
        "misclassification",
        "naive_kernel",
        "prob_histogram",
        "rmse_true",
        "run_experiment",
        "sample",
        "save_csv",
        "strong_weak_weights",
        "train_forest",
        "train_test_split",
    ]
