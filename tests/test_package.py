import ast
from pathlib import Path

import forestprox

SRC = Path(forestprox.__file__).parent


def module_tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def imports(name: str) -> set[str]:
    """Every dotted name module `name` imports, and every name it imports
    from a module, with package-relative imports spelt from forestprox."""
    found = set()
    for node in ast.walk(module_tree(name)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["forestprox" if node.level else "", node.module]))
            found |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return found


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


def test_the_analytic_layer_does_not_import_the_forest():
    # the stylized-forest model, the kernel probes and the samplers depend
    # on data_model alone, the request cap included, not on the forest
    def forest_or_tree(name):
        return name.split(".")[:2] in (["forestprox", "forest"], ["forestprox", "tree"])

    assert any(map(forest_or_tree, imports("bench")))
    for name in ("kernel_lab", "diagnostics", "synthgen"):
        assert not any(map(forest_or_tree, imports(name))), name


def test_only_data_model_names_the_request_cap():
    named = {
        path.stem for path in SRC.glob("*.py")
        for node in ast.walk(module_tree(path.stem))
        if "MAX_REQUEST_BYTES" in {getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)}
    }
    assert named == {"data_model"}
