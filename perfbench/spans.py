"""Spans and counters for a traced benchmark run.

`install` replaces forestprox's public functions, at the names their
callers look up, with wrappers that record one span per call (name,
start, end, parent) and the counts named in the README. Spans stay in
memory until the run ends; `layer_metrics` then turns them into each
layer's busy time, self time and counts, and `Recorder.save` writes them
out. A target that no longer exists is skipped, so the benchmark keeps
measuring code that has renamed or deleted it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Root spans the benchmark opens; only set-up and measured rounds are reported.
PHASES = ("setup", "warmup", "round")


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._open: list[int] = []  # open spans per name id
        self.counters = {phase: Counter() for phase in PHASES}
        self.phase = PHASES[0]
        self.missing: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._open[nid] == 0)
        self._open[nid] += 1
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        self._open[self.name_id[i]] -= 1

    def count(self, name: str, value=1) -> None:
        self.counters[self.phase][name] += value

    def span(self, name: str):
        return _Span(self, self.intern(name))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            counters=np.array(json.dumps({p: dict(c) for p, c in self.counters.items()})),
            missing=np.array(self.missing, dtype=str),
        )


class _Span:
    def __init__(self, rec: Recorder, nid: int):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.i = self.rec.enter(self.nid)
        if self.rec.names[self.nid] in PHASES:
            self.rec.phase = self.rec.names[self.nid]
        return self

    def __exit__(self, *exc):
        self.rec.exit(self.i)
        return False


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


# Hooks run after the wrapped call: (recorder, args, kwargs, result).


def _split_searched(rec, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    cand = _arg(args, kwargs, 2, "candidates")
    rec.count("tree.rows_sorted", int(np.size(rows)) * int(np.size(cand)))
    rec.count("tree.splits_found", int(result is not None))
    rec.count("tree.searches", 1)


def _routed(rec, args, kwargs, result):
    rec.count("tree.points_routed", len(_arg(args, kwargs, 1, "X")))


def _forest_trained(rec, args, kwargs, result):
    rec.count("bench.forests_trained")


def _saved(rec, args, kwargs, result):
    rec.count("forest.save_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _csv_read(rec, args, kwargs, result):
    rec.count("data_model.csv_rows", result.n)


def _mc_selection(rec, args, kwargs, result):
    rec.count("kernel_lab.mc_trials", int(_arg(args, kwargs, 1, "trials")))


def _mc_proximity(rec, args, kwargs, result):
    rec.count("kernel_lab.mc_trials", int(_arg(args, kwargs, 3, "n_trees")))


# (module, attribute path, span name, hook). The module is the one whose
# callers look the name up, so `train_forest` is wrapped where the CLI and
# the harness find it, and `best_split` where `grow_tree` finds it.
TARGETS = (
    ("forestprox.forest", "grow_tree", "tree.grow", None),
    ("forestprox.tree", "best_split", "tree.split_search", _split_searched),
    ("forestprox.tree", "Tree.apply", "tree.route", _routed),
    ("forestprox.tree", "Tree.locate", "tree.locate", None),
    ("forestprox.cli", "train_forest", "forest.train", None),
    ("forestprox.bench", "train_forest", "forest.train", _forest_trained),
    ("forestprox.forest", "Forest.predict_proba_batch", "forest.predict", None),
    ("forestprox.forest", "Forest.proximity", "forest.proximity", None),
    ("forestprox.forest", "Forest.proximity_many", "forest.proximity", None),
    ("forestprox.forest", "Forest.proximity_matrix", "forest.proximity_matrix", None),
    ("forestprox.forest", "Forest.voting_weights", "forest.voting_weights", None),
    ("forestprox.forest", "Forest.save", "forest.save", _saved),
    ("forestprox.forest", "Forest.load", "forest.load", None),
    ("forestprox.cli", "load_csv", "data_model.load_csv", _csv_read),
    ("forestprox.bench", "load_csv", "data_model.load_csv", _csv_read),
    ("forestprox.cli", "derivative_report", "diagnostics.derivative", None),
    ("forestprox.cli", "kernel_grid", "diagnostics.grid", None),
    ("forestprox.cli", "strong_weak_weights", "kernel_lab.closed_form", None),
    ("forestprox.kernel_lab", "strong_weak_weights", "kernel_lab.closed_form", None),
    ("forestprox.cli", "naive_kernel", "kernel_lab.closed_form", None),
    ("forestprox.cli", "mc_proximity", "kernel_lab.proximity_mc", _mc_proximity),
    ("forestprox", "mc_selection_freq", "kernel_lab.selection_mc", _mc_selection),
    ("forestprox.cli", "run_experiment", "bench.experiment", None),
    ("forestprox.bench", "_tune_forest", "bench.tune", None),
    ("forestprox.bench", "sample", "synthgen.sample", None),
    ("forestprox.cli", "main", "cli.command", None),
)

# Diagnostics probes take the kernel as their first argument; the wrapper
# hands them a counting kernel so every evaluation is seen, whatever the
# kernel is.
_KERNEL_FIRST = {"diagnostics.derivative", "diagnostics.grid"}


def _wrap(rec: Recorder, fn, span_name: str, hook):
    nid = rec.intern(span_name)
    count_kernel = span_name in _KERNEL_FIRST

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count_kernel and args:
            kernel = args[0]

            def counted(*a, **k):
                rec.count("diagnostics.kernel_evals")
                return kernel(*a, **k)

            args = (counted,) + args[1:]
        i = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(i)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target that exists; note the ones that do not."""
    for module_name, path, span_name, hook in TARGETS:
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(f"{module_name}.{path}")
            continue
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(rec, raw.__func__, span_name, hook))
        elif callable(raw):
            new = _wrap(rec, raw, span_name, hook)
        else:
            rec.missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, new)


# metric -> span name whose busy time it reports
BUSY = {
    "tree.grow_s": "tree.grow",
    "tree.split_search_s": "tree.split_search",
    "tree.route_s": "tree.route",
    "tree.locate_s": "tree.locate",
    "forest.train_s": "forest.train",
    "forest.predict_s": "forest.predict",
    "forest.proximity_s": "forest.proximity",
    "forest.proximity_matrix_s": "forest.proximity_matrix",
    "forest.voting_weights_s": "forest.voting_weights",
    "forest.save_s": "forest.save",
    "forest.load_s": "forest.load",
    "data_model.load_csv_s": "data_model.load_csv",
    "diagnostics.derivative_s": "diagnostics.derivative",
    "diagnostics.grid_s": "diagnostics.grid",
    "kernel_lab.closed_form_s": "kernel_lab.closed_form",
    "kernel_lab.selection_mc_s": "kernel_lab.selection_mc",
    "kernel_lab.proximity_mc_s": "kernel_lab.proximity_mc",
    "bench.experiment_s": "bench.experiment",
    "bench.tune_s": "bench.tune",
    "synthgen.sample_s": "synthgen.sample",
    "cli.command_s": "cli.command",
}
# metric -> span name whose calls it counts
CALLS = {
    "tree.split_searches": "tree.split_search",
    "tree.locate_calls": "tree.locate",
    "forest.proximity_calls": "forest.proximity",
}
COUNTS = (
    "tree.rows_sorted",
    "tree.points_routed",
    "forest.save_bytes",
    "data_model.csv_rows",
    "diagnostics.kernel_evals",
    "kernel_lab.mc_trials",
    "bench.forests_trained",
)
SELF = {"diagnostics.self_s": "diagnostics", "bench.self_s": "bench", "cli.self_s": "cli"}


def layer_metrics(rec: Recorder, n_setups: int, n_rounds: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round.

    Work done in set-up is divided by the number of set-ups and work done in
    the measured rounds by the number of rounds, and the two are added.
    """
    n = len(rec.start)
    name_id = np.array(rec.name_id, dtype=np.int64)
    parent = np.array(rec.parent, dtype=np.int64)
    outer = np.array(rec.outer, dtype=bool)
    dur = (np.array(rec.end, dtype=np.int64) - np.array(rec.start, dtype=np.int64)) / 1e9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    root = np.arange(n)
    while True:
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            break
        root = up
    per = {"setup": 1.0 / max(n_setups, 1), "round": 1.0 / max(n_rounds, 1)}
    weight_of_name = np.array([per.get(nm, 0.0) for nm in rec.names] or [0.0])
    weight = weight_of_name[name_id[root]] if n else np.zeros(0)
    layer_of_name = np.array([nm.partition(".")[0] for nm in rec.names] or [""])

    def named(span_name):
        nid = rec._ids.get(span_name)
        return name_id == nid if nid is not None else np.zeros(n, dtype=bool)

    out = {}
    for metric, span_name in BUSY.items():
        out[metric] = float((dur * weight)[named(span_name) & outer].sum())
    for metric, span_name in CALLS.items():
        out[metric] = float(weight[named(span_name)].sum())
    for metric in COUNTS:
        out[metric] = (
            rec.counters["setup"][metric] * per["setup"]
            + rec.counters["round"][metric] * per["round"]
        )
    for metric, layer in SELF.items():
        mask = layer_of_name[name_id] == layer if n else np.zeros(0, dtype=bool)
        out[metric] = float((self_time * weight)[mask].sum())
    found, searches = (
        rec.counters["setup"][key] + rec.counters["round"][key]
        for key in ("tree.splits_found", "tree.searches")
    )
    out["tree.split_found_ratio"] = found / searches if searches else 0.0
    return out
