"""Dataset container, CSV ingestion, junk-predictor augmentation, and splitting.

Every estimator in this package consumes the same immutable `Dataset`:
an n x p matrix of finite reals plus binary labels in {0, 1}. CSV files
need a header row, UTF-8 encoding, '.' decimals and comma separators.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


# The companion column `save_csv` writes and `load_csv`'s "auto" pulls out.
TRUE_PROB_COLUMN = "true_prob"


class DataError(ValueError):
    """Raised for malformed input data (files, labels, shapes)."""


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Refuse with TypeError a value that is not an integer (a bool is
    not one), and with ValueError one below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def store_integers(obj, **minimums) -> None:
    """check_integer each named field of frozen dataclass `obj` against its
    minimum (None for none), in order, and store it as a plain int, so a
    numpy integer saves to JSON like any other."""
    for name, minimum in minimums.items():
        value = getattr(obj, name)
        check_integer(name, value, minimum)
        object.__setattr__(obj, name, int(value))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels.

    `true_probs` optionally carries the generating conditional class
    probability for synthetic data; it is None for real data.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    true_probs: np.ndarray | None = field(default=None)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {feats.shape}")
        n, p = feats.shape
        if n < 1 or p < 1:
            raise DataError(f"need at least one row and one column, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            bad = np.argwhere(~np.isfinite(feats))[0]
            raise DataError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if labs.shape != (n,):
            raise DataError(f"labels must have shape ({n},), got {labs.shape}")
        if not np.isin(labs, (0, 1)).all():
            raise DataError("labels must contain only 0 and 1")
        bad = [f for f in self.feature_names if not isinstance(f, str)]
        if bad:
            raise DataError(f"feature names must be strings, got {bad[0]!r}")
        if len(self.feature_names) != p:
            raise DataError(
                f"expected {p} feature names, got {len(self.feature_names)}"
            )
        if len(set(self.feature_names)) < p:
            repeated = sorted({f for f in self.feature_names if self.feature_names.count(f) > 1})
            raise DataError(f"feature names repeat: {repeated}")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labs.astype(np.int64)))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.true_probs is not None:
            tp = np.asarray(self.true_probs, dtype=np.float64)
            if tp.shape != (n,):
                raise DataError(f"true_probs must have shape ({n},), got {tp.shape}")
            object.__setattr__(self, "true_probs", _frozen(tp))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @cached_property
    def ranks(self) -> np.ndarray:
        """Per-column ranks of the training rows, int32 of shape (p, n),
        computed once.

        ranks[j, i] is the position of row i's value in column j sorted
        ascending, taken at that value's first occurrence. Equal values
        share a rank, ranks order like the values, and
        `sorted_features[ranks[j, i], j]` is the value.
        """
        order = np.argsort(self.features, axis=0, kind="stable")
        first = np.zeros(order.shape, dtype=np.int32)
        first[1:] = self.sorted_features[1:] != self.sorted_features[:-1]
        first *= np.arange(self.n)[:, None]
        ranks = np.empty_like(first)
        np.put_along_axis(ranks, order, np.maximum.accumulate(first, axis=0), axis=0)
        ranks = np.ascontiguousarray(ranks.T)
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def sorted_features(self) -> np.ndarray:
        """Each feature column sorted ascending, computed once."""
        out = np.sort(self.features, axis=0)
        out.setflags(write=False)
        return out

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset restricted to the given row indices (order kept)."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            feature_names=self.feature_names,
            true_probs=None if self.true_probs is None else self.true_probs[rows],
        )


def _read_header(reader, path: Path) -> list[str]:
    """The stripped header row of a CSV reader; names must be distinct."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    if len(set(header)) < len(header):
        repeated = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: column names repeat: {repeated}")
    return header


def _read_table(path: str | Path, text_column: str | None = None):
    """(header, columns, text) of a CSV file: `columns(cols)` gives the
    given columns of every row as float64, and `text` the stripped cells
    of column `text_column`, None when the header lacks it.

    After the header, numpy's C reader parses every cell in one pass,
    collecting `text_column`'s as text. A table it refuses (a cell that is
    not a number, even in a column no caller reads, rows of the wrong
    length, no rows, a spelling only float() takes) is read again by
    `_read_rows` and `_parse_columns`, which alone read it or name its
    fault, so either way the values and errors are theirs.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        header = _read_header(csv.reader(fh), path)
        text_idx = header.index(text_column) if text_column in header else None
        text = []

        def collect(cell: str) -> float:
            text.append(cell.strip())
            return 0.0

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty table warns
                values = np.loadtxt(
                    fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                    converters=None if text_idx is None else {text_idx: collect},
                )
        except ValueError:
            values = None
    if values is not None and values.size and values.shape[1] == len(header):
        return header, lambda cols: values[:, cols], None if text_idx is None else text
    header, rows = _read_rows(path)
    text = None if text_idx is None else [row[text_idx].strip() for row in rows]
    return header, lambda cols: _parse_columns(path, header, rows, cols), text


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and nonblank rows of a CSV file, each row holding one cell
    per header column, split by `csv`. At least one row must follow the
    header."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        rows = [r for r in reader if r]
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
    return header, rows


def _parse_columns(path, header: list[str], rows: list[list[str]], cols: list[int]) -> np.ndarray:
    """The given columns of every row, parsed by float(); only a failed
    parse scans the cells again, to name the first bad one."""
    cells = (row[j] for row in rows for j in cols)
    try:
        out = np.fromiter(map(float, cells), np.float64, count=len(rows) * len(cols))
    except ValueError:
        for i, row in enumerate(rows):
            for j in cols:
                try:
                    float(row[j])
                except ValueError:
                    cell = f"row {i}, column {header[j]!r}"
                    raise DataError(f"{path}: non-numeric cell at {cell}") from None
        raise
    return out.reshape(len(rows), len(cols))


def load_csv(
    path: str | Path,
    label_column: str,
    true_prob_column: str | None = None,
) -> Dataset:
    """Read a Dataset from a CSV file.

    The label column may hold {0, 1} directly or any two distinct values;
    two distinct values are mapped to 0/1 by sorted order (numeric order
    when both parse as numbers, string order otherwise). A `true_prob`
    companion column (as written by `simulate`) can be pulled out of the
    feature set by name via `true_prob_column`; "auto" pulls out the
    column named TRUE_PROB_COLUMN when the header has one other than the
    label column. A true-prob column named as the label column is refused
    before the file is read.
    """
    if true_prob_column == label_column != "auto":
        raise DataError(f"true-prob column {label_column!r} is the label column")
    header, columns, label_text = _read_table(path, label_column)
    if true_prob_column == "auto":
        auto = TRUE_PROB_COLUMN in header and TRUE_PROB_COLUMN != label_column
        true_prob_column = TRUE_PROB_COLUMN if auto else None
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)

    skip = {label_idx}
    tps = None
    if true_prob_column is not None:
        if true_prob_column not in header:
            raise DataError(f"true-prob column {true_prob_column!r} not in header")
        tp_idx = header.index(true_prob_column)
        skip.add(tp_idx)
        tps = columns([tp_idx])[:, 0]

    feat_idx = [j for j in range(len(header)) if j not in skip]
    if not feat_idx:
        raise DataError(f"{path}: no feature columns left")
    feats = columns(feat_idx)
    labels = _map_labels(label_text)
    names = tuple(header[j] for j in feat_idx)
    return Dataset(features=feats, labels=labels, feature_names=names, true_probs=tps)


def load_points(path: str | Path, names) -> np.ndarray:
    """Feature matrix from a CSV of query points: the columns named
    `names`, in that order, other columns ignored. A header naming none of
    them is read by position, its first len(names) columns other than one
    named label; a header naming some but not all is refused."""
    header, columns, _ = _read_table(path)
    p = len(names)
    missing = [n for n in names if n not in header]
    if not missing:
        cols = [header.index(n) for n in names]
    elif len(missing) < p:
        raise DataError(f"{path}: feature column {missing[0]!r} not in header ({len(missing)} missing)")
    else:
        cols = [j for j, h in enumerate(header) if h != "label"][:p]
        if len(cols) < p:
            raise DataError(f"{path}: names no feature column; {len(cols)} other columns, need {p}")
    return columns(cols)


def _map_labels(raw: list[str]) -> np.ndarray:
    """0 for the lower of a label column's two distinct values, 1 for the
    higher. Cells that are all finite numbers are compared as numbers, so
    1 and 1.0 are one class; other cells as text, in numeric order when
    every one parses as a number."""
    try:
        nums = [float(v) for v in raw]
    except ValueError:
        nums = None
    keys = nums if nums is not None and np.isfinite(nums).all() else raw
    distinct = sorted(set(keys))
    if len(distinct) != 2:
        raise DataError(
            f"label column must hold exactly 2 distinct values, found {len(distinct)}: "
            f"{distinct[:5]}"
        )
    if nums is not None:
        distinct.sort(key=float)
    mapping = {distinct[0]: 0, distinct[1]: 1}
    return np.array([mapping[v] for v in keys], dtype=np.int64)


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write a Dataset to CSV: its features, a "label" column, and a true_prob
    column when present."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(d.feature_names) + ["label"]
        if d.true_probs is not None:
            header.append(TRUE_PROB_COLUMN)
        writer.writerow(header)
        for i in range(d.n):
            row = [repr(float(v)) for v in d.features[i]] + [str(int(d.labels[i]))]
            if d.true_probs is not None:
                row.append(repr(float(d.true_probs[i])))
            writer.writerow(row)


def augment_junk(d: Dataset, count: int, seed: int) -> Dataset:
    """Append `count` junk predictors, each a random permutation of one
    original column.

    Source columns are drawn without replacement until all p originals are
    used, then with replacement. Permuting keeps each junk column's marginal
    distribution while destroying any association with the labels. Junk
    column k + 1 is named `{source}_junk_{k + 1}`; data that already has a
    name of that form, for any source and k < count, is refused whatever
    the seed.
    """
    check_integer("count", count, 1)
    for name in d.feature_names:
        source, sep, k = name.rpartition("_junk_")
        if (sep and source in d.feature_names
                and k.isdecimal() and k == str(int(k)) and 0 < int(k) <= count):
            raise DataError(f"feature name {name!r} clashes with the names of {count} junk columns")
    rng = np.random.default_rng(seed)
    sources = np.concatenate(
        [rng.choice(d.p, size=min(d.p, count - i), replace=False) for i in range(0, count, d.p)]
    )
    junk_cols = np.empty((d.n, count))
    names = list(d.feature_names)
    for k, src in enumerate(sources):
        junk_cols[:, k] = d.features[rng.permutation(d.n), src]
        names.append(f"{d.feature_names[src]}_junk_{k + 1}")
    return Dataset(
        features=np.hstack([d.features, junk_cols]),
        labels=d.labels,
        feature_names=tuple(names),
        true_probs=d.true_probs,
    )


def train_test_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random row partition into (train, test), deterministic for
    a given seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(d.n * train_fraction))
    if n_train < 1 or n_train > d.n - 1:
        raise ValueError(
            f"fraction {train_fraction} leaves an empty side for n={d.n}"
        )
    perm = np.random.default_rng(seed).permutation(d.n)
    return d.subset(np.sort(perm[:n_train])), d.subset(np.sort(perm[n_train:]))
