import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forestprox import data_model
from forestprox.data_model import (
    DataError,
    Dataset,
    augment_junk,
    load_csv,
    load_points,
    save_csv,
    train_test_split,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_binary_200.csv"


class TestDatasetValidation:
    def test_basic_construction(self):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), ("a", "b"))
        assert d.n == 2 and d.p == 2

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), ("a",))

    def test_rejects_nan_feature(self):
        with pytest.raises(DataError, match="row 1"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("a",))

    def test_rejects_name_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a",))

    def test_rejects_repeated_names(self):
        with pytest.raises(DataError, match=r"repeat: \['a'\]"):
            Dataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b", "a"))

    @pytest.mark.parametrize(
        "names, bad", [((0, 1), "0"), (("a", 1.5), "1.5"), (("a", None), "None")],
        ids=["int", "float", "none"],
    )
    def test_rejects_non_string_names(self, names, bad):
        # a forest saves its names as JSON and its load takes only strings
        with pytest.raises(DataError, match=f"feature names must be strings, got {bad}$"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), names)

    def test_arrays_readonly(self):
        d = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("a",))
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        d = load_csv(path, "y")
        assert d.n == 3 and d.p == 2
        assert d.feature_names == ("a", "b")
        assert d.labels.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(d.features, [[1, 2], [3, 4], [5, 6]])

    def test_string_labels_mapped_by_sorted_order(self, tmp_path):
        path = write(tmp_path, "a,y\n1,spam\n2,ham\n3,ham\n")
        d = load_csv(path, "y")
        # "ham" < "spam" so ham -> 0, spam -> 1
        assert d.labels.tolist() == [1, 0, 0]

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        path = write(tmp_path, "a,y\n1,10\n2,2\n")
        d = load_csv(path, "y")
        assert d.labels.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "cells, labels",
        [
            (["1", "1.0", "0", "1e0"], [1, 1, 0, 1]),
            (["0", "1", "0.0", "1"], [0, 1, 0, 1]),
            (["-0", "0.5", "0", "5e-1"], [0, 1, 0, 1]),
            # a non-finite cell makes the column text, still in numeric order
            (["inf", "1", "inf"], [1, 0, 1]),
        ],
    )
    def test_numeric_labels_compared_as_numbers(self, tmp_path, cells, labels):
        path = write(tmp_path, "a,y\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells)))
        assert load_csv(path, "y").labels.tolist() == labels

    @pytest.mark.parametrize(
        "cells, message",
        [
            (["1", "1.0", "1", "1.0"], "found 1"),  # one number written two ways
            (["1", "1.0", "x", "1"], "found 3"),  # text: "1" and "1.0" are two values
        ],
    )
    def test_distinct_labels_counted_by_value(self, tmp_path, cells, message):
        path = write(tmp_path, "a,y\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells)))
        with pytest.raises(DataError, match=message):
            load_csv(path, "y")

    def test_non_numeric_cell_error_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataError, match=r"row 1, column 'b'"):
            load_csv(path, "y")

    def test_first_non_numeric_cell_mid_file_is_named(self, tmp_path):
        # the whole table parses at once; the message still names the first
        # bad cell in row order, not a later one or the row count
        lines = [f"{i}.5,{-i},{i % 2}" for i in range(40)]
        lines[23] = "23.5,1e5x,1"
        lines[30] = "oops,-30,0"
        path = write(tmp_path, "a,b,y\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"non-numeric cell at row 23, column 'b'$"):
            load_csv(path, "y")
        with pytest.raises(DataError, match=r"non-numeric cell at row 23, column 'b'$"):
            load_points(path, ("a", "b"))
        lines[23] = "23.5,-23,1"
        with pytest.raises(DataError, match=r"non-numeric cell at row 30, column 'a'$"):
            load_csv(write(tmp_path, "a,b,y\n" + "\n".join(lines) + "\n"), "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_label_column_with_one_value(self, tmp_path):
        path = write(tmp_path, "a,y\n1,1\n2,1\n")
        with pytest.raises(DataError, match="2 distinct"):
            load_csv(path, "y")

    def test_label_column_with_three_values(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\n2,1\n3,2\n")
        with pytest.raises(DataError, match="2 distinct"):
            load_csv(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\n2,1\n")
        with pytest.raises(DataError, match="not in header"):
            load_csv(path, "z")

    @pytest.mark.parametrize("column", [0, "0"], ids=["int", "text"])
    def test_label_column_is_never_an_index(self, tmp_path, column):
        # a column is read by its header name only
        path = write(tmp_path, "y,a\n0,1\n1,2\n")
        with pytest.raises(DataError, match="label column .* not in header"):
            load_csv(path, column)

    def test_true_prob_column_extracted(self, tmp_path):
        path = write(tmp_path, "a,label,true_prob\n1,0,0.3\n2,1,0.7\n")
        d = load_csv(path, "label", true_prob_column="true_prob")
        assert d.p == 1
        np.testing.assert_allclose(d.true_probs, [0.3, 0.7])

    @pytest.mark.parametrize(
        "header, repeated",
        [("x1,x1,label", "x1"), ("x1,label,label", "label"), ("x1, x1 ,label", "x1")],
    )
    def test_repeated_column_names_rejected(self, tmp_path, header, repeated):
        # a repeated name would read one column's data under the other's name
        path = write(tmp_path, f"{header}\n0.1,100.0,0\n0.2,200.0,1\n")
        with pytest.raises(DataError, match=f"column names repeat: \\['{repeated}'\\]"):
            load_csv(path, "label")

    @pytest.mark.parametrize("header", ["label,a,b", "a,label,b", "a,b,label"])
    def test_load_points_by_position_skips_a_label_column(self, tmp_path, header):
        # a header naming none of the features is read by position, and a
        # column named label is never read as a feature
        cells = {"label": "1", "a": "0.1", "b": "0.2"}
        path = write(tmp_path, header + "\n" + ",".join(cells[h] for h in header.split(",")) + "\n")
        np.testing.assert_array_equal(load_points(path, ("x1", "x2")), [[0.1, 0.2]])

    def test_load_points_by_position_needs_enough_columns(self, tmp_path):
        path = write(tmp_path, "label,a\n1,0.1\n")
        with pytest.raises(DataError, match="names no feature column; 1 other columns, need 2$"):
            load_points(path, ("x1", "x2"))

    @pytest.mark.parametrize(
        "names, message",
        [(("a", "x2"), "'x2' not in header \\(1 missing\\)"),
         (("x1", "a", "x3"), "'x1' not in header \\(2 missing\\)")],
        ids=["one", "two"],
    )
    def test_load_points_names_the_first_missing_column(self, tmp_path, names, message):
        path = write(tmp_path, "y,a,b\n1,0.1,0.2\n")
        with pytest.raises(DataError, match=f"feature column {message}$"):
            load_points(path, names)

    @pytest.mark.parametrize(
        "header, column, labels_at",
        [("a,b,0", "0", 2), ("1,a,y", "1", 0)],
    )
    def test_column_by_name_before_index(self, tmp_path, header, column, labels_at):
        # text naming a header column is that column, even decimal text
        cells = [["0.5", "1.5", "2.5"], ["3.5", "4.5", "5.5"]]
        for row, label in zip(cells, ("0", "1")):
            row[labels_at] = label
        path = write(tmp_path, header + "\n" + "\n".join(",".join(r) for r in cells) + "\n")
        d = load_csv(path, column)
        names = header.split(",")
        assert d.feature_names == tuple(n for j, n in enumerate(names) if j != labels_at)
        assert d.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("column", ["3", "-1", "x"])
    def test_column_outside_the_header(self, tmp_path, column):
        path = write(tmp_path, "a,b,0\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="not in header"):
            load_csv(path, column)

    def test_load_points_refuses_a_header_only_file(self, tmp_path):
        path = write(tmp_path, "x1,x2\n")
        with pytest.raises(DataError, match="no data rows"):
            load_points(path, ("x1", "x2"))

    @pytest.mark.parametrize("label_column", ["label", "missing"])
    def test_load_csv_refuses_a_header_only_file(self, tmp_path, label_column):
        # refused before the label column is looked up or its values counted
        path = write(tmp_path, "x1,x2,label\n\n")
        with pytest.raises(DataError, match=r"no data rows$"):
            load_csv(path, label_column)

    def test_load_points_rejects_repeated_column_names(self, tmp_path):
        path = write(tmp_path, "x1,x1\n0.1,100.0\n")
        with pytest.raises(DataError, match="column names repeat"):
            load_points(path, ("x1", "x2"))

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20), ("a", "b", "c"))
        path = tmp_path / "rt.csv"
        save_csv(d, path)
        back = load_csv(path, "label")
        np.testing.assert_array_equal(back.features, d.features)
        np.testing.assert_array_equal(back.labels, d.labels)
        assert back.feature_names == d.feature_names

    @pytest.mark.parametrize("path", [DEMO, "missing.csv"], ids=["demo", "missing"])
    def test_true_prob_column_that_is_the_label_column_refused(self, path):
        # the labels would be read as the truth and the truth as a feature;
        # refused before the file is read, so a missing file gives the same
        with pytest.raises(DataError, match=r"^true-prob column 'label' is the label column$"):
            load_csv(path, "label", true_prob_column="label")

    def test_auto_true_prob_column_skips_the_label_column(self, tmp_path):
        path = write(tmp_path, "a,true_prob\n0.5,0\n1.5,1\n")
        d = load_csv(path, "true_prob", true_prob_column="auto")
        assert d.true_probs is None and d.feature_names == ("a",)
        assert d.labels.tolist() == [0, 1]


def both_paths(read):
    """read() through numpy's C reader, then again with that reader
    refusing every table, so that the csv path reads it."""
    with mock.patch.object(data_model, "_read_rows", side_effect=AssertionError("csv path")):
        fast = outcome(read)
    with mock.patch.object(data_model.np, "loadtxt", side_effect=ValueError):
        slow = outcome(read)
    return fast, slow


def outcome(read):
    """Every byte of what read() returns, or the type and text of what it raises."""
    try:
        got = read()
    except ValueError as exc:  # DataError among them
        return type(exc).__name__, str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype.str, got.shape, got.tobytes()
    tps = None if got.true_probs is None else got.true_probs.tobytes()
    return (got.features.shape, got.features.tobytes(), got.labels.tobytes(),
            got.feature_names, tps)


# 17 significant digits, signed zeros, exponents and subnormals
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)
SPELLINGS = ["{!r}", "{:.17g}", "{:.16e}", "{:+.17E}"]
WRAPS = ["{}", " {} ", "\t{}", '"{}"', '" {} "']
NUMERIC_LABELS = [("0", "1"), ("1.0", "-0"), (" 2 ", '"1e1"')]
TEXT_LABELS = [("ham", "spam"), ('"a, b"', " c ")]


@st.composite
def tables(draw):
    """CSV text with features x1..xk, a label column and maybe a true_prob
    column, in a drawn order, with quoting, padding, blank lines and CRLF;
    and whether the labels are numbers."""
    k = draw(st.integers(1, 4))
    header = [f"x{j + 1}" for j in range(k)] + ["label"] + draw(st.sampled_from([[], ["true_prob"]]))
    header = draw(st.permutations(header))
    numeric = draw(st.booleans())
    labels = draw(st.sampled_from(NUMERIC_LABELS if numeric else TEXT_LABELS))
    number = st.builds(
        lambda v, spelling, wrap: wrap.format(spelling.format(v)),
        VALUES, st.sampled_from(SPELLINGS), st.sampled_from(WRAPS),
    )
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
        lines.append(",".join(
            draw(st.sampled_from(labels)) if h == "label" else draw(number) for h in header
        ))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return header, eol.join(lines) + eol, numeric


class TestCReader:
    """numpy's C reader parses every table it accepts as the csv path and
    float() do, and hands every other table to them."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables(), seed=st.integers(0, 2**16))
    def test_c_path_and_csv_path_are_bit_identical(self, tmp_path, table, seed):
        header, text, numeric_labels = table
        path = write(tmp_path, text)
        names = tuple(np.random.default_rng(seed).permutation([h for h in header if h[0] == "x"]))
        reads = [lambda: load_csv(path, "label", true_prob_column="auto"),
                 lambda: load_csv(path, "label")]
        if numeric_labels:  # a text column a query ignores is the csv path's
            reads.append(lambda: load_points(path, names))
        for read in reads:
            fast, slow = both_paths(read)
            assert fast == slow

    def test_demo_file_is_bit_identical(self):
        fast, slow = both_paths(lambda: load_csv(DEMO, "label", true_prob_column="auto"))
        assert fast == slow and fast[4] is not None

    @pytest.mark.parametrize(
        "cell, value", [("1_000", 1000.0), ("١٢", 12.0), ("７.5", 7.5)],
        ids=["underscore", "arabic-indic", "fullwidth"],
    )
    def test_spellings_only_float_takes_read_by_the_csv_path(self, tmp_path, cell, value):
        path = write(tmp_path, f"a,b,label\n{cell},2,0\n3,4,1\n")
        with mock.patch.object(data_model, "_read_rows", wraps=data_model._read_rows) as rows:
            d = load_csv(path, "label")
            X = load_points(path, ("a", "b"))
        assert rows.call_count == 2
        np.testing.assert_array_equal(d.features, [[value, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(X, d.features)

    @pytest.mark.filterwarnings("error")  # numpy warns on a table with no rows
    @pytest.mark.parametrize(
        "text, message",
        [("x1,x2\n1,2,3\n4,5,6\n", "row 0 has 3 cells, expected 2"),
         ("x1,x2,x3\n1,2\n", "row 0 has 2 cells, expected 3"),
         ("x1\n\r\n\n", "no data rows")],
        ids=["wider", "narrower", "empty"],
    )
    def test_tables_of_another_shape_refused_by_the_csv_path(self, tmp_path, text, message):
        # numpy reads rows of one width, or none, without complaint
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f"{message}$"):
            load_points(path, ("x1", "x2"))

    def test_text_column_a_query_does_not_use_read_by_the_csv_path(self, tmp_path):
        path = write(tmp_path, "id,x2,x1\nfirst,0.1,0.2\nsecond,0.3,0.4\n")
        with mock.patch.object(data_model, "_read_rows", wraps=data_model._read_rows) as rows:
            X = load_points(path, ("x1", "x2"))
        assert rows.call_count == 1
        np.testing.assert_array_equal(X, [[0.2, 0.1], [0.4, 0.3]])

    def test_query_read_peak_memory(self, tmp_path):
        # a 1000 x 51 table of 17-digit values, as a query CSV with a label
        rng = np.random.default_rng(5)
        X = rng.normal(size=(1000, 50))
        names = tuple(f"x{j + 1}" for j in range(50))
        lines = [",".join(names + ("label",))]
        lines += [",".join(map(repr, row)) + f",{i % 2}" for i, row in enumerate(X.tolist())]
        path = write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            got = load_points(path, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, X)
        assert peak < 4 * got.nbytes


class TestAugmentJunk:
    def _data(self, n=40, p=5, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(
            rng.normal(size=(n, p)),
            rng.integers(0, 2, n),
            tuple(f"f{j}" for j in range(p)),
        )

    def test_spam_shaped_dimensions(self):
        d = self._data(n=30, p=57)
        out = augment_junk(d, 50, seed=1)
        assert out.p == 107
        assert out.n == d.n
        np.testing.assert_array_equal(out.labels, d.labels)
        np.testing.assert_array_equal(out.features[:, :57], d.features)

    def test_junk_is_permutation_of_a_source_column(self):
        d = self._data()
        out = augment_junk(d, 1, seed=2)
        junk = np.sort(out.features[:, -1])
        assert any(
            np.array_equal(junk, np.sort(d.features[:, j])) for j in range(d.p)
        )

    def test_deterministic(self):
        d = self._data()
        a = augment_junk(d, 3, seed=5)
        b = augment_junk(d, 3, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.feature_names == b.feature_names

    def test_names_suffixed(self):
        d = self._data(p=2)
        out = augment_junk(d, 3, seed=0)
        assert all("_junk_" in n for n in out.feature_names[2:])

    def test_sources_distinct_until_exhausted(self):
        d = self._data(p=4)
        out = augment_junk(d, 4, seed=9)
        sources = [n.rsplit("_junk_", 1)[0] for n in out.feature_names[4:]]
        assert sorted(sources) == sorted(d.feature_names)

    def test_count_beyond_p_reuses_sources(self):
        d = self._data(p=3)
        out = augment_junk(d, 8, seed=9)
        assert out.p == 11
        sources = [n.rsplit("_junk_", 1)[0] for n in out.feature_names[3:]]
        # first pass covers every original column before any reuse
        assert sorted(sources[:3]) == sorted(d.feature_names)
        assert set(sources) <= set(d.feature_names)
        for k, name in enumerate(out.feature_names[3:]):
            assert name.endswith(f"_junk_{k + 1}")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_junk_name_clash_refused_whatever_the_seed(self, seed):
        d = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("x1", "x1_junk_1"))
        with pytest.raises(DataError, match="'x1_junk_1' clashes with the names of 1 junk"):
            augment_junk(d, 1, seed=seed)

    @pytest.mark.parametrize("names", [
        ("x1", "x1_junk_3"),  # only junk columns 1 and 2 are made
        ("x1", "x1_junk_01"),
        ("x1", "x2_junk_1"),  # no feature x2
        ("x1", "x1_junk_"),
    ])
    def test_junk_like_names_that_cannot_clash_pass(self, names):
        d = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], names)
        for seed in range(4):
            assert augment_junk(d, 2, seed=seed).p == 4

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            augment_junk(self._data(), 0, seed=0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
    def test_non_integer_count_named(self, count):
        with pytest.raises(TypeError, match=f"count must be an integer, got {count!r}"):
            augment_junk(self._data(), count, seed=0)

    def test_junk_uncorrelated_with_labels_on_average(self):
        # one junk column per seed; the mean correlation over seeds is ~0
        rng = np.random.default_rng(11)
        n = 250
        x = rng.normal(size=(n, 1))
        y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        d = Dataset(x, y, ("x",))
        corrs = []
        yc = y - y.mean()
        for seed in range(200):
            out = augment_junk(d, 1, seed=seed)
            col = out.features[:, -1]
            corrs.append(
                float((col - col.mean()) @ yc / (n * col.std() * yc.std()))
            )
        assert abs(np.mean(corrs)) < 0.05


class TestTrainTestSplit:
    def _data(self, n=10):
        rng = np.random.default_rng(0)
        return Dataset(
            rng.normal(size=(n, 2)), rng.integers(0, 2, n), ("a", "b"),
            true_probs=rng.random(n),
        )

    def test_sizes(self):
        train, test = train_test_split(self._data(10), 0.8, seed=0)
        assert train.n == 8 and test.n == 2

    def test_deterministic(self):
        d = self._data(30)
        a_train, a_test = train_test_split(d, 0.6, seed=4)
        b_train, b_test = train_test_split(d, 0.6, seed=4)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(self._data(5), 0.999, seed=0)

    def test_true_probs_carried_through(self):
        train, _ = train_test_split(self._data(10), 0.8, seed=1)
        assert train.true_probs is not None
        assert train.true_probs.shape == (8,)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        frac=st.floats(min_value=0.2, max_value=0.8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, frac, seed):
        rng = np.random.default_rng(7)
        d = Dataset(
            np.arange(n, dtype=float)[:, None], rng.integers(0, 2, n), ("a",)
        )
        train, test = train_test_split(d, frac, seed=seed)
        got = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(got.tolist()) == list(range(n))
        assert abs(train.n - n * frac) <= 1.0
