import base64
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forestprox import cli
from forestprox.cli import main
from forestprox.forest import Forest


def read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(*args):
    """The CLI run as its own process, stdout and stderr captured. The child
    does not inherit pytest's pythonpath, so it is given src explicitly and
    runs without an install."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "forestprox.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated dataset plus a trained forest, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    model = root / "model.json"
    assert main([
        "simulate", "--model", "logistic1_2d", "--n", "150", "--seed", "4",
        "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--label-column", "label", "--trees", "25",
        "--mtry", "sqrt", "--mode", "class", "--seed", "1", "--out", str(model),
    ]) == 0
    return root, data, model


# Each subcommand's option strings, help aside: adding or removing a flag
# is a declared edit of this table.
FLAGS = {
    "simulate": ["--junk", "--model", "--n", "--out", "--seed"],
    "train": [
        "--bootstrap", "--data", "--junk", "--label-column", "--min-node-size", "--mode",
        "--mtry", "--out", "--seed", "--trees", "--true-prob-column",
    ],
    "predict": ["--data", "--model", "--out"],
    "proximity": ["--data", "--model", "--out"],
    "kernel": [
        "--leaves", "--mtry", "--out-compare", "--out-weights", "--seed", "--strong", "--trees",
        "--weak",
    ],
    "deriv": ["--center", "--h", "--h-sd", "--model", "--out"],
    "grid": ["--bounds", "--center", "--dims", "--model", "--out", "--resolution"],
    "bench": [
        "--bootstrap", "--data", "--estimators", "--junk", "--label-column", "--out",
        "--out-csv", "--reps", "--seed", "--synthetic", "--test-n", "--train-fraction",
        "--train-n", "--trees", "--true-prob-column",
    ],
}


def test_flag_surface_is_pinned():
    (commands,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    surface = {
        name: sorted(s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert surface == FLAGS


class TestSimulate:
    def test_writes_csv_with_truth_column(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([
            "simulate", "--model", "xor", "--n", "40", "--seed", "2", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2", "label", "true_prob"]
        assert len(rows) == 40
        assert set(r[2] for r in rows) <= {"0", "1"}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["simulate", "--model", "circle", "--n", "25", "--seed", "7", "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_junk_flag_widens_features(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--model", "xor", "--n", "30", "--seed", "2", "--junk", "3", "--out", str(out)])
        header, _ = read_csv(out)
        assert len(header) == 2 + 3 + 2


class TestTrainPredict:
    def test_model_file_format(self, workspace):
        _, _, model = workspace
        payload = json.loads(model.read_text())
        assert set(payload) == {"format", "params", "feature_names", "arrays"}
        assert payload["format"] == "forestprox-forest-v6"
        assert payload["params"]["n_trees"] == 25
        arrays = payload["arrays"]
        assert set(arrays) == {"features", "labels", "inbag", "n_nodes", "feature", "threshold"}
        for h in arrays.values():
            assert set(h) == {"dtype", "shape", "data"}
        assert arrays["features"]["dtype"] == "<f8"
        assert arrays["features"]["shape"] == [150, 2]
        assert arrays["inbag"]["shape"] == [25, 150]
        assert arrays["labels"]["dtype"] == "|u1"  # integers are narrowed
        h = arrays["n_nodes"]
        m = int(np.frombuffer(base64.b64decode(h["data"]), h["dtype"]).sum())
        for name in ("feature", "threshold"):
            assert arrays[name]["shape"] == [m]

    def test_true_prob_column_not_leaked_into_features(self, workspace):
        _, _, model = workspace
        payload = json.loads(model.read_text())
        assert payload["feature_names"] == ["x1", "x2"]

    def test_predict_emits_three_estimates(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(model), "--data", str(data), "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["row", "p_class", "p_reg", "p_prox"]
        assert len(rows) == 150
        for row in rows[:10]:
            for cell in row[1:]:
                assert 0.0 <= float(cell) <= 1.0

    @pytest.mark.parametrize("cells", [["nan", "nan"], ["inf", "-inf"]])
    def test_predict_rejects_non_finite_points(self, workspace, tmp_path, capsys, cells):
        _, _, model = workspace
        query = tmp_path / "q.csv"
        query.write_text("x1,x2\n0.1,0.2\n" + ",".join(cells) + "\n", encoding="utf-8")
        rc = main([
            "predict", "--model", str(model), "--data", str(query),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "non-finite query value at row 1" in err["message"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.3", "row 1 has 1 cells, expected 2"),
            ("0.3,0.4,0.5", "row 1 has 3 cells, expected 2"),
            ("0.3,abc", "non-numeric cell at row 1, column 'x2'"),
        ],
    )
    def test_predict_rejects_malformed_rows(self, workspace, tmp_path, capsys, row, message):
        _, _, model = workspace
        query = tmp_path / "q.csv"
        query.write_text("x1,x2\n0.1,0.2\n" + row + "\n", encoding="utf-8")
        rc = main([
            "predict", "--model", str(model), "--data", str(query),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert message in err["message"]

    @pytest.mark.parametrize("kept", [0, 1])
    def test_predict_rejects_tree_count_mismatch(self, workspace, tmp_path, capsys, kept):
        _, data, model = workspace
        payload = json.loads(model.read_text())
        for name in ("n_nodes", "inbag"):
            h = payload["arrays"][name]
            a = np.frombuffer(base64.b64decode(h["data"]), h["dtype"]).reshape(h["shape"])[:kept]
            h["shape"], h["data"] = list(a.shape), base64.b64encode(a.tobytes()).decode("ascii")
        short = tmp_path / "short.json"
        short.write_text(json.dumps(payload), encoding="utf-8")
        rc = main([
            "predict", "--model", str(short), "--data", str(data),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert f"forest holds {kept} trees, params say 25" in err["message"]

    def test_predict_deterministic_through_save_load(self, workspace, tmp_path):
        _, data, model = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize(
        "command, header, missing",
        [("predict", "x1,label", "x2"), ("proximity", "x1,label", "x2"),
         ("predict", "x2,x3", "x1"), ("proximity", "x2,x3", "x1")],
        ids=["predict", "proximity", "predict-x2,x3", "proximity-x2,x3"],
    )
    def test_label_column_never_read_as_a_feature(
        self, workspace, tmp_path, capsys, command, header, missing
    ):
        # against a model of x1,x2 a header that names some of the model's
        # features is read by name only: neither label nor x2 stands in for
        # a missing feature
        _, _, model = workspace
        query = tmp_path / "q.csv"
        query.write_text(f"{header}\n0.1,1\n0.2,0\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        rc = main([command, "--model", str(model), "--data", str(query), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert err["message"] == f"{query}: feature column {missing!r} not in header (1 missing)"
        assert not out.exists()

    def test_model_names_beside_a_label_column(self, workspace, tmp_path):
        _, _, model = workspace
        labelled, bare = tmp_path / "labelled.csv", tmp_path / "bare.csv"
        labelled.write_text("label,x2,x1\n1,0.5,0.1\n0,-0.3,0.2\n", encoding="utf-8")
        bare.write_text("x1,x2\n0.1,0.5\n0.2,-0.3\n", encoding="utf-8")
        outs = []
        for query in (labelled, bare):
            out = tmp_path / f"{query.stem}.out.csv"
            assert main(["predict", "--model", str(model), "--data", str(query),
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_train_label_column_named_by_a_number(self, tmp_path):
        # a header column named 0 is that column, not column index 0
        rows = "".join(f"{i / 10},{(7 * i % 5) / 5},{i % 2}\n" for i in range(12))
        models = []
        for header, label in (("a,b,0", "0"), ("a,b,label", "label")):
            data, model = tmp_path / f"{label}.csv", tmp_path / f"{label}.json"
            data.write_text(f"{header}\n{rows}", encoding="utf-8")
            assert main(["train", "--data", str(data), "--label-column", label, "--trees", "3",
                         "--mtry", "1", "--seed", "2", "--out", str(model)]) == 0
            models.append(model.read_text())
        assert json.loads(models[0])["feature_names"] == ["a", "b"]
        assert models[0] == models[1]

    @pytest.mark.parametrize("command", ["predict", "proximity"])
    def test_label_column_is_not_a_query_flag(self, workspace, tmp_path, command):
        # query columns are read by name; there is no label column to name
        _, data, model = workspace
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", str(model), "--data", str(data),
                  "--label-column", "label", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "proximity"])
    def test_header_only_query_refused(self, workspace, tmp_path, capsys, command):
        _, _, model = workspace
        query, out = tmp_path / "q.csv", tmp_path / "o.csv"
        query.write_text("x1,x2,label\n", encoding="utf-8")
        rc = main([command, "--model", str(model), "--data", str(query), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert err["message"] == f"{query}: no data rows"
        assert not out.exists()

    def test_header_only_training_file_refused(self, tmp_path, capsys):
        # load_csv refuses it as load_points does, before looking at labels
        data, model = tmp_path / "train.csv", tmp_path / "model.json"
        data.write_text("a,b,label\n", encoding="utf-8")
        assert main(["train", "--data", str(data), "--trees", "3", "--out", str(model)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert err["message"] == f"{data}: no data rows"
        assert not model.exists()


class TestProximityCommand:
    def test_matrix_symmetric_unit_diagonal(self, workspace, tmp_path):
        root, _, model = workspace
        points = root / "points.csv"
        main(["simulate", "--model", "logistic1_2d", "--n", "12", "--seed", "9", "--out", str(points)])
        out = tmp_path / "prox.csv"
        assert main([
            "proximity", "--model", str(model), "--data", str(points), "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        P = np.array([[float(v) for v in row] for row in rows])
        assert P.shape == (12, 12)
        np.testing.assert_allclose(P, P.T)
        np.testing.assert_allclose(np.diag(P), 1.0)


class TestKernelCommand:
    def test_weights_table_and_comparison(self, tmp_path):
        w, c = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", "2", "--weak", "4", "--leaves", "16",
            "--trees", "2000", "--seed", "3",
            "--out-weights", str(w), "--out-compare", str(c),
        ]) == 0
        header, rows = read_csv(w)
        assert header == ["mtry", "p_strong", "p_weak"]
        assert len(rows) == 6
        ps = [float(r[1]) for r in rows]
        assert ps == sorted(ps)  # nondecreasing in mtry
        assert ps[-1] == pytest.approx(0.5)  # 1/S at mtry = p
        header, rows = read_csv(c)
        assert header == ["axis", "scale", "analytic", "monte_carlo"]
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0
            assert 0.0 <= float(row[3]) <= 1.0

    def test_comparison_pinned(self, tmp_path):
        # SHA-256 of the CSV as written before the candidate draws were sped up
        w, c = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", "5", "--weak", "45", "--leaves", "32", "--mtry", "15",
            "--trees", "2000", "--seed", "3", "--out-weights", str(w), "--out-compare", str(c),
        ]) == 0
        assert hashlib.sha256(c.read_bytes()).hexdigest() == (
            "6a17fa286d450bae05bbe01dafd8cf6649db38064683b711f641ad507bbf3b61"
        )

    # one-axis models: the probes skip the axis that has no coordinates
    @pytest.mark.parametrize("strong, weak, digest", [
        ("0", "7", "305820509b57f289a48cb456eb6be603d4611a85970a4eb51f1db82e7f4aa172"),
        ("3", "0", "63e56ab4651b729ff6315dbdc9db277d1c1c1f3438b811fd8b851f7342ea063e"),
    ])
    def test_one_axis_comparison_pinned(self, tmp_path, strong, weak, digest):
        w, c = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", strong, "--weak", weak, "--leaves", "16", "--trees", "2000",
            "--seed", "3", "--out-weights", str(w), "--out-compare", str(c),
        ]) == 0
        assert hashlib.sha256(c.read_bytes()).hexdigest() == digest


class TestDerivCommand:
    def test_report_columns(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "deriv.csv"
        assert main([
            "deriv", "--model", str(model), "--center", "means", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["coordinate", "name", "left", "right", "step"]
        assert len(rows) == 2
        assert all(float(r[4]) > 0 for r in rows)

    def test_fixed_step(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "deriv.csv"
        main(["deriv", "--model", str(model), "--center", "0,0", "--h", "0.25", "--out", str(out)])
        _, rows = read_csv(out)
        assert all(float(r[4]) == 0.25 for r in rows)

    def test_default_steps_are_h_sd_times_training_sd(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "deriv.csv"
        assert main(["deriv", "--model", str(model), "--h-sd", "0.3", "--out", str(out)]) == 0
        _, rows = read_csv(data)
        sd = np.array([[float(r[0]), float(r[1])] for r in rows]).std(axis=0)
        assert [r[4] for r in read_csv(out)[1]] == [repr(float(0.3 * s)) for s in sd]

    @pytest.mark.parametrize("big", ["1e200", "1e300"])
    def test_default_steps_of_a_huge_column(self, tmp_path, big):
        # the squares of such values overflow: the step is still 0.2 SD,
        # and stderr stays empty
        data, model, out = tmp_path / "big.csv", tmp_path / "big.json", tmp_path / "d.csv"
        signs = [1, -1, 1, -1, 1]
        data.write_text("a,b,y\n" + "".join(
            f"{'' if s > 0 else '-'}{big},{i + 0.5},{i % 2}\n" for i, s in enumerate(signs)
        ), encoding="utf-8")
        assert main(["train", "--data", str(data), "--label-column", "y", "--trees", "3",
                     "--out", str(model)]) == 0
        proc = run_cli("deriv", "--model", model, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, "")
        steps = [float(r[4]) for r in read_csv(out)[1]]
        assert steps[0] == pytest.approx(0.2 * float(big) * np.std(signs), rel=1e-15)
        assert steps[1] == 0.2 * np.std(np.arange(5) + 0.5)

    def test_h_sd_overflowing_the_step_is_named(self, tmp_path):
        data, model, out = tmp_path / "big.csv", tmp_path / "big.json", tmp_path / "d.csv"
        data.write_text("a,b,y\n1e200,0.5,0\n-1e200,1.5,1\n1e200,2.5,0\n", encoding="utf-8")
        assert main(["train", "--data", str(data), "--label-column", "y", "--trees", "3",
                     "--out", str(model)]) == 0
        proc = run_cli("deriv", "--model", model, "--h-sd", "1e200", "--out", out)
        assert proc.returncode == 1
        assert not out.exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        message = json.loads(lines[0])["error"]["message"]
        assert message.startswith("--h-sd 1e+200 times the training SD ")
        assert "of column 'a' overflows" in message

    def test_center_of_wrong_length(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        out = tmp_path / "deriv.csv"
        assert main(["deriv", "--model", str(model), "--center", "0,0,0", "--out", str(out)]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == "--center needs the forest's 2 coordinates, got 3 values"


class TestCenterAndValues:
    """deriv and grid read --center one way, and a value that does not
    parse is named with its flag."""

    @pytest.mark.parametrize("command", ["deriv", "grid"])
    def test_means_center_equals_the_values_written_out(self, workspace, tmp_path, command):
        _, data, model = workspace
        header, rows = read_csv(data)
        means = np.array([[float(r[0]), float(r[1])] for r in rows]).mean(axis=0)
        outs = []
        for center in ("means", ",".join(map(repr, means.tolist()))):
            out = tmp_path / f"{len(outs)}.csv"
            extra = ["--resolution", "5"] if command == "grid" else []
            assert main([command, "--model", str(model), "--center", center, *extra,
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["deriv", "grid"])
    def test_means_of_a_column_summing_past_the_float_range(self, tmp_path, command):
        # the column's sum overflows; its mean is taken in units of its
        # largest magnitude, so the center is finite and stderr stays empty
        data, model, out = tmp_path / "big.csv", tmp_path / "big.json", tmp_path / "o.csv"
        data.write_text("a,b,y\n1.4e308,0.5,0\n1.7e308,1.5,1\n1.5e308,2.5,0\n1.6e308,3.5,1\n",
                        encoding="utf-8")
        assert main(["train", "--data", str(data), "--label-column", "y", "--trees", "3",
                     "--out", str(model)]) == 0
        extra = ["--resolution", "3"] if command == "grid" else []
        proc = run_cli(command, "--model", model, "--center", "means", *extra, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, "")
        center = cli._center("means", Forest.load(model))
        assert center[0] == pytest.approx(1.55e308, rel=1e-15)
        assert center[1] == 2.0

    @pytest.mark.parametrize("command, flag, value, message", [
        ("deriv", "--center", "1,abc", "--center: 'abc' is not a number"),
        ("grid", "--center", "0,", "--center: '' is not a number"),
        ("grid", "--dims", "0,x", "--dims: 'x' is not an integer"),
        ("grid", "--dims", "0,1.5", "--dims: '1.5' is not an integer"),
        ("grid", "--bounds", "-1,1,a,1", "--bounds: 'a' is not a number"),
    ])
    def test_bad_value_names_its_flag(
        self, workspace, tmp_path, capsys, command, flag, value, message
    ):
        _, _, model = workspace
        out = tmp_path / "o.csv"
        center = [] if flag == "--center" else ["--center", "0,0"]
        assert main([command, "--model", str(model), *center, f"{flag}={value}",
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("command, args, message", [
        ("deriv", ["--h", "nan"], "steps must be finite and > 0, got nan at coordinate 0"),
        ("deriv", ["--h", "inf"], "steps must be finite and > 0, got inf at coordinate 0"),
        ("deriv", ["--h-sd", "nan"], "steps must be finite and > 0, got nan at coordinate 0"),
        ("grid", ["--center", "0,0", "--bounds=nan,1,0,1"],
         "bounds must be finite, got [nan, 1.0, 0.0, 1.0]"),
    ])
    def test_non_finite_step_or_bound_refused(
        self, workspace, tmp_path, capsys, command, args, message
    ):
        _, _, model = workspace
        out = tmp_path / "o.csv"
        assert main([command, "--model", str(model), *args, "--out", str(out)]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": message}


    @pytest.mark.parametrize("command, args, message", [
        ("deriv", ["--center", "nan,0"], "center must be finite, got nan at coordinate 0"),
        ("grid", ["--center", "0,inf"], "center must be finite, got inf at coordinate 1"),
        ("deriv", ["--center", "1.7e308,0", "--h", "1e308"],
         "steps must keep center +- step finite, got 1e+308 at coordinate 0"),
        ("grid", ["--center", "0,0", "--bounds=-1e308,1.7e308,-1,1"],
         "bounds [-1e+308, 1.7e+308, -1.0, 1.0] span more than the finite range"),
    ])
    def test_non_finite_center_or_probe_refused(
        self, workspace, tmp_path, command, args, message
    ):
        # run as its own process, so that a numpy warning would reach
        # stderr beside the error: stderr holds exactly one JSON line
        _, _, model = workspace
        out = tmp_path / "o.csv"
        proc = run_cli(command, "--model", model, *args, "--out", out)
        assert proc.returncode == 1
        assert not out.exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == {"type": "ValueError", "message": message}


class TestGridCommand:
    def test_long_form_csv(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "grid.csv"
        assert main([
            "grid", "--model", str(model), "--center", "0,0", "--dims", "0,1",
            "--resolution", "7", "--bounds=-1,1,-1,1", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2", "kernel"]
        assert len(rows) == 49
        values = [float(r[2]) for r in rows]
        assert max(values) <= 1.0 and min(values) >= 0.0

    def test_center_of_wrong_length(self, workspace, tmp_path, capsys):
        # a short center must be named as such, not blamed on --dims
        _, _, model = workspace
        out = tmp_path / "grid.csv"
        assert main(["grid", "--model", str(model), "--center", "0", "--out", str(out)]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == "--center needs the forest's 2 coordinates, got 1 values"

    @pytest.mark.parametrize("flag, value, message", [
        ("--dims", "0", "--dims needs 2 coordinate indices, got 1 values"),
        ("--dims", "0,1,1", "--dims needs 2 coordinate indices, got 3 values"),
        ("--bounds", "-1,1", "--bounds needs 4 values (lo_i,hi_i,lo_j,hi_j), got 2 values"),
        ("--bounds", "-1,1,-1,1,0", "--bounds needs 4 values (lo_i,hi_i,lo_j,hi_j), got 5 values"),
    ])
    def test_dims_and_bounds_of_wrong_length(
        self, workspace, tmp_path, capsys, flag, value, message
    ):
        _, _, model = workspace
        out = tmp_path / "grid.csv"
        assert main([
            "grid", "--model", str(model), "--center", "0,0", f"{flag}={value}", "--out", str(out),
        ]) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message

    @pytest.mark.parametrize("dims", ["0,5", "-1,1"])
    @pytest.mark.parametrize("bounds", [[], ["--bounds=-1,1,-1,1"]], ids=["data-range", "bounds"])
    def test_dims_beyond_p(self, workspace, tmp_path, capsys, dims, bounds):
        _, _, model = workspace
        out = tmp_path / "grid.csv"
        assert main([
            "grid", "--model", str(model), "--center", "0,0", f"--dims={dims}", *bounds,
            "--out", str(out),
        ]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"] == f"--dims needs indices in [0, 2), got {dims}"

    def test_resolution_over_the_matrix_cap_refused(self, workspace, tmp_path, capsys):
        # 8 * 6000^2 bytes of grid values exceed PROXIMITY_MATRIX_MAX_BYTES
        _, _, model = workspace
        out = tmp_path / "grid.csv"
        assert main([
            "grid", "--model", str(model), "--center", "0,0", "--resolution", "6000",
            "--out", str(out),
        ]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {
            "type": "ValueError",
            "message": "resolution 6000 needs 288000000 bytes, over the cap of 268435456",
        }


class TestBenchCommand:
    def test_synthetic_run_emits_report_and_table(self, tmp_path):
        out, table = tmp_path / "report.json", tmp_path / "table.csv"
        assert main([
            "bench", "--synthetic", "xor", "--trees", "10", "--reps", "2",
            "--train-n", "60", "--test-n", "40", "--seed", "2",
            "--estimators", "class_sqrt,reg_third",
            "--out", str(out), "--out-csv", str(table),
        ]) == 0
        payload = json.loads(out.read_text())
        assert [r["name"] for r in payload["results"]] == ["class_sqrt", "reg_third"]
        assert payload["results"][0]["metrics"]["rmse_true"]["values"]
        header, rows = read_csv(table)
        assert "estimator" in header and len(rows) == 2

    def test_unknown_estimator_fails_cleanly(self, tmp_path, capsys):
        rc = main([
            "bench", "--synthetic", "xor", "--estimators", "wizard",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"

    def test_duplicate_estimator_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main([
            "bench", "--synthetic", "xor", "--trees", "5", "--reps", "2",
            "--train-n", "60", "--test-n", "60", "--estimators", "class_sqrt,class_sqrt",
            "--out", str(out),
        ])
        assert rc == 1 and not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and "unique" in err["message"]


class TestBadCounts:
    """A count no run can use is refused with the JSON error before any
    forest is grown or any file written."""

    @pytest.fixture(autouse=True)
    def no_growth(self, monkeypatch):
        def grow(*args):
            pytest.fail("a forest was grown")

        for module in ("forestprox.bench", "forestprox.cli"):
            monkeypatch.setattr(f"{module}.train_forest", grow)

    @staticmethod
    def _refused(capsys, out, message):
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and message in err["message"]

    def test_bench_zero_trees(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["bench", "--synthetic", "xor", "--trees", "0", "--out", str(out)]) == 1
        self._refused(capsys, out, "n_trees must be >= 1")

    @pytest.mark.parametrize("command", ["simulate", "train", "bench"])
    def test_negative_junk(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        source = {
            "simulate": ["--model", "xor", "--n", "30"],
            "train": ["--data", str(workspace[1])],
            "bench": ["--synthetic", "xor"],
        }[command]
        assert main([command, *source, "--junk", "-3", "--out", str(out)]) == 1
        self._refused(capsys, out, "junk must be >= 0, got -3")

    @pytest.mark.parametrize("command", ["simulate", "train", "bench", "kernel"])
    def test_negative_seed(self, workspace, tmp_path, capsys, command):
        out, comparison = tmp_path / "out", tmp_path / "c.csv"
        argv = {
            "simulate": ["--model", "xor", "--n", "30", "--out", str(out)],
            "train": ["--data", str(workspace[1]), "--out", str(out)],
            "bench": ["--synthetic", "xor", "--out", str(out)],
            "kernel": ["--strong", "1", "--weak", "1", "--out-weights", str(out),
                       "--out-compare", str(comparison)],
        }[command]
        assert main([command, *argv, "--seed", "-1"]) == 1
        assert not comparison.exists()
        self._refused(capsys, out, "seed must be >= 0, got -1")

    @pytest.mark.parametrize("fraction", ["1.5", "0", "nan"])
    def test_bench_train_fraction_outside_the_unit_interval(self, tmp_path, capsys, fraction):
        # refused for a synthetic source too, which is not split by it
        out = tmp_path / "r.json"
        assert main(["bench", "--synthetic", "xor", "--train-fraction", fraction,
                     "--out", str(out)]) == 1
        self._refused(capsys, out, "train_fraction must be in (0, 1)")

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_junk_name_clash(self, tmp_path, capsys, command, seed):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text("x1,x1_junk_1,label\n" + "".join(
            f"{i},{-i},{i % 2}\n" for i in range(20)), encoding="utf-8")
        assert main([command, "--data", str(data), "--junk", "1", "--seed", seed,
                     "--trees", "2", "--out", str(out)]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert "'x1_junk_1' clashes with the names of 1 junk columns" in err["message"]

    @pytest.mark.parametrize("trees, compare", [("0", True), ("-5", False)])
    def test_kernel_trees_below_one(self, tmp_path, capsys, trees, compare):
        weights, comparison = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", "1", "--weak", "1", "--trees", trees,
            "--out-weights", str(weights), *(["--out-compare", str(comparison)] if compare else []),
        ]) == 1
        assert not comparison.exists()
        self._refused(capsys, weights, f"--trees must be >= 1, got {trees}")

    def test_kernel_trees_over_the_matrix_cap(self, tmp_path, capsys):
        # 8 * 10^6 * 50 bytes of simulated extents exceed PROXIMITY_MATRIX_MAX_BYTES;
        # both kernels are computed before either file is written
        weights, comparison = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", "5", "--weak", "45", "--trees", "1000000",
            "--out-weights", str(weights), "--out-compare", str(comparison),
        ]) == 1
        assert not comparison.exists()
        self._refused(
            capsys, weights, "1000000 trees need 400000000 bytes, over the cap of 268435456"
        )

    @pytest.mark.parametrize("compare", [True, False])
    def test_kernel_without_coordinates(self, tmp_path, capsys, compare):
        weights, comparison = tmp_path / "w.csv", tmp_path / "c.csv"
        assert main([
            "kernel", "--strong", "0", "--weak", "0",
            "--out-weights", str(weights), *(["--out-compare", str(comparison)] if compare else []),
        ]) == 1
        assert not comparison.exists()
        self._refused(capsys, weights, "need at least one coordinate (strong + weak >= 1)")


class TestTrueProbColumn:
    """`train` and `bench --data` take the true-prob column from the one
    CSV read they make: "auto" drops `true_prob` when the header has it."""

    @staticmethod
    def _run(command, data, choice, out):
        extra = ["--trees", "5", "--reps", "1", "--estimators", "class_sqrt"]
        return main([
            command, "--data", str(data), "--true-prob-column", choice,
            *(extra if command == "bench" else ["--trees", "5"]), "--out", str(out),
        ])

    @pytest.mark.parametrize("choice", ["auto", "none", "true_prob"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_empty_file_reports_data_error(self, tmp_path, capsys, command, choice):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert self._run(command, empty, choice, tmp_path / "out.json") == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert "empty file, header row required" in err["message"]

    @pytest.mark.parametrize(
        "choice, has_column, dropped",
        [("auto", True, "true_prob"), ("auto", False, None), ("none", True, None),
         ("true_prob", True, "true_prob")],
    )
    def test_resolved_column(self, workspace, tmp_path, choice, has_column, dropped):
        _, data, _ = workspace
        if not has_column:
            header, rows = read_csv(data)
            data = tmp_path / "no_truth.csv"
            with data.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header[:3]] + [r[:3] for r in rows])
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        assert self._run("train", data, choice, model) == 0
        names = json.loads(model.read_text())["feature_names"]
        assert names == ["x1", "x2"] + (["true_prob"] if has_column and not dropped else [])
        assert self._run("bench", data, choice, report) == 0
        assert json.loads(report.read_text())["config"]["true_prob_column"] == dropped

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_label_column_refused_as_true_prob_column(self, workspace, tmp_path, capsys, command):
        # the labels must not be scored as the truth, nor the truth trained on
        _, data, _ = workspace
        out = tmp_path / "out.json"
        assert self._run(command, data, "label", out) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "DataError", "message": "true-prob column 'label' is the label column"}
        assert not out.exists()


class TestErrorContract:
    def test_missing_file_machine_readable(self, capsys, tmp_path):
        rc = main([
            "predict", "--model", str(tmp_path / "none.json"),
            "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err["error"]

    @pytest.mark.parametrize("text", [
        "[]", '{"format": "forestprox-forest-v4"}', '{"format": "forestprox-forest-v5"}',
        '{"format": "forestprox-forest-v6"}',
    ])
    def test_malformed_model_machine_readable(self, capsys, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        query = tmp_path / "q.csv"
        query.write_text("x1,x2\n0.1,0.2\n", encoding="utf-8")
        rc = main([
            "predict", "--model", str(model), "--data", str(query), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"

    def test_repeated_query_columns_machine_readable(self, capsys, workspace, tmp_path):
        # x1,x1 must not be read as [0.1, 0.1]
        _, _, model = workspace
        query = tmp_path / "q.csv"
        query.write_text("x1,x1\n0.1,100.0\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        rc = main(["predict", "--model", str(model), "--data", str(query), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert "column names repeat: ['x1']" in err["message"]
        assert not out.exists()

    def test_entry_point_subprocess(self, tmp_path):
        proc = run_cli("simulate", "--model", "xor", "--n", "5", "--seed", "1",
                       "--out", tmp_path / "x.csv")
        assert proc.returncode == 0
        proc = run_cli("train", "--data", tmp_path / "missing.csv", "--out", tmp_path / "m.json")
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"]["type"] == "FileNotFoundError"
