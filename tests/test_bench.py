import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox.bench import (
    NODE_SIZE_GRID,
    EstimatorSpec,
    ExperimentConfig,
    default_estimators,
    misclassification,
    resolve_mtry,
    rmse_true,
    run_experiment,
    tuning_grid,
)
from forestprox.data_model import save_csv
from forestprox.synthgen import get_model, sample


class TestRmse:
    def test_perfect_predictions(self):
        p = np.array([0.2, 0.5, 0.9])
        assert rmse_true(p, p) == 0.0
        y = np.array([0, 1, 1])
        assert rmse_true(y.astype(float), y) == 0.0

    def test_constant_offset(self):
        p = np.array([0.3, 0.5, 0.7])
        assert rmse_true(p + 0.1, p) == pytest.approx(0.1)

    def test_hand_value(self):
        got = rmse_true(np.array([0.2, 0.8]), np.array([0.4, 0.4]))
        assert got == pytest.approx(np.sqrt((0.04 + 0.16) / 2))

    def test_uninformative_half(self):
        y = np.array([0, 1, 0, 1, 1])
        assert rmse_true(np.full(5, 0.5), y) == pytest.approx(0.5)

    def test_maximally_wrong(self):
        assert rmse_true(np.array([1.0, 0.0]), np.array([0, 1])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse_true(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            rmse_true(np.array([]), np.array([]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_bounded_by_one_for_probabilities(self, preds):
        preds = np.array(preds)
        labels = (preds >= 0.5).astype(int)
        assert 0.0 <= rmse_true(preds, labels) <= 1.0

    def test_misclassification_threshold(self):
        preds = np.array([0.49, 0.5, 0.51])
        labels = np.array([0, 0, 1])
        # 0.5 predicts class 1, mirroring the vote-rounding convention
        assert misclassification(preds, labels) == pytest.approx(1 / 3)


class TestMtryResolution:
    def test_symbols(self):
        assert resolve_mtry("sqrt", 50) == 7
        assert resolve_mtry("third", 50) == 17
        assert resolve_mtry("half", 50) == 25
        assert resolve_mtry("threequarters", 50) == 38
        assert resolve_mtry("all", 50) == 50
        assert resolve_mtry("sqrt", 2) == 1
        assert resolve_mtry(3, 10) == 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            resolve_mtry(0, 10)
        with pytest.raises(ValueError):
            resolve_mtry(11, 10)
        with pytest.raises(ValueError):
            resolve_mtry("bogus", 10)

    @pytest.mark.parametrize("mtry", [2.7, 2.0, True, None])
    def test_non_integer_refused(self, mtry):
        with pytest.raises(TypeError, match="mtry must be an integer"):
            resolve_mtry(mtry, 10)

    def test_tuning_grid(self):
        assert tuning_grid(50) == [1, 7, 17, 25, 38, 50]
        assert tuning_grid(2) == [1, 2]


class TestConfigValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source="mystery")

    def test_csv_requires_path(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source="csv")

    def test_needs_estimators(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source="xor", estimators=())

    def test_duplicate_estimator_names(self):
        # results are keyed by name, so two entries of one name would each
        # report both entries' values
        spec = EstimatorSpec("class_sqrt", "class_vote", "sqrt")
        other = EstimatorSpec("class_sqrt", "reg_mean", "third")
        for roster in ((spec, spec), (spec, other)):
            with pytest.raises(ValueError, match="unique"):
                ExperimentConfig(source="xor", estimators=roster)

    @pytest.mark.parametrize("field, value, error, message", [
        ("n_trees", True, TypeError, "n_trees must be an integer, got True"),
        ("n_trees", 2.0, TypeError, "n_trees must be an integer, got 2.0"),
        ("n_trees", 0, ValueError, "n_trees must be >= 1, got 0"),
        ("repetitions", 2.5, TypeError, "repetitions must be an integer, got 2.5"),
        ("repetitions", 0, ValueError, "repetitions must be >= 1, got 0"),
        ("junk", 0.5, TypeError, "junk must be an integer, got 0.5"),
        ("junk", -1, ValueError, "junk must be >= 0, got -1"),
    ])
    def test_counts_must_be_integers_at_their_minimum(self, field, value, error, message):
        # refused when the config is built, not cell by cell in run_experiment
        with pytest.raises(error, match=message):
            ExperimentConfig(source="xor", **{field: value})

    @pytest.mark.parametrize("field, value, error, message", [
        ("train_size", 40.5, TypeError, "train_size must be an integer, got 40.5"),
        ("train_size", 0, ValueError, "train_size must be >= 1, got 0"),
        ("test_size", True, TypeError, "test_size must be an integer, got True"),
        ("test_size", 0, ValueError, "test_size must be >= 1, got 0"),
        ("seed", -1, ValueError, "seed must be >= 0, got -1"),
        ("seed", 1.0, TypeError, "seed must be an integer, got 1.0"),
        ("train_fraction", "0.5", TypeError, "train_fraction must be a number, got '0.5'"),
        ("train_fraction", 1.5, ValueError, r"train_fraction must be in \(0, 1\), got 1.5"),
        ("train_fraction", 0.0, ValueError, r"train_fraction must be in \(0, 1\), got 0.0"),
        ("train_fraction", float("nan"), ValueError, r"train_fraction must be in \(0, 1\), got nan"),
    ])
    def test_sizes_seed_and_fraction_checked_for_every_source(self, field, value, error, message):
        # a synthetic source does not split by train_fraction, and a csv
        # source does not sample train_size or test_size rows; each is
        # refused when the config is built either way
        for source in ({"source": "xor"}, {"source": "csv", "csv_path": "d.csv"}):
            with pytest.raises(error, match=message):
                ExperimentConfig(**source, **{field: value})

    @pytest.mark.parametrize("mtry", [2.5, 3.0, True, None])
    def test_estimator_mtry_must_be_an_integer_or_symbol(self, mtry):
        with pytest.raises(TypeError, match="mtry must be an integer"):
            EstimatorSpec("x", "prox", mtry)

    def test_estimator_mtry_range_is_left_to_the_dataset(self):
        # p is not known here: 999 is refused per repetition, at resolve_mtry
        assert EstimatorSpec("x", "prox", 999).mtry == 999
        assert EstimatorSpec("x", "prox", np.int64(3)).mtry == 3
        with pytest.raises(ValueError, match="bad mtry symbol"):
            EstimatorSpec("x", "prox", "quarter")

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"split_mode": "bogus"}, ValueError, "split_mode must be one of"),
        ({"min_node_size": 0}, ValueError, "min_node_size must be >= 1, got 0"),
        ({"min_node_size": 2.5}, TypeError, "min_node_size must be an integer, got 2.5"),
    ], ids=["split_mode", "size_0", "size_float"])
    def test_estimator_growth_fields_checked_when_built(self, kwargs, error, message):
        # refused here, not as one error recorded per (repetition, estimator) cell
        with pytest.raises(error, match=message):
            EstimatorSpec("x", "prox", 1, **kwargs)

    @pytest.mark.parametrize("value", ["off", 1, None])
    def test_bootstrap_must_be_a_bool(self, value):
        with pytest.raises(TypeError, match=f"bootstrap must be a bool, got {value!r}"):
            ExperimentConfig(source="xor", bootstrap=value)

    def test_numpy_integers_stored_as_ints(self):
        spec = EstimatorSpec("c", "class_vote", np.int64(1), min_node_size=np.int32(2))
        cfg = ExperimentConfig(
            source="xor", estimators=(spec,), n_trees=np.int64(3), repetitions=np.int8(1),
            train_size=np.uint16(40), test_size=np.int64(30), junk=np.int64(0), seed=np.int64(2),
        )
        fields = (spec.mtry, spec.min_node_size, cfg.n_trees, cfg.repetitions,
                  cfg.train_size, cfg.test_size, cfg.junk, cfg.seed)
        assert [type(v) for v in fields] == [int] * len(fields)
        report = json.loads(json.dumps(run_experiment(cfg).to_dict()))
        assert report["config"]["n_trees"] == 3
        assert report["results"][0]["mtry"] == 1

    def test_default_roster_names(self):
        names = [e.name for e in default_estimators()]
        assert names == [
            "class_third",
            "reg_third",
            "class_sqrt",
            "reg_sqrt",
            "bagged",
            "random",
            "prox_best",
        ]


def small_config(**overrides):
    base = dict(
        source="xor",
        estimators=(
            EstimatorSpec("class_sqrt", "class_vote", "sqrt", min_node_size=1),
            EstimatorSpec("reg_third", "reg_mean", "third", min_node_size=5),
        ),
        n_trees=15,
        repetitions=2,
        train_size=80,
        test_size=60,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_shape_contract_single_repetition(self):
        cfg = small_config(repetitions=1)
        report = run_experiment(cfg)
        assert len(report.results) == 2
        for r in report.results:
            assert set(r.metrics) == {"rmse_true", "rmse_empirical", "test_error"}
            for summary in r.metrics.values():
                assert len(summary.values) == 1
                assert summary.stderr == 0.0
            assert len(r.chosen) == 1
        assert report.wall_clock_s > 0

    def test_deterministic_reports(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_clock_s")
        db.pop("wall_clock_s")
        assert da == db

    def test_metrics_within_unit_interval(self):
        report = run_experiment(small_config())
        for r in report.results:
            for summary in r.metrics.values():
                assert 0.0 <= summary.mean <= 1.0

    def test_estimator_failure_recorded_not_fatal(self):
        cfg = small_config(
            estimators=(
                EstimatorSpec("broken", "reg_mean", 999, min_node_size=1),
                EstimatorSpec("fine", "reg_mean", "sqrt", min_node_size=5),
            )
        )
        report = run_experiment(cfg)
        broken, fine = report.results
        assert len(broken.errors) == cfg.repetitions
        assert all("mtry" in msg for _, msg in broken.errors)
        assert np.isnan(broken.metrics["rmse_true"].mean)
        assert not fine.errors
        assert 0.0 <= fine.metrics["rmse_true"].mean <= 1.0

    def test_junk_augmentation_applied(self):
        report = run_experiment(small_config(junk=3))
        assert report.config.junk == 3
        for r in report.results:
            assert not r.errors

    def test_csv_source(self, tmp_path):
        d = sample(get_model("xor"), 120, seed=9)
        path = tmp_path / "data.csv"
        save_csv(d, path)
        cfg = ExperimentConfig(
            source="csv",
            csv_path=str(path),
            label_column="label",
            estimators=(EstimatorSpec("reg_sqrt", "reg_mean", "sqrt", min_node_size=5),),
            n_trees=10,
            repetitions=2,
            train_fraction=0.8,
            seed=3,
        )
        report = run_experiment(cfg)
        (res,) = report.results
        assert set(res.metrics) == {"rmse_empirical", "test_error"}
        assert len(res.metrics["rmse_empirical"].values) == 2

    def test_report_round_trips_through_json(self):
        report = run_experiment(small_config())
        payload = json.dumps(report.to_dict())
        back = json.loads(payload)
        assert back["config"]["source"] == "xor"
        assert len(back["results"]) == 2

    def test_tuned_choice_is_the_first_argmin_of_its_surface(self):
        # xor plus 8 junk coordinates: p = 10, mtry grid 1, 3, 5, 8, 10
        cfg = small_config(
            estimators=(
                EstimatorSpec("prox_best", "prox", "best", min_node_size=5),
                EstimatorSpec("class_sqrt", "class_vote", "sqrt", min_node_size=1),
            ),
            junk=8,
            n_trees=8,
        )
        tuned, fixed = json.loads(json.dumps(run_experiment(cfg).to_dict()))["results"]
        assert fixed["surface"] == [[], []]
        assert len(tuned["surface"]) == len(tuned["chosen"]) == cfg.repetitions
        grid = [(m, ns) for m in tuning_grid(10) for ns in NODE_SIZE_GRID]
        for cells, chosen in zip(tuned["surface"], tuned["chosen"]):
            assert [(c["mtry"], c["min_node_size"]) for c in cells] == grid
            rmse = [c["rmse_empirical"] for c in cells]
            assert all(0.0 <= e <= 1.0 for e in rmse)
            assert grid[int(np.argmin(rmse))] == (chosen["mtry"], chosen["min_node_size"])

    def test_table_rows(self):
        report = run_experiment(small_config())
        rows = report.table_rows()
        assert len(rows) == 2
        assert {"estimator", "mode", "mtry"} <= set(rows[0])

    def test_irreducible_noise_identity(self):
        # scoring the generating probabilities themselves against fresh
        # labels lands at sqrt(mean(p(1-p))) up to binomial noise
        d = sample(get_model("motivating50"), 100_000, seed=17)
        p = d.true_probs
        sq = (p - d.labels) ** 2
        mse = sq.mean()
        target = (p * (1 - p)).mean()
        sigma = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(mse - target) <= 3 * sigma
        assert rmse_true(p, d.labels) == pytest.approx(np.sqrt(mse))


# SHA-256 of each report's JSON without wall_clock_s. A change that alters
# any seed, draw, call order or float expression of the harness shows here;
# one that means to must re-pin these and say so.
PINNED_REPORTS = {
    "xor_junk": "0aa81f1e50b371bf50b54914b1f08ddf474d467031a58b2cddfd000dfe0a6803",
    "csv_auto": "b3803652af669eeff790d8304cc09e356dff0efc61293e5305dd988a083957b0",
    "failing": "090aaf34658fdfd36a53a354a0ec4b0176047b2fde8e0c86652b925272552968",
}


def pinned_config(name):
    small = dict(n_trees=10, repetitions=2, train_size=80, test_size=60, seed=5)
    if name == "xor_junk":
        roster = (
            EstimatorSpec("prox_best", "prox", "best", min_node_size=5),
            EstimatorSpec("class_sqrt", "class_vote", "sqrt", min_node_size=1),
        )
        return ExperimentConfig(source="xor", estimators=roster, junk=2, **small)
    if name == "csv_auto":
        return ExperimentConfig(
            source="csv",
            csv_path="data/demo_binary_200.csv",
            true_prob_column="auto",
            n_trees=10,
            repetitions=2,
            junk=2,
            seed=4,
        )
    roster = (
        EstimatorSpec("broken", "reg_mean", 999, min_node_size=1),
        EstimatorSpec("fine", "reg_mean", "sqrt", min_node_size=5),
    )
    return ExperimentConfig(source="xor", estimators=roster, **small)


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_match_pinned_digests(name, monkeypatch):
    # the report echoes csv_path, so read the CSV by a path relative to the repo
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    report = run_experiment(pinned_config(name)).to_dict()
    report.pop("wall_clock_s")
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == PINNED_REPORTS[name]
