import numpy as np
import pytest

from forestprox.synthgen import MODELS, get_model, sample


def vec(model, **coords):
    x = np.zeros(model.p)
    for key, value in coords.items():
        x[int(key[1:]) - 1] = value
    return x


def ccpf(model, *points):
    """model.ccpf on the (m, p) matrix whose rows are the given points."""
    return model.ccpf(np.array(points, dtype=np.float64))


class TestCcpf:
    def test_circle_radii(self):
        m = get_model("circle")
        got = ccpf(m, [0.0, 0.0], [18.0, 0.0], [0.0, 18.0], [8.0, 0.0])
        assert got[0] == 1.0
        # boundary r = 8: (28 - 8) / 20 = 1, continuous with the inner disc
        np.testing.assert_allclose(got[1:], [0.5, 0.5, 1.0])

    def test_circle_outside_band(self):
        m = get_model("circle")
        assert ccpf(m, [20.0, 21.0])[0] == 0.0  # r = 29

    def test_motivating_halfspaces(self):
        m = get_model("motivating50")
        got = ccpf(m, vec(m, x1=-0.1), vec(m, x1=0.0), vec(m, x1=0.4))
        np.testing.assert_allclose(got, [0.3, 0.7, 0.7])

    def test_xor_quadrants(self):
        m = get_model("xor")
        got = ccpf(m, [0.5, -0.5], [-0.5, -0.5], [0.0, 0.9])
        np.testing.assert_allclose(got, [0.7, 0.3, 0.3])

    def test_tend_at_origin(self):
        m = get_model("tend")
        assert ccpf(m, np.zeros(10))[0] == pytest.approx(0.5)

    def test_tend_hand_value(self):
        m = get_model("tend")
        # log-odds: 0.5 * (1 - 0.5 + 0.5) * (0.5 + 0.5) = 0.5
        got = ccpf(m, vec(m, x1=0.5, x2=0.5))[0]
        assert got == pytest.approx(1.0 / (1.0 + np.exp(-0.5)))

    def test_kinked_branches(self):
        m = get_model("kinked")
        left, right = ccpf(m, [-0.5, 0.2], [0.5, 0.2])
        assert left == pytest.approx(1.0 / (1.0 + np.exp(-3 * -0.5 - 0.2)))
        assert right == pytest.approx(1.0 / (1.0 + np.exp(-0.5 - 3 * 0.2)))

    def test_logistic_models(self):
        m2 = get_model("logistic1_2d")
        assert ccpf(m2, [0.3, -0.9])[0] == pytest.approx(1 / (1 + np.exp(-0.9)))
        m22 = get_model("logistic2_22d")
        got = ccpf(m22, vec(m22, x1=0.3, x2=-0.1))[0]
        assert got == pytest.approx(1 / (1 + np.exp(-2 * 0.3 + 2 * 0.1)))
        m3 = get_model("logistic3d")
        assert ccpf(m3, [0.1, 0.2, 0.3])[0] == pytest.approx(1 / (1 + np.exp(-2 * 0.6)))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            get_model("mystery")

    def test_bayes_error_is_three_tenths_for_two_level_models(self):
        for name in ("motivating50", "xor"):
            m = get_model(name)
            d = sample(m, 2000, seed=0)
            bayes = np.minimum(d.true_probs, 1 - d.true_probs)
            np.testing.assert_allclose(bayes, 0.3)


class TestSample:
    def test_deterministic(self):
        m = get_model("circle")
        a = sample(m, 100, seed=9)
        b = sample(m, 100, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.true_probs, b.true_probs)

    def test_domain_and_names(self):
        m = get_model("circle")
        d = sample(m, 500, seed=1)
        assert d.feature_names == ("x1", "x2")
        assert d.features.min() >= -25 and d.features.max() <= 25

    def test_motivating_label_mean_near_half(self):
        d = sample(get_model("motivating50"), 100_000, seed=5)
        # halfspace symmetry puts the marginal at 0.5
        band = 3 * 0.5 / np.sqrt(d.n)
        assert abs(d.labels.mean() - 0.5) < band

    def test_circle_inner_disc_all_positive(self):
        d = sample(get_model("circle"), 100_000, seed=2)
        r = np.sqrt((d.features**2).sum(axis=1))
        inner = r < 8
        assert inner.sum() > 100
        assert d.labels[inner].all()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_labels_calibrated_against_ccpf(self, name):
        m = get_model(name)
        d = sample(m, 100_000, seed=13)
        probs = d.true_probs
        bins = np.clip((probs * 10).astype(int), 0, 9)
        for b in range(10):
            mask = bins == b
            count = int(mask.sum())
            if count < 500:
                continue
            expected = probs[mask].mean()
            sigma = np.sqrt(expected * (1 - expected) / count)
            assert abs(d.labels[mask].mean() - expected) <= max(3 * sigma, 1e-9), (
                name,
                b,
            )

    def test_true_probs_match_ccpf(self):
        m = get_model("xor")
        d = sample(m, 200, seed=3)
        np.testing.assert_array_equal(d.true_probs, m.ccpf(d.features))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(get_model("xor"), 0, seed=0)

    @pytest.mark.parametrize("n", [2.5, 5.0, True, "5"])
    def test_non_integer_n_named(self, n):
        with pytest.raises(TypeError, match=f"n must be an integer, got {n!r}"):
            sample(get_model("xor"), n, seed=0)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample(get_model("xor"), 5, seed=-1)
