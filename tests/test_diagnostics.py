import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox import data_model
from forestprox.diagnostics import derivative_report, kernel_grid, prob_histogram
from forestprox.forest import ForestParams, train_forest
from forestprox.kernel_lab import NaiveKernelSpec, breiman_kernel, naive_kernel
from forestprox.synthgen import get_model, sample
from forestprox.tree import TreeParams


def laplace(bandwidth, weights):
    """Batched weighted Laplace kernel exp(-bandwidth * sum_j w_j |z_j - x0_j|)."""
    w = np.asarray(weights, dtype=np.float64)
    return lambda Z, x0: np.exp(-bandwidth * (w * np.abs(Z - x0)).sum(axis=1))


def const(Z, z):
    return np.ones(len(Z))


def never_called(Z, z):
    raise AssertionError("the kernel was called")


def refused_quietly(call, message):
    """call() raises ValueError matching message, and warns nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def half_max_spans(grid):
    """Spans along axis_i and along axis_j of the grid cells where the
    kernel reaches half its maximum."""
    mask = grid.values >= 0.5 * grid.values.max()
    a, b = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    return grid.axis_i[a[-1]] - grid.axis_i[a[0]], grid.axis_j[b[-1]] - grid.axis_j[b[0]]


def one_sided(kernel, x0, j, sign, h):
    """(k(x0 + sign h e_j, x0) - k(x0, x0)) / h from a 2-row kernel call."""
    Z = np.stack([x0, x0])
    Z[1, j] += sign * h
    k0, k1 = kernel(Z, x0)
    return (k1 - k0) / h


@pytest.fixture(scope="module")
def small_forest():
    d = sample(get_model("kinked"), 300, seed=41)
    params = ForestParams(n_trees=30, tree=TreeParams(mtry=2, min_node_size=1), seed=42)
    return train_forest(d, params)


# kernel name -> (center, steps) for the pinned outputs below
PIN_INPUTS = {
    "laplace": (np.array([0.3, -0.2, 0.1]), np.array([0.25, 0.1, 0.4])),
    "breiman": (np.array([0.5, 0.4, 0.6]), 0.2),
    "forest": (np.array([-0.25, -0.25]), np.array([0.1, 0.3])),
}


def pinned_kernel(name, forest):
    return {
        "laplace": laplace(0.9, [2.0, 1.0, 0.5]),
        "breiman": partial(breiman_kernel, leaves=16),
        "forest": forest.proximity_many,
    }[name]


class TestDerivativeReport:
    def test_constant_kernel_is_flat(self):
        rep = derivative_report(const, np.zeros(3), 0.25)
        np.testing.assert_array_equal(rep.left, 0.0)
        np.testing.assert_array_equal(rep.right, 0.0)

    def test_laplace_closed_form(self):
        # one-sided difference of exp(-lam * w_j * |t|) at the center:
        # (exp(-lam * w_j * h) - 1) / h for both signs
        lam, w, h = 1.0, 1.0, 0.25
        expected = (np.exp(-lam * w * h) - 1.0) / h
        rep = derivative_report(laplace(lam, [w, w]), np.array([0.4, -0.2]), h)
        np.testing.assert_allclose(rep.right, expected)
        np.testing.assert_allclose(rep.left, expected)
        assert rep.right[0] == pytest.approx(-0.88479, abs=1e-4)

    def test_weighted_coordinates_scale_decay(self):
        rep = derivative_report(laplace(2.0, [5.0, 1.0]), np.zeros(2), 0.1)
        steep, shallow = rep.right
        assert steep < shallow < 0

    def test_one_sided_decay_is_nonpositive_for_closed_forms(self):
        spec = NaiveKernelSpec(leaves=16, strong=1, weak=1, mtry=1)
        x0 = np.array([0.5, 0.5])
        kernels = [
            laplace(0.7, [0.3, 0.7]),
            partial(breiman_kernel, leaves=16),
            lambda Z, z: naive_kernel(spec, np.abs(Z - z)),
        ]
        for k in kernels:
            rep = derivative_report(k, x0, 0.2)
            assert (rep.left <= 0.0).all() and (rep.right <= 0.0).all()

    def test_shapes_and_scalar_step(self):
        k = laplace(1.0, [0.5, 0.5])
        rep = derivative_report(k, np.zeros(2), 0.25)
        assert rep.left.shape == (2,) and rep.right.shape == (2,)
        np.testing.assert_allclose(rep.steps, 0.25)
        assert rep.magnitude.shape == (2,)

    def test_per_coordinate_steps(self):
        k = laplace(1.0, [0.5, 0.5])
        rep = derivative_report(k, np.zeros(2), [0.1, 0.4])
        np.testing.assert_allclose(rep.steps, [0.1, 0.4])

    def test_consistent_with_pointwise_calls(self):
        k = laplace(0.9, [2.0, 1.0])
        x0 = np.array([0.2, -0.1])
        rep = derivative_report(k, x0, 0.25)
        for j in (0, 1):
            assert rep.right[j] == one_sided(k, x0, j, +1, 0.25)
            assert rep.left[j] == one_sided(k, x0, j, -1, 0.25)

    @pytest.mark.parametrize("steps", [0.0, -0.1, np.nan, np.inf, -np.inf, [0.1, np.nan]])
    def test_rejects_steps_not_finite_and_positive(self, steps):
        with pytest.raises(ValueError, match="steps must be finite and > 0"):
            derivative_report(const, np.zeros(2), steps)

    @pytest.mark.parametrize("j, bad", [(0, np.nan), (1, np.inf), (1, -np.inf)])
    def test_rejects_non_finite_center(self, j, bad):
        x0 = np.zeros(2)
        x0[j] = bad
        refused_quietly(lambda: derivative_report(never_called, x0, 0.1),
                        rf"center must be finite, got {bad} at coordinate {j}")

    @pytest.mark.parametrize("x0, steps, j", [
        ([1.7e308, 0.0], 1e308, 0),
        ([0.0, -1.7e308], 1e308, 1),
        ([0.0, -1e308], [0.1, 0.8e308], 1),
    ])
    def test_rejects_a_step_whose_probe_overflows(self, x0, steps, j):
        x0 = np.array(x0)
        refused_quietly(lambda: derivative_report(never_called, x0, steps),
                        rf"steps must keep center \+- step finite, got .* at coordinate {j}")

    def test_probes_over_the_cap_refused_before_any_call(self, monkeypatch):
        # 2p + 1 float64 probe rows of p coordinates against
        # data_model.MAX_REQUEST_BYTES, read at each call
        refused_quietly(
            lambda: derivative_report(never_called, np.zeros(4096), 0.1),
            "8193 probes of 4096 coordinates need 268468224 bytes, over the cap of 268435456",
        )
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 8 * 11 * 5)
        assert derivative_report(const, np.zeros(5), 0.1).left.shape == (5,)
        refused_quietly(
            lambda: derivative_report(never_called, np.zeros(6), 0.1),
            "13 probes of 6 coordinates need 624 bytes, over the cap of 440",
        )

    def test_center_evaluated_once(self):
        # one kernel call on 2p + 1 rows: x0, then x0 + h_j e_j, then x0 - h_j e_j
        k = laplace(0.7, [2.0, 1.0, 0.5, 0.0])
        calls = []

        def counting(Z, z):
            calls.append(Z.copy())
            return k(Z, z)

        x0 = np.array([0.3, -0.2, 0.1, 0.0])
        h = np.array([0.25, 0.1, 0.4, 0.2])
        rep = derivative_report(counting, x0, h)
        assert len(calls) == 1
        Z = calls[0]
        assert Z.shape == (2 * x0.size + 1, x0.size)
        np.testing.assert_array_equal(Z[0], x0)
        np.testing.assert_array_equal(Z[1:5], x0 + np.diag(h))
        np.testing.assert_array_equal(Z[5:], x0 - np.diag(h))
        assert sum(np.array_equal(x, x0) for x in Z) == 1
        for j in range(x0.size):
            assert rep.right[j] == one_sided(k, x0, j, +1, h[j])
            assert rep.left[j] == one_sided(k, x0, j, -1, h[j])

    # (left, right) for each PIN_INPUTS entry
    PINNED = {
        "laplace": (
            [-1.4494873935129067, -0.8606881472877181, -0.41182447147182],
            [-1.4494873935129071, -0.8606881472877181, -0.41182447147182],
        ),
        "breiman": ([-0.8438105192860612] * 3, [-0.8438105192860612] * 3),
        "forest": (
            [-1.6666666666666663, -1.8888888888888888],
            [-1.333333333333333, -2.8888888888888893],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_outputs(self, name, small_forest):
        x0, h = PIN_INPUTS[name]
        rep = derivative_report(pinned_kernel(name, small_forest), x0, h)
        left, right = self.PINNED[name]
        np.testing.assert_array_equal(rep.left, left)
        np.testing.assert_array_equal(rep.right, right)


class TestKernelGrid:
    def test_center_cell_is_one(self):
        k = laplace(1.0, [0.5, 0.5])
        grid = kernel_grid(k, np.zeros(2), (0, 1), 11, ((-1, 1), (-1, 1)))
        # resolution 11 over [-1, 1] puts a grid point exactly at the center
        assert grid.values[5, 5] == pytest.approx(1.0)

    def test_symmetric_kernel_symmetric_grid(self):
        k = partial(breiman_kernel, leaves=32)
        grid = kernel_grid(k, np.zeros(2), (0, 1), 21, ((-1, 1), (-1, 1)))
        np.testing.assert_allclose(grid.values, grid.values[::-1, :], atol=1e-12)
        np.testing.assert_allclose(grid.values, grid.values[:, ::-1], atol=1e-12)
        np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-12)

    def test_non_plotted_coordinates_pinned(self):
        # a kernel reading a third coordinate sees the center's value there
        seen = []

        def probe(Z, z):
            seen.extend(Z[:, 2].tolist())
            return np.ones(len(Z))

        x0 = np.array([0.0, 0.0, 0.77])
        kernel_grid(probe, x0, (0, 1), 3, ((-1, 1), (-1, 1)))
        assert set(seen) == {0.77}

    def test_one_call_per_axis_i_value(self):
        # r calls of r rows each: row b of call a is (axis_i[a], axis_j[b])
        k = laplace(1.0, [0.5, 0.5, 0.5])
        calls = []

        def counting(Z, z):
            calls.append(Z.copy())
            return k(Z, z)

        x0 = np.array([0.1, 0.2, 0.3])
        grid = kernel_grid(counting, x0, (2, 0), 7, ((-1, 1), (-2, 2)))
        assert len(calls) == 7
        for a, Z in enumerate(calls):
            assert Z.shape == (7, 3)
            np.testing.assert_array_equal(Z[:, 2], grid.axis_i[a])
            np.testing.assert_array_equal(Z[:, 0], grid.axis_j)
            np.testing.assert_array_equal(Z[:, 1], x0[1])
            np.testing.assert_array_equal(grid.values[a], k(Z, x0))

    def test_axis_orientation(self):
        # weight 5 on coordinate 0 shrinks the half-max span along axis_i
        k = laplace(2.0, [5.0, 1.0])
        grid = kernel_grid(k, np.zeros(2), (0, 1), 41, ((-1, 1), (-1, 1)))
        span_i, span_j = half_max_spans(grid)
        assert span_i < span_j

    def test_validation(self):
        k = laplace(1.0, [0.5, 0.5])
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 0), 5, ((-1, 1), (-1, 1)))
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 1), 1, ((-1, 1), (-1, 1)))
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 3), 5, ((-1, 1), (-1, 1)))

    @pytest.mark.parametrize("dims, resolution, message", [
        ((0, 1), 2.5, "resolution must be an integer, got 2.5"),
        ((0, 1), True, "resolution must be an integer, got True"),
        ((0.5, 1), 5, "dims must be an integer, got 0.5"),
        ((0, 1.0), 5, "dims must be an integer, got 1.0"),
    ])
    def test_rejects_non_integer_counts(self, dims, resolution, message):
        with pytest.raises(TypeError, match=message):
            kernel_grid(never_called, np.zeros(2), dims, resolution, ((-1, 1), (-1, 1)))

    def test_resolution_over_the_matrix_cap_refused_before_any_call(self, monkeypatch):
        # 8 r (r + p) bytes of values and probes against
        # data_model.MAX_REQUEST_BYTES, read at each call
        refused_quietly(
            lambda: kernel_grid(never_called, np.zeros(2), (0, 1), 5792, ((-1, 1), (-1, 1))),
            "resolution 5792 needs 268470784 bytes, over the cap of 268435456",
        )
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 8 * 5 * 7)
        assert kernel_grid(const, np.zeros(2), (0, 1), 5, ((-1, 1), (-1, 1))).values.shape == (5, 5)
        refused_quietly(
            lambda: kernel_grid(never_called, np.zeros(2), (0, 1), 6, ((-1, 1), (-1, 1))),
            "resolution 6 needs 384 bytes, over the cap of 280",
        )
        # the probes count: 5 rows of 40 coordinates hold 1,600 more bytes
        refused_quietly(
            lambda: kernel_grid(never_called, np.zeros(40), (0, 1), 5, ((-1, 1), (-1, 1))),
            "resolution 5 needs 1800 bytes, over the cap of 280",
        )

    @pytest.mark.parametrize("at, bad", [(0, np.nan), (1, np.inf), (2, -np.inf), (3, np.nan)])
    def test_rejects_non_finite_bounds(self, at, bad):
        bounds = [-1.0, 1.0, -1.0, 1.0]
        bounds[at] = bad
        with pytest.raises(ValueError, match="bounds must be finite"):
            kernel_grid(const, np.zeros(2), (0, 1), 5, (bounds[:2], bounds[2:]))

    @pytest.mark.parametrize("j, bad", [(0, np.nan), (1, np.inf)])
    def test_rejects_non_finite_center(self, j, bad):
        x0 = np.zeros(2)
        x0[j] = bad
        refused_quietly(lambda: kernel_grid(never_called, x0, (0, 1), 5, ((-1, 1), (-1, 1))),
                        rf"center must be finite, got {bad} at coordinate {j}")

    @pytest.mark.parametrize("bounds", [
        ((-1e308, 1.7e308), (-1, 1)),
        ((-1, 1), (1.7e308, -1.7e308)),
    ])
    def test_rejects_an_axis_that_overflows(self, bounds):
        refused_quietly(lambda: kernel_grid(never_called, np.zeros(2), (0, 1), 5, bounds),
                        "span more than the finite range")

    PINNED = {
        "laplace": [
            0.11532512103806246, 0.20240189074236176, 0.3552263809249515, 0.3800319313209641,
            0.216535667316007, 0.18086579261712205, 0.3174293516174957, 0.5571058618121739,
            0.596008708766031, 0.3395955256449391, 0.19789869908361465, 0.3473230334330827,
            0.6095709072963093, 0.6521374019961392, 0.37157669102204566, 0.12618578170503877,
            0.22146294382360393, 0.3886795709017531, 0.4158211662382236, 0.2369277586821217,
            0.08045960674953243, 0.1412110075229612, 0.2478330363672288, 0.2651392816336886,
            0.15107180883637084,
        ],
        "breiman": [
            0.10881882041201553, 0.14525569836972999, 0.19389309522921686, 0.25881623096034445,
            0.2176376408240311, 0.17273910999597206, 0.23057904839648485, 0.3077861033362291,
            0.41084515729289517, 0.34547821999194406, 0.27420624492365653, 0.3660214239864064,
            0.48857998421712295, 0.6521760348827822, 0.5484124898473131, 0.36181730936009454,
            0.4829681644624228, 0.6446851542197897, 0.86055143724433, 0.7236346187201891,
            0.22793062213955423, 0.30425087841764775, 0.4061261981781178, 0.5421134351507092,
            0.45586124427910846,
        ],
        # multiples of 1/30 for the 30-tree forest
        "forest": np.array([
            [1, 1, 1, 0, 0],
            [8, 9, 1, 0, 0],
            [5, 6, 2, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]) / 30,
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_outputs(self, name, small_forest):
        x0, _ = PIN_INPUTS[name]
        k = pinned_kernel(name, small_forest)
        grid = kernel_grid(k, x0, (1, 0), 5, ((-1, 1), (-0.5, 0.75)))
        np.testing.assert_array_equal(grid.values.ravel(), np.ravel(self.PINNED[name]))


class TestForestKernelShape:
    def test_kinked_model_level_set_narrower_along_dominant_coordinate(self):
        # left of the structural break the class probability leans on x1,
        # so the forest kernel's half-max region is narrower along x1
        d = sample(get_model("kinked"), 2000, seed=41)
        f = train_forest(
            d,
            ForestParams(
                n_trees=200, tree=TreeParams(mtry=2, min_node_size=1, bootstrap=True), seed=42
            ),
        )
        grid = kernel_grid(
            f.proximity_many, np.array([-0.25, -0.25]), (0, 1), 41, ((-1, 1), (-1, 1))
        )
        span_i, span_j = half_max_spans(grid)
        assert span_i < span_j


class TestProbHistogram:
    def test_point_mass_at_half(self):
        counts = prob_histogram(np.full(25, 0.5), 10)
        assert counts[5] == 25
        assert counts.sum() == 25

    def test_last_bin_right_closed(self):
        counts = prob_histogram(np.array([1.0, 1.0, 0.999]), 10)
        assert counts[9] == 3

    def test_bin_edges_left_closed(self):
        counts = prob_histogram(np.array([0.3, 0.7]), 10)
        assert counts[3] == 1 and counts[7] == 1

    @settings(max_examples=40, deadline=None)
    @given(
        preds=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
        ),
        n_bins=st.integers(min_value=1, max_value=31),
    )
    def test_counts_sum_to_input_length(self, preds, n_bins):
        counts = prob_histogram(np.array(preds), n_bins)
        assert counts.sum() == len(preds)
        assert (counts >= 0).all()
        assert len(counts) == n_bins

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prob_histogram(np.array([]), 10)

    @pytest.mark.parametrize("n_bins", [2.5, 10.0, True, "10"])
    def test_non_integer_bin_count_named(self, n_bins):
        with pytest.raises(TypeError, match=f"n_bins must be an integer, got {n_bins!r}"):
            prob_histogram(np.array([0.5]), n_bins)

    @pytest.mark.parametrize("preds", [[0.5, 1.2], [0.2, np.nan]])
    def test_out_of_range_rejected(self, preds):
        with pytest.raises(ValueError, match=r"predictions must lie in \[0, 1\]"):
            prob_histogram(np.array(preds), 10)
