from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox.diagnostics import (
    KernelGrid,
    derivative_report,
    directional_derivative,
    half_max_extent,
    kernel_grid,
    prob_histogram,
)
from forestprox.kernel_lab import LaplaceKernel, breiman_kernel


def laplace(bandwidth, weights):
    return LaplaceKernel(bandwidth, np.asarray(weights, dtype=np.float64))


def const(Z, z):
    return np.ones(len(Z))


class TestDirectionalDerivative:
    def test_constant_kernel_is_flat(self):
        for sign in (1, -1):
            assert directional_derivative(const, np.zeros(3), 0, sign, 0.25) == 0.0

    def test_laplace_closed_form(self):
        # one-sided difference of exp(-lam * w_j * |t|) at the center:
        # (exp(-lam * w_j * h) - 1) / h for both signs
        lam, w, h = 1.0, 1.0, 0.25
        k = laplace(lam, [w, w])
        expected = (np.exp(-lam * w * h) - 1.0) / h
        x0 = np.array([0.4, -0.2])
        right = directional_derivative(k, x0, 0, +1, h)
        left = directional_derivative(k, x0, 0, -1, h)
        assert right == pytest.approx(expected)
        assert left == pytest.approx(expected)
        assert right == pytest.approx(-0.88479, abs=1e-4)

    def test_weighted_coordinates_scale_decay(self):
        k = laplace(2.0, [5.0, 1.0])
        x0 = np.zeros(2)
        steep = directional_derivative(k, x0, 0, +1, 0.1)
        shallow = directional_derivative(k, x0, 1, +1, 0.1)
        assert steep < shallow < 0

    def test_one_sided_decay_is_nonpositive_for_closed_forms(self):
        from forestprox.kernel_lab import NaiveKernelSpec, naive_kernel

        spec = NaiveKernelSpec(leaves=16, strong=1, weak=1, mtry=1)
        x0 = np.array([0.5, 0.5])
        kernels = [
            laplace(0.7, [0.3, 0.7]),
            partial(breiman_kernel, leaves=16),
            lambda Z, z: naive_kernel(spec, np.abs(Z - z), [0]),
        ]
        for k in kernels:
            for j in (0, 1):
                for sign in (1, -1):
                    assert directional_derivative(k, x0, j, sign, 0.2) <= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            directional_derivative(const, np.zeros(2), 0, +1, 0.0)
        with pytest.raises(ValueError):
            directional_derivative(const, np.zeros(2), 0, 2, 0.1)
        with pytest.raises(ValueError):
            directional_derivative(const, np.zeros(2), 5, 1, 0.1)


class TestDerivativeReport:
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
            assert rep.right[j] == directional_derivative(k, x0, j, +1, 0.25)
            assert rep.left[j] == directional_derivative(k, x0, j, -1, 0.25)

    def test_rejects_nonpositive_steps(self):
        k = laplace(1.0, [1.0])
        with pytest.raises(ValueError):
            derivative_report(k, np.zeros(1), 0.0)

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
            assert rep.right[j] == directional_derivative(k, x0, j, +1, h[j])
            assert rep.left[j] == directional_derivative(k, x0, j, -1, h[j])


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
        assert half_max_extent(grid, 0) < half_max_extent(grid, 1)

    def test_validation(self):
        k = laplace(1.0, [0.5, 0.5])
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 0), 5, ((-1, 1), (-1, 1)))
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 1), 1, ((-1, 1), (-1, 1)))
        with pytest.raises(ValueError):
            kernel_grid(k, np.zeros(2), (0, 3), 5, ((-1, 1), (-1, 1)))


class TestForestKernelShape:
    def test_kinked_model_level_set_narrower_along_dominant_coordinate(self):
        # left of the structural break the class probability leans on x1,
        # so the forest kernel's half-max region is narrower along x1
        from forestprox.forest import ForestParams, train_forest
        from forestprox.synthgen import get_model, sample
        from forestprox.tree import TreeParams

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
        assert half_max_extent(grid, 0) < half_max_extent(grid, 1)


class TestHalfMaxExtent:
    def test_hand_grid(self):
        values = np.zeros((5, 5))
        values[1:4, 2] = 1.0  # ridge three cells tall, one cell wide
        grid = KernelGrid(
            center=np.zeros(2),
            dims=(0, 1),
            axis_i=np.linspace(0, 4, 5),
            axis_j=np.linspace(0, 4, 5),
            values=values,
        )
        assert half_max_extent(grid, 0) == pytest.approx(2.0)
        assert half_max_extent(grid, 1) == pytest.approx(0.0)

    def test_axis_validation(self):
        grid = KernelGrid(np.zeros(2), (0, 1), np.arange(3.0), np.arange(3.0), np.ones((3, 3)))
        with pytest.raises(ValueError):
            half_max_extent(grid, 2)


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

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            prob_histogram(np.array([0.5, 1.2]), 10)
