import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction
from functools import partial
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestprox import data_model
from forestprox import kernel_lab
from forestprox.data_model import Dataset
from forestprox.kernel_lab import (
    NaiveKernelSpec,
    bandwidth_sweep,
    breiman_kernel,
    mc_proximity,
    mc_selection_freq,
    naive_kernel,
    strong_weak_weights,
)
from forestprox.synthgen import get_model, sample


def exact_single_coord_kernel(leaves: int, x: float) -> float:
    """Exact origin-cell co-occupancy when every split of the origin cell
    lands on one fixed coordinate (the S=1, W=1, mtry=2 family).

    The cut count K is a sum of Bernoulli(1/m) draws, m = 1..leaves-1
    (Poisson-binomial, computed by dynamic programming); given k cuts the
    survival probability is 1 - x * sum_{i<k} (-log x)^i / i!.
    """
    probs = np.zeros(leaves)
    probs[0] = 1.0
    for m in range(1, leaves):
        q = 1.0 / m
        probs[1:] = probs[1:] * (1 - q) + probs[:-1] * q
        probs[0] *= 1 - q
    w = -np.log(x)
    surv = np.empty(leaves)
    partial, term = 0.0, 1.0
    for k in range(leaves):
        surv[k] = 1.0 - x * partial
        partial += term
        term *= w / (k + 1)
    return float(probs @ surv)


def loop_strong_weight(spec, use_printed_coefficient=False):
    """p_S as the paper's sum over k strong candidates, in floats, one
    term at a time: the reference for `strong_weak_weights`' closed form."""
    S, W, mtry, p = spec.strong, spec.weak, spec.mtry, spec.p
    shift = 1 if use_printed_coefficient else 0
    p_s = 0.0
    if S >= 1:
        denom_all = comb(p, mtry)
        for k in range(1, min(S, mtry) + 1):
            w_take = mtry - k + shift
            if w_take > W:
                continue
            p_s += comb(S - 1, k - 1) * comb(W, w_take) / (k * denom_all)
    return p_s


def exact_weights(S, W, mtry, shift):
    """The same sum in exact rationals, over the common denominator
    lcm(1..min(S, mtry)) * C(p, mtry)."""
    ks = range(1, min(S, mtry) + 1)
    L = lcm(*ks)
    num = sum(comb(S - 1, k - 1) * comb(W, mtry - k + shift) * (L // k) for k in ks)
    denom = L * comb(S + W, mtry)
    p_s = Fraction(num, denom)
    p_w = Fraction(denom - S * num, W * denom) if W else Fraction(0)
    return p_s, p_w


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_split_coords(rng, spec, k):
    """`_split_coords` as one (k, p) key draw and one (k, p) pick draw:
    the reference its row blocks must reproduce."""
    p, S, mtry = spec.p, spec.strong, spec.mtry
    members = np.argpartition(rng.random((k, p)), mtry - 1, axis=1)[:, :mtry]
    outside = np.ones((k, p), dtype=bool)
    outside[np.arange(k)[:, None], members] = False
    pick = rng.random((k, p))
    outside[~outside[:, :S].all(axis=1), S:] = True
    pick[outside] = np.inf
    return pick.argmin(axis=1)


def reference_extents(spec, n_trees, seed):
    """The origin cell's (n_trees, p) upper edges, simulated on a dense
    array updated in place: the reference `_origin_cuts` must reproduce,
    draw for draw and bit for bit."""
    rng = np.random.default_rng(seed)
    hi = np.ones((n_trees, spec.p))
    for m in range(1, spec.leaves):
        sel = np.flatnonzero(rng.random(n_trees) < 1.0 / m)
        if sel.size == 0:
            continue
        coord = kernel_lab._split_coords(rng, spec, sel.size)
        cuts = rng.random(sel.size) * hi[sel, coord]
        hi[sel, coord] = cuts
    return hi


def dense_extents(spec, n_trees, seed):
    """`_origin_cuts` written out as (n_trees, p) upper edges, 1 where no
    cut fell."""
    tree, coord, hi = kernel_lab._origin_cuts(spec, n_trees, seed)
    dense = np.ones((n_trees, spec.p))
    dense[tree, coord] = hi
    return dense


class EighthsGenerator:
    """A generator whose doubles are cut down to eighths, floor(8 u) / 8:
    exact, still in [0, 1), and so coarse that most rows of keys tie at
    their mtry-th smallest value. Its state is the wrapped generator's."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        np.floor(u * 8, out=u)
        u /= 8
        return u


# every (S, W, mtry) with S <= 12, W <= 60 and p >= 1: 28,548 cells
WEIGHT_GRID = [
    (S, W, m) for S in range(13) for W in range(61) for m in range(1, S + W + 1)
]


class TestStrongWeakWeights:
    def test_correctly_rounded_exact_rationals(self):
        assert len(WEIGHT_GRID) == 28_548
        for S, W, m in WEIGHT_GRID:
            got = strong_weak_weights(NaiveKernelSpec(2, S, W, m))
            want = tuple(float(v) for v in exact_weights(S, W, m, 0))
            assert got == want, (S, W, m)

    def test_strong_weight_matches_loop_reference(self):
        for S, W, m in WEIGHT_GRID:
            spec = NaiveKernelSpec(2, S, W, m)
            got = strong_weak_weights(spec)[0]
            want = loop_strong_weight(spec)
            assert abs(got - want) <= 1e-15 * abs(want), (S, W, m)

    def test_printed_coefficient_counts_a_in_closed_form(self):
        # the paper's printed C(W, m-k+1) sums, over k <= min(S, m), to
        # A / (S C(p, m)) with A = C(p, m+1) - C(W, m+1) - C(S, m+1)
        for S, W, m in WEIGHT_GRID:
            if S == 0:
                continue
            p = S + W
            A = comb(p, m + 1) - comb(W, m + 1) - comb(S, m + 1)
            p_s, p_w = exact_weights(S, W, m, 1)
            assert p_s == Fraction(A, S * comb(p, m)), (S, W, m)
            if W:
                assert p_w == Fraction(comb(p, m) - A, W * comb(p, m)), (S, W, m)
            spec = NaiveKernelSpec(2, S, W, m)
            want = loop_strong_weight(spec, use_printed_coefficient=True)
            assert abs(float(p_s) - want) <= 1e-15 * abs(want), (S, W, m)

    def test_weak_weight_exactly_zero_once_noise_is_crowded_out(self):
        # mtry > W: every draw holds a strong coordinate
        for S, W, m in WEIGHT_GRID:
            if m > W:
                assert strong_weak_weights(NaiveKernelSpec(2, S, W, m))[1] == 0.0, (S, W, m)

    def test_strong_always_present(self):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=2)
        assert strong_weak_weights(spec) == (1.0, 0.0)

    def test_fifty_fifty(self):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=1)
        p_s, p_w = strong_weak_weights(spec)
        assert p_s == pytest.approx(0.5)
        assert p_w == pytest.approx(0.5)

    def test_all_strong_gives_uniform_share(self):
        for mtry in (1, 2, 3, 4):
            spec = NaiveKernelSpec(leaves=2, strong=4, weak=0, mtry=mtry)
            p_s, p_w = strong_weak_weights(spec)
            assert p_s == pytest.approx(0.25)
            assert p_w == 0.0

    def test_printed_coefficient_breaks_all_strong_limit(self):
        # the off-by-one variant selects mtry+1 items and zeroes out at W=0
        spec = NaiveKernelSpec(leaves=2, strong=4, weak=0, mtry=2)
        assert loop_strong_weight(spec, use_printed_coefficient=True) == 0.0
        assert strong_weak_weights(spec)[0] == 0.25

    def test_printed_coefficient_yields_negative_weak_weight(self):
        spec = NaiveKernelSpec(leaves=2, strong=5, weak=45, mtry=10)
        _, p_w = exact_weights(5, 45, 10, 1)
        assert p_w < 0  # not a probability; the corrected form stays valid
        assert strong_weak_weights(spec)[1] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        strong=st.integers(min_value=0, max_value=12),
        weak=st.integers(min_value=0, max_value=12),
        mtry=st.integers(min_value=1, max_value=24),
    )
    def test_selection_probabilities_sum_to_one(self, strong, weak, mtry):
        p = strong + weak
        if p < 1 or mtry > p:
            return
        spec = NaiveKernelSpec(leaves=2, strong=strong, weak=weak, mtry=mtry)
        p_s, p_w = strong_weak_weights(spec)
        assert strong * p_s + weak * p_w == pytest.approx(1.0)
        # preference for strong coordinates, up to float rounding at the
        # mtry=1 equality point
        assert p_w >= 0.0
        assert p_w <= p_s + 1e-12 or strong == 0

    def test_monotone_in_mtry_and_limit(self):
        for S, W in ((1, 1), (5, 5), (5, 45), (5, 85), (1, 85)):
            p = S + W
            ps_vals, pw_vals = [], []
            for m in range(1, p + 1):
                p_s, p_w = strong_weak_weights(NaiveKernelSpec(2, S, W, m))
                ps_vals.append(p_s)
                pw_vals.append(p_w)
            assert all(b >= a - 1e-15 for a, b in zip(ps_vals, ps_vals[1:]))
            assert all(b <= a + 1e-15 for a, b in zip(pw_vals, pw_vals[1:]))
            assert ps_vals[-1] == pytest.approx(1.0 / S)
            assert pw_vals[-1] == pytest.approx(0.0, abs=1e-12)

    def test_strictly_increasing_until_noise_crowded_out(self):
        # once mtry > W every draw contains a strong variable, so p_S sits
        # at its 1/S limit; below that the increase is strict
        S, W = 5, 45
        ps_vals = [
            strong_weak_weights(NaiveKernelSpec(2, S, W, m))[0]
            for m in range(1, S + W + 1)
        ]
        strict_part = ps_vals[: W + 1]
        assert all(b > a for a, b in zip(strict_part, strict_part[1:]))
        for value in ps_vals[W:]:
            assert value == pytest.approx(1.0 / S)


class TestMcSelectionFreq:
    def test_deterministic_selection(self):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=2)
        freq = mc_selection_freq(spec, trials=10_000, seed=0)
        assert freq[0] == 1.0
        assert freq[1] == 0.0

    def test_all_strong_uniform(self):
        spec = NaiveKernelSpec(leaves=2, strong=6, weak=0, mtry=3)
        trials = 60_000
        freq = mc_selection_freq(spec, trials=trials, seed=1)
        sigma = np.sqrt((1 / 6) * (5 / 6) / trials)
        np.testing.assert_allclose(freq, 1 / 6, atol=3 * sigma)

    def test_matches_analytic_weights(self):
        trials = 100_000
        for S, W, mtry in ((5, 45, 10), (1, 5, 3), (5, 5, 4), (2, 8, 2)):
            spec = NaiveKernelSpec(leaves=2, strong=S, weak=W, mtry=mtry)
            freq = mc_selection_freq(spec, trials=trials, seed=13)
            p_s, p_w = strong_weak_weights(spec)
            # class totals are binomial counts
            s_hat = freq[:S].sum()
            sigma_s = np.sqrt(S * p_s * (1 - S * p_s) / trials)
            assert abs(s_hat - S * p_s) <= 3 * sigma_s + 1e-12
            if W:
                w_hat = freq[S:].sum()
                sigma_w = np.sqrt(W * p_w * (1 - W * p_w) / trials)
                assert abs(w_hat - W * p_w) <= 3 * sigma_w + 1e-12

    @pytest.mark.parametrize("trials, error, message", [
        (True, TypeError, "trials must be an integer, got True"),
        (2.0, TypeError, "trials must be an integer, got 2.0"),
        (0, ValueError, "trials must be >= 1, got 0"),
    ])
    def test_trials_must_be_a_positive_integer(self, trials, error, message):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=1)
        with pytest.raises(error, match=message):
            mc_selection_freq(spec, trials, 0)

    def test_memory_at_100000_trials(self):
        # passes of 20,000 nodes at p = 50, drawn in row blocks: about 4 MB
        spec = NaiveKernelSpec(32, 5, 45, 15)
        assert traced_peak(mc_selection_freq, spec, 100_000, 0) <= 8e6

    def test_frequencies_sum_to_one(self):
        spec = NaiveKernelSpec(leaves=2, strong=3, weak=7, mtry=4)
        freq = mc_selection_freq(spec, trials=5000, seed=3)
        assert freq.sum() == pytest.approx(1.0)

    def test_simulated_curve_shape_many_noise_variables(self):
        # strong frequency climbs with mtry, weak frequency falls; the
        # analytic gaps between these mtry values dwarf simulation noise
        strong_freqs, weak_freqs = [], []
        for mtry in (1, 10, 20, 40):
            spec = NaiveKernelSpec(leaves=2, strong=5, weak=85, mtry=mtry)
            freq = mc_selection_freq(spec, trials=100_000, seed=mtry)
            strong_freqs.append(freq[:5].mean())
            weak_freqs.append(freq[5:].mean())
        assert all(b > a for a, b in zip(strong_freqs, strong_freqs[1:]))
        assert all(b < a for a, b in zip(weak_freqs, weak_freqs[1:]))


def naive_row(spec, x, strong_set):
    """Per-row reference for naive_kernel: the closed form on one point."""
    mask = np.zeros(spec.p, dtype=bool)
    mask[list(strong_set)] = True
    p_s, p_w = strong_weak_weights(spec)
    return float(np.exp(-np.log(spec.leaves) * (p_s * x[mask].sum() + p_w * x[~mask].sum())))


def breiman_row(x, z, leaves):
    """Per-row reference for breiman_kernel."""
    return float(np.exp(-(np.log(leaves) / x.size) * np.abs(x - z).sum()))


class TestNaiveKernel:
    def test_at_origin(self):
        spec = NaiveKernelSpec(leaves=32, strong=2, weak=3, mtry=2)
        np.testing.assert_array_equal(naive_kernel(spec, np.zeros((1, 5))), [1.0])

    def test_single_leaf_tree_is_flat(self):
        spec = NaiveKernelSpec(leaves=1, strong=2, weak=3, mtry=2)
        x = np.array([[0.4, 0.2, 0.9, 0.1, 0.5]])
        np.testing.assert_array_equal(naive_kernel(spec, x), [1.0])

    def test_weak_coordinate_ignored_when_strong_always_chosen(self):
        spec = NaiveKernelSpec(leaves=32, strong=1, weak=1, mtry=2)
        X = np.array([[0.25, x2] for x2 in (0.0, 0.4, 0.9)])
        for val in naive_kernel(spec, X):
            assert val == pytest.approx(np.exp(-np.log(32) * 0.25))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(leaves=32.5), "leaves must be an integer"),
            (dict(strong=True), "strong must be an integer"),
            (dict(weak=2.0), "weak must be an integer"),
            (dict(mtry=2.0), "mtry must be an integer"),
        ],
    )
    def test_spec_fields_must_be_integers(self, fields, message):
        with pytest.raises(TypeError, match=message):
            NaiveKernelSpec(**{**dict(leaves=32, strong=1, weak=2, mtry=2), **fields})

    @pytest.mark.parametrize(
        "fields",
        [
            dict(leaves=0), dict(strong=-1), dict(weak=-1), dict(strong=0, weak=0),
            dict(mtry=0), dict(mtry=4),
        ],
    )
    def test_spec_ranges(self, fields):
        with pytest.raises(ValueError):
            NaiveKernelSpec(**{**dict(leaves=32, strong=1, weak=2, mtry=2), **fields})

    def test_rejects_bad_inputs(self):
        spec = NaiveKernelSpec(leaves=4, strong=1, weak=1, mtry=1)
        with pytest.raises(ValueError):
            naive_kernel(spec, np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            naive_kernel(spec, np.array([[0.5]]))
        with pytest.raises(ValueError):
            naive_kernel(spec, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            naive_kernel(spec, np.array([[0.5, np.nan]]))

    # sums over 8 or more coordinates show a change of summation order
    @pytest.mark.parametrize(
        "S, W, mtry, strong_set",
        [
            (5, 45, 1, range(5)),
            (0, 40, 20, []),
            (12, 0, 6, range(12)),
            (9, 30, 3, [2, 8, 10, 33, 1, 5, 6, 7, 20]),
            (1, 1, 1, [1]),
        ],
    )
    def test_rows_bit_identical_to_per_row_formula(self, S, W, mtry, strong_set):
        # another strong set is the first S columns of a column permutation
        rng = np.random.default_rng(S * 100 + W)
        spec = NaiveKernelSpec(32, S, W, mtry)
        X = rng.random((40, S + W))
        strong = sorted(strong_set)
        order = np.r_[strong, np.setdiff1d(np.arange(S + W), strong)].astype(np.intp)
        got = naive_kernel(spec, X[:, order])
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, [naive_row(spec, x, strong_set) for x in X])
        # a column-major input gives the same bits
        np.testing.assert_array_equal(naive_kernel(spec, np.asfortranarray(X[:, order])), got)


class TestMcProximity:
    def test_same_point_certain(self):
        spec = NaiveKernelSpec(leaves=16, strong=1, weak=1, mtry=1)
        np.testing.assert_array_equal(
            mc_proximity(spec, np.zeros((1, 2)), n_trees=500, seed=0), [1.0]
        )

    def test_single_leaf_certain(self):
        spec = NaiveKernelSpec(leaves=1, strong=1, weak=1, mtry=1)
        np.testing.assert_array_equal(
            mc_proximity(spec, np.array([[0.9, 0.9]]), n_trees=500, seed=0), [1.0]
        )

    def test_matches_exact_law_single_coordinate_family(self):
        # S=1, W=1, mtry=2: the origin cell only ever splits on the strong
        # coordinate, so the exact law is computable by dynamic programming
        trees = 60_000
        xs = (0.1, 0.3, 0.5)
        for leaves in (8, 32):
            spec = NaiveKernelSpec(leaves, 1, 1, 2)
            mcs = mc_proximity(spec, np.array([[x, 0.7] for x in xs]), n_trees=trees, seed=21)
            for x, mc in zip(xs, mcs):
                exact = exact_single_coord_kernel(leaves, x)
                sigma = np.sqrt(exact * (1 - exact) / trees)
                assert abs(mc - exact) <= 4 * sigma

    def test_closed_form_overshoots_at_high_cut_intensity(self):
        # at p_S = 1 the closed form badly overestimates co-occupancy: the
        # exact value at leaves=32, x_strong=0.1 is 0.2790, far from the
        # closed form's 0.7071
        spec = NaiveKernelSpec(32, 1, 1, 2)
        x = np.array([[0.1, 0.9]])
        exact = exact_single_coord_kernel(32, 0.1)
        assert exact == pytest.approx(0.27904, abs=1e-5)
        mc = mc_proximity(spec, x, n_trees=20_000, seed=11)[0]
        assert mc == pytest.approx(exact, abs=0.02)
        ana = naive_kernel(spec, x)[0]
        assert ana == pytest.approx(0.70711, abs=1e-5)
        assert ana - mc > 0.3

    def test_tracks_closed_form_at_low_cut_intensity(self):
        # the approximation's design regime: many coordinates, small
        # per-coordinate selection probability
        rng = np.random.default_rng(5)
        for S, W, mtry in ((5, 45, 5), (5, 85, 10)):
            spec = NaiveKernelSpec(32, S, W, mtry)
            p = S + W
            X = np.array([0.5 * rng.random() * rng.dirichlet(np.ones(p)) for _ in range(6)])
            ana = naive_kernel(spec, X)
            mc = mc_proximity(spec, X, n_trees=20_000, seed=9)
            assert np.mean(np.abs(ana - mc)) <= 0.05

    def test_permuted_columns_reach_another_strong_set(self):
        # values recorded when mc_proximity took strong_set=[4, 1] as an
        # argument: the same trees with columns 1 and 4 moved to the front
        rng = np.random.default_rng(8)
        spec = NaiveKernelSpec(16, 2, 4, 3)
        X = 0.4 * rng.random((12, 6))
        got = mc_proximity(spec, X[:, [1, 4, 0, 2, 3, 5]], n_trees=3000, seed=6)
        np.testing.assert_array_equal(got, [
            0.23666666666666666, 0.5273333333333333, 0.5493333333333333,
            0.39266666666666666, 0.47833333333333333, 0.6353333333333333,
            0.26966666666666667, 0.43533333333333335, 0.42833333333333334,
            0.39366666666666666, 0.5696666666666667, 0.399,
        ])

    def test_batch_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(8)
        spec = NaiveKernelSpec(16, 2, 4, 3)
        X = 0.4 * rng.random((12, 6))
        got = mc_proximity(spec, X, n_trees=3000, seed=6)
        assert got.shape == (12,)
        for i, x in enumerate(X):
            one = mc_proximity(spec, x[None], n_trees=3000, seed=6)
            np.testing.assert_array_equal(got[i : i + 1], one)

    def test_blocks_count_every_tree(self):
        # three blocks of trees + 5 (so the first growth step draws its
        # candidates in four blocks) against one broadcast compare of all
        # of them
        spec = NaiveKernelSpec(32, 5, 45, 15)
        trees = 3 * (kernel_lab._BLOCK_ELEMENTS // spec.p) + 5
        X = 0.03 * np.random.default_rng(2).random((4, spec.p))
        X[0] = 0.0
        hi = dense_extents(spec, trees, 6)
        want = (X[:, None, :] <= hi[None]).all(axis=2).mean(axis=1)
        np.testing.assert_array_equal(mc_proximity(spec, X, n_trees=trees, seed=6), want)

    @pytest.mark.parametrize("n_trees, error, message", [
        (True, TypeError, "n_trees must be an integer, got True"),
        (2.5, TypeError, "n_trees must be an integer, got 2.5"),
        (0, ValueError, "n_trees must be >= 1, got 0"),
    ])
    def test_n_trees_must_be_a_positive_integer(self, n_trees, error, message):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=1)
        with pytest.raises(error, match=message):
            mc_proximity(spec, np.zeros((1, 2)), n_trees=n_trees, seed=0)

    def test_negative_seed_named(self):
        spec = NaiveKernelSpec(leaves=2, strong=1, weak=1, mtry=1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc_proximity(spec, np.zeros((1, 2)), n_trees=1, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc_selection_freq(spec, 1, -1)

    def test_first_step_over_the_cap_refused(self, monkeypatch):
        # the cap is read at each call, and n_trees whose first growth step,
        # which cuts every tree, would hold more are refused before anything
        # is allocated
        spec = NaiveKernelSpec(2, 1, 1, 1)
        cap = kernel_lab._cut_list_bytes(100, 100, 2)
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", cap)
        assert mc_proximity(spec, np.zeros((1, 2)), n_trees=100, seed=0).tolist() == [1.0]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^100000 trees need 10297152 bytes, over the cap"):
                mc_proximity(spec, np.zeros((1, 2)), n_trees=10**5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_cut_list_over_the_cap_refused_as_it_is_drawn(self, monkeypatch):
        # step 1's 100 cuts fill the cap exactly; step 2 cuts 40 more trees,
        # counted before its candidates are drawn, so (spec, n_trees, seed)
        # decide the refusal and its message
        cap = kernel_lab._cut_list_bytes(100, 100, 1)
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", cap)
        X = np.zeros((1, 1))
        assert mc_proximity(NaiveKernelSpec(2, 1, 0, 1), X, n_trees=100, seed=0) == 1
        for _ in range(2):
            with pytest.raises(ValueError, match=(
                "^140 cuts on 100 trees need 11880 bytes, over the cap of 9700$"
            )):
                mc_proximity(NaiveKernelSpec(3, 1, 0, 1), X, n_trees=100, seed=0)

    def test_batch_memory_at_20000_trees(self):
        # 30 rows against the cuts of 20,000 trees: about 5 MB, set by the
        # first growth step's candidate draws and the sort of the cuts
        # (11.5-12.2 MB with a dense (20,000, 50) extents array)
        spec = NaiveKernelSpec(32, 5, 45, 15)
        X = np.tile(np.linspace(0.0, 0.02, 50), (30, 1))
        assert traced_peak(partial(mc_proximity, n_trees=20_000, seed=3), spec, X) <= 7e6

    def test_selection_work_over_the_matrix_cap_refused(self, monkeypatch):
        # leaves - 1 selection passes of n_trees draws, 8 bytes each, over
        # the cap (read at each call) are refused before the first draw
        monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", 8 * 100 * 99)
        spec = NaiveKernelSpec(100, 1, 1, 1)
        assert mc_proximity(spec, np.zeros((1, 2)), n_trees=100, seed=0).tolist() == [1.0]
        spec = NaiveKernelSpec(10**9, 1, 1, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                "^the selection draws of 1000000000 leaves on 1 trees need 7999999992 bytes, "
                "over the cap of 79200$"
            )):
                mc_proximity(spec, np.zeros((1, 2)), n_trees=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        with pytest.raises(ValueError, match=(
            "^the selection draws of 101 leaves on 100 trees need 80000 bytes"
        )):
            mc_proximity(NaiveKernelSpec(101, 1, 1, 1), np.zeros((1, 2)), n_trees=100, seed=0)

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(0, 1), (0, 4), (1, 0), (3, 0), (1, 1), (2, 3)]),
        leaves=st.sampled_from([1, 2, 3, 9]),
        mtry=st.sampled_from(["1", "p", "mid"]),
        n_trees=st.integers(1, 120),
        block_elements=st.sampled_from([1, 30, kernel_lab._BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_dense_extents_reference(
        self, shape, leaves, mtry, n_trees, block_elements, seed, data
    ):
        # any shape, S = 0 and W = 0 among them, at one leaf and two, and
        # probes holding 0, 1 and each coordinate of some tree's edge
        # exactly; a small block size spreads the first growth step's
        # candidate draws over many blocks
        S, W = shape
        spec = NaiveKernelSpec(leaves, S, W, {"1": 1, "p": S + W, "mid": (S + W + 1) // 2}[mtry])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel_lab, "_BLOCK_ELEMENTS", block_elements)
            hi = reference_extents(spec, n_trees, seed)
            assert dense_extents(spec, n_trees, seed).tobytes() == hi.tobytes()
            t = data.draw(st.integers(0, n_trees - 1))
            values = st.sampled_from([0.0, 1.0, *hi[t].tolist()]) | st.floats(0.0, 1.0)
            X = np.array(data.draw(st.lists(
                st.lists(values, min_size=spec.p, max_size=spec.p), min_size=1, max_size=6
            )))
            X = np.vstack([X, np.zeros(spec.p), np.ones(spec.p), hi[t]])
            want = np.count_nonzero((X[:, None, :] <= hi[None]).all(axis=2), axis=1) / n_trees
            got = mc_proximity(spec, X, n_trees=n_trees, seed=seed)
        np.testing.assert_array_equal(got, want)


class TestCandidateDraws:
    # Outputs of both simulators at fixed seeds, recorded before they
    # shared one candidate-draw routine: the draws, their order and the
    # chosen coordinates must not change.
    SPECS = (
        NaiveKernelSpec(32, 5, 45, 15),
        NaiveKernelSpec(16, 1, 3, 1),
        NaiveKernelSpec(8, 0, 4, 2),
        NaiveKernelSpec(10, 3, 0, 3),
    )
    SELECTION_COUNTS = (
        [479, 518, 517, 483, 529, 10, 4, 7, 11, 10, 11, 7, 5, 12, 13, 10, 14, 7, 14, 14,
         12, 13, 12, 10, 10, 10, 7, 8, 10, 7, 10, 14, 12, 9, 9, 17, 3, 7, 13, 17, 4, 10,
         15, 14, 11, 16, 4, 17, 11, 13],
        [762, 750, 701, 787],
        [788, 746, 736, 730],
        [1029, 939, 1032],
    )
    EXTENT_DIGESTS = (
        "fc6bc2558a4a692829538fc2bd5a7dbb35118d0095086a16f840f0dae0f7be9e",
        "1ec733d925d35178becfaa0645238fb9fd2f42ae65d1ad411781046b937aca13",
        "55a3f44ad9d30bdcf422e28dee11171f88e6a5960268ab40404d93e39b962a97",
        "03ee68d83147872b2f3ed97b3c27d1205d2f4fa4cfe2700bebbd7ed83d6381a0",
    )

    # the same at sizes of several row blocks (20,000 draws in one pass;
    # 5,000 trees), recorded before the draws were made in blocks
    MULTI_BLOCK_COUNTS = (
        [3401, 3339, 3296, 3425, 3480, 64, 77, 65, 72, 63, 63, 56, 60, 78, 65, 67, 83, 62,
         58, 66, 68, 68, 73, 71, 77, 60, 88, 69, 60, 54, 78, 64, 64, 59, 79, 79, 63, 72, 81,
         65, 79, 72, 54, 70, 76, 53, 63, 66, 71, 64],
        [4967, 5044, 4990, 4999],
        [4983, 5066, 4964, 4987],
        [6720, 6672, 6608],
    )
    MULTI_BLOCK_DIGESTS = (
        "2ca5acaa8c0661073dbd8ec0ceea75228550e6c2f57a1a658334ee9206d31860",
        "8a6f7c022a113d2f404aa4bb8e1ea488d53b35d715f52628ec55c7790c0ae8d8",
        "f2849c94e15a104958e854a72806100243adb7ca36a7154d3581c20c53a4daf3",
        "d92f13e8a46e543b4056fbb531b92bae9c25ec79d437bf4153d49d534ce21344",
    )

    @pytest.mark.parametrize("k", range(4))
    def test_outputs_pinned(self, k):
        spec = self.SPECS[k]
        # three passes of 1,000 nodes from one generator
        rng = np.random.default_rng(5)
        coords = np.concatenate([kernel_lab._split_coords(rng, spec, 1000) for _ in range(3)])
        counts = np.bincount(coords, minlength=spec.p)
        np.testing.assert_array_equal(counts, self.SELECTION_COUNTS[k])
        hi = dense_extents(spec, 500, 7)
        assert hashlib.sha256(hi.tobytes()).hexdigest() == self.EXTENT_DIGESTS[k]

    @pytest.mark.parametrize("k", range(4))
    def test_multi_block_outputs_pinned(self, k):
        spec = self.SPECS[k]
        freq = mc_selection_freq(spec, 20_000, 5)
        np.testing.assert_array_equal(freq, np.array(self.MULTI_BLOCK_COUNTS[k]) / 20_000)
        hi = dense_extents(spec, 5_000, 7)
        assert hashlib.sha256(hi.tobytes()).hexdigest() == self.MULTI_BLOCK_DIGESTS[k]

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (1, 1), (3, 5)])
    def test_blocks_keep_whole_draws(self, k, blocks, extra):
        # one node, one block, one block + 1 and three blocks + 5: the same
        # coordinates as two whole (n, p) draws, and the generator left in
        # the same state
        spec = self.SPECS[k]
        n = blocks * max(1, kernel_lab._BLOCK_ELEMENTS // spec.p) + extra
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        np.testing.assert_array_equal(
            kernel_lab._split_coords(rng, spec, n), whole_split_coords(ref, spec, n)
        )
        assert rng.bit_generator.state == ref.bit_generator.state
        fresh = np.random.default_rng(11)
        fresh.random((n, spec.p))
        fresh.random((n, spec.p))
        assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("mtry", ["spec", "1", "p"])
    @pytest.mark.parametrize("blocks, extra", [(0, 7), (3, 5)])
    @pytest.mark.parametrize(
        "generator", [np.random.default_rng, EighthsGenerator], ids=["uniform", "eighths"]
    )
    def test_ties_and_extreme_mtry_keep_whole_draws(self, k, mtry, blocks, extra, generator):
        # keys in eighths tie at the mtry-th value in most rows, so the
        # candidate mask must fall back to argpartition's choice among them
        spec = self.SPECS[k]
        spec = dataclasses.replace(spec, mtry={"spec": spec.mtry, "1": 1, "p": spec.p}[mtry])
        n = blocks * max(1, kernel_lab._BLOCK_ELEMENTS // spec.p) + extra
        rng, ref = generator(11), generator(11)
        np.testing.assert_array_equal(
            kernel_lab._split_coords(rng, spec, n), whole_split_coords(ref, spec, n)
        )
        assert rng.bit_generator.state == ref.bit_generator.state
        fresh = np.random.default_rng(11)
        fresh.random((2, n, spec.p))
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_eighths_tie_at_the_mtry_th_key(self):
        # the case above exercises the tie fallback: most rows tie
        spec = self.SPECS[0]
        keys = np.sort(EighthsGenerator(11).random((1000, spec.p)), axis=1)
        tied = (keys[:, spec.mtry - 1] == keys[:, spec.mtry]).mean()
        assert tied > 0.5

    def test_transient_memory_at_20000_trees(self):
        # about 63,000 cut (tree, coordinate) pairs, and the blocked draws:
        # about 5 MB, below the 8 MB a dense (20,000, 50) extents array takes
        spec = NaiveKernelSpec(32, 5, 45, 15)
        assert traced_peak(kernel_lab._origin_cuts, spec, 20_000, 3) <= 7e6


class TestBreimanKernel:
    def test_identity_and_flat(self):
        x = np.array([0.2, 0.8])
        np.testing.assert_array_equal(breiman_kernel(x[None], x, 32), [1.0])
        np.testing.assert_array_equal(breiman_kernel(np.array([[0.5, 0.1]]), x, 1), [1.0])

    def test_hand_value(self):
        x = np.array([[0.5, 0.25]])
        z = np.zeros(2)
        # exp(-(ln 16 / 2) * 0.75) = 16 ** -0.375 = 2 ** -1.5
        got = breiman_kernel(x, z, 16)
        assert got[0] == pytest.approx(2**-1.5)

    @pytest.mark.parametrize("leaves, error, message", [
        (2.5, TypeError, "leaves must be an integer, got 2.5"),
        (True, TypeError, "leaves must be an integer, got True"),
        (0, ValueError, "leaves must be >= 1, got 0"),
    ])
    def test_leaves_must_be_a_positive_integer(self, leaves, error, message):
        with pytest.raises(error, match=message):
            breiman_kernel(np.zeros((1, 2)), np.zeros(2), leaves)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            breiman_kernel(np.zeros((1, 2)), np.zeros(3), 8)
        with pytest.raises(ValueError):
            breiman_kernel(np.zeros(2), np.zeros(2), 8)

    def test_rows_bit_identical_to_per_row_formula(self):
        rng = np.random.default_rng(4)
        Z, x0 = rng.normal(size=(25, 20)), rng.normal(size=20)
        got = breiman_kernel(Z, x0, 32)
        np.testing.assert_array_equal(got, [breiman_row(z, x0, 32) for z in Z])
        np.testing.assert_array_equal(breiman_kernel(np.asfortranarray(Z), x0, 32), got)


class TestBandwidthSweep:
    def test_sweep_matches_pointwise_estimates(self):
        rng = np.random.default_rng(1)
        train = Dataset(
            rng.uniform(-1, 1, size=(40, 2)), rng.integers(0, 2, 40), ("a", "b")
        )
        X_eval = rng.uniform(-1, 1, size=(15, 2))
        targets = rng.random(15)
        weights = np.array([0.5, 0.5])
        lam = 0.8
        rmse = bandwidth_sweep(train, X_eval, targets, weights, [lam])[0]
        preds = []
        for x in X_eval:
            k = np.exp(-lam * (weights * np.abs(train.features - x)).sum(axis=1))
            preds.append(k @ train.labels / k.sum())
        assert rmse == pytest.approx(float(np.sqrt(np.mean((np.array(preds) - targets) ** 2))))

    # holdout RMSE over np.geomspace(1e-3, 10.0, 30) on a c4-sized circle sample
    # (500 training rows, seed 9000; 1,000 holdout rows, seed 9100)
    PINNED = {
        (1.0, 1.0): [
            0.3124085650258463, 0.31218418366627193, 0.3118730602002388, 0.3114401567118071,
            0.3108349150321803, 0.30998316064756176, 0.3087737707458826, 0.3070360602336585,
            0.3045006446375001, 0.30073182952846766, 0.29501619621874714, 0.2862047201482237,
            0.27258027410373736, 0.2520356483702615, 0.22312782845064938, 0.18722411059258678,
            0.15020652911748572, 0.12141475801227436, 0.1100758385427838, 0.11968452025041044,
            0.1456300783090341, 0.18103048346612988, 0.21989846448468597, 0.2575928662831799,
            0.2911061485435938, 0.3186712357733672, 0.33988556876156883, 0.35568073758086577,
            0.3672864004014012, 0.3756416836902143,
        ],
        (10.0, 1.0): [
            0.30940300291806194, 0.3078746078271421, 0.3056181867365802, 0.3022442404217462,
            0.2971717991705665, 0.2896396075229036, 0.2789552040710252, 0.2651925925558252,
            0.2500168535476738, 0.23623359356470489, 0.22549505365938458, 0.2168131114221239,
            0.20780882256812452, 0.1968500264320207, 0.18469515058249644, 0.1756397000707242,
            0.17654605439967322, 0.192284580401856, 0.2214607776110902, 0.25729793388017824,
            0.29253496282321717, 0.32261726933706425, 0.346002575834469, 0.3634007655732323,
            0.376284031222249, 0.3858887521700405, 0.3929752323609338, 0.3980003279871561,
            0.40142858268696036, 0.40379007941219064,
        ],
    }

    @pytest.mark.parametrize("weights", sorted(PINNED))
    def test_pinned_circle_sweep(self, weights):
        train = sample(get_model("circle"), 500, seed=9000)
        hold = sample(get_model("circle"), 1000, seed=9100)
        got = bandwidth_sweep(
            train, hold.features, hold.true_probs, np.array(weights), np.geomspace(1e-3, 10.0, 30)
        )
        np.testing.assert_array_equal(got, self.PINNED[weights])

    def test_distances_built_in_row_blocks(self):
        # the (200, 300, 50) differences at once would trace 48 MB; a row
        # block of them, the (200, 300) distances and one kernel matrix
        # trace about 2.5 MB
        rng = np.random.default_rng(0)
        train = Dataset(rng.random((300, 50)), rng.integers(0, 2, 300),
                        tuple(f"f{j}" for j in range(50)))
        X_eval, targets = rng.random((200, 50)), rng.random(200)
        peak = traced_peak(bandwidth_sweep, train, X_eval, targets, np.ones(50), [0.1, 1.0])
        assert peak <= 5e6

    def test_degenerate_bandwidth_reports_nan(self):
        train = Dataset(
            np.array([[0.0, 0.0], [1000.0, 1000.0]]), np.array([0, 1]), ("a", "b")
        )
        X_eval = np.array([[500.0, 500.0]])
        out = bandwidth_sweep(train, X_eval, np.array([0.5]), np.ones(2), [5000.0])
        assert np.isnan(out[0])
