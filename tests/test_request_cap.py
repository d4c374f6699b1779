"""Every capped call holds what its byte count says: at a lowered
`data_model.MAX_REQUEST_BYTES`, the largest request each entry point
accepts peaks at most the cap plus a stated slack, and the next one is
refused before it allocates what it asks for."""

import functools
import tracemalloc

import numpy as np
import pytest

from forestprox import data_model
from forestprox.data_model import Dataset
from forestprox.diagnostics import derivative_report, kernel_grid
from forestprox.forest import ForestParams, train_forest
from forestprox.kernel_lab import NaiveKernelSpec, mc_proximity
from forestprox.tree import TreeParams

CAP = 4 << 20
# numpy's ufunc buffers (8,192 elements), the Python objects a call builds,
# and each capped call's O(size) vectors (axes, kernel values, per-row ids)
SLACK = 1 << 17
# what a call refused before its first large allocation may still trace
REFUSED = 1 << 14


def traced(call, size):
    """(peak bytes traced, message or None) of call(size)."""
    tracemalloc.start()
    try:
        call(size)
        message = None
    except ValueError as err:
        message = str(err)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, message


def refused(call, size) -> bool:
    try:
        call(size)
    except ValueError as err:
        assert f"over the cap of {CAP}" in str(err)
        return True
    return False


def largest_accepted(call, lo, hi):
    """An n in [lo, hi) that call accepts while it refuses n + 1, by
    bisection from an accepted lo and a refused hi."""
    assert not refused(call, lo) and refused(call, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if refused(call, mid):
            hi = mid
        else:
            lo = mid
    return lo


def const_kernel(Z, x0):
    return np.ones(len(Z))


@functools.cache
def one_tree_forest():
    rng = np.random.default_rng(0)
    d = Dataset(rng.random((20, 2)), np.arange(20) % 2, ("a", "b"))
    return train_forest(d, ForestParams(n_trees=1, tree=TreeParams(mtry=1), seed=0))


def proximity_matrix(n):
    # a broadcast query holds no (n, p) matrix of its own
    one_tree_forest().proximity_matrix(np.broadcast_to(np.zeros(2), (n, 2)))


def grid(r):
    # wide enough that the probe rows hold most of the bytes
    kernel_grid(const_kernel, np.zeros(1000), (0, 1), r, ((-1, 1), (-1, 1)))


def deriv(p):
    derivative_report(const_kernel, np.zeros(p), 0.1)


def mc(leaves, strong, weak, mtry):
    spec = NaiveKernelSpec(leaves, strong, weak, mtry)
    X = np.zeros((1, spec.p))
    return lambda n: mc_proximity(spec, X, n_trees=n, seed=0)


# (call of one size, a size it accepts at CAP, a size it refuses, whether it
# refuses upfront, before any large allocation): mc_proximity refuses a cut
# list over the cap as its growth steps draw it, so past step 1 a refused
# growth has drawn part of its list
CASES = {
    "proximity_matrix": (proximity_matrix, 2, 10_000, True),
    "kernel_grid": (grid, 2, 10_000, True),
    "derivative_report": (deriv, 1, 10_000, True),
    "mc_proximity leaves 2, p 1": (mc(2, 1, 0, 1), 1, 10**6, True),
    "mc_proximity leaves 2, p 300": (mc(2, 3, 297, 20), 1, 10**6, True),
    "mc_proximity leaves 3, p 1": (mc(3, 1, 0, 1), 1, 10**6, False),
    "mc_proximity leaves 32, p 50": (mc(32, 5, 45, 15), 1, 10**6, False),
}


@pytest.mark.parametrize("case", CASES)
def test_largest_accepted_request_fits_the_cap(monkeypatch, case):
    call, lo, hi, upfront = CASES[case]
    monkeypatch.setattr(data_model, "MAX_REQUEST_BYTES", CAP)
    one_tree_forest()
    n = largest_accepted(call, lo, hi)
    peak, message = traced(call, n)
    assert message is None
    assert peak <= CAP + SLACK
    # and the byte count is not loose: the request uses most of the cap
    assert peak >= CAP // 2
    peak, message = traced(call, n + 1)
    assert message is not None and message.endswith(f"bytes, over the cap of {CAP}")
    assert peak <= (REFUSED if upfront else CAP + SLACK)

