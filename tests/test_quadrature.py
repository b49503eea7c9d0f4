"""Adaptive quadrature backend checks.

The frozen values here are closed forms, so tolerances track the
requested rel_tol rather than an oracle's own error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointeec.quadrature import _exact_parts, integrate_1d, integrate_nd


def bits(res):
    """A result as exact values: the cubature keeps its totals exactly and
    rounds them once, so these equal the heap re-summed by math.fsum."""
    return res.value, res.error, res.n_evals, res.converged


def test_polynomial_exact_1d():
    # Gauss-Kronrod 15 integrates degree-22 polynomials exactly; a single
    # panel must already be converged for these.
    res = integrate_1d(lambda x: x**10, 0.0, 2.0, rel_tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(2.0**11 / 11.0, rel=1e-14)

    res = integrate_1d(lambda x: 3.0 * x**2 - x + 0.25, -1.0, 2.0, rel_tol=1e-12)
    assert res.value == pytest.approx(8.25, rel=1e-13)


def test_smooth_transcendental_1d():
    res = integrate_1d(np.cos, 0.0, 1.5, rel_tol=1e-10)
    assert res.value == pytest.approx(math.sin(1.5), rel=1e-12)
    res = integrate_1d(np.exp, -1.0, 1.0, rel_tol=1e-10)
    assert res.value == pytest.approx(math.e - 1.0 / math.e, rel=1e-12)


def test_narrow_peak_1d():
    # A bump of width 1e-2 inside [0, 1]: the adaptive splitting has to
    # find it even though the first panel barely sees it.
    sig = 1e-2
    f = lambda x: np.exp(-0.5 * ((x - 0.37) / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))
    res = integrate_1d(f, 0.0, 1.0, rel_tol=1e-9)
    assert res.value == pytest.approx(1.0, rel=1e-8)
    assert res.error < 1e-7


def test_integrand_vectorized_once():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.asarray(x) ** 2

    integrate_1d(f, 0.0, 1.0, rel_tol=1e-10)
    # batched evaluation: every call carries a full panel of nodes
    assert all(n > 1 for n in calls)


def test_product_gaussian_2d():
    f = lambda x: np.exp(-0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)) / (2.0 * math.pi)
    res = integrate_nd(f, [-8.0, -8.0], [8.0, 8.0], rel_tol=1e-8)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-7)
    assert bits(res) == (0.9999999999567891, 9.827299514015883e-09, 39627, True)


def test_polynomial_2d():
    # int x^2 dx on [0,2] = 8/3 times int y^4 dy on [-1,3] = 244/5
    f = lambda x: x[..., 0] ** 2 * x[..., 1] ** 4
    res = integrate_nd(f, [0.0, -1.0], [2.0, 3.0], rel_tol=1e-10)
    assert res.value == pytest.approx((8.0 / 3.0) * (244.0 / 5.0), rel=1e-9)
    assert bits(res) == (130.13333333333333, 5.545300970017652e-09, 9707, True)


def test_concentrated_mass_2d():
    # Regression: a tight Gaussian away from the box centre used to be
    # invisible to the first rule application before the pre-split was
    # added, reporting a converged near-zero integral.
    w = 2000.0
    f = lambda x: np.exp(-w * ((x[..., 0] - 0.51) ** 2 + (x[..., 1] - 0.49) ** 2))
    res = integrate_nd(f, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-7)
    assert res.value == pytest.approx(math.pi / w, rel=1e-6)
    assert bits(res) == (0.0015707963266559622, 1.4675678779046874e-10, 21131, True)


def test_odd_slice_mass_3d():
    # Regression for the split-axis choice: an integrand that is odd in one
    # coordinate on the rule's nodes can zero out the fourth-difference
    # heuristic; the widest-axis fallback still has to make progress.
    f = lambda x: x[..., 0] * x[..., 1] * np.exp(-2.0 * np.sum(x**2, axis=-1))
    res = integrate_nd(f, [0.0, 0.0, -2.0], [2.0, 2.0, 2.0], rel_tol=1e-7)
    one = integrate_1d(lambda t: t * np.exp(-2.0 * t**2), 0.0, 2.0, rel_tol=1e-12).value
    flat = integrate_1d(lambda t: np.exp(-2.0 * t**2), -2.0, 2.0, rel_tol=1e-12).value
    assert res.value == pytest.approx(one * one * flat, rel=1e-6)
    assert bits(res) == (0.07827462896636421, 7.776804305017856e-09, 319803, True)


def test_eval_budget_reported():
    # exhausting the budget is not an exception here: the result says so and
    # callers decide whether that is fatal
    f = lambda x: np.exp(-1e6 * (x[..., 0] - 0.5) ** 2) * np.exp(-1e6 * (x[..., 1] - 0.5) ** 2)
    res = integrate_nd(f, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-13, max_evals=2000)
    assert not res.converged
    assert res.n_evals <= 2000 + 17 * 32  # one generation of overshoot at most
    assert bits(res) == (2.1506657126272334e-07, 2.2945168622562044e-07, 2227, False)


def test_zero_integrand():
    res = integrate_nd(lambda x: np.zeros(x.shape[:-1]), [0.0, 0.0], [1.0, 1.0], rel_tol=1e-9)
    assert res.value == 0.0
    assert res.converged
    assert bits(res) == (0.0, 0.0, 153, True)


def _beyond_09(fill):
    return lambda x: np.where(x[:, 0] > 0.9, fill, 1.0)


@pytest.mark.parametrize("integrate", [
    # exp(800 x) overflows near x = 1: the totals turn infinite, the running
    # sums are rebuilt from the heap, and the rule stops at its budget
    lambda: integrate_1d(lambda x: np.exp(800.0 * x), 0.0, 1.0, max_evals=3000),
    # a cell whose value or error is not finite stays in the totals: it
    # leaves the heap only by being split, never as a dropped NaN
    lambda: integrate_nd(_beyond_09(math.inf), [0.0, 0.0], [1.0, 1.0], max_evals=5000),
    lambda: integrate_nd(_beyond_09(math.nan), [0.0, 0.0], [1.0, 1.0], max_evals=5000),
], ids=["overflow-1d", "inf-2d", "nan-2d"])
def test_overflowing_integrand_is_reported_unconverged(integrate):
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate()
    assert not math.isfinite(res.value)
    assert not res.converged


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
       st.lists(st.floats(-1e300, 1e300), max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_exact_parts_follow_what_enters_and_leaves(first, more, data):
    # the running totals of the cubature: parts of the members, plus what
    # enters, minus what leaves, round to math.fsum of the members left
    parts = _exact_parts(first)
    assert parts[0] == math.fsum(first)
    members = first + more
    drop = data.draw(st.sets(st.integers(0, len(members) - 1)))
    leaving = [members[i] for i in drop]
    members = [x for i, x in enumerate(members) if i not in drop]
    parts = _exact_parts(parts + more + [-x for x in leaving])
    assert parts[0] == math.fsum(members)


# Pinned by exact equality: value, error and evaluation count of the adaptive
# cubature.  A change in the cell order, the split or the stopping rule
# shows here in the last bit.
def _peak_2d(x):
    return np.exp(-0.5 * ((x[:, 0] - 0.3) ** 2 + (x[:, 1] - 0.6) ** 2) / 0.05**2)


_COV_4D = np.array([[1.0, 0.5, 0.2, -0.1], [0.5, 1.2, 0.3, 0.1],
                    [0.2, 0.3, 0.9, 0.25], [-0.1, 0.1, 0.25, 1.1]])


def _gauss_4d(x):
    inv = np.linalg.inv(_COV_4D)
    norm = (2.0 * math.pi) ** 2 * math.sqrt(np.linalg.det(_COV_4D))
    return np.exp(-0.5 * np.einsum("mi,ij,mj->m", x, inv, x)) / norm


def test_integrate_nd_bits_pinned():
    res = integrate_nd(_peak_2d, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-9)
    assert (res.value, res.error, res.n_evals, res.converged) == (
        0.0157079632523878, 1.5425089189244304e-11, 80971, True)
    res = integrate_nd(_gauss_4d, [-1.0, -0.5, 0.0, -2.0], [2.0, 1.5, 1.0, 0.5],
                       rel_tol=1e-6)
    assert (res.value, res.error, res.n_evals, res.converged) == (
        0.12457109944923829, 1.217909687580535e-07, 61161, True)
