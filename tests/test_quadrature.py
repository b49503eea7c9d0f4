"""Adaptive quadrature backend checks.

The frozen values here are closed forms, so tolerances track the
requested rel_tol rather than an oracle's own error.
"""

import math

import numpy as np
import pytest

from jointeec.quadrature import (
    _BATCH,
    _adapt,
    _bisect,
    integrate_1d,
    integrate_nd,
    lockstep_1d,
    lockstep_nd,
)


def bits(res):
    """A result as exact values: the cubature's totals are math.fsum over
    its cells, the exact sum rounded once."""
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
    assert bits(res) == (0.9999999999999976, 2.3852920726246277e-10, 21375, True)


def test_polynomial_2d():
    # int x^2 dx on [0,2] = 8/3 times int y^4 dy on [-1,3] = 244/5
    f = lambda x: x[..., 0] ** 2 * x[..., 1] ** 4
    res = integrate_nd(f, [0.0, -1.0], [2.0, 3.0], rel_tol=1e-10)
    assert res.value == pytest.approx((8.0 / 3.0) * (244.0 / 5.0), rel=1e-9)
    assert bits(res) == (130.13333333333333, 2.842170943040401e-14, 225, True)


def test_concentrated_mass_2d():
    # A tight Gaussian off the box centre: the first box must see it, not
    # certify a converged near-zero integral.
    w = 2000.0
    f = lambda x: np.exp(-w * ((x[..., 0] - 0.51) ** 2 + (x[..., 1] - 0.49) ** 2))
    res = integrate_nd(f, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-7)
    assert res.value == pytest.approx(math.pi / w, rel=1e-6)
    assert bits(res) == (0.0015707963267948967, 2.0567532060017267e-13, 50175, True)


def test_odd_slice_mass_3d():
    # The split-axis choice on a box whose third axis is twice as wide as
    # the others: every split has to make progress on the integral.
    f = lambda x: x[..., 0] * x[..., 1] * np.exp(-2.0 * np.sum(x**2, axis=-1))
    res = integrate_nd(f, [0.0, 0.0, -2.0], [2.0, 2.0, 2.0], rel_tol=1e-7)
    one = integrate_1d(lambda t: t * np.exp(-2.0 * t**2), 0.0, 2.0, rel_tol=1e-12).value
    flat = integrate_1d(lambda t: np.exp(-2.0 * t**2), -2.0, 2.0, rel_tol=1e-12).value
    assert res.value == pytest.approx(one * one * flat, rel=1e-6)
    assert bits(res) == (0.07827462896709202, 9.408709946670708e-11, 104625, True)


def test_eval_budget_reported():
    # exhausting the budget is not an exception here: the result says so and
    # callers decide whether that is fatal
    f = lambda x: np.exp(-1e6 * (x[..., 0] - 0.5) ** 2) * np.exp(-1e6 * (x[..., 1] - 0.5) ** 2)
    res = integrate_nd(f, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-13, max_evals=2000)
    assert not res.converged
    # one pass of overshoot at most: _BATCH boxes split in two, 15^2 nodes each
    assert res.n_evals <= 2000 + 2 * _BATCH * 15**2
    assert bits(res) == (0.00022580632911350538, 0.00022566974922511967, 2475, False)


def test_zero_integrand():
    res = integrate_nd(lambda x: np.zeros(x.shape[:-1]), [0.0, 0.0], [1.0, 1.0], rel_tol=1e-9)
    assert res.value == 0.0
    assert res.converged
    assert bits(res) == (0.0, 0.0, 225, True)


def _beyond_09(fill):
    return lambda x: np.where(x[:, 0] > 0.9, fill, 1.0)


@pytest.mark.parametrize("integrate", [
    # exp(800 x) overflows near x = 1: the totals turn infinite and the
    # rule stops at its budget
    lambda: integrate_1d(lambda x: np.exp(800.0 * x), 0.0, 1.0, max_evals=3000),
    # a cell whose value or error is not finite stays in the totals: it
    # leaves its integral's cells only by being split, never as a dropped NaN
    lambda: integrate_nd(_beyond_09(math.inf), [0.0, 0.0], [1.0, 1.0], max_evals=5000),
    lambda: integrate_nd(_beyond_09(math.nan), [0.0, 0.0], [1.0, 1.0], max_evals=5000),
], ids=["overflow-1d", "inf-2d", "nan-2d"])
def test_overflowing_integrand_is_reported_unconverged(integrate):
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate()
    assert not math.isfinite(res.value)
    assert not res.converged


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
        0.015707963252451676, 6.493612978858798e-14, 35775, True)
    res = integrate_nd(_gauss_4d, [-1.0, -0.5, 0.0, -2.0], [2.0, 1.5, 1.0, 0.5],
                       rel_tol=1e-6)
    assert (res.value, res.error, res.n_evals, res.converged) == (
        0.1245710992710986, 9.82914072356067e-09, 50625, True)


def _peak_1d(centre):
    sig = 1e-2
    return lambda x: np.exp(-0.5 * ((x - centre) / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))


def test_integrate_1d_bits_pinned():
    # two panel meshes refined over several passes: one peak, then two
    res = integrate_1d(_peak_1d(0.37), 0.0, 1.0, rel_tol=1e-9)
    assert bits(res) == (1.0000000000000002, 2.5730674565122987e-12, 1305, True)
    peaks = lambda x: _peak_1d(0.37)(x) + _peak_1d(0.81)(x)
    res = integrate_1d(peaks, 0.0, 1.0, rel_tol=1e-12)
    assert bits(res) == (2.0000000000000004, 8.70277070758065e-16, 1905, True)


def _toy_run(error, rel_tol, abs_tol, max_evals):
    """_adapt on [0, 1] under a rule of one node per panel, at its left
    end: the value is that node plus 1, the error error(lo, hi).  Returns
    the result and the nodes of every pass, so the panels split in order.
    A pass that places no node fails the run: it would repeat forever."""
    calls = []

    def place(lo, hi):
        assert len(lo), "a pass split no panel"
        calls.append(lo.tolist())
        return lo

    rule = (place, lambda vals, lo, hi: (vals[:, 0] + 1.0, error(lo, hi)), _bisect, 1)
    (res,) = _adapt(lambda xs: xs, rule, [(np.zeros(1), np.ones(1))], rel_tol, abs_tol, max_evals)
    return res, calls


def test_ties_go_to_the_older_panel():
    # the error is the width, so after five passes the 32 panels of width
    # 1/32 tie; the _BATCH older ones, made first, are the left half
    res, calls = _toy_run(lambda lo, hi: hi - lo, 0.0, 0.0, 64)
    assert [len(c) for c in calls] == [1, 2, 4, 8, 16, 32, 32]
    assert calls[-1] == [k / 64 for k in range(32)]
    assert (res.n_evals, res.converged) == (95, False)


def test_nan_error_ranks_first():
    # a NaN error outranks every number, so the panel at 0.8 splits in the
    # first batch past the 32 tied panels and leads it
    at = 0.8
    res, calls = _toy_run(lambda lo, hi: np.where((lo <= at) & (at < hi), np.nan, hi - lo),
                          0.0, 0.0, 64)
    assert calls[-1][:2] == [50 / 64, 51 / 64]
    assert math.isnan(res.error) and not res.converged


def test_zero_errors_split_the_oldest_panel():
    # with every error 0 and a negative target no panel earns a split, and
    # a pass splits the oldest one anyway, so the budget still ends the run
    res, calls = _toy_run(lambda lo, hi: np.zeros_like(lo), -1.0, -1.0, 10)
    assert calls == [[0.0], [0.0, 0.5], [0.0, 0.25], [0.5, 0.75], [0.0, 0.125], [0.25, 0.375]]
    assert (res.n_evals, res.converged) == (11, False)


# ---------------------------------------------------------------------------
# lockstep: several integrals refined together, one integrand call per pass

def _product_gaussian(x):
    return np.exp(-0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)) / (2.0 * math.pi)


def _concentrated(x):
    return np.exp(-2000.0 * ((x[..., 0] - 0.51) ** 2 + (x[..., 1] - 0.49) ** 2))


CASES_1D = ((np.cos, 0.0, 1.5), (np.exp, -1.0, 1.0), (_peak_1d(0.37), 0.0, 1.0),
            (lambda x: x**10, 0.0, 2.0), (np.sin, 0.5, 0.5))
CASES_2D = ((_peak_2d, [0.0, 0.0], [1.0, 1.0]), (_product_gaussian, [-8.0, -8.0], [8.0, 8.0]),
            (lambda x: x[..., 0] ** 2 * x[..., 1] ** 4, [0.0, -1.0], [2.0, 3.0]),
            (_concentrated, [0.0, 0.0], [1.0, 1.0]))


def _recording(fs, calls):
    """The lockstep integrand of fs, recording the node count per integral of
    every call."""
    def f(xs):
        calls.append([len(x) for x in xs])
        return [fi(x) for fi, x in zip(fs, xs)]
    return f


def _solo_calls(integrate, f, *args, **kw):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return integrate(counted, *args, **kw), calls


@pytest.mark.parametrize("lockstep, solo, cases, tol", [
    (lockstep_1d, integrate_1d, CASES_1D, 1e-11),
    (lockstep_nd, integrate_nd, CASES_2D, 1e-8),
], ids=["1d", "2d"])
def test_lockstep_matches_solo_runs(lockstep, solo, cases, tol):
    # each integral keeps its own cells, totals, stopping test and budget, so
    # together they split the same cells in the same order as alone; the
    # integrand is called once per pass, and an integral that has stopped
    # is handed no more nodes
    calls = []
    together = lockstep(_recording([c[0] for c in cases], calls),
                        [c[1:] for c in cases], rel_tol=tol)
    alone = [_solo_calls(solo, c[0], *c[1:], rel_tol=tol) for c in cases]
    assert [bits(r) for r in together] == [bits(r) for r, _ in alone]
    assert len(calls) == max(len(c) for _, c in alone)
    for i, (res, solo_calls) in enumerate(alone):
        mine = [sizes[i] for sizes in calls]
        assert mine[:len(solo_calls)] == solo_calls
        assert not any(mine[len(solo_calls):])
        assert sum(mine) == res.n_evals


def test_lockstep_4d_matches_solo_run():
    boxes = [([-1.0, -0.5, 0.0, -2.0], [2.0, 1.5, 1.0, 0.5]), ([0.0] * 4, [1.0] * 4)]
    calls = []
    together = lockstep_nd(_recording([_gauss_4d, _gauss_4d], calls), boxes, rel_tol=1e-6)
    assert [bits(r) for r in together] == [
        bits(integrate_nd(_gauss_4d, lo, hi, rel_tol=1e-6)) for lo, hi in boxes]
    assert bits(together[0]) == (0.1245710992710986, 9.82914072356067e-09, 50625, True)


def test_lockstep_budget_is_per_integral():
    # the narrow peak runs out of its budget and says so; the others converge
    # as they would alone, whatever the peak still asks for
    cases = ((np.cos, 0.0, 1.5), (_peak_1d(0.37), 0.0, 1.0), (np.exp, -1.0, 1.0))
    calls = []
    res = lockstep_1d(_recording([c[0] for c in cases], calls), [c[1:] for c in cases],
                      rel_tol=1e-13, max_evals=300)
    assert [r.converged for r in res] == [True, False, True]
    assert 300 <= res[1].n_evals <= 300 + 2 * 16 * 15
    for (f, a, b), r in zip(cases, res):
        assert bits(r) == bits(integrate_1d(f, a, b, rel_tol=1e-13, max_evals=300))
    assert len(calls) > 1 and not any(sizes[0] or sizes[2] for sizes in calls[1:])


def test_lockstep_nd_needs_one_dimension():
    with pytest.raises(ValueError, match="one dimension"):
        lockstep_nd(lambda xs: [np.ones(len(x)) for x in xs],
                    [([0.0, 0.0], [1.0, 1.0]), ([0.0] * 3, [1.0] * 3)])
