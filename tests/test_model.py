"""Model layer: kernels, cross-correlations, covariance assembly, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointeec.common import ArgumentError
from jointeec.model import (
    BivariateModel,
    CosineMixture,
    PointAnchor,
    ShiftMixture,
    SquaredExponential,
    cross_eval,
    fixture,
    joint_cov,
    load_model_file,
    transpose,
    validate_model,
)

FIXTURES = (
    "diagonal",
    "interior-point",
    "corner-nondegenerate",
    "corner-semidegenerate",
    "corner-degenerate",
    "edge-point",
    "edge-point-degenerate",
)


def central_diff(f, x, order, h):
    """Central finite difference of f at x, derivative `order`, step h."""
    if order == 0:
        return f(x)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    if order == 4:
        return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / h**4
    raise ValueError(order)


@pytest.mark.parametrize("kernel", [
    SquaredExponential(1.0),
    SquaredExponential(0.7),
    CosineMixture((0.4, 0.6), (1.3, 2.1)),
])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_kernel_derivatives_match_finite_differences(kernel, order):
    # the FD truncation error grows with the order; tolerances follow it
    h = 1e-3 if order < 3 else 5e-3
    tol = {1: 1e-6, 2: 1e-6, 3: 1e-4, 4: 1e-3}[order]
    for tau in (0.0, 0.17, -0.4, 0.93):
        fd = central_diff(lambda x: kernel.derivs(x, 0)[0], tau, order, h)
        # the jet up to this order, and the jet of every order up to four
        for value in (kernel.derivs(tau, order)[order], kernel.derivs(tau, 4)[order]):
            assert value == pytest.approx(fd, rel=tol, abs=tol)


def test_kernel_unit_variance_and_curvature():
    k = SquaredExponential(0.5)
    c0, c1, c2 = k.derivs(0.0, 2)
    assert c0 == 1.0
    assert c1 == 0.0
    # -C''(0) = 1/scale^2 for the squared exponential
    assert -c2 == pytest.approx(4.0, rel=1e-12)
    km = CosineMixture((0.25, 0.75), (2.0, 1.0))
    c0, _, c2 = km.derivs(0.0, 2)
    assert c0 == pytest.approx(1.0, abs=1e-15)
    assert -c2 == pytest.approx(0.25 * 4.0 + 0.75 * 1.0, rel=1e-14)


@given(st.floats(-3.0, 3.0), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_sqexp_derivative_parity(tau, order):
    # C is even, so C^(k)(-tau) = (-1)^k C^(k)(tau)
    k = SquaredExponential(0.8)
    left = k.derivs(-tau, order)[order]
    right = (-1.0) ** order * k.derivs(tau, order)[order]
    assert left == pytest.approx(right, rel=1e-12, abs=1e-15)


def test_sqexp_derivative_parity_is_exact():
    # odd orders exactly odd in tau and even ones exactly even, so covariance
    # blocks of derivatives come out exactly symmetric; tau^3 and tau^4
    # through numpy's power broke both, here by up to 1.8e-15
    k = SquaredExponential(0.6)
    lags = np.linspace(0.0, 2.0, 401)[1:]
    plus, minus = k.derivs(lags, 4), k.derivs(-lags, 4)
    for order in range(5):
        assert np.array_equal(minus[order], (-1.0) ** order * plus[order])
    block = joint_cov(BivariateModel(k, k, ShiftMixture(0.5, 0.0, k)), [("X", [0.0, 0.6], 2)])
    assert np.array_equal(block, block.T)


def test_kernel_eval_broadcasts():
    k = SquaredExponential(1.0)
    lags = np.linspace(-1, 1, 7)
    out = k.derivs(lags, 2)[2]
    assert out.shape == (7,)
    for i, tau in enumerate(lags):
        assert out[i] == k.derivs(float(tau), 2)[2]
    assert np.ndim(k.derivs(0.3, 2)[2]) == 0


def test_kernel_eval_rejects_bad_order():
    with pytest.raises(ArgumentError):
        SquaredExponential(1.0).derivs(0.0, 5)
    with pytest.raises(ArgumentError):
        SquaredExponential(1.0).derivs(0.0, -1)


def test_cosine_mixture_validation():
    with pytest.raises(ArgumentError):
        CosineMixture((0.5, 0.6), (1.0, 2.0))  # weights do not sum to 1
    with pytest.raises(ArgumentError):
        CosineMixture((1.0,), (0.0,))  # zero second spectral moment
    with pytest.raises(ArgumentError):
        CosineMixture((0.5, 0.5), (1.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ArgumentError):
            CosineMixture((0.5, 0.5), (1.0, bad))
        with pytest.raises(ArgumentError):
            CosineMixture((bad, 0.5), (1.0, 2.0))


def test_sqexp_validation():
    with pytest.raises(ArgumentError):
        SquaredExponential(0.0)
    with pytest.raises(ArgumentError):
        SquaredExponential(-1.0)


JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2))


@pytest.mark.parametrize("name", ["diagonal", "interior-point", "corner-nondegenerate"])
@pytest.mark.parametrize("orders", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (2, 2)])
def test_cross_partials_match_finite_differences(name, orders):
    mod = fixture(name)
    i, j = orders
    # roundoff in a nested difference scales like eps / h^(i+j), so the
    # step has to grow with the total order
    h = {1: 1e-4, 2: 1e-4, 3: 2e-3, 4: 2e-2}[i + j]
    tol = {1: 1e-6, 2: 1e-6, 3: 5e-4, 4: 5e-3}[i + j]
    for t, s in ((0.31, 0.57), (0.5, 0.5), (0.82, 0.13)):
        def r(tt, ss):
            return cross_eval(mod, tt, ss, 0, 0)

        if j == 0:
            fd = central_diff(lambda x: r(x, s), t, i, h)
        elif i == 0:
            fd = central_diff(lambda x: r(t, x), s, j, h)
        else:
            fd = central_diff(
                lambda x: central_diff(lambda y: r(x, y), s, j, h), t, i, h)
        # the per-order call, and the jet of every partial the integrands use
        jet = dict(zip(JET_ORDERS, mod.cross.partials(t, s, JET_ORDERS)))
        for value in (cross_eval(mod, t, s, i, j), jet[i, j]):
            assert value == pytest.approx(fd, rel=tol, abs=tol * 1e-2)


def test_transpose_swaps_arguments():
    mod = fixture("corner-nondegenerate")
    tr = transpose(mod)
    for t, s in ((0.2, 0.9), (0.64, 0.64), (1.0, 0.0)):
        for i, j in ((0, 0), (1, 0), (1, 1), (2, 2)):
            assert cross_eval(tr, s, t, j, i) == pytest.approx(
                cross_eval(mod, t, s, i, j), rel=1e-14, abs=1e-15)
    assert tr.kernel_x == mod.kernel_y
    assert tr.kernel_y == mod.kernel_x
    assert transpose(tr).cross == mod.cross


def test_joint_grid_cov_shape_and_symmetry():
    mod = fixture("interior-point")
    grid = np.linspace(0.0, 1.0, 33)
    cov = joint_cov(mod, [("X", grid, 0), ("Y", grid, 0)])
    assert cov.shape == (66, 66)
    assert np.max(np.abs(cov - cov.T)) < 1e-14
    assert np.max(np.abs(np.diag(cov) - 1.0)) < 1e-12
    # cross block at equal times is r(t, t)
    k = 16
    t = grid[k]
    assert cov[k, 33 + k] == pytest.approx(cross_eval(mod, t, t, 0, 0), abs=1e-14)


# mixed blocks: both tags, orders 0-2, scalar and array points, rows != cols
MIXED_ROWS = (
    ("X", 0.3, 1),
    ("Y", np.array([0.1, 0.7, 0.95]), 2),
    ("X", np.array([0.0, 0.5]), 0),
    ("Y", 0.4, 1),
)
MIXED_COLS = (
    ("Y", np.array([0.2, 0.6]), 0),
    ("X", 0.8, 2),
    ("X", np.linspace(0.0, 1.0, 5), 1),
    ("Y", 0.4, 0),
)


def _entrywise(mod, rows, cols):
    """joint_cov's definition, one scalar kernel or cross call per entry."""
    def scalars(blocks):
        return [(tag, float(p), k) for tag, pts, k in blocks for p in np.atleast_1d(pts)]

    def entry(tag_r, p, a, tag_c, q, b):
        if tag_r == tag_c:
            kernel = mod.kernel_x if tag_r == "X" else mod.kernel_y
            return (-1.0) ** a * kernel.derivs(q - p, a + b)[a + b]
        if tag_r == "X":
            return mod.cross.partials(p, q, ((a, b),))[0]
        return mod.cross.partials(q, p, ((b, a),))[0]

    return np.array([[entry(*r, *c) for c in scalars(cols)] for r in scalars(rows)])


_KX, _KY = SquaredExponential(0.9), SquaredExponential(0.6)
_SE_MIXED = BivariateModel(_KX, _KY, PointAnchor(0.4, 0.3, 0.8, _KX, _KY))


@pytest.mark.parametrize("mod", [fixture(name) for name in FIXTURES] + [_SE_MIXED],
                         ids=list(FIXTURES) + ["se-mixed"])
def test_joint_cov_equals_entrywise_definition(mod):
    # one vectorized evaluation per pair of blocks gives every entry bit for
    # bit, rows != cols and the square default alike
    cov = joint_cov(mod, MIXED_ROWS, MIXED_COLS)
    assert cov.shape == (7, 9)
    assert np.array_equal(cov, _entrywise(mod, MIXED_ROWS, MIXED_COLS))
    square = joint_cov(mod, MIXED_ROWS)
    assert np.array_equal(square, _entrywise(mod, MIXED_ROWS, MIXED_ROWS))
    assert np.array_equal(square, square.T)


def test_joint_cov_cosine_kernel_matches_entrywise():
    # the cosine jet sums its atoms with a matrix product whose rounding
    # depends on the shape of the lag array, so agreement is to rounding
    ky = CosineMixture((0.4, 0.6), (1.3, 2.1))
    mod = BivariateModel(_KX, ky, PointAnchor(0.3, 0.25, 0.75, _KX, ky))
    cov = joint_cov(mod, MIXED_ROWS, MIXED_COLS)
    np.testing.assert_allclose(cov, _entrywise(mod, MIXED_ROWS, MIXED_COLS),
                               rtol=0.0, atol=1e-15)


def test_joint_cov_rejects_bad_blocks():
    mod = fixture("interior-point")
    for bad in (("Z", 0.5, 0), ("X", 0.5, 3), ("Y", 0.5, -1), ("X", np.eye(2), 0)):
        with pytest.raises(ArgumentError):
            joint_cov(mod, [("X", 0.5, 0), bad])
        with pytest.raises(ArgumentError):
            joint_cov(mod, [("X", 0.5, 0)], [bad])


def test_spectral_moments_are_read_once(monkeypatch):
    calls = []
    derivs = SquaredExponential.derivs

    def counting(self, lag, top):
        calls.append((np.ndim(lag), top))
        return derivs(self, lag, top)

    monkeypatch.setattr(SquaredExponential, "derivs", counting)
    k = SquaredExponential(0.5)
    mod = BivariateModel(k, SquaredExponential(1.0), ShiftMixture(0.3, 0.0, k))
    # one jet at lag 0 per kernel, when the model is made
    assert calls == [(0, 4), (0, 4)]
    for _ in range(3):
        moments = (mod.lambda1, mod.lambda2, mod.fourth1, mod.fourth2)
    assert len(calls) == 2
    # lambda = -C''(0) = 1/scale^2 and C''''(0) = 3/scale^4
    assert moments == (4.0, 1.0, 48.0, 3.0)


@pytest.mark.parametrize("name", FIXTURES)
def test_validate_model_accepts_fixtures(name):
    rep = validate_model(fixture(name))
    assert rep.psd_ok, rep.notes
    assert rep.h3_ok, rep.notes
    assert rep.min_eigenvalue > -1e-8
    assert rep.unit_variance_max_err < 1e-10
    assert rep.maximizer_count >= 1


def test_validate_model_counts_ridge_maximizers():
    # the diagonal fixture attains its maximum all along t = s
    rep = validate_model(fixture("diagonal"))
    assert rep.maximizer_count > 50


def test_fixture_unknown_name():
    with pytest.raises(ArgumentError):
        fixture("no-such-model")


def test_point_anchor_peak_location():
    mod = fixture("interior-point")
    r_peak = cross_eval(mod, 0.5, 0.5, 0, 0)
    for t, s in ((0.4, 0.5), (0.5, 0.62), (0.1, 0.9)):
        assert cross_eval(mod, t, s, 0, 0) < r_peak


def test_shift_mixture_constant_on_diagonal():
    mod = fixture("diagonal")
    vals = [cross_eval(mod, t, t, 0, 0) for t in (0.0, 0.25, 0.5, 1.0)]
    assert max(vals) - min(vals) < 1e-15
    assert vals[0] == pytest.approx(0.5, abs=1e-15)


def test_load_model_file_round_trip(tmp_path):
    path = tmp_path / "custom.model"
    path.write_text(
        "# comments and blank lines are skipped\n"
        "\n"
        "kernel_x sqexp\n"
        "scale_x 1.0\n"
        "cross_form shift-mixture\n"
        "c 0.5\n"
        "d 0.0   # trailing comment\n"
        "label custom-diagonal\n",
        encoding="utf-8",
    )
    mod = load_model_file(str(path))
    assert mod.label == "custom-diagonal"
    ref = fixture("diagonal")
    grid = np.linspace(0.0, 1.0, 17)
    blocks = [("X", grid, 0), ("Y", grid, 0)]
    assert np.max(np.abs(joint_cov(mod, blocks) - joint_cov(ref, blocks))) < 1e-15


def test_load_model_file_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("cross_form shift-mixture\nc 0.5\nwavelength 3\n", encoding="utf-8")
    with pytest.raises(ArgumentError, match="unknown key"):
        load_model_file(str(bad))

    dup = tmp_path / "dup.model"
    dup.write_text("c 0.5\nc 0.6\ncross_form shift-mixture\n", encoding="utf-8")
    with pytest.raises(ArgumentError, match="duplicate"):
        load_model_file(str(dup))

    missing = tmp_path / "missing.model"
    missing.write_text("cross_form point-anchor\nc 0.5\n", encoding="utf-8")
    with pytest.raises(ArgumentError, match="t_star"):
        load_model_file(str(missing))


def test_model_requires_valid_c():
    k = SquaredExponential(1.0)
    with pytest.raises(ArgumentError):
        ShiftMixture(1.5, 0.0, k)
    with pytest.raises(ArgumentError):
        ShiftMixture(1.0, 0.0, k)  # c = 1 makes the joint law degenerate
    with pytest.raises(ArgumentError):
        PointAnchor(-0.1, 0.5, 0.5, k, k)


def test_custom_model_construction():
    kx = SquaredExponential(0.9)
    ky = CosineMixture((1.0,), (2.0,))
    mod = BivariateModel(kx, ky, PointAnchor(0.3, 0.25, 0.75, kx, ky), label="mixed")
    rep = validate_model(mod)
    assert rep.psd_ok, rep.notes
    assert cross_eval(mod, 0.25, 0.75, 0, 0) == pytest.approx(0.3, abs=1e-14)
