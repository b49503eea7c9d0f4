"""Classification and closed-form leading-order terms.

The coefficient table at the bottom was cross-checked against slow
numerical Laplace integrals before freezing; tests compare the library's
closed forms to those numbers, not the other way around.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from jointeec.common import DEFAULT_TOL, ArgumentError, RegimeError
from jointeec.gauss import condition, mvn_cdf
from jointeec.model import (_FIXTURE_NAMES, BivariateModel, CrossCorrelation, PointAnchor,
                            ShiftMixture, SquaredExponential, cross_eval, fixture,
                            independent_model, joint_cov, transpose)
from jointeec import model as model_mod
from jointeec import asymptotics as asy
from test_acceptance import h_function, sigma_conditional


def test_case_tags_frozen():
    assert asy.CASE_TAGS == (
        "Corner_r1r2Nonzero",
        "Corner_r1Zero",
        "Corner_BothZero",
        "EdgePoint_r2Nonzero",
        "EdgePoint_r2Zero",
        "UniqueInterior",
        "DiagonalLine",
        "GeneralFallback",
    )


# ---------------------------------------------------------------------------
# local geometry


def test_local_geometry_interior_point():
    mod = fixture("interior-point")
    geo = asy.local_geometry(mod, 0.5, 0.5)
    assert geo.r == pytest.approx(0.5, abs=1e-14)
    assert geo.r1 == pytest.approx(0.0, abs=1e-13)
    assert geo.r2 == pytest.approx(0.0, abs=1e-13)
    assert geo.r11 == pytest.approx(-0.5, abs=1e-12)
    assert geo.r22 == pytest.approx(-0.5, abs=1e-12)
    assert geo.r12 == pytest.approx(0.0, abs=1e-13)
    assert geo.lambda1 == pytest.approx(1.0, rel=1e-14)
    assert geo.lambda2 == pytest.approx(1.0, rel=1e-14)


def test_local_geometry_diagonal():
    mod = fixture("diagonal")
    geo = asy.local_geometry(mod, 0.3, 0.3)
    assert geo.r == pytest.approx(0.5, abs=1e-14)
    assert geo.r1 == pytest.approx(0.0, abs=1e-13)
    # r(t,s) = 0.5 C(t-s): the mixed partial at the ridge is -0.5 C''(0)
    assert geo.r12 == pytest.approx(0.5, abs=1e-12)
    assert geo.r22 == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# classification

EXPECTED_TAGS = {
    "diagonal": "DiagonalLine",
    "interior-point": "UniqueInterior",
    "corner-nondegenerate": "Corner_r1r2Nonzero",
    "corner-semidegenerate": "Corner_r1Zero",
    "corner-degenerate": "Corner_BothZero",
    "edge-point": "EdgePoint_r2Nonzero",
    "edge-point-degenerate": "EdgePoint_r2Zero",
}

EXPECTED_R = {
    "diagonal": 0.5,
    "interior-point": 0.5,
    "corner-nondegenerate": 0.529498141550757,
    "corner-semidegenerate": 0.47799874091655,
    "corner-degenerate": 0.5,
    "edge-point": 0.47799874091655,
    "edge-point-degenerate": 0.5,
}


@pytest.mark.parametrize("name,tag", sorted(EXPECTED_TAGS.items()))
def test_classification_tags(name, tag):
    cls = asy.classify(fixture(name))
    assert cls.tag == tag
    assert cls.R == pytest.approx(EXPECTED_R[name], rel=1e-9)


def test_classification_maximizer_locations():
    assert asy.classify(fixture("interior-point")).maximizers == ((0.5, 0.5),)
    assert asy.classify(fixture("corner-degenerate")).maximizers == ((0.0, 0.0),)
    cls = asy.classify(fixture("corner-nondegenerate"))
    assert cls.maximizers == ((1.0, 0.0),)
    diag = asy.classify(fixture("diagonal"))
    assert len(diag.maximizers) > 50
    assert all(t == s for t, s in diag.maximizers)


def test_classification_edge_point_on_edge():
    cls = asy.classify(fixture("edge-point"))
    (t, s), = cls.maximizers
    on_edge = t in (0.0, 1.0) or s in (0.0, 1.0)
    corner = t in (0.0, 1.0) and s in (0.0, 1.0)
    assert on_edge and not corner


def test_classification_transpose_invariance():
    for name in EXPECTED_TAGS:
        mod = fixture(name)
        a = asy.classify(mod)
        b = asy.classify(transpose(mod))
        assert b.tag == a.tag
        assert b.R == pytest.approx(a.R, rel=1e-12)
        assert sorted(b.maximizers) == sorted((s, t) for t, s in a.maximizers)


def test_classification_shifted_ridge_falls_back():
    # moving the ridge off the diagonal leaves a maximizing segment that no
    # closed-form case covers
    from jointeec.model import BivariateModel, ShiftMixture, SquaredExponential
    k = SquaredExponential(1.0)
    mod = BivariateModel(k, k, ShiftMixture(0.5, 0.5, k), label="shifted-ridge")
    cls = asy.classify(mod)
    assert cls.tag == "GeneralFallback"
    assert len(cls.maximizers) > 10
    with pytest.raises(RegimeError, match="GeneralFallback"):
        asy.closed_form(mod, cls, 6.0)


def test_classification_flat_r_merges_every_lattice_point():
    # r = 0 makes all 10,201 lattice points maximal and none coincident; the
    # merge compares each only with its neighbours, not with every kept one
    from test_acceptance import elapsed_under
    from jointeec.model import independent_model

    with elapsed_under(5.0):
        cls = asy.classify(independent_model())
    ax = np.linspace(0.0, 1.0, 101).tolist()
    assert cls.maximizers == tuple(sorted((t, s) for t in ax for s in ax))
    assert cls.tag == "GeneralFallback"


def random_models(n=40, seed=20261021):
    """n squared-exponential models, shift mixtures and point anchors by
    turns, with scales, coefficients, shifts and anchors drawn at random."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kx = SquaredExponential(float(rng.uniform(0.1, 1.5)))
        c = float(rng.uniform(0.05, 0.95))
        if i % 2 == 0:
            out.append(BivariateModel(kx, kx, ShiftMixture(c, float(rng.uniform(-1.5, 1.5)), kx),
                                      label=f"random-{i}"))
        else:
            ky = SquaredExponential(float(rng.uniform(0.1, 1.5)))
            anchor = PointAnchor(c, float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)),
                                 kx, ky)
            out.append(BivariateModel(kx, ky, anchor, label=f"random-{i}"))
    return out


def near_maximal_cells(mod):
    """The lattice cells classify refines: those within cluster_tol of the
    lattice maximum of r."""
    ax = np.linspace(0.0, 1.0, asy._GRID_N)
    vals = cross_eval(mod, ax[:, None], ax[None, :], 0, 0)
    i, j = np.nonzero(vals >= vals.max() - DEFAULT_TOL.cluster_tol)
    return np.column_stack([ax[i], ax[j]])


# starts off the maximizers: corners and edge midpoints, where the box pins
# coordinates, and interior points, where a shift mixture's Hessian is
# singular and Newton steps overshoot and halve
EXTRA_STARTS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5),
                (1.0, 0.5), (0.5, 1.0), (0.3, 0.7), (0.7, 0.2), (0.5, 0.5), (0.05, 0.93))


def test_refine_lockstep_matches_one_cell_at_a_time(monkeypatch):
    # _refine steps every start in lockstep, one cross-form call per Newton
    # step and per halving; each start must end where it ends alone, bit
    # for bit, whatever else shares its batch.  Every start is refined in
    # one batch per model, the fixtures' also in reverse order; a tenth of
    # them, a different tenth per model, also alone (a shifted ridge's
    # cells creep for 50 steps, so refining all 2,856 alone takes ~15 s).
    # The tallies show the starts reach every branch: a point pinned at a
    # corner and on an edge, a zero gradient, a halved step and a stacked
    # solve that meets a singular Hessian
    solve, singular = np.linalg.solve, []

    def spy_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(np.ndim(a))
            raise

    evaluate, trials = model_mod.cross_eval, []

    def spy_eval(*args):
        out = evaluate(*args)
        trials.append(np.atleast_1d(out))
        return out

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(model_mod, "cross_eval", spy_eval)
    seen = dict.fromkeys(("corner", "edge", "zero gradient", "halving"), 0)
    floor = DEFAULT_TOL.newton_step_floor
    models = [fixture(n) for n in _FIXTURE_NAMES] + random_models()
    for m, mod in enumerate([m for base in models for m in (base, transpose(base))]):
        starts = np.vstack([near_maximal_cells(mod), EXTRA_STARTS])
        x, v = asy._refine(mod, starts, floor)
        if m < 2 * len(_FIXTURE_NAMES):
            back_x, back_v = asy._refine(mod, starts[::-1], floor)
            assert back_x[::-1].tolist() == x.tolist() and back_v[::-1].tolist() == v.tolist()
        for k, start in list(enumerate(starts))[m % 10::10]:
            trials.clear()
            alone_x, alone_v = asy._refine(mod, start[None, :], floor)
            assert alone_x.tolist() == [x[k].tolist()], (mod.label, start)
            assert alone_v.tolist() == [v[k]], (mod.label, start)
            # a trial below the value of the last accepted point was halved
            last = mod.cross.partials(start[0], start[1], ((0, 0),))[0]
            for (tval,) in trials:
                seen["halving"] += tval < last
                last = max(last, tval)
            on_box = int(np.isin(x[k], (0.0, 1.0)).sum())
            if on_box > np.isin(start, (0.0, 1.0)).sum():
                seen[("edge", "corner")[on_box - 1]] += 1
        r1, r2 = mod.cross.partials(starts[:, 0], starts[:, 1], ((1, 0), (0, 1)))
        seen["zero gradient"] += int(((r1 == 0.0) & (r2 == 0.0)).sum())
    assert all(seen.values()), seen
    assert 3 in singular  # a stack of 2 x 2 Hessians held a singular one


def test_ascent_falls_back_row_by_row():
    # where a stacked solve meets a singular matrix, each row is solved
    # alone: only the singular one takes its gradient, the others keep the
    # bits of their own Newton step; a step that does not ascend, and a
    # zero gradient, are the gradient too
    neg_hess = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, -1.0], [-1.0, 1.0]],
                         [[-1.0, 0.0], [0.0, -2.0]], [[3.0, 1.0], [1.0, 2.0]]])
    grad = np.array([[0.3, -0.2], [0.1, 0.4], [0.5, 0.5], [0.0, 0.0]])
    steps = asy._ascent(neg_hess, grad)
    assert steps[0].tolist() == np.linalg.solve(neg_hess[0], grad[0]).tolist()
    assert steps[1:].tolist() == grad[1:].tolist()
    assert asy._ascent(neg_hess[:1], grad[:1]).tolist() == steps[:1].tolist()


@pytest.mark.parametrize("mod", [fixture("diagonal"), independent_model()],
                         ids=["diagonal", "flat-r"])
def test_classify_evaluates_the_cross_form_a_fixed_number_of_times(monkeypatch, mod):
    # the lattice scan is one broadcast call, each Newton step and each
    # halving one call over every cell still refining, and validate reads
    # every maximizer's geometry in one call: the count does not grow with
    # the 101 (ridge) or 10,201 (r = 0) near-maximal cells
    calls = []
    real = type(mod.cross).partials

    def spy(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(type(mod.cross), "partials", spy)
    cls = asy.classify(mod)
    assert len(cls.maximizers) >= 101
    assert len(calls) <= 6
    calls.clear()
    asy.validate_model(mod)
    assert len(calls) <= 10


# ---------------------------------------------------------------------------
# conditional covariance and the exponent function


@pytest.mark.parametrize("name", ["diagonal", "interior-point"])
def test_sigma_conditional_matches_generic_conditioning(name):
    mod = fixture(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t, s = rng.uniform(0.05, 0.95, size=2)
        direct = sigma_conditional(mod, float(t), float(s))
        specs = [("X", float(t), 0), ("Y", float(s), 0),
                 ("X", float(t), 1), ("Y", float(s), 1)]
        cov = joint_cov(mod, specs)
        law = condition(cov, (2, 3))
        assert np.allclose(direct, law.residual_cov, atol=1e-11)


def test_sigma_conditional_off_diagonal_is_r_on_ridge():
    mod = fixture("diagonal")
    sig = sigma_conditional(mod, 0.4, 0.4)
    assert sig[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_h_function_value_at_maximizers():
    for name in ("diagonal", "interior-point"):
        mod = fixture(name)
        cls = asy.classify(mod)
        for t, s in cls.maximizers[:3]:
            assert h_function(mod, t, s) == pytest.approx(
                1.0 / (1.0 + cls.R), rel=1e-9)


def test_h_function_grows_off_maximizer():
    mod = fixture("interior-point")
    h0 = h_function(mod, 0.5, 0.5)
    for t, s in ((0.3, 0.5), (0.5, 0.7), (0.9, 0.1)):
        assert h_function(mod, t, s) > h0 + 1e-4


def test_h_hessian_corner_matches_finite_differences():
    # compare the closed Hessian to central differences taken slightly
    # inside the square; the FD error is O(base offset)
    for name in ("corner-degenerate", "diagonal"):
        mod = fixture(name)
        geo = asy.local_geometry(mod, 0.0, 0.0)
        R = geo.r
        H = asy.h_hessian_corner(geo, R)
        b, d = 0.03, 0.01
        h = lambda t, s: h_function(mod, t, s)
        htt = (h(b + d, b) - 2 * h(b, b) + h(b - d, b)) / d**2
        hss = (h(b, b + d) - 2 * h(b, b) + h(b, b - d)) / d**2
        hts = (h(b + d, b + d) - h(b + d, b - d) - h(b - d, b + d)
               + h(b - d, b - d)) / (4 * d * d)
        assert H[0, 0] == pytest.approx(htt, abs=5e-3)
        assert H[1, 1] == pytest.approx(hss, abs=5e-3)
        assert H[0, 1] == pytest.approx(hts, abs=5e-3)
        assert H[0, 1] == H[1, 0]


# ---------------------------------------------------------------------------
# closed-form terms

COEFFS = {
    #  name: (coefficient, power)
    "diagonal": (0.23329051492939901, 1),
    "interior-point": (1.2404900146990321, 2),
    "corner-nondegenerate": (0.4388972811088, 2),
    "corner-semidegenerate": (0.54591686791630933, 2),
    "corner-degenerate": (1.1296939154798729, 2),
    "edge-point": (0.69601581562134052, 2),
    "edge-point-degenerate": (1.3364422512630449, 2),
}


@pytest.mark.parametrize("name", sorted(COEFFS))
def test_closed_form_coefficients(name):
    mod = fixture(name)
    cls = asy.classify(mod)
    term = asy.closed_form(mod, cls, 4.0)
    coeff, power = COEFFS[name]
    assert term.coefficient == pytest.approx(coeff, rel=1e-10)
    assert term.power == power
    assert term.rate == pytest.approx(1.0 + EXPECTED_R[name], rel=1e-9)


def test_closed_form_transpose_invariance():
    for name in sorted(COEFFS):
        mod = fixture(name)
        tr = transpose(mod)
        a = asy.closed_form(mod, asy.classify(mod), 4.0)
        b = asy.closed_form(tr, asy.classify(tr), 4.0)
        assert b.coefficient == pytest.approx(a.coefficient, rel=1e-10)
        assert b.power == a.power


@dataclass(frozen=True)
class TiltedCorner(CrossCorrelation):
    """r(t, s) = c exp(-(t^2 - 2 rho t s + s^2) / 2), partials to order 2:
    maximal at the corner (0, 0) with both partials 0 there and the mixed
    second partial c rho, so its orthant probabilities have rho != 0."""

    c: float
    rho: float

    def partials(self, t, s, orders):
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        r = self.c * np.exp(-0.5 * (t * t - 2.0 * self.rho * t * s + s * s))
        qt, qs = self.rho * s - t, self.rho * t - s
        jet = {(0, 0): r, (1, 0): r * qt, (0, 1): r * qs, (2, 0): r * (qt * qt - 1.0),
               (0, 2): r * (qs * qs - 1.0), (1, 1): r * (qt * qs + self.rho)}
        return [jet[o] for o in orders]


@pytest.mark.parametrize("rho", [0.3, -0.3])
def test_corner_both_zero_orthants_are_sheppard(rho):
    # every fixture's both-zero corner has r12 = 0, where both orthant
    # probabilities are 1/4; here they are not, and the closed form's
    # arcsin must match the same coefficient built on the numeric kernel
    sq = SquaredExponential(1.0)
    mod = BivariateModel(sq, sq, TiltedCorner(0.5, rho))
    cls = asy.classify(mod)
    assert cls.tag == "Corner_BothZero"
    geo, big_r = cls.geometry, cls.R
    l1, l2, r11, r22, r12 = geo.lambda1, geo.lambda2, geo.r11, geo.r22, geo.r12
    assert r12 == pytest.approx(0.5 * rho, rel=1e-12)
    p_deriv = mvn_cdf(np.array([[l1, r12], [r12, l2]]), np.zeros(2)).value
    p_hess = mvn_cdf(asy.h_hessian_corner(geo, big_r), np.zeros(2)).value
    assert p_deriv == pytest.approx(0.25 + math.asin(rho / 2.0) / (2.0 * math.pi), rel=1e-12)
    factor = (p_deriv + math.sqrt(l1 - r11) / (2.0 * math.sqrt(-r11))
              + math.sqrt(l2 - r22) / (2.0 * math.sqrt(-r22))
              + p_hess * math.sqrt((l1 - r11) * (l2 - r22)) / math.sqrt(r11 * r22 - r12 ** 2))
    base = (1.0 + big_r) ** 2 / (2.0 * math.pi * math.sqrt(1.0 - big_r ** 2))
    term = asy.closed_form(mod, cls, 4.0)
    assert term.coefficient == pytest.approx(factor * base, rel=1e-12)


def test_asymptotic_term_evaluate():
    term = asy.AsymptoticTerm(2.0, 2, 1.5)
    assert term.evaluate(3.0) == pytest.approx(
        2.0 / 9.0 * math.exp(-9.0 / 1.5), rel=1e-15)


def test_asymptotic_term_validation():
    with pytest.raises(ArgumentError):
        asy.AsymptoticTerm(-1.0, 2, 1.5)
    with pytest.raises(ArgumentError):
        asy.AsymptoticTerm(1.0, 3, 1.5)
    with pytest.raises(ArgumentError):
        asy.AsymptoticTerm(1.0, 2, 2.5)

