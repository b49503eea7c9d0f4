"""Classification and closed-form leading-order terms.

The coefficient table at the bottom was cross-checked against slow
numerical Laplace integrals before freezing; tests compare the library's
closed forms to those numbers, not the other way around.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from jointeec.common import ArgumentError, RegimeError
from jointeec.gauss import condition, mvn_cdf
from jointeec.model import (BivariateModel, CrossCorrelation, SquaredExponential, fixture,
                            joint_cov, transpose)
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

