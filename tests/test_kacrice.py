"""Face-pair expansion of the expected Euler characteristic.

Most pins here come from two independent routes evaluated once at high
precision: block-structured Gaussian identities for the corner terms and
a product closed form for independent marginals.
"""

import math
import os

import numpy as np
import pytest
from scipy.stats import norm

from jointeec.common import RegimeError
from jointeec.gauss import mvn_cdf
from jointeec.model import (
    BivariateModel,
    ShiftMixture,
    SquaredExponential,
    fixture,
    independent_model,
    transpose,
)
from jointeec import kacrice as kr

BVN_335 = 8.1889661832192112e-5  # P{X>=3, Y>=3}, correlation 0.5

EEC_DIAGONAL_U3 = 2.3976429802220159e-4
EEC_INTERIOR_U3 = 2.0964332351250929e-4
# Independent route: the nested scipy.integrate.quad corner of
# perfbench/make_reference.corner_term(mod, 0, 0, 3, True, False) plus a
# QUADPACK edge term at rel 1e-12 gives 9.484122990781759e-05.
EEC_SEMIDEG_RESTRICTED_U3 = 9.48412299078176e-05


def total_from_terms(res):
    return sum(t.sign * t.value.value for t in res.terms)


# ---------------------------------------------------------------------------
# bookkeeping


def test_pair_order_and_signs():
    res = kr.eec(fixture("interior-point"), 3.0)
    assert tuple((t.face_x, t.face_y) for t in res.terms) == kr._PAIR_ORDER
    for t in res.terms:
        n_int = (t.face_x == "Interior") + (t.face_y == "Interior")
        assert t.sign == (-1) ** n_int


def test_total_is_signed_sum_of_terms():
    res = kr.eec(fixture("diagonal"), 3.0)
    assert res.total.value == pytest.approx(total_from_terms(res), abs=1e-18)


def test_interior_terms_negative_valued():
    # the raw edge and interior integrals are expectations of a second
    # derivative near a maximum, hence negative; the sign flip makes the
    # contributions positive
    res = kr.eec(fixture("diagonal"), 3.0)
    for t in res.terms:
        if t.face_x == "Interior" or t.face_y == "Interior":
            if (t.face_x, t.face_y) != ("Interior", "Interior"):
                assert t.value.value < 0.0
                assert t.sign * t.value.value > 0.0


# ---------------------------------------------------------------------------
# corner terms against plain Gaussian identities


def test_corner_term_unconstrained_is_bvn():
    mod = fixture("diagonal")
    est = kr.corner_corner_term(mod, 0.0, 0.0, 3.0, constrain_x=False, constrain_y=False)
    assert est.value == pytest.approx(BVN_335, rel=1e-6)


def test_corner_term_constrained_factorizes():
    # at a corner of the diagonal model the derivative pair (X', Y') is
    # independent of (X, Y) there, so the one-sided derivative constraints
    # factor out as orthant mass 1/3 for correlation 1/2
    mod = fixture("diagonal")
    est = kr.corner_corner_term(mod, 0.0, 0.0, 3.0)
    assert est.value == pytest.approx(BVN_335 / 3.0, rel=1e-10, abs=0.0)


def test_corner_term_independent_model():
    mod = independent_model()
    for u in (2.0, 6.0, 9.0):
        est = kr.corner_corner_term(mod, 0.0, 0.0, u)
        assert est.value == pytest.approx(norm.sf(u) ** 2 / 4.0, rel=1e-10, abs=0.0), u


def test_corner_term_error_is_relative_at_high_u():
    # the orthant engine's error bar scales with the value, so it stays
    # meaningful where the corner probability is ~1e-26
    est = kr.corner_corner_term(fixture("corner-nondegenerate"), 1.0, 0.0, 9.0)
    assert 0.0 < est.error <= 1e-6 * est.value


# ---------------------------------------------------------------------------
# integrand pins


def test_edge_integrand_pin():
    val = kr.edge_point_integrand(fixture("diagonal"), 0.5, 0.0, 3.0)
    assert val == pytest.approx(-1.1972036145310562e-05, rel=1e-8)


def test_interior_integrand_pin():
    val = kr.interior_interior_integrand(fixture("diagonal"), 0.5, 0.5, 3.0)
    assert val == pytest.approx(1.8708610805910145e-4, rel=1e-8)


def test_interior_integrand_independent_closed_form():
    # independent marginals: density of (X',Y') at 0 is 1/(2 pi) and each
    # factor reduces to -phi(u)
    val = kr.interior_interior_integrand(independent_model(), 0.5, 0.5, 3.0)
    phi = norm.pdf(3.0)
    assert val == pytest.approx(phi * phi / (2.0 * math.pi), rel=1e-10)


def test_integrands_vectorize():
    mod = fixture("diagonal")
    ts = np.array([0.2, 0.5, 0.8])
    vals = kr.edge_point_integrand(mod, ts, 0.0, 3.0)
    for i, t in enumerate(ts):
        assert vals[i] == pytest.approx(
            kr.edge_point_integrand(mod, float(t), 0.0, 3.0), rel=1e-12)


def test_conditional_hessian_coefficients_at_anchor():
    # E{X'' | X=x, Y=y, X'=Y'=0} = a1 x + b1 y; at the anchor of the
    # interior-point fixture the combined slope along x = y = u is exactly
    # (r11 - lambda1)/(1 + R) = -1, and likewise for Y''
    a1, b1, a2, b2, c12 = kr.conditional_hessian_coefficients(
        fixture("interior-point"), 0.5, 0.5)
    assert a1 + b1 == pytest.approx(-1.0, rel=1e-12)
    assert a2 + b2 == pytest.approx(-1.0, rel=1e-12)
    assert c12 == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# face-pair integrals and assembly


def test_face_pair_integral_pin():
    t = kr.face_pair_integral(fixture("diagonal"), "Interior", "Left", 3.0)
    assert t.sign == -1
    assert t.value.value == pytest.approx(-1.8255557801617352e-05, rel=1e-6)


def test_face_pair_matches_corner_helper():
    mod = fixture("diagonal")
    t = kr.face_pair_integral(mod, "Left", "Left", 3.0)
    direct = kr.corner_corner_term(mod, 0.0, 0.0, 3.0)
    assert t.value.value == pytest.approx(direct.value, rel=1e-10)
    assert t.sign == 1


def test_eec_pins():
    assert kr.eec(fixture("diagonal"), 3.0).total.value == pytest.approx(
        EEC_DIAGONAL_U3, rel=1e-6)
    assert kr.eec(fixture("interior-point"), 3.0).total.value == pytest.approx(
        EEC_INTERIOR_U3, rel=1e-6)


def test_eec_independent_model_factorizes():
    # with r = 0 the expectation factorizes into two interval terms
    # [survival + sqrt(lambda)/(2 pi) exp(-u^2/2)] each; this closed form
    # is exact, not asymptotic
    mod = independent_model()
    lam = mod.lambda1
    for u in (2.0, 3.0):
        one_dim = norm.sf(u) + math.sqrt(lam) / (2.0 * math.pi) * math.exp(-0.5 * u * u)
        res = kr.eec(mod, u)
        assert res.total.value == pytest.approx(one_dim**2, rel=1e-8)


def test_eec_transpose_symmetric():
    mod = fixture("corner-nondegenerate")
    a = kr.eec(mod, 3.0).total.value
    b = kr.eec(transpose(mod), 3.0).total.value
    assert b == pytest.approx(a, rel=1e-12)


def test_eec_threads_deterministic():
    mod = fixture("diagonal")
    seq = kr.eec(mod, 3.0, threads=1).total.value
    par = kr.eec(mod, 3.0, threads=2).total.value
    assert par == seq


def test_eec_total_error_does_not_underflow():
    # every term error is ~1e-192 here; squaring them would underflow to 0
    res = kr.eec(fixture("diagonal"), 25.0)
    assert res.total.error > 0.0
    assert res.total.error >= max(t.value.error for t in res.terms)


# ---------------------------------------------------------------------------
# restricted mode


def test_restricted_term_structure():
    cases = {
        "corner-nondegenerate": [("Right", "Left", 1)],
        "corner-semidegenerate": [("Left", "Left", 1), ("Interior", "Left", -1)],
        "edge-point": [("Interior", "Left", -1)],
        "interior-point": [("Interior", "Interior", 1)],
    }
    for name, expected in cases.items():
        res = kr.eec(fixture(name), 3.0, restricted=True)
        assert [(t.face_x, t.face_y, t.sign) for t in res.terms] == expected


def test_restricted_pin():
    res = kr.eec(fixture("corner-semidegenerate"), 3.0, restricted=True)
    assert res.total.value == pytest.approx(EEC_SEMIDEG_RESTRICTED_U3, rel=1e-6)


def test_restricted_rejects_ridge():
    with pytest.raises(RegimeError):
        kr.eec(fixture("diagonal"), 3.0, restricted=True)


def test_restricted_dominates_at_high_level():
    # boundary pairs decay at the slower corner rate exp(-u^2/(1+r_corner)),
    # so the interior share climbs toward 1 but only gradually
    shares = []
    for u in (5.0, 6.0, 8.0):
        full = kr.eec(fixture("interior-point"), u).total.value
        part = kr.eec(fixture("interior-point"), u, restricted=True).total.value
        shares.append(part / full)
    assert shares[0] < shares[1] < shares[2]
    assert 0.0 < shares[0] < 1.0
    assert shares[2] > 0.95


# ---------------------------------------------------------------------------
# agreement with the closed forms where the expansion converges fast

from jointeec import asymptotics as asy


def ratio(name, u, restricted=False):
    mod = fixture(name)
    cf = asy.closed_form(mod, asy.classify(mod), u).evaluate(u)
    ee = kr.eec(mod, u, restricted=restricted).total.value
    return ee / cf


def test_ratio_converges_corner_semidegenerate():
    assert ratio("corner-semidegenerate", 9.0) == pytest.approx(1.0, abs=0.01)


def test_ratio_converges_edge_point():
    assert ratio("edge-point", 9.0) == pytest.approx(1.0, abs=0.01)


def test_ratio_degenerate_cases_monotone():
    # the fully degenerate corner and edge cases carry equal-order
    # contributions that the closed forms count with a larger constant; the
    # measured ratios increase toward their limits but sit well below 1
    # at reachable levels
    for name, limit, at9 in (
        ("corner-degenerate", 0.6830127, 0.652021),
        ("edge-point-degenerate", 0.7320508, 0.700226),
    ):
        r = [ratio(name, u) for u in (4.5, 6.0, 9.0)]
        assert r[0] < r[1] < r[2] < limit
        assert r[2] == pytest.approx(at9, abs=0.005)
        assert limit - r[2] < 0.035


def test_eec_against_monte_carlo_corner_degenerate():
    from jointeec.montecarlo import estimate_eec
    mod = fixture("corner-degenerate")
    ee = kr.eec(mod, 2.5).total.value
    mc = estimate_eec(mod, 2.5, 512, 20000, 42)
    assert abs(mc.value - ee) < 3.0 * mc.error
