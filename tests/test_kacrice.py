"""Face-pair expansion of the expected Euler characteristic.

Most pins here come from two independent routes evaluated once at high
precision: block-structured Gaussian identities for the corner terms and
a product closed form for independent marginals.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from jointeec.common import DEFAULT_TOL, ConsistencyError, RegimeError
from jointeec.gauss import condition, mvn_cdf
from jointeec.model import (
    _FIXTURE_NAMES,
    BivariateModel,
    PointAnchor,
    ShiftMixture,
    SquaredExponential,
    fixture,
    independent_model,
    joint_cov,
    transpose,
)
from jointeec import asymptotics as asy
from jointeec import gauss
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
    c, _ = kr._interior_conditional(fixture("interior-point"), 0.5, 0.5)
    a1, b1, a2, b2, c12 = (float(v[0]) for v in kr._hessian_regression(c))
    assert a1 + b1 == pytest.approx(-1.0, rel=1e-12)
    assert a2 + b2 == pytest.approx(-1.0, rel=1e-12)
    assert c12 == pytest.approx(0.0, abs=1e-13)


def test_conditional_covariances_match_conditioning():
    # the integrands' explicit 2 x 2 algebra against an independent
    # construction: the joint covariance of values and derivatives,
    # conditioned on the zero-derivative coordinates by Cholesky
    rng = np.random.default_rng(20261018)
    for name in _FIXTURE_NAMES:
        for mod in (fixture(name), transpose(fixture(name))):
            t, s = rng.random(50), rng.random(50)
            for s0, es in ((0.0, -1.0), (1.0, 1.0)):
                c = kr._edge_conditional(mod, t, s0, es)
                for i in range(50):
                    full = joint_cov(mod, [("X", t[i], 0), ("Y", s0, 0), ("Y", s0, 1),
                                           ("X", t[i], 2), ("X", t[i], 1)])
                    ref = condition(full, (4,)).residual_cov
                    ref[2, :] *= es
                    ref[:, 2] *= es
                    np.testing.assert_allclose(kr._dense(c, i), ref, rtol=1e-12, atol=0.0,
                                               err_msg=f"{mod.label} edge s0={s0} t={t[i]}")
            c, dens0 = kr._interior_conditional(mod, t, s)
            for i in range(50):
                full = joint_cov(mod, [("X", t[i], 0), ("Y", s[i], 0), ("X", t[i], 2),
                                       ("Y", s[i], 2), ("X", t[i], 1), ("Y", s[i], 1)])
                ref = condition(full, (4, 5)).residual_cov
                np.testing.assert_allclose(kr._dense(c, i), ref, rtol=1e-12, atol=0.0,
                                           err_msg=f"{mod.label} interior ({t[i]}, {s[i]})")
                density = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(full[4:, 4:])))
                assert dens0[i] == pytest.approx(density, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# face-pair integrals and assembly

INTEGRATED_PAIRS = (("Interior", "Left"), ("Right", "Interior"), ("Interior", "Interior"))


def _wrap_integrands(monkeypatch, change):
    """Route both integrands through change(nodes, values), where nodes is
    an (m, k) array of the points evaluated and values an (m,) array; a
    scalar call still returns a scalar."""
    edge, interior = kr._edge_integrands, kr.interior_interior_integrand

    def through(nodes, vals):
        out = change(nodes, np.atleast_1d(vals))
        return float(out[0]) if np.ndim(vals) == 0 else out

    def edge_shim(specs, ts, u):
        # the edge terms' one batched integrand: one node array per spec
        return [through(np.reshape(t, (-1, 1)), v) for t, v in zip(ts, edge(specs, ts, u))]

    def interior_shim(model, t, s, u):
        return through(np.column_stack([np.ravel(t), np.ravel(s)]), interior(model, t, s, u))

    monkeypatch.setattr(kr, "_edge_integrands", edge_shim)
    monkeypatch.setattr(kr, "interior_interior_integrand", interior_shim)


def test_spot_checks_make_no_integrand_call(monkeypatch):
    # the spot check reads its probe from the rule's first batch, so every
    # integrand call is a batch of the rule, none a single probe node
    sizes = []

    def record(nodes, vals):
        sizes.append((np.ndim(vals), np.size(vals)))
        return vals

    _wrap_integrands(monkeypatch, record)
    for fx, fy in INTEGRATED_PAIRS:
        sizes.clear()
        kr.face_pair_integral(fixture("interior-point"), fx, fy, 3.0)
        assert sizes and all(ndim == 1 and n >= 15 for ndim, n in sizes), (fx, fy)


@pytest.mark.parametrize("fx,fy", INTEGRATED_PAIRS)
def test_spot_check_reads_the_centre_node(monkeypatch, fx, fy):
    # shifting the integrand at the probe node alone must trip the check:
    # t = 0.5 is the centre node of GK15 on [0, 1], (0.5, 0.5) the centre of
    # the middle cell of the cubature's 3 x 3 starting grid
    def bump(nodes, vals):
        return vals + np.where(np.all(nodes == 0.5, axis=1), 1e-3, 0.0)

    _wrap_integrands(monkeypatch, bump)
    with pytest.raises(ConsistencyError):
        kr.face_pair_integral(fixture("interior-point"), fx, fy, 3.0)


def test_spot_check_runs_the_direct_cubature_alone(monkeypatch):
    # the check compares the integrand with one direct cubature of the same
    # truncated moment; it computes no orthant probability on the side
    orthants, cubatures = [], []
    orig_cdf, orig_quad = gauss.mvn_cdf, gauss._route_quadrature

    def spy_cdf(*args):
        orthants.append(1)
        return orig_cdf(*args)

    def spy_quad(*args):
        cubatures.append(1)
        return orig_quad(*args)

    monkeypatch.setattr(gauss, "mvn_cdf", spy_cdf)
    monkeypatch.setattr(gauss, "_route_quadrature", spy_quad)
    pairs = [p for p in kr._PAIR_ORDER if "Interior" in p]
    assert len(pairs) == 5
    for fx, fy in pairs:
        orthants.clear()
        cubatures.clear()
        kr.face_pair_integral(fixture("interior-point"), fx, fy, 3.0)
        assert (len(orthants), len(cubatures)) == (0, 1), (fx, fy)


@pytest.mark.parametrize("name", ["diagonal", "interior-point"])
def test_integrand_batches_evaluate_the_cross_form_once(monkeypatch, name):
    # every cross-correlation partial a batch of nodes needs comes from one
    # evaluation of the cross form (its kernels' exp taken once), not one
    # per derivative order
    mod = fixture(name)
    calls = []
    for attr in ("partial", "partials"):
        real = getattr(type(mod.cross), attr, None)
        if real is None:
            continue

        def spy(self, *args, _real=real):
            calls.append(1)
            return _real(self, *args)

        monkeypatch.setattr(type(mod.cross), attr, spy)
    t = np.linspace(0.05, 0.95, 17)
    kr.interior_interior_integrand(mod, t, t[::-1], 4.5)
    assert len(calls) == 1
    calls.clear()
    kr.edge_point_integrand(mod, t, 1.0, 4.5)
    assert len(calls) == 1


# X and Y on different length scales: lambda1 != lambda2, so the edge
# integrand's scale differs between the model and its transpose
UNEQUAL_SCALES = BivariateModel(
    SquaredExponential(0.7), SquaredExponential(1.2),
    PointAnchor(0.5, 0.3, 0.6, SquaredExponential(0.7), SquaredExponential(1.2)),
    label="unequal-scales")


@pytest.mark.parametrize("mod", [fixture(n) for n in _FIXTURE_NAMES] + [UNEQUAL_SCALES],
                         ids=lambda m: m.label)
def test_eec_terms_equal_face_pair_integral(mod):
    # eec refines its vertex x edge pairs in lockstep; each term must still
    # be the one face_pair_integral computes for that pair alone, bit for bit
    modes = [(False, True, True)]
    if mod.label != "diagonal":  # the restricted sum needs a unique maximizer
        _, x_flat, y_flat = kr._restricted_pairs(mod, asy.classify(mod),
                                                 DEFAULT_TOL.gradient_tol)
        modes.append((True, x_flat, y_flat))
    for u in (3.0, 7.5):
        for restricted, constrain_x, constrain_y in modes:
            for term in kr.eec(mod, u, restricted=restricted).terms:
                alone = kr.face_pair_integral(mod, term.face_x, term.face_y, u,
                                              constrain_x, constrain_y)
                assert term == alone, (u, restricted, term.face_x, term.face_y)


def test_eec_calls_the_edge_integrand_once_per_pass(monkeypatch):
    # on interior-point at u = 3 each of the four edge integrals converges on
    # its first panel: one call carries all four, not one call each; their
    # four spot checks go through the direct route in one call too
    calls, routes = [], []
    orig, orig_route = kr._edge_integrands, gauss._route_quadrature

    def counting(specs, ts, u):
        calls.append([np.size(t) for t in ts])
        return orig(specs, ts, u)

    def counting_route(regions, monomial):
        routes.append(len(regions))
        return orig_route(regions, monomial)

    monkeypatch.setattr(kr, "_edge_integrands", counting)
    monkeypatch.setattr(gauss, "_route_quadrature", counting_route)
    kr.eec(fixture("interior-point"), 3.0)
    assert calls == [[15, 15, 15, 15]]
    assert routes == [4, 1]  # the edge terms' checks, then the interior pair's


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


def test_full_sum_never_classifies(monkeypatch):
    # the face-pair sum does not depend on where r peaks; only the
    # restricted sum needs the maximizer
    def refuse(model):
        raise AssertionError("classify called")

    monkeypatch.setattr(asy, "classify", refuse)
    assert kr.eec(fixture("diagonal"), 3.0).total.value > 0.0
    assert kr.eec(independent_model(), 3.0).total.value > 0.0
    with pytest.raises(AssertionError, match="classify called"):
        kr.eec(fixture("interior-point"), 3.0, restricted=True)


# perfbench/reference.json: the ridge integrated in rotated coordinates by
# nested scipy quad at rel 1e-11, corners by nested quad with no part of gauss
DIAGONAL_FULL_REFERENCE = {
    3.0: 2.3976447738843564e-4,
    6.0: 1.7596424946087936e-12,
    9.0: 1.0560597268162591e-25,
}


@pytest.mark.parametrize("u", sorted(DIAGONAL_FULL_REFERENCE))
def test_diagonal_ridge_through_the_cubature(u):
    ref = DIAGONAL_FULL_REFERENCE[u]
    total = kr.eec(fixture("diagonal"), u).total
    assert total.value == pytest.approx(ref, rel=1e-8, abs=0.0)
    assert total.error >= abs(total.value - ref)


def test_narrow_ridge_interior_term():
    # r = 0.5 exp(-(t-s)^2 / 0.02): the ridge is ten times narrower than the
    # fixture's; value from nested adaptive rules in w = t-s, z = t+s
    from test_acceptance import elapsed_under

    k = SquaredExponential(0.1)
    mod = BivariateModel(k, k, ShiftMixture(0.5, 0.0, k))
    with elapsed_under(30.0):
        term = kr.face_pair_integral(mod, "Interior", "Interior", 6.0)
    assert term.value.value == pytest.approx(1.3583102782213068e-11, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("scale", [0.3, 0.1, 0.05])
def test_short_scale_ridge_sums_at_moderate_level(scale):
    # the interior spot check's direct route gave up on these ridges at
    # u = 3 while it integrated over 4 coordinates, two of them free; over
    # the two bounded ones it converges and the check passes
    k = SquaredExponential(scale)
    mod = BivariateModel(k, k, ShiftMixture(0.5, 0.0, k))
    res = kr.eec(mod, 3.0)
    assert res.total.value > 0.0
    assert not res.total.low_confidence
    assert res.total.error < 1e-5 * res.total.value


def test_eec_total_error_does_not_underflow():
    # every term error is ~1e-192 here; squaring them would underflow to 0
    res = kr.eec(fixture("diagonal"), 25.0)
    assert res.total.error > 0.0
    assert res.total.error >= max(t.value.error for t in res.terms)


UNDERFLOW_FIXTURES = ("interior-point", "diagonal", "corner-nondegenerate")


@pytest.mark.parametrize("name", UNDERFLOW_FIXTURES)
@pytest.mark.parametrize("u", [35.0, 40.0])
def test_eec_flags_a_sum_that_underflowed(name, u):
    # far enough out every term is exactly 0.0 in double precision; a
    # 0.0 +- 0.0 that claimed full confidence would read as a converged zero
    res = kr.eec(fixture(name), u)
    assert all(t.value.value == 0.0 for t in res.terms)
    assert res.total.value == 0.0
    assert res.total.low_confidence
    assert any("underflowed" in note for note in res.total.notes)


@pytest.mark.parametrize("name", UNDERFLOW_FIXTURES)
def test_eec_does_not_flag_a_zero_term(name):
    # at u = 30 the sums are still representable (1e-264 to 1e-259); the
    # diagonal's (Left, Right) corner is already 0.0 there, and one zero
    # term is not an underflowed sum
    res = kr.eec(fixture(name), 30.0)
    assert res.total.value > 0.0
    assert not res.total.low_confidence
    assert res.total.notes == ()
    if name == "diagonal":
        assert dict(((t.face_x, t.face_y), t.value.value)
                    for t in res.terms)[("Left", "Right")] == 0.0

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


@pytest.mark.parametrize("u", [6.0, 9.0])
def test_restricted_corner_error_is_relative(u):
    # the only term is a 2-D orthant of ~1e-13 (u=6) and ~1e-26 (u=9); an
    # absolute floor in its error bar would swamp it
    total = kr.eec(fixture("corner-nondegenerate"), u, restricted=True).total
    assert 0.0 < total.error <= 1e-6 * total.value
    assert not total.low_confidence


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
