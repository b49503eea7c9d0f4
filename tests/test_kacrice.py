"""Face-pair expansion of the expected Euler characteristic.

Most pins here come from two independent routes evaluated once at high
precision: block-structured Gaussian identities for the corner terms and
a product closed form for independent marginals.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.stats import norm

from jointeec.common import DEFAULT_TOL, AccuracyError, ConsistencyError, RegimeError
from jointeec.gauss import condition, mvn_cdf
from jointeec.model import (
    _FIXTURE_NAMES,
    BivariateModel,
    CrossCorrelation,
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


# interior_interior_integrand off the spot checks' probes, at u = 3, 6, 9,
# as the regression of (X'', Y'') on (X, Y) computed it: interior-point, a
# transposed corner, and the lag integral's points (v, 0) and (0, v)
INTERIOR_OFF_PROBE = (
    (fixture("interior-point"), (0.2, 0.7),
     (1.1229943460862128e-04, 1.0272170702141293e-12, 3.8233583288828637e-26)),
    (fixture("interior-point"), (0.8, 0.35),
     (1.1635938031404102e-04, 1.1438417660727784e-12, 4.796589335922333e-26)),
    (transpose(fixture("corner-nondegenerate")), (0.15, 0.9),
     (2.2370302643646395e-05, 2.654282138675825e-14, 3.1781294865563386e-29)),
    (transpose(fixture("corner-nondegenerate")), (0.6, 0.3),
     (3.7016433420483285e-06, 5.556649001698912e-17, 4.949229982028634e-35)),
    (fixture("diagonal"), (0.3, 0.0),
     (1.1188938118610206e-04, 8.230248588656533e-13, 2.2922595474202675e-26)),
    (fixture("diagonal"), (0.0, 0.3),
     (1.1188938118610206e-04, 8.230248588656533e-13, 2.2922595474202675e-26)),
    (fixture("diagonal"), (0.85, 0.0),
     (1.5805585341376208e-05, 7.182305611682543e-15, 1.7564314965868565e-30)),
    (fixture("diagonal"), (0.0, 0.85),
     (1.5805585341376208e-05, 7.182305611682543e-15, 1.7564314965868565e-30)),
)


@pytest.mark.parametrize("mod,node,pins", INTERIOR_OFF_PROBE,
                         ids=[f"{m.label}-{t:g}-{s:g}" for m, (t, s), _ in INTERIOR_OFF_PROBE])
def test_interior_integrand_off_the_probe(mod, node, pins):
    # the spot check sees the centre node only; these pin the rest
    for u, pin in zip((3.0, 6.0, 9.0), pins):
        val = kr.interior_interior_integrand(mod, *node, u)
        assert val == pytest.approx(pin, rel=1e-13, abs=0.0), u


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
    cov = kr._dense(kr._interior_conditional(fixture("interior-point"), 0.5, 0.5)[0])
    (a1, a2), (b1, b2) = np.linalg.solve(cov[:2, :2], cov[:2, 2:])
    c12 = cov[2, 3] - (a1 * cov[0, 3] + b1 * cov[1, 3])
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
                c = kr._edge_conditional(mod, t, s0)
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
        kr.face_pair_integral(_cubature_twin(fixture("interior-point")), fx, fy, 3.0)
        assert sizes and all(ndim == 1 and n >= 15 for ndim, n in sizes), (fx, fy)


@pytest.mark.parametrize("fx,fy", INTEGRATED_PAIRS)
def test_spot_check_reads_the_centre_node(monkeypatch, fx, fy):
    # shifting the integrand at the probe node alone must trip the check:
    # t = 0.5 is the centre node of GK15 on [0, 1], (0.5, 0.5) the centre
    # node of the cubature's first 15 x 15 box
    def bump(nodes, vals):
        return vals + np.where(np.all(nodes == 0.5, axis=1), 1e-3, 0.0)

    _wrap_integrands(monkeypatch, bump)
    with pytest.raises(ConsistencyError):
        kr.face_pair_integral(_cubature_twin(fixture("interior-point")), fx, fy, 3.0)


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
        kr.face_pair_integral(_cubature_twin(fixture("interior-point")), fx, fy, 3.0)
        assert (len(orthants), len(cubatures)) == (0, 1), (fx, fy)


@pytest.mark.parametrize("name", ["diagonal", "interior-point"])
def test_integrand_batches_evaluate_the_cross_form_once(monkeypatch, name):
    # every cross-correlation partial a batch of nodes needs comes from one
    # evaluation of the cross form (its kernels' exp taken once), not one
    # per derivative order; the point anchor behind PartialsOnly, whose
    # interior pair takes the cubature over this integrand
    mod = fixture(name) if name == "diagonal" else _cubature_twin(fixture(name))
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


def test_eec_evaluates_each_cross_form_once_per_edge_pass(monkeypatch):
    # each pass of the edge terms makes one _edge_conditional call per cross
    # form among its integrals (a full sum's: the model and its transpose),
    # and their spot checks make none: the probe covariances come from the
    # first batch
    calls, forms = [], []
    orig_cond, orig_edge = kr._edge_conditional, kr._edge_integrands

    def counting_cond(model, t, s0):
        calls.append(np.size(t))
        return orig_cond(model, t, s0)

    def counting_edge(specs, ts, u):
        forms.append(len({id(spec.model) for spec, t in zip(specs, ts) if np.size(t)}))
        return orig_edge(specs, ts, u)

    monkeypatch.setattr(kr, "_edge_conditional", counting_cond)
    monkeypatch.setattr(kr, "_edge_integrands", counting_edge)
    kr.eec(fixture("interior-point"), 3.0)
    assert (forms, calls) == ([2], [30, 30])  # one pass, four 15-node integrals
    for name in _FIXTURE_NAMES:
        for u in (3.0, 9.0):
            calls.clear()
            forms.clear()
            kr.eec(fixture(name), u)
            assert len(calls) == sum(forms) and set(forms) <= {1, 2}, (name, u)


def test_corner_terms_evaluate_the_cross_form_once(monkeypatch):
    # a sum's corners read the partials of r at all four corners from one
    # cross-form evaluation, and each keeps the bits of corner_corner_term
    pairs = [p for p in kr._PAIR_ORDER if "Interior" not in p]
    for name in ("interior-point", "corner-nondegenerate"):
        mod = fixture(name)
        alone = [kr.corner_corner_term(mod, kr._POINT[fx], kr._POINT[fy], 3.0) for fx, fy in pairs]
        calls = []
        real = type(mod.cross).partials

        def spy(self, *args, _real=real):
            calls.append(1)
            return _real(self, *args)

        monkeypatch.setattr(type(mod.cross), "partials", spy)
        terms = kr._corner_terms(mod, pairs, 3.0, True, True)
        monkeypatch.undo()
        assert len(calls) == 1
        assert [t.value for t in terms] == alone


def test_edge_spot_checks_read_the_first_batch_covariance(monkeypatch):
    # each edge spot check's covariance is the first batch's conditional
    # covariance at t = 0.5, the same bits as a fresh _edge_conditional
    # there.  The check's tolerance is absolute, so a covariance read at
    # another node could still pass it; this compares the matrices exactly
    batches, checked = [], []
    orig_edge, orig_check = kr._edge_integrands, kr._spot_check

    def recording_edge(specs, ts, u):
        batches.append(specs)
        return orig_edge(specs, ts, u)

    def comparing_check(checks, monomial):
        if monomial == (0, 0, 0, 1):  # the edge terms' checks
            specs = batches[-1] if batches else []
            assert len(checks) == len(specs)
            for (_, _, cov, _, _), spec in zip(checks, specs):
                fresh = kr._dense(kr._edge_conditional(spec.model, 0.5, spec.s0))
                assert cov.tolist() == fresh.tolist()
                checked.append(spec.model.label)
        return orig_check(checks, monomial)

    monkeypatch.setattr(kr, "_edge_integrands", recording_edge)
    monkeypatch.setattr(kr, "_spot_check", comparing_check)
    for name in _FIXTURE_NAMES:
        for mod in (fixture(name), transpose(fixture(name))):
            batches.clear()
            kr.eec(mod, 3.0)
            if name != "diagonal":  # the restricted sum needs a unique maximizer
                batches.clear()
                kr.eec(mod, 6.0, restricted=True)
    assert len(checked) > 4 * 14


def test_edge_integrands_batch_mixed_specs_bit_for_bit():
    # specs of two cross forms, both endpoints, with and without the
    # endpoint constraint and with no nodes, in one call: each gets the bits
    # it gets alone, and a spec whose nodes hold t = 0.5 keeps its
    # conditional covariance there
    mod = fixture("edge-point")
    tr = transpose(mod)
    specs = [kr._EdgeSpec(mod, 0.0, True), kr._EdgeSpec(tr, 1.0, False),
             kr._EdgeSpec(mod, 1.0, False), kr._EdgeSpec(tr, 0.0, True),
             kr._EdgeSpec(mod, 0.0, False)]
    rng = np.random.default_rng(5)
    ts = [rng.random(7), np.empty(0), np.append(rng.random(14), 0.5), rng.random(3),
          np.insert(rng.random(10), 4, 0.5)]
    out = kr._edge_integrands(specs, ts, 4.5)
    for spec, t, vals in zip(specs, ts, out):
        alone = kr.edge_point_integrand(spec.model, t, spec.s0, 4.5, spec.constrain)
        assert vals.tolist() == alone.tolist()
        if 0.5 in t:
            fresh = kr._dense(kr._edge_conditional(spec.model, 0.5, spec.s0))
            assert spec.probe.tolist() == fresh.tolist()
        else:
            assert spec.probe is None


@pytest.mark.parametrize("name, calls", [("interior-point", 1), ("corner-nondegenerate", 2)])
def test_eec_evaluates_its_corners_in_one_kernel_call(monkeypatch, name, calls):
    # a full sum's four corner orthants go through one mvn_cdfs call, which
    # makes one bivariate kernel call for all of them (_bvn_parts, which
    # _bvn_survival_batch wraps, so every kernel call is counted); two of
    # corner-nondegenerate's corners have no split without a negative cross
    # entry, and one more call chooses the splits of both
    stacks, kernel, inside = [], [], []
    orig_cdfs, orig_parts = gauss.mvn_cdfs, gauss._bvn_parts

    def cdfs(regions):
        stacks.append(len(regions))
        inside.append(True)
        try:
            return orig_cdfs(regions)
        finally:
            inside.pop()

    def parts(*args):
        if inside:
            kernel.append(1)
        return orig_parts(*args)

    monkeypatch.setattr(gauss, "mvn_cdfs", cdfs)
    monkeypatch.setattr(gauss, "_bvn_parts", parts)
    kr.eec(fixture(name), 3.0)
    assert stacks == [4]
    assert len(kernel) == calls


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


@dataclass(frozen=True)
class PartialsOnly(CrossCorrelation):
    """A cross form that implements partials and nothing else, by
    delegating to the form it wraps."""

    inner: CrossCorrelation

    def partials(self, t, s, orders):
        return self.inner.partials(t, s, orders)


_SQ = SquaredExponential(1.0)
# the interior-point fixture's form, and an edge-point form maximal at
# (0, 0.5), so the restricted sum keeps a Y-edge and classify mirrors it
PARTIALS_ONLY = tuple(
    BivariateModel(_SQ, _SQ, PartialsOnly(inner), label=f"partials-only-{name}")
    for name, inner in (("interior", PointAnchor(0.5, 0.5, 0.5, _SQ, _SQ)),
                        ("edge", PointAnchor(0.5, -0.3, 0.5, _SQ, _SQ))))


@pytest.mark.parametrize("mod", PARTIALS_ONLY, ids=lambda m: m.label)
def test_any_cross_form_reaches_eec(mod):
    # the Y-edges and the mirrored classification read transpose(model),
    # which takes any cross form through r'(t, s) = r(s, t).  The point
    # anchor itself integrates its interior pair given the anchor, the
    # undeclared form by the cubature: those two agree within their errors,
    # and the interior integrand both would integrate is the same, bit for bit
    wrapped = BivariateModel(mod.kernel_x, mod.kernel_y, mod.cross.inner)
    t, s = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)))
    for u in (3.0, 6.0):
        assert np.array_equal(kr.interior_interior_integrand(mod, t, s, u),
                              kr.interior_interior_integrand(wrapped, t, s, u)), u
        for restricted in (False, True):
            terms = kr.eec(mod, u, restricted=restricted).terms
            ref = kr.eec(wrapped, u, restricted=restricted).terms
            assert [(t.face_x, t.face_y) for t in terms] == [(t.face_x, t.face_y) for t in ref]
            for term, other in zip(terms, ref):
                if (term.face_x, term.face_y) == ("Interior", "Interior"):
                    gap = abs(term.value.value - other.value.value)
                    assert gap <= term.value.error + other.value.error, (u, restricted)
                else:
                    assert term == other, (u, restricted, term.face_x, term.face_y)


def _cubature_twin(mod):
    """mod with its cross form behind PartialsOnly, which declares neither
    lag_only nor an anchor: its interior pair goes through the cubature
    over [0,1]^2."""
    return BivariateModel(mod.kernel_x, mod.kernel_y, PartialsOnly(mod.cross), label=mod.label)


# three shift mixtures and their transposes
LAG_ONLY = tuple(m for mod in (fixture("diagonal"), fixture("corner-nondegenerate"),
                               BivariateModel(_SQ, _SQ, ShiftMixture(0.5, 0.5, _SQ),
                                              label="shift-0.5-0.5"))
                 for m in (mod, transpose(mod)))


@pytest.mark.parametrize("mod", LAG_ONLY, ids=lambda m: m.label)
def test_lag_interior_term_agrees_with_the_cubature(mod):
    # two routes to one double integral: int_0^1 (1 - v)(f(v) + f(-v)) dv
    # for the lag-only form, the 2-D cubature for the same form undeclared
    twin = _cubature_twin(mod)
    assert mod.cross.lag_only and not twin.cross.lag_only
    for u in (3.0, 6.0, 9.0):
        lag = kr.face_pair_integral(mod, "Interior", "Interior", u).value
        cubature = kr.face_pair_integral(twin, "Interior", "Interior", u).value
        assert abs(lag.value - cubature.value) <= cubature.error, u


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "reference.json"), encoding="utf-8") as _fh:
    REFERENCE_SUMS = json.load(_fh)["face_sums"]


@pytest.mark.parametrize("name", ["diagonal", "corner-nondegenerate"])
def test_lag_interior_term_against_reference(name):
    # the reference integrates both coordinates by nested scipy quad; the lag
    # integral meets it to 1e-12 in at most 500 integrand points (a count,
    # so the pin repeats exactly)
    for u in (3.0, 4.5, 6.0, 7.5, 9.0):
        ref = REFERENCE_SUMS[f"{name}|u={u:g}|full"]["terms"]["Interior-Interior"]
        est = kr.face_pair_integral(fixture(name), "Interior", "Interior", u).value
        assert est.value == pytest.approx(ref, rel=1e-12, abs=0.0), u
        assert est.n <= 500, u


# the five point-anchor fixtures and their transposes, and point anchors
# with unequal scales, anchors outside [0, 1], c = 0, c near 1 and a short
# scale
_ANCHOR_CASES = (
    ("unequal-0.7-1.2", 0.5, 0.3, 0.6, 0.7, 1.2),
    ("outside-1.4--0.5", 0.5, 1.4, -0.5, 1.0, 1.0),
    ("c-0", 0.0, 0.5, 0.5, 1.0, 1.0),
    ("c-0.95", 0.95, 0.5, 0.5, 1.0, 1.0),
    ("c-0.99", 0.99, 0.5, 0.5, 1.0, 1.0),
    ("c-0.9999", 0.9999, 0.5, 0.5, 1.0, 1.0),
    ("scale-0.15", 0.5, 0.5, 0.5, 0.15, 0.15),
)
ANCHORED = tuple(m for name in ("interior-point", "corner-semidegenerate", "corner-degenerate",
                                "edge-point", "edge-point-degenerate")
                 for m in (fixture(name), transpose(fixture(name)))) + tuple(
    BivariateModel(SquaredExponential(sx), SquaredExponential(sy),
                   PointAnchor(c, ts, ss, SquaredExponential(sx), SquaredExponential(sy)),
                   label=label)
    for label, c, ts, ss, sx, sy in _ANCHOR_CASES)


@pytest.mark.parametrize("mod", ANCHORED, ids=lambda m: m.label)
def test_anchored_interior_term_agrees_with_the_cubature(mod):
    # two routes to one double integral: one Gauss-Hermite sum in the
    # anchor's xi of two 1-D integrals, and the 2-D cubature for the same
    # form undeclared
    twin = _cubature_twin(mod)
    assert kr._anchored(mod) and not kr._anchored(twin)
    for u in (3.0, 6.0, 9.0):
        anchored = kr.face_pair_integral(mod, "Interior", "Interior", u).value
        cubature = kr.face_pair_integral(twin, "Interior", "Interior", u).value
        assert abs(anchored.value - cubature.value) <= anchored.error + cubature.error, u


def test_anchored_interior_independent_closed_form():
    # c = 0: X and Y are independent, and each 1-D factor is
    # -sqrt(lambda) phi(u) / sqrt(2 pi) whatever xi
    (mod,) = [m for m in ANCHORED if m.label == "c-0"]
    for u in (3.0, 6.0, 9.0):
        est = kr.face_pair_integral(mod, "Interior", "Interior", u).value
        assert est.value == pytest.approx(norm.pdf(u) ** 2 / (2.0 * math.pi), rel=1e-13, abs=0.0)


def test_anchored_interior_terms_against_reference():
    # every interior pair of a point-anchor sum in perfbench/reference.json
    # (nested scipy quad at 1e-12), read only: within 1e-12, and the error
    # bar covers the gap
    cases = [(key, entry["terms"]["Interior-Interior"]) for key, entry in REFERENCE_SUMS.items()
             if "Interior-Interior" in entry["terms"]
             and fixture(key.split("|")[0]).cross.anchor is not None]
    assert len(cases) == 35
    for key, ref in cases:
        name, level, _ = key.split("|")
        est = kr.face_pair_integral(fixture(name), "Interior", "Interior",
                                    float(level[len("u="):])).value
        assert est.value == pytest.approx(ref, rel=1e-12, abs=0.0), key
        assert est.error >= abs(est.value - ref), key


def test_anchored_interior_cost_is_flat_in_u():
    # the xi rule is centred and scaled on the exponent's envelope, so the
    # points it takes at u = 25 stay within twice those at u = 3 (the
    # cubature takes 225 at u = 3 and 6,975 at u = 25)
    mod = fixture("interior-point")
    n3, n25 = (kr.face_pair_integral(mod, "Interior", "Interior", u).value.n for u in (3.0, 25.0))
    assert n25 <= 2 * n3


def test_anchored_interior_past_its_budget_raises(monkeypatch):
    # at c = 0.99 the first call (6,832 points) leaves the xi orders 24 and
    # 32 apart by more than the target; with a budget below that call the
    # rule stops there unconverged, and the term raises
    (mod,) = [m for m in ANCHORED if m.label == "c-0.99"]
    monkeypatch.setattr(kr, "DEFAULT_TOL", replace(DEFAULT_TOL, quad_max_evals=6000))
    with pytest.raises(AccuracyError):
        kr.face_pair_integral(mod, "Interior", "Interior", 3.0)


def test_anchored_interior_stops_when_the_top_order_cannot_converge(monkeypatch):
    # at c = 0.99999 the xi orders 96 and 128 still differ by more than the
    # target; no panel split closes that gap, so the rule raises after
    # climbing the ladder once (77,104 points), not past quad_max_evals
    k = SquaredExponential(1.0)
    mod = BivariateModel(k, k, PointAnchor(0.99999, 0.5, 0.5, k, k))
    real, points = kr._anchored_integrands, []

    def count(c, sides, ts, xi, u):
        out = real(c, sides, ts, xi, u)
        points.append(sum(f.size for f in out))
        return out

    monkeypatch.setattr(kr, "_anchored_integrands", count)
    with pytest.raises(AccuracyError):
        kr.face_pair_integral(mod, "Interior", "Interior", 3.0)
    assert 0 < sum(points) <= 100_000


_SHORT_ANCHOR = BivariateModel(SquaredExponential(0.3), SquaredExponential(0.2),
                               PointAnchor(0.95, 0.2, 0.9, SquaredExponential(0.3),
                                           SquaredExponential(0.2)), label="short-0.3-0.2")


@pytest.mark.parametrize("mod,u,cap", [(_SHORT_ANCHOR, 3.0, 43_696), (_SHORT_ANCHOR, 25.0, 21_952),
                                       (fixture("corner-semidegenerate"), 25.0, 8_512)],
                         ids=["short-u3", "short-u25", "corner-semidegenerate-u25"])
def test_anchored_interior_splits_panels_on_both_sides(monkeypatch, mod, u, cap):
    # no fixture at u <= 9 splits an anchored panel; these do, on both
    # sides: later passes bring t and s nodes the first pass had not.  They
    # converge, at u = 3 to the cubature's value, within 1.25 times the
    # points cap that bisecting the worst panels until the rest held a
    # quarter of the target took
    real, calls = kr._anchored_integrands, []

    def record(c, sides, ts, xi, u):
        calls.append(ts)
        return real(c, sides, ts, xi, u)

    monkeypatch.setattr(kr, "_anchored_integrands", record)
    est = kr.face_pair_integral(mod, "Interior", "Interior", u).value
    assert len(calls) > 1
    for side in (0, 1):
        assert len(np.unique(np.concatenate([ts[side] for ts in calls]))) > calls[0][side].size
    assert est.n <= 1.25 * cap
    if u == 3.0:
        monkeypatch.setattr(kr, "_anchored_integrands", real)
        twin = kr.face_pair_integral(_cubature_twin(mod), "Interior", "Interior", u).value
        assert abs(est.value - twin.value) <= est.error + twin.error


def test_cubature_interior_term_is_blas_thread_invariant():
    # no fixture's interior pair takes the 2-D cubature any more; its
    # PartialsOnly twin does, and its sums read the same bits under one and
    # two BLAS threads
    code = ("import sys; sys.path[:0] = " + repr([os.path.dirname(__file__)] + sys.path) + "\n"
            "from jointeec import kacrice as kr\n"
            "from jointeec.model import fixture\n"
            "from test_kacrice import _cubature_twin\n"
            "mod = _cubature_twin(fixture('interior-point'))\n"
            "for u in (3.0, 6.0, 9.0):\n"
            "    res = kr.eec(mod, u)\n"
            "    print(res.total.value.hex(), [t.value.value.hex() for t in res.terms])\n")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": str(n)}).stdout
           for n in (1, 2)]
    assert out[0].count("\n") == 3
    assert out[0] == out[1]


def _wrap_anchored(monkeypatch, change):
    """Route the anchored integrands through change(ts, values), one call
    per side with its 1-d nodes ts and its (xi, t) values."""
    real = kr._anchored_integrands

    def shim(c, sides, ts, xi, u):
        return [change(t, f) for t, f in zip(ts, real(c, sides, ts, xi, u))]

    monkeypatch.setattr(kr, "_anchored_integrands", shim)


def test_anchored_spot_check_makes_no_single_node_call(monkeypatch):
    # the probe t = s = 0.5 rides in the rule's own calls: every call holds
    # whole panels, and the cubature is not run
    sizes = []

    def record(t, f):
        sizes.append(np.size(t))
        return f

    def refuse(*args, **kwargs):
        raise AssertionError("cubature called")

    _wrap_anchored(monkeypatch, record)
    monkeypatch.setattr(kr.quadrature, "integrate_nd", refuse)
    for u in (3.0, 9.0):
        sizes.clear()
        kr.face_pair_integral(fixture("interior-point"), "Interior", "Interior", u)
        assert sizes and all(n == 0 or n >= 15 for n in sizes), u


def test_anchored_spot_check_reads_the_probe(monkeypatch):
    # doubling f_X and f_Y at t = s = 0.5 alone leaves the integral as it is
    # (0.5 is a panel edge, no node of the mesh) and must trip the check
    def bump(t, f):
        return np.where(t == 0.5, 2.0, 1.0) * f

    _wrap_anchored(monkeypatch, bump)
    with pytest.raises(ConsistencyError, match=r"\(t,s\)=\(0.5, 0.5\)"):
        kr.face_pair_integral(fixture("interior-point"), "Interior", "Interior", 3.0)


def _reference_corners():
    """Every 3-/4-D corner term of the reference sums: (sum key, pair,
    model, u, constrain_x, constrain_y, reference value)."""
    cases = []
    for key, entry in REFERENCE_SUMS.items():
        name, level, mode = key.split("|")
        mod, u = fixture(name), float(level[len("u="):])
        if mode == "full":
            cx = cy = True
        else:
            _, cx, cy = kr._restricted_pairs(mod, asy.classify(mod), DEFAULT_TOL.gradient_tol)
        if cx or cy:  # else a 2-D orthant
            cases += [(key, pair, mod, u, cx, cy, ref) for pair, ref in entry["terms"].items()
                      if "Interior" not in pair]
    return cases


def test_reference_corner_terms_and_their_cost():
    # the reference conditions on the derivative coordinates by nested scipy
    # quad at 1e-12; Plackett's identity meets it to 5e-14, with an error
    # bar that covers the gap and stays within 1e-10 of the value, in at
    # most 200 kernel points
    cases = _reference_corners()
    assert len(cases) == 150
    for key, pair, mod, u, cx, cy, ref in cases:
        fx, fy = pair.split("-")
        est = kr.corner_corner_term(mod, kr._POINT[fx], kr._POINT[fy], u, cx, cy)
        assert est.value == pytest.approx(ref, rel=5e-14, abs=0.0), (key, pair)
        assert abs(est.value - ref) <= est.error <= 1e-10 * est.value, (key, pair)
        assert est.n <= 200, (key, pair)


@pytest.mark.parametrize("mod", [m for name in ("corner-nondegenerate", "corner-semidegenerate",
                                                "corner-degenerate")
                                 for m in (fixture(name), transpose(fixture(name)))],
                         ids=lambda m: m.label)
def test_maximizing_corner_splits_without_negative_cross_entries(monkeypatch, mod):
    # r_1 and r_2 point outward at a corner maximizer of r, so the split
    # {X, Y} | {X', Y'} has no negative cross entry and Plackett's parts
    # are all positive: under every constraint pattern, the chosen split
    # has none either
    ((t0, s0),) = asy.classify(mod).maximizers
    choose, chosen = gauss._choose_split, []

    def spy(corr, a):
        split = choose(corr, a)
        chosen.append(corr[np.ix_(*split)])
        return split

    monkeypatch.setattr(gauss, "_choose_split", spy)
    for cx, cy in ((True, True), (True, False), (False, True)):
        kr.corner_corner_term(mod, t0, s0, 6.0, cx, cy)
    assert len(chosen) == 3
    assert all(np.all(cross >= 0.0) for cross in chosen)


def test_lag_integral_makes_one_integrand_call_per_pass(monkeypatch):
    # each call holds f(v) at (v, 0) and f(-v) at (0, v) for the same nodes
    # v; n counts both points; the cubature is not run, and the spot check
    # takes both points of v = 0.5 in one direct-route call
    calls, routes = [], []
    orig_route = gauss._route_quadrature

    def record(nodes, vals):
        calls.append(nodes)
        return vals

    def counting_route(regions, monomial):
        routes.append(len(regions))
        return orig_route(regions, monomial)

    def refuse(*args, **kwargs):
        raise AssertionError("cubature called")

    _wrap_integrands(monkeypatch, record)
    monkeypatch.setattr(gauss, "_route_quadrature", counting_route)
    monkeypatch.setattr(kr.quadrature, "integrate_nd", refuse)
    term = kr.face_pair_integral(fixture("diagonal"), "Interior", "Interior", 6.0)
    for nodes in calls:
        plus, minus = np.split(nodes, 2)
        assert np.all(plus[:, 1] == 0.0) and np.all(minus[:, 0] == 0.0)
        assert np.array_equal(plus[:, 0], minus[:, 1]) and plus.shape[0] % 15 == 0
    assert term.value.n == sum(len(nodes) for nodes in calls)
    assert routes == [2]


@pytest.mark.parametrize("probe", [(0.5, 0.0), (0.0, 0.5)])
def test_lag_spot_check_reads_both_points_of_the_centre_node(monkeypatch, probe):
    def bump(nodes, vals):
        return vals + np.where(np.all(nodes == probe, axis=1), 1e-3, 0.0)

    _wrap_integrands(monkeypatch, bump)
    with pytest.raises(ConsistencyError, match=r"\(t,s\)=\(%g, %g\)" % probe):
        kr.face_pair_integral(fixture("diagonal"), "Interior", "Interior", 3.0)


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
    # the ridge through the cubature (the undeclared twin) and through the
    # lag integral (the fixture itself)
    ref = DIAGONAL_FULL_REFERENCE[u]
    for mod in (_cubature_twin(fixture("diagonal")), fixture("diagonal")):
        total = kr.eec(mod, u).total
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
