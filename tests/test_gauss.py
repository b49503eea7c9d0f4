"""Gaussian building blocks: conditioning, orthant/tail probabilities,
truncated moments, corner tail integrals.

Reference values below were produced once by slow independent routes
(nested adaptive quadrature over conditional slices and high-order
Gauss-Legendre panels, run at tolerances far below what is asserted)
and are frozen here as plain numbers.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from jointeec import gauss, quadrature
from jointeec.common import (
    AccuracyError,
    ArgumentError,
    DegeneracyError,
    UnsupportedDimensionError,
)
from jointeec.gauss import condition, mvn_cdf, truncated_moment
from test_acceptance import corner_tail, mills_product

# frozen reference probabilities
TVN_MIXED = 0.054438312708414959     # cov [[1,.6,-.3],[.6,2,.5],[-.3,.5,1.5]], low [0.8,1.0,-0.2]
TVN_TAIL = 0.00030826724989631577    # cov [[1,0,.52],[0,1,-.1],[.52,-.1,1]], low [2.5,0,2.5]
QVN_MIXED = 0.000679412365858053     # 4-dim, see test body
QVN_CORNERLIKE = 1.18525565927416e-05
BVN_CASES = (
    # (h, k, rho, P{X>=h, Y>=k})
    (1.2, -0.4, 0.35, 0.098034461470293424),
    (2.0, 2.0, -0.6, 3.1436180407532111e-7),
    (4.5, 4.5, 0.9, 9.546329458800946e-7),
    (3.0, 3.0, 0.5, 8.1889661832192112e-5),
)


def rand_psd(rng, n):
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T / (n + 2)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


# ---------------------------------------------------------------------------
# the normal CDF

# Phi(x) in 40-digit arithmetic, rounded to 17 digits
NDTR_LITERALS = (
    (-37.0, 5.7255712225245768e-300),
    (-30.0, 4.9067139271481871e-198),
    (-20.0, 2.7536241186062337e-89),
    (-10.0, 7.6198530241605261e-24),
    (-8.5, 9.4795348222033184e-18),
    (-4.75, 1.0170832425687032e-6),
    (-2.5, 0.0062096653257761352),
    (-1.0, 0.15865525393145705),
    (0.3, 0.61791142218895264),
)


@pytest.mark.parametrize("x,ref", NDTR_LITERALS)
def test_ndtr_literals(x, ref):
    # the far tail keeps its relative accuracy, on the array and the
    # scalar path alike; the scalar path returns a plain float
    assert gauss.ndtr(np.array([x]))[0] == pytest.approx(ref, rel=1e-15, abs=0.0)
    value = gauss.ndtr(x)
    assert type(value) is float
    assert value == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_ndtr_matches_scipy():
    # scipy's ndtr takes exp of a rounded -x^2 / 2, so its own error grows
    # like x^2 ulp: against 40-digit arithmetic it reaches 4.4e-15 relative
    # at x = -4.76 and stays below 1e-15 only for x >= -2.  The tolerance
    # follows that growth and is 1e-15 at x = 0.
    x = np.linspace(-5.0, 5.0, 20_001)
    ours = gauss.ndtr(x)
    assert np.all(np.abs(ours / ndtr(x) - 1.0) <= 1e-15 * (1.0 + 0.5 * x * x))
    scalar = np.array([gauss.ndtr(float(v)) for v in x[::50]])
    assert np.all(np.abs(scalar / ours[::50] - 1.0) <= 5e-16)


def test_ndtr_nan_is_quiet():
    # NaN in gives NaN out with no RuntimeWarning: the array path once cast
    # the NaN piece index to an integer ("invalid value encountered in cast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gauss.ndtr(np.array([np.nan, -1.0, np.nan, 2.0]))
        assert math.isnan(gauss.ndtr(math.nan))
    assert np.isnan(out[[0, 2]]).all()
    assert out[[1, 3]].tolist() == gauss.ndtr(np.array([-1.0, 2.0])).tolist()


def test_ndtr_edges():
    out = gauss.ndtr(np.array([-np.inf, -45.0, 0.0, 45.0, np.inf, np.nan]))
    assert out[:5].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert np.isnan(out[5])
    assert gauss.ndtr(-np.inf) == 0.0 and gauss.ndtr(np.inf) == 1.0
    assert math.isnan(gauss.ndtr(math.nan))
    assert gauss.ndtr(np.zeros((2, 3))).shape == (2, 3)


# ---------------------------------------------------------------------------
# conditioning


def test_condition_matches_schur_complement():
    rng = np.random.default_rng(7)
    cov = rand_psd(rng, 5)
    obs = (1, 3)
    law = condition(cov, obs)
    un = tuple(i for i in range(5) if i not in obs)
    s11 = cov[np.ix_(un, un)]
    s12 = cov[np.ix_(un, obs)]
    s22 = cov[np.ix_(obs, obs)]
    assert np.allclose(law.mean_map, s12 @ np.linalg.inv(s22), atol=1e-12)
    assert np.allclose(law.residual_cov, s11 - s12 @ np.linalg.inv(s22) @ s12.T, atol=1e-12)
    assert law.observed_idx == obs
    assert law.unobserved_idx == un


def test_condition_residual_is_inverse_block():
    # the residual covariance equals the inverse of the unobserved block of
    # the precision matrix; this is the second, independent route
    rng = np.random.default_rng(21)
    cov = rand_psd(rng, 6)
    obs = (0, 4, 5)
    law = condition(cov, obs)
    prec = np.linalg.inv(cov)
    un = law.unobserved_idx
    assert np.allclose(law.residual_cov, np.linalg.inv(prec[np.ix_(un, un)]), atol=1e-11)


@given(st.integers(0, 10_000), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_condition_inverse_block_property(seed, n):
    rng = np.random.default_rng(seed)
    cov = rand_psd(rng, n)
    obs = tuple(sorted(rng.choice(n, size=rng.integers(1, n), replace=False).tolist()))
    law = condition(cov, obs)
    prec = np.linalg.inv(cov)
    un = law.unobserved_idx
    assert np.allclose(law.residual_cov, np.linalg.inv(prec[np.ix_(un, un)]), atol=1e-8)


def test_condition_rejects_bad_input():
    cov = np.eye(3)
    with pytest.raises(ArgumentError):
        condition(cov, (0, 0))
    with pytest.raises(ArgumentError):
        condition(cov, (5,))
    # observing everything is legal and leaves an empty residual block
    law = condition(cov, (0, 1, 2))
    assert law.unobserved_idx == ()
    assert law.residual_cov.shape == (0, 0)
    # indefinite observed block
    bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    with pytest.raises(DegeneracyError):
        condition(bad, (1, 2))


# ---------------------------------------------------------------------------
# orthant and rectangle probabilities


def test_mvn_cdf_dim1_is_survival():
    est = mvn_cdf(np.array([[4.0]]), [1.0])
    from scipy.stats import norm
    assert est.value == pytest.approx(norm.sf(0.5), rel=1e-12)


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.45, 0.8])
def test_orthant_dim2_arcsine(rho):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    est = mvn_cdf(cov, [0.0, 0.0])
    assert est.value == pytest.approx(0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-9)


@pytest.mark.parametrize("h,k,rho,ref", BVN_CASES)
def test_bvn_survival_reference_values(h, k, rho, ref):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    est = mvn_cdf(cov, [h, k])
    assert est.value == pytest.approx(ref, rel=1e-9)
    assert est.n >= 24  # the path rule's node count


# Far-tail cases of the vectorized kernel (64 nodes on each: the log range
# of the path integrand exceeds 30), against the 40-digit references of
# tools/bvn_reference.py, reference(h, h, rho): the theta form with the
# integrand scaled by its peak, checked against the x form to 30 digits.
# The kernel's relative errors are 2.4e-14, 1.8e-14 and 5.2e-14.
BVN_FAR_TAIL = (
    (13.0, 0.3, 5.7029544282182114597e-60),
    (20.0, 0.7, 1.0284366707505575068e-105),
    (20.0, 0.3, 1.6430962972645522902e-137),
)


@pytest.mark.parametrize("h,rho,ref", BVN_FAR_TAIL)
def test_bvn_survival_batch_far_tail(h, rho, ref):
    assert gauss._bvn_survival_batch(h, h, rho)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)


# Negative correlation in the far tail: the path from rho = 0 cancels
# Phi(-h) Phi(-k) almost exactly (the parent code returned -2.0e-52 for the
# first case), the path from rho = -1 does not.  References: the
# x-integral of phi(x) Phi((rho x - k) / sqrt(1 - rho^2)) in 40-digit
# arithmetic on Gauss-Legendre panels, stable to 1e-17 when the panels
# are halved.
BVN_NEGATIVE_TAIL = (
    (9.0, 9.0, -0.5, 2.4752747088499815e-74),
    (6.0, 4.0, -0.3, 4.5090024240770300e-19),
)


@pytest.mark.parametrize("h,k,rho,ref", BVN_NEGATIVE_TAIL)
def test_bvn_negative_correlation_far_tail(h, k, rho, ref):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    est = mvn_cdf(cov, [h, k])  # through the kernel, with its reported error
    assert est.value == pytest.approx(ref, rel=1e-11, abs=0.0)
    assert est.error < 1e-11 * ref
    assert gauss._bvn_survival_batch(h, k, rho)[0] == pytest.approx(ref, rel=1e-11, abs=0.0)


# Further out at negative correlation the path starts at rho = -1 and, once
# (h + k) / sqrt(1 - rho^2) exceeds 14, its integrand is a spike at the top
# of the path that a 64-node rule misses by 1e-8 to 1e-5 relative; the
# kernel gives such points 128 nodes.  References: the 40-digit theta form
# of tools/bvn_reference.py, which agrees with the x-integral to 30 digits.
# The kernel's errors are 2.3e-12, 1.8e-12 and 3.6e-12.
BVN_FAR_NEGATIVE = (
    (4.5, 4.5, -0.95, 8.0900722681808199451e-181),
    (9.0, 9.0, -0.8, 1.6839067350281514877e-180),
    (2.0, 9.0, -0.95, 1.4032751943569512297e-270),
)


@pytest.mark.parametrize("h,k,rho,ref", BVN_FAR_NEGATIVE)
def test_bvn_survival_batch_far_negative_tail(h, k, rho, ref):
    assert gauss._bvn_survival_batch(h, k, rho)[0] == pytest.approx(ref, rel=1e-10, abs=0.0)


def _path_rule(h, k, rho, n=1024, chunk=4096):
    """The kernel's path integral with an n-node Gauss-Legendre rule on the
    same path (start at rho = 0 or -1), point by point."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    from_minus_one = gauss._from_minus_one(h, k, rho)
    out = np.empty(len(h))
    for i in range(0, len(h), chunk):
        sl = slice(i, i + chunk)
        hh, kk, m1 = h[sl, None], k[sl, None], from_minus_one[sl]
        start = np.where(m1, -0.5 * math.pi, 0.0)[:, None]
        span = np.arcsin(rho[sl])[:, None] - start
        sn = np.sin(start + span * x)
        expo = np.exp(-(hh * hh + kk * kk - 2.0 * hh * kk * sn) / (2.0 * (1.0 - sn * sn)))
        base = np.where(m1, 0.0, gauss.ndtr(-h[sl]) * gauss.ndtr(-k[sl]))
        out[sl] = base + (expo @ w) * span[:, 0] / (2.0 * math.pi)
    return out


def test_bvn_survival_batch_node_tiers_on_a_grid():
    # the kernel sizes its rule per point (24, 32, 64 or 128 nodes); on the
    # grid below it must stay within 1e-12 of a 1024-node rule on the same
    # path everywhere the value is a normal double.  A fixed 64-node rule
    # misses by up to 4.5e-5 where the path starts at rho = -1 far out
    vals = np.arange(-2.0, 20.25, 0.5)
    rhos = np.round(np.arange(0.05, 0.96, 0.05), 2)
    h, k, rho = (a.ravel() for a in np.meshgrid(vals, vals, np.concatenate([rhos, -rhos]),
                                                indexing="ij"))
    ref = _path_rule(h, k, rho)
    keep = ref >= 1e-300
    assert keep.sum() > 70_000
    err = np.abs(gauss._bvn_survival_batch(h[keep], k[keep], rho[keep]) / ref[keep] - 1.0)
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-12, (h[keep][worst], k[keep][worst], rho[keep][worst])


def test_path_nodes_follow_the_log_range():
    # D = 0 at h = k = 0; D = 15.4 and 39 at h = k = 13 with rho = 0.1, 0.3
    # (the peak of the integrand clipped to the path end); a path from
    # rho = -1 takes 64 nodes, or 128 past the far-tail ratio
    h = np.array([0.0, 13.0, 13.0, 2.0, 9.0])
    k = np.array([0.0, 13.0, 13.0, 2.0, 9.0])
    rho = np.array([0.5, 0.1, 0.3, -0.5, -0.8])
    nodes = gauss._path_nodes(h, k, rho, gauss._from_minus_one(h, k, rho))
    assert nodes.tolist() == [24, 32, 64, 64, 128]


# One point of every kind the kernel tells apart: closed (rho = 0, +-1),
# each node tier (24, 32, 64), a path from rho = -1 (64 nodes) and past
# the far-tail ratio (128), and the near-one rule from either path start.
BVN_EVERY_ROUTE = np.array([
    (1.0, 2.0, 0.0), (1.0, 2.0, 1.0), (1.0, 2.0, -1.0), (0.0, 0.0, 0.5),
    (13.0, 13.0, 0.1), (13.0, 13.0, 0.3), (2.0, 2.0, -0.5), (4.5, 4.5, -0.95),
    (9.0, 9.0, -0.8), (2.0, 9.0, -0.95), (2.0, 3.0, 0.9999), (0.0, 0.5, -0.9999),
    (5.0, -5.0 + 0.9 * math.sqrt(1.0 - 0.9999 ** 2), -0.9999), (-1.5, 0.7, 0.97),
]).T


def test_bvn_survival_is_batch_invariant():
    # a point's value may not depend on which other points share its call:
    # the lockstep edge integrals put several integrals' nodes in one batch
    # and must give each the bits it gets alone
    h, k, rho = BVN_EVERY_ROUTE
    alone = gauss._bvn_survival_batch(h, k, rho)
    assert sorted(set(gauss._bvn_parts(h, k, rho)[2].tolist())) == [1, 24, 32, 64, 128]
    singly = [gauss._bvn_survival_batch(*p)[0] for p in BVN_EVERY_ROUTE.T]
    assert np.array_equal(singly, alone)
    rng = np.random.default_rng(20261019)
    for offset in (1, 3, 5, 64):
        filler = np.stack([rng.uniform(-2.0, 10.0, offset + 7), rng.uniform(-2.0, 10.0, offset + 7),
                           rng.uniform(-0.999, 0.999, offset + 7)])
        batch = np.concatenate([filler[:, :offset], BVN_EVERY_ROUTE, filler[:, offset:]], axis=1)
        embedded = gauss._bvn_survival_batch(*batch)[offset:offset + len(h)]
        assert np.array_equal(embedded, alone), offset


def test_bvn_survival_nonnegative():
    # across the switch between the two path starts
    vals = np.array([-3.0, -1.0, -0.3, 0.0, 0.2, 0.5, 0.9, 1.5, 3.0, 6.0, 9.0, 13.0])
    rhos = np.array([-0.999, -0.97, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.97])
    h, k, rho = (a.ravel() for a in np.meshgrid(vals, vals, rhos, indexing="ij"))
    batch = gauss._bvn_survival_batch(h, k, rho)
    assert np.all(batch >= 0.0)


# |rho| = 0.9999, where a boundary layer forms at the end of the path and
# the kernel takes 128 nodes.  References: tools/bvn_reference.py,
# reference(h, k, rho), 40 digits.  The first case raised AccuracyError
# through an adaptive Gauss-Kronrod route that mvn_cdf used before; the
# fourth is the kernel's worst point on the grid of `--check` (8.4e-12).
BVN_NEAR_ONE = (
    (0.0, 0.5, -0.9999, 6.408744882155353624e-278),
    (-2.0, 2.5, -0.9999, 5.25996162552992744e-279),
    (2.0, 3.0, 0.9999, 0.0013498980316300945267),
    (18.0, 18.0, 0.9999, 8.7513452241632364761e-73),
)


@pytest.mark.parametrize("h,k,rho,ref", BVN_NEAR_ONE)
def test_bvn_survival_near_unit_correlation(h, k, rho, ref):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    est = mvn_cdf(cov, [h, k])
    assert est.n == 128
    assert abs(est.value - ref) <= est.error < 1e-11 * ref


# On the line k = -h + 0.9 sqrt(1 - rho^2) the path starts at rho = 0 and
# its integral cancels most of Phi(-h) Phi(-k): the value is about
# sqrt(1 - rho^2) times that, and mvn_cdf reports the error of the two
# parts.  References: tools/bvn_reference.py, reference(h, k, rho), 40
# digits.  At rho = -0.9999 rounding in 1 - sin^2 theta cost the kernel
# 5.2e-11 on the first case before it took the offset from the pole; the
# kernel's errors are now 8.3e-13, 3.9e-12, 9.6e-11 and 1.1e-9.
BVN_CANCELLING = (
    (5.0, -0.9999, 2.1791192989151224794e-9),
    (0.0, -0.9999, 0.00056664259145578772806),
    (5.0, -0.99999999, 2.1122756742459220412e-11),
    (0.0, -0.99999999, 5.6662201782032315088e-6),
)


@pytest.mark.parametrize("h,rho,ref", BVN_CANCELLING)
def test_bvn_survival_cancelling_near_minus_one(h, rho, ref):
    k = -h + 0.9 * math.sqrt(1.0 - rho * rho)
    est = mvn_cdf(np.array([[1.0, rho], [rho, 1.0]]), [h, k])
    assert abs(est.value - ref) <= est.error
    if rho == -0.9999:  # in the region `tools/bvn_reference.py --check` covers
        assert abs(est.value - ref) <= gauss._BVN_REL_ERR * ref


@pytest.mark.filterwarnings("error")
def test_bvn_survival_at_unit_correlation():
    # rho = 1 puts the mass on Z1 = Z2 and rho = -1 on Z1 = -Z2, so the
    # probabilities are Phi(-max(h, k)) and max(0, Phi(-h) - Phi(k))
    vals = np.array([-9.0, -2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.5, 6.0])
    h, k = (a.ravel() for a in np.meshgrid(vals, vals, indexing="ij"))
    np.testing.assert_allclose(gauss._bvn_survival_batch(h, k, 1.0),
                               ndtr(-np.maximum(h, k)), rtol=1e-14, atol=0.0)
    # absolute to rounding only where Phi(-h) and Phi(k) are both near 1
    minus = gauss._bvn_survival_batch(h, k, -1.0)
    np.testing.assert_allclose(minus, np.maximum(ndtr(-h) - ndtr(k), 0.0),
                               rtol=1e-14, atol=5e-16)
    assert np.all(minus[h + k >= 0.0] == 0.0)
    # within 1e-12 of rho = -1 the path rule tends to that limit; on the
    # offset from the pole its exponent stays finite at every node
    near = gauss._bvn_survival_batch(h, k, -1.0 + 1e-12)
    np.testing.assert_allclose(near, minus, rtol=0.0, atol=1e-5)


def test_orthant_equicorrelated_closed_form():
    # equicorrelation 1/2 gives orthant probability 1/(n+1)
    for n in (3, 4):
        cov = np.full((n, n), 0.5) + 0.5 * np.eye(n)
        est = mvn_cdf(cov, np.zeros(n))
        assert est.value == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_orthant_dim3_pairwise_formula():
    r12, r13, r23 = 0.3, -0.2, 0.55
    cov = np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])
    ref = 0.125 + (math.asin(r12) + math.asin(r13) + math.asin(r23)) / (4.0 * math.pi)
    est = mvn_cdf(cov, np.zeros(3))
    assert ref == pytest.approx(0.17956619036130328, rel=1e-15)
    assert est.value == pytest.approx(ref, abs=1e-12)


def test_tvn_reference_values():
    cov = np.array([[1.0, 0.6, -0.3], [0.6, 2.0, 0.5], [-0.3, 0.5, 1.5]])
    est = mvn_cdf(cov, [0.8, 1.0, -0.2])
    assert est.value == pytest.approx(TVN_MIXED, rel=1e-10, abs=0.0)

    cov = np.array([[1.0, 0.0, 0.52], [0.0, 1.0, -0.1], [0.52, -0.1, 1.0]])
    est = mvn_cdf(cov, [2.5, 0.0, 2.5])
    assert est.value == pytest.approx(TVN_TAIL, rel=1e-10, abs=0.0)


def test_qvn_reference_values():
    cov = np.array([
        [1.0, 0.5, 0.0, 0.2],
        [0.5, 1.0, 0.3, 0.0],
        [0.0, 0.3, 1.0, -0.4],
        [0.2, 0.0, -0.4, 1.0],
    ])
    est = mvn_cdf(cov, [1.0, -0.5, 0.3, 2.0])
    assert est.value == pytest.approx(QVN_MIXED, rel=1e-10, abs=0.0)

    cov = np.array([
        [1.0, 0.52, 0.0, -0.26],
        [0.52, 1.0, 0.26, 0.0],
        [0.0, 0.26, 1.0, -0.47],
        [-0.26, 0.0, -0.47, 1.0],
    ])
    est = mvn_cdf(cov, [3.0, 3.0, 0.0, 0.0])
    assert est.value == pytest.approx(QVN_CORNERLIKE, rel=1e-10, abs=0.0)


def one_factor_orthant(d, rho, a):
    # equicorrelated Z = sqrt(rho) W + sqrt(1 - rho) E: given the common
    # factor W = z the d coordinates are independent
    s, c = math.sqrt(rho), math.sqrt(1.0 - rho)

    def f(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(-(a - s * z) / c) ** d

    peak = a * s * d / (1.0 + (d - 1) * rho)
    val, _ = integrate.quad(f, peak - 20.0, peak + 20.0, points=[peak],
                            epsabs=0.0, epsrel=1e-13, limit=500)
    return val


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("rho", [0.3, 0.7])
@pytest.mark.parametrize("a", [-8.0, -5.0, 3.0, 6.0, 9.0])
def test_orthant_equicorrelated_one_factor(d, rho, a):
    # relative accuracy holds far into the tail, where values reach 1e-42,
    # and for low thresholds, where the mass sits far above them; the
    # reported error covers the actual one
    cov = np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
    est = mvn_cdf(cov, np.full(d, a))
    ref = one_factor_orthant(d, rho, a)
    assert est.value == pytest.approx(ref, rel=1e-9, abs=0.0)
    assert est.error >= abs(est.value - ref)


def conditioned_on_one(cov, a, k):
    # 3-D orthant by conditioning on coordinate k alone: adaptive quad over
    # it, with the 2-D route inside, so no box and no fixed rule
    rest = [i for i in range(3) if i != k]
    beta = cov[rest, k]
    resid = cov[np.ix_(rest, rest)] - np.outer(beta, beta)

    def f(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * mvn_cdf(resid, a[rest] - beta * x).value

    edges = np.linspace(a[k], max(a[k], 0.0) + 30.0, 61)
    return sum(integrate.quad(f, p, q, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for p, q in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("cov, lower, rel", [
    # all thresholds far below the mass (value 1 - 2e-15)
    (np.full((3, 3), 0.9) + 0.1 * np.eye(3), [-8.0, -8.0, -8.0], 1e-9),
    # mixed signs, one threshold 40 sigma below everything
    ([[1.0, 0.3, 0.9], [0.3, 1.0, 0.0], [0.9, 0.0, 1.0]], [-40.0, -8.0, 9.0], 1e-9),
    ([[1.0, 0.5, -0.5], [0.5, 1.0, -0.9], [-0.5, -0.9, 1.0]], [-2.0, -8.0, 9.0], 1e-9),
    ([[1.0, 0.6, -0.3], [0.6, 1.0, 0.5], [-0.3, 0.5, 1.0]], [-3.0, 1.0, 6.0], 1e-9),
    # the lowest threshold is carried far above itself by a 0.99
    # correlation: a 0.14-sigma peak inside the panel (measured 2.6e-7)
    ([[1.0, 0.99, 0.0], [0.99, 1.0, 0.0], [0.0, 0.0, 1.0]], [-5.0, 9.0, 9.0], 1e-6),
])
def test_orthant_dim3_low_and_mixed_thresholds(cov, lower, rel):
    cov, lower = np.array(cov), np.array(lower)
    est = mvn_cdf(cov, lower)
    ref = conditioned_on_one(cov, lower, int(np.argmax(lower)))
    assert est.value == pytest.approx(ref, rel=rel, abs=0.0)
    assert est.error >= abs(est.value - ref)


def test_mvn_cdf_infinite_bounds():
    cov = np.array([[1.0, 0.4], [0.4, 1.0]])
    from scipy.stats import norm
    est = mvn_cdf(cov, [-np.inf, 1.3])
    assert est.value == pytest.approx(norm.sf(1.3), rel=1e-9)
    est = mvn_cdf(cov, [np.inf, 0.0])
    assert est.value == 0.0


def test_mvn_cdf_rejects_unsupported():
    with pytest.raises(UnsupportedDimensionError):
        mvn_cdf(np.eye(5), np.zeros(5))
    with pytest.raises(ArgumentError):
        mvn_cdf(np.eye(2), np.zeros(3))


# ---------------------------------------------------------------------------
# truncated moments

M2D = {
    # cov [[1,.6],[.6,1]], lower (0.5, -0.3)
    (0, 0): 0.27007149102615034,
    (1, 0): 0.31750934520797049,
    (0, 1): 0.23875270185754087,
    (2, 0): 0.44895826399522275,
    (1, 1): 0.31497274615293926,
    (0, 2): 0.34735527352867219,
}
M2D_ANISO = {
    # cov [[2,-.5],[-.5,.8]], lower (1.0, 0.2)
    (0, 0): 0.051937044083301892,
    (1, 0): 0.086245348906526954,
    (1, 1): 0.057512633139656755,
    (0, 2): 0.032027736984128825,
}


def test_truncated_moments_2d_reference():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    low = np.array([0.5, -0.3])
    for mono, ref in M2D.items():
        assert truncated_moment(cov, low, mono).value == pytest.approx(ref, rel=2e-5), mono


def test_truncated_moments_2d_anisotropic():
    cov = np.array([[2.0, -0.5], [-0.5, 0.8]])
    low = np.array([1.0, 0.2])
    for mono, ref in M2D_ANISO.items():
        assert truncated_moment(cov, low, mono).value == pytest.approx(ref, rel=2e-5), mono


def test_truncated_moments_3d_first_order():
    cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.5, -0.4], [0.2, -0.4, 1.2]])
    low = np.array([0.3, -0.5, 0.8])
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    refs = (0.0742699792561437, 0.0856659565576165, 0.0428141772670615, 0.105193380081632)
    for mono, ref in zip(monos, refs):
        assert truncated_moment(cov, low, mono).value == pytest.approx(ref, rel=5e-5)


def test_truncated_moment_degenerate_monomial_is_probability():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    low = np.array([0.5, -0.3])
    est = truncated_moment(cov, low, (0, 0))
    ref = mvn_cdf(cov, low)
    assert est.value == pytest.approx(ref.value, rel=1e-6)


def test_truncated_moments_untruncated_reduction():
    # with all bounds at -inf the moments are plain Gaussian moments
    cov = np.array([[1.3, 0.4], [0.4, 0.9]])
    low = np.array([-np.inf, -np.inf])
    for mono, ref in zip([(1, 0), (2, 0), (1, 1), (0, 2)], (0.0, 1.3, 0.4, 0.9)):
        assert truncated_moment(cov, low, mono).value == pytest.approx(ref, abs=5e-6)


# the moments below by the Tallis reduction (moment identities over
# lower-dimensional orthants), an independent computation, by monomial
TALLIS_4D = {
    (0, 0, 0, 1): 0.008535888088452862,
    (0, 0, 1, 1): 3.938842976506697e-05,
    (0, 1, 0, 1): -0.03926502912066848,
    (0, 1, 1, 0): 0.1,
}


@pytest.mark.parametrize("lower, monomial, nd_dims, calls_1d", [
    ([1.0, 0.5, 0.0, -np.inf], (0, 0, 0, 1), [3], 0),  # the edge probe's shape
    ([3.0, 3.0, -np.inf, -np.inf], (0, 0, 1, 1), [2], 0),  # the interior probe's
    ([1.0, -np.inf, -np.inf, -np.inf], (0, 1, 0, 1), [], 1),
    ([-np.inf] * 4, (0, 1, 1, 0), [], 0),  # the Gaussian moment, no cubature
])
def test_direct_route_integrates_the_bounded_coordinates(monkeypatch, lower, monomial,
                                                         nd_dims, calls_1d):
    # the direct route integrates the free coordinates in closed form, so
    # its cubature has one dimension per finite bound
    cov4 = np.array([[1.0, 0.5, -0.3, 0.2], [0.5, 1.0, 0.1, -0.4],
                     [-0.3, 0.1, 0.8, 0.1], [0.2, -0.4, 0.1, 1.3]])
    dims, n_1d = [], []
    orig_nd, orig_1d = quadrature.lockstep_nd, quadrature.lockstep_1d

    def spy_nd(f, boxes, **kw):
        dims.extend(len(lo) for lo, _ in boxes)
        return orig_nd(f, boxes, **kw)

    def spy_1d(f, intervals, **kw):
        n_1d.extend(1 for _ in intervals)
        return orig_1d(f, intervals, **kw)

    monkeypatch.setattr(quadrature, "lockstep_nd", spy_nd)
    monkeypatch.setattr(quadrature, "lockstep_1d", spy_1d)
    est = truncated_moment(cov4, lower, monomial)
    assert dims == nd_dims
    assert len(n_1d) == calls_1d
    assert est.value == pytest.approx(TALLIS_4D[monomial], rel=1e-6, abs=2e-6)


def test_truncated_moments_match_one_at_a_time():
    # regions with 3, 2, 1 and no bounded coordinates and an empty one: the
    # cubatures of one dimension run in lockstep, each as it would alone
    cov4 = np.array([[1.0, 0.5, -0.3, 0.2], [0.5, 1.0, 0.1, -0.4],
                     [-0.3, 0.1, 0.8, 0.1], [0.2, -0.4, 0.1, 1.3]])
    lowers = ([1.0, 0.5, 0.0, -np.inf], [3.0, 3.0, -np.inf, -np.inf],
              [0.5, 1.0, -0.5, -np.inf], [1.0, -np.inf, -np.inf, -np.inf],
              [-np.inf] * 4, [1.0, 2.0, -np.inf, -np.inf], [np.inf, 0.0, 0.0, -np.inf])
    together = gauss.truncated_moments([(cov4, low) for low in lowers], (0, 0, 0, 1))
    assert together == [truncated_moment(cov4, low, (0, 0, 0, 1)) for low in lowers]


def test_truncated_moment_raises_when_the_cubature_misses(monkeypatch):
    # an unconverged cubature is never returned as a moment
    orig = gauss._route_quadrature

    def short(*args):
        return [quadrature.QuadratureResult(res.value, res.error, res.n_evals, False)
                for res in orig(*args)]

    monkeypatch.setattr(gauss, "_route_quadrature", short)
    with pytest.raises(AccuracyError):
        truncated_moment(np.eye(2), [1.0, 0.5], (1, 0))


def test_first_moments_keep_the_region_gates():
    # a duplicated coordinate makes the 3-d region singular; the moment
    # must not skip mvn_cdf's PSD gate
    cov = np.array([[1.0, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 1.0]])
    for mono in [(1, 0, 0), (0, 0, 1)]:
        with pytest.raises(DegeneracyError):
            truncated_moment(cov, [0.3, -0.5, 0.8], mono)


def test_truncated_moments_rejects_bad_input():
    cov = np.eye(2)
    with pytest.raises(ArgumentError):
        truncated_moment(cov, [0.0, 0.0], (1, 0, 0))  # wrong monomial length
    with pytest.raises(ArgumentError):
        truncated_moment(cov, [0.0], (1, 0))
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DegeneracyError):
        truncated_moment(bad, [0.0, 0.0], (1, 0))
    # a negative variance is named before any square root is taken, so no
    # RuntimeWarning comes first even where warnings are errors
    negative = np.array([[1.0, 0.0], [0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: mvn_cdf(negative, [0.0, 0.0]),
                     lambda: truncated_moment(negative, [0.0, 0.0], (1, 0))):
            with pytest.raises(DegeneracyError) as info:
                call()
            assert info.value.pivot_index == 1


# ---------------------------------------------------------------------------
# corner tail integral and its closed leading order

TAIL_REFS = (
    # (R, u, full integral including the exponential factor)
    (0.5, 2.0, 0.022053693913842238),
    (-0.3, 3.0, 1.2590839130517557e-7),
)


@pytest.mark.parametrize("R,u,ref", TAIL_REFS)
def test_bivariate_tail_reference(R, u, ref):
    sigma = np.array([[1.0, R], [R, 1.0]])
    assert corner_tail(sigma, u) == pytest.approx(ref, rel=1e-8)


def test_bivariate_tail_zero_level():
    # at u = 0 the shifted integral is a quarter-plane Gaussian mass:
    # 2 pi sqrt(det) * orthant probability, with orthant 1/4 + asin(R)/(2 pi)
    sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert corner_tail(sigma, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-9)


@pytest.mark.parametrize("R", [-0.3, 0.0])
def test_mills_product_approaches_one(R):
    # at u = 10 the product sits within 2% of 1 for these R, and the gap
    # shrinks from u = 6
    gaps = [abs(mills_product(R, u) - 1.0) for u in (6.0, 10.0)]
    assert gaps[1] < 0.02
    assert gaps[1] < gaps[0]


def test_mills_product_slow_at_high_correlation():
    # R = 0.5 converges like 1/u^2 with a larger constant; the measured
    # product at u = 10 is pinned so a silent change in either route shows up
    assert mills_product(0.5, 10.0) == pytest.approx(0.9586, abs=0.002)
