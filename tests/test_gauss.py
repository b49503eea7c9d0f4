"""Gaussian building blocks: conditioning, orthant/tail probabilities,
truncated moments, corner tail integrals.

Reference values below were produced once by slow independent routes
(nested adaptive quadrature over conditional slices and high-order
Gauss-Legendre panels, run at tolerances far below what is asserted)
and are frozen here as plain numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from jointeec.common import ArgumentError, DegeneracyError, RegimeError, UnsupportedDimensionError
from jointeec.gauss import (
    bivariate_tail_exact,
    condition,
    mills_ratio_asymptotic,
    mvn_cdf,
    truncated_moment,
    truncated_moments,
)

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
    monos = sorted(M2D)
    ests = truncated_moments(cov, low, monos)
    for mono, est in zip(monos, ests):
        assert est.value == pytest.approx(M2D[mono], rel=2e-5), mono


def test_truncated_moments_2d_anisotropic():
    cov = np.array([[2.0, -0.5], [-0.5, 0.8]])
    low = np.array([1.0, 0.2])
    monos = sorted(M2D_ANISO)
    ests = truncated_moments(cov, low, monos)
    for mono, est in zip(monos, ests):
        assert est.value == pytest.approx(M2D_ANISO[mono], rel=2e-5), mono


def test_truncated_moments_3d_first_order():
    cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.5, -0.4], [0.2, -0.4, 1.2]])
    low = np.array([0.3, -0.5, 0.8])
    ests = truncated_moments(cov, low, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    refs = (0.0742699792561437, 0.0856659565576165, 0.0428141772670615, 0.105193380081632)
    for est, ref in zip(ests, refs):
        assert est.value == pytest.approx(ref, rel=5e-5)


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
    ests = truncated_moments(cov, low, [(1, 0), (2, 0), (1, 1), (0, 2)])
    refs = (0.0, 1.3, 0.4, 0.9)
    for est, ref in zip(ests, refs):
        assert est.value == pytest.approx(ref, abs=5e-6)


def test_truncated_moments_rejects_bad_input():
    cov = np.eye(2)
    with pytest.raises(ArgumentError):
        truncated_moments(cov, [0.0, 0.0], [(1, 0, 0)])  # wrong monomial length
    with pytest.raises(ArgumentError):
        truncated_moments(cov, [0.0], [(1, 0)])
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DegeneracyError):
        truncated_moments(bad, [0.0, 0.0], [(1, 0)])


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
    est = bivariate_tail_exact(sigma, u)
    assert est.value == pytest.approx(ref, rel=1e-8)


def test_bivariate_tail_zero_level():
    # at u = 0 the shifted integral is a quarter-plane Gaussian mass:
    # 2 pi sqrt(det) * orthant probability, with orthant 1/4 + asin(R)/(2 pi)
    sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
    est = bivariate_tail_exact(sigma, 0.0)
    assert est.value == pytest.approx(math.pi / 2.0, rel=1e-9)


def test_mills_ratio_row_sums():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    ta = mills_ratio_asymptotic(sigma, 4.0)
    inv = np.linalg.inv(sigma)
    assert ta.a == pytest.approx(inv[0].sum(), rel=1e-14)
    assert ta.b == pytest.approx(inv[1].sum(), rel=1e-14)
    assert ta.value == pytest.approx(1.0 / (16.0 * ta.a * ta.b), rel=1e-14)


def test_mills_ratio_interior_dominating_point_required():
    # a row sum of the precision matrix <= 0 puts the dominating point on
    # the boundary and the closed form does not apply
    sigma = np.array([[1.0, 1.5], [1.5, 4.0]])
    with pytest.raises(RegimeError):
        mills_ratio_asymptotic(sigma, 4.0)


def mills_product(R, u):
    # exact integral divided by its closed leading order; the closed form
    # carries no exponential factor, so reinstate it on the exact side
    sigma = np.array([[1.0, R], [R, 1.0]])
    exact = bivariate_tail_exact(sigma, u)
    ta = mills_ratio_asymptotic(sigma, u)
    return exact.value * math.exp(u * u / (1.0 + R)) / ta.value


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
