"""End-to-end acceptance criteria.

Each criterion runs inside its stated wall-clock budget on commodity
hardware.  The closed forms are leading-order terms: closed form over
the quantity it approximates tends to 1 as u grows, and nothing is
promised at a fixed u.  So criteria 3, 6, 7 and 8 pin the measured
finite-u ratio tightly and then check the limit itself, either by a
bracket that holds at every u (criteria 3 and 8) or by extrapolating
the ratio in u at the orders the theory fixes (criteria 6 and 7).  Each
of these checks fails on a closed-form coefficient that is 5% off (1%
for the Mills ratio of criterion 3).
"""

import math
import time

import numpy as np
import pytest

from jointeec.gauss import condition, mvn_cdf
from jointeec.model import fixture, independent_model, transpose
from jointeec import asymptotics as asy
from jointeec import kacrice as kr
from jointeec import montecarlo as mc


def elapsed_under(budget_s):
    class Guard:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.seconds < budget_s, (
                    f"criterion exceeded its {budget_s}s budget: {self.seconds:.1f}s")
            return False

    return Guard()


def rand_correlation(rng, n):
    a = rng.standard_normal((n, n + 3))
    cov = a @ a.T / (n + 3)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


# ---------------------------------------------------------------------------
# 1: conditioning against two independent linear-algebra routes


def test_criterion_01_conditioning():
    with elapsed_under(5.0):
        rng = np.random.default_rng(2026)
        for trial in range(200):
            n = int(rng.integers(3, 9))
            cov = rand_correlation(rng, n)
            k = int(rng.integers(1, n))
            obs = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            law = condition(cov, obs)
            un = law.unobserved_idx
            s12 = cov[np.ix_(un, obs)]
            s22 = cov[np.ix_(obs, obs)]
            schur = cov[np.ix_(un, un)] - s12 @ np.linalg.solve(s22, s12.T)
            assert np.max(np.abs(law.residual_cov - schur)) < 1e-10, trial
            prec = np.linalg.inv(cov)
            inv_block = np.linalg.inv(prec[np.ix_(un, un)])
            assert np.max(np.abs(law.residual_cov - inv_block)) < 1e-10, trial
            mm = s12 @ np.linalg.inv(s22)
            assert np.max(np.abs(law.mean_map - mm)) < 1e-10, trial


# ---------------------------------------------------------------------------
# 2: the 2x2 conditional covariance of the derivative pair


def sigma_conditional(mod, t, s):
    """Cov((X(t), Y(s)) | X'(t) = Y'(s) = 0): the leading 2 x 2 block of
    the conditional law the interior integrand reads
    (kacrice._interior_conditional)."""
    return kr._dense(kr._interior_conditional(mod, t, s)[0])[:2, :2]


def h_function(mod, t, s):
    """(1, 1) inv(Sigma(t, s)) (1, 1)' / 2, the exponent of the Laplace
    step, with Sigma from sigma_conditional."""
    return 0.5 * float(np.linalg.solve(sigma_conditional(mod, t, s), np.ones(2)).sum())


@pytest.mark.parametrize("name", ["diagonal", "interior-point"])
def test_criterion_02_sigma_conditional(name):
    from jointeec.model import joint_cov
    with elapsed_under(5.0):
        mod = fixture(name)
        rng = np.random.default_rng(404)
        for _ in range(100):
            t, s = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
            direct = sigma_conditional(mod, t, s)
            cov = joint_cov(mod, [("X", t, 0), ("Y", s, 0), ("X", t, 1), ("Y", s, 1)])
            law = condition(cov, (2, 3))
            assert np.max(np.abs(direct - law.residual_cov)) < 1e-9


# ---------------------------------------------------------------------------
# 3: corner tail integral against its closed leading order


def corner_tail(sigma, u):
    """The integral of exp(-(z + u)' inv(sigma) (z + u) / 2) over the
    quadrant z >= 0: 2 pi sqrt(det sigma) times the orthant probability
    P{xi >= (u, u)} of xi ~ N(0, sigma), read from mvn_cdf."""
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    return 2.0 * math.pi * math.sqrt(det) * mvn_cdf(sigma, [u, u]).value


def tail_leading_order(sigma, u):
    """The leading order 1 / (u^2 a b) of corner_tail over its exponential
    factor exp(-(u, u) inv(sigma) (u, u)' / 2), with a and b the row sums of
    inv(sigma); it holds when both are positive, so that the corner is the
    dominating point of the quadrant."""
    a, b = np.linalg.inv(sigma).sum(axis=1)
    return 1.0 / (u * u * a * b)


def mills_product(R, u):
    sigma = np.array([[1.0, R], [R, 1.0]])
    exact = corner_tail(sigma, u) * math.exp(u * u / (1.0 + R))
    return exact / tail_leading_order(sigma, u)


def mills_bounds(R, u):
    """Lower and upper bounds on mills_product(R, u), valid at every u > 0.

    Substituting z = w / u in the tail integral gives
    mills_product(R, u) = E[exp(-q / (2 u^2))], with q = w' inv(sigma) w
    >= 0 and w1, w2 iid exponential with mean 1 + R.  Writing w = (1 + R) v
    with v1, v2 iid Exp(1), q = kappa (v1^2 - 2 R v1 v2 + v2^2) where
    kappa = (1 + R) / (1 - R), and E[v1^a v2^b] = a! b! gives the moments
    E[q] = 2 c, E[q^2] = 8 d and E[q^3] = 48 e with c, d, e below.  The
    alternating Taylor bounds 1 - x + x^2/2 - x^3/6 <= exp(-x) and
    1 - x <= exp(-x) <= 1 - x + x^2/2 for x >= 0 then bracket the product
    between 1 - c/u^2 + d/u^4 - e/u^6 (or 1 - c/u^2) and 1 - c/u^2 + d/u^4.
    """
    kappa = (1.0 + R) / (1.0 - R)
    c = kappa * (2.0 - R)
    d = kappa ** 2 * (7.0 - 6.0 * R + 2.0 * R ** 2)
    e = 3.0 * kappa ** 3 * (12.0 - 13.0 * R + 8.0 * R ** 2 - 2.0 * R ** 3)
    x = 1.0 / (u * u)
    upper = min(1.0, 1.0 - c * x + d * x ** 2)
    lower = max(1.0 - c * x, 1.0 - c * x + d * x ** 2 - e * x ** 3)
    return lower, upper


def test_criterion_03_mills_r_neg_u6():
    with elapsed_under(10.0):
        assert abs(mills_product(-0.3, 6.0) - 1.0) < 0.05


# The product tends to 1 like 1 - c/u^2 with c = 2 at R = 0 and 4.5 at
# R = 0.5, so a fixed band such as 5% at u = 6 or 1% at u = 10 is out of
# reach: the upper bound of mills_bounds is 0.94985 at R = 0, u = 6 and
# 0.98788, 0.98070, 0.95905 at u = 10 for R = -0.3, 0, 0.5.  The asserts
# below check the bracket instead.  Its narrowest margin, 2.9e-7 at
# R = -0.3, u = 10, is far above the relative error of mvn_cdf's
# bivariate kernel (gauss._BVN_REL_ERR, 9e-12).  Its widest margin,
# 0.0083 at R = 0.5, u = 6, is less than the 0.009 by which a 1% error in
# the Mills ratio moves the product, so such an error leaves the bracket
# at every level tested.


def test_criterion_03_mills_r0_u6():
    # measured product 0.9492, inside [0.94907, 0.94985]
    with elapsed_under(10.0):
        lower, upper = mills_bounds(0.0, 6.0)
        assert lower <= mills_product(0.0, 6.0) <= upper


def test_criterion_03_mills_r05_u6():
    # measured product 0.8979, inside [0.89366, 0.90625]
    with elapsed_under(10.0):
        lower, upper = mills_bounds(0.5, 6.0)
        assert lower <= mills_product(0.5, 6.0) <= upper


@pytest.mark.parametrize("R,measured", [(-0.3, 0.9879), (0.0, 0.9807), (0.5, 0.9586)])
def test_criterion_03_mills_u10(R, measured):
    # the products match the frozen measurements to well under a tenth of
    # a percent and sit inside the bracket, whose window at u = 10 is at
    # most 6e-4 wide
    with elapsed_under(10.0):
        p = mills_product(R, 10.0)
        assert p == pytest.approx(measured, abs=5e-4)
        lower, upper = mills_bounds(R, 10.0)
        assert lower <= p <= upper


def test_criterion_03_mills_gap_shrinks():
    with elapsed_under(10.0):
        for R in (-0.3, 0.0, 0.5):
            assert abs(mills_product(R, 10.0) - 1.0) < abs(mills_product(R, 6.0) - 1.0)


# ---------------------------------------------------------------------------
# 4: bivariate orthant closed form


def test_criterion_04_orthant():
    with elapsed_under(1.0):
        for rho in (-0.8, -0.25, 0.0, 0.4, 0.75):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            est = mvn_cdf(cov, [0.0, 0.0])
            ref = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert abs(est.value - ref) < 1e-7, rho


# ---------------------------------------------------------------------------
# 5: exponent value at the classified maximizers


def test_criterion_05_h_at_maximizers():
    with elapsed_under(1.0):
        for name in ("diagonal", "interior-point"):
            mod = fixture(name)
            cls = asy.classify(mod)
            target = 1.0 / (1.0 + cls.R)
            for t, s in cls.maximizers:
                assert h_function(mod, t, s) == pytest.approx(target, rel=1e-9)


# ---------------------------------------------------------------------------
# 6: ridge fixture, closed form vs face-pair sum vs Monte Carlo


def eec_ratios(name, levels):
    """Closed form over face-pair sum at each level, and the relative
    error that the face-pair sum reports there."""
    mod = fixture(name)
    cls = asy.classify(mod)
    ratios, rel_errs = [], []
    for u in levels:
        total = kr.eec(mod, u).total
        ratios.append(asy.closed_form(mod, cls, u).evaluate(u) / total.value)
        rel_errs.append(total.error / total.value)
    return np.array(ratios), np.array(rel_errs)


def ratio_series(name, levels):
    return eec_ratios(name, levels)[0].tolist()


# Levels of the Richardson fit below.  They stop at 20 because at
# u = 25 the error that eec reports underflows to zero (the QMC corner
# terms and the total both square numbers near 1e-190), and the
# relative-error guard in the tests would then check nothing.
FIT_LEVELS = (7.5, 9.0, 12.0, 15.0, 20.0)


def extrapolated_ratio(name, power):
    """Richardson extrapolation of closed form / face-pair sum to u = inf.

    Fits L + A/u^p + B/u^(p+1) + C/u^(p+2) over FIT_LEVELS by least
    squares and returns the coefficients (L first), the most the reported
    quadrature errors can move L, and those relative errors.
    """
    ratios, rel_errs = eec_ratios(name, FIT_LEVELS)
    u = np.asarray(FIT_LEVELS)
    design = np.column_stack(
        [np.ones_like(u)] + [u ** -(power + k) for k in range(3)])
    solve = np.linalg.pinv(design)
    spread = float(np.abs(solve[0]) @ (np.abs(ratios) * rel_errs))
    return solve @ ratios, spread, rel_errs


def test_criterion_06_ridge_band():
    # The closed form keeps only the ridge pair.  The eight boundary pairs
    # it drops decay at the same exponential rate, one power of u down, so
    # the ratio is 1 + A/u + B/u^2 + ... and a fixed band such as
    # [0.85, 1.15] is not reached until u = 7.5: the measured ratio
    # is 0.8151 at u = 4.5, and u (r - 1) = -0.83, -0.99, -1.11, -1.20,
    # -1.31 at u = 4.5, 6, 7.5, 9, 12.  The fit over FIT_LEVELS gives
    # A = -1.73, B = 5.7, C = -7.5, so the ratio sits near 1 - 1.7/u once
    # the B/u^2 term fades, and it extrapolates to L = 0.9998.  The face-
    # pair sums there report relative errors near 1.6e-4 (and
    # low_confidence, from the corner orthants); through the fit's
    # weights these move L by about 0.005.  Over the same levels a
    # two-term fit gives 0.9951 and a one-term fit 0.968: A/u alone does
    # not describe the ratio at these levels.
    with elapsed_under(300.0):
        r = ratio_series("diagonal", (4.5,))[0]
        assert r == pytest.approx(0.8150707183648982, abs=1e-4)
        coef, spread, rel_errs = extrapolated_ratio("diagonal", power=1)
        assert np.all(rel_errs <= 1e-3)
        assert spread <= 0.01
        assert abs(coef[0] - 1.0) <= 0.02


def test_criterion_06_ridge_monotone():
    with elapsed_under(300.0):
        r = ratio_series("diagonal", (3.0, 3.5, 4.0, 4.5))
        gaps = [abs(x - 1.0) for x in r]
        assert gaps[0] >= gaps[1] >= gaps[2] >= gaps[3]


def test_criterion_06_ridge_monte_carlo():
    with elapsed_under(300.0):
        mod = fixture("diagonal")
        ee = kr.eec(mod, 2.5).total.value
        est = mc.estimate_eec(mod, 2.5, 512, 20000, 42)
        assert est.error > 0.0
        assert abs(est.value - ee) < 3.0 * est.error


# ---------------------------------------------------------------------------
# 7: interior-point fixture, same three-way comparison


def test_criterion_07_interior_band():
    # The two-dimensional Laplace method leaves the ratio at
    # 1 + A/u^2 + B/u^3 + ..., so a fixed band such as [0.85, 1.15] is
    # not reached until u is near 6: the measured ratio is 1.2539 at
    # u = 4.5, and u^2 (r - 1) = 5.14, 4.30, 3.66, 3.34, 3.25 at u = 4.5,
    # 6, 7.5, 9, 12.  The fit over FIT_LEVELS gives A = 5.9, B = -51,
    # C = 259 and extrapolates to L = 0.9985; two terms give 1.0035 and
    # one term 0.9981.  The sums report relative errors near 1e-6, which
    # move L by about 1e-5.
    with elapsed_under(300.0):
        r = ratio_series("interior-point", (4.5,))[0]
        assert r == pytest.approx(1.2538610525512568, abs=1e-4)
        coef, spread, rel_errs = extrapolated_ratio("interior-point", power=2)
        assert np.all(rel_errs <= 1e-3)
        assert spread <= 0.01
        assert abs(coef[0] - 1.0) <= 0.02


def test_criterion_07_interior_monotone():
    with elapsed_under(300.0):
        r = ratio_series("interior-point", (3.0, 3.5, 4.0, 4.5))
        gaps = [abs(x - 1.0) for x in r]
        assert gaps[0] >= gaps[1] >= gaps[2] >= gaps[3]


def test_criterion_07_interior_monte_carlo():
    with elapsed_under(300.0):
        mod = fixture("interior-point")
        ee = kr.eec(mod, 2.5).total.value
        est = mc.estimate_eec(mod, 2.5, 512, 20000, 42)
        assert est.error > 0.0
        assert abs(est.value - ee) < 3.0 * est.error


# ---------------------------------------------------------------------------
# 8: corner fixture, closed form vs raw corner probabilities


def test_criterion_08_corner_sum():
    # For Corner_r1r2Nonzero the closed form is exactly the leading order
    # (1 + R)^2 / (2 pi sqrt(1 - R^2) u^2) exp(-u^2 / (1 + R)) of the
    # maximizing corner probability P{X(1) >= u, Y(0) >= u} (Savage 1962).
    # That probability over the closed form is therefore mills_product(R,
    # u), the same quantity as in criterion 3: 0.83196 at u = 4.5, inside
    # the bracket [0.7893, 0.8769] of mills_bounds.  The measured cf/total
    # of 1.1688 is 1/0.83196 times the 97.2% share of the maximizing
    # corner, so a band such as [0.9, 1.1] on it is out of reach at
    # u = 4.5.  The bracket is about 10% wide here; the identity with
    # mills_product, whose leading order 1/(u^2 a b) is written out here
    # apart from closed_form, is what catches a closed-form coefficient a
    # few percent off.
    with elapsed_under(60.0):
        mod = fixture("corner-nondegenerate")
        cls = asy.classify(mod)
        u = 4.5
        cf = asy.closed_form(mod, cls, u).evaluate(u)
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        total = 0.0
        contributions = {}
        for t0, s0 in corners:
            est = kr.corner_corner_term(mod, t0, s0, u,
                                        constrain_x=False, constrain_y=False)
            contributions[(t0, s0)] = est.value
            total += est.value
        # the classified maximizing corner dominates the sum
        assert contributions[(1.0, 0.0)] / total > 0.95
        assert cf / total == pytest.approx(1.1688464686555844, abs=1e-4)
        corner_ratio = contributions[(1.0, 0.0)] / cf
        assert corner_ratio == pytest.approx(mills_product(cls.R, u), rel=1e-6)
        lower, upper = mills_bounds(cls.R, u)
        assert lower <= corner_ratio <= upper


# ---------------------------------------------------------------------------
# 9: tilted Monte Carlo against the face-pair sum at a moderate level


@pytest.mark.parametrize("name", ["diagonal", "interior-point"])
def test_criterion_09_importance_sampling(name):
    with elapsed_under(600.0):
        mod = fixture(name)
        cls = asy.classify(mod)
        # shift at the middle classified maximizer: on a ridge an endpoint
        # shift leaves most of the event mass unsampled, and the weights
        # then vary too little across the sample to show it
        shift = cls.maximizers[len(cls.maximizers) // 2]
        ee = kr.eec(mod, 3.0).total.value
        est = mc.estimate_joint_excursion(mod, 3.0, 512, 40000, 11, shift=shift)
        assert not est.low_confidence
        tol = max(3.0 * est.error, 0.10 * ee)
        assert abs(est.value - ee) < tol


# ---------------------------------------------------------------------------
# 10: structural invariants


def test_criterion_10_transpose():
    with elapsed_under(300.0):
        for name in ("diagonal", "interior-point"):
            mod = fixture(name)
            a = kr.eec(mod, 3.0).total.value
            b = kr.eec(transpose(mod), 3.0).total.value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_criterion_10_independence_factorization():
    from scipy.stats import norm
    with elapsed_under(300.0):
        mod = independent_model()
        lam = mod.lambda1
        for u in (2.0, 3.0):
            one_dim = norm.sf(u) + math.sqrt(lam) / (2.0 * math.pi) * math.exp(-0.5 * u * u)
            res = kr.eec(mod, u)
            assert abs(res.total.value - one_dim**2) <= 1e-6 * one_dim**2


def test_criterion_10_tilted_estimator_unbiased():
    with elapsed_under(300.0):
        mod = independent_model()
        for seed in range(10):
            plain = mc.estimate_joint_excursion(mod, 2.0, 128, 4000, seed)
            tilt = mc.estimate_joint_excursion(mod, 2.0, 128, 4000, seed,
                                               shift=(0.5, 0.5))
            combined = math.hypot(plain.error, tilt.error)
            assert abs(plain.value - tilt.value) < 3.0 * combined, seed


# ---------------------------------------------------------------------------
# the largest grid neither blows up nor crawls


def test_grid_4096_bounded_time_and_memory():
    # Dense sampling at gridN = 4096 and 20000 reps holds normals, paths,
    # covariance and factor of about 3.7 GB and runs for minutes.  The
    # rank-16 factor and paths formed one block of replicates at a time
    # keep both estimators to about a second each and 140 MB of arrays.
    import tracemalloc
    mod = fixture("interior-point")
    tracemalloc.start()
    try:
        with elapsed_under(15.0):
            exc = mc.estimate_joint_excursion(mod, 4.5, 4096, 20000, 3, shift=(0.5, 0.5))
            chi = mc.estimate_eec(mod, 4.5, 4096, 20000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300e6
    assert exc.value > 0.0 and not exc.low_confidence
    assert math.isfinite(chi.value) and chi.error >= 0.0
