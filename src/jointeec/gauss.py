"""Dense multivariate Gaussian computations in dimensions up to four.

Contents: conditioning (Schur complements with named pivots), survival
CDFs P{xi >= lower} for dims 1-4, truncated moments of degree <= 2
computed by two independent routes and cross-checked, the exact corner
tail double integral, and its closed asymptotic form.

Dimension 1 is a closed form and dimension 2 reduces to a single smooth
1-d integral over an arcsine substitution.  Dimensions 3-4 condition on
the coordinates with the lowest thresholds and integrate them with a
fixed tensor Gauss-Legendre rule against the vectorized bivariate
kernel for the other two (the reduction of Genz 2004), so every result
is deterministic by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import quadrature
from .common import (
    QUADRATURE,
    AccuracyError,
    ArgumentError,
    ConsistencyError,
    DegeneracyError,
    Estimate,
    RegimeError,
    Tolerances,
    UnsupportedDimensionError,
    DEFAULT_TOL,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


# ---------------------------------------------------------------------------
# conditioning

@dataclass(frozen=True)
class ConditionalLaw:
    """Gaussian conditional law: mean_map @ observed_values gives the
    conditional mean of the unobserved block; residual_cov is its
    covariance (independent of the observed values)."""

    mean_map: np.ndarray
    residual_cov: np.ndarray
    observed_idx: tuple[int, ...]
    unobserved_idx: tuple[int, ...]


def _cholesky_named(mat: np.ndarray, labels, floor: float) -> np.ndarray:
    """Cholesky factor with pivot checking; failures name the index."""
    n = mat.shape[0]
    low = np.zeros((n, n))
    for k in range(n):
        s = mat[k, k] - low[k, :k] @ low[k, :k]
        if s <= floor:
            raise DegeneracyError(
                f"matrix not positive definite: pivot {s:.3e} at index {labels[k]}",
                pivot_index=labels[k])
        low[k, k] = math.sqrt(s)
        if k + 1 < n:
            low[k + 1:, k] = (mat[k + 1:, k] - low[k + 1:, :k] @ low[k, :k]) / low[k, k]
    return low


def condition(cov, observed_idx, tol: Tolerances = DEFAULT_TOL) -> ConditionalLaw:
    """Split a covariance into the law of the rest given the observed block."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    obs = tuple(int(i) for i in observed_idx)
    if len(set(obs)) != len(obs) or any(i < 0 or i >= n for i in obs):
        raise ArgumentError(f"bad observed index set {obs} for dimension {n}")
    uno = tuple(i for i in range(n) if i not in set(obs))
    if not obs:
        return ConditionalLaw(np.zeros((n, 0)), cov.copy(), (), uno)
    s_oo = cov[np.ix_(obs, obs)]
    s_uo = cov[np.ix_(uno, obs)]
    s_uu = cov[np.ix_(uno, uno)]
    low = _cholesky_named(s_oo, obs, tol.observed_pivot_floor)
    # mean_map = S_uo S_oo^{-1} via two triangular solves
    half = np.linalg.solve(low, s_uo.T)          # L^{-1} S_ou
    mean_map = np.linalg.solve(low.T, half).T
    residual = s_uu - half.T @ half
    asym = float(np.max(np.abs(residual - residual.T))) if residual.size else 0.0
    if asym > tol.symmetry_tol:
        raise DegeneracyError(f"residual covariance asymmetric by {asym:.3e}")
    residual = 0.5 * (residual + residual.T)
    return ConditionalLaw(mean_map, residual, obs, uno)


# ---------------------------------------------------------------------------
# survival CDFs

def _bvn_survival(h: float, k: float, rho: float) -> tuple[float, float]:
    """P{Z1 >= h, Z2 >= k} for standard bivariate normal, correlation rho.

    Tail-splitting identity: the independent product plus an integral of
    the bivariate density along the correlation path rho = sin(theta).
    """
    base = float(ndtr(-h)) * float(ndtr(-k))
    if rho == 0.0:
        return base, 1e-16
    asr = math.asin(max(-1.0, min(1.0, rho)))
    hk2 = 2.0 * h * k
    hh_kk = h * h + k * k

    def f(theta):
        sn = np.sin(theta)
        return np.exp(-(hh_kk - hk2 * sn) / (2.0 * (1.0 - sn * sn)))

    res = quadrature.integrate_1d(f, 0.0, asr, rel_tol=1e-11, abs_tol=1e-17,
                                  max_evals=60_000)
    value = base + res.value / (2.0 * math.pi)
    err = res.error / (2.0 * math.pi) + 2e-16
    return value, err


@functools.lru_cache(maxsize=None)
def _gl(n: int):
    """n-node Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _bvn_survival_batch(h, k, rho) -> np.ndarray:
    """Vectorized P{Z1 >= h, Z2 >= k}: same identity as the scalar
    version but with a fixed 64-node rule, which is exact to roughly
    1e-15 for |rho| <= 0.95.  More extreme correlations (a boundary
    layer forms in the integrand) fall back to the adaptive path."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    rho = np.clip(np.atleast_1d(np.asarray(rho, dtype=float)), -1.0, 1.0)
    h, k, rho = np.broadcast_arrays(h, k, rho)
    out = ndtr(-h) * ndtr(-k)
    easy = (rho != 0.0) & (np.abs(rho) <= 0.95)
    if np.any(easy):
        x, w = _gl(64)
        asr = np.arcsin(rho[easy])[:, None]
        if np.all(asr == asr[0]):
            asr = asr[:1]  # one correlation: the path nodes are shared
        sn = np.sin(asr * x[None, :])
        c = 0.5 / (1.0 - sn * sn)
        he, ke = h[easy, None], k[easy, None]
        expo = np.exp((2.0 * he * ke) * (sn * c) - (he * he + ke * ke) * c)
        out[easy] += (expo @ w) * asr[:, 0] / (2.0 * math.pi)
    hard = np.abs(rho) > 0.95
    for idx in np.nonzero(hard)[0]:
        out[idx] = _bvn_survival(float(h[idx]), float(k[idx]), float(rho[idx]))[0]
    return out


@functools.lru_cache(maxsize=None)
def _active_sets(d: int):
    """Every nonempty subset of range(d), as one index array per size."""
    return tuple(np.array(list(itertools.combinations(range(d), k)))
                 for k in range(1, d + 1))


def _dominating_point(corr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The point of {z >= a} nearest the origin in the metric of corr^-1,
    where the law restricted to the orthant peaks.  The minimizer has
    some active set S with z_S = a_S and z = corr[:, S] corr_SS^-1 a_S;
    every feasible such point is a candidate, so the best of them is the
    minimizer (a quadratic program in at most four variables)."""
    if np.all(a <= 0.0):
        return np.zeros(len(a))
    best, best_q = a, math.inf
    for sets in _active_sets(len(a)):
        sol = np.linalg.solve(corr[sets[:, :, None], sets[:, None, :]], a[sets][:, :, None])
        z = (np.swapaxes(corr[sets], 1, 2) @ sol)[:, :, 0]
        q = (a[sets][:, None, :] @ sol)[:, 0, 0]
        q[~np.all(z >= a - 1e-12, axis=1)] = math.inf
        i = int(np.argmin(q))
        if q[i] < best_q:
            best, best_q = z[i], q[i]
    return best


def _orthant_conditioned(corr: np.ndarray, a: np.ndarray) -> tuple[float, float, int]:
    """P{Z >= a} for dims 3-4 by conditioning onto the bivariate kernel.

    A holds the d-2 coordinates with the lowest thresholds, B the other
    two.  Given A = x the law of B is Gaussian with mean beta x and a
    covariance that does not depend on x, so
        P = int_{x >= a_A} phi_A(x) P2((a_B - beta x) / sd_B; rho) dx,
    integrated by a tensor Gauss-Legendre rule over the box
    [max(a_j, z_j - 9), z_j + 9], where z is the dominating point of the
    orthant (_dominating_point).  The orthant law is log-concave with
    coordinate variances at most one, so what the box cuts off is a
    nine-sigma tail around its peak, whether the thresholds are high, low
    or mixed.  Returns the value with 32 nodes per panel, its gap to the
    16-node value and the node count."""
    order = np.argsort(a, kind="stable")
    corr = corr[np.ix_(order, order)]
    a = a[order]
    m = len(a) - 2
    s_aa, s_ab, s_bb = corr[:m, :m], corr[:m, m:], corr[m:, m:]
    beta = np.linalg.solve(s_aa, s_ab).T
    resid = s_bb - beta @ s_ab
    sd_b = np.sqrt(np.diag(resid))
    rho = resid[0, 1] / (sd_b[0] * sd_b[1])
    peak = _dominating_point(corr, a)[:m]
    lo = np.maximum(a[:m], peak - 9.0)
    # a peak more than two units above the lower edge splits its axis into
    # one panel on each side, so the mass sits at a panel end, where the
    # Gauss-Legendre nodes cluster; nearer, those nodes resolve it as is
    edges = [(lo[j], peak[j], peak[j] + 9.0) if peak[j] - lo[j] > 2.0
             else (lo[j], peak[j] + 9.0) for j in range(m)]
    pdf = _density_eval(s_aa)

    def rule(n):
        t, w = _gl(n)
        nodes = [np.concatenate([p + (q - p) * t for p, q in zip(e[:-1], e[1:])])
                 for e in edges]
        weights = [np.concatenate([(q - p) * w for p, q in zip(e[:-1], e[1:])])
                   for e in edges]
        x = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
        wts = functools.reduce(np.multiply.outer, weights).ravel()
        shift = x @ beta.T
        tail = _bvn_survival_batch((a[m] - shift[:, 0]) / sd_b[0],
                                   (a[m + 1] - shift[:, 1]) / sd_b[1], rho)
        return float(wts @ (pdf(x) * tail)), len(wts)

    value, n_fine = rule(32)
    coarse, n_coarse = rule(16)
    return value, abs(value - coarse), n_fine + n_coarse


def mvn_cdf(cov, lower) -> Estimate:
    """P{xi_i >= lower_i for all i} for centered xi ~ N(0, cov), dim <= 4.

    Dims 3-4 condition on all but two coordinates (see
    _orthant_conditioned) and hold for any thresholds; the value is the
    32-node rule, the error the gap to the 16-node rule plus a rounding
    floor."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    n = cov.shape[0]
    if cov.shape != (n, n) or lower.shape != (n,):
        raise ArgumentError("cov must be square and lower of matching length")
    if n < 1 or n > 4:
        raise UnsupportedDimensionError(f"mvn_cdf supports dims 1..4, got {n}")
    if np.any(np.isposinf(lower)):
        return Estimate(0.0, 0.0, 0, QUADRATURE)
    keep = ~np.isneginf(lower)
    if not np.all(keep):
        # a -inf threshold is no constraint at all: marginalize it away
        cov = cov[np.ix_(keep, keep)]
        lower = lower[keep]
        n = len(lower)
        if n == 0:
            return Estimate(1.0, 0.0, 0, QUADRATURE)
    sd = np.sqrt(np.diag(cov))
    if np.any(np.diag(cov) <= 1e-12):
        bad = int(np.argmin(np.diag(cov)))
        raise DegeneracyError(
            f"covariance diagonal not positive at index {bad}", pivot_index=bad)
    corr = cov / np.outer(sd, sd)
    a = lower / sd
    if n == 1:
        return Estimate(float(ndtr(-a[0])), 1e-16, 1, QUADRATURE)
    # PSD gate with named pivots, before any engine runs
    _cholesky_named(corr, tuple(range(n)), 1e-12)
    if n == 2:
        value, err = _bvn_survival(a[0], a[1], corr[0, 1])
        return Estimate(value, err, 2, QUADRATURE)
    value, gap, evals = _orthant_conditioned(corr, a)
    return Estimate(value, gap + 1e-14 * value, evals, QUADRATURE)


# ---------------------------------------------------------------------------
# truncated moments, two independent routes

def _density_eval(cov: np.ndarray):
    low = _cholesky_named(cov, tuple(range(cov.shape[0])), 1e-300)
    norm = (2.0 * math.pi) ** (cov.shape[0] / 2.0) * float(np.prod(np.diag(low)))

    def pdf(x: np.ndarray) -> np.ndarray:
        sol = np.linalg.solve(low, x.T)
        q = np.sum(sol * sol, axis=0)
        return np.exp(-0.5 * q) / norm

    return pdf


def _route_quadrature(cov: np.ndarray, lower: np.ndarray, monomial,
                      abs_tol: float = 2e-6, max_evals: int = 400_000):
    """Direct cubature of x^monomial times the density over the region,
    each coordinate mapped to the unit interval.  Unconstrained
    coordinates are clipped to +-8.5 marginal standard deviations, which
    biases moments of degree <= 2 by well under the comparison
    tolerance; the rational map on the tails defeats the cubature's
    error estimate, a hard clip does not."""
    n = cov.shape[0]
    pdf = _density_eval(cov)
    finite = np.isfinite(lower)
    span = 8.5 * np.sqrt(np.diag(cov))

    def g(tpts: np.ndarray) -> np.ndarray:
        tpts = tpts.reshape(-1, n)
        x = np.empty_like(tpts)
        jac = np.ones(tpts.shape[0])
        for j in range(n):
            t = tpts[:, j]
            if finite[j]:
                om = 1.0 - t
                x[:, j] = lower[j] + t / om
                jac = jac / (om * om)
            else:
                x[:, j] = span[j] * (2.0 * t - 1.0)
                jac = jac * 2.0 * span[j]
        vals = pdf(x) * jac
        for j in range(n):
            if monomial[j]:
                vals = vals * x[:, j] ** monomial[j]
        return vals

    if n == 1:
        res = quadrature.integrate_1d(lambda t: g(t[:, None]), 0.0, 1.0,
                                      rel_tol=1e-7, abs_tol=abs_tol,
                                      max_evals=max_evals)
    else:
        res = quadrature.integrate_nd(g, np.zeros(n), np.ones(n),
                                      rel_tol=1e-7, abs_tol=abs_tol,
                                      max_evals=max_evals)
    return res


def _face_factors(cov: np.ndarray, lower: np.ndarray, tol: Tolerances):
    """Density-weighted face integrals F_j: the marginal density of
    coordinate j at its bound times the conditional survival CDF of the
    remaining region.  Returns (F values, error bound, evaluation count)."""
    n = cov.shape[0]
    f_vals = np.zeros(n)
    f_errs = np.zeros(n)
    evals = 0
    for j in range(n):
        if not np.isfinite(lower[j]):
            continue
        sdj = math.sqrt(cov[j, j])
        dens = float(_phi(lower[j] / sdj)) / sdj
        if n == 1:
            f_vals[j] = dens
            continue
        law = condition(cov, (j,), tol)
        mu = law.mean_map[:, 0] * lower[j]
        rest = np.array([lower[i] for i in law.unobserved_idx]) - mu
        sub = mvn_cdf(law.residual_cov, rest)
        f_vals[j] = dens * sub.value
        f_errs[j] = dens * sub.error
        evals += sub.n
    return f_vals, f_errs, evals


def truncated_moments(cov, lower, monomials,
                      tol: Tolerances = DEFAULT_TOL) -> list[Estimate]:
    """E{ prod_j xi_j^monomial_j * 1{xi >= lower} } for several monomials.

    Route one reduces to lower-dimensional CDFs (moment identities for
    the truncated Gaussian); route two integrates the truncated density
    directly.  Both run every time; disagreement beyond
    tol.moment_consistency_tol raises.  Shared pieces (the region CDF,
    the face factors, the conditional laws) are computed once.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    n = cov.shape[0]
    if n < 1 or n > 4:
        raise UnsupportedDimensionError(f"truncated moments support dims 1..4, got {n}")
    monomials = [tuple(int(p) for p in m) for m in monomials]
    for m in monomials:
        if len(m) != n or any(p < 0 for p in m) or sum(m) > 2:
            raise ArgumentError(f"bad monomial {m} for dimension {n}")

    prob = mvn_cdf(cov, lower)
    evals = prob.n
    degrees = [sum(m) for m in monomials]
    need_first = any(d >= 1 for d in degrees)
    need_second = any(d == 2 for d in degrees)

    first = first_err = None
    if need_first or need_second:
        f_vals, f_errs, ev = _face_factors(cov, lower, tol)
        evals += ev
        first = cov @ f_vals
        first_err = np.abs(cov) @ f_errs

    second = second_err = None
    if need_second:
        hmat = np.zeros((n, n))
        herr = np.zeros((n, n))
        for j in range(n):
            if not np.isfinite(lower[j]):
                continue
            sdj = math.sqrt(cov[j, j])
            dens = float(_phi(lower[j] / sdj)) / sdj
            if n == 1:
                hmat[0, 0] = dens * lower[0]
                continue
            law = condition(cov, (j,), tol)
            mu = law.mean_map[:, 0] * lower[j]
            rest = np.array([lower[i] for i in law.unobserved_idx]) - mu
            sub_p = mvn_cdf(law.residual_cov, rest)
            sub_f, sub_fe, ev = _face_factors(law.residual_cov, rest, tol)
            evals += sub_p.n + ev
            centered = law.residual_cov @ sub_f
            centered_err = np.abs(law.residual_cov) @ sub_fe
            for pos, k in enumerate(law.unobserved_idx):
                hmat[j, k] = dens * (mu[pos] * sub_p.value + centered[pos])
                herr[j, k] = dens * (abs(mu[pos]) * sub_p.error + centered_err[pos])
            hmat[j, j] = dens * lower[j] * sub_p.value
            herr[j, j] = dens * abs(lower[j]) * sub_p.error
        second = np.zeros((n, n))
        second_err = np.zeros((n, n))
        for i in range(n):
            for k in range(n):
                second[i, k] = cov[i, k] * prob.value + cov[i, :] @ hmat[:, k]
                second_err[i, k] = (abs(cov[i, k]) * prob.error
                                    + np.abs(cov[i, :]) @ herr[:, k])

    out: list[Estimate] = []
    for m, deg in zip(monomials, degrees):
        if deg == 0:
            val, err = prob.value, prob.error
        elif deg == 1:
            i = next(idx for idx, p in enumerate(m) if p)
            val, err = float(first[i]), float(first_err[i])
        else:
            pair = [idx for idx, p in enumerate(m) for _ in range(p)]
            i, k = pair[0], pair[1]
            val, err = float(second[i, k]), float(second_err[i, k])
        check = _route_quadrature(cov, lower, m)
        if not check.converged:
            raise AccuracyError(
                f"direct-quadrature route for moment {m} did not converge",
                best_value=check.value, achieved_error=check.error)
        evals_m = evals + check.n_evals
        gap = abs(val - check.value)
        if gap > tol.moment_consistency_tol:
            raise ConsistencyError(
                f"truncated moment {m} disagrees between reduction "
                f"({val:.9e}) and direct quadrature ({check.value:.9e})",
                value_a=val, value_b=check.value)
        out.append(Estimate(val, max(err, gap), evals_m, QUADRATURE))
    return out


def truncated_moment(cov, lower, monomial, tol: Tolerances = DEFAULT_TOL) -> Estimate:
    return truncated_moments(cov, lower, [monomial], tol)[0]


# ---------------------------------------------------------------------------
# corner tail integrals

@dataclass(frozen=True)
class TailAsymptotic:
    """Closed leading-order equivalent of the corner tail integral,
    without its exponential factor: 1/(u^2 a b), where a and b are the
    row sums of the inverse covariance."""

    value: float
    a: float
    b: float


def bivariate_tail_exact(sigma, u: float, rel_tol: float | None = None) -> Estimate:
    """The double integral of exp(-(x+u, y+u) sigma^{-1} (x+u, y+u)^T / 2)
    over the positive quadrant, by adaptive cubature.

    The constant exp(-(u,u) sigma^{-1} (u,u)^T / 2) is factored out so
    the cubature works on an O(1) integrand.
    """
    if rel_tol is None:
        rel_tol = DEFAULT_TOL.tail_rel_tol
    sig = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sig.shape != (2, 2):
        raise ArgumentError("sigma must be 2x2")
    low = _cholesky_named(sig, (0, 1), 1e-12)
    inv = np.linalg.inv(sig)
    uu = np.array([u, u])
    qf = float(uu @ inv @ uu)
    lin = inv @ uu

    def g(tpts: np.ndarray) -> np.ndarray:
        tpts = tpts.reshape(-1, 2)
        om = 1.0 - tpts
        z = tpts / om
        jac = 1.0 / np.prod(om * om, axis=1)
        quad = (inv[0, 0] * z[:, 0] ** 2 + 2.0 * inv[0, 1] * z[:, 0] * z[:, 1]
                + inv[1, 1] * z[:, 1] ** 2)
        return np.exp(-0.5 * quad - z @ lin) * jac

    res = quadrature.integrate_nd(g, np.zeros(2), np.ones(2),
                                  rel_tol=rel_tol, abs_tol=0.0,
                                  max_evals=DEFAULT_TOL.quad_max_evals)
    scale = math.exp(-0.5 * qf)
    if not res.converged:
        raise AccuracyError(
            "corner tail integral did not converge to the requested tolerance",
            best_value=scale * res.value, achieved_error=scale * res.error)
    return Estimate(scale * res.value, scale * res.error + 1e-300,
                    res.n_evals, QUADRATURE)


def mills_ratio_asymptotic(sigma, u: float) -> TailAsymptotic:
    """Leading-order equivalent of the corner tail integral divided by
    its exponential factor; valid only when the quadrant corner is the
    dominating point of the exponent."""
    sig = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sig.shape != (2, 2):
        raise ArgumentError("sigma must be 2x2")
    _cholesky_named(sig, (0, 1), 1e-12)
    inv = np.linalg.inv(sig)
    a = float(inv[0, 0] + inv[1, 0])
    b = float(inv[0, 1] + inv[1, 1])
    if a <= 0.0 or b <= 0.0:
        raise RegimeError(
            f"corner is not the dominating point: inverse row sums a={a:.6g}, b={b:.6g}")
    return TailAsymptotic(value=1.0 / (u * u * a * b), a=a, b=b)
