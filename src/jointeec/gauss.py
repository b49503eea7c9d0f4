"""Dense multivariate Gaussian computations in dimensions up to four.

Contents: the standard normal CDF, conditioning (Schur complements with
named pivots), survival CDFs P{xi >= lower} for dims 1-4, truncated
moments of degree <= 2 by direct cubature (the independent reference the
face-pair integrands are spot-checked against; truncated_moments runs
the cubatures of several regions in lockstep).

The normal CDF is written as Phi(-h) = exp(-h^2 / 2) R(h) for h >= 0,
with R the Mills ratio over sqrt(2 pi) taken from piecewise polynomials
(tools/mills_coefficients.py), so it keeps its relative accuracy, about
6e-16, down to Phi(-37.5).  Dimension 1 is that closed form.  Dimension
2 is one bivariate kernel, a 1-d integral along the correlation path
rho = sin(theta) by a Gauss-Legendre rule sized per point, which every
caller uses.  Dimensions 3-4 condition on the coordinates with the
lowest thresholds and integrate them with a fixed tensor Gauss-Legendre
rule against that kernel for the other two (the reduction of Genz 2004),
so every result is deterministic by construction.

The kernel is batch-invariant: a point's value has the same bits whatever
other points share its call and wherever it sits among them.  Its path
rule sums each point's nodes with einsum's own loop, not a BLAS matrix
product, which rounds a row differently by its place in the batch
(about one row in ten moves by an ulp when other rows are put in front
of it or when it is evaluated alone); every other step is elementwise.
The lockstep edge integrals of kacrice rely on it: they put the nodes of
up to four integrals in one call, and each must get the bits it gets
alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .common import (
    QUADRATURE,
    ArgumentError,
    DegeneracyError,
    Estimate,
    UnsupportedDimensionError,
    DEFAULT_TOL,
)

# ---------------------------------------------------------------------------
# the normal CDF

# R(h) = exp(h^2 / 2) P{Z >= h} on eight pieces of y = (h - 4) / (h + 4):
# row i holds the coefficients of t^0 .. t^12, t = 8 y - (2 i - 7) in
# [-1, 1], from Chebyshev interpolation in 60-digit arithmetic.  Written
# by `python3 tools/mills_coefficients.py`.
_MILLS = (
    (0.40915505758632975, -0.0824417465017111, 0.007929294028844309,
     -0.0004603222026209462, 1.3616749489486339e-05, 2.4338550012640335e-08,
     -1.272693192906411e-08, 1.7749171703088428e-11, 1.4380681846474977e-11,
     1.2932398128910678e-13, -1.63725111766299e-14, -5.065248866905497e-16,
     1.0516661690649155e-17),
    (0.2725240013809122, -0.05581317443488914, 0.005493093512681284,
     -0.0003524148403539515, 1.3117876792465202e-05, -1.2033611944560999e-07,
     -1.0842591741916935e-08, 2.484380893356111e-10, 1.3216295292209748e-11,
     -2.7935321628585284e-13, -2.2314845669466943e-14, 8.501152487377709e-17,
     3.7764351859904187e-17),
    (0.18025608420391193, -0.037661591000451786, 0.0036813934966757563,
     -0.0002538591131402908, 1.1346907276219623e-05, -2.2439415342376258e-07,
     -6.143343603663128e-09, 3.997079454912912e-10, 4.601744430540152e-12,
     -6.355782349596044e-13, -9.681016887803322e-15, 1.0427703461771447e-15,
     3.2227187719010143e-17),
    (0.11780163202170463, -0.02563817411293625, 0.0024114124989182482,
     -0.00017281399146165178, 8.848792247505621e-06, -2.6380294536066426e-07,
     -4.746635710666661e-10, 3.786705780623512e-10, -7.019332737220441e-12,
     -5.641218950944592e-13, 1.7178675339472682e-14, 1.1181264762284317e-15,
     -3.2320185111091785e-17),
    (0.07492157686684571, -0.01780416477734493, 0.0015659209246818926,
     -0.000112454966328961, 6.2784479093162854e-06, -2.418048387080093e-07,
     3.733351109670483e-09, 2.0646298790537178e-10, -1.2954598115631364e-11,
     -5.748075280490586e-14, 2.821145245353649e-14, -2.658327695014494e-16,
     -6.603211164605182e-17),
    (0.04477027073596639, -0.012707578687816823, 0.0010235410704825996,
     -7.12097298999048e-05, 4.127829231278631e-06, -1.8536797320311975e-07,
     5.221516195971711e-09, 1.5069346766008144e-11, -9.721515959778008e-12,
     3.518710026520671e-13, 9.429050894653458e-15, -1.1323001976668236e-15,
     3.791845286300198e-18),
    (0.02294004710034658, -0.009349669893394814, 0.0006817687229779836,
     -4.477336490097134e-05, 2.582270629205056e-06, -1.2504618087261523e-07,
     4.595798513012848e-09, -8.637480146420098e-11, -3.0545242544063857e-12,
     3.2601710722347955e-13, -9.096815685014572e-15, -3.907638425335891e-16,
     4.121755291903891e-17),
    (0.0066471925886843215, -0.007086405143897973, 0.0004661401974831555,
     -2.8433961990370277e-05, 1.5811314890307924e-06, -7.794418170360592e-08,
     3.229480277432821e-09, -9.813203291881855e-11, 9.537342914037217e-13,
     1.2039980997507338e-13, -9.095132412918368e-15, 2.470095738693979e-16,
     9.151394472925802e-18),
)
_MILLS_T = np.array(_MILLS).T.copy()  # (13, 8): one row per power of t


def ndtr(x):
    """Phi(x) = P{Z <= x} for standard normal Z, elementwise; a scalar in
    gives a float out without the array path's fixed cost.

    Q(h) = Phi(-h) = exp(-h^2 / 2) R(h) for h = |x|, with R from _MILLS.
    exp(-h^2 / 2) is taken on the split h = hi + lo with hi = floor(64 h) /
    64: hi^2 / 2 is exact, so the far tail loses no digits to a rounded
    square.  Against 40-digit arithmetic the relative error of Q is below
    6e-16 on [0, 37.5]; past h = 40 it underflows to 0."""
    if np.ndim(x) == 0:
        return _ndtr_scalar(float(x))
    x = np.asarray(x, dtype=float)
    h = np.minimum(np.abs(x), 40.0)
    hp4 = h + 4.0
    # the piece: floor(4 (y + 1)), at most 7; fmin sends NaN to the last
    # piece before the cast, which would warn on it, and t carries the NaN
    i = np.fmin(8.0 * h / hp4, 7.0).astype(np.intp)
    t = ((15.0 - 2.0 * i) * h - (8.0 * i + 4.0)) / hp4
    coef = _MILLS_T[:, i]
    p = coef[12] * t
    for c in coef[11:0:-1]:
        p += c
        p *= t
    p += coef[0]
    hi = np.floor(h * 64.0) / 64.0
    lo = h - hi
    q = np.exp(-0.5 * hi * hi) * np.exp(-lo * (hi + 0.5 * lo)) * p
    return np.where(x < 0.0, q, 1.0 - q)


def _ndtr_scalar(x: float) -> float:
    """ndtr for one float, step for step as the array path."""
    if math.isnan(x):
        return x
    h = min(abs(x), 40.0)
    hp4 = h + 4.0
    i = int(8.0 * h / hp4)
    t = ((15 - 2 * i) * h - (8 * i + 4)) / hp4
    coef = _MILLS[i]
    p = coef[12] * t
    for c in coef[11:0:-1]:
        p = (p + c) * t
    p += coef[0]
    hi = math.floor(h * 64.0) / 64.0
    lo = h - hi
    q = math.exp(-0.5 * hi * hi) * math.exp(-lo * (hi + 0.5 * lo)) * p
    return q if x < 0.0 else 1.0 - q


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


def condition(cov, observed_idx) -> ConditionalLaw:
    """Split a covariance into the law of the rest given the observed block."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    obs = tuple(int(i) for i in observed_idx)
    if len(set(obs)) != len(obs) or any(i < 0 or i >= n for i in obs):
        raise ArgumentError(f"bad observed index set {obs} for dimension {n}")
    if not obs:
        return ConditionalLaw(np.zeros((n, 0)), cov.copy(), (), tuple(range(n)))
    return _conditional_law(cov, obs, _observed_factor(cov, obs))


def _observed_factor(cov: np.ndarray, obs) -> np.ndarray:
    """The Cholesky factor of the observed block that condition divides by."""
    return _cholesky_named(cov[np.ix_(obs, obs)], tuple(obs), DEFAULT_TOL.observed_pivot_floor)


def _conditional_law(cov: np.ndarray, obs, low: np.ndarray) -> ConditionalLaw:
    """condition given the factor low of the observed block."""
    obs = tuple(int(i) for i in obs)
    uno = tuple(i for i in range(cov.shape[0]) if i not in set(obs))
    s_uo = cov[np.ix_(uno, obs)]
    s_uu = cov[np.ix_(uno, uno)]
    # mean_map = S_uo S_oo^{-1} via two triangular solves
    half = np.linalg.solve(low, s_uo.T)          # L^{-1} S_ou
    mean_map = np.linalg.solve(low.T, half).T
    residual = s_uu - half.T @ half
    asym = float(np.max(np.abs(residual - residual.T))) if residual.size else 0.0
    if asym > DEFAULT_TOL.symmetry_tol:
        raise DegeneracyError(f"residual covariance asymmetric by {asym:.3e}")
    residual = 0.5 * (residual + residual.T)
    return ConditionalLaw(mean_map, residual, obs, uno)


# ---------------------------------------------------------------------------
# survival CDFs

# For rho < 0 the tail-splitting identity cancels: the path integral from
# rho = 0 is negative and, far out, nearly equal to Phi(-h) Phi(-k).  There
# the path starts at rho = -1 instead, where the probability is 0 once
# h + k >= 0, so every term is positive.  The integrand then carries the
# factor exp(-(h + k)^2 / (2 cos^2 theta)), which vanishes at theta = -pi/2;
# where (h + k) / sqrt(1 - rho^2) < 1 it is a layer narrower than the path,
# which the fixed rule does not resolve, and the path from rho = 0 cancels
# little there.  Against 40-digit references on 880 points (h, k from -2
# to 9, rho from -0.99 to -0.05), switching at this ratio gives at most
# 1.5e-13 relative wherever h + k <= 1.6, where thresholds on h + k alone
# reach 1e-12 (at 0.5) to 4e-11 (at 0.75).
def _from_minus_one(h, k, rho):
    """Whether the correlation path starts at rho = -1 (elementwise)."""
    return (rho < 0.0) & (h + k >= np.sqrt(np.maximum(1.0 - rho * rho, 0.0)))


@functools.lru_cache(maxsize=None)
def _gl(n: int):
    """n-node Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Gauss-Legendre node counts for the correlation path, by the log range D
# of its integrand (see _path_nodes): 24 nodes for D < 10, 32 for D < 30,
# 64 otherwise.
_PATH_TIER_BOUNDS = np.array([10.0, 30.0])
_PATH_TIER_NODES = np.array([24, 32, 64])
# 128 nodes for two integrands: from rho = -1 with (h + k) / sqrt(1 - rho^2)
# above _FAR_TAIL_RATIO, a spike at the top of the path; and past
# |rho| = _NEAR_ONE, a boundary layer at its end (see _near_one_integral),
# where the tiers miss by up to 1.8e-10 on the grid of
# `tools/bvn_reference.py --check`.
_FAR_TAIL_RATIO = 14.0
_NEAR_ONE = 0.95
_MOST_NODES = 128
# The relative error of each part of the kernel's sum (see _bvn_parts),
# the bound `tools/bvn_reference.py --check` holds it to against 40 digits.
_BVN_REL_ERR = 9e-12


def _path_nodes(h, k, rho, from_minus_one):
    """Node count per point for the path integral of _bvn_survival_batch.

    On s = sin(theta) the log of the integrand is
    g(s) = -(A - B s) / (2 (1 - s^2)), A = h^2 + k^2, B = 2 h k.  Its one
    critical point in (-1, 1), a maximum, is the root s* = hk / max(h^2,
    k^2) of B s^2 - 2 A s + B, so over a path from 0 to rho the log range
    D = g(s* clipped to the path) - min(g(0), g(rho)), with g(0) = -A / 2,
    needs no sine.  A path from rho = -1 has g(-1) = -inf: the largest
    tier, or the far-tail one."""
    hh, kk, hk = h * h, k * k, h * k
    a = hh + kk
    peak = np.clip(hk / np.maximum(np.maximum(hh, kk), 1e-300),
                   np.minimum(rho, 0.0), np.maximum(rho, 0.0))
    g_peak = (hk * peak - 0.5 * a) / (1.0 - peak * peak)
    g_rho = (hk * rho - 0.5 * a) / (1.0 - rho * rho)
    log_range = g_peak - np.minimum(-0.5 * a, g_rho)
    nodes = _PATH_TIER_NODES[np.searchsorted(_PATH_TIER_BOUNDS, log_range, side="right")]
    nodes[from_minus_one] = _PATH_TIER_NODES[-1]
    # h + k >= 0 on a path from rho = -1, so the ratio compares as a square
    far = from_minus_one & ((h + k) ** 2 > _FAR_TAIL_RATIO ** 2 * (1.0 - rho * rho))
    nodes[far | (np.abs(rho) > _NEAR_ONE)] = _MOST_NODES
    return nodes


def _bvn_survival_batch(h, k, rho) -> np.ndarray:
    """Vectorized P{Z1 >= h, Z2 >= k} for standard bivariate normals with
    correlation rho: the sum of _bvn_parts."""
    start, path, _ = _bvn_parts(h, k, rho)
    return start + path


def _bvn_parts(h, k, rho):
    """Per point (start, path, nodes): the probability at the start of the
    correlation path rho = sin(theta), Phi(-h) Phi(-k) at rho = 0 or, for
    rho < 0 and h + k >= sqrt(1 - rho^2) (_from_minus_one), 0 at rho = -1;
    the integral of the density along the path by a Gauss-Legendre rule
    sized per point (_path_nodes, and _near_one_integral past _NEAR_ONE);
    and its node count.  rho = 0 and +-1 are closed (path 0, one node).
    Against 40 digits the sum is within _BVN_REL_ERR relative at the worst
    points of the grid of `tools/bvn_reference.py --check`, |rho| up to
    0.9999, and on its lines where h -+ k is a fraction of sqrt(1 - rho^2).
    There, as rho nears -1, a negative path cancels all but about
    sqrt(1 - rho^2) of the start: the sum keeps the error of its parts."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    rho = np.clip(np.atleast_1d(np.asarray(rho, dtype=float)), -1.0, 1.0)
    h, k, rho = np.broadcast_arrays(h, k, rho)
    tails = ndtr(-np.concatenate([h.ravel(), k.ravel()]))
    start = (tails[:h.size] * tails[h.size:]).reshape(h.shape)
    path = np.zeros(h.shape)
    nodes = np.ones(h.shape, dtype=np.intp)
    from_minus_one = _from_minus_one(h, k, rho)
    start[from_minus_one] = 0.0
    on_path = (rho != 0.0) & (np.abs(rho) < 1.0)
    if np.any(on_path):
        hp, kp, rp, fp = h[on_path], k[on_path], rho[on_path], from_minus_one[on_path]
        nodes[on_path] = count = _path_nodes(hp, kp, rp, fp)
        part = np.empty(len(hp))
        near = np.abs(rp) > _NEAR_ONE
        if np.any(near):
            part[near] = _near_one_integral(hp[near], kp[near], rp[near], fp[near],
                                            _MOST_NODES)
            count = np.where(near, 0, count)
        for n in np.flatnonzero(np.bincount(count)):  # the counts in use
            if n:  # 0: done above
                tier = count == n
                part[tier] = _path_integral(hp[tier], kp[tier], rp[tier], fp[tier], int(n))
        path[on_path] = part
    ends = np.abs(rho) == 1.0
    if np.any(ends):
        top = ndtr(-np.maximum(h[ends], k[ends]))
        start[ends] = np.where(rho[ends] > 0.0, top,
                               np.maximum(top - ndtr(np.minimum(h[ends], k[ends])), 0.0))
    return start, path, nodes


def _path_integral(h, k, rho, from_minus_one, n: int) -> np.ndarray:
    """The n-node Gauss-Legendre rule for the integral along the
    correlation path of _bvn_parts, over 2 pi, per point, for
    |rho| <= _NEAR_ONE."""
    x, w = _gl(n)
    start = np.where(from_minus_one, -0.5 * math.pi, 0.0)[:, None]
    span = np.arcsin(rho)[:, None] - start
    if np.all(span == span[0]) and np.all(start == start[0]):
        start, span = start[:1], span[:1]  # one path: the nodes are shared
    theta = span * x[None, :]
    if np.any(start):
        theta += start
    # exp(2hk sn c - (h^2 + k^2) c), c = 1 / (2 (1 - sn^2)), in place
    sn = np.sin(theta, out=theta)
    c = sn * sn
    np.subtract(1.0, c, out=c)
    np.divide(0.5, c, out=c)
    sn *= c
    h, k = h[:, None], k[:, None]
    expo = (2.0 * h * k) * sn
    expo -= (h * h + k * k) * c
    np.exp(expo, out=expo)
    # einsum's own loop, not BLAS: a matrix product rounds a row by where it
    # sits in the batch, so a point's value would depend on its neighbours
    return np.einsum("ij,j->i", expo, w) * span[:, 0] / (2.0 * math.pi)


def _near_one_integral(h, k, rho, from_minus_one, n: int) -> np.ndarray:
    """_path_integral for |rho| > _NEAR_ONE, on the offset phi = pi/2 -
    |theta| from the pole theta = s pi/2, s = sign(rho), the path ends near.
    There 1 - sin^2 theta and h^2 + k^2 - 2hk sin theta cancel; on phi,
    with d = h - s k, the exponent -d^2 / (2 sin^2 phi) - s hk / (1 + cos
    phi) has two terms that do not (where their signs differ, the second
    is at most half the first).  A path from rho = -1 covers [0, phi1],
    phi1 = arccos |rho|, with nodes uniform in phi; one from rho = 0 covers
    [phi1, pi/2] with nodes uniform in log phi, for a layer phi1 wide at
    phi1."""
    x, w = _gl(n)
    sign = np.where(rho > 0.0, 1.0, -1.0)[:, None]
    end = np.arccos(np.abs(rho))[:, None]
    log_span = np.log(0.5 * math.pi / end)
    phi = np.where(from_minus_one[:, None], end * x, end * np.exp(log_span * x))
    weight = np.where(from_minus_one[:, None], end, sign * log_span * phi) * w
    sn = np.sin(phi)
    d = h[:, None] - sign * k[:, None]
    expo = -(d * d) / (2.0 * sn * sn) - (sign * (h * k)[:, None]) / (1.0 + np.cos(phi))
    return np.sum(np.exp(expo) * weight, axis=1) / (2.0 * math.pi)


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
    pdf = _density_eval(_cholesky_named(s_aa, tuple(range(m)), 1e-300))

    def rule(n):
        t, w = _gl(n)
        nodes = [np.concatenate([p + (q - p) * t for p, q in zip(e[:-1], e[1:])])
                 for e in edges]
        weights = [np.concatenate([(q - p) * w for p, q in zip(e[:-1], e[1:])])
                   for e in edges]
        x = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
        return x, functools.reduce(np.multiply.outer, weights).ravel()

    # both rules' nodes go through the kernels in one batch
    x_fine, w_fine = rule(32)
    x_coarse, w_coarse = rule(16)
    x = np.concatenate([x_fine, x_coarse])
    shift = x @ beta.T
    tail = _bvn_survival_batch((a[m] - shift[:, 0]) / sd_b[0],
                               (a[m + 1] - shift[:, 1]) / sd_b[1], rho)
    vals = pdf(x) * tail
    value = float(w_fine @ vals[:len(w_fine)])
    coarse = float(w_coarse @ vals[len(w_fine):])
    return value, abs(value - coarse), len(x)


def _orthant_region(cov, lower):
    """The gates every orthant passes before any engine runs: shape,
    dimension, positive diagonal and (from dimension 2) a Cholesky PSD
    check with named pivots.  Returns the correlation matrix and the
    standardized thresholds of the constrained coordinates, or the finished
    Estimate of a region that is empty (a +inf bound) or unconstrained."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    n = cov.shape[0]
    if cov.shape != (n, n) or lower.shape != (n,):
        raise ArgumentError("cov must be square and lower of matching length")
    if n < 1 or n > 4:
        raise UnsupportedDimensionError(f"Gaussian regions of dims 1..4 only, got {n}")
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
    if np.any(np.diag(cov) <= 1e-12):
        bad = int(np.argmin(np.diag(cov)))
        raise DegeneracyError(
            f"covariance diagonal not positive at index {bad}", pivot_index=bad)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    if n > 1:
        _cholesky_named(corr, tuple(range(n)), 1e-12)
    return corr, lower / sd


def mvn_cdf(cov, lower) -> Estimate:
    """P{xi_i >= lower_i for all i} for centered xi ~ N(0, cov), dim <= 4.

    Dimension 2 is _bvn_parts, with error _BVN_REL_ERR times the sum of
    the magnitudes of its parts and its node count as the evaluations.
    Dims 3-4 condition on all but two coordinates (_orthant_conditioned)
    and hold for any thresholds; the value is the 32-node rule, the error
    the gap to the 16-node rule plus a rounding floor."""
    region = _orthant_region(cov, lower)
    if isinstance(region, Estimate):
        return region
    corr, a = region
    n = len(a)
    if n == 1:
        value = ndtr(-a[0])
        return Estimate(value, 1e-14 * value, 1, QUADRATURE)
    if n == 2:
        start, path, nodes = _bvn_parts(a[0], a[1], corr[0, 1])
        error = _BVN_REL_ERR * (start[0] + abs(path[0]))
        return Estimate(float(start[0] + path[0]), float(error), int(nodes[0]), QUADRATURE)
    value, gap, evals = _orthant_conditioned(corr, a)
    return Estimate(value, gap + 1e-14 * value, evals, QUADRATURE)


# ---------------------------------------------------------------------------
# truncated moments by direct cubature

def _density_eval(low: np.ndarray):
    """The N(0, L L') density on (m, n) point batches, from the Cholesky
    factor L.  Its inverse is formed once, so a batch costs one product:
    x' cov^-1 x = |L^-1 x|^2."""
    n = low.shape[0]
    norm = (2.0 * math.pi) ** (n / 2.0) * float(np.prod(np.diag(low)))
    inv_low_t = np.linalg.solve(low, np.eye(n)).T

    def pdf(x: np.ndarray) -> np.ndarray:
        sol = x @ inv_low_t
        q = np.sum(sol * sol, axis=1)
        return np.exp(-0.5 * q) / norm

    return pdf


_ROUTE_ABS_TOL = 2e-6
_ROUTE_MAX_EVALS = 400_000


def _route_integrand(cov: np.ndarray, lower: np.ndarray, monomial):
    """The direct route's integrand over the region, in its bounded
    coordinates only: (m, g) with g on points of [0, 1]^m, m the number of
    bounded coordinates, or the finished QuadratureResult of a region with
    no cubature to do.

    Given the bounded block x_B, the free coordinates (lower bound -inf)
    are Gaussian with mean A x_B and a covariance S that does not depend
    on x_B, so their factor of a monomial of degree <= 2 has a closed
    conditional mean: 1, (A x_B)_r, or (A x_B)_r (A x_B)_s + S_rs.  That
    polynomial times x_B's own factor and density is the integrand, with
    each bounded coordinate mapped to the unit interval by
    x = l + t / (1 - t); with no bounded coordinate the result is the
    Gaussian moment itself."""
    bounded = np.flatnonzero(np.isfinite(lower))
    free = np.flatnonzero(np.isneginf(lower))
    if len(bounded) + len(free) < len(lower):  # a +inf bound: the region is empty
        return quadrature.QuadratureResult(0.0, 0.0, 0, True)
    # the free factor of the monomial, as positions in `free`, repeated by power
    pick = [pos for pos, j in enumerate(free) for _ in range(monomial[j])]
    if not len(bounded):  # the plain Gaussian moment: 1, 0 or a covariance
        value = (1.0 if not pick else 0.0 if len(pick) == 1
                 else float(cov[free[pick[0]], free[pick[1]]]))
        return quadrature.QuadratureResult(value, 0.0, 0, True)
    m = len(bounded)
    # one factor of the bounded block serves the density and, for a free
    # factor, the conditioning on the bounded block
    factor = _observed_factor(cov, bounded)
    pdf = _density_eval(factor)
    low = lower[bounded]
    powers = [(j, monomial[b]) for j, b in enumerate(bounded) if monomial[b]]
    if pick:
        law = _conditional_law(cov, bounded, factor)
        mean_map = law.mean_map[pick].T
        resid = law.residual_cov[pick[0], pick[-1]]

    def g(tpts: np.ndarray) -> np.ndarray:
        tpts = tpts.reshape(-1, m)
        om = 1.0 - tpts
        x = low + tpts / om
        vals = pdf(x) / np.prod(om * om, axis=1)
        for j, p in powers:
            vals = vals * x[:, j] ** p
        if len(pick) == 1:
            vals = vals * (x @ mean_map)[:, 0]
        elif pick:
            mean = x @ mean_map
            vals = vals * (mean[:, 0] * mean[:, 1] + resid)
        return vals

    return m, g


def _route_quadrature(regions, monomial) -> list:
    """Direct cubature of x^monomial times the density over each (cov,
    lower) of regions (_route_integrand): one cubature dimension per
    finite bound, by GK15 for one (lockstep_1d) and Genz-Malik for more
    (lockstep_nd).  The cubatures of one dimension run in lockstep, each
    with its own tolerance and budget."""
    results = [None] * len(regions)
    by_dim: dict = {}
    for i, (cov, lower) in enumerate(regions):
        route = _route_integrand(cov, lower, monomial)
        if isinstance(route, quadrature.QuadratureResult):
            results[i] = route
        else:
            by_dim.setdefault(route[0], []).append((i, route[1]))
    tols = dict(rel_tol=1e-7, abs_tol=_ROUTE_ABS_TOL, max_evals=_ROUTE_MAX_EVALS)
    for m, members in by_dim.items():
        gs = [g for _, g in members]

        def f(xs):
            return [g(x) for g, x in zip(gs, xs)]

        if m == 1:
            done = quadrature.lockstep_1d(f, [(0.0, 1.0)] * len(gs), **tols)
        else:
            done = quadrature.lockstep_nd(f, [(np.zeros(m), np.ones(m))] * len(gs), **tols)
        for (i, _), res in zip(members, done):
            results[i] = res
    return results


def truncated_moment(cov, lower, monomial) -> Estimate:
    """E{ prod_j xi_j^monomial_j * 1{xi >= lower} } for centered
    xi ~ N(0, cov), dim <= 4, degree <= 2, by direct cubature over the
    bounded coordinates (_route_quadrature): truncated_moments for one
    region."""
    (est,) = truncated_moments([(cov, lower)], monomial)
    return est


def truncated_moments(regions, monomial) -> list[Estimate]:
    """truncated_moment of one monomial over each (cov, lower) of regions,
    the cubatures of one dimension in lockstep.  Each region passes
    mvn_cdf's gates first; a cubature that misses its tolerance raises
    AccuracyError."""
    m = tuple(int(p) for p in monomial)
    checked = []
    for cov, lower in regions:
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        _orthant_region(cov, lower)
        n = cov.shape[0]
        if len(m) != n or any(p < 0 for p in m) or sum(m) > 2:
            raise ArgumentError(f"bad monomial {m} for dimension {n}")
        checked.append((cov, lower))
    return [res.estimate(f"direct-quadrature route for moment {m}")
            for res in _route_quadrature(checked, m)]

