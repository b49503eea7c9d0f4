"""Dense multivariate Gaussian computations in dimensions up to four.

Contents: the standard normal CDF, conditioning (Schur complements with
named pivots), survival CDFs P{xi >= lower} for dims 1-4 (mvn_cdfs makes
one stacked evaluation of many regions, mvn_cdf is its one-region case),
truncated moments of degree <= 2 by a direct route (the independent
reference the face-pair integrands are spot-checked against): the free
coordinates and the last bounded one in closed form, the other bounded
ones by GK15 cubature, and truncated_moments makes one stacked
evaluation per coordinate pattern of its regions, their cubatures in
lockstep.

The normal CDF is written as Phi(-h) = exp(-h^2 / 2) R(h) for h >= 0,
with R the Mills ratio over sqrt(2 pi) taken from piecewise polynomials
(tools/mills_coefficients.py), so it keeps its relative accuracy, about
6e-16, down to Phi(-37.5).  It has one path: a scalar is a one-element
array, so every caller reads the same bits for the same point.
Dimension 1 is that closed form.  Dimension
2 is one bivariate kernel, a 1-d integral along the correlation path
rho = sin(theta) by a Gauss-Legendre rule sized per point, which every
caller uses.  Dimensions 3-4 take Plackett's identity (Plackett 1954;
Genz 2004 uses it for trivariate probabilities): split the coordinates
into two blocks and move the correlation from the block-diagonal part to
the whole matrix; the orthant is the product of the block probabilities
plus, per nonzero cross-block correlation, a 1-d integral of the pair's
density times the law of the rest given the pair, by a fixed
Gauss-Legendre rule on the kernel's path variable with the kernel's node
count.  The split is one with no negative cross entry where there is
one, so no part is negative; a corner that maximizes r always has one.
Where every split has a negative cross entry the parts can cancel: on
corner-shaped correlations with a negative correlation between X and Y
they exceed the orthant by up to 50 orders at thresholds (9, 9, 0, 0),
and the value keeps none of its digits.  The reported error counts the
magnitudes of the parts, so it covers the loss.  Every result is
deterministic by construction.

The kernel is batch-invariant: a point's value has the same bits whatever
other points share its call and wherever it sits among them.  Its path
rule sums each point's nodes with einsum's own loop, not a BLAS matrix
product, which rounds a row differently by its place in the batch
(about one row in ten moves by an ulp when other rows are put in front
of it or when it is evaluated alone); every other step is elementwise.
The lockstep edge integrals of kacrice rely on it: they put the nodes of
up to four integrals in one call, and each must get the bits it gets
alone.  So do a face-pair sum's corner orthants, one mvn_cdfs call per
sum: every region's 2-D orthant, Plackett block pairs and conditional
pairs go through one kernel call, and its Plackett set-up is elementwise
on rows stacked by node count, so each region gets mvn_cdf's bits.
"""

from __future__ import annotations

import functools
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
    gives the float that a one-element array gives.

    Q(h) = Phi(-h) = exp(-h^2 / 2) R(h) for h = |x|, with R from _MILLS.
    exp(-h^2 / 2) is taken on the split h = hi + lo with hi = floor(64 h) /
    64: hi^2 / 2 is exact, so the far tail loses no digits to a rounded
    square.  Against 40-digit arithmetic the relative error of Q is below
    6e-16 on [0, 37.5]; past h = 40 it underflows to 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(ndtr(x[None])[0])
    h = np.minimum(np.abs(x), 40.0)
    hp4 = h + 4.0
    # the piece: floor(4 (y + 1)), at most 7; fmin sends NaN to the last
    # piece before the cast, which would warn on it, and t carries the NaN
    i = np.fmin(8.0 * h / hp4, 7.0).astype(np.intp)
    t = ((15.0 - 2.0 * i) * h - (8.0 * i + 4.0)) / hp4
    # Horner over the rows of _MILLS_T, one row's coefficients gathered at a
    # time (gathering all 13 at once would hold a 13 x size array)
    p = _MILLS_T[12][i] * t
    for row in _MILLS_T[11:0:-1]:
        p += row[i]
        p *= t
    p += _MILLS_T[0][i]
    hi = np.floor(h * 64.0) / 64.0
    lo = h - hi
    q = np.exp(-0.5 * hi * hi) * np.exp(-lo * (hi + 0.5 * lo)) * p
    return np.where(x < 0.0, q, 1.0 - q)


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


def _cholesky_named(mats: np.ndarray, labels, floor) -> np.ndarray:
    """LAPACK's Cholesky factors of a stack of matrices, with pivot checking:
    the first pivot at or below floor (a scalar, or one per matrix and
    pivot) raises DegeneracyError naming its index from labels.  The pivots
    are the squared diagonal of a factor, or the ratios of successive
    leading principal minors where LAPACK finds no factor."""
    try:
        low = np.linalg.cholesky(mats)
        piv = np.diagonal(low, axis1=1, axis2=2) ** 2
    except np.linalg.LinAlgError:
        low, dets = None, [np.linalg.det(mats[:, :k, :k]) for k in range(mats.shape[1] + 1)]
        with np.errstate(divide="ignore", invalid="ignore"):
            piv = np.stack([b / a for a, b in zip(dets, dets[1:])], axis=1)
    bad = ~(piv > floor)  # NaN included
    if low is None or bad.any():
        i, k = np.unravel_index(np.argmax(bad) if bad.any() else np.argmin(piv), piv.shape)
        raise DegeneracyError(
            f"matrix not positive definite: pivot {piv[i, k]:.3e} at index {labels[k]}",
            pivot_index=labels[k])
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
    uno = tuple(i for i in range(n) if i not in set(obs))
    low = _cholesky_named(cov[np.ix_(obs, obs)][None], obs, DEFAULT_TOL.observed_pivot_floor)
    mean_map, residual = _schur(cov[np.ix_(uno, obs)][None], cov[np.ix_(uno, uno)][None], low)
    return ConditionalLaw(mean_map[0], residual[0], obs, uno)


def _schur(s_uo: np.ndarray, s_uu: np.ndarray, low: np.ndarray):
    """The mean maps S_uo S_oo^{-1} and residual covariances S_uu - S_uo
    S_oo^{-1} S_ou of a stack of blocks, given the Cholesky factors low of
    their S_oo: two triangular solves each."""
    half = np.linalg.solve(low, np.swapaxes(s_uo, 1, 2))  # L^{-1} S_ou
    mean_map = np.swapaxes(np.linalg.solve(np.swapaxes(low, 1, 2), half), 1, 2)
    residual = s_uu - np.swapaxes(half, 1, 2) @ half
    asym = float(np.max(np.abs(residual - np.swapaxes(residual, 1, 2)))) if residual.size else 0.0
    if asym > DEFAULT_TOL.symmetry_tol:
        raise DegeneracyError(f"residual covariance asymmetric by {asym:.3e}")
    return mean_map, 0.5 * (residual + np.swapaxes(residual, 1, 2))


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


# The three ways to split the coordinates into two blocks, pair block
# first: two pairs in dimension 4, a pair and a single in dimension 3.
_SPLITS = {
    3: (((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,))),
    4: (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
}


def _choose_split(corr: np.ndarray, a: np.ndarray):
    """The split of one region for _plackett: the first with no negative
    cross entry, so that no part is negative, or None where every split
    has one (then _smallest_block_splits chooses)."""
    for b1, b2 in _SPLITS[len(a)]:
        if all(corr[i, j] >= 0.0 for i in b1 for j in b2):
            return b1, b2
    return None


def _smallest_block_splits(corr: np.ndarray, a: np.ndarray) -> list:
    """For each region of a stack of one dimension, the split with the
    smallest block product P(block 1) P(block 2): one kernel call for the
    pair blocks of all, one ndtr call for the single ones."""
    splits = _SPLITS[a.shape[1]]
    blocks = {b for split in splits for b in split}
    pairs = sorted(b for b in blocks if len(b) == 2)
    singles = sorted(b for b in blocks if len(b) == 1)
    i, j = np.array(pairs).T
    surv = _bvn_survival_batch(a[:, i].ravel(), a[:, j].ravel(), corr[:, i, j].ravel())
    prob = dict(zip(pairs, surv.reshape(len(a), len(pairs)).T))
    if singles:
        prob.update(zip(singles, ndtr(-a[:, [k for k, in singles]]).T))
    products = np.stack([prob[b1] * prob[b2] for b1, b2 in splits], axis=1)
    return [splits[k] for k in np.argmin(products, axis=1).tolist()]


class _Batch:
    """The arguments of one vectorized call, gathered piece by piece: add
    returns the slice of the call's output that its piece takes."""

    def __init__(self, width: int):
        self.parts, self.size = [[] for _ in range(width)], 0

    def add(self, *arrays) -> slice:
        for part, arr in zip(self.parts, arrays):
            part.append(np.ravel(arr))
        start, self.size = self.size, self.size + np.size(arrays[0])
        return slice(start, self.size)

    def columns(self) -> list:
        return [np.concatenate(part) for part in self.parts]


def _plackett(corr: np.ndarray, a: np.ndarray, pairs: _Batch, tails: _Batch):
    """P{Z >= a} by Plackett's identity for a stack of regions of one
    dimension, 3 or 4 (correlations corr, thresholds a): the kernel points
    (h, k, rho) and normal thresholds it needs go into pairs and tails, and
    the returned finish(surv, normal) gives each region's (value, error,
    kernel points) from the survivals and normal tails at those points.

    With C0 the block-diagonal part of a region's correlation over its
    split (_choose_split, or _smallest_block_splits for all the regions
    whose every split has a negative cross entry) and
    C(t) = C0 + t (corr - C0),
        P = P(block 1) P(block 2) + sum over cross pairs (i, j), c_ij != 0,
            c_ij int_0^1 phi2(a_i, a_j; t c_ij) P_t(rest >= a_rest | z_i = a_i, z_j = a_j) dt,
    where P_t is under C(t) and the rest is the other member of the pair
    block and, in dimension 4, the other member of the second block; its
    law given the pair comes from the 2 x 2 inverse in closed form.  Each
    integral runs on the bivariate kernel's path variable, t c_ij =
    sin(theta), where phi2 dt has no 1 / sqrt(1 - t^2 c_ij^2) factor, by a
    Gauss-Legendre rule in theta and one of half its nodes for the error.
    Every pair's integrand carries the exponents of the others, whose
    correlations move with t too, so all of a region's pairs take the node
    count of its largest _path_nodes(a_i, a_j, c_ij).  The error is the gap
    between the two rules plus _BVN_REL_ERR times the block product and
    the magnitudes of the parts, so a split whose parts cancel reports its
    loss; the value is clipped at 0.

    The cross pairs of all regions are rows, one column per node, set up
    together for each node count; every step is elementwise, and each
    row's rule is its own einsum, summed region by region in the order of
    its pairs, so each region gets the bits it gets alone."""
    count, d = a.shape
    splits = [_choose_split(c, x) for c, x in zip(corr, a)]
    cancelling = [r for r, split in enumerate(splits) if split is None]
    if cancelling:
        for r, split in zip(cancelling, _smallest_block_splits(corr[cancelling], a[cancelling])):
            splits[r] = split
    reg = np.arange(count)
    b1, b2 = (np.array(blocks) for blocks in zip(*splits))
    first = pairs.add(a[reg, b1[:, 0]], a[reg, b1[:, 1]], corr[reg, b1[:, 0], b1[:, 1]])
    second = (pairs.add(a[reg, b2[:, 0]], a[reg, b2[:, 1]], corr[reg, b2[:, 0], b2[:, 1]])
              if d == 4 else tails.add(a[reg, b2[:, 0]]))
    # one row per cross pair (region, i, j, k, l), region by region: k the
    # other member of the pair block, l that of the second block (j in d = 3)
    rows = [(r, i, j, p[1] if i == p[0] else p[0], q[-1] if j == q[0] else q[0])
            for r, (p, q) in enumerate(splits) for i in p for j in q if corr[r, i, j] != 0.0]
    g, i, j, k, l = np.array(rows, dtype=np.intp).reshape(-1, 5).T
    rule = np.zeros(count, dtype=np.intp)  # each region's node count
    np.maximum.at(rule, g, _path_nodes(a[g, i], a[g, j], corr[g, i, j], np.zeros(len(g), bool)))
    groups = []
    for n in sorted(set(rule[g].tolist())):
        sel = np.flatnonzero(rule[g] == n)
        r, i_, j_, k_, l_ = (v[sel, None] for v in (g, i, j, k, l))
        (x_fine, _), (x_coarse, _) = _gl(n), _gl(n // 2)
        c = corr[r, i_, j_]
        span = np.arcsin(c)
        # one column per node: the n-node rule, then the n/2-node one
        tau = np.sin(span * np.concatenate([x_fine, x_coarse]))
        t = tau / c
        det = 1.0 - tau * tau
        ai, aj = a[r, i_], a[r, j_]

        def given_pair(m, m_i, m_j):
            """Coordinate m given the pair under C(t), from its entries m_i
            and m_j of C(t): its standardized threshold, its sd and its
            coefficients on the pair."""
            coef = (m_i - tau * m_j) / det, (m_j - tau * m_i) / det
            sd = np.sqrt(1.0 - (coef[0] * m_i + coef[1] * m_j))
            return (a[r, m] - coef[0] * ai - coef[1] * aj) / sd, sd, coef

        # C(t) keeps the entries within a block and scales those across by t
        h, sd_k, coef_k = given_pair(k_, corr[r, k_, i_], corr[r, k_, j_] * t)
        if d == 3:
            rest = tails.add(h)
        else:
            l_i, l_j = corr[r, l_, i_] * t, corr[r, l_, j_]
            h_l, sd_l, _ = given_pair(l_, l_i, l_j)
            rho = (corr[r, k_, l_] * t - coef_k[0] * l_i - coef_k[1] * l_j) / (sd_k * sd_l)
            rest = pairs.add(h, h_l, rho)
        # c_ij phi2(a_i, a_j; tau) dt = exp(...) / (2 pi) dtheta, with dtheta = span dx
        f = np.exp((tau * ai * aj - 0.5 * (ai ** 2 + aj ** 2)) / det) * span / (2.0 * math.pi)
        groups.append((n, sel, f, rest))

    def finish(surv, normal):
        rests = normal if d == 3 else surv  # the second block's and the rests'
        fine, coarse = np.empty(len(g)), np.empty(len(g))
        for n, sel, f, rest in groups:
            f *= rests[rest].reshape(f.shape)
            fine[sel] = np.einsum("ij,j->i", f[:, :n], _gl(n)[1])
            coarse[sel] = np.einsum("ij,j->i", f[:, n:], _gl(n // 2)[1])
        blocks = (surv[first] * rests[second]).tolist()
        ends = np.cumsum(np.bincount(g, minlength=count)).tolist()
        out = []
        for block, n, lo, hi in zip(blocks, rule.tolist(), [0] + ends, ends):
            if lo == hi:  # the blocks are independent
                out.append((block, _BVN_REL_ERR * block, 2))
                continue
            part, gap = fine[lo:hi], coarse[lo:hi]
            value = block + float(np.sum(part))
            error = (abs(float(np.sum(part) - np.sum(gap)))
                     + _BVN_REL_ERR * (block + float(np.sum(np.abs(part)))))
            out.append((max(value, 0.0), error, (hi - lo) * (n + n // 2) + 2))
        return out

    return finish


def _orthant_region(cov, lower):
    """The gates every region passes before any engine runs: shape,
    dimension, no NaN threshold, symmetry within symmetry_tol and positive
    diagonal.  Returns the covariance and thresholds of the constrained
    coordinates, or the finished Estimate of a region that is empty (a +inf
    bound) or unconstrained.  The PSD gate is the engine's Cholesky factor:
    mvn_cdfs', or the direct route's."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    n = cov.shape[0]
    if cov.shape != (n, n) or lower.shape != (n,):
        raise ArgumentError("cov must be square and lower of matching length")
    if n < 1 or n > 4:
        raise UnsupportedDimensionError(f"Gaussian regions of dims 1..4 only, got {n}")
    if np.isnan(lower).any():
        raise ArgumentError(f"threshold at index {int(np.argmax(np.isnan(lower)))} is NaN")
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > DEFAULT_TOL.symmetry_tol:
        raise ArgumentError(f"covariance asymmetric by {asym:.3e}")
    if np.isposinf(lower).any():
        return Estimate(0.0, 0.0, 0, QUADRATURE)
    keep = ~np.isneginf(lower)
    if not keep.all():
        # a -inf threshold is no constraint at all: marginalize it away
        cov, lower = cov[keep][:, keep], lower[keep]
        if not len(lower):
            return Estimate(1.0, 0.0, 0, QUADRATURE)
    if (~(cov.diagonal() > 1e-12)).any():  # a NaN variance fails too
        bad = int(np.argmin(cov.diagonal()))  # a NaN's index, else the smallest's
        raise DegeneracyError(
            f"covariance diagonal not positive at index {bad}", pivot_index=bad)
    return cov, lower


def mvn_cdf(cov, lower) -> Estimate:
    """P{xi_i >= lower_i for all i} for centered xi ~ N(0, cov), dim <= 4:
    mvn_cdfs for one region.

    Dimension 1 is the normal tail, with error 1e-14 of it.  Dimension 2
    is _bvn_parts, with error _BVN_REL_ERR times the sum of the magnitudes
    of its parts and its node count as the evaluations.  Dims 3-4 are
    Plackett's identity over a split into two blocks (_plackett), for any
    thresholds: the value is the block product plus one 1-d integral per
    nonzero cross-block correlation, the error the gap to the rule with
    half the nodes plus _BVN_REL_ERR times the block product and the
    magnitudes of the parts (so a split whose parts cancel reports its
    loss), and the evaluations the kernel points, the block probabilities
    counted."""
    (est,) = mvn_cdfs([(cov, lower)])
    return est


def _psd_gate(groups) -> None:
    """One Cholesky factor (_cholesky_named) per dimension of the
    correlations of groups ({d: [(position, corr, thresholds)]}).  Where a
    stack fails, the regions are factored one at a time in order, so the
    error is the one the first failing region raises alone."""
    stacks = {d: members for d, members in groups.items() if d > 1}
    try:
        for d, members in stacks.items():
            _cholesky_named(np.stack([corr for _, corr, _ in members]), tuple(range(d)), 1e-12)
    except DegeneracyError:
        for _, corr, _ in sorted(m for members in stacks.values() for m in members):
            _cholesky_named(corr[None], tuple(range(len(corr))), 1e-12)
        raise


def mvn_cdfs(regions) -> list[Estimate]:
    """mvn_cdf of each (cov, lower) of regions, in one evaluation.

    Each region passes _orthant_region's gates, then one Cholesky factor
    per dimension is the PSD gate (_psd_gate).  One kernel call
    (_bvn_parts) then takes every region's 2-D orthant, Plackett pair
    blocks and conditional pair probabilities, and one ndtr call every
    single-coordinate tail.  Each region keeps its own split and node count
    (_plackett), and the kernel is batch-invariant, so each Estimate has
    the bits mvn_cdf gives its region alone."""
    results, groups = [], {}
    for cov, lower in regions:
        region = _orthant_region(cov, lower)
        if not isinstance(region, Estimate):
            cov, lower = region
            sd = np.sqrt(np.diag(cov))
            groups.setdefault(len(lower), []).append(
                (len(results), cov / np.outer(sd, sd), lower / sd))
            region = None
        results.append(region)
    _psd_gate(groups)
    pairs, tails, plans = _Batch(3), _Batch(1), []
    for d, members in groups.items():
        corr = np.stack([c for _, c, _ in members])
        a = np.stack([x for _, _, x in members])
        if d == 1:
            plan = tails.add(a[:, 0])
        elif d == 2:
            plan = pairs.add(a[:, 0], a[:, 1], corr[:, 0, 1])
        else:
            plan = _plackett(corr, a, pairs, tails)
        plans.append((d, [pos for pos, _, _ in members], plan))
    start, path, nodes = _bvn_parts(*pairs.columns()) if pairs.size else (np.empty(0),) * 3
    normal = ndtr(-tails.columns()[0]) if tails.size else np.empty(0)
    for d, positions, plan in plans:
        if d == 1:  # the normal tail, with error 1e-14 of it
            done = [(v, 1e-14 * v, 1) for v in normal[plan].tolist()]
        elif d == 2:  # the kernel's parts, with error _BVN_REL_ERR of their magnitudes
            done = [(p + q, _BVN_REL_ERR * (p + abs(q)), n) for p, q, n in zip(
                start[plan].tolist(), path[plan].tolist(), nodes[plan].tolist())]
        else:
            done = plan(start + path, normal)
        for pos, res in zip(positions, done):
            results[pos] = Estimate(*res, QUADRATURE)
    return results


# ---------------------------------------------------------------------------
# truncated moments by the direct route

_ROUTE_ABS_TOL = 2e-6
_ROUTE_MAX_EVALS = 400_000


def _route_integrand(covs: np.ndarray, lowers: np.ndarray, monomial):
    """The direct route's integrand over a stack of regions of one
    coordinate pattern, in their bounded coordinates but the last: (m, g),
    m the number of bounded coordinates less one and g one evaluation at
    every region's points of [0, 1]^m (a list of arrays in, a list out), or
    the finished QuadratureResults of regions with at most one bounded
    coordinate.

    Given the bounded block x_B, the free coordinates (lower bound -inf)
    are Gaussian with mean A x_B and a covariance S that does not depend
    on x_B, so their factor of a monomial of degree <= 2 has a closed
    conditional mean: 1, (A x_B)_r, or (A x_B)_r (A x_B)_s + S_rs.  One
    Cholesky factor of the bounded block, also the PSD gate (a correlation
    pivot at or below 1e-12, or a pivot at or below observed_pivot_floor,
    fails), gives the rest: its leading block is the density of the first
    m bounded coordinates, and its last row the law N(mu, sigma^2) of the
    last one, y, given them.  The free factor is affine in y, so the
    integrand is a polynomial of degree <= 2 in y, whose moments over
    y >= l are closed, with z = (l - mu) / sigma: Q(z), mu Q + sigma phi(z)
    and (mu^2 + sigma^2) Q + sigma (mu + l) phi(z).  That times the others'
    density and monomial factor is the integrand, each of them mapped to
    [0, 1] by x = l + t / (1 - t); with no bounded coordinate it is the
    Gaussian moment itself.  Every step is elementwise on a point and its
    own region's entries, so a region gets the same bits in any stack."""
    count = len(covs)
    bounded = np.flatnonzero(np.isfinite(lowers[0]))
    free = np.flatnonzero(np.isneginf(lowers[0]))
    # the free factor of the monomial, as positions in `free`, repeated by power
    pick = [pos for pos, j in enumerate(free) for _ in range(monomial[j])]
    if not len(bounded):  # the plain Gaussian moment: 1, 0 or a covariance
        values = (np.ones(count) if not pick else np.zeros(count) if len(pick) == 1
                  else covs[:, free[pick[0]], free[pick[1]]])
        return [quadrature.QuadratureResult(float(v), 0.0, 0, True) for v in values]
    m = len(bounded) - 1
    block = covs[:, bounded[:, None], bounded]
    floor = np.maximum(1e-12 * block.diagonal(0, 1, 2), DEFAULT_TOL.observed_pivot_floor)
    factor = _cholesky_named(block, bounded.tolist(), floor)
    log_norm = 0.5 * m * math.log(2.0 * math.pi) + np.log(factor.diagonal(0, 1, 2)[:, :m]).sum(1)
    low, last = lowers[:, bounded[:m]], lowers[:, bounded[m]]
    power = monomial[bounded[m]]
    if pick:
        mean_map, resid = _schur(covs[:, free[:, None], bounded], covs[:, free[:, None], free],
                                 factor)

    def at(x: list, reg: np.ndarray) -> np.ndarray:  # x: m columns, reg: their regions
        # L^-1 x by forward substitution: the density's exponent, and y's mean
        sol, mu, expo = [], 0.0, -log_norm[reg]
        for i in range(m):
            acc = x[i]
            for j in range(i):
                acc = acc - factor[:, i, j][reg] * sol[j]
            sol.append(acc / factor[:, i, i][reg])
            mu = mu + factor[:, m, i][reg] * sol[i]
            expo = expo - 0.5 * sol[i] * sol[i]
        sig, lim = factor[:, m, m][reg], last[reg]
        nz = (mu - lim) / sig
        tail, dens = ndtr(nz), np.exp(-0.5 * nz * nz) / math.sqrt(2.0 * math.pi)
        # y's moments from its own power up, times each affine free mean a + b y
        moms = [tail, mu * tail + sig * dens]
        if power + len(pick) == 2:
            moms.append((mu * mu + sig * sig) * tail + sig * (mu + lim) * dens)
        vals = moms[power:]
        for r in pick:
            a = sum(x[i] * mean_map[:, r, i][reg] for i in range(m))
            b = mean_map[:, r, m][reg]
            vals = [a * lo + b * hi for lo, hi in zip(vals, vals[1:])]
        if len(pick) == 2:
            vals[0] = vals[0] + resid[:, pick[0], pick[1]][reg] * tail
        vals = vals[0] * np.exp(expo)
        for i, b in enumerate(bounded[:m]):
            if monomial[b]:
                vals = vals * x[i] ** monomial[b]
        return vals

    if not m:
        return [quadrature.QuadratureResult(float(v), 0.0, 0, True)
                for v in at([], np.arange(count))]

    def g(ts: list) -> list:
        ts = [np.reshape(t, (-1, m)) for t in ts]
        sizes = [len(t) for t in ts]
        reg = np.repeat(np.arange(count), sizes)
        t = np.concatenate(ts)
        om = [1.0 - t[:, i] for i in range(m)]
        vals = at([low[:, i][reg] + t[:, i] / om[i] for i in range(m)], reg)
        vals /= math.prod(o * o for o in om)
        return np.split(vals, np.cumsum(sizes)[:-1])

    return m, g


def _route_quadrature(regions, monomial) -> list:
    """Direct cubature of x^monomial times the density over each (cov,
    lower) of regions, all of one dimension, by one stacked evaluation per
    coordinate pattern (_route_integrand): one cubature dimension per
    finite bound but the last, by GK15 for one (lockstep_1d) and by its
    tensor product on boxes for more (lockstep_nd).  A pattern's cubatures
    run in lockstep, each with its own tolerance and budget."""
    results, patterns = [None] * len(regions), {}
    if not regions:
        return results
    covs, lowers = np.stack([c for c, _ in regions]), np.stack([low for _, low in regions])
    empty = np.isposinf(lowers).any(axis=1).tolist()
    for i, finite in enumerate(np.isfinite(lowers).tolist()):
        if empty[i]:  # a +inf bound: the region is empty
            results[i] = quadrature.QuadratureResult(0.0, 0.0, 0, True)
        else:
            patterns.setdefault(tuple(finite), []).append(i)
    tols = dict(rel_tol=1e-7, abs_tol=_ROUTE_ABS_TOL, max_evals=_ROUTE_MAX_EVALS)
    for members in patterns.values():
        done = _route_integrand(covs[members], lowers[members], monomial)
        if not isinstance(done, list):
            m, g = done
            cells = [(0.0, 1.0) if m == 1 else (np.zeros(m), np.ones(m))] * len(members)
            done = (quadrature.lockstep_1d if m == 1 else quadrature.lockstep_nd)(g, cells, **tols)
        for i, res in zip(members, done):
            results[i] = res
    return results


def truncated_moment(cov, lower, monomial) -> Estimate:
    """E{ prod_j xi_j^monomial_j * 1{xi >= lower} } for centered
    xi ~ N(0, cov), dim <= 4, degree <= 2, by the direct route over the
    bounded coordinates (_route_quadrature): truncated_moments for one
    region."""
    (est,) = truncated_moments([(cov, lower)], monomial)
    return est


def truncated_moments(regions, monomial) -> list[Estimate]:
    """truncated_moment of one monomial over each (cov, lower) of regions,
    one stacked evaluation per coordinate pattern (_route_quadrature).
    Each region passes mvn_cdf's gates first (_orthant_region), and the
    route's Cholesky factor is its PSD gate; a cubature that misses its
    tolerance raises AccuracyError."""
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

