"""Numeric expected Euler characteristic by face-pair summation.

The expected Euler characteristic of the joint excursion set above level
u decomposes over pairs of faces of [0,1] x [0,1]: four corner x corner
probabilities, four mixed terms (one face a corner, the other the open
interval, giving a 1D integral), and one interior x interior 2D
integral, each weighted by (-1)^(k+l) where k and l are the face
dimensions.

The interior pair takes one of three routes, chosen from what the cross
form declares:

* lag-only (model.CrossCorrelation.lag_only: r(t,s) depends on t - s
  alone, as for ShiftMixture): every covariance of the interior integrand
  f is a function of v = t - s too, and the 2D integral over [0,1]^2 is
  exactly the 1D integral int_0^1 (1 - v) (f(v) + f(-v)) dv, with f(v)
  taken at (t,s) = (v, 0) and f(-v) at (0, v).  That one is integrated by
  the Gauss-Kronrod rule, both halves of each node in one integrand call,
  and its n counts integrand points, two per node.
* anchored (model.CrossCorrelation.anchor: r(t,s) = c C_X(t - t*)
  C_Y(s - s*) with the model's own kernels, as for PointAnchor): given one
  standard normal xi, X and Y are independent (model's PointAnchor notes
  give the construction), so the 2D integral is int phi(xi) I_X(xi)
  I_Y(xi) dxi with I_X and I_Y 1D integrals, each node one normal tail
  and no bivariate normal (_anchored_interior).  On the fixtures its cost
  does not grow with u: the xi rule is centred and scaled on the
  integrand's exponent.
* any other cross form goes through the adaptive tensor-product GK15
  cubature (quadrature.integrate_nd).

For N=1 the determinant factors inside the integrals are the scalars
X''(t) and Y''(s), so each integrand is a Gaussian truncated moment, in
closed form by the Tallis (1961) identities over one set of face factors
G_j (_face_g, the density-weighted conditional survivals): an edge's
first moment E{X'' 1_A} = sum_j S_3j G_j, the interior pair's second
moment E{X''Y'' 1_A} = S_23 P + sum_j S_2j (u S_3j G_j + ... G_01) / S_jj
(interior_interior_integrand), vectorized over nodes with every
conditional covariance written out entrywise.  Each integrated term is
also spot-checked at one node (_spot_check) against the direct cubature
of its truncated density, gauss.truncated_moments.  The probe is the
rule's own centre node, t = 0.5 for the Gauss-Kronrod rule and (0.5, 0.5)
for the cubature, and the value checked is the one the rule computed
there in its first batch.  The lag integral's centre node v = 0.5 is
checked at both of its points, (0.5, 0) and (0, 0.5), in one call.  The
anchored route checks (0.5, 0.5) too: every pass of its refinement
carries t = s = 0.5 beside its new panels' nodes, and the value checked is
the final xi rule's sum_k W_k f_X(xi_k, 0.5) f_Y(xi_k, 0.5).

The four vertex x edge integrals of a sum (the "edge terms") are refined
in lockstep (quadrature.lockstep_1d): each pass evaluates the nodes of
every open edge integral in one call of _edge_integrands, which makes
one _edge_conditional call per cross form (the model's, for the edges
along which X varies, and its transpose's) and one _face_g call per
dimension for all of them.  Their spot checks take each probe's
covariance from the first batch's entries at t = 0.5, and are one
stacked evaluation per coordinate pattern of the direct route
(gauss.truncated_moments), which reads no face factor.  An integrand
call costs about as much for 15 nodes as for 60, and an edge integral
mostly converges on its first panel.  Each integral keeps its own cells
and stopping test, and the cross form and the bivariate kernel give a
point the same bits whatever else shares its batch, so each term is the
one face_pair_integral computes for its pair alone, bit for bit.  The
corner x corner orthants of a sum are likewise one evaluation
(_corner_terms): one cross-form call for the partials at all corners,
then one gauss.mvn_cdfs call, which makes one bivariate kernel call for
the four of them.

Face restriction: with ``restricted=True`` only the faces whose closure
contains the unique maximizer (t*, s*) and whose free directions have a
vanishing cross-correlation gradient are summed, and sign constraints
are kept only for the remaining flat directions.  The two sums agree to
super-exponential order in u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics, gauss, quadrature
from . import model as model_mod
from .common import (
    DEFAULT_TOL,
    QUADRATURE,
    ArgumentError,
    ConsistencyError,
    Estimate,
    RegimeError,
    check_level,
)

__all__ = [
    "FacePairTerm",
    "EecResult",
    "corner_corner_term",
    "edge_point_integrand",
    "interior_interior_integrand",
    "face_pair_integral",
    "eec",
    "FACES",
]

FACES = ("Left", "Right", "Interior")
_POINT = {"Left": 0.0, "Right": 1.0}

# fixed summation order: corners, X-interior mixed, Y-interior mixed, interior
_PAIR_ORDER = (
    ("Left", "Left"),
    ("Left", "Right"),
    ("Right", "Left"),
    ("Right", "Right"),
    ("Interior", "Left"),
    ("Interior", "Right"),
    ("Left", "Interior"),
    ("Right", "Interior"),
    ("Interior", "Interior"),
)


@dataclass(frozen=True)
class FacePairTerm:
    face_x: str
    face_y: str
    value: Estimate

    def __post_init__(self) -> None:
        if self.face_x not in FACES or self.face_y not in FACES:
            raise ArgumentError("faces must be Left, Right, or Interior")

    @property
    def sign(self) -> int:
        """(-1)^(k+l): -1 to the number of Interior faces."""
        return (-1) ** ((self.face_x == "Interior") + (self.face_y == "Interior"))


@dataclass(frozen=True)
class EecResult:
    """total.value is exactly the signed sum over terms; its error is the
    root-sum-square of the term errors.  Full mode carries 9 terms; the
    restricted sum keeps only the faces admitted at the maximizer."""

    total: Estimate
    terms: tuple[FacePairTerm, ...]
    u: float


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def corner_corner_term(
    model: model_mod.BivariateModel,
    t0: float,
    s0: float,
    u: float,
    constrain_x: bool = True,
    constrain_y: bool = True,
) -> Estimate:
    """P{X(t0)>=u, Y(s0)>=u, e*X'(t0)>=0, e*Y'(s0)>=0} with e* = -1 at 0
    and +1 at 1; either derivative constraint can be dropped.  A dropped
    constraint is a -inf bound, which gauss.mvn_cdf marginalizes away.  The
    one-corner case of _corner_regions; a sum's corners take the same
    regions through one gauss.mvn_cdfs call (_corner_terms), bit for bit."""
    (region,) = _corner_regions(model, [(t0, s0)], u, constrain_x, constrain_y)
    return gauss.mvn_cdf(*region)


def _corner_regions(model, corners, u: float, constrain_x: bool, constrain_y: bool) -> list:
    """(cov, lower) of each corner (t0, s0) of corners: the covariance of
    (X(t0), Y(s0), et*X'(t0), es*Y'(s0)), et = -1 at 0 and +1 at 1 (es
    likewise), and the bounds (u, u, 0, 0), a dropped constraint's bound
    -inf.  The partials of r at every corner come from one evaluation of
    the cross form, which gives each corner the bits it gets alone."""
    if any(t0 not in (0.0, 1.0) or s0 not in (0.0, 1.0) for t0, s0 in corners):
        raise ArgumentError("corner coordinates must be 0 or 1")
    t, s = np.array(corners, dtype=float).reshape(-1, 2).T
    jet = model.cross.partials(t, s, ((0, 0), (1, 0), (0, 1), (1, 1)))
    regions = []
    for (t0, s0), r, r1, r2, r12 in zip(corners, *jet):
        et = -1.0 if t0 == 0.0 else 1.0
        es = -1.0 if s0 == 0.0 else 1.0
        # a process and its own derivative at one point are uncorrelated
        cov = np.array([
            [1.0, r, 0.0, es * r2],
            [r, 1.0, et * r1, 0.0],
            [0.0, et * r1, model.lambda1, et * es * r12],
            [es * r2, 0.0, et * es * r12, model.lambda2],
        ])
        lower = np.array([u, u, 0.0 if constrain_x else -np.inf,
                          0.0 if constrain_y else -np.inf])
        regions.append((cov, lower))
    return regions


def _corner_terms(model, pairs, u: float, constrain_x: bool, constrain_y: bool) -> list:
    """The corner x corner terms of pairs: their orthants (_corner_regions,
    one cross-form evaluation) in one gauss.mvn_cdfs call, which makes one
    kernel call for all of them and gives each the bits corner_corner_term
    gives it alone."""
    regions = _corner_regions(model, [(_POINT[fx], _POINT[fy]) for fx, fy in pairs], u,
                              constrain_x, constrain_y)
    return [FacePairTerm(fx, fy, est) for (fx, fy), est in zip(pairs, gauss.mvn_cdfs(regions))]


def _dense(c, node: int = 0) -> np.ndarray:
    """The covariance held entrywise in c ({(i, j): array over nodes},
    i <= j) at one node, as a dense symmetric matrix."""
    d = 1 + max(j for _, j in c)
    out = np.empty((d, d))
    for (i, j), v in c.items():
        out[i, j] = out[j, i] = v[node]
    return out


def _edge_conditional(model: model_mod.BivariateModel, t, s0):
    """Covariance of (X(t), Y(s0), es*Y'(s0), X''(t)) given X'(t)=0, with
    es = -1 at s0 = 0 and +1 at s0 = 1, entrywise over t ({(i, j): array
    over t}, i <= j); s0 is one endpoint or one per node.  Conditional
    means vanish.  X'(t) is uncorrelated with X(t) and X''(t), so only
    Y(s0) and es*Y'(s0), with covariances r1 and es*r12 to it, lose
    variance to it.  An edge along which Y varies is the same law for the
    transposed model."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    es = np.where(np.asarray(s0) == 0.0, -1.0, 1.0)
    lam1, lam2 = model.lambda1, model.lambda2
    r, r1, r2, r11, r12, r112 = model.cross.partials(
        t, s0, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)))
    return {
        (0, 0): np.ones_like(t), (0, 1): r, (0, 2): es * r2, (0, 3): np.full_like(t, -lam1),
        (1, 1): 1.0 - r1 * r1 / lam1, (1, 2): -es * r1 * r12 / lam1, (1, 3): r11,
        (2, 2): lam2 - r12 * r12 / lam1, (2, 3): es * r112,
        (3, 3): np.full_like(t, model.fourth1),
    }


def _face_g(c, lower):
    """Tallis face factors G_j = phi_j(l_j) * P{rest >= l_rest | xi_j = l_j}
    for d = 2 or 3 coordinates with covariance c (entrywise, as from
    _edge_conditional) and scalar bounds lower, over a batch of nodes.  In
    dimension 3 the three conditional pairs share one bivariate call."""
    d = len(lower)

    def cov(i, j):
        return c[min(i, j), max(i, j)]

    dens, tails = [], []
    for j in range(d):
        rest = [i for i in range(d) if i != j]
        vjj = cov(j, j)
        sdj = np.sqrt(vjj)
        dens.append(_phi(lower[j] / sdj) / sdj)
        # the rest given xi_j = l_j: mean cov(i, j) / vjj * l_j
        z = [lower[i] - cov(i, j) / vjj * lower[j] for i in rest]
        sd = [np.sqrt(np.maximum(cov(i, i) - cov(i, j) ** 2 / vjj, 1e-300)) for i in rest]
        if d == 2:
            tails.append((z[0] / sd[0],))
        else:
            cc = cov(rest[0], rest[1]) - cov(rest[0], j) * cov(rest[1], j) / vjj
            tails.append((z[0] / sd[0], z[1] / sd[1],
                          np.clip(cc / (sd[0] * sd[1]), -1.0, 1.0)))
    # every face's conditional survival in one call: the normal tail in
    # dimension 2, the bivariate kernel in dimension 3
    args = [np.concatenate([a[i] for a in tails]) for i in range(len(tails[0]))]
    if d == 2:
        surv = gauss.ndtr(-args[0])
    else:
        surv = gauss._bvn_survival_batch(*args)
    return [dj * tj for dj, tj in zip(dens, np.split(surv, d))]


@dataclass(eq=False)
class _EdgeSpec:
    """One vertex x edge integrand: X of model along t against Y at the
    endpoint s0, the endpoint's derivative sign kept if constrain.  probe
    is the conditional covariance at the spot check's node t = 0.5, which
    _edge_integrands keeps from the first batch that holds that node."""

    model: model_mod.BivariateModel
    s0: float
    constrain: bool
    probe: np.ndarray | None = None


def edge_point_integrand(
    model: model_mod.BivariateModel,
    t,
    s0: float,
    u: float,
    constrain_endpoint: bool = True,
):
    """p_{X'(t)}(0) * E{X''(t) 1{X(t)>=u, Y(s0)>=u, e*Y'(s0)>=0} | X'(t)=0}.

    Vectorized over a 1-d t; scalar in, scalar out.  The derivative-sign
    indicator at the endpoint is dropped when constrain_endpoint is
    False (the restricted sum with a nonflat cross direction).  The
    one-spec case of _edge_integrands."""
    if s0 not in (0.0, 1.0):
        raise ArgumentError("s0 must be an endpoint")
    (out,) = _edge_integrands([_EdgeSpec(model, s0, constrain_endpoint)],
                              [np.atleast_1d(np.asarray(t, dtype=float))], u)
    return float(out[0]) if np.ndim(t) == 0 else out


def _edge_integrands(specs, ts, u: float) -> list:
    """edge_point_integrand for each _EdgeSpec of specs at its own 1-d
    nodes ts[i], in one batch: one _face_g call per dimension (3 with the
    endpoint constraint, 2 without), each over one _edge_conditional call
    per cross form on the nodes of all its specs, the endpoint given per
    node.  A sum's specs hold the model and its transpose, each with one
    endpoint constraint, so a pass evaluates each cross form once.  A spec
    without a probe takes its conditional covariance at t = 0.5 from these
    entries when its nodes hold that node.  A node's value does not depend
    on the other nodes of the batch (the cross form and the bivariate
    kernel are batch-invariant), so each spec gets the bits it gets alone.
    Returns one array per spec, empty for an empty ts[i]."""
    sizes = [np.size(t) for t in ts]
    out = [np.empty(0)] * len(specs)
    for constrain in (True, False):
        group = [i for i, spec in enumerate(specs) if spec.constrain == constrain and sizes[i]]
        if not group:
            continue
        order, conds = [], []
        for model in {id(specs[i].model): specs[i].model for i in group}.values():
            own = [i for i in group if specs[i].model is model]
            c = _edge_conditional(model, np.concatenate([ts[i] for i in own]),
                                  np.repeat([specs[i].s0 for i in own], [sizes[i] for i in own]))
            start = 0
            for i in own:
                hit = np.flatnonzero(ts[i] == 0.5) if specs[i].probe is None else ()
                if len(hit):
                    specs[i].probe = _dense(c, start + hit[0])
                start += sizes[i]
            order += own
            conds.append(c)
        c = {key: np.concatenate([ci[key] for ci in conds]) for key in conds[0]}
        lower = (u, u, 0.0) if constrain else (u, u)
        g = _face_g(c, lower)
        # Tallis: E{X'' 1_A} = sum_j Cov(X'', xi_j) G_j
        expect = sum(c[j, 3] * g[j] for j in range(len(lower)))
        for i, part in zip(order, np.split(expect, np.cumsum([sizes[i] for i in order])[:-1])):
            out[i] = part / math.sqrt(2.0 * math.pi * specs[i].model.lambda1)
    return out


def _interior_conditional(model: model_mod.BivariateModel, t, s):
    """Covariance of (X(t), Y(s), X''(t), Y''(s)) given X'(t)=Y'(s)=0,
    entrywise over nodes ({(i, j): array}, i <= j), plus the density of
    (X', Y') at zero.

    Conditioning subtracts b_i' L^-1 b_j, where L = [[lam1, r12], [r12,
    lam2]] is the covariance of (X'(t), Y'(s)) and b_i holds coordinate i's
    covariances with them: (0, r2), (r1, 0), (0, r112), (r122, 0)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    lam1, lam2 = model.lambda1, model.lambda2
    r, r1, r2, r11, r22, r12, r112, r122, r1122 = model.cross.partials(
        t, s, ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)))

    det = lam1 * lam2 - r12 * r12
    c = {
        (0, 0): 1.0 - lam1 * r2 * r2 / det,
        (0, 1): r + r12 * r1 * r2 / det,
        (0, 2): -lam1 - lam1 * r2 * r112 / det,
        (0, 3): r22 + r12 * r2 * r122 / det,
        (1, 1): 1.0 - lam2 * r1 * r1 / det,
        (1, 2): r11 + r12 * r1 * r112 / det,
        (1, 3): -lam2 - lam2 * r1 * r122 / det,
        (2, 2): model.fourth1 - lam1 * r112 * r112 / det,
        (2, 3): r1122 + r12 * r112 * r122 / det,
        (3, 3): model.fourth2 - lam2 * r122 * r122 / det,
    }
    dens0 = 1.0 / (2.0 * math.pi * np.sqrt(det))
    return c, dens0


def interior_interior_integrand(model: model_mod.BivariateModel, t, s, u: float):
    """p_{X'(t),Y'(s)}(0,0) * E{X''Y'' 1{X>=u, Y>=u} | X'=Y'=0},
    vectorized over nodes; scalar in, scalar out.

    The second-moment identity (the edge integrand's first moment is
    E{X'' 1_A} = sum_j S_3j G_j): with S the covariance of (X, Y, X'', Y'')
    from _interior_conditional, G_j = _face_g(S, (u, u)), G_01 the density
    of (X, Y) at (u, u) and P = P{X>=u, Y>=u},
    E{X''Y'' 1_A} = S_23 P
    + sum_{j=0,1; k=1-j} S_2j (u S_3j G_j + (S_jj S_3k - S_jk S_3j) G_01) / S_jj."""
    scalar = np.ndim(t) == 0 and np.ndim(s) == 0
    c, dens0 = _interior_conditional(model, t, s)
    sd0, sd1 = np.sqrt(c[0, 0]), np.sqrt(c[1, 1])
    prob = gauss._bvn_survival_batch(u / sd0, u / sd1,
                                     np.clip(c[0, 1] / (sd0 * sd1), -1.0, 1.0))
    g = _face_g(c, (u, u))
    # G_01: the density of X at u times that of Y given X = u
    sd = np.sqrt(np.maximum(c[1, 1] - c[0, 1] ** 2 / c[0, 0], 1e-300))
    g01 = _phi(u / sd0) / sd0 * _phi((u - c[0, 1] / c[0, 0] * u) / sd) / sd
    expect = c[2, 3] * prob + sum(
        c[j, 2] * (u * c[j, 3] * g[j] + (c[j, j] * c[1 - j, 3] - c[0, 1] * c[j, 3]) * g01)
        / c[j, j] for j in (0, 1))
    out = dens0 * expect
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the interior pair of an anchored cross form, r(t, s) = c C_X(t - t*) C_Y(s - s*):
# with xi ~ N(0, 1), X(t) = sqrt(c) C_X(t - t*) xi + V(t) and likewise Y, V and
# W independent, so given xi the pair factors and
# int int (interior integrand) dt ds = int phi(xi) I_X(xi) I_Y(xi) dxi.

_XI_ORDERS = (24, 32, 48, 64, 96, 128)  # the Gauss-Hermite ladder in xi
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _hermite(n: int):
    """Gauss-Hermite nodes and weights for the weight exp(-x^2 / 2)."""
    return np.polynomial.hermite_e.hermegauss(n)


def _anchored_integrands(c: float, sides, ts, xi, u: float) -> list:
    """f(xi, t) = p_{X'(t)|xi}(0) E{X''(t) 1{X(t)>=u} | X'(t)=0, xi} for each
    side (kernel, lambda, anchor point) at its own 1-d nodes ts[i] and every
    xi, one (xi, t) array per side, all normal tails in one gauss.ndtr call.

    Given xi, X(t) = a(t) sqrt(c) xi + V(t) with a = C(t - anchor); the jet
    (X, X', X'') has mean sqrt(c) xi (a, a', a'') and covariance K_ij =
    (-1)^i C^(i+j)(0) - c a^(i) a^(j) (C is even: C'(0) = C^(3)(0) = 0), so X'
    has the density phi(sqrt(c) xi a' / sqrt(K_11)) / sqrt(K_11) at 0.  With
    rho = lambda / K_11, conditioning on X' = 0 leaves X and X'' the means
    (mu0, mu2) = sqrt(c) xi rho (a, a''), the variance s00 = 1 - c rho a^2
    >= 1 - c and the covariance s02 = -lambda - c rho a a'', so
    E{X'' 1{X>=u}} = mu2 Q(z) + s02 / sqrt(s00) phi(z), z = (u - mu0) /
    sqrt(s00)."""
    alpha = math.sqrt(c)
    parts = []
    for (kernel, lam, anchor), t in zip(sides, ts):
        a0, a1, a2 = kernel.derivs(t - anchor, 2)
        k11 = lam - c * a1 * a1
        rho = lam / k11
        sd = np.sqrt(1.0 - c * rho * a0 * a0)
        z = (u - np.multiply.outer(xi, alpha * rho * a0)) / sd
        parts.append((z, np.multiply.outer(xi, alpha * rho * a2),
                      (-lam - c * rho * a0 * a2) / sd,
                      _phi(np.multiply.outer(xi, alpha * a1 / np.sqrt(k11))) / np.sqrt(k11)))
    tails = np.split(gauss.ndtr(-np.concatenate([z.ravel() for z, *_ in parts])),
                     np.cumsum([z.size for z, *_ in parts])[:-1])
    return [(mu2 * tail.reshape(z.shape) + g * _phi(z)) * dens
            for (z, mu2, g, dens), tail in zip(parts, tails)]


def _xi_envelope(c: float, sides, u: float):
    """Centre and scale of the xi rule from the quadratic exponent
    xi^2 / 2 + sum_sides (u - a xi)^2 / (2 (1 - a^2)), with a = sqrt(c) C at
    the largest |C(t - anchor)| over t in [0, 1]: P = 1 + sum a^2 / (1 - a^2),
    centre u sum(a / (1 - a^2)) / P, scale P^(-1/2)."""
    prec, lin = 1.0, 0.0
    for kernel, _, anchor in sides:
        t = np.append(np.linspace(0.0, 1.0, 101), min(max(anchor, 0.0), 1.0))
        (vals,) = kernel.derivs(t - anchor, 0)
        a = math.sqrt(c) * float(vals[np.argmax(np.abs(vals))])
        prec += a * a / (1.0 - a * a)
        lin += a / (1.0 - a * a)
    return u * lin / prec, 1.0 / math.sqrt(prec)


def _anchored(model: model_mod.BivariateModel) -> bool:
    """True if the cross form declares an anchor whose kernels are the
    model's own marginal kernels, as _anchored_interior needs."""
    anchor = model.cross.anchor
    return anchor is not None and anchor[3:] == (model.kernel_x, model.kernel_y)


def _anchored_interior(model: model_mod.BivariateModel, u: float):
    """The interior pair of an anchored cross form, sum_k W_k I_X(xi_k)
    I_Y(xi_k), and the interior integrand at the probe (0.5, 0.5) by the
    same rule, sum_k W_k f_X(xi_k, 0.5) f_Y(xi_k, 0.5).

    xi runs over a Gauss-Hermite rule of the ladder _XI_ORDERS, mapped by
    xi = centre + scale sinh(k x) / k with (centre, scale) from _xi_envelope
    and k = 0.3 (1 - scale): the stretch reaches the unit-scale tail of
    phi(xi) that a near-1 c leaves past the level where X's conditional
    mean crosses u, and vanishes for c = 0.  I_X and I_Y are GK15 sums
    (quadrature's helpers) over one panel mesh per side, shared by every xi
    node and started as two panels on each side of the anchor (clipped to
    [0, 1]).

    A rung of the ladder evaluates its order and the one below it.  Each
    pass makes one _anchored_integrands call on the panels new to the rung,
    the probe t = s = 0.5 appended, and carries the others' sums forward.
    A panel's propagated error is sum_k W_k |K15 - G7| times the other
    side's |I| (plus its error, on the X side, which covers the product of
    the two errors).  The fixed error, the gap between the two orders plus
    16 ulps of the terms' magnitudes for the rounding of the sums, is one
    no split lowers; the error is it plus every panel's.  A pass stops at
    an error within the target quad_rel_tol |value|, or unconverged at
    quad_max_evals points or at a fixed error above the target on the top
    rung.  Else a fixed error above half the target climbs a rung, which
    re-evaluates the mesh, and a smaller one bisects every panel whose
    error exceeds its share of what the fixed error leaves of the target.
    n counts the (xi, t) and (xi, s) points evaluated, the probe's too."""
    c, t_star, s_star, _, _ = model.cross.anchor
    sides = ((model.kernel_x, model.lambda1, t_star), (model.kernel_y, model.lambda2, s_star))
    centre, scale = _xi_envelope(c, sides, u)
    stretch = 0.3 * (1.0 - scale)

    def rule(level):
        x, w = _hermite(_XI_ORDERS[level])
        xi = centre + scale * (np.sinh(stretch * x) / stretch if stretch > 0.0 else x)
        return xi, (scale * w * np.cosh(stretch * x) * np.exp(0.5 * (x * x - xi * xi))
                    / math.sqrt(2.0 * math.pi))

    def start(anchor):
        cut = min(max(anchor, 0.0), 1.0)
        edges = sorted({0.0, 0.5 * cut, cut, 0.5 * (cut + 1.0), 1.0})
        return np.array(edges[:-1]), np.array(edges[1:])

    # per side, (lo, hi, K15, |K15 - G7|) of the panels carried forward and
    # the (lo, hi) of those to evaluate; kept is None on a new rung
    level, n, kept, new = 1, 0, None, [start(t_star), start(s_star)]
    while True:
        (xi, w), (xi_below, w_below) = rule(level), rule(level - 1)
        m, both = len(xi), np.concatenate([xi, xi_below])
        vals = _anchored_integrands(
            c, sides, [np.append(quadrature._gk15_place(lo, hi), 0.5) for lo, hi in new], both, u)
        n += sum(v.size for v in vals)
        probe = [v[:m, -1] for v in vals]
        panels = [(lo, hi, *quadrature._gk15_reduce(v[:, :-1].reshape(len(both), len(lo), 15),
                                                     lo, hi)) for v, (lo, hi) in zip(vals, new)]
        if kept is not None:
            panels = [tuple(np.concatenate([a, b], axis=-1) for a, b in zip(old, add))
                      for old, add in zip(kept, panels)]
        (_, _, kx, ex), (_, _, ky, ey) = panels
        ix, iy = kx.sum(axis=1), ky.sum(axis=1)
        terms = w * ix[:m] * iy[:m]
        value = math.fsum(terms)
        fixed = (abs(value - math.fsum(w_below * ix[m:] * iy[m:]))
                 + 16.0 * _EPS * math.fsum(np.abs(terms)))
        errs = [np.einsum("kp,k->p", ex[:m], w * (np.abs(iy[:m]) + ey[:m].sum(axis=1))),
                np.einsum("kp,k->p", ey[:m], w * np.abs(ix[:m]))]
        error = fixed + math.fsum(np.concatenate(errs))
        target = DEFAULT_TOL.quad_rel_tol * abs(value)
        top = level + 1 == len(_XI_ORDERS)
        if error <= target or n >= DEFAULT_TOL.quad_max_evals or (top and fixed > target):
            break
        if not top and fixed > 0.5 * target:
            level, kept, new = level + 1, None, [(lo, hi) for lo, hi, *_ in panels]
            continue
        share = (target - fixed) / sum(e.size for e in errs)
        cuts = [~(e <= share) for e in errs]  # NaN errors split too
        kept = [tuple(a[..., ~cut] for a in side) for side, cut in zip(panels, cuts)]
        new = [quadrature._bisect(lo[cut], hi[cut]) for (lo, hi, *_), cut in zip(panels, cuts)]
    return (quadrature.QuadratureResult(value, error, n, error <= target),
            math.fsum(w * probe[0] * probe[1]))


# ---------------------------------------------------------------------------
# spot checks: one node per integrated term is recomputed by the direct
# cubature of gauss.truncated_moments.  The integrand value compared is the
# one the rule computed at that node in its first batch, so a check makes
# no integrand call of its own.

def _keeping_first_batch(f, store):
    """f, also appending the nodes and values of its first call to store."""

    def keep(x):
        vals = f(x)
        if not store:
            store.append((x, vals))
        return vals

    return keep


def _value_at(nodes, vals, probe):
    """The value at the node equal to probe among the nodes and values of a
    rule's first batch, as kept by _keeping_first_batch.  That batch holds
    the centre of its starting cells: t = 0.5 is the centre node of GK15 on
    [0, 1], (0.5, 0) and (0, 0.5) the two points of the lag integral's
    centre node v = 0.5, and (0.5, 0.5) the centre node of integrate_nd's
    first box, 15 x 15 nodes on [0, 1]^2."""
    hit = np.all(np.reshape(nodes, (len(vals), -1)) == probe, axis=1)
    (i,) = np.flatnonzero(hit)
    return float(vals[i])


def _spot_check(checks, monomial):
    """Compare each (label, value at the probe, cov, lower, scale) of checks
    with scale times the direct cubature of the monomial's truncated moment
    over (cov, lower), all the cubatures in one gauss.truncated_moments
    call.  A gap above moment_consistency_tol raises ConsistencyError."""
    moments = gauss.truncated_moments([(cov, lower) for _, _, cov, lower, _ in checks], monomial)
    for (label, value, _, _, scale), mom in zip(checks, moments):
        ref = scale * mom.value
        if abs(ref - value) > DEFAULT_TOL.moment_consistency_tol:
            raise ConsistencyError(
                f"{label} disagrees with the direct cubature of its truncated "
                f"moment: {value:.9e} vs {ref:.9e}",
                value_a=value,
                value_b=ref,
            )


# ---------------------------------------------------------------------------
# face-pair integrals

_TOLS = dict(rel_tol=DEFAULT_TOL.quad_rel_tol, abs_tol=0.0, max_evals=DEFAULT_TOL.quad_max_evals)


def face_pair_integral(
    model: model_mod.BivariateModel,
    face_x: str,
    face_y: str,
    u: float,
    constrain_x: bool = True,
    constrain_y: bool = True,
) -> FacePairTerm:
    """One term of the face-pair sum, with its sign (-1)^(k+l).

    Every integrated term must converge and is spot-checked at the centre
    node of the rule's first batch against the direct cubature of its
    truncated moment (gauss.truncated_moments).  A corner x corner pair
    is the one-pair case of _corner_terms, a vertex x edge pair that of
    _edge_terms.

    The interior x interior pair of a lag-only cross form is the 1D
    integral int_0^1 (1 - v) (f(v) + f(-v)) dv by Gauss-Kronrod, each
    pass one integrand call at (v, 0) and (0, v) for all its nodes v; its
    n counts both points of each node, and its probe points are (0.5, 0)
    and (0, 0.5).  That of an anchored cross form is _anchored_interior's
    sum over xi, probed at (0.5, 0.5) by the final xi rule.  Any other
    cross form takes the cubature over [0,1]^2, probed at (0.5, 0.5)."""
    k = int(face_x == "Interior") + int(face_y == "Interior")

    if k < 2:
        (term,) = (_corner_terms if k == 0 else _edge_terms)(
            model, [(face_x, face_y)], u, constrain_x, constrain_y)
        return term

    if _anchored(model):
        res, at_probe = _anchored_interior(model, u)
        probes, values = ((0.5, 0.5),), (at_probe,)
    else:
        first: list = []
        interior = _keeping_first_batch(
            lambda p: interior_interior_integrand(model, p[:, 0], p[:, 1], u), first)
        if model.cross.lag_only:
            def lag(v):
                m = v.size
                p = np.zeros((2 * m, 2))
                p[:m, 0] = p[m:, 1] = v  # f(v) at (v, 0), f(-v) at (0, v)
                vals = interior(p)
                return (1.0 - v) * (vals[:m] + vals[m:])

            res = quadrature.integrate_1d(lag, 0.0, 1.0, **_TOLS)
            res = replace(res, n_evals=2 * res.n_evals)
            probes = ((0.5, 0.0), (0.0, 0.5))
        else:
            res = quadrature.integrate_nd(interior, np.zeros(2), np.ones(2), **_TOLS)
            probes = ((0.5, 0.5),)
        values = [_value_at(*first[0], probe) for probe in probes]
    est = res.estimate("interior x interior quadrature")
    c, dens0 = _interior_conditional(model, *zip(*probes))
    _spot_check([(f"interior integrand at (t,s)=({t:g}, {s:g})", value,
                  _dense(c, i), (u, u, -np.inf, -np.inf), float(dens0[i]))
                 for i, ((t, s), value) in enumerate(zip(probes, values))], (0, 0, 1, 1))
    return FacePairTerm(face_x, face_y, est)


def _edge_terms(model, pairs, u: float, constrain_x: bool, constrain_y: bool) -> list:
    """The vertex x edge terms of pairs, their integrals refined in lockstep
    (quadrature.lockstep_1d), so each pass makes one _edge_integrands call
    for all of them, which evaluates each of the two cross forms once, and
    their spot checks' direct cubatures in lockstep too
    (gauss.truncated_moments).  A check's value and covariance are the
    first batch's at t = 0.5 (_EdgeSpec.probe), so the checks make no
    integrand or cross-form call of their own.  Each integral still keeps
    its own cells and stopping test, so each term equals
    face_pair_integral's for its pair bit for bit; each must converge and
    pass its own spot check."""
    transposed = (model_mod.transpose(model) if any(fx != "Interior" for fx, _ in pairs)
                  else None)
    specs = []
    for face_x, face_y in pairs:
        if face_x == "Interior":
            specs.append(_EdgeSpec(model, _POINT[face_y], constrain_y))
        else:
            # Y varies: swap the processes and integrate the same form
            specs.append(_EdgeSpec(transposed, _POINT[face_x], constrain_x))
    first: list = []
    results = quadrature.lockstep_1d(
        _keeping_first_batch(lambda ts: _edge_integrands(specs, ts, u), first),
        [(0.0, 1.0)] * len(specs), **_TOLS)
    terms = [FacePairTerm(face_x, face_y,
                          res.estimate(f"face pair ({face_x},{face_y}) quadrature"))
             for (face_x, face_y), res in zip(pairs, results)]
    _spot_check([("edge integrand at t=0.5", _value_at(first[0][0][i], first[0][1][i], 0.5),
                  spec.probe, (u, u, 0.0 if spec.constrain else -np.inf, -np.inf),
                  1.0 / math.sqrt(2.0 * math.pi * spec.model.lambda1))
                 for i, spec in enumerate(specs)], (0, 0, 0, 1))
    return terms


def _restricted_pairs(model, classification, tol):
    if classification.tag in ("DiagonalLine", "GeneralFallback"):
        raise RegimeError(
            "the face-restricted sum needs a unique maximizer; "
            f"classification is {classification.tag}"
        )
    t_star, s_star = classification.maximizers[0]
    geo = asymptotics.local_geometry(model, t_star, s_star)
    x_flat = abs(geo.r1) < tol
    y_flat = abs(geo.r2) < tol
    # the faces whose closure holds the maximizer; the interior only where r
    # is flat along that coordinate
    x_faces = [f for f, p in _POINT.items() if p in asymptotics._endpoints(t_star)]
    y_faces = [f for f, p in _POINT.items() if p in asymptotics._endpoints(s_star)]
    x_faces += ["Interior"] * x_flat
    y_faces += ["Interior"] * y_flat
    pairs = [(fx, fy) for fx, fy in _PAIR_ORDER if fx in x_faces and fy in y_faces]
    return pairs, x_flat, y_flat


def eec(
    model: model_mod.BivariateModel,
    u: float,
    restricted: bool = False,
    classification=None,
) -> EecResult:
    """Sum the face-pair terms in a fixed order; exposes the per-term
    breakdown.  The edge terms are refined in lockstep (_edge_terms), then
    the corners are one orthant evaluation (_corner_terms), then the
    interior pair goes through face_pair_integral.

    The full sum integrates all nine pairs whatever the shape of r; only
    the restricted sum needs the model's maximizer, from classification
    (asymptotics.classify(model), computed here when not given).  A sum
    whose every term is exactly 0.0 has underflowed, not converged: it is
    returned low-confidence with a note.  A level beyond
    common.MAX_LEVEL in magnitude is an ArgumentError."""
    check_level(u)
    if restricted:
        if classification is None:
            classification = asymptotics.classify(model)
        pairs, constrain_x, constrain_y = _restricted_pairs(
            model, classification, DEFAULT_TOL.gradient_tol
        )
    else:
        pairs = _PAIR_ORDER
        constrain_x = constrain_y = True
    # the vertex x edge pairs in lockstep, then the corners in one orthant
    # evaluation, then the interior pair on its own
    edges = [p for p in pairs if (p[0] == "Interior") != (p[1] == "Interior")]
    corners = [p for p in pairs if "Interior" not in p]
    done = dict(zip(edges, _edge_terms(model, edges, u, constrain_x, constrain_y)))
    done.update(zip(corners, _corner_terms(model, corners, u, constrain_x, constrain_y)))
    terms = tuple(
        done[fx, fy] if (fx, fy) in done
        else face_pair_integral(model, fx, fy, u, constrain_x=constrain_x,
                                constrain_y=constrain_y)
        for fx, fy in pairs
    )

    total = sum(t.sign * t.value.value for t in terms)
    err = math.hypot(*(t.value.error for t in terms))  # no underflow of tiny errors
    n = sum(t.value.n for t in terms)
    low_conf = any(t.value.error > 1e-4 * abs(total) for t in terms)
    notes = ()
    if all(t.value.value == 0.0 for t in terms):
        low_conf = True
        notes = (f"every face-pair term underflowed to 0.0 at u={u:g}",)
    return EecResult(
        total=Estimate(total, err, n, QUADRATURE, low_confidence=low_conf,
                       notes=notes),
        terms=terms,
        u=u,
    )
