"""Numeric expected Euler characteristic by face-pair summation.

The expected Euler characteristic of the joint excursion set above level
u decomposes over pairs of faces of [0,1] x [0,1]: four corner x corner
probabilities, four mixed terms (one face a corner, the other the open
interval, giving a 1D integral), and one interior x interior 2D
integral, each weighted by (-1)^(k+l) where k and l are the face
dimensions.

For N=1 the determinant factors inside the integrals are the scalars
X''(t) and Y''(s), so every integrand reduces to a Gaussian first or
second truncated moment.  Those are evaluated in closed form through
face-factor identities (E{xi 1_A} = Sigma G with G the density-weighted
conditional survivals), vectorized over quadrature nodes, with every
conditional covariance written out entrywise.  Each integrated term is
additionally spot-checked at one node against gauss.truncated_moment,
which recomputes the same quantity by direct cubature of the truncated
density.  The probe is the rule's own centre node, t = 0.5 for the
Gauss-Kronrod rule and (0.5, 0.5) for the cubature, and the value checked
is the one the rule computed there in its first batch.

The four vertex x edge integrals of a sum (the "edge terms") are refined
in lockstep (quadrature.lockstep_1d): each pass evaluates the nodes of
every open edge integral in one call of _edge_integrands, which makes
one _face_g call per dimension for all of them, and their spot checks'
cubatures run in lockstep too (gauss.truncated_moments).  An integrand
call costs about as much for 15 nodes as for 60, and an edge integral
mostly converges on its first panel.  Each integral keeps its own cells
and stopping test, and the bivariate kernel gives a point the same bits
whatever else shares its batch, so each term is the one
face_pair_integral computes for its pair alone, bit for bit.

Face restriction: with ``restricted=True`` only the faces whose closure
contains the unique maximizer (t*, s*) and whose free directions have a
vanishing cross-correlation gradient are summed, and sign constraints
are kept only for the remaining flat directions.  The two sums agree to
super-exponential order in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_EPS = {"Left": -1.0, "Right": 1.0}

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
    sign: int
    value: Estimate

    def __post_init__(self) -> None:
        if self.face_x not in FACES or self.face_y not in FACES:
            raise ArgumentError("faces must be Left, Right, or Interior")
        k = int(self.face_x == "Interior") + int(self.face_y == "Interior")
        if self.sign != (-1) ** k:
            raise ArgumentError("sign must equal (-1)^(k+l) for the face pair")


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
    and +1 at 1; either derivative constraint can be dropped."""
    if t0 not in (0.0, 1.0) or s0 not in (0.0, 1.0):
        raise ArgumentError("corner coordinates must be 0 or 1")
    et = -1.0 if t0 == 0.0 else 1.0
    es = -1.0 if s0 == 0.0 else 1.0
    r, r1, r2, r12 = model.cross.partials(t0, s0, ((0, 0), (1, 0), (0, 1), (1, 1)))
    lam1, lam2 = model.lambda1, model.lambda2

    idx_x = 2 if constrain_x else None
    n = 2 + int(constrain_x) + int(constrain_y)
    cov = np.zeros((n, n))
    cov[0, 0] = cov[1, 1] = 1.0
    cov[0, 1] = cov[1, 0] = r
    pos = 2
    if constrain_x:
        cov[pos, pos] = lam1
        cov[0, pos] = cov[pos, 0] = 0.0
        cov[1, pos] = cov[pos, 1] = et * r1
        pos += 1
    if constrain_y:
        cov[pos, pos] = lam2
        cov[0, pos] = cov[pos, 0] = es * r2
        cov[1, pos] = cov[pos, 1] = 0.0
        if constrain_x:
            cov[idx_x, pos] = cov[pos, idx_x] = et * es * r12
        pos += 1
    lower = np.concatenate([[u, u], np.zeros(n - 2)])
    return gauss.mvn_cdf(cov, lower)


def _dense(c, node: int = 0) -> np.ndarray:
    """The covariance held entrywise in c ({(i, j): scalar or array over
    nodes}, i <= j) at one node, as a dense symmetric matrix."""
    d = 1 + max(j for _, j in c)
    out = np.empty((d, d))
    for (i, j), v in c.items():
        out[i, j] = out[j, i] = v if np.ndim(v) == 0 else v[node]
    return out


def _edge_conditional(model: model_mod.BivariateModel, t, s0: float, es: float):
    """Covariance of (X(t), Y(s0), es*Y'(s0), X''(t)) given X'(t)=0,
    entrywise over t ({(i, j): array}, i <= j).  Conditional means vanish.
    X'(t) is uncorrelated with X(t) and X''(t), so only Y(s0) and es*Y'(s0),
    with covariances r1 and es*r12 to it, lose variance to it."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lam1, lam2 = model.lambda1, model.lambda2
    r, r1, r2, r11, r12, r112 = model.cross.partials(
        t, s0, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)))
    return {
        (0, 0): 1.0, (0, 1): r, (0, 2): es * r2, (0, 3): -lam1,
        (1, 1): 1.0 - r1 * r1 / lam1, (1, 2): -es * r1 * r12 / lam1, (1, 3): r11,
        (2, 2): lam2 - r12 * r12 / lam1, (2, 3): es * r112,
        (3, 3): model.fourth1,
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
    shape = np.broadcast(*c.values()).shape
    args = [np.concatenate([np.broadcast_to(a[i], shape) for a in tails])
            for i in range(len(tails[0]))]
    if d == 2:
        surv = gauss.ndtr(-args[0])
    else:
        surv = gauss._bvn_survival_batch(*args)
    return [dj * tj for dj, tj in zip(dens, np.split(surv, d))]


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
    (out,) = _edge_integrands([(model, s0, constrain_endpoint)],
                              [np.atleast_1d(np.asarray(t, dtype=float))], u)
    return float(out[0]) if np.ndim(t) == 0 else out


def _edge_integrands(specs, ts, u: float) -> list:
    """edge_point_integrand for each spec (model, s0, constrain_endpoint)
    at its own 1-d nodes ts[i], in one batch: each spec's _edge_conditional
    on its nodes, the entries of all specs concatenated, and one _face_g
    call per dimension (3 with the endpoint constraint, 2 without).  A
    node's value does not depend on the other nodes of the batch (the
    bivariate kernel is batch-invariant), so each spec gets the bits it
    gets alone.  Returns one array per spec, empty for an empty ts[i]."""
    out = [np.empty(0)] * len(specs)
    for constrain in (True, False):
        group = [i for i, spec in enumerate(specs) if spec[2] == constrain and np.size(ts[i])]
        if not group:
            continue
        conds = [_edge_conditional(specs[i][0], ts[i], specs[i][1],
                                   _EPS["Left"] if specs[i][1] == 0.0 else _EPS["Right"])
                 for i in group]
        sizes = [np.size(ts[i]) for i in group]
        c = {key: np.concatenate([ci[key] if np.ndim(ci[key]) else np.full(n, ci[key])
                                  for ci, n in zip(conds, sizes)])
             for key in conds[0]}
        lower = (u, u, 0.0) if constrain else (u, u)
        g = _face_g(c, lower)
        # Tallis: E{X'' 1_A} = sum_j Cov(X'', xi_j) G_j
        expect = sum(c[j, 3] * g[j] for j in range(len(lower)))
        for i, part in zip(group, np.split(expect, np.cumsum(sizes)[:-1])):
            out[i] = part / math.sqrt(2.0 * math.pi * specs[i][0].lambda1)
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


def _hessian_regression(c):
    """Affine structure of E{(X'', Y'') | X, Y} under the conditional law
    of _interior_conditional, through the explicit inverse of the 2 x 2
    covariance of (X, Y): coefficients (a1, b1), (a2, b2) and the residual
    cross-covariance c12."""
    sxx, sxy, syy = c[0, 0], c[0, 1], c[1, 1]
    det = sxx * syy - sxy * sxy
    a1 = (syy * c[0, 2] - sxy * c[1, 2]) / det
    b1 = (sxx * c[1, 2] - sxy * c[0, 2]) / det
    a2 = (syy * c[0, 3] - sxy * c[1, 3]) / det
    b2 = (sxx * c[1, 3] - sxy * c[0, 3]) / det
    c12 = c[2, 3] - (a1 * c[0, 3] + b1 * c[1, 3])
    return a1, b1, a2, b2, c12


def _tallis_pairs(sxx, sxy, syy, u):
    """H_jj = phi_j(u) u P{xi_k >= u | xi_j = u} and
    H_jk = phi_j(u) E{xi_k 1{xi_k >= u} | xi_j = u} for the Gaussian pair
    (xi_0, xi_1) with covariance [[sxx, sxy], [sxy, syy]] and both bounds
    at u, where phi_j is the density of xi_j.  Returns H_00, H_01, H_11,
    H_10; both conditional survivals take one normal-tail call."""
    vjj, vkk = np.stack([sxx, syy]), np.stack([syy, sxx])
    sdj = np.sqrt(vjj)
    dens = _phi(u / sdj) / sdj
    mu_k = sxy / vjj * u
    sd_k = np.sqrt(np.maximum(vkk - sxy ** 2 / vjj, 1e-300))
    z = (u - mu_k) / sd_k
    surv = gauss.ndtr(-z)
    h_jj = dens * u * surv
    h_jk = dens * (mu_k * surv + sd_k * _phi(z))
    return h_jj[0], h_jk[0], h_jj[1], h_jk[1]


def interior_interior_integrand(model: model_mod.BivariateModel, t, s, u: float):
    """p_{X'(t),Y'(s)}(0,0) * E{X''Y'' 1{X>=u, Y>=u} | X'=Y'=0},
    vectorized over nodes; scalar in, scalar out."""
    scalar = np.ndim(t) == 0 and np.ndim(s) == 0
    c, dens0 = _interior_conditional(model, t, s)
    a1, b1, a2, b2, c12 = _hessian_regression(c)
    sxx, sxy, syy = c[0, 0], c[0, 1], c[1, 1]

    sd0 = np.sqrt(sxx)
    sd1 = np.sqrt(syy)
    rho = np.clip(sxy / (sd0 * sd1), -1.0, 1.0)
    prob = gauss._bvn_survival_batch(u / sd0, u / sd1, rho)

    # Tallis: E{xi_i xi_k 1{X>=u, Y>=u}} = S_ik P + sum_j S_ij H_jk
    h00, h01, h11, h10 = _tallis_pairs(sxx, sxy, syy, u)
    m00 = sxx * prob + sxx * h00 + sxy * h10
    m01 = sxy * prob + sxx * h01 + sxy * h11
    m11 = syy * prob + sxy * h01 + syy * h11

    expect = (
        a1 * a2 * m00
        + (a1 * b2 + b1 * a2) * m01
        + b1 * b2 * m11
        + c12 * prob
    )
    out = dens0 * expect
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# spot checks: one node per integrated term is recomputed by the direct
# cubature of gauss.truncated_moment.  The integrand value compared is the
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
    [0, 1], and (0.5, 0.5) the centre of the middle cell of integrate_nd's
    3 x 3 grid."""
    hit = np.all(np.reshape(nodes, (len(vals), -1)) == probe, axis=1)
    (i,) = np.flatnonzero(hit)
    return float(vals[i])


def _check_against_cubature(what, value_at_probe, ref):
    if abs(ref - value_at_probe) > DEFAULT_TOL.moment_consistency_tol:
        raise ConsistencyError(
            f"{what} disagrees with the direct cubature of its truncated "
            f"moment: {value_at_probe:.9e} vs {ref:.9e}",
            value_a=value_at_probe,
            value_b=ref,
        )


def _edge_region(model, s0, u, constrain):
    """The truncated-moment region of the edge integrand at t = 0.5."""
    es = _EPS["Left"] if s0 == 0.0 else _EPS["Right"]
    cov4 = _dense(_edge_conditional(model, 0.5, s0, es))
    lower = np.array([u, u, 0.0, -np.inf]) if constrain else np.array(
        [u, u, -np.inf, -np.inf]
    )
    return cov4, lower


def _spot_check_interior(model, u, value_at_probe):
    c, dens0 = _interior_conditional(model, 0.5, 0.5)
    lower = np.array([u, u, -np.inf, -np.inf])
    mom = gauss.truncated_moment(_dense(c), lower, (0, 0, 1, 1))
    _check_against_cubature("interior integrand at (t,s)=(0.5, 0.5)", value_at_probe,
                            float(dens0[0]) * mom.value)


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
    truncated moment (gauss.truncated_moment).  A vertex x edge pair is
    the one-pair case of _edge_terms."""
    k = int(face_x == "Interior") + int(face_y == "Interior")
    sign = (-1) ** k

    if k == 0:
        est = corner_corner_term(
            model, _POINT[face_x], _POINT[face_y], u, constrain_x, constrain_y
        )
        return FacePairTerm(face_x, face_y, sign, est)
    if k == 1:
        (term,) = _edge_terms(model, [(face_x, face_y)], u, constrain_x, constrain_y)
        return term

    first: list = []
    est = quadrature.integrate_nd(
        _keeping_first_batch(
            lambda p: interior_interior_integrand(model, p[:, 0], p[:, 1], u), first),
        np.zeros(2), np.ones(2), **_TOLS,
    ).estimate("interior x interior quadrature")
    _spot_check_interior(model, u, _value_at(*first[0], (0.5, 0.5)))
    return FacePairTerm(face_x, face_y, sign, est)


def _edge_terms(model, pairs, u: float, constrain_x: bool, constrain_y: bool) -> list:
    """The vertex x edge terms of pairs, their integrals refined in lockstep
    (quadrature.lockstep_1d), so each pass makes one _edge_integrands call
    for all of them, and their spot checks' direct cubatures in lockstep
    too (gauss.truncated_moments).  Each integral still keeps its own cells
    and stopping test, so each term equals face_pair_integral's for its
    pair bit for bit; each must converge and pass its own spot check."""
    transposed = (model_mod.transpose(model) if any(fx != "Interior" for fx, _ in pairs)
                  else None)
    specs = []
    for face_x, face_y in pairs:
        if face_x == "Interior":
            specs.append((model, _POINT[face_y], constrain_y))
        else:
            # Y varies: swap the processes and integrate the same form
            specs.append((transposed, _POINT[face_x], constrain_x))
    first: list = []
    results = quadrature.lockstep_1d(
        _keeping_first_batch(lambda ts: _edge_integrands(specs, ts, u), first),
        [(0.0, 1.0)] * len(specs), **_TOLS)
    terms = [FacePairTerm(face_x, face_y, -1,
                          res.estimate(f"face pair ({face_x},{face_y}) quadrature"))
             for (face_x, face_y), res in zip(pairs, results)]
    moments = gauss.truncated_moments([_edge_region(work, s0, u, constrain)
                                       for work, s0, constrain in specs], (0, 0, 0, 1))
    for i, ((work, _, _), mom) in enumerate(zip(specs, moments)):
        _check_against_cubature("edge integrand at t=0.5",
                                _value_at(first[0][0][i], first[0][1][i], 0.5),
                                mom.value / math.sqrt(2.0 * math.pi * work.lambda1))
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

    x_faces = []
    if t_star <= 1e-9:
        x_faces.append("Left")
    if t_star >= 1.0 - 1e-9:
        x_faces.append("Right")
    if x_flat:
        x_faces.append("Interior")
    y_faces = []
    if s_star <= 1e-9:
        y_faces.append("Left")
    if s_star >= 1.0 - 1e-9:
        y_faces.append("Right")
    if y_flat:
        y_faces.append("Interior")
    pairs = [
        (fx, fy) for fx, fy in _PAIR_ORDER if fx in x_faces and fy in y_faces
    ]
    return pairs, x_flat, y_flat


def eec(
    model: model_mod.BivariateModel,
    u: float,
    restricted: bool = False,
) -> EecResult:
    """Sum the face-pair terms in a fixed order; exposes the per-term
    breakdown.  The edge terms are refined in lockstep (_edge_terms), the
    other pairs one by one through face_pair_integral.

    The full sum integrates all nine pairs whatever the shape of r; only
    the restricted sum classifies the model, to find its maximizer.  A sum
    whose every term is exactly 0.0 has underflowed, not converged: it is
    returned low-confidence with a note."""
    if restricted:
        classification = asymptotics.classify(model)
        pairs, constrain_x, constrain_y = _restricted_pairs(
            model, classification, DEFAULT_TOL.gradient_tol
        )
    else:
        pairs = _PAIR_ORDER
        constrain_x = constrain_y = True
    # the vertex x edge pairs in lockstep, every other pair on its own
    edges = [p for p in pairs if (p[0] == "Interior") != (p[1] == "Interior")]
    edge_terms = dict(zip(edges, _edge_terms(model, edges, u, constrain_x, constrain_y)))
    terms = tuple(
        edge_terms[fx, fy] if (fx, fy) in edge_terms
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
