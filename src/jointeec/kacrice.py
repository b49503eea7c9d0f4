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
conditional survivals), vectorized over quadrature nodes; each
integrated term is additionally spot-checked at one node against the
dual-route moment evaluator in gauss, which recomputes the same quantity
by an independent cubature.

Face restriction: with ``restricted=True`` only the faces whose closure
contains the unique maximizer (t*, s*) and whose free directions have a
vanishing cross-correlation gradient are summed, and sign constraints
are kept only for the remaining flat directions.  The two sums agree to
super-exponential order in u.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import asymptotics, gauss, quadrature
from . import model as model_mod
from .common import (
    DEFAULT_TOL,
    QUADRATURE,
    AccuracyError,
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
    "conditional_hessian_coefficients",
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
    r = model_mod.cross_eval(model, t0, s0, 0, 0)
    r1 = model_mod.cross_eval(model, t0, s0, 1, 0)
    r2 = model_mod.cross_eval(model, t0, s0, 0, 1)
    r12 = model_mod.cross_eval(model, t0, s0, 1, 1)
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


def _edge_conditional_cov(model: model_mod.BivariateModel, t, s0: float, es: float):
    """Covariance of (X(t), Y(s0), es*Y'(s0), X''(t)) given X'(t)=0,
    vectorized over t.  Conditional means vanish."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = t.size
    lam1, lam2 = model.lambda1, model.lambda2
    mu4 = model_mod.kernel_eval(model.kernel_x, 0.0, 4)
    r = np.broadcast_to(model_mod.cross_eval(model, t, s0, 0, 0), (m,))
    r1 = np.broadcast_to(model_mod.cross_eval(model, t, s0, 1, 0), (m,))
    r2 = np.broadcast_to(model_mod.cross_eval(model, t, s0, 0, 1), (m,))
    r11 = np.broadcast_to(model_mod.cross_eval(model, t, s0, 2, 0), (m,))
    r12 = np.broadcast_to(model_mod.cross_eval(model, t, s0, 1, 1), (m,))
    r112 = np.broadcast_to(model_mod.cross_eval(model, t, s0, 2, 1), (m,))

    c = np.zeros((m, 4, 4))
    c[:, 0, 0] = 1.0
    c[:, 1, 1] = 1.0 - r1 * r1 / lam1
    c[:, 2, 2] = lam2 - r12 * r12 / lam1
    c[:, 3, 3] = mu4
    c[:, 0, 1] = c[:, 1, 0] = r
    c[:, 0, 2] = c[:, 2, 0] = es * r2
    c[:, 0, 3] = c[:, 3, 0] = -lam1
    c[:, 1, 2] = c[:, 2, 1] = -es * r1 * r12 / lam1
    c[:, 1, 3] = c[:, 3, 1] = r11
    c[:, 2, 3] = c[:, 3, 2] = es * r112
    return c


def _face_g(cov, lower):
    """Tallis face factors G_j = phi_j(l_j) * P{rest >= l_rest | xi_j = l_j}
    for a batch of small covariance blocks; dims 2 and 3 only."""
    m, d, _ = cov.shape
    g = np.zeros((m, d))
    for j in range(d):
        rest = [i for i in range(d) if i != j]
        vjj = cov[:, j, j]
        sdj = np.sqrt(vjj)
        lj = np.broadcast_to(lower[:, j], (m,))
        dens = _phi(lj / sdj) / sdj
        mu = cov[:, rest, j] / vjj[:, None] * lj[:, None]
        cc = cov[np.ix_(range(m), rest, rest)] - (
            cov[:, rest, j][:, :, None] * cov[:, rest, j][:, None, :]
        ) / vjj[:, None, None]
        z = lower[:, rest] - mu
        if d == 2:
            sd = np.sqrt(np.maximum(cc[:, 0, 0], 1e-300))
            g[:, j] = dens * ndtr(-z[:, 0] / sd)
        else:
            sd0 = np.sqrt(np.maximum(cc[:, 0, 0], 1e-300))
            sd1 = np.sqrt(np.maximum(cc[:, 1, 1], 1e-300))
            rho = np.clip(cc[:, 0, 1] / (sd0 * sd1), -1.0, 1.0)
            g[:, j] = dens * gauss._bvn_survival_batch(
                z[:, 0] / sd0, z[:, 1] / sd1, rho
            )
    return g


def edge_point_integrand(
    model: model_mod.BivariateModel,
    t,
    s0: float,
    u: float,
    constrain_endpoint: bool = True,
):
    """p_{X'(t)}(0) * E{X''(t) 1{X(t)>=u, Y(s0)>=u, e*Y'(s0)>=0} | X'(t)=0}.

    Vectorized over t; scalar in, scalar out.  The derivative-sign
    indicator at the endpoint is dropped when constrain_endpoint is
    False (the restricted sum with a nonflat cross direction)."""
    if s0 not in (0.0, 1.0):
        raise ArgumentError("s0 must be an endpoint")
    scalar = np.ndim(t) == 0
    es = _EPS["Left"] if s0 == 0.0 else _EPS["Right"]
    cov4 = _edge_conditional_cov(model, t, s0, es)
    m = cov4.shape[0]
    if constrain_endpoint:
        idx = [0, 1, 2]
        lower = np.broadcast_to(np.array([u, u, 0.0]), (m, 3))
    else:
        idx = [0, 1]
        lower = np.broadcast_to(np.array([u, u]), (m, 2))
    block = cov4[np.ix_(range(m), idx, idx)]
    cov_target = cov4[:, idx, 3]
    g = _face_g(block, lower)
    expect = np.einsum("mj,mj->m", cov_target, g)
    out = expect / math.sqrt(2.0 * math.pi * model.lambda1)
    return float(out[0]) if scalar else out


def _interior_conditional(model: model_mod.BivariateModel, t, s):
    """Covariance of (X, Y, X'', Y'') given X'(t)=Y'(s)=0 plus the
    density of (X', Y') at zero, vectorized over nodes."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t, s = np.broadcast_arrays(t, s)
    m = t.size
    lam1, lam2 = model.lambda1, model.lambda2
    mu4x = model_mod.kernel_eval(model.kernel_x, 0.0, 4)
    mu4y = model_mod.kernel_eval(model.kernel_y, 0.0, 4)

    def ce(a, b):
        return np.broadcast_to(model_mod.cross_eval(model, t, s, a, b), (m,))

    r, r1, r2 = ce(0, 0), ce(1, 0), ce(0, 1)
    r11, r22, r12 = ce(2, 0), ce(0, 2), ce(1, 1)
    r112, r122, r1122 = ce(2, 1), ce(1, 2), ce(2, 2)

    det = lam1 * lam2 - r12 * r12
    base = np.zeros((m, 4, 4))
    base[:, 0, 0] = base[:, 1, 1] = 1.0
    base[:, 2, 2] = mu4x
    base[:, 3, 3] = mu4y
    base[:, 0, 1] = base[:, 1, 0] = r
    base[:, 0, 2] = base[:, 2, 0] = -lam1
    base[:, 0, 3] = base[:, 3, 0] = r22
    base[:, 1, 2] = base[:, 2, 1] = r11
    base[:, 1, 3] = base[:, 3, 1] = -lam2
    base[:, 2, 3] = base[:, 3, 2] = r1122

    bmat = np.zeros((m, 4, 2))  # covariances with (X'(t), Y'(s))
    bmat[:, 0, 1] = r2
    bmat[:, 1, 0] = r1
    bmat[:, 2, 1] = r112
    bmat[:, 3, 0] = r122

    linv = np.empty((m, 2, 2))
    linv[:, 0, 0] = lam2 / det
    linv[:, 1, 1] = lam1 / det
    linv[:, 0, 1] = linv[:, 1, 0] = -r12 / det
    sig = base - np.einsum("mij,mjk,mlk->mil", bmat, linv, bmat)
    dens0 = 1.0 / (2.0 * math.pi * np.sqrt(det))
    return sig, dens0


def _hessian_regression(sig):
    """Affine structure of E{(X'', Y'') | X, Y} under the conditional
    law: coefficient rows (a1, b1), (a2, b2) and the residual
    cross-covariance c12."""
    sxy = sig[:, :2, :2]
    cross = sig[:, 2:, :2]
    coefs = np.linalg.solve(sxy, cross.transpose(0, 2, 1)).transpose(0, 2, 1)
    c12 = sig[:, 2, 3] - np.einsum("mj,mj->m", coefs[:, 0, :], cross[:, 1, :])
    return coefs, c12


def conditional_hessian_coefficients(
    model: model_mod.BivariateModel, t: float, s: float
):
    """(a1, b1, a2, b2, c12) with E{X''|X=x,Y=y,X'=Y'=0} = a1 x + b1 y,
    likewise (a2, b2) for Y'', and c12 the residual cross-covariance."""
    sig, _ = _interior_conditional(model, t, s)
    coefs, c12 = _hessian_regression(sig)
    return (
        float(coefs[0, 0, 0]),
        float(coefs[0, 0, 1]),
        float(coefs[0, 1, 0]),
        float(coefs[0, 1, 1]),
        float(c12[0]),
    )


def interior_interior_integrand(model: model_mod.BivariateModel, t, s, u: float):
    """p_{X'(t),Y'(s)}(0,0) * E{X''Y'' 1{X>=u, Y>=u} | X'=Y'=0},
    vectorized over nodes; scalar in, scalar out."""
    scalar = np.ndim(t) == 0 and np.ndim(s) == 0
    sig, dens0 = _interior_conditional(model, t, s)
    coefs, c12 = _hessian_regression(sig)
    sxy = sig[:, :2, :2]
    m = sxy.shape[0]

    sd0 = np.sqrt(sxy[:, 0, 0])
    sd1 = np.sqrt(sxy[:, 1, 1])
    rho = np.clip(sxy[:, 0, 1] / (sd0 * sd1), -1.0, 1.0)
    prob = gauss._bvn_survival_batch(u / sd0, u / sd1, rho)

    # Tallis identities for first and second truncated moments of (X, Y)
    hmat = np.zeros((m, 2, 2))
    for j in range(2):
        k = 1 - j
        vjj = sxy[:, j, j]
        dens = _phi(u / np.sqrt(vjj)) / np.sqrt(vjj)
        mu_k = sxy[:, k, j] / vjj * u
        var_k = sxy[:, k, k] - sxy[:, k, j] ** 2 / vjj
        sd_k = np.sqrt(np.maximum(var_k, 1e-300))
        z = (u - mu_k) / sd_k
        surv = ndtr(-z)
        hmat[:, j, j] = dens * u * surv
        hmat[:, j, k] = dens * (mu_k * surv + sd_k * _phi(z))
    second = sxy * prob[:, None, None] + np.einsum("mij,mjk->mik", sxy, hmat)

    a1, b1 = coefs[:, 0, 0], coefs[:, 0, 1]
    a2, b2 = coefs[:, 1, 0], coefs[:, 1, 1]
    expect = (
        a1 * a2 * second[:, 0, 0]
        + (a1 * b2 + b1 * a2) * second[:, 0, 1]
        + b1 * b2 * second[:, 1, 1]
        + c12 * prob
    )
    out = dens0 * expect
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# spot checks: one node per integrated term is recomputed through the
# dual-route moment evaluator (reduction vs direct cubature) in gauss

def _spot_check_edge(model, s0, u, constrain, value_at_probe, probe_t=0.5):
    es = _EPS["Left"] if s0 == 0.0 else _EPS["Right"]
    cov4 = _edge_conditional_cov(model, probe_t, s0, es)[0]
    lower = np.array([u, u, 0.0, -np.inf]) if constrain else np.array(
        [u, u, -np.inf, -np.inf]
    )
    mom = gauss.truncated_moment(cov4, lower, (0, 0, 0, 1))
    ref = mom.value / math.sqrt(2.0 * math.pi * model.lambda1)
    gap = abs(ref - value_at_probe)
    if gap > DEFAULT_TOL.moment_consistency_tol:
        raise ConsistencyError(
            "edge integrand disagrees with the dual-route moment evaluator "
            f"at t={probe_t}: {value_at_probe:.9e} vs {ref:.9e}",
            value_a=value_at_probe,
            value_b=ref,
        )


def _spot_check_interior(model, u, value_at_probe, probe=(0.5, 0.5)):
    sig, dens0 = _interior_conditional(model, probe[0], probe[1])
    lower = np.array([u, u, -np.inf, -np.inf])
    mom = gauss.truncated_moment(sig[0], lower, (0, 0, 1, 1))
    ref = float(dens0[0]) * mom.value
    gap = abs(ref - value_at_probe)
    if gap > DEFAULT_TOL.moment_consistency_tol:
        raise ConsistencyError(
            "interior integrand disagrees with the dual-route moment evaluator "
            f"at (t,s)={probe}: {value_at_probe:.9e} vs {ref:.9e}",
            value_a=value_at_probe,
            value_b=ref,
        )


# ---------------------------------------------------------------------------
# face-pair integrals

def _ridge_integral(model, u, rel_tol, max_evals):
    """Interior x interior integral for a diagonal-ridge model: rotate to
    w = t-s, z = t+s and nest adaptive rules, anisotropically in w."""
    evals = 0
    inner_errs: list[float] = []

    def outer_f(warr):
        nonlocal evals
        out = np.empty_like(warr)
        for i, w in enumerate(warr):
            z0, z1 = abs(w), 2.0 - abs(w)
            if z1 - z0 <= 0.0:
                out[i] = 0.0
                continue
            res = quadrature.integrate_1d(
                lambda z: interior_interior_integrand(
                    model, (z + w) / 2.0, (z - w) / 2.0, u
                ),
                z0,
                z1,
                rel_tol=rel_tol * 0.1,
                abs_tol=0.0,
                max_evals=100_000,
            )
            evals += res.n_evals
            inner_errs.append(res.error)
            out[i] = res.value
        return out

    halves = []
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        res = quadrature.integrate_1d(
            outer_f, lo, hi, rel_tol=rel_tol, abs_tol=0.0, max_evals=4000
        )
        halves.append(res)
    value = 0.5 * (halves[0].value + halves[1].value)
    err = 0.5 * (halves[0].error + halves[1].error)
    if inner_errs:
        err += float(np.mean(inner_errs))  # inner rules run 10x tighter
    converged = halves[0].converged and halves[1].converged and evals <= max_evals
    return value, err, evals, converged


def face_pair_integral(
    model: model_mod.BivariateModel,
    face_x: str,
    face_y: str,
    u: float,
    constrain_x: bool = True,
    constrain_y: bool = True,
    ridge: bool = False,
    rel_tol: float | None = None,
    max_evals: int | None = None,
    spot_check: bool = True,
) -> FacePairTerm:
    """One term of the face-pair sum, with its sign (-1)^(k+l)."""
    if rel_tol is None:
        rel_tol = DEFAULT_TOL.quad_rel_tol
    if max_evals is None:
        max_evals = DEFAULT_TOL.quad_max_evals
    k = int(face_x == "Interior") + int(face_y == "Interior")
    sign = (-1) ** k

    if k == 0:
        est = corner_corner_term(
            model, _POINT[face_x], _POINT[face_y], u, constrain_x, constrain_y
        )
        return FacePairTerm(face_x, face_y, sign, est)

    if k == 1:
        if face_x == "Interior":
            work, s0, constrain = model, _POINT[face_y], constrain_y
        else:
            # Y varies: swap the processes and integrate the same form
            work, s0, constrain = model_mod.transpose(model), _POINT[face_x], constrain_x
        res = quadrature.integrate_1d(
            lambda t: edge_point_integrand(work, t, s0, u, constrain),
            0.0,
            1.0,
            rel_tol=rel_tol,
            abs_tol=0.0,
            max_evals=max_evals,
        )
        if not res.converged:
            raise AccuracyError(
                f"face pair ({face_x},{face_y}) quadrature did not converge",
                best_value=res.value,
                achieved_error=res.error,
            )
        if spot_check:
            probe = edge_point_integrand(work, 0.5, s0, u, constrain)
            _spot_check_edge(work, s0, u, constrain, probe)
        est = Estimate(res.value, res.error, res.n_evals, QUADRATURE)
        return FacePairTerm(face_x, face_y, sign, est)

    if ridge:
        value, err, evals, converged = _ridge_integral(model, u, rel_tol, max_evals)
    else:
        res = quadrature.integrate_nd(
            lambda p: interior_interior_integrand(model, p[:, 0], p[:, 1], u),
            np.zeros(2),
            np.ones(2),
            rel_tol=rel_tol,
            abs_tol=0.0,
            max_evals=max_evals,
        )
        value, err, evals, converged = res.value, res.error, res.n_evals, res.converged
    if not converged:
        raise AccuracyError(
            "interior x interior quadrature did not converge",
            best_value=value,
            achieved_error=err,
        )
    if spot_check:
        probe = interior_interior_integrand(model, 0.5, 0.5, u)
        _spot_check_interior(model, u, probe)
    est = Estimate(value, err, evals, QUADRATURE)
    return FacePairTerm(face_x, face_y, sign, est)


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
    rel_tol: float | None = None,
    max_evals: int | None = None,
    threads: int | None = None,
) -> EecResult:
    """Sum the face-pair terms; exposes the per-term breakdown.

    threads=None reads EEC_THREADS from the environment (default 1);
    term results are assembled in a fixed order either way."""
    classification = asymptotics.classify(model)
    ridge = classification.tag == "DiagonalLine"
    if restricted:
        pairs, x_flat, y_flat = _restricted_pairs(
            model, classification, DEFAULT_TOL.gradient_tol
        )
        constrain_x, constrain_y = x_flat, y_flat
    else:
        pairs = list(_PAIR_ORDER)
        constrain_x = constrain_y = True

    def run(pair):
        fx, fy = pair
        return face_pair_integral(
            model,
            fx,
            fy,
            u,
            constrain_x=constrain_x,
            constrain_y=constrain_y,
            ridge=ridge,
            rel_tol=rel_tol,
            max_evals=max_evals,
        )

    if threads is None:
        threads = int(os.environ.get("EEC_THREADS", "1") or "1")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            terms = tuple(pool.map(run, pairs))
    else:
        terms = tuple(run(p) for p in pairs)

    total = sum(t.sign * t.value.value for t in terms)
    err = math.hypot(*(t.value.error for t in terms))  # no underflow of tiny errors
    n = sum(t.value.n for t in terms)
    low_conf = any(t.value.error > 1e-4 * abs(total) for t in terms)
    return EecResult(
        total=Estimate(total, err, n, QUADRATURE, low_confidence=low_conf),
        terms=terms,
        u=u,
    )
