"""Maximizer classification and closed-form leading-order asymptotics.

The joint excursion probability of a smooth bivariate pair decays like
exp(-u^2/(1+R)) where R is the maximum of the cross correlation r(t,s)
over the square.  The polynomial prefactor depends on where that maximum
sits (corner, edge, interior, or the whole diagonal) and on which
directional derivatives of r vanish there.  This module locates the
maximizer set, reads off the local geometry, and assembles the
closed-form coefficient for each regime via the Laplace method;
validate_model checks a model's covariances and its maximizers' curvature.
Every read of r takes a whole batch in one cross-form call: classify's
lattice scan broadcasts over the two axes, its refinement steps all
near-maximal cells in lockstep (_refine), and validate_model reads every
maximizer's partials at once, so a ridge of 101 cells or the 10,201 cells
of r = 0 cost a few calls, not two per cell.
The coefficients are algebra (a corner's orthant probabilities by
Sheppard's formula): no kernel of the face-pair sum runs here.

Orientation convention: the case formulas below are written for the
canonical orientation in which the distinguished direction is t (for an
edge point, s sits on the boundary; for the semidegenerate corner, r1 is
the vanishing partial).  When a model realizes the mirrored picture,
classify stores the geometry of the transposed model at (s*, t*), in
which the roles of t and s are exchanged, so the formulas apply
verbatim; the maximizers keep the model's own coordinates.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .common import (
    DEFAULT_TOL,
    ArgumentError,
    RegimeError,
)
from . import model as model_mod

__all__ = [
    "LocalGeometry",
    "CaseClassification",
    "AsymptoticTerm",
    "local_geometry",
    "classify",
    "validate_model",
    "ValidationReport",
    "closed_form",
    "CASE_TAGS",
]

CASE_TAGS = (
    "Corner_r1r2Nonzero",
    "Corner_r1Zero",
    "Corner_BothZero",
    "EdgePoint_r2Nonzero",
    "EdgePoint_r2Zero",
    "UniqueInterior",
    "DiagonalLine",
    "GeneralFallback",
)

_GRID_N = 101
_JET = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))  # r, gradient, Hessian
_DIAG_MIN_POINTS = 10
_DIAG_SPAN_SLACK = 0.02
_DIAG_GAP_MAX = 0.05
_LINE_TOL = 1e-6


@dataclass(frozen=True)
class LocalGeometry:
    """Derivative data of the cross correlation at one point (t,s).

    lambda1 and lambda2 are the marginal derivative variances Var(X'(t))
    and Var(Y'(s)); r and its partials are evaluated at (t,s).
    """

    lambda1: float
    lambda2: float
    r: float
    r1: float
    r2: float
    r11: float
    r22: float
    r12: float

    def __post_init__(self) -> None:
        if not (self.lambda1 > 0.0 and self.lambda2 > 0.0):
            raise ArgumentError("derivative variances must be positive")
        if not abs(self.r) < 1.0 + 1e-12:
            raise ArgumentError("cross correlation out of range: %r" % (self.r,))


@dataclass(frozen=True)
class CaseClassification:
    """Which asymptotic regime the maximizer set of r falls into.

    geometry is stored in canonical orientation: where the model realizes
    the mirrored picture it is the geometry of the transposed model at
    (s*, t*) (see module docstring); maximizers are in the model's own
    coordinates.  notes
    explains a GeneralFallback when one was chosen over an exception.
    """

    tag: str
    maximizers: tuple[tuple[float, float], ...]
    R: float
    geometry: LocalGeometry
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tag not in CASE_TAGS:
            raise ArgumentError("unknown case tag %r" % (self.tag,))
        if not self.maximizers:
            raise ArgumentError("classification needs at least one maximizer")


@dataclass(frozen=True)
class AsymptoticTerm:
    """Leading-order expression A * u^(-p) * exp(-u^2/rate), rate = 1+R."""

    coefficient: float
    power: int
    rate: float

    def __post_init__(self) -> None:
        if not self.coefficient > 0.0:
            raise ArgumentError("coefficient must be positive")
        if self.power not in (1, 2):
            raise ArgumentError("power must be 1 or 2")
        if not (1.0 < self.rate < 2.0):
            raise ArgumentError("rate must lie in (1, 2)")

    def evaluate(self, u: float) -> float:
        return self.coefficient * u ** (-self.power) * math.exp(-u * u / self.rate)


def local_geometry(model: model_mod.BivariateModel, t: float, s: float) -> LocalGeometry:
    """All eight local quantities from the model's closed forms."""
    r, r1, r2, r11, r22, r12 = model.cross.partials(t, s, _JET)
    return LocalGeometry(
        lambda1=model.lambda1,
        lambda2=model.lambda2,
        r=float(r),
        r1=float(r1),
        r2=float(r2),
        r11=float(r11),
        r22=float(r22),
        r12=float(r12),
    )


def _endpoints(x: float) -> tuple[float, ...]:
    """The endpoints of [0, 1] that a maximizer coordinate x sits on, to
    within 1e-9: the faces of the interval whose closure holds it."""
    return (0.0,) * (x <= 1e-9) + (1.0,) * (x >= 1.0 - 1e-9)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b, each one
    BLAS dot as a @ b makes for two vectors: a sum of elementwise products
    can round differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ascent(neg_hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Each row's Newton step solve(neg_hess, grad), or grad itself where
    that matrix is singular or the step is not finite or not an ascent
    direction.  One stacked solve; where it meets a singular matrix, the
    rows are solved one at a time."""
    try:
        cand = np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        cand = np.full_like(grad, np.nan)
        for i, (h, g) in enumerate(zip(neg_hess, grad)):
            with contextlib.suppress(np.linalg.LinAlgError):
                cand[i] = np.linalg.solve(h, g)
    ok = np.isfinite(cand).all(axis=1) & (_rowdot(cand, grad) > 0.0)
    return np.where(ok[:, None], cand, grad)


def _refine(model: model_mod.BivariateModel, starts, step_floor: float):
    """Projected ascent on r from each start (t, s), Newton steps with
    backtracking, every start in lockstep: each Newton step is one partials
    call over the points still moving, each halving of the step one
    cross_eval call over those still searching.  Returns the points (m, 2)
    and their values of r.

    Each point keeps its own free set, step and stopping rule, and nothing
    it computes reads another point, so each ends where it would alone.  A
    step is Newton's on the free coordinates (_ascent), capped at length
    0.25, then halved up to 30 times until r does not drop; a point stops
    when every coordinate is pinned, when no halving helps, when the step
    taken is shorter than step_floor, or after 50 steps."""
    x = np.array(starts, dtype=float).reshape(-1, 2)
    val = np.empty(len(x))
    live = np.arange(len(x))
    for _ in range(50):
        if not live.size:
            break
        xl = x[live]
        jet = np.array(model.cross.partials(xl[:, 0], xl[:, 1], _JET))
        val[live], g = jet[0], jet[1:3].T
        # Active box constraints: gradient pushing outward pins the coordinate.
        free = ~(((xl <= 0.0) & (g < 0.0)) | ((xl >= 1.0) & (g > 0.0)))
        # a point with every coordinate pinned stops where it is
        search = np.flatnonzero(free.any(axis=1))
        step = np.zeros_like(xl)
        # one stacked Newton solve per free set; a zero gradient on the free
        # coordinates is a zero step
        newton = (free & (g != 0.0)).any(axis=1)
        if newton.any():
            hess = jet[[3, 5, 5, 4]].T.reshape(-1, 2, 2)  # [[r11, r12], [r12, r22]]
            for pattern in ((True, True), (True, False), (False, True)):
                rows = np.flatnonzero(newton & (free == pattern).all(axis=1))
                if rows.size:
                    cols = np.flatnonzero(pattern)
                    step[np.ix_(rows, cols)] = _ascent(-hess[np.ix_(rows, cols, cols)],
                                                       g[np.ix_(rows, cols)])
            norm = np.sqrt(_rowdot(step, step))
            long = norm > 0.25
            step[long] *= (0.25 / norm[long])[:, None]
        moved = np.zeros(len(live), dtype=bool)
        alpha = 1.0
        for _ in range(30):
            if not search.size:
                break
            trial = np.clip(xl[search] + alpha * step[search], 0.0, 1.0)
            tval = model_mod.cross_eval(model, trial[:, 0], trial[:, 1], 0, 0)
            up = tval >= val[live[search]]
            done = search[up]
            x[live[done]], val[live[done]] = trial[up], tval[up]
            shift = trial[up] - xl[done]
            # an accepted step shorter than the floor ends the point there
            moved[done] = ~(np.sqrt(_rowdot(shift, shift)) < step_floor)
            search = search[~up]
            alpha *= 0.5
        live = live[moved]
    return x, val


def classify(model: model_mod.BivariateModel) -> CaseClassification:
    """Locate the global maximizers of r and match an asymptotic regime.

    Grid scan on a 101x101 lattice (one broadcast call, 2 x 101 kernel
    evaluations for a point anchor), cluster of near-maximal cells, local
    projected-Newton refinement of all of them in lockstep (_refine: each
    cell ends where it would alone), then a merge of coincident points.  A
    one-dimensional maximizer set is accepted only when it is the full
    diagonal {t = s}; any other shape drops to GeneralFallback with a
    note rather than an exception.
    """
    ax = np.linspace(0.0, 1.0, _GRID_N)
    vals = model_mod.cross_eval(model, ax[:, None], ax[None, :], 0, 0)
    vmax = float(vals.max())
    i, j = np.divmod(np.flatnonzero(vals >= vmax - DEFAULT_TOL.cluster_tol), _GRID_N)
    points, values = _refine(model, np.column_stack([ax[i], ax[j]]),
                             DEFAULT_TOL.newton_step_floor)
    big_r = float(values.max())
    keep = [(t, s) for (t, s), v in zip(points.tolist(), values.tolist())
            if v >= big_r - DEFAULT_TOL.cluster_tol]

    # greedy merge in sorted order, each point against the kept points of
    # its own and the 8 neighbouring cells of a grid 2 merge_tol wide: a
    # point within merge_tol of a kept one lies there, rounding included
    tol = DEFAULT_TOL.merge_tol
    merged: list[tuple[float, float]] = []
    cells: dict[tuple[int, int], list] = {}
    for t, s in sorted(keep):
        i, j = math.floor(t / (2.0 * tol)), math.floor(s / (2.0 * tol))
        near = [p for di in (-1, 0, 1) for dj in (-1, 0, 1)
                for p in cells.get((i + di, j + dj), ())]
        if any(math.hypot(t - t2, s - s2) < tol for t2, s2 in near):
            continue
        merged.append((t, s))
        cells.setdefault((i, j), []).append((t, s))
    maximizers = tuple(merged)

    if len(maximizers) > 1:
        # a ridge is represented by its middle point, isolated maximizers
        # by the first of them
        tag = "GeneralFallback"
        if len(maximizers) < _DIAG_MIN_POINTS:
            rep = maximizers[0]
            notes = ("multiple isolated maximizers (%d)" % len(maximizers),)
        else:
            rep = maximizers[len(maximizers) // 2]
            w = np.array([t - s for t, s in maximizers])
            tvals = np.array(sorted(t for t, _ in maximizers))
            gaps = np.diff(tvals)
            on_line = float(np.ptp(w)) <= _LINE_TOL
            if (
                on_line
                and abs(float(w.mean())) <= 1e-9
                and tvals[0] <= _DIAG_SPAN_SLACK
                and tvals[-1] >= 1.0 - _DIAG_SPAN_SLACK
                and (gaps.size == 0 or float(gaps.max()) <= _DIAG_GAP_MAX)
            ):
                tag, notes = "DiagonalLine", ()
            elif on_line:
                notes = ("one-dimensional maximizer set along t-s=%.6g does not span "
                         "the diagonal" % float(w.mean()),)
            else:
                notes = ("one-dimensional maximizer set not parallel to the diagonal",)
        return CaseClassification(tag=tag, maximizers=maximizers, R=big_r,
                                  geometry=local_geometry(model, *rep), notes=notes)

    t_star, s_star = maximizers[0]
    geo = local_geometry(model, t_star, s_star)
    t_bnd, s_bnd = bool(_endpoints(t_star)), bool(_endpoints(s_star))
    r1_zero = abs(geo.r1) < DEFAULT_TOL.gradient_tol
    r2_zero = abs(geo.r2) < DEFAULT_TOL.gradient_tol

    # canonical orientation: a corner's vanishing partial is r1, an edge
    # point's s sits on the boundary
    swap = False
    if t_bnd and s_bnd:
        tag = ("Corner_r1r2Nonzero", "Corner_r1Zero", "Corner_BothZero")[r1_zero + r2_zero]
        swap = r2_zero and not r1_zero
    elif t_bnd or s_bnd:
        swap = t_bnd
        normal_zero = r1_zero if t_bnd else r2_zero
        tag = "EdgePoint_r2Zero" if normal_zero else "EdgePoint_r2Nonzero"
    else:
        tag = "UniqueInterior"
    if swap:
        geo = local_geometry(model_mod.transpose(model), s_star, t_star)
    return CaseClassification(tag=tag, maximizers=maximizers, R=big_r, geometry=geo)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationReport:
    psd_ok: bool
    min_eigenvalue: float
    unit_variance_max_err: float
    h3_ok: bool
    h3_worst_eigenvalue: float
    maximizer_count: int
    notes: tuple[str, ...]


_VALIDATE_GRID_N = 64  # grid of the PSD and unit-variance checks


def validate_model(model: model_mod.BivariateModel) -> ValidationReport:
    """Check positive semi-definiteness on a 64-point grid, unit variances, and
    concavity of r at its maximizers in the directions where its
    gradient vanishes.

    PSD is judged from eigenvalues, not a triangular factorization:
    smooth stationary kernels give grid covariances that are numerically
    rank deficient, and pivoted LDL^T turns that null space into pivot
    noise orders of magnitude above the true smallest eigenvalue."""
    notes: list[str] = []
    grid = np.linspace(0.0, 1.0, _VALIDATE_GRID_N)
    joint = model_mod.joint_cov(model, [("X", grid, 0), ("Y", grid, 0)])
    min_eig = float(np.linalg.eigvalsh(joint)[0])
    psd_ok = min_eig > DEFAULT_TOL.model_psd_floor
    if not psd_ok:
        notes.append(f"joint covariance is indefinite: min eigenvalue {min_eig:.3e}")

    n = _VALIDATE_GRID_N
    for tag, block in (("X", joint[:n, :n]), ("Y", joint[n:, n:])):
        block_min = float(np.linalg.eigvalsh(block)[0])
        if block_min <= DEFAULT_TOL.model_psd_floor:
            notes.append(
                f"{tag} marginal covariance is indefinite on the grid"
                f" (min eigenvalue {block_min:.3e})"
            )

    unit_err = float(np.max(np.abs(np.diag(joint) - 1.0)))

    cls = classify(model)
    # the local geometry of every maximizer from one evaluation of r
    t, s = np.array(cls.maximizers).T
    _, r1, r2, r11, r22, _ = model.cross.partials(t, s, _JET)
    h3_vals = np.concatenate([r11[np.abs(r1) < DEFAULT_TOL.gradient_tol],
                              r22[np.abs(r2) < DEFAULT_TOL.gradient_tol]])
    if h3_vals.size:
        worst = float(h3_vals.max())
        h3_ok = worst <= 1e-8
    else:
        worst = 0.0
        h3_ok = True
        notes.append("no vanishing-gradient directions at any maximizer; "
                     "second-order condition holds vacuously")
    if cls.tag == "DiagonalLine":
        notes.append("maximizer set is the full diagonal segment")

    return ValidationReport(
        psd_ok=psd_ok,
        min_eigenvalue=min_eig,
        unit_variance_max_err=unit_err,
        h3_ok=h3_ok,
        h3_worst_eigenvalue=worst,
        maximizer_count=len(cls.maximizers),
        notes=tuple(notes),
    )


def _require(value: float, name: str) -> float:
    if not value > 0.0:
        raise RegimeError("%s must be positive, got %.6g" % (name, value))
    return value


def _corner_signs(t_star: float, s_star: float) -> float:
    st = 1.0 if t_star <= 0.5 else -1.0
    ss = 1.0 if s_star <= 0.5 else -1.0
    return st * ss


def h_hessian_corner(geo: LocalGeometry, R: float, orient: float = 1.0) -> np.ndarray:
    """Hessian of h at a fully degenerate corner, in inward coordinates.

    orient flips the mixed entry for corners other than the lower-left
    one; the diagonal entries are reflection invariant.
    """
    l1, l2 = geo.lambda1, geo.lambda2
    r11, r22 = geo.r11, geo.r22
    r12 = orient * geo.r12
    dd = l1 * l2 - r12 ** 2
    pref = 1.0 / ((1.0 + R) ** 2 * dd)
    h11 = (l1 - r11) * (r12 ** 2 - l2 * r11)
    h22 = (l2 - r22) * (r12 ** 2 - l1 * r22)
    h12 = r12 * (l1 - r11) * (r22 - l2)
    return pref * np.array([[h11, h12], [h12, h22]])


def _orthant(cov: np.ndarray) -> float:
    """P(X <= 0, Y <= 0) for a centred normal pair, by Sheppard's formula."""
    return 0.25 + math.asin(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])) / (2.0 * math.pi)


def closed_form(
    model: model_mod.BivariateModel,
    classification: CaseClassification,
    u: float,
) -> AsymptoticTerm:
    """Assemble the leading-order coefficient for a classified regime.

    Neither model nor u is read: the classification carries the geometry,
    and the term holds for every level (AsymptoticTerm.evaluate)."""
    tag = classification.tag
    if tag == "GeneralFallback":
        raise RegimeError("no closed form for GeneralFallback; use the numeric sum")
    geo = classification.geometry
    big_r = classification.R
    if big_r <= 0.0:
        raise RegimeError("closed forms need R > 0, got %.6g" % big_r)
    if big_r >= 1.0:
        raise RegimeError("R must stay below 1, got %.6g" % big_r)

    if tag == "DiagonalLine":
        rho2 = geo.r22  # d^2/ds^2 of the scaled cross correlation on the diagonal
        _require(-rho2, "-rho''(0)")
        arg = (
            (geo.lambda1 - rho2)
            * (geo.lambda2 - rho2)
            * (1.0 + big_r)
            / (-rho2 * (1.0 - big_r))
        )
        coeff = (2.0 * math.pi) ** -1.5 * math.sqrt(arg)
        return AsymptoticTerm(coefficient=coeff, power=1, rate=1.0 + big_r)

    base = (1.0 + big_r) ** 2 / (2.0 * math.pi * math.sqrt(1.0 - big_r ** 2))
    l1, l2 = geo.lambda1, geo.lambda2
    r11, r22, r12 = geo.r11, geo.r22, geo.r12

    if tag == "Corner_r1r2Nonzero":
        factor = 1.0
    elif tag == "Corner_r1Zero":
        factor = 0.5 + math.sqrt(l1 - r11) / (2.0 * math.sqrt(_require(-r11, "-R11")))
    elif tag == "Corner_BothZero":
        det2 = _require(r11 * r22 - r12 ** 2, "R11*R22 - R12^2")
        _require(-r11, "-R11")
        _require(-r22, "-R22")
        orient = _corner_signs(*classification.maximizers[0])
        deriv_cov = np.array([[l1, orient * r12], [orient * r12, l2]])
        p_deriv = _orthant(deriv_cov)
        hess = h_hessian_corner(geo, big_r, orient)
        if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
            raise RegimeError("Hessian of h at the corner is not positive definite")
        p_hess = _orthant(hess)
        factor = (
            p_deriv
            + math.sqrt(l1 - r11) / (2.0 * math.sqrt(-r11))
            + math.sqrt(l2 - r22) / (2.0 * math.sqrt(-r22))
            + p_hess * math.sqrt((l1 - r11) * (l2 - r22)) / math.sqrt(det2)
        )
    elif tag == "EdgePoint_r2Nonzero":
        factor = math.sqrt(l1 - r11) / math.sqrt(_require(-r11, "-R11"))
    elif tag == "EdgePoint_r2Zero":
        det2 = _require(r11 * r22 - r12 ** 2, "R11*R22 - R12^2")
        factor = math.sqrt(l1 - r11) / math.sqrt(_require(-r11, "-R11")) + math.sqrt(
            (l1 - r11) * (l2 - r22)
        ) / (2.0 * math.sqrt(det2))
    elif tag == "UniqueInterior":
        det2 = _require(r11 * r22 - r12 ** 2, "R11*R22 - R12^2")
        _require(-r11, "-R11")
        _require(-r22, "-R22")
        factor = math.sqrt((l1 - r11) * (l2 - r22)) / math.sqrt(det2)
    else:
        raise ArgumentError("unhandled tag %r" % (tag,))

    return AsymptoticTerm(coefficient=factor * base, power=2, rate=1.0 + big_r)

