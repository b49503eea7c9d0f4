"""Maximizer classification and closed-form leading-order asymptotics.

The joint excursion probability of a smooth bivariate pair decays like
exp(-u^2/(1+R)) where R is the maximum of the cross correlation r(t,s)
over the square.  The polynomial prefactor depends on where that maximum
sits (corner, edge, interior, or the whole diagonal) and on which
directional derivatives of r vanish there.  This module locates the
maximizer set, reads off the local geometry, and assembles the
closed-form coefficient for each regime via the Laplace method.

Orientation convention: the case formulas below are written for the
canonical orientation in which the distinguished direction is t (for an
edge point, s sits on the boundary; for the semidegenerate corner, r1 is
the vanishing partial).  When a model realizes the mirrored picture the
classification carries ``swapped=True`` and stores the geometry with the
roles of t and s already exchanged, so the formulas apply verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import (
    DEFAULT_TOL,
    ArgumentError,
    RegimeError,
)
from . import gauss
from . import model as model_mod

__all__ = [
    "LocalGeometry",
    "CaseClassification",
    "AsymptoticTerm",
    "local_geometry",
    "classify",
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

    def swapped(self) -> "LocalGeometry":
        """The same geometry with the roles of t and s exchanged."""
        return LocalGeometry(
            lambda1=self.lambda2,
            lambda2=self.lambda1,
            r=self.r,
            r1=self.r2,
            r2=self.r1,
            r11=self.r22,
            r22=self.r11,
            r12=self.r12,
        )


@dataclass(frozen=True)
class CaseClassification:
    """Which asymptotic regime the maximizer set of r falls into.

    geometry is stored in canonical orientation (see module docstring);
    maximizers are in the model's own coordinates.  notes explains a
    GeneralFallback when one was chosen over an exception.
    """

    tag: str
    maximizers: tuple[tuple[float, float], ...]
    R: float
    geometry: LocalGeometry
    swapped: bool = False
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


def _refine(model: model_mod.BivariateModel, t: float, s: float, step_floor: float):
    """Projected ascent on r from (t,s), Newton steps with backtracking."""
    x = np.array([t, s], dtype=float)
    for _ in range(50):
        r, r1, r2, r11, r22, r12 = model.cross.partials(x[0], x[1], _JET)
        val = float(r)
        g, hess = np.array([r1, r2]), np.array([[r11, r12], [r12, r22]])
        # Active box constraints: gradient pushing outward pins the coordinate.
        free = []
        for j in range(2):
            lo_pinned = x[j] <= 0.0 and g[j] < 0.0
            hi_pinned = x[j] >= 1.0 and g[j] > 0.0
            if not (lo_pinned or hi_pinned):
                free.append(j)
        if not free:
            break
        gf = g[free]
        step = np.zeros(2)
        newton = None
        try:
            cand = np.linalg.solve(-hess[np.ix_(free, free)], gf)
            if np.all(np.isfinite(cand)) and float(cand @ gf) > 0.0:
                newton = cand
        except np.linalg.LinAlgError:
            newton = None
        step[free] = newton if newton is not None else gf
        norm = float(np.linalg.norm(step))
        if norm > 0.25:
            step *= 0.25 / norm
        alpha = 1.0
        moved = False
        for _ in range(30):
            trial = np.clip(x + alpha * step, 0.0, 1.0)
            tval = float(model_mod.cross_eval(model, trial[0], trial[1], 0, 0))
            if tval >= val:
                if float(np.linalg.norm(trial - x)) < step_floor:
                    return trial, tval
                x, val = trial, tval
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break
    return x, val


def classify(model: model_mod.BivariateModel) -> CaseClassification:
    """Locate the global maximizers of r and match an asymptotic regime.

    Grid scan on a 101x101 lattice, cluster of near-maximal cells, local
    projected-Newton refinement, then a merge of coincident points.  A
    one-dimensional maximizer set is accepted only when it is the full
    diagonal {t = s}; any other shape drops to GeneralFallback with a
    note rather than an exception.
    """
    ax = np.linspace(0.0, 1.0, _GRID_N)
    tt, ss = np.meshgrid(ax, ax, indexing="ij")
    vals = model_mod.cross_eval(model, tt, ss, 0, 0)
    vmax = float(vals.max())
    mask = vals >= vmax - DEFAULT_TOL.cluster_tol
    starts = np.column_stack([tt[mask], ss[mask]])

    refined = []
    for t0, s0 in starts:
        pt, val = _refine(model, float(t0), float(s0), DEFAULT_TOL.newton_step_floor)
        refined.append((float(pt[0]), float(pt[1]), val))
    big_r = max(v for _, _, v in refined)
    keep = [(t, s) for t, s, v in refined if v >= big_r - DEFAULT_TOL.cluster_tol]

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

    notes: tuple[str, ...] = ()
    if len(maximizers) >= _DIAG_MIN_POINTS:
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
            rep = maximizers[len(maximizers) // 2]
            return CaseClassification(
                tag="DiagonalLine",
                maximizers=maximizers,
                R=big_r,
                geometry=local_geometry(model, rep[0], rep[1]),
            )
        if on_line:
            notes = (
                "one-dimensional maximizer set along t-s=%.6g does not span the diagonal"
                % float(w.mean()),
            )
        else:
            notes = ("one-dimensional maximizer set not parallel to the diagonal",)
        rep = maximizers[len(maximizers) // 2]
        return CaseClassification(
            tag="GeneralFallback",
            maximizers=maximizers,
            R=big_r,
            geometry=local_geometry(model, rep[0], rep[1]),
            notes=notes,
        )

    if len(maximizers) > 1:
        rep = maximizers[0]
        return CaseClassification(
            tag="GeneralFallback",
            maximizers=maximizers,
            R=big_r,
            geometry=local_geometry(model, rep[0], rep[1]),
            notes=("multiple isolated maximizers (%d)" % len(maximizers),),
        )

    t_star, s_star = maximizers[0]
    geo = local_geometry(model, t_star, s_star)
    t_bnd = t_star <= 1e-9 or t_star >= 1.0 - 1e-9
    s_bnd = s_star <= 1e-9 or s_star >= 1.0 - 1e-9
    r1_zero = abs(geo.r1) < DEFAULT_TOL.gradient_tol
    r2_zero = abs(geo.r2) < DEFAULT_TOL.gradient_tol

    if t_bnd and s_bnd:
        if r1_zero and r2_zero:
            tag, swapped = "Corner_BothZero", False
        elif r1_zero:
            tag, swapped = "Corner_r1Zero", False
        elif r2_zero:
            tag, swapped = "Corner_r1Zero", True
        else:
            tag, swapped = "Corner_r1r2Nonzero", False
    elif t_bnd or s_bnd:
        swapped = t_bnd  # canonical orientation has s on the boundary
        normal_zero = r1_zero if t_bnd else r2_zero
        tag = "EdgePoint_r2Zero" if normal_zero else "EdgePoint_r2Nonzero"
    else:
        tag, swapped = "UniqueInterior", False

    return CaseClassification(
        tag=tag,
        maximizers=maximizers,
        R=big_r,
        geometry=geo.swapped() if swapped else geo,
        swapped=swapped,
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


def closed_form(
    model: model_mod.BivariateModel,
    classification: CaseClassification,
    u: float,
) -> AsymptoticTerm:
    """Assemble the leading-order coefficient for a classified regime."""
    tag = classification.tag
    if tag == "GeneralFallback":
        raise ArgumentError("no closed form for GeneralFallback; use the numeric sum")
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
        p_deriv = gauss.mvn_cdf(deriv_cov, np.zeros(2)).value
        hess = h_hessian_corner(geo, big_r, orient)
        if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
            raise RegimeError("Hessian of h at the corner is not positive definite")
        p_hess = gauss.mvn_cdf(hess, np.zeros(2)).value
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

