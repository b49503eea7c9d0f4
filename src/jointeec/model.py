"""Bivariate Gaussian process models on [0,1] with analytic derivatives.

A model is a pair of unit-variance stationary marginal kernels plus a
cross-correlation surface r(t,s) = E{X(t)Y(s)}.  Everything downstream
needs covariances of (X, Y) and their first two derivatives, and each
component supplies them through one method: a kernel family implements
`derivs`, the closed-form jet [C, C', ..., C^(top)] up to order four
from one evaluation of its transcendental factor, and a cross form
implements `partials`, any set of partials of r with total order up to
four from one evaluation of its kernels.  `joint_cov` builds every
covariance from these two, and `BivariateModel` reads its spectral
moments from them once.  No finite differences anywhere in the
computational path; they appear only in tests as an independent check.

Supported cross forms:

* ShiftMixture: Y(s) = c*X(s+d) + sqrt(1-c^2)*Z(s) with Z an
  independent process with the same kernel, giving r(t,s) = c*C(t-s-d).
* PointAnchor: Y is coupled to X through the single value X(t*),
  Y(s) = a(s)*X(t*) + orthogonal remainder with a(s) = c*C_Y(s-s*), so
  r(t,s) = c * C_X(t-t*) * C_Y(s-s*).  The anchor points may lie outside
  [0,1]; that only moves where r peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import ArgumentError, DEFAULT_TOL


# ---------------------------------------------------------------------------
# kernels

def _check_order(top: int):
    if top not in (0, 1, 2, 3, 4):
        raise ArgumentError(f"derivative order must be 0..4, got {top}")


@dataclass(frozen=True)
class Kernel:
    """Base class: stationary correlation function C with C(0)=1."""

    def derivs(self, lag, top: int):
        """[C, C', ..., C^(top)] at lag, from one evaluation of C's
        transcendental factor; broadcasts over arrays."""
        raise NotImplementedError


# C^(k) / C for the squared exponential, as polynomials in (tau, ell^2).
# Powers of tau are products, not numpy's power, so that the odd ones are
# exactly odd in tau and the even ones exactly even.
_SQEXP_POLYS = (
    lambda tau, ell2: 1.0,
    lambda tau, ell2: -tau / ell2,
    lambda tau, ell2: tau * tau / ell2 ** 2 - 1.0 / ell2,
    lambda tau, ell2: 3.0 * tau / ell2 ** 2 - tau * tau * tau / ell2 ** 3,
    lambda tau, ell2: (3.0 / ell2 ** 2 - 6.0 * tau * tau / ell2 ** 3
                       + (tau * tau) * (tau * tau) / ell2 ** 4),
)


@dataclass(frozen=True)
class SquaredExponential(Kernel):
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.scale < np.inf:
            raise ArgumentError(f"scale must be positive and finite, got {self.scale!r}")

    def derivs(self, lag, top: int):
        _check_order(top)
        tau = np.asarray(lag, dtype=float)
        ell2 = self.scale * self.scale
        c = np.exp(-0.5 * tau * tau / ell2)
        return [poly(tau, ell2) * c for poly in _SQEXP_POLYS[:top + 1]]


@dataclass(frozen=True)
class CosineMixture(Kernel):
    """C(tau) = sum_i w_i cos(omega_i tau); spectral atoms at +-omega_i."""

    weights: tuple[float, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        om = np.asarray(self.frequencies, dtype=float)
        if w.size != om.size or w.size == 0:
            raise ArgumentError("weights and frequencies must have equal nonzero length")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(om)):
            raise ArgumentError("weights and frequencies must be finite")
        if np.any(w <= 0):
            raise ArgumentError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ArgumentError("weights must sum to 1")
        if float(w @ (om * om)) <= 0:
            raise ArgumentError("second spectral moment must be positive (some frequency nonzero)")

    def derivs(self, lag, top: int):
        _check_order(top)
        tau = np.asarray(lag, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        om = np.asarray(self.frequencies, dtype=float)
        arg = np.multiply.outer(tau, om)
        cos, sin = np.cos(arg), np.sin(arg)
        # d^k/dtau^k cos(om*tau) = om^k * cos(om*tau + k*pi/2): cos, -sin, -cos, sin
        out = []
        for k in range(top + 1):
            vals = (cos if k % 2 == 0 else sin) @ (w * om ** k)
            if k % 4 in (1, 2):
                vals = -vals
            out.append(vals if vals.shape else float(vals))
        return out


# ---------------------------------------------------------------------------
# cross-correlation forms

def _check_orders(orders):
    if any(a < 0 or b < 0 or a + b > 4 for a, b in orders):
        raise ArgumentError("total cross-derivative order must be 0..4")


@dataclass(frozen=True)
class CrossCorrelation:
    def partials(self, t, s, orders):
        """[d^a/dt^a d^b/ds^b r at (t, s) for (a, b) in orders], from one
        evaluation of the kernels; broadcasts over arrays."""
        raise NotImplementedError


@dataclass(frozen=True)
class ShiftMixture(CrossCorrelation):
    c: float
    d: float
    base: Kernel

    def __post_init__(self):
        # c = 0 (independent fields) is allowed; c = 1 would make the joint
        # law degenerate and is not.
        if not (0.0 <= self.c < 1.0):
            raise ArgumentError("mixture coefficient c must lie in [0, 1)")
        if not np.isfinite(self.d):
            raise ArgumentError(f"shift d must be finite, got {self.d!r}")

    def partials(self, t, s, orders):
        _check_orders(orders)
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        # r(t,s) = c*C(t-s-d): each s-derivative flips the sign of C'
        jet = self.base.derivs(t - s - self.d, max(a + b for a, b in orders))
        return [self.c * (-1.0) ** b * jet[a + b] for a, b in orders]


@dataclass(frozen=True)
class PointAnchor(CrossCorrelation):
    c: float
    t_star: float
    s_star: float
    t_kernel: Kernel
    s_kernel: Kernel

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0):
            raise ArgumentError("anchor coefficient c must lie in [0, 1)")
        if not (np.isfinite(self.t_star) and np.isfinite(self.s_star)):
            raise ArgumentError(
                f"anchor points must be finite, got t_star={self.t_star!r}, s_star={self.s_star!r}")

    def partials(self, t, s, orders):
        _check_orders(orders)
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        jet_t = self.t_kernel.derivs(t - self.t_star, max(a for a, _ in orders))
        jet_s = self.s_kernel.derivs(s - self.s_star, max(b for _, b in orders))
        return [self.c * jet_t[a] * jet_s[b] for a, b in orders]


# ---------------------------------------------------------------------------
# the model itself

@dataclass(frozen=True)
class BivariateModel:
    kernel_x: Kernel
    kernel_y: Kernel
    cross: CrossCorrelation
    label: str = ""
    # spectral moments of X (1) and Y (2), read once from each kernel's jet
    # at lag 0: lambda = -C''(0) = Var X'(t), fourth = C''''(0) = Var X''(t)
    lambda1: float = field(init=False, repr=False, compare=False)
    lambda2: float = field(init=False, repr=False, compare=False)
    fourth1: float = field(init=False, repr=False, compare=False)
    fourth2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, kernel in (("1", self.kernel_x), ("2", self.kernel_y)):
            jet = kernel.derivs(0.0, 4)
            object.__setattr__(self, "lambda" + i, -float(jet[2]))
            object.__setattr__(self, "fourth" + i, float(jet[4]))


def cross_eval(model: BivariateModel, t, s, order_t: int, order_s: int):
    """d^a/dt^a d^b/ds^b of r at (t, s); broadcasts over array inputs."""
    out = model.cross.partials(t, s, ((order_t, order_s),))[0]
    return float(out) if np.ndim(out) == 0 else out


def transpose(model: BivariateModel) -> BivariateModel:
    """Swap the two processes: (X, Y, r(t,s)) -> (Y, X, r(s,t))."""
    cr = model.cross
    if isinstance(cr, ShiftMixture):
        new_cross = ShiftMixture(cr.c, -cr.d, cr.base)
    elif isinstance(cr, PointAnchor):
        new_cross = PointAnchor(cr.c, cr.s_star, cr.t_star, cr.s_kernel, cr.t_kernel)
    else:
        raise ArgumentError(f"cannot transpose cross form {type(cr).__name__}")
    return BivariateModel(model.kernel_y, model.kernel_x, new_cross,
                          label=model.label + "-transposed" if model.label else "")


def _block(spec):
    tag, points, order = spec
    if tag not in ("X", "Y"):
        raise ArgumentError(f"process tag must be 'X' or 'Y', got {tag!r}")
    if order not in (0, 1, 2):
        raise ArgumentError("derivative order in joint_cov must be 0..2")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if points.ndim != 1:
        raise ArgumentError("points in joint_cov must be a scalar or a 1-d array")
    return tag, points, order


def _cov_block(model: BivariateModel, row, col) -> np.ndarray:
    (tag_r, p_r, a), (tag_c, p_c, b) = row, col
    if tag_r == tag_c:
        kernel = model.kernel_x if tag_r == "X" else model.kernel_y
        return (-1.0) ** a * kernel.derivs(p_c[None, :] - p_r[:, None], a + b)[a + b]
    if tag_r == "X":
        return model.cross.partials(p_r[:, None], p_c[None, :], ((a, b),))[0]
    return model.cross.partials(p_c[None, :], p_r[:, None], ((b, a),))[0]


def joint_cov(model: BivariateModel, rows, cols=None) -> np.ndarray:
    """Covariances of the values listed in rows with those listed in cols
    (default: rows), as one matrix.

    rows and cols are sequences of blocks (tag, points, order): the
    order-th derivative (0..2) of process tag ("X" or "Y") at each of
    points, a scalar or a 1-d array.  Each pair of blocks is one
    vectorized kernel or cross evaluation.  Sign conventions for a
    stationary kernel: Cov(X^(a)(t), X^(b)(t')) = (-1)^a C^(a+b)(t'-t);
    cross terms are the straight partials of r.
    """
    rows = [_block(spec) for spec in rows]
    cols = rows if cols is None else [_block(spec) for spec in cols]
    return np.block([[_cov_block(model, r, c) for c in cols] for r in rows])


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


def validate_model(model: BivariateModel) -> ValidationReport:
    """Check positive semi-definiteness on a 64-point grid, unit variances, and
    concavity of r at its maximizers in the directions where its
    gradient vanishes.

    PSD is judged from eigenvalues, not a triangular factorization:
    smooth stationary kernels give grid covariances that are numerically
    rank deficient, and pivoted LDL^T turns that null space into pivot
    noise orders of magnitude above the true smallest eigenvalue."""
    notes: list[str] = []
    grid = np.linspace(0.0, 1.0, _VALIDATE_GRID_N)
    joint = joint_cov(model, [("X", grid, 0), ("Y", grid, 0)])
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

    from . import asymptotics  # deferred: asymptotics depends on this module

    cls = asymptotics.classify(model)
    h3_vals: list[float] = []
    for (t0, s0) in cls.maximizers:
        geo = asymptotics.local_geometry(model, t0, s0)
        if abs(geo.r1) < DEFAULT_TOL.gradient_tol:
            h3_vals.append(geo.r11)
        if abs(geo.r2) < DEFAULT_TOL.gradient_tol:
            h3_vals.append(geo.r22)
    if h3_vals:
        worst = float(max(h3_vals))
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


# ---------------------------------------------------------------------------
# fixtures

_FIXTURE_NAMES = (
    "diagonal",
    "interior-point",
    "corner-nondegenerate",
    "corner-semidegenerate",
    "corner-degenerate",
    "edge-point",
    "edge-point-degenerate",
)


def fixture(name: str) -> BivariateModel:
    """Named test models, one per supported maximizer layout."""
    sq = SquaredExponential(1.0)
    if name == "diagonal":
        # r(t,s) = 0.5*exp(-(t-s)^2/2): maximal on the whole diagonal
        return BivariateModel(sq, sq, ShiftMixture(0.5, 0.0, sq), label=name)
    if name == "interior-point":
        # unique maximizer at (0.5, 0.5), both second derivatives negative
        return BivariateModel(sq, sq, PointAnchor(0.5, 0.5, 0.5, sq, sq), label=name)
    if name == "corner-nondegenerate":
        # r(t,s) = 0.6*exp(-(t-s-1.5)^2/2): maximal at corner (1,0) with
        # both partial derivatives nonzero there
        return BivariateModel(sq, sq, ShiftMixture(0.6, 1.5, sq), label=name)
    if name == "corner-semidegenerate":
        # anchored at t*=0 on the t-axis: at corner (0,0) the t-derivative
        # vanishes, the s-derivative does not
        return BivariateModel(sq, sq, PointAnchor(0.5, 0.0, -0.3, sq, sq), label=name)
    if name == "corner-degenerate":
        # anchored at the corner itself: both derivatives vanish at (0,0)
        return BivariateModel(sq, sq, PointAnchor(0.5, 0.0, 0.0, sq, sq), label=name)
    if name == "edge-point":
        # maximizer (0.5, 0) interior to the s=0 edge; s-derivative nonzero
        return BivariateModel(sq, sq, PointAnchor(0.5, 0.5, -0.3, sq, sq), label=name)
    if name == "edge-point-degenerate":
        # maximizer (0.5, 0) with both derivatives vanishing
        return BivariateModel(sq, sq, PointAnchor(0.5, 0.5, 0.0, sq, sq), label=name)
    raise ArgumentError(
        f"unknown fixture {name!r}; valid names: {', '.join(_FIXTURE_NAMES)}")


def independent_model() -> BivariateModel:
    """X and Y independent (r identically zero); used by factorization tests."""
    sq = SquaredExponential(1.0)
    return BivariateModel(sq, sq, ShiftMixture(0.0, 0.0, sq), label="independent")


# ---------------------------------------------------------------------------
# model description files

_FILE_KEYS = {"kernel_x", "kernel_y", "cross_form", "c", "d",
              "t_star", "s_star", "scale_x", "scale_y", "label"}


def _parse_kernel(kind: str, scale: float) -> Kernel:
    kind = kind.strip().lower()
    if kind in ("sqexp", "squared-exponential"):
        return SquaredExponential(scale)
    raise ArgumentError(f"unknown kernel family {kind!r} (supported: sqexp)")


def load_model_file(path) -> BivariateModel:
    """Parse the plain-text key-value model description format.

    One `key value` pair per line; `#` starts a comment.  Unknown keys
    are rejected so typos fail loudly.
    """
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ArgumentError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
            key, value = parts[0], parts[1].strip()
            if key not in _FILE_KEYS:
                raise ArgumentError(f"{path}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise ArgumentError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value

    def get_float(key: str, default: float | None = None) -> float:
        if key not in entries:
            if default is None:
                raise ArgumentError(f"{path}: missing required key {key!r}")
            return default
        try:
            return float(entries[key])
        except ValueError:
            raise ArgumentError(f"{path}: key {key!r} is not a number: {entries[key]!r}")

    kx = _parse_kernel(entries.get("kernel_x", "sqexp"), get_float("scale_x", 1.0))
    ky = _parse_kernel(entries.get("kernel_y", "sqexp"), get_float("scale_y", 1.0))
    form = entries.get("cross_form", "").strip().lower()
    c = get_float("c")
    if form == "shift-mixture":
        if kx != ky:
            raise ArgumentError(f"{path}: shift-mixture requires matching marginal kernels")
        cross: CrossCorrelation = ShiftMixture(c, get_float("d", 0.0), kx)
    elif form == "point-anchor":
        cross = PointAnchor(c, get_float("t_star"), get_float("s_star"), kx, ky)
    else:
        raise ArgumentError(
            f"{path}: cross_form must be shift-mixture or point-anchor, got {form!r}")
    return BivariateModel(kx, ky, cross, label=entries.get("label", ""))
