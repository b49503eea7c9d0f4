"""Adaptive quadrature engines.

One rule, the Gauss-Kronrod 7/15 pair, and one globally adaptive driver
(_adapt, after QUADPACK's QAG and DCUHRE) that refines a set of cells
under it: panels of an interval (integrate_1d, from [a, b]) and, as the
tensor product of the panel rule, boxes of dimension 2 to 4 (integrate_nd,
from the whole box, 15^d nodes per box).  A box's value is the Kronrod
product rule, its error the distance to the Gauss product rule, and it is
bisected on the axis where Kronrod and Gauss differ most.  Integrands are
vectorized: a 1-d integrand maps an array of abscissae to an array of
values, an n-d integrand maps an (m, d) point array to an (m,) array.

Panels and boxes refine under one policy, QUADPACK's global strategy:
each integral keeps its cells as arrays, oldest first; each pass ranks
them by error (NaN and +inf first, ties to the older cell) and splits
every one of the _BATCH (16) worst whose error is not 0, or else the
worst one: a pass always splits, so n_evals grows to the budget even
under a negative tolerance.  A cell leaves only by being split, so no
cell is dropped: a non-finite value or error stays in the totals, and a
result is converged only when the total error is at most the target.

Each pass takes the value and error totals as math.fsum over the cells,
which rounds the exact sum once, so they do not depend on the order of
the cells, and the ranking is a stable sort, so repeated runs produce
identical bits.  The driver never raises on budget exhaustion: it
returns its best value with ``converged=False``;
QuadratureResult.estimate raises AccuracyError then.

_adapt refines a list of integrals of one rule in lockstep
(lockstep_1d, lockstep_nd; integrate_1d and integrate_nd are the case of
one integral).  Each pass places the nodes of the cells every open
integral splits, evaluates all of them in one integrand call (a list of
node arrays in, a list of value arrays out, an empty array for an
integral that has stopped) and reduces each integral's cells on its own.
Every integral keeps its own cells, totals, stopping test and budget, so
it splits the same cells in the same order, with the same n_evals, as it
would alone, provided the integrand's value at a node does not depend on
the other nodes of its call.  The rule's weighted sums run on each
integral's own (cells, nodes) block, shaped as it would be alone: a BLAS
product rounds a row according to where it sits in the batch, so
reducing the concatenated cells would move the integrals' last bits.
What the lockstep saves is the fixed cost of an integrand call: the
face-pair edge integrand takes about 0.7 ms for 15 nodes and 0.9 ms for
60 (2-core x86-64 guest).

_adapt is the one refinement loop here.  The GK15 helpers (_gk15_place,
_gk15_reduce, _bisect) also serve kacrice's anchored interior pair, whose
vector-valued integrands share one panel mesh across their xi nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import QUADRATURE, AccuracyError, Estimate

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights,
# with the embedded 7-point Gauss weights.  Standard QUADPACK constants.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: negative nodes, center, positive nodes
_NODES_1D = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
# the Gauss nodes are the odd-indexed Kronrod nodes
_W_G = np.zeros(15)
_W_G[1::2] = np.concatenate([_WG, _WG[-2::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    n_evals: int
    converged: bool

    def estimate(self, what: str) -> Estimate:
        """This result as an Estimate; AccuracyError if it did not converge."""
        if not self.converged:
            raise AccuracyError(f"{what} did not converge",
                                best_value=self.value, achieved_error=self.error)
        return Estimate(self.value, self.error, self.n_evals, QUADRATURE)


_BATCH = 16  # cells taken per pass


def _adapt(f, rule, cells, rel_tol: float, abs_tol: float,
           max_evals: int) -> list[QuadratureResult]:
    """Globally adaptive refinement of one integral per (lo, hi) in cells,
    in lockstep (see the module docstring).  rule is (place, reduce,
    halves, nodes per cell): place(lo, hi) gives the nodes of a batch of
    cells, reduce(vals, lo, hi) their (values, errors, *extra) arrays from
    the (cells, nodes) integrand values, and halves(lo, hi, *extra) the
    (lo, hi) of the halves of the cells given.  Each pass makes one call
    f(xs), xs one node array per integral (empty for a finished one),
    which returns one value array per integral.  An integral's cells are
    the columns (lo, hi, value, error, *extra), oldest cell first."""
    place, reduce, halves, nodes = rule
    due = list(cells)  # the (lo, hi) each integral evaluates next
    kept = [None] * len(cells)  # each integral's unsplit cells, as columns
    n_evals, results = [0] * len(cells), [None] * len(cells)
    while None in results:
        xs = [place(lo, hi) for lo, hi in due]
        vals = f(xs) if any(len(x) for x in xs) else xs  # no node: a == b in lockstep_1d
        for i, (lo, hi) in enumerate(due):
            if results[i] is not None:
                continue
            v = np.asarray(vals[i], dtype=float).reshape(len(lo), nodes)
            new = [lo, hi, *reduce(v, lo, hi)]
            cols = new if kept[i] is None else [np.concatenate(c) for c in zip(kept[i], new)]
            n_evals[i] += nodes * len(lo)
            value, error = math.fsum(cols[2].tolist()), math.fsum(cols[3].tolist())
            target = max(abs_tol, rel_tol * abs(value))
            if error <= target or n_evals[i] >= max_evals:
                results[i] = QuadratureResult(value, error, n_evals[i], error <= target)
                due[i] = lo[:0], hi[:0]
                continue
            err = cols[3]
            worst = np.argsort(np.where(np.isnan(err), -np.inf, -err), kind="stable")[:_BATCH]
            live = ~(err[worst] <= 0.0)  # NaN included
            split = worst[live] if live.any() else worst[:1]
            kept[i] = [np.delete(c, split, axis=0) for c in cols]
            due[i] = halves(*(c[split] for c in cols[:2] + cols[4:]))
    return results


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 on panels of an interval.

def _gk15_place(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel of a batch, panel by panel."""
    return (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES_1D[None, :]).ravel()


def _gk15_reduce(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per-panel Kronrod values and error estimates from the (panels, 15)
    integrand values, or (components, panels) arrays of them from the
    (components, panels, 15) values of a vector-valued integrand, as
    kacrice._anchored_interior passes them.  Those go through a fixed-order
    einsum: a BLAS product over the stacked components would round a value
    by where it sits in the batch."""
    half = 0.5 * (hi - lo)
    if vals.ndim == 2:
        k15, g7 = vals @ _W_K, vals @ _W_G
    else:
        k15, g7 = (np.einsum("kpn,n->kp", vals, w) for w in (_W_K, _W_G))
    k15 = half * k15
    g7 = half * g7
    return k15, np.abs(k15 - g7)


def _bisect(lo: np.ndarray, hi: np.ndarray):
    """Both halves of each panel, the left one first."""
    mid = 0.5 * (lo + hi)
    return np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()


_GK15 = (_gk15_place, _gk15_reduce, _bisect, 15)


def integrate_1d(f, a: float, b: float, rel_tol: float = 1e-6,
                 abs_tol: float = 0.0, max_evals: int = 1_000_000) -> QuadratureResult:
    """Globally adaptive GK15 on [a, b]: lockstep_1d with one interval.

    f must accept a 1-d numpy array and return matching values.
    """
    return lockstep_1d(lambda xs: [f(xs[0])], [(a, b)], rel_tol, abs_tol, max_evals)[0]


def lockstep_1d(f, intervals, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                max_evals: int = 1_000_000) -> list[QuadratureResult]:
    """integrate_1d on each (a, b) of intervals, refined in lockstep.

    f takes a list of 1-d node arrays, one per interval (empty once its
    integral has stopped), and returns a list of matching value arrays.
    Each integral has its own budget max_evals."""
    cells = [(np.array([a], dtype=float), np.array([b], dtype=float)) if a != b
             else (np.empty(0), np.empty(0)) for a, b in intervals]  # a == b: no cell, 0
    return _adapt(f, _GK15, cells, rel_tol, abs_tol, max_evals)


# ---------------------------------------------------------------------------
# The same pair on boxes: the tensor product of the panel rule.

def _box_place(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15^d tensor-product Kronrod nodes of each (m, d) box of a batch,
    box by box with the last axis fastest, as (m * 15^d, d)."""
    m, d = lo.shape
    axes = 0.5 * (lo + hi)[:, :, None] + 0.5 * (hi - lo)[:, :, None] * _NODES_1D  # (m, d, 15)
    x = np.empty((m,) + (15,) * d + (d,))
    for i in range(d):
        x[..., i] = axes[:, i].reshape((m,) + (1,) * i + (15,) + (1,) * (d - 1 - i))
    return x.reshape(-1, d)


def _contract(vals: np.ndarray, weights) -> np.ndarray:
    """The (m, 15, ..., 15) values summed against weights[i] on axis i + 1,
    one axis at a time from the last, each by a fixed-order einsum (a
    BLAS product would round a box by where it sits in the batch)."""
    for w in reversed(weights):
        vals = np.einsum("...n,n->...", vals, w)
    return vals


def _box_reduce(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(values, errors, split_axis) per box from the (m, 15^d) integrand
    values: the Kronrod product rule, its distance from the Gauss product
    rule, and the axis whose Kronrod-minus-Gauss sum (Kronrod on the other
    axes) is largest."""
    m, d = lo.shape
    vals = vals.reshape((m,) + (15,) * d)
    scale = np.prod(0.5 * (hi - lo), axis=1)
    k15 = scale * _contract(vals, [_W_K] * d)
    err = np.abs(k15 - scale * _contract(vals, [_W_G] * d))
    diffs = np.abs(np.stack([_contract(vals, [_W_K] * i + [_W_K - _W_G] + [_W_K] * (d - 1 - i))
                             for i in range(d)], axis=1))
    split_axis = np.argmax(diffs, axis=1)
    # an integrand the rule reads as exact on every axis (zero, say) zeroes
    # every difference, and argmax would then shave the same axis forever:
    # split the widest axis in that case
    flat = diffs[np.arange(m), split_axis] <= 0.0
    if np.any(flat):
        split_axis = np.where(flat, np.argmax(hi - lo, axis=1), split_axis)
    return k15, err, split_axis


def _box_halves(lo: np.ndarray, hi: np.ndarray, ax: np.ndarray):
    """Both halves of each box, bisected on its split axis ax."""
    rows = np.arange(len(lo))
    left_hi, right_lo = hi.copy(), lo.copy()
    left_hi[rows, ax] = right_lo[rows, ax] = 0.5 * (lo[rows, ax] + hi[rows, ax])
    d = lo.shape[1]
    return (np.stack([lo, right_lo], axis=1).reshape(-1, d),
            np.stack([left_hi, hi], axis=1).reshape(-1, d))


def integrate_nd(f, lo, hi, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                 max_evals: int = 1_000_000) -> QuadratureResult:
    """Globally adaptive tensor-product GK15 cubature over the box
    [lo, hi]: lockstep_nd with one box.

    f must accept an (m, d) array and return (m,) values; d = len(lo)
    must be 2, 3 or 4.
    """
    return lockstep_nd(lambda xs: [f(xs[0])], [(lo, hi)], rel_tol, abs_tol, max_evals)[0]


def lockstep_nd(f, boxes, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                max_evals: int = 1_000_000) -> list[QuadratureResult]:
    """integrate_nd on each (lo, hi) of boxes, all of one dimension,
    refined in lockstep.

    f takes a list of (m, d) node arrays, one per box (empty once its
    integral has stopped), and returns a list of matching value arrays.
    Each integral has its own budget max_evals."""
    cells = [(np.asarray(lo, dtype=float)[None, :], np.asarray(hi, dtype=float)[None, :])
             for lo, hi in boxes]
    dims = {lo.shape[1] for lo, _ in cells}
    if len(dims) > 1:
        raise ValueError("lockstep_nd needs boxes of one dimension")
    (d,) = dims
    if d < 2 or d > 4:
        raise ValueError(f"integrate_nd supports dims 2..4, got {d}")
    return _adapt(f, (_box_place, _box_reduce, _box_halves, 15**d), cells,
                  rel_tol, abs_tol, max_evals)
