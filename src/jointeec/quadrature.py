"""Adaptive quadrature engines.

One globally adaptive driver (_adapt, after QUADPACK's QAG and DCUHRE)
refines a set of cells under a rule supplied per kind of region: the
Gauss-Kronrod 7/15 pair on panels (integrate_1d, from [a, b]) and the
Genz-Malik degree-7/5 embedded rule on boxes of dimension 2 to 4
(integrate_nd, from the box split 3 per axis: one rule application can
miss a concentrated integrand and certify a spurious zero).  Integrands
are vectorized: a 1-d integrand maps an array of abscissae to an array of
values, an n-d integrand maps an (m, d) point array to an (m,) array.

Both rules refine under one policy: each pass pops up to _BATCH (16) of
the worst cells and splits every one whose error is not 0, NaN included,
or else the worst one.  A cell leaves the heap only by being split, so no
cell is dropped: a non-finite value or error stays in the totals, and a
result is converged only when the total error is at most the target.

Refinement order is deterministic (worst-error first with a fixed
tie-break), and the totals over the cells are kept exact as cells enter
and leave and rounded once (_exact_parts), so they do not depend on the
order of the cells and repeated runs produce identical bits.  The driver
never raises on budget exhaustion: it returns its best value with
``converged=False``; QuadratureResult.estimate raises AccuracyError then.

_adapt refines a list of integrals of one rule in lockstep
(lockstep_1d, lockstep_nd; integrate_1d and integrate_nd are the case of
one integral).  Each pass places the nodes of the cells every open
integral has popped, evaluates all of them in one integrand call (a list
of node arrays in, a list of value arrays out, an empty array for an
integral that has stopped) and reduces each integral's cells on its own.
Every integral keeps its own heap, tie-break, exact totals, stopping test
and budget, so it splits the same cells in the same order, with the same
n_evals, as it would alone, provided the integrand's value at a node does
not depend on the other nodes of its call.  The rule's weighted sums run
on each integral's own (cells, nodes) block, shaped as it would be alone:
a BLAS product rounds a row according to where it sits in the batch, so
reducing the concatenated cells would move the integrals' last bits.
What the lockstep saves is the fixed cost of an integrand call: the
face-pair edge integrand takes about 0.7 ms for 15 nodes and 0.9 ms for
60 (2-core x86-64 guest).
"""

from __future__ import annotations

import functools
import heapq
import itertools
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


_BATCH = 16  # cells popped per pass


def _adapt(f, rule, cells, rel_tol: float, abs_tol: float,
           max_evals: int) -> list[QuadratureResult]:
    """Globally adaptive refinement of one integral per (lo, hi) in cells,
    in lockstep (see the module docstring).  rule is (place, reduce,
    halves, nodes per cell): place(lo, hi) gives the nodes of a batch of
    cells, reduce(vals, lo, hi) their (values, errors, *extra) arrays from
    the (cells, nodes) integrand values, and halves(entries) the (lo, hi)
    of the halves of the entries' cells.  Each pass makes one call f(xs),
    xs one node array per integral (empty for a finished one), which
    returns one value array per integral."""
    place, reduce, halves, nodes = rule
    runs = [_refine(halves, nodes, lo, hi, rel_tol, abs_tol, max_evals)
            for lo, hi in cells]
    due = [next(run) for run in runs]
    results = [None] * len(runs)
    while None in results:
        xs = [place(lo, hi) for lo, hi in due]
        vals = f(xs) if any(len(x) for x in xs) else xs  # no node: a == b in lockstep_1d
        for i, run in enumerate(runs):
            if results[i] is not None:
                continue
            lo, hi = due[i]
            try:
                due[i] = run.send(reduce(np.asarray(vals[i], dtype=float).reshape(len(lo), nodes),
                                         lo, hi))
            except StopIteration as stop:
                results[i], due[i] = stop.value, (lo[:0], hi[:0])
    return results


def _refine(halves, nodes: int, lo, hi, rel_tol: float, abs_tol: float, max_evals: int):
    """One integral of _adapt, as a generator: it yields the (lo, hi) of the
    cells it needs next, is sent back their reduced (values, errors,
    *extra) and returns its QuadratureResult.  Heap entries are (-error,
    tiebreak, lo, hi, value, error, *extra)."""
    heap, split, n_evals, tiebreak = [], [], 0, itertools.count()
    totals = ([0.0], [0.0])  # the exact totals of an empty heap
    while True:
        val, err, *extra = yield lo, hi
        vals, errs = val.tolist(), err.tolist()
        n_evals += nodes * len(vals)
        for entry in zip((-err).tolist(), tiebreak, lo.tolist(), hi.tolist(),
                         vals, errs, *(e.tolist() for e in extra)):
            heapq.heappush(heap, entry)
        totals = _retotal(totals, vals, errs, split, heap)
        value, error = totals[0][0], totals[1][0]
        target = max(abs_tol, rel_tol * abs(value))
        if error <= target or n_evals >= max_evals:
            return QuadratureResult(value, error, n_evals, error <= target)
        popped = [heapq.heappop(heap) for _ in range(min(_BATCH, len(heap)))]
        split = [h for h in popped if not h[5] <= 0.0]
        keep = [h for h in popped if h[5] <= 0.0]
        if not split:
            split, keep = keep[:1], keep[1:]
        for h in keep:
            heapq.heappush(heap, h)
        lo, hi = halves(split)


def _exact_parts(values: list) -> list:
    """Floats whose exact sum is that of values, the first of them that sum
    rounded once, so equal to math.fsum(values) bit for bit.  Each further
    float is the rounded remainder, until none is left: two or three for
    values of like magnitude."""
    parts = [math.fsum(values)]
    if math.isfinite(parts[0]):
        while rest := math.fsum(values + [-p for p in parts]):
            parts.append(rest)
    return parts


def _retotal(totals, vals: list, errs: list, leaving, heap):
    """The exact (value, error) totals of the heap, as _exact_parts, after
    the cells with vals and errs entered it and the entries in leaving
    (value at index 4, error at 5) left: only what moved is summed, not
    the whole heap.  Past a non-finite total nothing cancels exactly any
    more, and the heap is summed again."""
    val_parts, err_parts = totals
    if math.isfinite(val_parts[0]) and math.isfinite(err_parts[0]):
        return (_exact_parts(val_parts + vals + [-h[4] for h in leaving]),
                _exact_parts(err_parts + errs + [-h[5] for h in leaving]))
    return _exact_parts([h[4] for h in heap]), _exact_parts([h[5] for h in heap])


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 on panels of an interval.

def _gk15_place(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel of a batch, panel by panel."""
    return (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES_1D[None, :]).ravel()


def _gk15_reduce(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per-panel Kronrod values and error estimates from the (panels, 15)
    integrand values."""
    half = 0.5 * (hi - lo)
    k15 = half * (vals @ _W_K)
    g7 = half * (vals @ _W_G)
    return k15, np.abs(k15 - g7)


def _gk15_halves(entries):
    """Bisect each panel."""
    los, his = [], []
    for h in entries:
        mid = 0.5 * (h[2] + h[3])
        los += h[2], mid
        his += mid, h[3]
    return np.array(los), np.array(his)


_GK15 = (_gk15_place, _gk15_reduce, _gk15_halves, 15)


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
# Genz-Malik degree-7 rule with embedded degree-5 error estimate.

@functools.lru_cache(maxsize=None)
def _gm_rule(d: int):
    """The degree-7/5 Genz-Malik point set on [-1,1]^d and its weights.

    Returns (points, w7, w5, ax2, ax3), where ax2 and ax3 locate the
    +/-lambda2 and +/-lambda3 evaluations per axis for the
    fourth-difference direction heuristic.
    """
    l2, l3, l5 = math.sqrt(9.0 / 70.0), math.sqrt(9.0 / 10.0), math.sqrt(9.0 / 19.0)
    l4 = l3
    pts = [np.zeros(d)]
    for lam in (l2, l3):
        for i in range(d):
            for s in (-1.0, 1.0):
                p = np.zeros(d)
                p[i] = s * lam
                pts.append(p)
    start_pairs = len(pts)
    for i in range(d):
        for j in range(i + 1, d):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    p = np.zeros(d)
                    p[i], p[j] = si * l4, sj * l4
                    pts.append(p)
    start_corners = len(pts)
    for mask in range(1 << d):
        pts.append(np.array([l5 if (mask >> i) & 1 else -l5 for i in range(d)]))
    pts = np.array(pts)
    n = len(pts)

    two_d = float(2 ** d)
    w7, w5 = np.zeros(n), np.zeros(n)
    w7[0] = two_d * (12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0
    w5[0] = two_d * (729.0 - 950.0 * d + 50.0 * d * d) / 729.0
    lo3 = 1 + 2 * d
    w7[1:lo3] = two_d * 980.0 / 6561.0
    w5[1:lo3] = two_d * 245.0 / 486.0
    w7[lo3:lo3 + 2 * d] = two_d * (1820.0 - 400.0 * d) / 19683.0
    w5[lo3:lo3 + 2 * d] = two_d * (265.0 - 100.0 * d) / 1458.0
    w7[start_pairs:start_corners] = two_d * 200.0 / 19683.0
    w5[start_pairs:start_corners] = two_d * 25.0 / 729.0
    w7[start_corners:] = 6859.0 / 19683.0
    # degree-5 rule does not touch the corners: w5 stays 0 there

    ax2 = [(1 + 2 * i, 2 + 2 * i) for i in range(d)]
    ax3 = [(lo3 + 2 * i, lo3 + 2 * i + 1) for i in range(d)]
    return pts, w7, w5, ax2, ax3


_GM_RATIO = (9.0 / 70.0) / (9.0 / 10.0)  # lambda2^2 / lambda3^2


def _gm_place(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rule's points in each (m, d) cell of a batch, as (m * points, d)."""
    pts = _gm_rule(lo.shape[1])[0]
    x = 0.5 * (lo + hi)[:, None, :] + 0.5 * (hi - lo)[:, None, :] * pts[None, :, :]
    return x.reshape(-1, lo.shape[1])


def _gm_reduce(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(values, errors, split_axis) per cell from the (m, points) integrand
    values."""
    m, d = lo.shape
    _, w7, w5, ax2, ax3 = _gm_rule(d)
    half = 0.5 * (hi - lo)
    # template weights integrate 1 to 2^d over [-1,1]^d, so the cell
    # volume ratio prod(2*half)/2^d collapses to prod(half)
    scale = np.prod(half, axis=1)
    i7 = scale * (vals @ w7)
    i5 = scale * (vals @ w5)
    err = np.abs(i7 - i5)
    f0 = vals[:, 0]
    diffs = np.empty((m, d))
    for i in range(d):
        a2 = vals[:, ax2[i][0]] + vals[:, ax2[i][1]] - 2.0 * f0
        a3 = vals[:, ax3[i][0]] + vals[:, ax3[i][1]] - 2.0 * f0
        diffs[:, i] = np.abs(a2 - _GM_RATIO * a3)
    split_axis = np.argmax(diffs, axis=1)
    # the axis heuristic only samples the center lines; an integrand
    # vanishing there (but not at the off-axis points) zeroes every
    # difference, and blindly taking argmax would then shave the same
    # axis forever -- split the widest axis in that case
    flat = diffs[np.arange(m), split_axis] <= 0.0
    if np.any(flat):
        split_axis = np.where(flat, np.argmax(hi - lo, axis=1), split_axis)
    return i7, err, split_axis


def _gm_halves(entries):
    """Bisect each cell on its split axis (entry index 6)."""
    lo, hi = np.array([h[2] for h in entries]), np.array([h[3] for h in entries])
    rows, ax = np.arange(len(entries)), np.array([h[6] for h in entries])
    left_hi, right_lo = hi.copy(), lo.copy()
    left_hi[rows, ax] = right_lo[rows, ax] = 0.5 * (lo[rows, ax] + hi[rows, ax])
    d = lo.shape[1]
    return (np.stack([lo, right_lo], axis=1).reshape(-1, d),
            np.stack([left_hi, hi], axis=1).reshape(-1, d))


def integrate_nd(f, lo, hi, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                 max_evals: int = 1_000_000) -> QuadratureResult:
    """Globally adaptive Genz-Malik cubature over the box [lo, hi]:
    lockstep_nd with one box.

    f must accept an (m, d) array and return (m,) values; d = len(lo)
    must be 2, 3 or 4.  The box starts split into 3 cells per axis.
    """
    return lockstep_nd(lambda xs: [f(xs[0])], [(lo, hi)], rel_tol, abs_tol, max_evals)[0]


def lockstep_nd(f, boxes, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                max_evals: int = 1_000_000) -> list[QuadratureResult]:
    """integrate_nd on each (lo, hi) of boxes, all of one dimension,
    refined in lockstep.

    f takes a list of (m, d) node arrays, one per box (empty once its
    integral has stopped), and returns a list of matching value arrays.
    Each integral has its own budget max_evals."""
    cells = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        d = lo.size
        if d < 2 or d > 4:
            raise ValueError(f"integrate_nd supports dims 2..4, got {d}")
        # cells in np.ndindex order: the last axis varies fastest
        edges = [np.linspace(lo[i], hi[i], 4) for i in range(d)]
        cells.append((np.array(list(itertools.product(*[e[:-1] for e in edges]))),
                      np.array(list(itertools.product(*[e[1:] for e in edges])))))
    if len({c[0].shape[1] for c in cells}) > 1:
        raise ValueError("lockstep_nd needs boxes of one dimension")
    rule = (_gm_place, _gm_reduce, _gm_halves, len(_gm_rule(cells[0][0].shape[1])[0]))
    return _adapt(f, rule, cells, rel_tol, abs_tol, max_evals)
