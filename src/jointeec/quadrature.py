"""Adaptive quadrature engines.

Two drivers live here: a globally adaptive Gauss-Kronrod 7/15 scheme for
intervals and a globally adaptive Genz-Malik degree-7 embedded rule for
hyperrectangles in dimensions 2 to 4.  Integrands are vectorized: a 1-d
integrand maps an array of abscissae to an array of values, an n-d
integrand maps an (m, d) point array to an (m,) value array.

Refinement order is deterministic (worst-error first with a fixed
tie-break), and the totals over the regions are kept exact as regions
enter and leave and rounded once (_exact_parts), so they do not depend on
the order of the regions and repeated runs produce identical bits.

Neither driver raises on budget exhaustion; they return their best value
with ``converged=False`` and leave contract enforcement to callers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

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
_w_gauss_full = np.zeros(15)
# Gauss nodes are the odd-indexed Kronrod nodes (1, 3, 5 in the positive half)
_w_gauss_full[[1, 3, 5]] = _WG[:3]
_w_gauss_full[7] = _WG[3]
_w_gauss_full[[13, 11, 9]] = _WG[:3]
_W_G = _w_gauss_full


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    n_evals: int
    converged: bool


def _gk15_batch(f, lo: np.ndarray, hi: np.ndarray):
    """Apply GK15 to a batch of panels with a single integrand call.

    Returns per-panel Kronrod values and error estimates.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _NODES_1D[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    k15 = half * (vals @ _W_K)
    g7 = half * (vals @ _W_G)
    return k15, np.abs(k15 - g7)


def integrate_1d(f, a: float, b: float, rel_tol: float = 1e-6,
                 abs_tol: float = 0.0, max_evals: int = 1_000_000,
                 batch: int = 32) -> QuadratureResult:
    """Globally adaptive GK15 on [a, b].

    f must accept a 1-d numpy array and return matching values.
    """
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)
    k15, err = _gk15_batch(f, np.array([a]), np.array([b]))
    n_evals = 15
    # heap entries: (-error, tiebreak, lo, hi, value, error)
    counter = 0
    heap = [(-err[0], counter, a, b, k15[0], err[0])]
    totals = _retotal(_ZERO, [k15[0]], [err[0]], [], heap)
    while True:
        total_val, total_err = totals[0][0], totals[1][0]
        target = max(abs_tol, rel_tol * abs(total_val))
        if total_err <= target:
            return _finish(totals, n_evals, True)
        if n_evals >= max_evals:
            return _finish(totals, n_evals, False)
        n_pop = min(batch, len(heap))
        worst = [heapq.heappop(heap) for _ in range(n_pop)]
        # keep panels whose own error is already negligible; refine the rest
        refine = []
        for h in worst:
            if h[5] <= 0.25 * target / max(len(heap) + n_pop, 1):
                heapq.heappush(heap, h)
            else:
                refine.append(h)
        if not refine:
            # everything popped was fine individually; refine the single worst
            refine = [worst[0]]
            worst = worst[1:]
            for h in worst:
                heapq.heappush(heap, h)
        los, his = [], []
        for _, _, lo_i, hi_i, _, _ in refine:
            m = 0.5 * (lo_i + hi_i)
            los.extend([lo_i, m])
            his.extend([m, hi_i])
        k15, err = _gk15_batch(f, np.array(los), np.array(his))
        n_evals += 15 * len(los)
        for i in range(len(los)):
            counter += 1
            heapq.heappush(heap, (-err[i], counter, los[i], his[i], k15[i], err[i]))
        totals = _retotal(totals, k15.tolist(), err.tolist(), refine, heap)


def _finish(totals, n_evals: int, converged: bool) -> QuadratureResult:
    return QuadratureResult(totals[0][0], totals[1][0], n_evals, converged)


# the exact totals of an empty heap, as _exact_parts gives them
_ZERO = ([0.0], [0.0])


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
    the regions with vals and errs entered it and the entries in leaving
    (value at index 4, error at 5) left: only what moved is summed, not
    the whole heap.  Past a non-finite total nothing cancels exactly any
    more, and the heap is summed again."""
    val_parts, err_parts = totals
    if math.isfinite(val_parts[0]) and math.isfinite(err_parts[0]):
        return (_exact_parts(val_parts + vals + [-h[4] for h in leaving]),
                _exact_parts(err_parts + errs + [-h[5] for h in leaving]))
    return _exact_parts([h[4] for h in heap]), _exact_parts([h[5] for h in heap])


# ---------------------------------------------------------------------------
# Genz-Malik degree-7 rule with embedded degree-5 error estimate.

_GM_CACHE: dict[int, tuple] = {}


def _gm_rule(d: int):
    """Build the degree-7/5 Genz-Malik point set on [-1,1]^d.

    Returns (points, w7, w5, axis_slices) where axis_slices locates the
    +/-lambda2 and +/-lambda3 evaluations per axis for the
    fourth-difference direction heuristic.
    """
    if d in _GM_CACHE:
        return _GM_CACHE[d]
    l2 = math.sqrt(9.0 / 70.0)
    l3 = math.sqrt(9.0 / 10.0)
    l4 = l3
    l5 = math.sqrt(9.0 / 19.0)
    pts = [np.zeros(d)]
    for i in range(d):
        for s in (-1.0, 1.0):
            p = np.zeros(d)
            p[i] = s * l2
            pts.append(p)
    for i in range(d):
        for s in (-1.0, 1.0):
            p = np.zeros(d)
            p[i] = s * l3
            pts.append(p)
    start_pairs = len(pts)
    for i in range(d):
        for j in range(i + 1, d):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    p = np.zeros(d)
                    p[i] = si * l4
                    p[j] = sj * l4
                    pts.append(p)
    start_corners = len(pts)
    for mask in range(1 << d):
        p = np.array([l5 if (mask >> i) & 1 else -l5 for i in range(d)])
        pts.append(p)
    pts = np.array(pts)
    n = len(pts)

    two_d = float(2 ** d)
    w7 = np.zeros(n)
    w5 = np.zeros(n)
    w7[0] = two_d * (12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0
    w5[0] = two_d * (729.0 - 950.0 * d + 50.0 * d * d) / 729.0
    for i in range(d):
        w7[1 + 2 * i:3 + 2 * i] = two_d * 980.0 / 6561.0
        w5[1 + 2 * i:3 + 2 * i] = two_d * 245.0 / 486.0
    lo3 = 1 + 2 * d
    w7[lo3:lo3 + 2 * d] = two_d * (1820.0 - 400.0 * d) / 19683.0
    w5[lo3:lo3 + 2 * d] = two_d * (265.0 - 100.0 * d) / 1458.0
    w7[start_pairs:start_corners] = two_d * 200.0 / 19683.0
    w5[start_pairs:start_corners] = two_d * 25.0 / 729.0
    w7[start_corners:] = 6859.0 / 19683.0
    # degree-5 rule does not touch the corners: w5 stays 0 there

    ax2 = [(1 + 2 * i, 2 + 2 * i) for i in range(d)]
    ax3 = [(lo3 + 2 * i, lo3 + 2 * i + 1) for i in range(d)]
    rule = (pts, w7, w5, ax2, ax3)
    _GM_CACHE[d] = rule
    return rule


_GM_RATIO = (9.0 / 70.0) / (9.0 / 10.0)  # lambda2^2 / lambda3^2


def _gm_batch(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GM rule on a batch of cells (one integrand call).

    lo, hi: (m, d).  Returns (values, errors, split_axis) per cell.
    """
    m, d = lo.shape
    pts, w7, w5, ax2, ax3 = _gm_rule(d)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # map template points into each cell
    x = mid[:, None, :] + half[:, None, :] * pts[None, :, :]
    vals = np.asarray(f(x.reshape(-1, d)), dtype=float).reshape(m, len(pts))
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


def integrate_nd(f, lo, hi, rel_tol: float = 1e-6, abs_tol: float = 0.0,
                 max_evals: int = 1_000_000, batch: int = 16,
                 initial_splits: int = 3) -> QuadratureResult:
    """Globally adaptive Genz-Malik cubature over the box [lo, hi].

    f must accept an (m, d) array and return (m,) values; d = len(lo)
    must be 2, 3 or 4.  The box starts uniformly partitioned into
    initial_splits cells per axis: a single rule application can miss a
    concentrated integrand entirely and certify a spurious zero, so
    convergence is never judged from one cell.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    if d < 2 or d > 4:
        raise ValueError(f"integrate_nd supports dims 2..4, got {d}")
    if initial_splits < 1:
        raise ValueError("initial_splits must be at least 1")
    n_rule = len(_gm_rule(d)[0])
    # cells in np.ndindex order: the last axis varies fastest
    edges = [np.linspace(lo[i], hi[i], initial_splits + 1) for i in range(d)]
    cells_lo = np.stack([g.ravel() for g in np.meshgrid(*[e[:-1] for e in edges],
                                                        indexing="ij")], axis=1)
    cells_hi = np.stack([g.ravel() for g in np.meshgrid(*[e[1:] for e in edges],
                                                        indexing="ij")], axis=1)
    val, err, axis = _gm_batch(f, cells_lo, cells_hi)
    n_evals = n_rule * len(cells_lo)
    counter = len(cells_lo)
    heap = _cell_entries(1, cells_lo, cells_hi, val, err, axis)
    heapq.heapify(heap)
    totals = _retotal(_ZERO, val.tolist(), err.tolist(), [], heap)
    while True:
        total_val, total_err = totals[0][0], totals[1][0]
        target = max(abs_tol, rel_tol * abs(total_val))
        if total_err <= target:
            return _finish(totals, n_evals, True)
        if n_evals >= max_evals:
            return _finish(totals, n_evals, False)
        n_pop = min(batch, len(heap))
        popped = [heapq.heappop(heap) for _ in range(n_pop)]
        refine = [h for h in popped if h[5] > 0.0]
        for h in popped:
            if h[5] <= 0.0:
                heapq.heappush(heap, h)
        if not refine:
            return _finish(totals, n_evals, True)
        # bisect each cell on its axis; the halves go in as (lower, upper) pairs
        c_lo = np.array([h[2] for h in refine])
        c_hi = np.array([h[3] for h in refine])
        rows = np.arange(len(refine))
        ax = np.array([h[6] for h in refine])
        m_ax = 0.5 * (c_lo[rows, ax] + c_hi[rows, ax])
        left_hi = c_hi.copy()
        left_hi[rows, ax] = m_ax
        right_lo = c_lo.copy()
        right_lo[rows, ax] = m_ax
        los = np.stack([c_lo, right_lo], axis=1).reshape(-1, d)
        his = np.stack([left_hi, c_hi], axis=1).reshape(-1, d)
        val, err, axis = _gm_batch(f, los, his)
        n_evals += n_rule * len(los)
        for entry in _cell_entries(counter + 1, los, his, val, err, axis):
            heapq.heappush(heap, entry)
        counter += len(los)
        totals = _retotal(totals, val.tolist(), err.tolist(), refine, heap)


def _cell_entries(first, lo, hi, val, err, axis):
    """Heap entries (-error, tiebreak, lo, hi, value, error, split axis) for
    a batch of cells, with tiebreaks counting up from first."""
    return list(zip((-err).tolist(), range(first, first + len(lo)),
                    map(tuple, lo.tolist()), map(tuple, hi.tolist()),
                    val.tolist(), err.tolist(), axis.tolist()))
