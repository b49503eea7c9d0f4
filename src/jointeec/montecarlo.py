"""Simulation oracle: joint Gaussian path sampling on a grid, excursion
probabilities (plain and importance-sampled), and the empirical expected
Euler characteristic via the product of per-path component counts.

Paths are F z: z is standard normal in R^k and F (2n x k) factors the
covariance of (X, Y) on the n-point grid, by pivoted Cholesky stopped
once no residual variance exceeds _PIVOT_TOL (Harbrecht, Peters &
Schneider 2012).  Only the diagonal and k columns of the covariance are
evaluated; the fixtures give k = 16 at every grid size.

Replicates come in blocks of _BLOCK; block b draws from the Philox
stream keyed by (seed, b), so a run of r replicates is bit-identical to
the first r replicates of any longer run with the same seed.  Each block
is multiplied and reduced _CHUNK rows at a time through one reused
(_CHUNK, 2n) buffer, so the paths held in memory are one chunk, not one
block (8 MB, not 64 MB, at grid 4096), and at grid 512 each 1 MB chunk is
reduced while it is still in cache.  Every product is a full _CHUNK
rows, a short last block included (it is drawn in full): the rounding
of a matrix product may depend on its shape, and full chunks round each
path row as the whole-block product does (the tests check this bit for
bit).

`simulate` is the one draw-and-reduce loop: one call factors the grid
covariance once and draws and multiplies each chunk once, and every
requested level reads both the excursion and the EEC estimate from that
chunk.  `estimate_eec` and `estimate_joint_excursion` are its one-level
reads; `sample_paths` returns the paths themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .common import (
    IMPORTANCE_SAMPLED,
    PLAIN_MC,
    ArgumentError,
    DegeneracyError,
    Estimate,
)

__all__ = [
    "PathBatch",
    "sample_paths",
    "LevelEstimates",
    "Simulation",
    "simulate",
    "estimate_eec",
    "estimate_joint_excursion",
]

_GRID_MIN, _GRID_MAX = 64, 4096
_PIVOT_TOL = 1e-12  # largest residual variance left; a dense Cholesky needs a ridge this size
_BLOCK = 1024  # replicates per Philox key
_CHUNK = 128  # rows per path product and reduction; _BLOCK is a multiple of it
_TILT_TOL = 1e-8  # largest |F w - m| / |m| accepted for the importance-sampling tilt


@dataclass(frozen=True)
class PathBatch:
    grid: np.ndarray
    x_paths: np.ndarray  # (reps, gridN)
    y_paths: np.ndarray
    seed: int
    factorization_cond: float  # (first pivot / last kept pivot)^2
    rank: int


def _pivoted_cholesky(model: model_mod.BivariateModel, grid: np.ndarray):
    """F (2n x k) with F F^T equal to the joint grid covariance up to a
    residual whose diagonal is at most _PIVOT_TOL, and its conditioning
    (first pivot / last kept pivot)^2.  Both kernels are correlation
    functions, so the diagonal starts at 1."""
    n = grid.size
    rows = [("X", grid, 0), ("Y", grid, 0)]
    resid = np.ones(2 * n)
    factor = np.empty((2 * n, 32))
    pivots = []
    while True:
        p = int(np.argmax(resid))
        if resid[p] <= _PIVOT_TOL:
            return factor[:, : len(pivots)], pivots[0] / pivots[-1]
        pivot, k = float(resid[p]), len(pivots)
        if k == factor.shape[1]:
            factor = np.hstack([factor, np.empty_like(factor)])
        col = model_mod.joint_cov(model, rows, [("XY"[p // n], grid[p % n], 0)])[:, 0]
        factor[:, k] = (col - factor[:, :k] @ factor[p, :k]) / math.sqrt(pivot)
        resid -= factor[:, k] ** 2
        pivots.append(pivot)
        q = int(np.argmin(resid))
        if resid[q] < -_PIVOT_TOL:
            raise DegeneracyError(f"joint grid covariance is indefinite: residual variance "
                                  f"{resid[q]:.3e} at index {q} after {k + 1} pivots", q)


def _factor(model, grid_n: int, reps: int):
    if not _GRID_MIN <= grid_n <= _GRID_MAX:
        raise ArgumentError(f"gridN must lie in [{_GRID_MIN}, {_GRID_MAX}]")
    if reps < 1:
        raise ArgumentError("reps must be at least 1")
    grid = np.linspace(0.0, 1.0, grid_n)
    return (grid, *_pivoted_cholesky(model, grid))


def _chunks(factor: np.ndarray, reps: int, seed: int):
    """Yield (start, z, z F^T) chunk by chunk: z is standard normal from
    the Philox stream keyed by (seed, block), drawn a full block at a time,
    and start is the index of its first replicate.  Each product is taken
    on a full _CHUNK rows of z, also in a short last block, and the rows
    past `reps` are dropped.  The paths are a view of one reused buffer:
    the next chunk overwrites them."""
    k = factor.shape[1]
    buf = np.empty((_CHUNK, factor.shape[0]))
    for b, first in enumerate(range(0, reps, _BLOCK)):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, b], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((_BLOCK, k))
        for c in range(0, min(_BLOCK, reps - first), _CHUNK):
            np.matmul(z[c : c + _CHUNK], factor.T, out=buf)
            m = min(_CHUNK, reps - first - c)
            yield first + c, z[c : c + m], buf[:m]


def sample_paths(
    model: model_mod.BivariateModel, grid_n: int, reps: int, seed: int
) -> PathBatch:
    grid, factor, cond = _factor(model, grid_n, reps)
    paths = np.empty((reps, 2 * grid_n))
    for start, _, p in _chunks(factor, reps, seed):
        paths[start : start + len(p)] = p
    return PathBatch(
        grid=grid,
        x_paths=paths[:, :grid_n],
        y_paths=paths[:, grid_n:],
        seed=seed,
        factorization_cond=cond,
        rank=factor.shape[1],
    )


def _counts(paths: np.ndarray, u: float) -> np.ndarray:
    above = paths >= u
    starts = above[:, 0].astype(np.int64)
    starts += np.count_nonzero(above[:, 1:] & ~above[:, :-1], axis=1)
    return starts


def _conditional_mean_path(model, grid, t_star, s_star, u):
    rho = model_mod.cross_eval(model, t_star, s_star, 0, 0)
    weights = np.linalg.solve([[1.0, rho], [rho, 1.0]], [u, u])
    cov = model_mod.joint_cov(model, [("X", grid, 0), ("Y", grid, 0)],
                              [("X", t_star, 0), ("Y", s_star, 0)])
    return cov @ weights


def _tilt(model, grid, factor, shift, u):
    """(w, u - F w, |w|^2 / 2) for the w with F w = m, m the conditional
    mean path given X(t*)=Y(s*)=u; a residual above _TILT_TOL raises."""
    m = _conditional_mean_path(model, grid, float(shift[0]), float(shift[1]), u)
    w = np.linalg.lstsq(factor, m, rcond=None)[0]
    fw = factor @ w
    resid = float(np.linalg.norm(fw - m) / np.linalg.norm(m))
    if not resid <= _TILT_TOL:
        raise DegeneracyError(f"conditional mean path lies outside the span of the "
                              f"rank-{factor.shape[1]} factor: relative residual {resid:.1e}")
    return w, u - fw, 0.5 * float(w @ w)


@dataclass(frozen=True)
class LevelEstimates:
    u: float
    excursion: Estimate
    eec: Estimate
    ess: float  # (sum of weights)^2 / sum of squared weights; the hit count when unweighted


@dataclass(frozen=True)
class Simulation:
    levels: tuple[LevelEstimates, ...]
    rank: int
    factorization_cond: float  # (first pivot / last kept pivot)^2


def _excursion_estimate(contrib: np.ndarray, reps: int, tilted: bool):
    value = float(np.mean(contrib))
    total = float(np.sum(contrib))
    sq = float(np.sum(contrib * contrib))
    ess = total * total / sq if sq > 0.0 else 0.0
    if not tilted:
        stderr = math.sqrt(max(value * (1.0 - value), 0.0) / reps)
        return Estimate(value, stderr, reps, PLAIN_MC), ess
    stderr = float(np.std(contrib, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    est = Estimate(
        value,
        stderr,
        reps,
        IMPORTANCE_SAMPLED,
        low_confidence=ess < 100.0,
        notes=(f"effective sample size {ess:.1f}",),
    )
    return est, ess


def _eec_estimate(prod: np.ndarray, reps: int) -> Estimate:
    value = float(np.mean(prod))
    stderr = float(np.std(prod, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return Estimate(value, stderr, reps, PLAIN_MC)


def simulate(
    model: model_mod.BivariateModel,
    levels,
    grid_n: int,
    reps: int,
    seed: int,
    shift: tuple[float, float] | None = None,
) -> Simulation:
    """P{max X >= u, max Y >= u} and the mean of chi(X-path) * chi(Y-path)
    on the grid, at every u in `levels`, from one factor and one draw of
    each block: every level and both estimates read the same paths.

    The Euler characteristic of a product set is the product of the
    factors' characteristics.  It is 0 unless both halves reach u, so the
    component counts are taken on those rows only.

    With shift=(t*, s*) the excursion estimate is importance sampled: the
    sampling mean is tilted to the conditional mean path m given
    X(t*)=Y(s*)=u and each replicate carries the exact Gaussian likelihood
    ratio; effective sample size below 100 flags the estimate as low
    confidence.  The tilt is the w with F w = m, one per level.  The
    tilted path (z + w) F^T reaches u where z F^T >= u - F w, and the
    ratio of the draw z + w is exp(-z.w - |w|^2/2).  The EEC estimate is
    always plain."""
    levels = tuple(float(u) for u in levels)
    if not levels:
        raise ArgumentError("levels must be nonempty")
    grid, factor, cond = _factor(model, grid_n, reps)
    tilts = [None if shift is None else _tilt(model, grid, factor, shift, u) for u in levels]
    contribs = np.zeros((len(levels), reps))
    prods = np.zeros((len(levels), reps), dtype=np.int64)
    for start, z, p in _chunks(factor, reps, seed):
        rows = slice(start, start + len(p))
        x, y = p[:, :grid_n], p[:, grid_n:]
        x_max, y_max = p.reshape(len(p), 2, grid_n).max(axis=2).T
        for u, tilt, contrib, prod in zip(levels, tilts, contribs[:, rows], prods[:, rows]):
            both = (x_max >= u) & (y_max >= u)
            prod[both] = _counts(x[both], u) * _counts(y[both], u)
            if tilt is None:
                contrib[:] = both
                continue
            w, thr, half_ww = tilt
            # a tilted replicate hits where both halves reach u - F w somewhere
            hit = (p >= thr).reshape(len(p), 2, grid_n).any(axis=2).all(axis=1)
            contrib[:] = np.where(hit, np.exp(-z @ w - half_ww), 0.0)
    out = []
    for u, tilt, contrib, prod in zip(levels, tilts, contribs, prods):
        exc, ess = _excursion_estimate(contrib, reps, tilt is not None)
        out.append(LevelEstimates(u, exc, _eec_estimate(prod, reps), ess))
    return Simulation(tuple(out), factor.shape[1], cond)


def estimate_eec(
    model: model_mod.BivariateModel, u: float, grid_n: int, reps: int, seed: int
) -> Estimate:
    """Mean of chi(X-path) * chi(Y-path): `simulate` at the one level u."""
    return simulate(model, (u,), grid_n, reps, seed).levels[0].eec


def estimate_joint_excursion(
    model: model_mod.BivariateModel,
    u: float,
    grid_n: int,
    reps: int,
    seed: int,
    shift: tuple[float, float] | None = None,
) -> Estimate:
    """P{max X >= u, max Y >= u} on the grid: `simulate` at the one level
    u, importance sampled when `shift` is given."""
    return simulate(model, (u,), grid_n, reps, seed, shift).levels[0].excursion
