"""Path sampling, excursion counting, and the two estimators."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from jointeec.common import ArgumentError, DegeneracyError
from jointeec.model import (
    BivariateModel,
    CosineMixture,
    CrossCorrelation,
    ShiftMixture,
    SquaredExponential,
    fixture,
    independent_model,
    joint_cov,
)
from jointeec import montecarlo as mc

FIXTURES = (
    "diagonal",
    "interior-point",
    "corner-nondegenerate",
    "corner-semidegenerate",
    "corner-degenerate",
    "edge-point",
    "edge-point-degenerate",
)


def _rough_model():
    k = SquaredExponential(0.12)
    return BivariateModel(k, k, ShiftMixture(0.5, 0.0, k), label="rough")


def _cosine_model():
    k = CosineMixture((0.3, 0.7), (2.0, 9.0))
    return BivariateModel(k, k, ShiftMixture(0.6, 0.2, k), label="cosine")


FACTOR_MODELS = [fixture(name) for name in FIXTURES] + [
    independent_model(), _rough_model(), _cosine_model()]


def test_sample_paths_deterministic():
    mod = fixture("diagonal")
    a = mc.sample_paths(mod, 128, 50, 11)
    b = mc.sample_paths(mod, 128, 50, 11)
    c = mc.sample_paths(mod, 128, 50, 12)
    assert np.array_equal(a.x_paths, b.x_paths)
    assert np.array_equal(a.y_paths, b.y_paths)
    assert not np.array_equal(a.x_paths, c.x_paths)
    assert a.factorization_cond > 0.0
    assert np.isfinite(a.factorization_cond)
    assert 0 < a.rank < 2 * 128


def test_sample_paths_marginal_statistics():
    mod = fixture("diagonal")
    batch = mc.sample_paths(mod, 128, 4000, 5)
    var_x = batch.x_paths.var(axis=0)
    assert np.max(np.abs(var_x - 1.0)) < 0.08
    # same-time cross correlation should sit near c = 0.5
    k = 64
    corr = np.corrcoef(batch.x_paths[:, k], batch.y_paths[:, k])[0, 1]
    assert corr == pytest.approx(0.5, abs=0.05)


def _short_scale_model():
    k = SquaredExponential(0.05)
    return BivariateModel(k, k, ShiftMixture(0.5, 0.0, k), label="se-0.05")


@pytest.mark.parametrize("grid_n", (64, 4096))
@pytest.mark.parametrize("mod", (fixture("interior-point"), _short_scale_model()),
                         ids=("interior-point", "se-0.05"))
def test_sample_paths_match_whole_block_products(mod, grid_n):
    # the sampler multiplies each block _CHUNK rows at a time, always on a
    # full _CHUNK rows of z; each path row must then be, bit for bit, the
    # row of the whole-block product z F^T from the same Philox stream
    # (ranks 16 and 110 at grid 4096; one row, a short last block, and one
    # row past two full blocks)
    _, factor, _ = mc._factor(mod, grid_n, 1)
    for reps in (1, 1500, 2 * mc._BLOCK + 1):
        batch = mc.sample_paths(mod, grid_n, reps, 9)
        for b, start in enumerate(range(0, reps, mc._BLOCK)):
            key = np.array([9, b], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal(
                (mc._BLOCK, factor.shape[1]))
            whole = (z @ factor.T)[: reps - start]
            stop = start + len(whole)
            assert np.array_equal(batch.x_paths[start:stop], whole[:, :grid_n])
            assert np.array_equal(batch.y_paths[start:stop], whole[:, grid_n:])
        # a view of the reused chunk buffer would repeat its last contents
        # in every chunk; the first rows of all chunks must differ
        heads = batch.x_paths[:: mc._CHUNK]
        assert len({row.tobytes() for row in heads}) == len(heads) == -(-reps // mc._CHUNK)
        del batch, heads  # at grid 4096 a batch is up to 134 MB


def test_simulate_holds_one_chunk_of_paths():
    # at grid 4096 one 1024-row block of paths is 64 MB; the sweep holds a
    # 128-row chunk (8 MB) and its masks, and measures about 12.6 MB
    tracemalloc.start()
    try:
        mc.simulate(fixture("interior-point"), (3.0,), 4096, 2048, 1, shift=(0.5, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_sample_paths_rejects_bad_sizes():
    mod = fixture("diagonal")
    with pytest.raises(ArgumentError):
        mc.sample_paths(mod, 32, 10, 1)
    with pytest.raises(ArgumentError):
        mc.sample_paths(mod, 8192, 10, 1)
    with pytest.raises(ArgumentError):
        mc.sample_paths(mod, 128, 0, 1)


def test_count_excursion_components():
    def count(path):
        return int(mc._counts(np.reshape(path, (1, -1)), 0.5)[0])

    t = np.linspace(0.0, 1.0, 512)
    assert count(np.sin(4.0 * np.pi * t)) == 2
    assert count(np.ones(16)) == 1
    assert count(-np.ones(16)) == 0
    assert count([0.6, 0.4, 0.6]) == 2
    # touching the level counts: the excursion set is closed
    assert count([0.0, 0.5, 0.0]) == 1


def test_estimate_eec_against_expansion():
    from jointeec.kacrice import eec
    mod = fixture("diagonal")
    est = mc.estimate_eec(mod, 2.5, 512, 20000, 42)
    ref = eec(mod, 2.5).total.value
    assert est.method == "PlainMC"
    assert abs(est.value - ref) < 3.0 * est.error


def test_eec_dominates_hit_probability():
    # chi(A) chi(B) >= 1 whenever both sets are nonempty, pathwise, so the
    # estimator means are ordered with certainty on common samples
    mod = fixture("interior-point")
    batch = mc.sample_paths(mod, 256, 4000, 9)
    for u in (1.5, 2.0, 2.5):
        cx = mc._counts(batch.x_paths, u)
        cy = mc._counts(batch.y_paths, u)
        chi = float(np.mean(cx * cy))
        hit = float(np.mean((cx > 0) & (cy > 0)))
        assert chi >= hit


def test_grid_refinement_monotone_under_common_noise():
    # nested dyadic grids carry a subset property: every hit on a coarse
    # grid is a hit on the finer one when the same joint draw is reused.
    # a short length scale keeps the paths rough enough that refinement
    # actually finds new exceedances
    mod = _rough_model()
    u = 2.0
    for seed in (11, 42):
        batch = mc.sample_paths(mod, 513, 30000, seed)
        hits = []
        for step in (8, 4, 2, 1):
            x = batch.x_paths[:, ::step]
            y = batch.y_paths[:, ::step]
            h = (x.max(axis=1) >= u) & (y.max(axis=1) >= u)
            hits.append(h)
        counts = [int(h.sum()) for h in hits]
        for coarse, fine in zip(hits, hits[1:]):
            assert np.all(fine[coarse])  # pathwise subset
        diffs = [b - a for a, b in zip(counts, counts[1:])]
        assert diffs[0] >= 1
        assert diffs[0] >= diffs[1] >= diffs[2] >= 0


def test_joint_excursion_plain():
    mod = fixture("diagonal")
    est = mc.estimate_joint_excursion(mod, 2.0, 128, 2000, 3)
    assert est.method == "PlainMC"
    assert 0.0 < est.value < 1.0
    assert est.error > 0.0


def test_conditional_mean_path_pins_level():
    mod = fixture("interior-point")
    grid = np.linspace(0.0, 1.0, 129)
    m = mc._conditional_mean_path(mod, grid, 0.5, 0.5, 3.0)
    k = 64  # grid point at t = 0.5
    assert m[k] == pytest.approx(3.0, rel=1e-12)        # X half
    assert m[129 + k] == pytest.approx(3.0, rel=1e-12)  # Y half
    # the tilt decays away from the pin (slowly, at this length scale)
    assert m[0] < m[k]
    assert m[129] < m[129 + k]


def test_importance_sampling_agrees_with_plain_when_independent():
    # with r = 0 the tilt is a legal change of measure and both estimators
    # target the same probability
    from jointeec.model import independent_model
    mod = independent_model()
    plain = mc.estimate_joint_excursion(mod, 2.0, 128, 4000, 17)
    tilted = mc.estimate_joint_excursion(mod, 2.0, 128, 4000, 17, shift=(0.5, 0.5))
    combined = np.hypot(plain.error, tilted.error)
    assert tilted.method == "ImportanceSampled"
    assert abs(plain.value - tilted.value) < 3.0 * combined


def test_importance_sampling_reports_effective_sample_size():
    mod = fixture("interior-point")
    est = mc.estimate_joint_excursion(mod, 3.0, 256, 4000, 11, shift=(0.5, 0.5))
    assert est.method == "ImportanceSampled"
    assert not est.low_confidence
    assert any("effective sample size" in n for n in est.notes)


def test_importance_sampling_flags_poor_shift():
    # shifting at the end of the diagonal ridge leaves most of the event
    # mass unsampled; the effective sample size collapses and the estimate
    # must say so rather than pretend to a small standard error
    mod = fixture("diagonal")
    est = mc.estimate_joint_excursion(mod, 3.0, 512, 5000, 7, shift=(0.0, 0.0))
    assert est.low_confidence
    assert any("effective sample size" in n for n in est.notes)


@pytest.mark.parametrize("grid_n", [128, 512])
@pytest.mark.parametrize("mod", FACTOR_MODELS, ids=lambda m: m.label)
def test_factor_reproduces_grid_covariance(mod, grid_n):
    # the factor is built from the diagonal and k pivot columns only; the
    # full covariance it must reproduce comes from the one grid builder
    grid = np.linspace(0.0, 1.0, grid_n)
    factor, cond = mc._pivoted_cholesky(mod, grid)
    cov = joint_cov(mod, [("X", grid, 0), ("Y", grid, 0)])
    assert np.max(np.abs(factor @ factor.T - cov)) <= 1e-10
    assert cond >= 1.0
    if mod.kernel_x == mod.kernel_y == SquaredExponential(1.0):
        # unit length scale: numerical rank far below the 2n grid values
        assert factor.shape[1] < 2 * grid_n


def test_streams_are_keyed_by_replicate_block():
    # replicate i draws from the stream of its block whatever the run
    # length, so a short run is the head of a longer one: 1000 reps fit in
    # one block, 1500 and 5000 cross block boundaries, 3000 ends inside a
    # block that 5000 fills, and a single rep is a single row
    mod = fixture("interior-point")
    long = mc.sample_paths(mod, 128, 5000, 21)
    for reps in (3000, 1500, 1000, 1):
        short = mc.sample_paths(mod, 128, reps, 21)
        assert np.array_equal(short.x_paths, long.x_paths[:reps])
        assert np.array_equal(short.y_paths, long.y_paths[:reps])


def test_chunked_estimators_match_whole_batch():
    # the estimators reduce one chunk of paths at a time; across chunk and
    # block boundaries their per-replicate values must be those of the
    # whole batch
    mod = fixture("interior-point")
    reps = mc._BLOCK + 476
    batch = mc.sample_paths(mod, 128, reps, 4)
    cx, cy = mc._counts(batch.x_paths, 1.5), mc._counts(batch.y_paths, 1.5)
    assert np.count_nonzero(cx * cy) > 0
    assert mc.estimate_eec(mod, 1.5, 128, reps, 4).value == np.mean(cx * cy)
    hit = (batch.x_paths.max(axis=1) >= 2.0) & (batch.y_paths.max(axis=1) >= 2.0)
    assert np.count_nonzero(hit) > 0
    assert mc.estimate_joint_excursion(mod, 2.0, 128, reps, 4).value == np.mean(hit)


@dataclass(frozen=True)
class _NearOne(CrossCorrelation):
    """r(t, s) = 0.99 everywhere: X(0) and X(1) would both need
    correlation 0.99 with Y(0), which forces corr(X(0), X(1)) >= 2 * 0.99^2
    - 1 = 0.96, while SE(1) marginals give exp(-1/2) = 0.61."""

    def partials(self, t, s, orders):
        shape = np.broadcast(np.asarray(t), np.asarray(s)).shape
        return [np.full(shape, 0.99 if a == b == 0 else 0.0) for a, b in orders]


def test_indefinite_model_raises_degeneracy():
    sq = SquaredExponential(1.0)
    mod = BivariateModel(sq, sq, _NearOne(), label="near-one")
    with pytest.raises(DegeneracyError):
        mc.sample_paths(mod, 128, 10, 1)
    with pytest.raises(DegeneracyError):
        mc.estimate_eec(mod, 2.0, 128, 10, 1)


def test_tilt_outside_factor_span_raises(monkeypatch):
    # a mean path that alternates in sign from one grid point to the next
    # has no counterpart among the smooth paths F z; the tilt must refuse
    # it rather than sample from a measure the weights do not describe
    def sawtooth(model, grid, t_star, s_star, u):
        return u * (-1.0) ** np.arange(2 * grid.size)

    monkeypatch.setattr(mc, "_conditional_mean_path", sawtooth)
    with pytest.raises(DegeneracyError, match="relative residual"):
        mc.estimate_joint_excursion(fixture("interior-point"), 3.0, 128, 100, 1,
                                    shift=(0.5, 0.5))


# (fixture, maximizer) pairs for the sweep tests: an interior point, the
# middle of the diagonal ridge and a corner
SWEEP_CASES = (("interior-point", (0.5, 0.5)), ("diagonal", (0.5, 0.5)),
               ("corner-nondegenerate", (0.0, 0.0)))


def _tilted_reference(mod, u, grid_n, reps, seed, shift):
    """The importance-sampled estimate with the tilted paths (z + w) F^T
    formed in full, block by block from the same Philox streams."""
    grid, factor, _ = mc._factor(mod, grid_n, reps)
    m = mc._conditional_mean_path(mod, grid, shift[0], shift[1], u)
    w = np.linalg.lstsq(factor, m, rcond=None)[0]
    contrib = []
    for b, start in enumerate(range(0, reps, mc._BLOCK)):
        key = np.array([seed, b], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (mc._BLOCK, factor.shape[1]))
        p = (z + w) @ factor.T
        n = min(mc._BLOCK, reps - start)
        hit = (p[:n, :grid_n].max(axis=1) >= u) & (p[:n, grid_n:].max(axis=1) >= u)
        contrib.append(np.where(hit, np.exp(-z[:n] @ w - 0.5 * float(w @ w)), 0.0))
    return np.concatenate(contrib)


@pytest.mark.parametrize("name, shift", SWEEP_CASES)
def test_simulate_levels_equal_the_one_level_estimators(name, shift):
    # one sweep over three unsorted levels, across a short last block,
    # gives level by level exactly what the one-level runs and estimators
    # give: value, error, method, flags and notes
    mod = fixture(name)
    levels, reps = (2.5, 1.5, 2.0), 2100
    tilted = mc.simulate(mod, levels, 128, reps, 13, shift=shift)
    plain = mc.simulate(mod, levels, 128, reps, 13)
    assert tilted.rank == plain.rank == mc.sample_paths(mod, 128, 1, 13).rank
    for u, lt, lp in zip(levels, tilted.levels, plain.levels):
        assert lt.u == lp.u == u
        assert mc.simulate(mod, (u,), 128, reps, 13, shift=shift).levels == (lt,)
        assert mc.simulate(mod, (u,), 128, reps, 13).levels == (lp,)
        assert lt.excursion == mc.estimate_joint_excursion(mod, u, 128, reps, 13, shift=shift)
        assert lp.excursion == mc.estimate_joint_excursion(mod, u, 128, reps, 13)
        assert lt.eec == lp.eec == mc.estimate_eec(mod, u, 128, reps, 13)
        assert lt.excursion.method == "ImportanceSampled"
        assert lt.excursion.notes == (f"effective sample size {lt.ess:.1f}",)
        # unit weights: the effective sample size is the number of hits
        assert lp.ess == round(lp.excursion.value * reps)


@pytest.mark.parametrize("name, shift", SWEEP_CASES)
def test_tilted_indicator_matches_the_tilted_paths(name, shift):
    # the sweep never forms (z + w) F^T; it compares z F^T with u - F w
    mod = fixture(name)
    levels = (2.0, 3.0)
    sim = mc.simulate(mod, levels, 128, 1500, 5, shift=shift)
    for u, lv in zip(levels, sim.levels):
        contrib = _tilted_reference(mod, u, 128, 1500, 5, shift)
        assert np.count_nonzero(contrib) > 0
        assert lv.excursion.value == float(np.mean(contrib))
        assert lv.excursion.error == float(np.std(contrib, ddof=1) / np.sqrt(1500))


def test_simulate_draws_each_block_once(monkeypatch):
    # three levels at 1500 replicates: two Philox blocks and one factor,
    # shared by every level and both estimators
    calls = {"philox": 0, "factor": 0}
    philox, pivoted = np.random.Philox, mc._pivoted_cholesky

    def counting_philox(*args, **kwargs):
        calls["philox"] += 1
        return philox(*args, **kwargs)

    def counting_factor(*args):
        calls["factor"] += 1
        return pivoted(*args)

    monkeypatch.setattr(mc.np.random, "Philox", counting_philox)
    monkeypatch.setattr(mc, "_pivoted_cholesky", counting_factor)
    sim = mc.simulate(fixture("interior-point"), (2.0, 2.5, 3.0), 128, 1500, 3,
                      shift=(0.5, 0.5))
    assert len(sim.levels) == 3
    assert calls == {"philox": 2, "factor": 1}


def test_eec_row_filter_matches_counts_on_every_row():
    # the component counts are taken only on rows where both halves reach
    # u; at levels only a few rows cross (4 and 2 here, one of them with
    # its lower maximum 0.03 above 2.25), the mean must still be that of
    # the count products over all the paths
    mod = fixture("interior-point")
    levels, reps = (2.25, 2.75), mc._BLOCK + 476
    batch = mc.sample_paths(mod, 128, reps, 4)
    sim = mc.simulate(mod, levels, 128, reps, 4)
    for u, lv in zip(levels, sim.levels):
        prod = mc._counts(batch.x_paths, u) * mc._counts(batch.y_paths, u)
        assert 0 < np.count_nonzero(prod) <= 10
        assert lv.eec.value == float(np.mean(prod))
        assert lv.eec.error == float(np.std(prod, ddof=1) / np.sqrt(reps))


def test_simulate_rejects_no_levels():
    with pytest.raises(ArgumentError):
        mc.simulate(fixture("diagonal"), (), 128, 10, 1)
