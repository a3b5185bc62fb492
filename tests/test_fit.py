"""Multiplicative-update fitting: environments, updates, sweeps, trials.

The environment cache and the update rule are checked against brute-force
enumeration from oracles.py, and the loss against its closed-form optimum.
"""

import numpy as np
import pytest

from oracles import (
    brute_left_gram,
    brute_left_overlaps,
    brute_loss,
    brute_right_gram,
    brute_right_grid,
    brute_right_sums,
    brute_update_denom,
    brute_update_numer,
    dense_tt_vector,
    prefix_vector,
    public_call_trial,
    random_tt_cores,
)
import ttomo.fitting
from ttomo.density import normalize_tt
from ttomo.errors import CapacityError, ValidationError
from ttomo.fitting import (
    EnvCache,
    FitConfig,
    bond_profile,
    fit,
    init_tt,
    loss,
    map_jobs,
    sweep,
    trial_blocks,
    update_core,
)
from ttomo.networks import TTDistribution
from ttomo.sampling import SampleSet, sample_dataset


def _random_instance(L, bond_dim, n, seed):
    rng = np.random.default_rng(seed)
    tt = TTDistribution([c.copy() for c in random_tt_cores(L, bond_dim, rng)])
    dist = rng.uniform(0.05, 1.0, size=4**L)
    dist /= dist.sum()
    samples = sample_dataset(dist, n, seed=seed + 1)
    return tt, samples


def test_bond_profile_frozen():
    assert bond_profile(4, 10) == (1, 4, 10, 4, 1)
    assert bond_profile(2, 5) == (1, 4, 1)
    assert bond_profile(6, 3) == (1, 3, 3, 3, 3, 3, 1)
    assert bond_profile(1, 9) == (1, 1)


def test_init_tt_deterministic_and_positive():
    a = init_tt(4, 10, seed=3)
    b = init_tt(4, 10, seed=3)
    c = init_tt(4, 10, seed=4)
    assert a.bond_dims == (1, 4, 10, 4, 1)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)
    assert any(not np.array_equal(x, y) for x, y in zip(a.cores, c.cores))
    assert all(core.min() > 0.0 for core in a.cores)


@pytest.mark.parametrize("L,bond_dim", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_cache_matches_brute_force_everywhere(L, bond_dim):
    tt, samples = _random_instance(L, bond_dim, 200, seed=10 * L + bond_dim)
    cache = EnvCache(tt, samples)
    for p in range(L + 1):
        assert np.allclose(cache.left_gram(p), brute_left_gram(tt.cores, p), rtol=1e-12, atol=1e-14)
        assert np.allclose(cache.right_gram(p), brute_right_gram(tt.cores, p), rtol=1e-12, atol=1e-14)
        assert np.allclose(
            cache.left_overlaps(p), brute_left_overlaps(tt.cores, samples, p), rtol=1e-12, atol=1e-14
        )
        assert np.allclose(
            cache.right_sums(p), brute_right_sums(tt.cores, samples, p), rtol=1e-12, atol=1e-14
        )


def test_cache_invalidation_tracks_core_changes():
    tt, samples = _random_instance(4, 3, 100, seed=21)
    cache = EnvCache(tt, samples)
    tt.cores[2][:] *= 1.7
    cache.note_core_changed(2)
    assert cache.stored_left_overlap_positions == [0, 1, 2]
    assert cache.stored_right_overlap_positions == [3, 4]
    with pytest.raises(IndexError):
        cache.left_gram(3)
    with pytest.raises(IndexError):
        cache.right_gram(2)
    # still-valid reads are unaffected and match brute force on the new cores
    assert np.allclose(cache.left_gram(2), brute_left_gram(tt.cores, 2), rtol=1e-12)
    cache.refresh_left(2)
    assert np.allclose(cache.left_gram(3), brute_left_gram(tt.cores, 3), rtol=1e-12)
    assert np.allclose(
        cache.left_overlaps(3), brute_left_overlaps(tt.cores, samples, 3), rtol=1e-12
    )
    cache.refresh_right(2)
    assert np.allclose(cache.right_gram(2), brute_right_gram(tt.cores, 2), rtol=1e-12)


def test_cache_stays_coherent_through_a_sweep():
    tt, samples = _random_instance(3, 2, 150, seed=33)
    cache = EnvCache(tt, samples)
    seen = []

    def check(k):
        seen.append(k)
        for p in cache.stored_left_overlap_positions:
            assert np.allclose(cache.left_gram(p), brute_left_gram(tt.cores, p), rtol=1e-10)
            assert np.allclose(
                cache.left_overlaps(p), brute_left_overlaps(tt.cores, samples, p), rtol=1e-10
            )
        for p in cache.stored_right_overlap_positions:
            assert np.allclose(cache.right_gram(p), brute_right_gram(tt.cores, p), rtol=1e-10)
            assert np.allclose(
                cache.right_sums(p), brute_right_sums(tt.cores, samples, p), rtol=1e-10
            )

    sweep(tt, cache, samples, eps=1e-16, on_update=check)
    assert seen == [0, 1, 2, 1]


def test_update_matches_brute_force_factors():
    for seed in range(5):
        tt, samples = _random_instance(3, 2, 120, seed=50 + seed)
        k = seed % 3
        numer = brute_update_numer(tt.cores, samples, k)
        denom = brute_update_denom(tt.cores, k)
        expected = tt.cores[k] * numer / (denom + 1e-16)
        cache = EnvCache(tt, samples)
        update_core(tt, cache, samples, k, eps=1e-16)
        assert np.allclose(tt.cores[k], expected, rtol=1e-10, atol=1e-14)


def test_update_never_increases_loss():
    for seed in range(8):
        tt, samples = _random_instance(3, 3, 80, seed=70 + seed)
        before = loss(tt, samples)
        cache = EnvCache(tt, samples)
        update_core(tt, cache, samples, seed % 3, eps=1e-16)
        after = loss(tt, samples)
        assert after <= before + 1e-9


def test_update_divides_data_term_by_model_term_exactly():
    # L=1, D=1: both Gram matrices are 1, so the denominator is the core itself
    # and, with eps=0, the updated core is the empirical distribution
    samples = SampleSet(L=1, total=8, strings=[[0], [1], [2]], counts=[4, 2, 2])
    core = np.array([0.5, 0.25, 0.125, 0.125])
    tt = TTDistribution([core.reshape(4, 1, 1).copy()])
    update_core(tt, EnvCache(tt, samples), samples, 0, eps=0.0)
    assert np.allclose(tt.cores[0][:, 0, 0], [0.5, 0.25, 0.25, 0.0])


def test_update_adds_eps_to_the_denominator_only():
    # L=1, D=1: both Gram matrices are 1, so the denominator is the core itself;
    # eps is relative to its largest entry
    samples = SampleSet(L=1, total=4, strings=[[0], [1], [2]], counts=[2, 1, 1])
    core = np.array([0.5, 0.25, 0.0, 0.125])
    weights = np.array([0.5, 0.25, 0.25, 0.0])
    for eps in (0.25, 1e-16):
        tt = TTDistribution([core.reshape(4, 1, 1).copy()])
        update_core(tt, EnvCache(tt, samples), samples, 0, eps=eps)
        assert np.array_equal(tt.cores[0][:, 0, 0], core * (weights / (core + eps * 0.5)))
    # a zero denominator under observed mass stays finite: the entry stays zero
    assert tt.cores[0][2, 0, 0] == 0.0


def test_update_rejects_a_train_other_than_the_caches():
    tt, samples = _random_instance(3, 2, 50, seed=90)
    cache = EnvCache(tt, samples)
    other = tt.copy()
    with pytest.raises(ValidationError, match="the train its cache was built on"):
        update_core(other, cache, samples, 1)
    assert all(np.array_equal(a, b) for a, b in zip(other.cores, tt.cores))
    assert cache.stored_left_overlap_positions == [0, 1, 2, 3]
    assert cache.stored_right_overlap_positions == [0, 1, 2, 3]


def test_update_preserves_zero_support():
    tt, samples = _random_instance(2, 2, 60, seed=90)
    tt.cores[0][1, 0, :] = 0.0
    cache = EnvCache(tt, samples)
    update_core(tt, cache, samples, 0, eps=1e-16)
    assert np.all(tt.cores[0][1, 0, :] == 0.0)
    # a core that is zero everywhere has a zero model term; it stays zero
    tt.cores[1][:] = 0.0
    update_core(tt, EnvCache(tt, samples), samples, 1, eps=1e-16)
    assert np.all(tt.cores[1] == 0.0)


def test_long_chain_sample_set_and_overlaps():
    L = 40
    rng = np.random.default_rng(400)
    base = rng.integers(0, 4, size=(6, L))
    rows = np.repeat(base, 5, axis=0)
    cut = rng.integers(1, L, size=rows.shape[0])
    tails = rng.integers(0, 4, size=rows.shape)
    rows = np.where(np.arange(L) >= cut[:, None], tails, rows)
    strings = np.unique(rows.astype(np.uint8), axis=0)
    counts = rng.integers(1, 9, size=strings.shape[0])
    samples = SampleSet(L=L, total=int(counts.sum()), strings=strings, counts=counts)
    assert samples.n_distinct == strings.shape[0] > 1
    with pytest.raises(ValidationError):
        SampleSet(L=L, total=int(counts.sum()), strings=strings[::-1], counts=counts)
    with pytest.raises(ValidationError):
        doubled = np.concatenate([strings[:1], strings[:-1]])
        SampleSet(L=L, total=int(counts.sum()), strings=doubled, counts=counts)
    tt = init_tt(L, 3, seed=41)
    cache = EnvCache(tt, samples)
    for p in range(L + 1):
        left = cache.left_overlaps(p)
        for row, string in enumerate(strings):
            assert np.allclose(left[row], prefix_vector(tt.cores, string, p), rtol=1e-12)
        assert np.allclose(
            cache.right_sums(p), brute_right_sums(tt.cores, samples, p), rtol=1e-12
        )


def test_single_site_update_lands_on_frequencies():
    # with L=1, D=1 the quadratic loss is separable; one update solves it
    dist = np.array([0.4, 0.3, 0.2, 0.1])
    samples = sample_dataset(dist, 5000, seed=101)
    tt = TTDistribution([np.full((4, 1, 1), 0.25)])
    cache = EnvCache(tt, samples)
    update_core(tt, cache, samples, 0, eps=1e-16)
    freq = np.zeros(4)
    freq[samples.codes()] = samples.weights
    assert np.allclose(tt.cores[0][:, 0, 0], freq, rtol=1e-10)


def test_sweep_visits_cores_in_dmrg_order():
    tt, samples = _random_instance(4, 2, 50, seed=110)
    cache = EnvCache(tt, samples)
    order = []
    sweep(tt, cache, samples, eps=1e-16, on_update=lambda k: order.append(k))
    assert order == [0, 1, 2, 3, 2, 1]


def test_sweep_single_site_chain():
    tt, samples = _random_instance(1, 1, 40, seed=111)
    cache = EnvCache(tt, samples)
    order = []
    sweep(tt, cache, samples, eps=1e-16, on_update=lambda k: order.append(k))
    assert order == [0]


def test_loss_matches_brute_force():
    for seed in range(6):
        tt, samples = _random_instance(3, 2, 90, seed=130 + seed)
        fast = loss(tt, samples)
        slow = brute_loss(tt.cores, samples)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("L", [1, 2, 4])
def test_cache_loss_on_a_fresh_cache_matches_brute_force(L):
    tt, samples = _random_instance(L, 3, 300, seed=190 + L)
    assert EnvCache(tt, samples).losses()[0] == pytest.approx(brute_loss(tt.cores, samples), rel=1e-12)


def test_cache_losses_need_left_position_zero_and_right_position_one():
    tt, samples = _random_instance(3, 2, 100, seed=195)
    cache = EnvCache(tt, samples)
    update_core(tt, cache, samples, 0)
    # an update of core 0 leaves both sides valid where its own terms read them
    assert cache.losses()[0] == loss(tt, samples)
    cache.refresh_left(0)
    update_core(tt, cache, samples, 1)
    with pytest.raises(IndexError):
        cache.losses()
    cache.refresh_right(1)
    assert cache.losses()[0] == loss(tt, samples)


@pytest.mark.parametrize("L", [1, 2, 4])
def test_fit_single_final_loss_equals_loss_exactly(L):
    _, samples = _random_instance(L, 3, 2000, seed=200 + L)
    config = FitConfig(bond_dim=3, max_sweeps=25, trials=1, seed=9)
    result = fit(samples, config).trials[0]
    assert result.sweeps_run > 0
    assert result.losses[-1] == loss(result.tt, samples)


def test_loss_optimum_for_point_mass_is_minus_one():
    dist = np.zeros(16)
    dist[5] = 1.0
    samples = sample_dataset(dist, 100, seed=140)
    config = FitConfig(bond_dim=1, max_sweeps=200, trials=1, seed=0)
    result = fit(samples, config).trials[0]
    assert result.final_loss == pytest.approx(-1.0, abs=1e-8)
    values = dense_tt_vector(result.tt.cores)
    assert values[5] == pytest.approx(1.0, abs=1e-6)


def test_fit_single_loss_trace_is_monotone():
    tt, samples = _random_instance(3, 3, 500, seed=150)
    config = FitConfig(bond_dim=3, max_sweeps=40, trials=1, seed=5)
    result = fit(samples, config).trials[0]
    diffs = np.diff(result.losses)
    assert np.all(diffs <= 1e-9)
    assert result.losses[0] == pytest.approx(loss(init_tt(3, 3, 5), samples), rel=1e-12)
    assert len(result.wall_times) == len(result.losses)


def test_fit_single_stop_rule_reports_convergence():
    dist = np.full(16, 1.0 / 16.0)
    samples = sample_dataset(dist, 2000, seed=160)
    config = FitConfig(bond_dim=2, max_sweeps=2000, stop_window=10, stop_rtol=1e-6, trials=1, seed=2)
    result = fit(samples, config).trials[0]
    assert result.converged
    assert result.sweeps_run < 2000
    window_gain = result.losses[-1 - config.stop_window] - result.losses[-1]
    assert window_gain <= config.stop_rtol * max(abs(result.losses[-1]), 1e-300)


def test_fit_runs_trials_with_distinct_seeds():
    _, samples = _random_instance(2, 2, 300, seed=170)
    config = FitConfig(bond_dim=2, max_sweeps=30, trials=3, seed=40)
    result = fit(samples, config)
    assert [t.seed for t in result.trials] == [40, 41, 42]
    assert [t.trial for t in result.trials] == [0, 1, 2]
    assert result.best_index == int(np.argmin(result.final_losses))
    rerun = fit(samples, config)
    assert np.array_equal(result.final_losses, rerun.final_losses)


def _widest_grid(samples):
    """The width ``fit`` plans its blocks on: the largest 4 x (runs at p - 1) over p >= 1."""
    return max(4 * starts.size for starts in samples.runs.prefix_starts[:-1])


def _assert_same_trials(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.trial, a.seed, a.converged) == (b.trial, b.seed, b.converged)
        assert np.array_equal(a.losses, b.losses)
        assert all(np.array_equal(ca, cb) for ca, cb in zip(a.tt.cores, b.tt.cores))


def test_fit_parallel_matches_sequential():
    _, samples = _random_instance(2, 2, 200, seed=180)
    config = FitConfig(bond_dim=2, max_sweeps=15, trials=3, seed=8)
    # two workers get uneven blocks of two trials and one
    assert trial_blocks(3, 2, _widest_grid(samples), jobs=2) == [range(0, 2), range(2, 3)]
    sequential = fit(samples, config, jobs=1)
    parallel = fit(samples, config, jobs=2)
    _assert_same_trials(sequential.trials, parallel.trials)


def test_trial_blocks_follow_the_float_budget():
    # wide-L8 sized (65534 strings, a widest grid of 4 x 16384 at D = 10):
    # D * width exceeds half the budget, so every trial is its own block
    assert trial_blocks(2, 10, 65536) == [range(0, 1), range(1, 2)]
    # flagship sized (width 256) and the L = 6 slice (4096): one block
    assert trial_blocks(20, 10, 256) == [range(0, 20)]
    assert trial_blocks(2, 10, 4096) == [range(0, 2)]
    # the full-scale config's 100 trials on 4096 strings: four even blocks
    assert [len(b) for b in trial_blocks(100, 10, 4096)] == [25, 25, 25, 25]
    # at least one block per worker, never an empty one
    assert trial_blocks(5, 10, 256, jobs=3) == [range(0, 2), range(2, 4), range(4, 5)]
    assert trial_blocks(2, 10, 256, jobs=4) == [range(0, 1), range(1, 2)]


@pytest.mark.parametrize("L,bond_dim,stop_rtol", [(2, 2, 1e-5), (3, 3, 3e-4), (4, 10, 3e-3)])
def test_one_block_equals_each_trial_alone(L, bond_dim, stop_rtol, monkeypatch):
    dist = np.full(4**L, 1.0 / 4**L)
    samples = sample_dataset(dist, 3000, seed=210 + L)
    config = FitConfig(bond_dim=bond_dim, max_sweeps=120, stop_rtol=stop_rtol, trials=4, seed=L)
    assert trial_blocks(config.trials, bond_dim, _widest_grid(samples)) == [range(0, 4)]
    batched = fit(samples, config)
    # some trials stop early and leave the block while others run on
    assert len({t.sweeps_run for t in batched.trials}) > 1
    assert any(t.converged for t in batched.trials)
    assert not all(t.converged for t in batched.trials)
    for trial in batched.trials:
        tt, losses, converged = public_call_trial(samples, config, trial.seed)
        assert converged == trial.converged
        assert np.array_equal(losses, trial.losses)
        assert all(np.array_equal(a, b) for a, b in zip(tt.cores, trial.tt.cores))
    # a budget of one float makes every trial its own block
    monkeypatch.setattr(ttomo.fitting, "_BLOCK_FLOATS", 1)
    assert len(trial_blocks(config.trials, bond_dim, _widest_grid(samples))) == config.trials
    _assert_same_trials(batched.trials, fit(samples, config).trials)


def _copy_pair_samples(L, draws, seed):
    """Draws whose even symbols are uniform and odd symbol 2j+1 copies symbol 2j.

    The generating model puts 4^(-L/2) on each of 4^(L/2) strings, so its
    loss is -4^(-L/2).
    """
    rng = np.random.default_rng(seed)
    pairs = np.repeat(rng.integers(0, 4, size=(draws, L // 2)), 2, axis=1)
    strings, counts = np.unique(pairs.astype(np.uint8), axis=0, return_counts=True)
    return SampleSet(L=L, total=draws, strings=strings, counts=counts)


@pytest.mark.parametrize("L", [24, 40])
def test_long_chains_fit_without_collapse(L):
    # an absolute eps of 1e-16 would swamp denominators of order 4^-L and,
    # from L = 23 on, drive every core to exactly zero and the loss up to 0
    samples = _copy_pair_samples(L, 4000, seed=L)
    tt = init_tt(L, 10, seed=0)
    cache = EnvCache(tt, samples)
    values = [cache.losses()[0]]

    def record(k):
        # the loss after the update at k, from that update's quadratic form
        core = tt.cores[k]
        self_term = np.sum(core * cache.model_term(k))
        values.append(float(self_term - 2.0 * np.sum(core * cache.data_term(k))))

    for _ in range(10):
        sweep(tt, cache, samples, on_update=record)
    cache.refresh_right(0)
    final = cache.losses()[0]
    assert all(np.all(np.isfinite(c)) and c.min() >= 0.0 and c.any() for c in tt.cores)
    rises = np.diff(values)
    assert np.all(rises <= 1e-12 * np.abs(values[:-1]))
    assert final < 0.0 and final == pytest.approx(values[-1], rel=1e-9)
    model = normalize_tt(tt)
    assert model.total_mass() == pytest.approx(1.0, rel=1e-9)
    assert all(np.all(np.isfinite(c)) and c.min() >= 0.0 for c in model.cores)
    if L == 24:
        assert final == pytest.approx(-(4.0 ** (-L / 2)), rel=0.1)


def test_stored_right_grids_of_a_sparse_long_chain():
    # the L = 40 copy-pair set with fewer draws, to bound the oracle's cost: past
    # p = 10 almost every run has one child, so about three grid rows in four are zero
    samples = _copy_pair_samples(40, 1000, seed=40)
    tt = init_tt(40, 10, seed=0)
    cache = EnvCache(tt, samples)
    for p in range(1, 41):
        stored = cache._right[p][0].reshape(-1, tt.bond_dims[p])
        # atol = 0: a (run, symbol) pair that no string has must be exactly zero
        assert np.allclose(stored, brute_right_grid(tt.cores, samples, p), rtol=1e-12, atol=0)
        assert np.count_nonzero(stored.any(axis=1)) == samples.runs.prefix_starts[p].size
    assert stored.shape[0] == 4 * samples.n_distinct


@pytest.mark.parametrize("L, jobs", [(200, 1), (200, 2), (122, 1)])
def test_fit_raises_capacity_error_when_the_self_overlap_overflows(L, jobs):
    # at D = 10 the random start's self overlap overflows float64 from about
    # L = 156; at L = 122 it is finite at the start and overflows in a sweep
    strings = np.unique(np.random.default_rng(0).integers(0, 4, size=(8, L)), axis=0)
    samples = SampleSet(L=L, total=8, strings=strings, counts=[1] * 8)
    config = FitConfig(bond_dim=10, max_sweeps=30, trials=2)
    with pytest.raises(CapacityError, match=f"overflows at L={L}, D=10"):
        fit(samples, config, jobs=jobs)


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(bond_dim=0)
    with pytest.raises(ValidationError):
        FitConfig(max_sweeps=0)
    with pytest.raises(ValidationError):
        FitConfig(trials=0)
    with pytest.raises(ValidationError):
        FitConfig(stop_rtol=-1.0)
    with pytest.raises(ValidationError):
        FitConfig(seed=-1)
    for bad in (float("nan"), float("inf"), 0.0, -1e-16):
        with pytest.raises(ValidationError):
            FitConfig(eps=bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            FitConfig(stop_rtol=bad)
    for bad in (0, -1):
        with pytest.raises(ValidationError):
            map_jobs(abs, [(1,), (2,)], bad)
