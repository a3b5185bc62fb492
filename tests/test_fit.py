"""Multiplicative-update fitting: environments, updates, sweeps, trials.

The environment cache and the update rule are checked against brute-force
enumeration from oracles.py, and the loss against its closed-form optimum.
"""

import numpy as np
import pytest

from oracles import (
    after_each_update,
    assert_cache_matches_oracles,
    brute_loss,
    brute_right_grid,
    brute_update_denom,
    brute_update_numer,
    dense_sample_vector,
    dense_tt_vector,
    exact_infidelity,
    prefix_vector,
    public_call_trial,
    random_tt_cores,
)
import oracles
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
from ttomo.networks import TTDistribution, matricized
from ttomo.povm import tetrahedral_povm
from ttomo.sampling import SampleSet, split_train_test
from ttomo.states import XxzParams, exact_outcome_distribution, synth_target
from ttomo.storage import load_tensor, save_tensor


def _random_instance(L, bond_dim, n, seed):
    rng = np.random.default_rng(seed)
    tt = TTDistribution([c.copy() for c in random_tt_cores(L, bond_dim, rng)])
    dist = rng.uniform(0.05, 1.0, size=4**L)
    dist /= dist.sum()
    samples = split_train_test(dist, n, seed=seed + 1)[0]
    return tt, samples


def _cache_with_left_to(tt, samples, k):
    """A fresh cache with its left side refreshed up to position k, as ``update_core(k)`` needs."""
    cache = EnvCache(tt, samples)
    for j in range(k):
        cache.refresh_left(j)
    return cache


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


@pytest.mark.parametrize(
    "args, message",
    [
        ((3.0, 2, 0), "L must be an integer, got 3.0"),
        ((3, 2.5, 0), "bond_dim must be an integer, got 2.5"),
        ((3, 2, 0.5), "seed must be an integer, got 0.5"),
        ((3, 2, -1), "seed must be >= 0, got -1"),
        ((0, 2, 0), "L must be >= 1, got 0"),
        ((3, 0, 0), "bond_dim must be >= 1, got 0"),
        ((True, 2, 0), "L must be an integer, got True"),
        ((3, 2, False), "seed must be an integer, got False"),
    ],
)
def test_init_tt_rejects_a_non_integer_or_negative_argument(args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        init_tt(*args)


def test_init_tt_accepts_numpy_integers():
    a = init_tt(np.uint8(8), np.int64(10), np.uint8(3))
    b = init_tt(8, 10, 3)
    assert a.bond_dims == b.bond_dims == (1, 4, 10, 10, 10, 10, 10, 4, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))


@pytest.mark.parametrize("L,bond_dim", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_cache_matches_brute_force_everywhere(L, bond_dim):
    tt, samples = _random_instance(L, bond_dim, 200, seed=10 * L + bond_dim)
    cache = _cache_with_left_to(tt, samples, L - 1)
    # every position an update reads: left 0..L-1, right 1..L
    assert cache.stored_left_overlap_positions == list(range(L))
    assert cache.stored_right_overlap_positions == list(range(1, L + 1))
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=1e-14)


def test_cache_invalidation_tracks_core_changes():
    tt, samples = _random_instance(4, 3, 100, seed=21)
    cache = _cache_with_left_to(tt, samples, 3)
    # a core index outside 0..L-1 fails the left check (k < 0 or k = L)
    for k in (-1, 4):
        with pytest.raises(IndexError):
            update_core(tt, cache, samples, k)
    # no update reads left position L or right position 0, so no refresh builds them
    with pytest.raises(IndexError, match="outside 0..2"):
        cache.refresh_left(3)
    with pytest.raises(IndexError, match="outside 1..3"):
        cache.refresh_right(0)
    tt.cores[2][:] *= 1.7
    cache.note_core_changed(2)
    assert cache.stored_left_overlap_positions == [0, 1, 2]
    assert cache.stored_right_overlap_positions == [3, 4]
    # core 3 reads left position 3, core 1 right position 2; both are invalid now
    for k in (3, 1):
        with pytest.raises(IndexError):
            update_core(tt, cache, samples, k)
    with pytest.raises(IndexError):
        cache.refresh_left(3)
    with pytest.raises(IndexError):
        cache.refresh_right(1)
    # still-valid reads are unaffected and match brute force on the new cores
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=1e-14)
    cache.refresh_left(2)
    cache.refresh_right(2)
    assert cache.stored_left_overlap_positions == [0, 1, 2, 3]
    assert cache.stored_right_overlap_positions == [2, 3, 4]
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=1e-14)


def test_cache_stays_coherent_through_a_sweep():
    tt, samples = _random_instance(3, 2, 150, seed=33)
    cache = EnvCache(tt, samples)
    seen = []

    def check(k, _):
        # after the update of core k, before the refresh that follows it; the
        # next update's check, and the last one below, see that refresh
        seen.append(k)
        assert_cache_matches_oracles(cache, samples, rtol=1e-10, atol=1e-14)

    with after_each_update(check):
        sweep(tt, cache, samples, eps=1e-16)
    assert seen == [0, 1, 2, 1]
    assert_cache_matches_oracles(cache, samples, rtol=1e-10, atol=1e-14)


def test_update_matches_brute_force_factors():
    for seed in range(5):
        tt, samples = _random_instance(3, 2, 120, seed=50 + seed)
        k = seed % 3
        numer = brute_update_numer(tt.cores, samples, k)
        denom = brute_update_denom(tt.cores, k)
        expected = tt.cores[k] * numer / (denom + 1e-16)
        cache = _cache_with_left_to(tt, samples, k)
        update_core(tt, cache, samples, k, eps=1e-16)
        assert np.allclose(tt.cores[k], expected, rtol=1e-10, atol=1e-14)


def test_update_never_increases_loss():
    for seed in range(8):
        tt, samples = _random_instance(3, 3, 80, seed=70 + seed)
        before = loss(tt, samples)
        cache = _cache_with_left_to(tt, samples, seed % 3)
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


def _stack(L, bond_dim, seeds):
    inits = [init_tt(L, bond_dim, seed).cores for seed in seeds]
    return ttomo.fitting._TrialStack([np.stack(cores) for cores in zip(*inits)])


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_update_is_its_ratio_formula_bit_for_bit(k, stacked):
    # update_core runs mat * (numer / (denom + eps * scale)) in place on the cache's
    # fresh terms; the same IEEE operations give the same bits. In the stack, trial 1's
    # core k is zero, so its model term is zero everywhere and its scale falls back to 1
    _, samples = _random_instance(3, 3, 120, seed=84)
    tt = _stack(3, 3, range(3)) if stacked else init_tt(3, 3, seed=4)
    if stacked:
        tt.cores[k][1] = 0.0
    cache = _cache_with_left_to(tt, samples, k)
    numer, denom, mat = (a.copy() for a in cache._terms(k))
    scale = denom.max(axis=(1, 2), keepdims=True)
    assert (scale.ravel() == 0.0).tolist() == ([False, True, False] if stacked else [False])
    scale[scale == 0.0] = 1.0
    eps = 1e-3  # large enough that the shift shows in every entry
    expected = mat * (numer / (denom + eps * scale))
    core = update_core(tt, cache, samples, k, eps)
    assert matricized(core).tobytes() == expected.tobytes()


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "kept-stack"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_update_after_a_hand_edit_equals_a_fresh_caches(k, stacked):
    # the cache keeps core 0's update terms (losses()), each core's bond-major matrix and
    # each left refresh's Gram product; editing core k must drop what depends on it, and
    # keep_trials must slice the rest
    _, samples = _random_instance(3, 3, 120, seed=81)
    if stacked:
        tt = _stack(3, 3, range(4))
        cache = EnvCache(tt, samples)
        sweep(tt, cache, samples)
        cache.keep_trials([0, 2, 3])
        for j in range(k):
            cache.refresh_left(j)
    else:
        tt = init_tt(3, 3, seed=5)
        cache = _cache_with_left_to(tt, samples, k)
    cache.losses()
    edited = tt.cores[k].copy()  # a new array, so no matrix the cache kept can alias it
    edited[..., 1, :, :] *= 1.7
    tt.cores[k] = edited
    cache.note_core_changed(k)
    fresh = type(tt)([core.copy() for core in tt.cores])
    update_core(tt, cache, samples, k)
    update_core(fresh, _cache_with_left_to(fresh, samples, k), samples, k)
    assert tt.cores[k].tobytes() == fresh.cores[k].tobytes()


def test_note_core_changed_reads_the_core_at_once():
    # the edited core is re-read when noted, and tt.cores[k] becomes a view of the cache's
    # M_k; noting an in-place edit of that view again copies nothing
    tt, samples = _random_instance(3, 3, 120, seed=85)
    cache = EnvCache(tt, samples)
    edited = tt.cores[1] * 1.5
    tt.cores[1] = edited
    cache.note_core_changed(1)
    assert tt.cores[1] is not edited and np.array_equal(tt.cores[1], edited)
    mat = cache._mats[1]
    assert np.shares_memory(tt.cores[1], mat)
    edited[:] = 0.0  # the old array is no longer read
    tt.cores[1][0] *= 2.0
    cache.note_core_changed(1)
    assert np.shares_memory(cache._mats[1], mat)
    cache.refresh_left(0)
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=1e-14)


def test_kept_trials_read_the_losses_they_had():
    _, samples = _random_instance(3, 3, 120, seed=82)
    stack = _stack(3, 3, range(4))
    cache = EnvCache(stack, samples)
    sweep(stack, cache, samples)
    before = cache.losses()
    cache.keep_trials([0, 2, 3])
    assert np.array_equal(cache.losses(), before[[0, 2, 3]])
    # the next sweep's first update reads the kept terms
    sweep(stack, cache, samples)
    alone = init_tt(3, 3, seed=2)
    alone_cache = EnvCache(alone, samples)
    for _ in range(2):
        sweep(alone, alone_cache, samples)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stack.train(1).cores, alone.cores))


def test_updated_cores_look_like_plain_cores(tmp_path):
    # update_core stores each core as a view of its bond-major matrix
    tt, samples = _random_instance(4, 3, 150, seed=83)
    cache = EnvCache(tt, samples)
    sweep(tt, cache, samples)
    update_core(tt, cache, samples, 0)
    assert not all(core.flags.c_contiguous for core in tt.cores)
    for k, core in enumerate(tt.cores):
        assert core.shape == (4, tt.bond_dims[k], tt.bond_dims[k + 1])
        assert core.min() >= 0.0
    save_tensor(tmp_path / "tt.tt", tt)
    back = load_tensor(tmp_path / "tt.tt")
    assert all(a.tobytes() == b.tobytes() for a, b in zip(tt.cores, back.cores))
    result = fit(samples, FitConfig(bond_dim=3, trials=3, max_sweeps=3))
    assert all(core.flags.c_contiguous for trial in result.trials for core in trial.tt.cores)


def test_a_cache_refuses_a_sample_set_of_another_length():
    tt, _ = _random_instance(3, 2, 50, seed=90)
    samples = _random_instance(4, 2, 50, seed=91)[1]
    with pytest.raises(ValidationError, match="^sample length 4 does not match train length 3$"):
        EnvCache(tt, samples)


def test_update_rejects_a_train_other_than_the_caches():
    # a sample set other than the cache's is refused too: the cache's terms fit only its own
    tt, samples = _random_instance(3, 2, 50, seed=90)
    cache = EnvCache(tt, samples)
    other = tt.copy()
    other_set = _random_instance(3, 2, 50, seed=91)[1]
    for train, sample_set, message in [
        (other, samples, "the train its cache was built on"),
        (tt, other_set, "the sample set its cache was built on"),
    ]:
        with pytest.raises(ValidationError, match=message):
            update_core(train, cache, sample_set, 1)
        assert all(np.array_equal(a, b) for a, b in zip(other.cores, tt.cores))
        assert cache.stored_left_overlap_positions == [0]
        assert cache.stored_right_overlap_positions == [1, 2, 3]


def test_update_preserves_zero_support():
    tt, samples = _random_instance(2, 2, 60, seed=90)
    tt.cores[0][1, 0, :] = 0.0
    cache = EnvCache(tt, samples)
    update_core(tt, cache, samples, 0, eps=1e-16)
    assert np.all(tt.cores[0][1, 0, :] == 0.0)
    # a core that is zero everywhere has a zero model term; it stays zero
    tt.cores[1][:] = 0.0
    update_core(tt, _cache_with_left_to(tt, samples, 1), samples, 1, eps=1e-16)
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
    cache = _cache_with_left_to(tt, samples, L - 1)
    for p in range(L):
        # each run's left environment is that of its first string
        for env, start in zip(cache._left_env[p][0], samples.runs.prefix_starts[p]):
            assert np.allclose(env, prefix_vector(tt.cores, strings[start], p), rtol=1e-12)
    for p in range(1, L + 1):
        grid = brute_right_grid(tt.cores, samples, p)
        assert np.allclose(cache._right[p][0].reshape(grid.shape), grid, rtol=1e-12)


def test_single_site_update_lands_on_frequencies():
    # with L=1, D=1 the quadratic loss is separable; one update solves it
    dist = np.array([0.4, 0.3, 0.2, 0.1])
    samples = split_train_test(dist, 5000, seed=101)[0]
    tt = TTDistribution([np.full((4, 1, 1), 0.25)])
    cache = EnvCache(tt, samples)
    update_core(tt, cache, samples, 0, eps=1e-16)
    freq = np.zeros(4)
    freq[samples.strings[:, 0]] = samples.weights
    assert np.allclose(tt.cores[0][:, 0, 0], freq, rtol=1e-10)


def test_sweep_visits_cores_in_dmrg_order():
    tt, samples = _random_instance(4, 2, 50, seed=110)
    cache = EnvCache(tt, samples)
    order = []
    with after_each_update(lambda k, _: order.append(k)):
        sweep(tt, cache, samples, eps=1e-16)
    assert order == [0, 1, 2, 3, 2, 1]


def test_sweep_single_site_chain():
    tt, samples = _random_instance(1, 1, 40, seed=111)
    cache = EnvCache(tt, samples)
    order = []
    with after_each_update(lambda k, _: order.append(k)):
        sweep(tt, cache, samples, eps=1e-16)
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


def test_a_fresh_cache_holds_left_position_zero_and_the_whole_right_side():
    tt, samples = _random_instance(4, 3, 200, seed=196)
    cache = EnvCache(tt, samples)
    assert cache.stored_left_overlap_positions == [0]
    assert cache.stored_right_overlap_positions == [1, 2, 3, 4]
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=1e-14)
    # loss() reads a fresh cache; a fully refreshed left side does not change it
    full = _cache_with_left_to(tt, samples, 3)
    assert loss(tt, samples) == full.losses()[0]


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
    samples = split_train_test(dist, 100, seed=140)[0]
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
    samples = split_train_test(dist, 2000, seed=160)[0]
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
        # a Python bool, as json.dumps needs, whichever way the trial stopped
        assert type(a.converged) is bool and type(b.converged) is bool
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


def test_fit_parallel_matches_sequential_when_trials_stop():
    # trial 1 meets the stop rule inside the first worker's block while trial 0 runs on
    _, samples = _random_instance(3, 3, 3000, seed=181)
    config = FitConfig(bond_dim=3, max_sweeps=120, stop_rtol=3e-4, trials=4, seed=3)
    assert trial_blocks(4, 3, _widest_grid(samples), jobs=2) == [range(0, 2), range(2, 4)]
    sequential = fit(samples, config, jobs=1)
    stops = [(t.sweeps_run, t.converged) for t in sequential.trials[:2]]
    assert stops == [(120, False), (91, True)]
    _assert_same_trials(sequential.trials, fit(samples, config, jobs=2).trials)


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
    samples = split_train_test(dist, 3000, seed=210 + L)[0]
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


def _public_calls(run):
    """The ``update_core`` and ``refresh_*`` calls ``run()`` makes outside ``EnvCache.__init__``."""
    calls, building = [], []
    init = EnvCache.__init__

    def build(self, *args):
        building.append(self)
        try:
            init(self, *args)
        finally:
            building.pop()

    def refresh(name, method):
        def call(self, k):
            if not building:
                calls.append((name, k))
            method(self, k)

        return call

    def update(tt, cache, samples, k, eps):
        calls.append(("update_core", k))
        return update_core(tt, cache, samples, k, eps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EnvCache, "__init__", build)
        for name in ("refresh_left", "refresh_right"):
            patch.setattr(EnvCache, name, refresh(name, getattr(EnvCache, name)))
        patch.setattr(ttomo.fitting, "update_core", update)
        patch.setattr(oracles, "update_core", update)
        run()
    return calls


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_fit_makes_the_public_call_sequence(L):
    # fit's sweeps make exactly the calls of the public-call replay, and no refresh at L = 1
    _, samples = _random_instance(L, 2, 300, seed=220 + L)
    config = FitConfig(bond_dim=2, max_sweeps=5, trials=1, seed=1)
    fitted = _public_calls(lambda: fit(samples, config))
    replayed = _public_calls(lambda: public_call_trial(samples, config, config.seed))
    assert len(fitted) == 5 * (1 if L == 1 else 4 * (L - 1))
    assert fitted == replayed


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

    def record(k, cache):
        # the loss after the update at k, from that update's quadratic form
        numer, denom, mat = cache._terms(k)
        values.append(float(np.sum(mat * (denom - 2.0 * numer))))

    with after_each_update(record):
        for _ in range(10):
            sweep(tt, cache, samples)
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


def test_loss_raises_the_capacity_error_of_fit_when_the_self_overlap_overflows():
    # the set of the L = 200 fit above; at L = 122 the random start is still finite
    strings = np.unique(np.random.default_rng(0).integers(0, 4, size=(8, 200)), axis=0)
    samples = SampleSet(L=200, total=8, strings=strings, counts=[1] * 8)
    tt = init_tt(200, 10, 0)
    with pytest.raises(CapacityError, match="overflows at L=200, D=10"):
        loss(tt, samples)
    # EnvCache leaves the float state to its caller, as fit and loss set it
    with np.errstate(over="ignore", invalid="ignore"):
        cache = EnvCache(tt, samples)
        with pytest.raises(CapacityError, match="overflows at L=200, D=10"):
            cache.losses()


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
    # a count that is not an integer is named, not left to crash the fit
    counts = {"max_sweeps": 5.0, "bond_dim": 2.5, "trials": 2.0, "stop_window": 2.5, "seed": 1.5}
    for name, bad in counts.items():
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            FitConfig(**{name: bad})
    # a bool is not a count, though Python's int accepts it
    for name in counts:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got True$"):
            FitConfig(**{name: True})
    # numpy integers are counts too, unsigned ones included
    config = FitConfig(bond_dim=np.int64(3), max_sweeps=np.int32(2), trials=np.uint8(2))
    assert [t.sweeps_run for t in fit(_random_instance(2, 3, 50, seed=5)[1], config).trials] == [2, 2]
    for bad in (float("nan"), float("inf"), 0.0, -1e-16):
        with pytest.raises(ValidationError):
            FitConfig(eps=bad)
    # a float setting must be a real number: not a string, None, a complex number or a bool
    for name in ("eps", "stop_rtol"):
        for bad in ("a", None, 1e-8j, True):
            message = f"^{name} must be a real number, got {bad!r}$"
            with pytest.raises(ValidationError, match=message):
                FitConfig(**{name: bad})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            FitConfig(stop_rtol=bad)
    for bad in (0, -1):
        with pytest.raises(ValidationError):
            map_jobs(abs, [(1,), (2,)], bad)


@pytest.mark.parametrize(
    "jobs, message",
    [(2.0, "jobs must be an integer, got 2.0"), ("2", "jobs must be an integer, got '2'"),
     (0, "jobs must be >= 1, got 0"), (-1, "jobs must be >= 1, got -1"),
     (True, "jobs must be an integer, got True")],
    ids=["float", "str", "zero", "negative", "bool"],
)
def test_fit_rejects_a_bad_job_count_before_planning_blocks(monkeypatch, jobs, message):
    def unreachable(*args):
        raise AssertionError("a block was planned")

    monkeypatch.setattr(ttomo.fitting, "trial_blocks", unreachable)
    samples = SampleSet(L=1, total=4, strings=[[0], [1], [2]], counts=[2, 1, 1])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        fit(samples, FitConfig(bond_dim=1, max_sweeps=2, trials=2), jobs=jobs)


@pytest.mark.parametrize("L", [1, 2, 5])
def test_a_trial_stack_has_the_length_and_bonds_of_each_of_its_trains(L):
    stack = _stack(L, 3, range(3))
    for t in range(3):
        train = stack.train(t)
        assert (stack.length, stack.bond_dims) == (train.length, train.bond_dims)


@pytest.fixture(scope="module")
def l6_ideal():
    return exact_outcome_distribution(synth_target(XxzParams(L=6, p=0.6)), tetrahedral_povm())


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_the_fit_compresses_what_the_histogram_cannot(l6_ideal, seed):
    # 1e4 draws over 4096 strings: the raw frequencies are far from the ideal (measured
    # 8.1e-2 to 8.3e-2), and the bond-capped train is about 9x closer (8.4e-3 to 9.7e-3)
    train, _ = split_train_test(l6_ideal, 10_000, seed)
    best = fit(train, FitConfig(trials=2, max_sweeps=300, seed=seed)).best
    fitted = exact_infidelity(dense_tt_vector(normalize_tt(best.tt).cores), l6_ideal)
    histogram = exact_infidelity(dense_sample_vector(train), l6_ideal)
    assert histogram > 3.0 * fitted
