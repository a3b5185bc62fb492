"""Property tests: the environment cache, the update and the fit against the oracles.

Hypothesis draws small chains (L 1..5, D 1..4) and sample sets that include
the shapes the run index treats specially: a single string, strings that all
share a prefix, and strings that all share a suffix. A random valid sequence
of updates and refreshes then runs on the cache, and every step is checked
against brute-force enumeration from oracles.py. Whole fits are checked
trial by trial against the public single-train calls. The profile
registered in conftest.py derandomizes the draws and caps their number.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_left_gram,
    brute_left_overlaps,
    brute_loss,
    brute_right_gram,
    brute_right_overlaps,
    brute_update_denom,
    brute_update_numer,
    public_call_trial,
    random_tt_cores,
)
import ttomo.fitting
from ttomo.fitting import EnvCache, FitConfig, fit, loss, update_core
from ttomo.networks import TTDistribution
from ttomo.sampling import SampleSet

EPS = 1e-16


@st.composite
def instances(draw):
    L = draw(st.integers(1, 5))
    bond_dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["random", "single", "shared prefix", "shared suffix"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 if shape == "single" else draw(st.integers(2, 40))
    rows = rng.integers(0, 4, size=(n, L))
    cut = draw(st.integers(1, L))
    if shape == "shared prefix":
        rows[:, :cut] = rows[0, :cut]
    elif shape == "shared suffix":
        rows[:, L - cut :] = rows[0, L - cut :]
    strings = np.unique(rows.astype(np.uint8), axis=0)
    counts = rng.integers(1, 50, size=strings.shape[0])
    samples = SampleSet(L=L, total=int(counts.sum()), strings=strings, counts=counts)
    tt = TTDistribution(random_tt_cores(L, bond_dim, rng))
    return tt, samples


def _valid_ops(cache, L):
    left = max(cache.stored_left_overlap_positions)
    right = min(cache.stored_right_overlap_positions)
    ops = [("update", k) for k in range(L) if k <= left and k + 1 >= right]
    ops += [("refresh_left", k) for k in range(L) if k <= left]
    ops += [("refresh_right", k) for k in range(L) if k + 1 >= right]
    return ops


def _check_cache(cache, tt, samples):
    for p in cache.stored_left_overlap_positions:
        assert np.allclose(cache.left_gram(p), brute_left_gram(tt.cores, p), rtol=1e-12, atol=0)
        assert np.allclose(
            cache.left_overlaps(p), brute_left_overlaps(tt.cores, samples, p), rtol=1e-12, atol=0
        )
    for p in cache.stored_right_overlap_positions:
        assert np.allclose(cache.right_gram(p), brute_right_gram(tt.cores, p), rtol=1e-12, atol=0)
        assert np.allclose(
            cache.right_overlaps(p), brute_right_overlaps(tt.cores, samples, p), rtol=1e-12, atol=0
        )


@given(instances(), st.data())
def test_random_update_and_refresh_sequences_match_the_oracles(instance, data):
    tt, samples = instance
    L = tt.length
    cache = EnvCache(tt, samples)
    _check_cache(cache, tt, samples)
    assert np.isclose(loss(tt, samples), brute_loss(tt.cores, samples), rtol=1e-12, atol=1e-14)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        op, k = data.draw(st.sampled_from(_valid_ops(cache, L)), label="op")
        if op == "update":
            numer = brute_update_numer(tt.cores, samples, k)
            denom = brute_update_denom(tt.cores, k)
            expected = tt.cores[k] * numer / (denom + EPS)
            before = loss(tt, samples)
            self_term = float(np.sum(denom * tt.cores[k]))
            update_core(tt, cache, samples, k, eps=EPS)
            assert np.allclose(tt.cores[k], expected, rtol=1e-10, atol=0)
            assert loss(tt, samples) <= before + 1e-12 * (self_term + abs(before))
        else:
            getattr(cache, op)(k)
        _check_cache(cache, tt, samples)


@given(instances())
def test_runs_are_the_distinct_prefixes_and_suffixes(instance):
    _, samples = instance
    runs = samples.runs
    for p in range(samples.L + 1):
        for of_row, part in (
            (runs.prefix_of_row(p), lambda s: tuple(s[:p])),
            (runs.suffix_of_row[p], lambda s: tuple(s[p:])),
        ):
            pairs = {(int(run), part(s)) for run, s in zip(of_row, samples.strings)}
            # one run per distinct prefix (suffix), numbered 0..m-1
            assert len(pairs) == len({r for r, _ in pairs}) == len({s for _, s in pairs})
            assert {r for r, _ in pairs} == set(range(len(pairs)))


@st.composite
def fits(draw):
    L = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 4, size=(draw(st.integers(1, 40)), L))
    strings = np.unique(rows.astype(np.uint8), axis=0)
    counts = rng.integers(1, 50, size=strings.shape[0])
    samples = SampleSet(L=L, total=int(counts.sum()), strings=strings, counts=counts)
    config = FitConfig(
        bond_dim=draw(st.integers(1, 4)),
        max_sweeps=draw(st.integers(1, 30)),
        stop_window=draw(st.integers(1, 5)),
        # from a rule that fires on the first windows to one that never fires
        stop_rtol=draw(st.sampled_from([1e-1, 1e-3, 1e-6, 0.0])),
        trials=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 1000)),
    )
    return samples, config


def _same_trial(trial, tt, losses, converged):
    assert trial.converged == converged
    assert np.array_equal(trial.losses, losses)
    assert all(np.array_equal(a, b) for a, b in zip(trial.tt.cores, tt.cores))


@settings(max_examples=20)
@given(fits())
def test_every_trial_of_a_fit_equals_the_public_call_sequence(instance):
    samples, config = instance
    result = fit(samples, config)
    assert [t.trial for t in result.trials] == list(range(config.trials))
    for trial in result.trials:
        assert trial.seed == config.seed + trial.trial
        _same_trial(trial, *public_call_trial(samples, config, trial.seed))
    # a budget of one float makes every trial its own block
    with mock.patch.object(ttomo.fitting, "_BLOCK_FLOATS", 1):
        alone = fit(samples, config)
    for trial, other in zip(result.trials, alone.trials):
        _same_trial(trial, other.tt, other.losses, other.converged)
