"""Property tests: the environment cache, the update, the fit and the quantum fidelity.

Hypothesis draws small chains (L 1..5, D 1..4) and sample sets that include
the shapes the run index treats specially: a single string, strings that all
share a prefix, and strings that all share a suffix. A random valid sequence
of updates and refreshes then runs on the cache, and every step is checked
against brute-force enumeration from oracles.py. ``TTDistribution.evaluate``
is checked string by string on unsorted rows with repeats, one row and no
rows, and the run index on repeated rows. Whole fits are checked
trial by trial against the public single-train calls. The quantum fidelity
is checked on pure arguments, under rounding-level perturbations and against
scipy matrix square roots for d in {2, 4, 8, 16}. The profile registered in
conftest.py derandomizes the draws and caps their number.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_strings,
    brute_left_gram,
    brute_left_overlaps,
    brute_loss,
    brute_right_gram,
    brute_right_grid,
    brute_right_sums,
    brute_update_denom,
    brute_update_numer,
    public_call_trial,
    random_density,
    random_tt_cores,
    sqrtm_fidelity,
    tt_value,
)
import ttomo.fitting
from ttomo.fitting import EnvCache, FitConfig, fit, loss, update_core
from ttomo.metrics import quantum_fidelity
from ttomo.networks import RunIndex, TTDistribution
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
    left = cache.stored_left_overlap_positions
    right = cache.stored_right_overlap_positions
    for p in left:
        assert np.allclose(cache.left_gram(p), brute_left_gram(tt.cores, p), rtol=1e-12, atol=0)
        assert np.allclose(
            cache.left_overlaps(p), brute_left_overlaps(tt.cores, samples, p), rtol=1e-12, atol=0
        )
    for p in right:
        assert np.allclose(cache.right_gram(p), brute_right_gram(tt.cores, p), rtol=1e-12, atol=0)
        assert np.allclose(
            cache.right_sums(p), brute_right_sums(tt.cores, samples, p), rtol=1e-12, atol=0
        )
    for k in range(tt.length):
        if k in left and k + 1 in right:
            numer = brute_update_numer(tt.cores, samples, k)
            denom = brute_update_denom(tt.cores, k)
            assert np.allclose(cache.data_term(k)[0], numer, rtol=1e-12, atol=0)
            assert np.allclose(cache.model_term(k)[0], denom, rtol=1e-12, atol=0)
    if 1 in right:
        assert np.isclose(cache.losses()[0], brute_loss(tt.cores, samples), rtol=1e-12, atol=1e-14)


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
def test_runs_are_the_distinct_prefixes(instance):
    _, samples = instance
    for p in range(samples.L + 1):
        of_row = samples.runs.prefix_of_row(p)
        pairs = {(int(run), tuple(s[:p])) for run, s in zip(of_row, samples.strings)}
        # one run per distinct prefix, numbered 0..m-1
        assert len(pairs) == len({r for r, _ in pairs}) == len({s for _, s in pairs})
        assert {r for r, _ in pairs} == set(range(len(pairs)))


@given(instances())
def test_prefix_slots_are_parent_major_and_distinct(instance):
    _, samples = instance
    prefixes = [sorted({tuple(s[:p]) for s in samples.strings}) for p in range(samples.L + 1)]
    for p in range(1, samples.L + 1):
        parents = prefixes[p - 1]
        expected = [parents.index(prefix[:-1]) * 4 + prefix[-1] for prefix in prefixes[p]]
        slots = samples.runs.prefix_slot[p]
        assert slots.tolist() == expected
        assert len(set(slots.tolist())) == len(slots)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_prefix_slots_of_a_set_holding_every_string_are_arange(L, seed):
    strings = all_strings(L)
    counts = np.random.default_rng(seed).integers(1, 50, size=strings.shape[0])
    samples = SampleSet(L=L, total=int(counts.sum()), strings=strings, counts=counts)
    for p in range(1, L + 1):
        assert np.array_equal(samples.runs.prefix_slot[p], np.arange(4**p))


@given(instances())
def test_stored_right_grids_are_the_right_sums_at_their_parent_major_rows(instance):
    tt, samples = instance
    cache = EnvCache(tt, samples)
    for p in range(1, samples.L + 1):
        stored = cache._right[p][0].reshape(-1, tt.bond_dims[p])
        # atol = 0: a (run, symbol) pair that no string has must be exactly zero
        assert np.allclose(stored, brute_right_grid(tt.cores, samples, p), rtol=1e-12, atol=0)


def _picks_with_a_repeat(samples, data):
    """Sorted row indices into ``samples.strings``, at least one of them twice."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="picks seed"))
    picks = rng.integers(0, samples.n_distinct, size=data.draw(st.integers(1, 60), label="picks"))
    return np.sort(np.append(picks, picks[0]))


@given(instances(), st.data())
def test_evaluate_matches_the_oracle_on_unsorted_repeated_single_and_empty_rows(instance, data):
    tt, samples = instance
    picks = _picks_with_a_repeat(samples, data)
    shuffled = samples.strings[np.random.default_rng(picks.size).permutation(picks)]
    for strings in (shuffled, shuffled[:1], shuffled[:0]):
        values = tt.evaluate(strings)
        assert values.shape == (len(strings),)
        expected = [tt_value(tt.cores, s) for s in strings]
        assert np.allclose(values, expected, rtol=1e-12, atol=0)


@given(instances(), st.data())
def test_runs_of_repeated_rows_end_at_the_distinct_strings(instance, data):
    _, samples = instance
    rows = samples.strings[_picks_with_a_repeat(samples, data)]
    runs = RunIndex(rows)
    distinct = np.unique(rows, axis=0)
    assert np.array_equal(rows[runs.prefix_starts[samples.L]], distinct)
    assert np.array_equal(distinct[runs.prefix_of_row(samples.L)], rows)


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


@st.composite
def dims_and_rngs(draw):
    dim = draw(st.sampled_from([2, 4, 8, 16]))
    return dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@given(dims_and_rngs(), st.data())
def test_fidelity_with_a_pure_state_is_its_expectation_value(instance, data):
    dim, rng = instance
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    sigma = random_density(dim, rng, rank=data.draw(st.integers(1, dim), label="rank"))
    expected = float(np.real(psi.conj() @ sigma @ psi))
    assert abs(quantum_fidelity(pure, sigma).fidelity - expected) <= 1e-13
    assert abs(quantum_fidelity(sigma, pure).fidelity - expected) <= 1e-13


@given(dims_and_rngs(), st.data())
def test_fidelity_ignores_rounding_level_perturbations(instance, data):
    # rho1 has negative eigenvalues, as a reconstruction can; its eigenvalues
    # stay away from zero, where the square root itself is not Lipschitz
    dim, rng = instance
    negative = data.draw(st.integers(1, dim - 1), label="negative eigenvalues")
    vals = rng.uniform(0.05, 1.0, size=dim) * np.where(np.arange(dim) < negative, -0.2, 1.0)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho1 = (basis * vals) @ basis.conj().T
    noise = rng.uniform(-1.0, 1.0, size=(dim, dim))
    rho2 = random_density(dim, rng)
    before = quantum_fidelity(rho1, rho2).fidelity
    after = quantum_fidelity(rho1 + 1e-16 * (noise + noise.T) / 2.0, rho2).fidelity
    assert abs(after - before) <= 1e-13


@given(dims_and_rngs())
def test_fidelity_of_full_rank_pairs_matches_the_sqrtm_oracle(instance):
    dim, rng = instance
    rho1, rho2 = random_density(dim, rng), random_density(dim, rng)
    assert abs(quantum_fidelity(rho1, rho2).fidelity - sqrtm_fidelity(rho1, rho2)) <= 1e-10
