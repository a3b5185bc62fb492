"""Property tests: the environment cache, the update, the fit and the quantum fidelity.

Hypothesis draws small chains (L 1..5, D 1..4) and sample sets that include
the shapes the run index treats specially: a single string, strings that all
share a prefix, strings that all share a suffix, and every string of length
L <= 3 with a few rows dropped or none, whose full levels store the right
refresh's output as their grid without a scatter. A random valid sequence
of updates and refreshes then runs on the cache, and every step is checked
against brute-force enumeration from oracles.py. ``TTDistribution.evaluate``
is checked string by string on unsorted rows with repeats, one row and no
rows, and the run index on repeated rows; a sample set's own runs give
``evaluate``'s values bit for bit. Whole fits, on random sets and on sets
of every string, are checked trial by trial against the public single-train
calls. The quantum fidelity is checked on pure arguments, under
rounding-level perturbations and against scipy matrix square roots for d in
{2, 4, 8, 16}, on real, complex and mixed pairs of any rank; identical
basis-state arguments give exactly 1. ``score`` reports, for random trains
of L 1..4 against real and complex targets, the values of the separate
``reconstruct``, ``quantum_fidelity`` and ``classical_fidelity`` calls bit
for bit, and ``eigvalsh``'s smallest eigenvalue. ``mpo_to_dense`` is checked
entry by entry on complex chains of L 1..5 and bonds 1..4. The text codecs
must write the per-record formatter's bytes for sample sets of L 1..12 with
totals up to 2^63 - 1 and for trains and operator chains, and read them back
exactly; a source label or a non-finite entry that the reader would refuse is
refused before any file is opened. Respelled, corrupted and random sample
bodies must read as the per-line parser reads them, naming the same line. The
profile registered in conftest.py derandomizes the draws and caps their
number.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_strings,
    assert_cache_matches_oracles,
    brute_loss,
    brute_mpo_dense,
    brute_right_grid,
    brute_update_denom,
    brute_update_numer,
    public_call_trial,
    random_density,
    random_tt_cores,
    reference_samples_body,
    reference_samples_text,
    reference_tensor_text,
    sqrtm_fidelity,
    tt_value,
)
import ttomo.fitting
import ttomo.sampling
from ttomo.density import mpo_to_dense, reconstruct
from ttomo.errors import DataFormatError, ValidationError
from ttomo.fitting import EnvCache, FitConfig, fit, loss, update_core
from ttomo.metrics import classical_fidelity, quantum_fidelity, score
from ttomo.networks import MpoDensity, RunIndex, TTDistribution
from ttomo.povm import tetrahedral_povm
from ttomo.sampling import SampleSet, load_samples, save_samples, split_train_test
from ttomo.states import exact_outcome_distribution
from ttomo.storage import load_tensor, save_tensor

EPS = 1e-16


def _with_counts(strings, rng):
    """A sample set of the sorted distinct ``strings`` with random multiplicities."""
    counts = rng.integers(1, 50, size=strings.shape[0])
    return SampleSet(L=strings.shape[1], total=int(counts.sum()), strings=strings, counts=counts)


@st.composite
def instances(draw):
    shape = draw(
        st.sampled_from(["random", "single", "shared prefix", "shared suffix", "complete"])
    )
    # 3 first: hypothesis leans to the first choice, and L = 3 has a full interior level
    L = draw(st.sampled_from([3, 2, 1]) if shape == "complete" else st.integers(1, 5))
    bond_dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "complete":
        # every level is full, up to the levels that lose a dropped row
        strings = all_strings(L)
        dropped = rng.choice(strings.shape[0], size=draw(st.integers(0, 3)), replace=False)
        strings = np.delete(strings, dropped, axis=0)
    else:
        n = 1 if shape == "single" else draw(st.integers(2, 40))
        rows = rng.integers(0, 4, size=(n, L))
        cut = draw(st.integers(1, L))
        if shape == "shared prefix":
            rows[:, :cut] = rows[0, :cut]
        elif shape == "shared suffix":
            rows[:, L - cut :] = rows[0, L - cut :]
        strings = np.unique(rows.astype(np.uint8), axis=0)
    samples = _with_counts(strings, rng)
    tt = TTDistribution(random_tt_cores(L, bond_dim, rng))
    return tt, samples


def _valid_ops(cache, L):
    left = max(cache.stored_left_overlap_positions)
    right = min(cache.stored_right_overlap_positions)
    ops = [("update", k) for k in range(L) if k <= left and k + 1 >= right]
    ops += [("refresh_left", k) for k in range(L - 1) if k <= left]
    ops += [("refresh_right", k) for k in range(1, L) if k + 1 >= right]
    return ops


def _check_cache(cache, tt, samples):
    assert_cache_matches_oracles(cache, samples, rtol=1e-12, atol=0)
    if 1 in cache.stored_right_overlap_positions:
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
    samples = _with_counts(all_strings(L), np.random.default_rng(seed))
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


@given(instances())
def test_values_on_a_sample_sets_runs_are_evaluates_bit_for_bit(instance):
    tt, samples = instance
    assert np.array_equal(tt.run_values(samples.runs), tt.evaluate(samples.strings))


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
    if draw(st.booleans(), label="every string"):
        strings = all_strings(L)  # every level full
    else:
        rows = rng.integers(0, 4, size=(draw(st.integers(1, 40)), L))
        strings = np.unique(rows.astype(np.uint8), axis=0)
    samples = _with_counts(strings, rng)
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


# How each argument of a quantum fidelity is given: a float64 matrix, the same
# matrix as complex128 with an exactly zero imaginary part, or a complex one.
_KINDS = ("real", "real as complex", "complex")


def _density_of_kind(kind, dim, rng, rank):
    rho = random_density(dim, rng, rank, real=kind != "complex")
    return rho.astype(complex) if kind == "real as complex" else rho


@given(dims_and_rngs(), st.data())
def test_fidelity_of_real_complex_and_mixed_pairs_matches_the_sqrtm_oracle(instance, data):
    # a rank-deficient argument leaves scipy's sqrtm square roots of rounding
    # noise, good to about 2e-8 (3000 random pairs), so the bound is looser there
    dim, rng = instance
    pair = []
    for side in ("rho1", "rho2"):
        kind = data.draw(st.sampled_from(_KINDS), label=f"{side} kind")
        rank = data.draw(st.integers(1, dim), label=f"{side} rank")
        pair.append((_density_of_kind(kind, dim, rng, rank), rank))
    (rho1, rank1), (rho2, rank2) = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)  # sqrtm of a singular matrix
        expected = sqrtm_fidelity(rho1, rho2)
    bound = 1e-10 if rank1 == rank2 == dim else 1e-7
    assert abs(quantum_fidelity(rho1, rho2).fidelity - expected) <= bound


@given(dims_and_rngs(), st.data())
def test_identical_pure_basis_arguments_give_exactly_one(instance, data):
    # a phase times a basis vector: every eigenpair is exact in either arithmetic
    dim, rng = instance
    k = data.draw(st.integers(0, dim - 1), label="basis vector")
    phase = data.draw(st.sampled_from([1.0, -1.0, 1j, -1j]), label="phase")
    kind = data.draw(st.sampled_from(_KINDS), label="kind")
    psi = np.zeros(dim, dtype=complex)
    psi[k] = phase
    pure = np.outer(psi, psi.conj())
    pure = pure.real if kind == "real" else pure
    result = quantum_fidelity(pure, pure)
    assert result.fidelity == 1.0 and result.clipped_mass == 0.0


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
def test_score_reports_the_separate_calls_values(L, bond_dim, real, draws, seed):
    rng = np.random.default_rng(seed)
    tt = TTDistribution(random_tt_cores(L, bond_dim, rng))
    rho = random_density(2**L, rng, real=real)
    dist = exact_outcome_distribution(rho, tetrahedral_povm())
    test = split_train_test(dist, draws, seed)[0]
    report = score(tt, rho, dist, test)
    model, rho_hat = reconstruct(tt, tetrahedral_povm())
    fq = quantum_fidelity(rho_hat, rho)
    fc = classical_fidelity(model, dist, test)
    expected = [fq.fidelity, fq.infidelity, fq.clipped_mass, fc.fidelity, fc.infidelity]
    assert [report[k] for k in ("f_q", "i_q", "clipped_mass", "f_c", "i_c")] == expected
    smallest = np.linalg.eigvalsh((rho_hat + rho_hat.conj().T) / 2.0)[0]
    assert abs(report["min_eigenvalue"] - smallest) <= 1e-12 * abs(smallest)


@st.composite
def complex_chains(draw):
    """Operator chains of L 1..5 and bonds 1..4 with complex normal entries."""
    L, bond_dim = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [1] + [bond_dim] * (L - 1) + [1]
    shapes = [(2, 2, dims[p], dims[p + 1]) for p in range(L)]
    return MpoDensity([rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes])


@given(complex_chains())
def test_mpo_to_dense_matches_the_entrywise_oracle(mpo):
    expected = brute_mpo_dense(mpo.cores)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(mpo_to_dense(mpo), expected, rtol=1e-13, atol=1e-13 * scale)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codecs")


# Any text, or a label from each side of the rule a sample file's source obeys; either may
# follow a space, which a header line would drop.
_TEXT = st.text() | st.sampled_from(["", "-", "run 2", "a\nb", "tab\t", "\x7f", "\u00e9", "\u2028"])
_ANY_LABEL = _TEXT | _TEXT.map(" {}".format)


@st.composite
def sample_set_fields(draw, min_distinct=0, sources=_ANY_LABEL):
    """SampleSet's arguments: L 1..12, counts from 1 up to a total of 2^63 - 1, and a
    ``source`` label from ``sources``."""
    L = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 4, size=(draw(st.integers(min_distinct, 60)), L))
    strings = np.unique(rows.astype(np.uint8), axis=0)
    n = strings.shape[0]
    scale = draw(st.sampled_from(["small", "int32", "int64"]))
    high = {"small": 50, "int32": 2**31, "int64": (2**63 - 1) // max(n, 1)}[scale]
    counts = rng.integers(1, high, size=n, endpoint=True)
    if scale == "int64" and n:
        counts[-1] = 2**63 - 1 - int(counts[:-1].sum())  # the largest total a set can hold
    return dict(
        L=L,
        total=int(counts.sum()),
        strings=strings,
        counts=counts,
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        stream=draw(st.integers(0, 2**63 - 1)),
        source=draw(sources),
    )


# Labels a sample file holds as written: printable ASCII, not empty and not starting with a space.
_LABELS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1).filter(
    lambda label: label[0] != " "
)


def sample_sets(min_distinct=0):
    """Sets from ``sample_set_fields`` whose label reads back as written."""
    return sample_set_fields(min_distinct, _LABELS).map(lambda fields: SampleSet(**fields))


def _same_samples(a, b):
    assert (a.L, a.total, a.seed, a.stream, a.source) == (b.L, b.total, b.seed, b.stream, b.source)
    assert np.array_equal(a.strings, b.strings) and np.array_equal(a.counts, b.counts)


# The bytes of a file that a refused save must leave as they were.
_EARLIER = b"an earlier file\n"


@given(sample_set_fields())
def test_sample_files_hold_the_per_row_formatters_bytes_and_load_back_equal(scratch, fields):
    # a label the reader would not read back as written is refused before any file is opened
    path = scratch / "x.samples"
    path.write_bytes(_EARLIER)
    label = fields["source"]
    try:
        samples = SampleSet(**fields)
    except ValidationError as exc:
        assert "source" in str(exc)
        assert not (label.isascii() and label.isprintable()) or label.startswith(" ")
        assert path.read_bytes() == _EARLIER
        return
    save_samples(samples, path)
    assert path.read_bytes() == reference_samples_text(samples).encode("ascii")
    expected = dataclasses.replace(samples, source=label or "-")  # "" is written as "-"
    _same_samples(load_samples(path), expected)
    with mock.patch.object(ttomo.sampling, "_BLOCK_LINES", 3):
        _same_samples(load_samples(path), expected)


@st.composite
def chains(draw):
    """Trains and operator chains whose entries span the float range, signed zeros included,
    and half of them with one nan, inf or -inf entry (in the real or imaginary part)."""
    L, bond_dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [1] + [bond_dim] * (L - 1) + [1]
    mpo = draw(st.booleans(), label="operator chain")
    bad = draw(st.none() | st.sampled_from([np.nan, np.inf, -np.inf]), label="non-finite entry")

    def entries(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        return np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0], size=shape), values)

    if mpo:
        shapes = [(2, 2, dims[p], dims[p + 1]) for p in range(L)]
        cores = [entries(shape) + 1j * entries(shape) for shape in shapes]
    else:
        cores = [entries((4, dims[p], dims[p + 1])) for p in range(L)]
    if bad is not None:
        core = cores[rng.integers(L)]
        part = core.imag if mpo and rng.random() < 0.5 else core.real
        part.flat[rng.integers(core.size)] = bad
    return MpoDensity(cores) if mpo else TTDistribution(cores)


@given(chains())
def test_tensor_files_hold_the_per_entry_formatters_bytes_and_load_back_equal(scratch, chain):
    # a non-finite entry, which the reader refuses, is refused before any file is opened
    path = scratch / "x.tt"
    path.write_bytes(_EARLIER)
    if not all(np.isfinite(core).all() for core in chain.cores):
        with pytest.raises(ValidationError, match=r"core \d+ has a non-finite entry"):
            save_tensor(path, chain)
        assert path.read_bytes() == _EARLIER
        return
    save_tensor(path, chain)
    assert path.read_bytes() == reference_tensor_text(chain).encode("ascii")
    back = load_tensor(path)
    assert type(back) is type(chain) and back.bond_dims == chain.bond_dims
    assert all(np.array_equal(a, b) for a, b in zip(back.cores, chain.cores))


def _outcome(path, lines, block_lines):
    """Loading ``lines``, ``block_lines`` records at a time: the set, or the error's text."""
    path.write_text("\n".join(lines) + "\n")
    try:
        with mock.patch.object(ttomo.sampling, "_BLOCK_LINES", block_lines):
            return load_samples(path)
    except DataFormatError as exc:
        return str(exc)


def _reference_outcome(path, lines):
    """What the per-line parser, then ``SampleSet``'s checks, make of ``lines``."""
    L, total, seed, stream, source = (line.split(maxsplit=1)[1] for line in lines[1:6])
    result = reference_samples_body(lines[6:], int(L), body_start=7)
    if result[0] == "error":
        return f"{path}:{result[1]}: {result[2]}"
    try:
        return SampleSet(
            L=int(L),
            total=int(total),
            strings=result[1],
            counts=result[2],
            seed=None if seed == "-" else int(seed),
            stream=int(stream),
            source=source,
        )
    except ValidationError as exc:
        return f"{path}:6: {exc}"


def _check_against_the_reference(path, lines):
    expected = _reference_outcome(path, lines)
    for block_lines in (ttomo.sampling._BLOCK_LINES, 3):  # blocks of 3 put many lines at an edge
        got = _outcome(path, lines, block_lines)
        if isinstance(expected, str):
            assert got == expected
        else:
            _same_samples(got, expected)
    return got


_BAD_COUNTS = ["0x1", "1.5", "1e3", "1__0", "_1", "1_", "+-1", "+", "abc", "1\x00"] + [
    str(2**63),
    str(-(2**63) - 1),
    "99999999999999999999",
]


@given(sample_sets(min_distinct=1), st.data())
def test_a_corrupted_record_is_the_line_reported(scratch, samples, data):
    lines = reference_samples_text(samples).splitlines()
    row = data.draw(st.integers(7, len(lines)), label="line")
    word, count = lines[row - 1].split()
    corruption = data.draw(st.sampled_from(["word length", "symbol", "count", "third token"]))
    if corruption == "word length":
        longer_or_shorter = [word + "0", word[:-1]] if samples.L > 1 else [word + "0"]
        word = data.draw(st.sampled_from(longer_or_shorter))
    elif corruption == "symbol":
        at = data.draw(st.integers(0, samples.L - 1), label="symbol at")
        word = word[:at] + data.draw(st.sampled_from("456789+-_a.")) + word[at + 1 :]
    elif corruption == "count":
        count = data.draw(st.sampled_from(_BAD_COUNTS))
    else:
        count += " " + data.draw(st.sampled_from(["1", "0123", "x"]))
    lines[row - 1] = f"{word} {count}"
    got = _check_against_the_reference(scratch / "x.samples", lines)
    assert got.startswith(f"{scratch / 'x.samples'}:{row}: ")


_SPACES = st.text(alphabet=" \t\x1f", max_size=3)


@given(sample_sets(min_distinct=1), st.integers(0, 2**32 - 1))
def test_respelled_records_load_as_the_set_they_spell(scratch, samples, seed):
    # any whitespace around and between the fields, and any spelling int() reads
    rng = np.random.default_rng(seed)
    spaces = ["", " ", "\t", "\x1f", " \t "]
    lines = reference_samples_text(samples).splitlines()
    for i in range(6, len(lines)):
        word, count = lines[i].split()
        n_cuts = min(rng.integers(0, 3), len(count) - 1)
        cuts = sorted(rng.choice(np.arange(1, len(count)), size=n_cuts, replace=False).tolist())
        digits = "_".join(count[a:b] for a, b in zip([0] + cuts, cuts + [len(count)]))
        spelled = rng.choice(["", "+"]) + "0" * rng.integers(0, 4) + digits
        lines[i] = rng.choice(spaces) + word + rng.choice(spaces[1:]) + spelled + rng.choice(spaces)
    got = _check_against_the_reference(scratch / "x.samples", lines)
    _same_samples(got, samples)


_COUNTS = st.from_regex(r"[-+]?[0-9_]{0,21}[.ex]?", fullmatch=True)


@given(st.integers(1, 3), st.data())
def test_random_bodies_load_as_the_per_line_parser_reads_them(scratch, L, data):
    # mostly well-formed words, so that the count and the line shape are reached
    words = st.text("0123", min_size=L, max_size=L) | st.from_regex(r"[0-4]{0,4}", fullmatch=True)
    body = []
    for fields in data.draw(st.lists(st.tuples(words, _COUNTS, st.just("") | _COUNTS), max_size=6)):
        gaps = [data.draw(_SPACES.filter(bool), label="separator") for _ in fields]
        body.append(data.draw(_SPACES) + "".join(f + g for f, g in zip(fields, gaps) if f))
    total = data.draw(st.integers(0, 20), label="N")
    lines = ["ttsamples 1", f"L {L}", f"N {total}", "seed -", "stream 0", "source -"] + body
    _check_against_the_reference(scratch / "x.samples", lines)


_SPELLINGS_OF_01_5 = ["01\t5", "  01 5  ", "01 \t 5", "\t01\t+5", "01 005", "01 +0_0_5", "01\x1f5"]


@pytest.mark.parametrize(
    "record",
    _SPELLINGS_OF_01_5
    + ["01 _5", "01 5_", "01 1__0", "01 +-5", "01 -5", "01 -0", "01 0", "01 5.0", "01 0x5"]
    + ["01 -9223372036854775808", "01 -9223372036854775809", "01 9223372036854775808"]
    # leading zeros past the 19 digits int64 holds, and past the 4300 digits int() reads
    + [
        pytest.param("01 " + "0" * 30 + "5", id="31-digit-5"),
        pytest.param("01 " + "0" * 30 + "1" + "0" * 19, id="50-digit-10^19"),
        pytest.param("01 " + "0" * 4300 + "5", id="4301-digit-5"),
    ]
    + ["01 5 5", "015", "0a 5", "04 5", "0/ 5", "012 5", "01 5\x00", "01\x005"],
)
def test_single_records_load_as_the_per_line_parser_reads_them(scratch, record):
    lines = ["ttsamples 1", "L 2", "N 5", "seed -", "stream 0", "source -", record]
    got = _check_against_the_reference(scratch / "x.samples", lines)
    if record in _SPELLINGS_OF_01_5:
        assert got.counts.tolist() == [5] and got.strings.tolist() == [[0, 1]]
