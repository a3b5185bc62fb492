"""Dataset drawing, aggregation invariants, and the text container format."""

import numpy as np
import pytest

from ttomo.errors import DataFormatError, ValidationError
from ttomo.sampling import (
    SampleSet,
    load_samples,
    sample_dataset,
    save_samples,
    split_train_test,
)


def _uniform_dist(L):
    return np.full(4**L, 1.0 / 4**L)


def test_counts_sum_to_total_exactly():
    samples = sample_dataset(_uniform_dist(3), 123457, seed=0)
    assert samples.counts.sum() == 123457
    assert samples.total == 123457
    assert samples.L == 3


def test_strings_are_sorted_and_distinct():
    samples = sample_dataset(_uniform_dist(2), 5000, seed=1)
    codes = samples.codes()
    assert np.all(np.diff(codes) > 0)


def test_same_seed_reproduces_same_dataset():
    a = sample_dataset(_uniform_dist(2), 10000, seed=7)
    b = sample_dataset(_uniform_dist(2), 10000, seed=7)
    assert np.array_equal(a.strings, b.strings)
    assert np.array_equal(a.counts, b.counts)


def test_streams_are_independent():
    a = sample_dataset(_uniform_dist(2), 10000, seed=7, stream=0)
    b = sample_dataset(_uniform_dist(2), 10000, seed=7, stream=1)
    assert not (
        a.strings.shape == b.strings.shape
        and np.array_equal(a.strings, b.strings)
        and np.array_equal(a.counts, b.counts)
    )


def test_point_mass_yields_single_string():
    dist = np.zeros(4**3)
    dist[27] = 1.0
    samples = sample_dataset(dist, 999, seed=3)
    assert samples.n_distinct == 1
    assert samples.counts[0] == 999
    assert int("".join(map(str, samples.strings[0])), 4) == 27


def _random_dist(size, seed):
    dist = np.random.default_rng(seed).uniform(0.1, 1.0, size=size)
    return dist / dist.sum()


def test_frequencies_follow_the_distribution():
    with_zeros = _random_dist(16, 12)
    with_zeros[[5, 9]] = 0.0
    with_zeros /= with_zeros.sum()
    with_zeros[9] = -1e-13  # clipped to zero before drawing
    cases = [
        (_random_dist(16, 11), 400_000),
        (with_zeros, 400_000),
        (_random_dist(4**6, 13), 30_000_000),  # the full-scale size
    ]
    for dist, n in cases:
        samples = sample_dataset(dist, n, seed=5)
        counts = np.zeros(dist.size, dtype=np.int64)
        counts[samples.codes()] = samples.counts
        p = np.clip(dist, 0.0, None)
        p /= p.sum()
        # Each cell's count is Binomial(n, p): a 6-sigma bound, exact at p = 0.
        assert np.all(np.abs(counts - n * p) <= 6 * np.sqrt(n * p * (1 - p)))


def test_weights_sum_to_one():
    samples = sample_dataset(_uniform_dist(2), 999, seed=2)
    assert samples.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_rejects_bad_distributions():
    with pytest.raises(ValidationError):
        sample_dataset(np.full(5, 0.2), 10, seed=0)  # not a power of 4
    with pytest.raises(ValidationError):
        sample_dataset(np.array([0.5, 0.6, -0.2, 0.1]), 10, seed=0)
    with pytest.raises(ValidationError):
        sample_dataset(np.array([0.1, 0.1, 0.1, 0.1]), 10, seed=0)  # sums to 0.4
    with pytest.raises(ValidationError):
        sample_dataset(_uniform_dist(1), 0, seed=0)
    with pytest.raises(ValidationError):
        sample_dataset(_uniform_dist(1), 10, seed=-1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            sample_dataset(np.array([bad, 0.5, 0.25, 0.25]), 1000, seed=0)
    with pytest.raises(ValidationError):
        sample_dataset(np.zeros(0), 10, seed=0)
    for bad in (2**63, 10**20):  # numpy draws at most 2^63 - 1
        with pytest.raises(ValidationError):
            sample_dataset(_uniform_dist(1), bad, seed=0)


def test_split_train_test_streams_and_sources():
    train, test = split_train_test(_uniform_dist(2), 4000, seed=9)
    assert train.source == "train" and test.source == "test"
    assert (train.seed, train.stream) == (9, 0)
    assert (test.seed, test.stream) == (9, 1)
    again = sample_dataset(_uniform_dist(2), 4000, seed=9, stream=0, source="train")
    assert np.array_equal(train.strings, again.strings)
    assert np.array_equal(train.counts, again.counts)


def test_sampleset_validation():
    strings = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    with pytest.raises(ValidationError):
        SampleSet(L=2, total=4, strings=strings, counts=np.array([2, 2]))
    with pytest.raises(ValidationError):
        SampleSet(
            L=2,
            total=5,
            strings=np.array([[0, 1]], dtype=np.uint8),
            counts=np.array([4]),
        )
    with pytest.raises(ValidationError):
        SampleSet(
            L=2,
            total=4,
            strings=np.array([[0, 7]], dtype=np.uint8),
            counts=np.array([4]),
        )


def test_save_load_roundtrip(tmp_path):
    samples = sample_dataset(_uniform_dist(3), 12345, seed=13, stream=1, source="test")
    path = tmp_path / "x.samples"
    save_samples(samples, path)
    back = load_samples(path)
    assert back.L == samples.L
    assert back.total == samples.total
    assert back.seed == samples.seed
    assert back.stream == samples.stream
    assert back.source == samples.source
    assert np.array_equal(back.strings, samples.strings)
    assert np.array_equal(back.counts, samples.counts)


def test_save_is_byte_deterministic(tmp_path):
    samples = sample_dataset(_uniform_dist(2), 999, seed=4)
    save_samples(samples, tmp_path / "a")
    save_samples(samples, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize(
    "mutation",
    [
        lambda lines: ["bogus header"] + lines[1:],
        lambda lines: lines[:1] + ["L x"] + lines[2:],
        lambda lines: lines + ["123 not-a-count"],
        lambda lines: lines + ["99 5"],  # symbol out of range
        lambda lines: lines[:-1],  # drop a record: totals disagree
        lambda lines: lines[:5] + ["source tr\u00e4in"] + lines[6:],  # not ASCII
    ],
)
def test_load_rejects_malformed_files(tmp_path, mutation):
    samples = sample_dataset(_uniform_dist(2), 50, seed=6)
    path = tmp_path / "x.samples"
    save_samples(samples, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutation(lines)) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_samples(path)


def test_load_error_carries_line_number(tmp_path):
    path = tmp_path / "x.samples"
    path.write_text("ttsamples 1\nL 2\nN 5\nseed 0\nstream 0\nsource -\noops\n")
    with pytest.raises(DataFormatError) as err:
        load_samples(path)
    assert "7" in str(err.value)


@pytest.mark.parametrize(
    "lineno, bad_line",
    [(2, "L x"), (2, "L 0"), (2, "L -1"), (3, "N x"), (4, "seed x"), (5, "stream x")],
)
def test_bad_header_value_names_its_line(tmp_path, lineno, bad_line):
    samples = sample_dataset(_uniform_dist(2), 50, seed=6)
    path = tmp_path / "x.samples"
    save_samples(samples, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_samples(path)
    assert str(err.value).startswith(f"{path}:{lineno}: bad header value")
