"""Dataset drawing, aggregation invariants, and the text container format."""

import re
import threading

import numpy as np
import pytest

from ttomo import sampling
from ttomo.errors import DataFormatError, ValidationError
from ttomo.sampling import (
    SampleSet,
    load_samples,
    save_samples,
    split_train_test,
)


def _uniform_dist(L):
    return np.full(4**L, 1.0 / 4**L)


def _fields(sset):
    """Every field of a sample set, its arrays as dtype and bytes."""
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (sset.strings, sset.counts)]
    return (sset.L, sset.total, sset.seed, sset.stream, sset.source, *arrays)


def _dense_counts(sset):
    """The count of every string, a vector of length 4^L."""
    counts = np.zeros(4**sset.L, dtype=np.int64)
    counts[np.ravel_multi_index(sset.strings.T, (4,) * sset.L)] = sset.counts
    return counts


def test_counts_sum_to_total_exactly():
    samples = split_train_test(_uniform_dist(3), 123457, seed=0)[0]
    assert samples.counts.sum() == 123457
    assert samples.total == 123457
    assert samples.L == 3


def test_strings_are_sorted_and_distinct():
    samples = split_train_test(_uniform_dist(2), 5000, seed=1)[0]
    codes = np.ravel_multi_index(samples.strings.T, (4,) * samples.L)
    assert np.all(np.diff(codes) > 0)


def test_same_seed_reproduces_same_dataset():
    a = split_train_test(_uniform_dist(2), 10000, seed=7)[0]
    b = split_train_test(_uniform_dist(2), 10000, seed=7)[0]
    assert np.array_equal(a.strings, b.strings)
    assert np.array_equal(a.counts, b.counts)


def test_streams_are_independent():
    a, b = split_train_test(_uniform_dist(2), 10000, seed=7)
    assert not (
        a.strings.shape == b.strings.shape
        and np.array_equal(a.strings, b.strings)
        and np.array_equal(a.counts, b.counts)
    )


def test_point_mass_yields_single_string():
    dist = np.zeros(4**3)
    dist[27] = 1.0
    samples = split_train_test(dist, 999, seed=3)[0]
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
        counts = _dense_counts(split_train_test(dist, n, seed=5)[0])
        p = np.clip(dist, 0.0, None)
        p /= p.sum()
        # Each cell's count is Binomial(n, p): a 6-sigma bound, exact at p = 0.
        assert np.all(np.abs(counts - n * p) <= 6 * np.sqrt(n * p * (1 - p)))


def test_weights_sum_to_one():
    samples = split_train_test(_uniform_dist(2), 999, seed=2)[0]
    assert samples.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_rejects_bad_distributions():
    with pytest.raises(ValidationError):
        split_train_test(np.full(5, 0.2), 10, seed=0)  # not a power of 4
    with pytest.raises(ValidationError):
        split_train_test(np.array([0.5, 0.6, -0.2, 0.1]), 10, seed=0)
    with pytest.raises(ValidationError):
        split_train_test(np.array([0.1, 0.1, 0.1, 0.1]), 10, seed=0)  # sums to 0.4
    with pytest.raises(ValidationError):
        split_train_test(_uniform_dist(1), 0, seed=0)
    with pytest.raises(ValidationError):
        split_train_test(_uniform_dist(1), 10, seed=-1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            split_train_test(np.array([bad, 0.5, 0.25, 0.25]), 1000, seed=0)
    with pytest.raises(ValidationError):
        split_train_test(np.zeros(0), 10, seed=0)
    # a count that is not a real number is named, not left to a raw TypeError
    for bad in ("10", None, 10j, True):
        message = f"^sample count must be a real number, got {bad!r}$"
        with pytest.raises(ValidationError, match=message):
            split_train_test(_uniform_dist(1), bad, seed=0)
    # numpy draws at most 2^63 - 1; 10**400 is past the float range too
    for bad in (2**63, 10**20, float("inf"), 10**400):
        with pytest.raises(ValidationError, match=r"^sample count must be < 2\^63, got "):
            split_train_test(_uniform_dist(1), bad, seed=0)
    with pytest.raises(ValidationError, match="^sample count must be a positive integer, got nan$"):
        split_train_test(_uniform_dist(1), float("nan"), seed=0)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
)
def test_rejects_a_bad_seed_or_stream(seeds, message):
    # the sampler takes no stream; train and test are its fixed substreams 0 and 1
    with pytest.raises(ValidationError, match=f"^{message}$"):
        split_train_test(_uniform_dist(2), 2000, **seeds)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        sampling._in_turn(_uniform_dist(2), 2000, seeds["seed"], 2000)


def test_accepts_numpy_integer_seeds_and_streams():
    a = split_train_test(_uniform_dist(2), 2000, seed=np.uint8(7))
    b = split_train_test(_uniform_dist(2), 2000, seed=7)
    for x, y in zip(a, b):
        assert type(x.seed) is int and type(x.stream) is int
        assert _fields(x) == _fields(y)
    kept = SampleSet(L=1, total=1, strings=[[0]], counts=[1], stream=np.int32(1))
    assert kept.stream == 1 and type(kept.stream) is int


def test_split_train_test_streams_and_sources(monkeypatch):
    draw, thread_of = sampling._draw, {}

    def recorded_draw(pvals, n, seed, stream):
        thread_of[stream] = threading.get_ident()
        return draw(pvals, n, seed, stream)

    monkeypatch.setattr(sampling, "_draw", recorded_draw)
    for L in [3, 7]:
        dist = _random_dist(4**L, 20 + L)
        # the constant at or just above 4^L sends split_train_test down either branch at any
        # L; _in_turn, the form scans and the minimum-N search take, draws in turn at both
        forms = [(split_train_test, 4**L + 1), (split_train_test, 4**L), (sampling._in_turn, 4**L)]
        drawn = []
        for split, size in forms:
            monkeypatch.setattr(sampling, "_CONCURRENT_SIZE", size)
            threads = threading.active_count()
            train, test = split(dist, 4000, 9, 1500)
            # no worker outlives the call: scans fork worker processes after it
            assert threading.active_count() == threads
            assert thread_of[0] == threading.get_ident()
            concurrent = split is split_train_test and size == 4**L
            assert (thread_of[1] != threading.get_ident()) == concurrent
            drawn.append((_fields(train), _fields(test)))
        assert drawn[1] == drawn[0] and drawn[2] == drawn[0]
        assert train.source == "train" and test.source == "test"
        assert (train.seed, train.stream, train.total) == (9, 0, 4000)
        assert (test.seed, test.stream, test.total) == (9, 1, 1500)
        # each set is one multinomial of its own stream; n_test defaults to n
        for sset in (train, test, split_train_test(dist, 4000, seed=9)[1]):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(sset.stream,)))
            expected = rng.multinomial(sset.total, dist / dist.sum())
            assert np.array_equal(_dense_counts(sset), expected)


# each case with the message it raised before split_train_test checked its arguments once
_CHECK_ORDER = [
    (np.full(5, 0.2), 0, 0, 0, "distribution length 5 is not a power of 4"),  # the shape first
    (np.array([np.nan, 0.5, 0.25, 0.25]), 10, 0, 10, "distribution has non-finite entries"),
    # the seed before the mass
    (np.array([0.5, 0.6, -0.2, 0.1]), 10, -1, 10, "seed must be >= 0, got -1"),
    # the mass before the test size
    (np.array([0.5, 0.6, -0.2, 0.1]), 10, 0, 0, "distribution has negative mass -2.000e-01"),
    (np.full(4, 0.1), 10, 0, 10, "distribution sums to 0.4, expected 1 within 1e-8"),
    # the train size before the seed
    (_uniform_dist(7), 0, -1, 0, "sample count must be a positive integer, got 0"),
    (_uniform_dist(7), 10, 1.5, 0, "seed must be an integer, got 1.5"),
    (_uniform_dist(7), 10, 0, 0, "sample count must be a positive integer, got 0"),
    (_uniform_dist(7), 10, 0, 2.5, "sample count must be a positive integer, got 2.5"),
    (_uniform_dist(7), 10, 0, 2**63, "sample count must be < 2^63, got 9223372036854775808"),
]


@pytest.mark.parametrize(
    "dist, n, seed, n_test, message",
    _CHECK_ORDER,
    ids=[f"dist{i}-{n}-{seed}-{n_test}" for i, (_, n, seed, n_test, _) in enumerate(_CHECK_ORDER)],
)
def test_split_train_test_checks_as_two_sample_dataset_calls(
    monkeypatch, dist, n, seed, n_test, message
):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker was started before the arguments were checked")

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_thread)
    expected = f"^{re.escape(message)}$"
    # the constant at 1 or above the size sends every case down either branch
    for size in (1, np.size(dist) + 1):
        monkeypatch.setattr(sampling, "_CONCURRENT_SIZE", size)
        with pytest.raises(ValidationError, match=expected):
            split_train_test(dist, n, seed, n_test=n_test)
    with pytest.raises(ValidationError, match=expected):
        sampling._in_turn(dist, n, seed, n_test)


def test_split_train_test_takes_a_test_size_of_its_own():
    train, test = split_train_test(_uniform_dist(2), 4000, seed=9, n_test=1500)
    assert (train.total, test.total) == (4000, 1500)
    assert _fields(test) == _fields(split_train_test(_uniform_dist(2), 1500, seed=9)[1])
    assert _fields(train) == _fields(split_train_test(_uniform_dist(2), 4000, seed=9)[0])


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
    # the true sum 2^64 + 5 wraps to 5 in int64
    with pytest.raises(ValidationError, match="^multiplicities sum to 18446744073709551621, "):
        SampleSet(L=1, total=5, strings=[[0], [1], [2], [3]], counts=[2**62] * 3 + [2**62 + 5])
    with pytest.raises(ValidationError, match=r"^recorded total must be < 2\^63"):
        SampleSet(L=1, total=2**63, strings=[[0], [1]], counts=[2**62, 2**62])
    # the integer fields, checked before the arrays: a non-integer would be saved as a
    # header load_samples rejects, and no generator takes a negative seed or stream;
    # then the arrays' shapes
    for bad, message in [
        ({"total": 2.0}, "total must be an integer, got 2.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"L": 2.0}, "L must be an integer, got 2.0"),
        ({"L": True}, "L must be an integer, got True"),
        ({"stream": False}, "stream must be an integer, got False"),
        ({"L": 0, "strings": np.zeros((0, 0)), "counts": [], "total": 0}, "L must be >= 1, got 0"),
        ({"total": -1}, "total must be >= 0, got -1"),
        ({"seed": -5}, "seed must be >= 0, got -5"),
        ({"stream": -1}, "stream must be >= 0, got -1"),
        ({"strings": [[0, 1, 2], [1, 0, 0]]}, r"strings shape \(2, 3\) does not match L=2"),
        ({"counts": [2]}, "counts and strings lengths differ"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SampleSet(**({"L": 2, "total": 2, "strings": [[0, 1], [1, 0]], "counts": [1, 1]} | bad))
    kept = SampleSet(L=np.int8(2), total=np.uint64(2), strings=[[0, 1]], counts=[2], seed=None)
    assert (kept.L, kept.total, kept.seed) == (2, 2, None) and type(kept.total) is int


@pytest.mark.parametrize(
    "strings, counts, message",
    [
        # uint8 would wrap 256 to 0, truncate 1.7 to 1, and overflow on -1
        ([[256, 0], [256, 1]], [1, 1], "strings contain symbols outside 0..3"),
        ([[1.7, 2.2]], [1], "strings contain symbols outside 0..3"),
        ([[1.0, 2.0]], [1], "strings contain symbols outside 0..3"),
        ([[-1, 0]], [1], "strings contain symbols outside 0..3"),
        ([[0, 1]], [1.5], "multiplicities must be positive"),
        ([[0, 1]], [1.0], "multiplicities must be positive"),
    ],
    ids=["wraps", "truncates", "float-valued", "overflows", "fractional-count", "float-count"],
)
def test_sampleset_checks_its_arrays_before_casting_them(strings, counts, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SampleSet(L=2, total=1 if len(strings) == 1 else 2, strings=strings, counts=counts)


def test_an_empty_sampleset_of_any_dtype_is_valid():
    samples = SampleSet(L=2, total=0, strings=np.zeros((0, 2)), counts=[])
    assert samples.n_distinct == 0
    assert samples.strings.dtype == np.uint8 and samples.counts.dtype == np.int64


def test_save_load_roundtrip(tmp_path):
    samples = split_train_test(_uniform_dist(3), 12345, seed=13)[1]
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


@pytest.mark.parametrize("source", ["-", "run 2", "x ", "~a-b_c", ""])
def test_a_source_label_reads_back_as_written(tmp_path, source):
    samples = SampleSet(L=1, total=3, strings=[[0], [2]], counts=[1, 2], source=source)
    save_samples(samples, tmp_path / "x.samples")
    assert load_samples(tmp_path / "x.samples").source == (source or "-")  # "" is written as "-"


@pytest.mark.parametrize("source", [" x", " ", "a\nb", "tab\t", "\x7f", "\u00e9", None, 5])
def test_a_source_label_that_would_not_read_back_is_refused(source):
    # a line break splits the header, a leading space is dropped, and the file is ASCII
    with pytest.raises(ValidationError, match="source .* is not printable ASCII"):
        SampleSet(L=1, total=1, strings=[[0]], counts=[1], source=source)


def test_save_is_byte_deterministic(tmp_path):
    samples = split_train_test(_uniform_dist(2), 999, seed=4)[0]
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
        lambda lines: lines[:-1] + [lines[-1].split()[0] + " 2.5"],  # non-integer count
        lambda lines: lines[:-1] + [lines[-1].split()[0] + " 99999999999999999999"],  # > int64
        # each count fits int64, but their sum 2^64 + 5 wraps to N
        lambda lines: lines[:2]
        + ["N 5"]
        + lines[3:6]
        + [f"0{s} {2**62 + 5 * (s == 3)}" for s in range(4)],
        lambda lines: lines[:3] + ["seed -5"] + lines[4:],  # no generator takes it
        lambda lines: lines[:4] + ["stream -1"] + lines[5:],
    ],
)
def test_load_rejects_malformed_files(tmp_path, mutation):
    samples = split_train_test(_uniform_dist(2), 50, seed=6)[0]
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
    [(2, "L x"), (2, "L 0"), (2, "L -1"), (3, "N x"), (4, "seed x"), (5, "stream x")]
    + [(3, "N -1"), (4, "seed -5"), (5, "stream -1")],
)
def test_bad_header_value_names_its_line(tmp_path, lineno, bad_line):
    samples = split_train_test(_uniform_dist(2), 50, seed=6)[0]
    path = tmp_path / "x.samples"
    save_samples(samples, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_samples(path)
    assert str(err.value).startswith(f"{path}:{lineno}: bad header value")
