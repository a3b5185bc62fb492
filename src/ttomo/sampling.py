"""Measurement datasets: categorical sampling and the on-disk format."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .networks import RunIndex, _first_differences
from .storage import fail, read_header, read_lines, write_lines

_MAGIC = "ttsamples 1"
_MAX_CODE_SITES = 31  # base-4 string codes must fit in int64


def _string_codes(strings: np.ndarray, L: int) -> np.ndarray:
    if L > _MAX_CODE_SITES:
        raise ValidationError(f"string codes support L <= {_MAX_CODE_SITES}, got {L}")
    weights = 4 ** np.arange(L - 1, -1, -1, dtype=np.int64)
    return strings.astype(np.int64) @ weights


@dataclass(frozen=True)
class SampleSet:
    """Distinct outcome strings with multiplicities.

    Attributes:
        L: String length.
        total: Number of draws the set aggregates.
        strings: Array (n_distinct, L) of symbols 0..3, lexicographically
            sorted with no repeated rows.
        counts: Positive multiplicities summing exactly to ``total``.
        seed: Seed of the generator that produced the draws, if any.
        stream: Substream index used to decorrelate related datasets.
        source: Free-form origin label ("train", "test", ...).
    """

    L: int
    total: int
    strings: np.ndarray
    counts: np.ndarray
    seed: int | None = None
    stream: int = 0
    source: str = "-"

    def __post_init__(self) -> None:
        # checked before the casts, which would wrap, truncate or overflow a bad entry
        strings, counts = np.asarray(self.strings), np.asarray(self.counts)
        if strings.size and not (
            strings.dtype.kind in "iu" and strings.min() >= 0 and strings.max() <= 3
        ):
            raise ValidationError("strings contain symbols outside 0..3")
        if counts.size and not (counts.dtype.kind in "iu" and counts.min() >= 1):
            raise ValidationError("multiplicities must be positive")
        strings = np.ascontiguousarray(strings, dtype=np.uint8)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "counts", counts)
        if strings.ndim != 2 or strings.shape[1] != self.L:
            raise ValidationError(f"strings shape {strings.shape} does not match L={self.L}")
        if counts.shape != (strings.shape[0],):
            raise ValidationError("counts and strings lengths differ")
        if int(counts.sum()) != self.total:
            raise ValidationError(
                f"multiplicities sum to {int(counts.sum())}, recorded total is {self.total}"
            )
        # At the first column where adjacent rows differ, the later row must
        # be larger; rows that never differ are repeats.
        first = _first_differences(strings)
        rows = np.arange(first.size)
        col = np.minimum(first, self.L - 1)
        if np.any(first == self.L) or np.any(strings[rows + 1, col] < strings[rows, col]):
            raise ValidationError("strings must be distinct and lexicographically sorted")
        strings.setflags(write=False)
        counts.setflags(write=False)

    @property
    def n_distinct(self) -> int:
        return self.strings.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Empirical probabilities counts / total."""
        return self.counts / self.total

    @cached_property
    def runs(self) -> RunIndex:
        """Prefix runs of the strings, built on first use."""
        return RunIndex(self.strings)

    def codes(self) -> np.ndarray:
        """Strings as base-4 integers, site 0 most significant."""
        return _string_codes(self.strings, self.L)


def _num_sites_from_size(size: int) -> int:
    L = max(1, int(round(np.log2(size) / 2)))
    if 4**L != size:
        raise ValidationError(f"distribution length {size} is not a power of 4")
    return L


def check_sample_count(n) -> None:
    """Raise ValidationError unless ``n`` is a whole number of draws numpy can make."""
    if n < 1 or int(n) != n:
        raise ValidationError(f"sample count must be a positive integer, got {n}")
    if n >= 2**63:  # numpy draws at most 2^63 - 1
        raise ValidationError(f"sample count must be < 2^63, got {n}")


def sample_dataset(
    dist: np.ndarray,
    n: int,
    seed: int,
    stream: int = 0,
    source: str = "-",
) -> SampleSet:
    """Aggregate ``n`` i.i.d. categorical draws from a dense distribution.

    The counts of ``n`` categorical draws are one Multinomial(n, dist)
    variate, drawn in a single call by numpy's conditional-binomial method
    from the PCG64 stream ``SeedSequence(seed, spawn_key=(stream,))``: one
    binomial per string in lexicographic order, so the cost is O(4^L)
    whatever ``n`` is. Negative entries above -1e-12 are clipped to zero and
    the distribution is renormalized before drawing.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1 or dist.size == 0:
        raise ValidationError("distribution must be a non-empty flat vector")
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distribution has non-finite entries")
    L = _num_sites_from_size(dist.size)
    check_sample_count(n)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if dist.min() < -1e-12:
        raise ValidationError(f"distribution has negative mass {dist.min():.3e}")
    dist = np.clip(dist, 0.0, None)
    mass = dist.sum()
    if abs(mass - 1.0) > 1e-8:
        raise ValidationError(f"distribution sums to {mass}, expected 1 within 1e-8")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
    counts = rng.multinomial(int(n), dist / mass)
    observed = np.flatnonzero(counts)
    digits = (observed[:, None] // 4 ** np.arange(L - 1, -1, -1, dtype=np.int64)) % 4
    return SampleSet(
        L=L,
        total=int(n),
        strings=digits.astype(np.uint8),
        counts=counts[observed],
        seed=int(seed),
        stream=int(stream),
        source=source,
    )


def split_train_test(dist: np.ndarray, n: int, seed: int) -> tuple:
    """Two independent datasets of ``n`` draws each from decorrelated substreams."""
    train = sample_dataset(dist, n, seed, stream=0, source="train")
    test = sample_dataset(dist, n, seed, stream=1, source="test")
    return train, test


def save_samples(sset: SampleSet, path) -> None:
    """Write a sample set in the line-oriented text format."""
    header = {
        "L": sset.L,
        "N": sset.total,
        "seed": "-" if sset.seed is None else sset.seed,
        "stream": sset.stream,
        "source": sset.source or "-",
    }
    body = (
        "".join(str(int(d)) for d in row) + f" {int(count)}"
        for row, count in zip(sset.strings, sset.counts)
    )
    write_lines(path, _MAGIC, header, body)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


# Header lines 2..6 of the sample format, in order, with their value parsers.
_HEADER_PARSERS = {
    "L": _positive_int,
    "N": int,
    "seed": lambda text: None if text == "-" else int(text),
    "stream": int,
    "source": str,
}


def load_samples(path) -> SampleSet:
    """Read a sample set, validating the format and every invariant."""
    lines = read_lines(path, _MAGIC)
    header = read_header(path, lines, _HEADER_PARSERS)
    L = header["L"]
    body_start = len(header) + 2
    strings = []
    counts = []
    for lineno, line in enumerate(lines[body_start - 1 :], start=body_start):
        parts = line.split()
        if len(parts) != 2:
            fail(path, lineno, "expected '<string> <count>'")
        word, count_text = parts
        if len(word) != L or any(ch not in "0123" for ch in word):
            fail(path, lineno, f"'{word}' is not a length-{L} string over symbols 0..3")
        try:
            count = int(count_text)
        except ValueError:
            fail(path, lineno, f"bad multiplicity '{count_text}'")
        strings.append([int(ch) for ch in word])
        counts.append(count)
    arr = np.array(strings, dtype=np.uint8).reshape(len(strings), L)
    try:
        return SampleSet(
            L=L,
            total=header["N"],
            strings=arr,
            counts=np.array(counts, dtype=np.int64),
            seed=header["seed"],
            stream=header["stream"],
            source=header["source"],
        )
    except ValidationError as exc:
        fail(path, body_start - 1, str(exc))
