"""Measurement datasets: categorical sampling and the on-disk format."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, check_integer
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
    if check_integer("seed", seed) < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if check_integer("stream", stream) < 0:
        raise ValidationError(f"stream must be >= 0, got {stream}")
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
    # A row per record: its symbols, a space, its count's digits padded with zero bytes,
    # and a newline. Dropping the zero bytes leaves the records back to back.
    rows = np.zeros((sset.n_distinct, sset.L + 21), dtype=np.uint8)
    rows[:, : sset.L] = sset.strings + ord("0")
    rows[:, sset.L] = ord(" ")
    rows[:, sset.L + 1 : -1] = sset.counts.astype("S19").view(np.uint8).reshape(-1, 19)
    rows[:, -1] = ord("\n")
    records = rows[rows > 0].tobytes().decode("ascii")
    # write_lines ends the last line itself
    write_lines(path, _MAGIC, header, [records[:-1]] if records else [])


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


# The ASCII bytes str.split() separates tokens at.
_SPACE = np.array([chr(b).isspace() for b in range(128)])


def _tokens(lines: list) -> tuple:
    """Bytes of ``lines`` (each after a newline), the [start, end) offsets of
    their whitespace-separated tokens, as ``str.split`` finds them, and the
    number of tokens on each line."""
    data = np.frombuffer("\n".join(["", *lines, ""]).encode("ascii"), dtype=np.uint8)
    edges = np.flatnonzero(np.diff(_SPACE[data])) + 1
    starts, ends = edges[0::2], edges[1::2]
    return data, starts, ends, np.diff(np.searchsorted(starts, np.flatnonzero(data == 10)))


def _inside(starts: np.ndarray, ends: np.ndarray, size: int) -> np.ndarray:
    """Mask of the ``size`` bytes that lie in one of the disjoint [start, end) spans."""
    edges = np.zeros(size + 1, dtype=np.int8)
    edges[starts] = 1
    edges[ends] = -1
    return np.cumsum(edges[:-1], dtype=np.int8) > 0


def _parse_ints(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, pick: slice) -> tuple:
    """``int()`` of the tokens ``pick`` selects, as int64, and a mask of the
    ones ``int()`` rejects or int64 cannot hold."""
    digit = (data - ord("0")) < 10
    other = ~(digit | _SPACE[data])  # token bytes that are not digits
    # int()'s grammar: an optional sign, then digits with single underscores between them
    under = data == ord("_")
    stray = other & ~under
    stray[starts] &= (data[starts] != ord("+")) & (data[starts] != ord("-"))
    stray[1:-1] |= under[1:-1] & ~(digit[:-2] & digit[2:])  # the first and last bytes are spaces
    # few tokens hold other bytes than digits: in a valid file, a count's sign and underscores
    holder = np.searchsorted(starts, np.flatnonzero(other), side="right") - 1
    n_digits = ends - starts - np.bincount(holder, minlength=starts.size)
    last = np.cumsum(n_digits)[pick]  # where each token's digits end among all digits
    n_digits = n_digits[pick]
    bad = np.logical_or.reduceat(stray, starts)[pick] | (n_digits == 0)
    limit = sys.get_int_max_str_digits()  # int() refuses more digits; 0 lifts the limit
    bad |= (n_digits > limit) & (limit > 0)
    digits = np.append(data[digit] - ord("0"), np.uint8(0))  # the 0 stands in for missing ones
    magnitude = np.zeros(n_digits.size, dtype=np.uint64)
    for power in range(19):
        magnitude += digits[np.where(n_digits > power, last - 1 - power, -1)] * np.uint64(10**power)
    # a digit before the last 19 overflows int64 unless it is 0
    long = np.flatnonzero(n_digits > 19)
    spans = np.column_stack([last[long] - n_digits[long], last[long] - 19]).ravel()
    bad[long] |= np.logical_or.reduceat(digits > 0, spans)[::2]
    negative = data[starts[pick]] == ord("-")
    bad |= magnitude > np.uint64(2**63 - 1) + negative
    return np.where(negative, -magnitude, magnitude).view(np.int64), bad


def _read_records(path, lines: list, lineno: int, L: int) -> tuple:
    """Symbols (n, L) and counts of the records ``lines``, the first on line ``lineno``."""
    data, starts, ends, n_tokens = _tokens(lines)
    # the lines before the first that does not hold two tokens hold the first tokens in pairs
    pairs = n_tokens == 2
    n = len(lines) if pairs.all() else int(pairs.argmin())
    word, count = slice(0, 2 * n, 2), slice(1, 2 * n, 2)
    top_symbol = np.maximum.reduceat(np.where(_SPACE[data], 0, data - ord("0")), starts)
    bad_word = (ends[word] - starts[word] != L) | (top_symbol[word] > 3)
    counts, bad_count = _parse_ints(data, starts, ends, count)
    bad = bad_word | bad_count
    if n < len(lines) or bad.any():
        row = int(bad.argmax()) if bad.any() else n
        lineno, parts = lineno + row, lines[row].split()
        if row == n:
            fail(path, lineno, "expected '<string> <count>'")
        if bad_word[row]:
            fail(path, lineno, f"'{parts[0]}' is not a length-{L} string over symbols 0..3")
        fail(path, lineno, f"bad multiplicity '{parts[1]}'")
    return (data[_inside(starts[word], ends[word], data.size)] - ord("0")).reshape(-1, L), counts


# Records parsed at a time. Small blocks keep the parse's arrays to tens of kB, so that
# reading a set does not lift the process's peak memory above what the fit needs.
_BLOCK_LINES = 1024


def load_samples(path) -> SampleSet:
    """Read a sample set, validating the format and every invariant."""
    lines = read_lines(path, _MAGIC)
    header = read_header(path, lines, _HEADER_PARSERS)
    L = header["L"]
    body_start = len(header) + 2
    # the first line of each block; an empty body is one empty block
    firsts = range(body_start - 1, len(lines), _BLOCK_LINES) or [body_start - 1]
    blocks = [_read_records(path, lines[i : i + _BLOCK_LINES], i + 1, L) for i in firsts]
    try:
        return SampleSet(
            L=L,
            total=header["N"],
            strings=np.concatenate([strings for strings, _ in blocks]),
            counts=np.concatenate([counts for _, counts in blocks]),
            seed=header["seed"],
            stream=header["stream"],
            source=header["source"],
        )
    except ValidationError as exc:
        fail(path, body_start - 1, str(exc))
