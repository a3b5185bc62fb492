"""Measurement datasets: categorical sampling and the on-disk format."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, check_integer, check_real
from .networks import RunIndex, _first_differences
from .storage import fail, integer_at_least, read_header, read_lines, write_lines

_MAGIC = "ttsamples 1"
# The least value of each of SampleSet's int fields, which the file's header reads too.
_MINIMA = {"L": 1, "total": 0, "seed": 0, "stream": 0}


@dataclass(frozen=True)
class SampleSet:
    """Distinct outcome strings with multiplicities.

    Attributes:
        L: String length.
        total: Number of draws the set aggregates, below 2^63.
        strings: Array (n_distinct, L) of symbols 0..3, lexicographically
            sorted with no repeated rows.
        counts: Positive multiplicities summing exactly to ``total``.
        seed: Seed of the generator that produced the draws, if any.
        stream: Substream index used to decorrelate related datasets.
        source: Origin label ("train", "test", ...), printable ASCII not starting with a space.
    """

    L: int
    total: int
    strings: np.ndarray
    counts: np.ndarray
    seed: int | None = None
    stream: int = 0
    source: str = "-"

    def __post_init__(self) -> None:
        for name, minimum in _MINIMA.items():
            if name != "seed" or self.seed is not None:  # None: no generator is recorded
                object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        # checked before the casts, which would wrap, truncate or overflow a bad entry
        strings, counts = np.asarray(self.strings), np.asarray(self.counts)
        if strings.size and not (
            strings.dtype.kind in "iu" and strings.min() >= 0 and strings.max() <= 3
        ):
            raise ValidationError("strings contain symbols outside 0..3")
        if counts.size and not (counts.dtype.kind in "iu" and counts.min() >= 1):
            raise ValidationError("multiplicities must be positive")
        text = self.source  # written as a header line, which must read back as the same text
        if not (isinstance(text, str) and text.isascii() and text.isprintable()) or text[:1] == " ":
            raise ValidationError(f"source {text!r} is not printable ASCII or starts with a space")
        if self.total >= 2**63:  # numpy draws at most 2^63 - 1
            raise ValidationError(f"recorded total must be < 2^63, got {self.total}")
        # an integer sum that wraps is off by a multiple of 2^64, the float64 sum by far less
        total = int(counts.sum())
        if total != self.total or abs(counts.sum(dtype=float) - total) > 2**62:
            exact = counts.astype(object).sum()
            raise ValidationError(f"multiplicities sum to {exact}, recorded total is {self.total}")
        strings = np.ascontiguousarray(strings, dtype=np.uint8)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "counts", counts)
        if strings.ndim != 2 or strings.shape[1] != self.L:
            raise ValidationError(f"strings shape {strings.shape} does not match L={self.L}")
        if counts.shape != (strings.shape[0],):
            raise ValidationError("counts and strings lengths differ")
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


def _num_sites_from_size(size: int) -> int:
    L = max(1, int(round(np.log2(size) / 2)))
    if 4**L != size:
        raise ValidationError(f"distribution length {size} is not a power of 4")
    return L


def check_sample_count(n) -> None:
    """Raise ValidationError unless ``n`` is a whole number of draws numpy can make."""
    check_real("sample count", n)
    if n >= 2**63:  # numpy draws at most 2^63 - 1; inf is caught here
        raise ValidationError(f"sample count must be < 2^63, got {n}")
    if not n >= 1 or int(n) != n:  # nan is not >= 1
        raise ValidationError(f"sample count must be a positive integer, got {n}")


def _draw(pvals: np.ndarray, n, seed, stream) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
    return rng.multinomial(int(n), pvals)


def _build(L: int, counts: np.ndarray, n, seed, stream, source: str) -> SampleSet:
    observed = np.flatnonzero(counts)
    digits = (observed[:, None] >> (2 * np.arange(L - 1, -1, -1))) & 3
    return SampleSet(
        L=L,
        total=int(n),
        strings=digits.astype(np.uint8),
        counts=counts[observed],
        seed=seed,
        stream=stream,
        source=source,
    )


# From this many outcomes (L = 7) on, split_train_test draws its two sets on two threads;
# below it, starting the worker costs more than the overlap saves.
_CONCURRENT_SIZE = 4**7


def split_train_test(dist: np.ndarray, n: int, seed: int, n_test: int | None = None) -> tuple:
    """Train (substream 0) and test (substream 1) sets of ``n`` and ``n_test`` (default ``n``) draws.

    The counts of a set of ``n`` draws are one Multinomial(n, dist) variate, drawn in a single
    call by numpy's conditional-binomial method from the PCG64 stream
    ``SeedSequence(seed, spawn_key=(stream,))``: one binomial per string in lexicographic
    order, so the cost is O(4^L) whatever ``n`` is. Negative entries above -1e-12 are clipped
    to zero and the distribution is renormalized before drawing. From L = 7 on, a worker thread draws the test counts while this one draws
    the train counts (numpy's multinomial releases the interpreter lock); each set keeps its
    own stream, so the bytes are those of drawing the two in turn.
    """
    n_test = n if n_test is None else n_test
    return _split(dist, n, seed, n_test, overlap=np.size(dist) >= _CONCURRENT_SIZE)


def _in_turn(dist: np.ndarray, n, seed, n_test) -> tuple:
    """``split_train_test``'s two sets, drawn one after the other on this thread."""
    return _split(dist, n, seed, n_test, overlap=False)


def _split(dist: np.ndarray, n, seed, n_test, overlap: bool) -> tuple:
    """Check the arguments, draw the two count vectors (with ``overlap``, the test's on a
    worker thread) and build train, then test, on this thread."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1 or dist.size == 0:
        raise ValidationError("distribution must be a non-empty flat vector")
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distribution has non-finite entries")
    L = _num_sites_from_size(dist.size)
    check_sample_count(n)
    check_integer("seed", seed, 0)
    if dist.min() < -1e-12:
        raise ValidationError(f"distribution has negative mass {dist.min():.3e}")
    dist = np.clip(dist, 0.0, None)
    mass = dist.sum()
    if abs(mass - 1.0) > 1e-8:
        raise ValidationError(f"distribution sums to {mass}, expected 1 within 1e-8")
    check_sample_count(n_test)
    pvals = dist / mass
    if overlap:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(_draw, pvals, n_test, seed, 1)
            counts = _draw(pvals, n, seed, 0), pending.result()
    else:
        counts = _draw(pvals, n, seed, 0), _draw(pvals, n_test, seed, 1)
    train = _build(L, counts[0], n, seed, 0, "train")
    return train, _build(L, counts[1], n_test, seed, 1, "test")


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


# Header lines 2..6 of the sample format, in order, with their value parsers.
_HEADER_PARSERS = {
    "L": integer_at_least("L", _MINIMA["L"]),
    "N": integer_at_least("N", _MINIMA["total"]),
    "seed": lambda text: None if text == "-" else integer_at_least("seed", _MINIMA["seed"])(text),
    "stream": integer_at_least("stream", _MINIMA["stream"]),
    "source": str,
}


def _count(text: str):
    """``int(text)`` if that is a multiplicity, 1 up to 2^63 - 1, else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if 1 <= value < 2**63 else None


def _read_records(path, lines: list, lineno: int, L: int) -> tuple:
    """Symbols (n, L) and counts of the records ``lines``, the first on line ``lineno``.

    Each line is split into words and its count read with ``int()``; the
    symbol words are checked together, as one byte array. The first bad
    line fails with the message of its first bad field.
    """
    rows = [line.split() for line in lines]
    # the lines before the first that does not hold two words are records
    n = next((i for i, parts in enumerate(rows) if len(parts) != 2), len(rows))
    words = [parts[0] for parts in rows[:n]]
    counts = [_count(parts[1]) for parts in rows[:n]]
    sizes = np.fromiter(map(len, words), dtype=np.int64, count=n)
    symbols = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8) - ord("0")
    # a byte below '0' wraps past 3
    bad_word = (sizes != L) | (np.maximum.reduceat(symbols, np.cumsum(sizes) - sizes) > 3)
    bad = np.append(bad_word | np.equal(counts, None), n < len(rows))
    row = int(bad.argmax())
    if bad[row]:
        lineno, parts = lineno + row, rows[row]
        if row == n:
            fail(path, lineno, "expected '<string> <count>'")
        if bad_word[row]:
            fail(path, lineno, f"'{parts[0]}' is not a length-{L} string over symbols 0..3")
        fail(path, lineno, f"bad multiplicity '{parts[1]}'")
    return symbols.reshape(n, L), np.array(counts, dtype=np.int64)


# Records parsed at a time. Small blocks bound the per-line word lists, so that reading
# a set does not lift the process's peak memory above what the fit needs.
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
