"""Tensor-train and matrix-product-operator containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _first_differences(strings: np.ndarray) -> np.ndarray:
    """Column where each row first differs from the row before it; L if equal."""
    differs = np.ones((max(len(strings) - 1, 0), strings.shape[1] + 1), dtype=bool)
    differs[:, :-1] = strings[1:] != strings[:-1]
    return differs.argmax(axis=1)


class RunIndex:
    """Rows of a lexicographically sorted string array grouped by shared prefix.

    The rows sharing ``strings[:, :p]`` form one contiguous run; prefix run r
    at boundary p starts at row ``prefix_starts[p][r]``. Repeated rows share
    every run, so the runs at p = L are the distinct strings.

    Every run at boundary p >= 1 is a run q at p - 1 extended by the symbol s
    at site p - 1. Its slot ``prefix_slot[p] = q * 4 + s`` is its row in a
    parent-major (parent run, symbol) grid; the fit's two sides and
    ``TTDistribution.evaluate`` index through it. Where every parent run has
    all four children the slots are ``arange``.
    """

    def __init__(self, strings: np.ndarray):
        n, L = strings.shape
        self.n_rows = n
        first = _first_differences(strings)
        self.prefix_starts = [np.zeros(1, dtype=np.intp)]
        self.prefix_slot = [None]
        for p in range(1, L + 1):
            parents = self.prefix_starts[-1]
            starts = np.flatnonzero(np.concatenate([np.ones(min(n, 1), dtype=bool), first < p]))
            parent = np.searchsorted(parents, starts, side="right") - 1
            self.prefix_starts.append(starts)
            self.prefix_slot.append(parent * 4 + strings[starts, p - 1])

    def prefix_of_row(self, p: int) -> np.ndarray:
        """Prefix run of every row at boundary p."""
        starts = self.prefix_starts[p]
        return np.repeat(np.arange(starts.size), np.diff(starts, append=self.n_rows))


def matricized(core: np.ndarray) -> np.ndarray:
    """A (T, 4, D_p, D_{p+1}) or one train's (4, D_p, D_{p+1}) core as (T, D_p, 4 * D_{p+1})."""
    core = core if core.ndim == 4 else core[None]
    return core.transpose(0, 2, 1, 3).reshape(core.shape[0], core.shape[2], -1)


def extend_left(mat: np.ndarray, env: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Left environments (T, runs, D) at p + 1: ``env`` @ ``matricized`` core p, at ``slot``.

    On a full level, where every run at p has all four children, ``slot`` is
    ``arange`` and the GEMM output is returned without a gather.
    """
    trials, runs, _ = env.shape
    grid = (env @ mat).reshape(trials, runs * 4, mat.shape[2] // 4)
    return grid if slot.size == runs * 4 else grid.take(slot, axis=1)


@dataclass
class _Chain:
    """A chain of cores whose last two axes are the left and right bonds."""

    cores: list

    @property
    def length(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple:
        """Bond extents D_0 .. D_L including the trivial outer ones."""
        return tuple(c.shape[-2] for c in self.cores) + (self.cores[-1].shape[-1],)

    def _check(self, phys_shape: tuple, what: str) -> None:
        """Raise ValidationError unless the cores are ``phys_shape`` + matching nonempty bonds."""
        cores = self.cores
        if not cores:
            raise ValidationError(f"{what} needs at least one core")
        for l, core in enumerate(cores):
            if core.shape[:-2] != phys_shape:  # a core of fewer than two axes has shape[:-2] == ()
                raise ValidationError(
                    f"{what} core {l} has shape {core.shape}, expected {phys_shape} + bonds"
                )
            if 0 in core.shape[-2:]:
                raise ValidationError(f"{what} core {l} has shape {core.shape}, with an empty bond")
        if cores[0].shape[-2] != 1 or cores[-1].shape[-1] != 1:
            raise ValidationError(f"{what} must have outer bond dimension 1")
        for l in range(len(cores) - 1):
            if cores[l].shape[-1] != cores[l + 1].shape[-2]:
                raise ValidationError(
                    f"{what} bond mismatch between cores {l} and {l + 1}: "
                    f"{cores[l].shape[-1]} != {cores[l + 1].shape[-2]}"
                )


@dataclass
class TTDistribution(_Chain):
    """Tensor train over length-L strings with four outcomes per site.

    Core ``l`` has shape (4, D_l, D_{l+1}); contracting the chain over the
    bond indices yields the (unnormalized) weight of each string. Cores are
    real: complex ones raise ValidationError. Fitted trains keep every entry
    nonnegative; trains obtained by exactly forward-mapping an operator may
    carry signed entries.
    """

    def __post_init__(self) -> None:
        self.cores = [np.asarray(c) for c in self.cores]
        self._check((4,), "tensor train")
        if any(np.iscomplexobj(c) for c in self.cores):
            raise ValidationError("tensor train cores must be real")

    def copy(self) -> "TTDistribution":
        return TTDistribution([c.copy() for c in self.cores])

    def run_values(self, runs: RunIndex) -> np.ndarray:
        """Weight of each run at p = L of a length-L ``runs``, one ``extend_left`` step per core.

        The runs at p = L are the distinct strings in sorted order, so the runs
        of a ``SampleSet`` get one value per row.
        """
        env = np.ones((1, 1, 1))
        for k, core in enumerate(self.cores):
            env = extend_left(matricized(core), env, runs.prefix_slot[k + 1])
        return env[0, :, 0]

    def evaluate(self, strings: np.ndarray) -> np.ndarray:
        """Weight of each row of ``strings`` (shape (n, L), symbols 0..3), once per prefix run."""
        strings = np.asarray(strings)
        if strings.ndim != 2 or strings.shape[1] != self.length:
            raise ValidationError(
                f"strings shape {strings.shape} does not match length {self.length}"
            )
        if strings.dtype.kind not in "iu" or not np.isin(strings, np.arange(4)).all():
            raise ValidationError("string symbols must be the integers 0..3")
        order = np.lexsort(strings.T[::-1])
        runs = RunIndex(strings[order])
        values = np.empty(strings.shape[0])
        values[order] = self.run_values(runs)[runs.prefix_of_row(self.length)]
        return values

    def total_mass(self) -> float:
        """Sum of all string weights, contracted core by core."""
        vec = np.ones(1)
        for core in self.cores:
            vec = vec @ core.sum(axis=0)
        return float(vec[0])


@dataclass
class MpoDensity(_Chain):
    """Matrix-product operator with physical dimension 2 per site.

    Core ``l`` has shape (2, 2, D_l, D_{l+1}) with index order
    (ket, bra, left bond, right bond).
    """

    def __post_init__(self) -> None:
        self.cores = [np.asarray(c, dtype=complex) for c in self.cores]
        self._check((2, 2), "operator chain")
