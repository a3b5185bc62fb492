"""Tensor-train and matrix-product-operator containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _check_chain(cores, phys_shape, what: str) -> None:
    if not cores:
        raise ValidationError(f"{what} needs at least one core")
    nphys = len(phys_shape)
    for l, core in enumerate(cores):
        if core.ndim != nphys + 2 or core.shape[:nphys] != phys_shape:
            raise ValidationError(
                f"{what} core {l} has shape {core.shape}, expected {phys_shape} + bonds"
            )
    if cores[0].shape[nphys] != 1 or cores[-1].shape[nphys + 1] != 1:
        raise ValidationError(f"{what} must have outer bond dimension 1")
    for l in range(len(cores) - 1):
        if cores[l].shape[nphys + 1] != cores[l + 1].shape[nphys]:
            raise ValidationError(
                f"{what} bond mismatch between cores {l} and {l + 1}: "
                f"{cores[l].shape[nphys + 1]} != {cores[l + 1].shape[nphys]}"
            )


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


def extend_left(core: np.ndarray, env: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Left environments (T, runs, D) at p + 1: ``env`` at p times core p's slabs, at ``slot``."""
    trials, runs, d_in = env.shape
    d_out = core.shape[3]
    products = env @ core.transpose(0, 2, 1, 3).reshape(trials, d_in, 4 * d_out)
    return products.reshape(trials, runs * 4, d_out).take(slot, axis=1)


@dataclass
class TTDistribution:
    """Tensor train over length-L strings with four outcomes per site.

    Core ``l`` has shape (4, D_l, D_{l+1}); contracting the chain over the
    bond indices yields the (unnormalized) weight of each string. Cores are
    real: complex ones raise ValidationError. Fitted trains keep every entry
    nonnegative; trains obtained by exactly forward-mapping an operator may
    carry signed entries.
    """

    cores: list

    def __post_init__(self) -> None:
        self.cores = [np.asarray(c) for c in self.cores]
        _check_chain(self.cores, (4,), "tensor train")
        if any(np.iscomplexobj(c) for c in self.cores):
            raise ValidationError("tensor train cores must be real")

    @property
    def length(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple:
        """Bond extents D_0 .. D_L including the trivial outer ones."""
        return tuple(c.shape[1] for c in self.cores) + (self.cores[-1].shape[2],)

    def copy(self) -> "TTDistribution":
        return TTDistribution([c.copy() for c in self.cores])

    def evaluate(self, strings: np.ndarray) -> np.ndarray:
        """Weight of each row of ``strings`` (shape (n, L), symbols 0..3), once per prefix run."""
        strings = np.asarray(strings)
        if strings.ndim != 2 or strings.shape[1] != self.length:
            raise ValidationError(
                f"strings shape {strings.shape} does not match length {self.length}"
            )
        if not np.isin(strings, np.arange(4)).all():
            raise ValidationError("string symbols must be the integers 0..3")
        order = np.lexsort(strings.T[::-1])
        runs = RunIndex(strings[order])
        env = np.ones((1, 1, 1))
        for k, core in enumerate(self.cores):
            env = extend_left(core[None], env, runs.prefix_slot[k + 1])
        values = np.empty(strings.shape[0])
        values[order] = env[0, runs.prefix_of_row(self.length), 0]
        return values

    def total_mass(self) -> float:
        """Sum of all string weights, contracted core by core."""
        vec = np.ones(1)
        for core in self.cores:
            vec = vec @ core.sum(axis=0)
        return float(vec[0])


@dataclass
class MpoDensity:
    """Matrix-product operator with physical dimension 2 per site.

    Core ``l`` has shape (2, 2, D_l, D_{l+1}) with index order
    (ket, bra, left bond, right bond).
    """

    cores: list

    def __post_init__(self) -> None:
        self.cores = [np.asarray(c, dtype=complex) for c in self.cores]
        _check_chain(self.cores, (2, 2), "operator chain")

    @property
    def length(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple:
        return tuple(c.shape[2] for c in self.cores) + (self.cores[-1].shape[3],)
