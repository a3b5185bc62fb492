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
        """Weight of each row of ``strings`` (shape (n, L), symbols 0..3)."""
        strings = np.asarray(strings)
        if strings.ndim != 2 or strings.shape[1] != self.length:
            raise ValidationError(
                f"strings shape {strings.shape} does not match length {self.length}"
            )
        if not np.isin(strings, np.arange(4)).all():
            raise ValidationError("string symbols must be the integers 0..3")
        vec = np.ones((strings.shape[0], 1))
        for l, core in enumerate(self.cores):
            sym = strings[:, l]
            nxt = np.empty((strings.shape[0], core.shape[2]))
            for s in range(4):
                mask = sym == s
                if mask.any():
                    nxt[mask] = vec[mask] @ core[s]
            vec = nxt
        return vec[:, 0]

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
