"""Synthetic targets: spin-chain ground states under depolarizing noise.

Dense operators on L qubits index site 0 as the most significant bit of the
computational basis, matching the string order used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneracyError, ValidationError, check_integer, check_real
from .povm import Povm

MAX_DENSE_SITES = 10
# Smallest spectral gap above the ground level that counts as non-degenerate.
GAP_TOL = 1e-10


@dataclass(frozen=True)
class XxzParams:
    """Open-boundary XXZ chain with a uniform transverse-plane coupling.

    The Hamiltonian is the sum over neighbouring sites of
    ``J (XX + YY + gamma ZZ)`` plus a field ``h`` times Z on every site,
    all in Pauli matrices. ``p`` is the depolarizing strength applied to
    the ground state.
    """

    L: int
    J: float = 1.0
    gamma: float = 1.0
    h: float = 1.0
    p: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", check_integer("L", self.L, 2))
        for name in ("J", "gamma", "h", "p"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        for name in ("J", "gamma", "h"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"depolarizing strength must lie in [0, 1], got {self.p}")


def xxz_hamiltonian(params: XxzParams) -> np.ndarray:
    """Dense real Hamiltonian of the chain; guarded to L <= 10.

    ZZ and Z terms are diagonal in the Z basis; XX + YY on a bond flips an
    antiparallel pair with the real weight 2J and cancels on a parallel one,
    so the matrix is real symmetric.
    """
    L = params.L
    if L > MAX_DENSE_SITES:
        raise CapacityError(f"dense Hamiltonian guard is L <= {MAX_DENSE_SITES}, got {L}")
    index = np.arange(2**L)
    z = 1.0 - 2.0 * ((index[:, None] >> np.arange(L - 1, -1, -1)) & 1)
    diag = np.zeros(2**L)
    for l in range(L - 1):
        diag += params.J * params.gamma * z[:, l] * z[:, l + 1]
    for l in range(L):
        diag += params.h * z[:, l]
    ham = np.diag(diag)
    for l in range(L - 1):
        rows = index[z[:, l] != z[:, l + 1]]
        ham[rows, rows ^ (3 << (L - 2 - l))] += 2.0 * params.J
    return ham


def ground_state_density(params: XxzParams) -> np.ndarray:
    """Pure real density matrix of the unique ground state.

    The Hamiltonian is real symmetric, so the decomposition runs in real
    arithmetic, and the projector does not depend on the eigenvector's sign.
    Raises DegeneracyError when the spectral gap above the ground level is
    at most ``GAP_TOL``.
    """
    ham = xxz_hamiltonian(params)
    vals, vecs = np.linalg.eigh(ham)
    gap = vals[1] - vals[0]
    if gap <= GAP_TOL:
        raise DegeneracyError(f"ground level is degenerate within {GAP_TOL} (gap {gap:.3e})")
    return np.outer(vecs[:, 0], vecs[:, 0])


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix ``rho`` with the maximally mixed state, in ``rho``'s dtype: p * I/d + (1 - p) * rho."""
    p = check_real("depolarizing strength", p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength must lie in [0, 1], got {p}")
    rho = np.asarray(rho)
    dim = rho.shape[0]
    return p * np.eye(dim) / dim + (1.0 - p) * rho


def synth_target(params: XxzParams) -> np.ndarray:
    """Depolarized ground state for the given chain parameters."""
    return depolarize(ground_state_density(params), params.p)


def _num_sites(rho: np.ndarray) -> int:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"a density matrix must be 2-D and square, got shape {rho.shape}")
    dim = rho.shape[0]
    L = dim.bit_length() - 1
    if L < 1 or 2**L != dim:
        raise ValidationError(f"matrix dimension {dim} is not 2^L for any L >= 1")
    return L


def _map_sites(matrix: np.ndarray, rho: np.ndarray, L: int) -> np.ndarray:
    """[4]*L tensor of a 4x4 map applied to every site's (ket, bra) pair of ``rho``."""
    order = [ax for l in range(L) for ax in (l, L + l)]
    out = rho.reshape([2] * (2 * L)).transpose(order).reshape([4] * L)
    for axis in range(L):
        out = np.moveaxis(np.tensordot(matrix, out, axes=(1, axis)), 0, axis)
    return out


def exact_outcome_distribution(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """All 4^L outcome probabilities of measuring ``rho`` site by site.

    Returns a real vector indexed by the outcome string read as a base-4
    number with site 0 as the most significant digit. Guarded to L <= 10.
    """
    rho = np.asarray(rho)
    L = _num_sites(rho)
    if L > MAX_DENSE_SITES:
        raise CapacityError(f"dense distribution guard is L <= {MAX_DENSE_SITES}, got {L}")
    return np.real(_map_sites(povm.flat, rho, L).reshape(-1))
