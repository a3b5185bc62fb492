"""Synthetic targets: spin-chain ground states under depolarizing noise.

Dense operators on L qubits index site 0 as the most significant bit of the
computational basis, matching the string order used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneracyError, ValidationError
from .networks import MpoDensity
from .povm import Povm

MAX_DENSE_SITES = 14
MAX_OUTCOME_SITES = 10
# Smallest spectral gap above the ground level that counts as non-degenerate.
GAP_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Orthonormal Hermitian site basis under the Hilbert-Schmidt inner product.
_HS_BASIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2.0)


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
        if int(self.L) != self.L or self.L < 2:
            raise ValidationError(f"chain length must be an integer >= 2, got {self.L}")
        for name in ("J", "gamma", "h"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"depolarizing strength must lie in [0, 1], got {self.p}")


def xxz_hamiltonian(params: XxzParams) -> np.ndarray:
    """Dense Hamiltonian of the chain; guarded to L <= 14.

    ZZ and Z terms are diagonal in the Z basis; XX + YY on a bond flips an
    antiparallel pair with weight 2 and cancels on a parallel one.
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
    ham = np.diag(diag.astype(complex))
    for l in range(L - 1):
        rows = index[z[:, l] != z[:, l + 1]]
        ham[rows, rows ^ (3 << (L - 2 - l))] += 2.0 * params.J
    return ham


def ground_state_density(params: XxzParams) -> np.ndarray:
    """Pure density matrix of the unique ground state.

    Raises DegeneracyError when the spectral gap above the ground level is
    at most ``GAP_TOL``. The global phase is fixed by making the
    largest-magnitude amplitude real and positive.
    """
    ham = xxz_hamiltonian(params)
    vals, vecs = np.linalg.eigh(ham)
    gap = vals[1] - vals[0]
    if gap <= GAP_TOL:
        raise DegeneracyError(f"ground level is degenerate within {GAP_TOL} (gap {gap:.3e})")
    ground = vecs[:, 0]
    pivot = int(np.argmax(np.abs(ground)))
    phase = ground[pivot] / abs(ground[pivot])
    ground = ground * phase.conj()
    return np.outer(ground, ground.conj())


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix ``rho`` with the maximally mixed state: p * I/d + (1 - p) * rho."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength must lie in [0, 1], got {p}")
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    return p * np.eye(dim, dtype=complex) / dim + (1.0 - p) * rho


def synth_target(params: XxzParams) -> np.ndarray:
    """Depolarized ground state for the given chain parameters."""
    return depolarize(ground_state_density(params), params.p)


def _num_sites(dim: int) -> int:
    L = int(round(np.log2(dim)))
    if 2**L != dim:
        raise ValidationError(f"matrix dimension {dim} is not a power of 2")
    return L


def _map_sites(matrix: np.ndarray, rho: np.ndarray, L: int) -> np.ndarray:
    """[4]*L tensor of a 4x4 map applied to every site's (ket, bra) pair of ``rho``."""
    order = [ax for l in range(L) for ax in (l, L + l)]
    out = rho.reshape([2] * (2 * L)).transpose(order).reshape([4] * L)
    for axis in range(L):
        out = np.moveaxis(np.tensordot(matrix, out, axes=(1, axis)), 0, axis)
    return out


def _tt_svd(tensor: np.ndarray, tol: float) -> list:
    """Sequential SVD factorization with per-cut truncation and fixed signs.

    At each cut the smallest ranks whose discarded squared singular values
    sum to at most ``tol`` are dropped. Each kept left-singular vector is
    scaled so its largest-magnitude entry is positive, which makes the
    factorization deterministic.
    """
    L = tensor.ndim
    work = tensor.reshape(1, -1)
    left_dim = 1
    cores = []
    for l in range(L - 1):
        work = work.reshape(left_dim * 4, -1)
        u, s, vt = np.linalg.svd(work, full_matrices=False)
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        keep = max(1, int(np.sum(tail > tol)))
        u, s, vt = u[:, :keep], s[:keep], vt[:keep]
        pivots = np.argmax(np.abs(u), axis=0)
        signs = np.where(u[pivots, np.arange(keep)] < 0, -1.0, 1.0)
        u, vt = u * signs, vt * signs[:, None]
        cores.append(u.reshape(left_dim, 4, keep).transpose(1, 0, 2))
        work = s[:, None] * vt
        left_dim = keep
    cores.append(work.reshape(left_dim, 4, 1).transpose(1, 0, 2))
    return cores


def _balance_norms(cores: list) -> list:
    """Rescale bonds so every core has the same Frobenius norm.

    Only scalar gauge factors move between neighbouring cores, so the chain
    contraction is unchanged.
    """
    norms = [float(np.linalg.norm(c)) for c in cores]
    if any(n == 0.0 for n in norms):
        return cores
    target = float(np.exp(np.mean(np.log(norms))))
    carry = 1.0
    out = []
    for l in range(len(cores) - 1):
        scale = target / (norms[l] * carry)
        out.append(cores[l] * (carry * scale))
        carry = 1.0 / scale
    out.append(cores[-1] * carry)
    return out


def density_to_mpo(rho: np.ndarray, tol: float = 1e-14) -> MpoDensity:
    """Factor a dense density matrix into an operator chain.

    The matrix is expressed in the orthonormal Hermitian site basis, where a
    Hermitian operator has real coordinates, and that real tensor is factored
    by sequential SVDs. The basis is an isometry, so discarding squared
    singular values up to ``tol`` per cut bounds the Frobenius error of the
    densified result by sqrt(L * tol). Bond slices of the returned cores are
    Hermitian.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"truncation tolerance must be finite and >= 0, got {tol}")
    rho = np.asarray(rho, dtype=complex)
    L = _num_sites(rho.shape[0])
    if L > MAX_DENSE_SITES:
        raise CapacityError(f"dense factorization guard is L <= {MAX_DENSE_SITES}, got {L}")
    coords = np.real_if_close(_map_sites(_HS_BASIS.reshape(4, 4).conj(), rho, L), tol=1000)
    if np.iscomplexobj(coords):
        raise ValidationError("matrix is not Hermitian: site coordinates stay complex")
    cores = _balance_norms(_tt_svd(coords, tol))
    mpo_cores = [np.tensordot(_HS_BASIS, c, axes=(0, 0)) for c in cores]
    return MpoDensity(mpo_cores)


def check_outcome_sites(L: int) -> None:
    """Raise ``CapacityError`` above the guard on enumerated outcome distributions."""
    if L > MAX_OUTCOME_SITES:
        raise CapacityError(f"dense distribution guard is L <= {MAX_OUTCOME_SITES}, got {L}")


def exact_outcome_distribution(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """All 4^L outcome probabilities of measuring ``rho`` site by site.

    Returns a real vector indexed by the outcome string read as a base-4
    number with site 0 as the most significant digit. Guarded to L <= 10.
    """
    rho = np.asarray(rho, dtype=complex)
    L = _num_sites(rho.shape[0])
    check_outcome_sites(L)
    return np.real(_map_sites(povm.flat, rho, L).reshape(-1))
