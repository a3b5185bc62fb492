"""From fitted outcome trains back to density operators."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DegenerateFitError
from .networks import MpoDensity, TTDistribution
from .povm import Povm, inverse_map_site
from .states import MAX_DENSE_SITES


def normalize_tt(tt: TTDistribution) -> TTDistribution:
    """Scale a train so its total mass is exactly 1.

    Every core is divided by the L-th root of the total mass, which keeps the
    cores on a common scale, preserves nonnegativity, and makes the result
    independent of any prior rescaling of the input. A non-finite or
    non-positive mass raises DegenerateFitError.
    """
    mass = tt.total_mass()
    if not np.isfinite(mass) or mass <= 0.0:
        raise DegenerateFitError(f"total mass {mass} is not a positive finite number")
    scale = mass ** (1.0 / tt.length)
    return TTDistribution([core / scale for core in tt.cores])


def tt_to_mpo(tt: TTDistribution, povm: Povm) -> MpoDensity:
    """Invert the measurement map on every core; bond extents are unchanged."""
    return MpoDensity([inverse_map_site(core, povm) for core in tt.cores])


def mpo_to_dense(mpo: MpoDensity) -> np.ndarray:
    """Contract an operator chain into a dense 2^L x 2^L matrix.

    Site 0 is the most significant bit of both the row and column index.
    Each site is one GEMM: the rows of ``acc`` are the (ket, bra) index pairs
    of the sites so far, site by site, and its columns the open bond, so the
    core as a (left bond, ket * bra * right bond) matrix appends one pair.
    One transpose at the end gathers the ket and bra bits. Guarded to
    L <= 10; a result that overflows to non-finite entries raises
    CapacityError.
    """
    L = mpo.length
    if L > MAX_DENSE_SITES:
        raise CapacityError(f"dense operator guard is L <= {MAX_DENSE_SITES}, got {L}")
    acc = np.ones((1, 1), dtype=complex)
    for core in mpo.cores:
        left, right = core.shape[2:]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            acc = acc @ core.transpose(2, 0, 1, 3).reshape(left, 4 * right)
        acc = acc.reshape(-1, right)
    if not np.isfinite(acc).all():
        raise CapacityError(f"the dense operator overflows at L={L}")
    order = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))
    return acc.reshape([2] * (2 * L)).transpose(order).reshape(2**L, 2**L)


def reconstruct(tt: TTDistribution, povm: Povm) -> tuple:
    """``(model, rho_hat)`` by ``normalize_tt``, ``tt_to_mpo`` and ``mpo_to_dense``; a trace
    off by more than 1e-8, reached only by cancellation, raises CapacityError."""
    model = normalize_tt(tt)
    rho_hat = mpo_to_dense(tt_to_mpo(model, povm))
    deviation = abs(np.trace(rho_hat) - 1.0)
    if not deviation <= 1e-8:
        raise CapacityError(
            f"the reconstruction at L={tt.length} has trace deviation {deviation:.3g} "
            f"(bound 1e-08): cancellation exceeds the float64 precision"
        )
    return model, rho_hat
