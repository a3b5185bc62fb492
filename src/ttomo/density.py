"""From fitted outcome trains back to density operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateFitError
from .networks import MpoDensity, TTDistribution
from .povm import Povm, forward_map_site, inverse_map_site
from .states import MAX_OUTCOME_SITES


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


def mpo_to_tt(mpo: MpoDensity, povm: Povm) -> TTDistribution:
    """Apply the measurement map to every core; exact inverse of tt_to_mpo.

    Non-Hermitian bond slices give complex weights, a ValidationError.
    """
    return TTDistribution([forward_map_site(core, povm) for core in mpo.cores])


def mpo_to_dense(mpo: MpoDensity) -> np.ndarray:
    """Contract an operator chain into a dense 2^L x 2^L matrix.

    Site 0 is the most significant bit of both the row and column index.
    Guarded to L <= 10; a result that overflows to non-finite entries raises
    CapacityError.
    """
    if mpo.length > MAX_OUTCOME_SITES:
        raise CapacityError(
            f"dense operator guard is L <= {MAX_OUTCOME_SITES}, got {mpo.length}"
        )
    acc = np.ones((1, 1, 1), dtype=complex)
    for core in mpo.cores:
        acc = np.einsum("rcb,xybd->rxcyd", acc, core)
        acc = acc.reshape(acc.shape[0] * 2, acc.shape[2] * 2, acc.shape[4])
    if not np.isfinite(acc).all():
        raise CapacityError(f"the dense operator overflows at L={mpo.length}")
    return acc[:, :, 0]


@dataclass(frozen=True)
class ReconstructionReport:
    """Sanity numbers of a reconstructed density matrix."""

    trace_deviation: float
    hermiticity_residual: float
    min_eigenvalue: float


def diagnose(rho: np.ndarray) -> ReconstructionReport:
    """Trace deviation, Hermiticity residual, and smallest eigenvalue.

    The eigenvalue is taken from the Hermitian part (rho + rho^dagger) / 2;
    nothing is clipped here, negative values are reported as found.
    """
    rho = np.asarray(rho, dtype=complex)
    trace_dev = float(abs(np.trace(rho) - 1.0))
    skew = rho - rho.conj().T  # summed with np.sum, not BLAS, for any thread count
    herm = float(np.sqrt(np.sum(skew.real**2 + skew.imag**2)))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    return ReconstructionReport(
        trace_deviation=trace_dev,
        hermiticity_residual=herm,
        min_eigenvalue=min_eig,
    )
