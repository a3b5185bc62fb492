"""Quantum and classical fidelity between target and reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, ValidationError
from .networks import TTDistribution
from .sampling import SampleSet


@dataclass(frozen=True)
class FidelityResult:
    """A fidelity value plus how much negative spectral mass was clipped.

    ``clipped_mass`` sums the magnitudes of the negative eigenvalues the
    quantum fidelity drops from its inputs; it is zero for valid states and
    for the classical estimator. The fidelity itself is reported as computed,
    without truncation to [0, 1].
    """

    fidelity: float
    clipped_mass: float = 0.0

    @property
    def infidelity(self) -> float:
        return 1.0 - self.fidelity


def _root_factor(matrix: np.ndarray):
    """(B, clipped): B B^dagger is the Hermitian part of ``matrix`` on its numerical support.

    B = V sqrt(lambda) over the eigenvalues above numpy's rank cutoff
    n * eps * max|lambda|; ``clipped`` sums the magnitudes of the negative ones.
    """
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    keep = vals > vals.size * np.finfo(float).eps * np.abs(vals).max(initial=0.0)
    return vecs[:, keep] * np.sqrt(vals[keep]), float(-vals[vals < 0.0].sum()) + 0.0


def quantum_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> FidelityResult:
    """Uhlmann fidelity tr(sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 on the numerical supports.

    It is the squared sum of the singular values of B2^dagger B1 (see
    ``_root_factor``). Rounding noise never enters a square root, so the
    value is exact for pure arguments. Negative eigenvalues are dropped, not
    renormalized, and their total magnitude is recorded.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape or rho1.ndim != 2 or rho1.shape[0] != rho1.shape[1]:
        raise ValidationError(f"incompatible shapes {rho1.shape} and {rho2.shape}")
    root1, clipped1 = _root_factor(rho1)
    root2, clipped2 = _root_factor(rho2)
    singular = np.linalg.svd(root2.conj().T @ root1, compute_uv=False)
    return FidelityResult(fidelity=float(singular.sum() ** 2), clipped_mass=clipped1 + clipped2)


def _values_on(obj, test: SampleSet) -> np.ndarray:
    """Values of a tensor train or a dense distribution vector on the test strings."""
    if isinstance(obj, TTDistribution):
        if obj.length != test.L:
            raise ValidationError(
                f"train length {obj.length} does not match strings of length {test.L}"
            )
        return obj.evaluate(test.strings)
    dense = np.asarray(obj, dtype=float)
    if dense.ndim != 1 or dense.size != 4**test.L:
        raise ValidationError(f"dense distribution must have length {4**test.L}")
    return dense[test.codes()]


def classical_fidelity(model, ideal, test: SampleSet) -> FidelityResult:
    """Estimate sum_a sqrt(P_model(a) P_ideal(a)) from a test sample.

    The estimator averages sqrt(P_model / P_ideal) over the test draws:
    sum_j (n_j / N) sqrt(P_model(a_j) / P_ideal(a_j)). ``model`` and
    ``ideal`` may each be a tensor train or a dense distribution vector
    indexed by ``SampleSet.codes``. A test string with nonpositive ideal
    probability cannot have been drawn from the ideal distribution and
    raises IntegrityError.
    """
    p_model = _values_on(model, test)
    p_ideal = _values_on(ideal, test)
    if np.any(p_ideal <= 0.0):
        bad = int(np.argmax(p_ideal <= 0.0))
        raise IntegrityError(
            f"test string index {bad} has nonpositive ideal probability {p_ideal[bad]}"
        )
    # Model values can round off to tiny negatives on exactly-mapped trains.
    ratio = np.clip(p_model, 0.0, None) / p_ideal
    # np.sum, not a BLAS dot, so the value does not depend on the BLAS thread count
    fidelity = float(np.sum(test.weights * np.sqrt(ratio)))
    return FidelityResult(fidelity=fidelity)
