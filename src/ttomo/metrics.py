"""Quantum and classical fidelity between target and reconstruction, and the report of a fit."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .density import reconstruct
from .errors import IntegrityError, ValidationError
from .networks import TTDistribution
from .povm import tetrahedral_povm
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
    """(B, clipped, lambda): B B^dagger is the Hermitian part of ``matrix`` on its numerical
    support, and lambda its eigenvalues in ascending order.

    B = V sqrt(lambda) over the eigenvalues above numpy's rank cutoff
    n * eps * max|lambda|; ``clipped`` sums the magnitudes of the negative ones.
    The dtype picks the arithmetic: a real ``matrix`` gives a real B, and a complex one,
    even with a zero imaginary part, is decomposed in complex arithmetic.
    """
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    keep = vals > vals.size * np.finfo(float).eps * np.abs(vals).max(initial=0.0)
    return vecs[:, keep] * np.sqrt(vals[keep]), float(-vals[vals < 0.0].sum()) + 0.0, vals


def _fidelity_and_spectrum(rho1: np.ndarray, rho2: np.ndarray) -> tuple:
    """``quantum_fidelity(rho1, rho2)`` and the eigenvalues of rho1's Hermitian part behind it."""
    rho1, rho2 = np.asarray(rho1), np.asarray(rho2)
    if rho1.shape != rho2.shape or rho1.ndim != 2 or rho1.shape[0] != rho1.shape[1]:
        raise ValidationError(f"incompatible shapes {rho1.shape} and {rho2.shape}")
    if not (np.all(np.isfinite(rho1)) and np.all(np.isfinite(rho2))):
        raise ValidationError("density matrices have non-finite entries")
    root1, clipped1, vals1 = _root_factor(rho1)
    root2, clipped2, _ = _root_factor(rho2)
    singular = np.linalg.svd(root2.conj().T @ root1, compute_uv=False)
    fidelity = FidelityResult(fidelity=float(singular.sum() ** 2), clipped_mass=clipped1 + clipped2)
    return fidelity, vals1


def quantum_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> FidelityResult:
    """Uhlmann fidelity tr(sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 on the numerical supports.

    It is the squared sum of the singular values of B2^dagger B1 (see
    ``_root_factor``). Rounding noise never enters a square root, so the
    value is exact for pure arguments. Negative eigenvalues are dropped, not
    renormalized, and their total magnitude is recorded. Each argument's
    dtype picks its arithmetic: a real one is decomposed in real arithmetic,
    a complex one in complex arithmetic, even when its imaginary part is zero.
    """
    return _fidelity_and_spectrum(rho1, rho2)[0]


def _values_on(obj, test: SampleSet) -> np.ndarray:
    """Values of a tensor train or a dense distribution vector on the test strings."""
    if isinstance(obj, TTDistribution):
        if obj.length != test.L:
            raise ValidationError(
                f"train length {obj.length} does not match strings of length {test.L}"
            )
        return obj.run_values(test.runs)  # the set's rows are its sorted distinct strings
    dense = np.asarray(obj, dtype=float)
    if dense.ndim != 1 or dense.size != 4**test.L:
        raise ValidationError(f"dense distribution must have length {4**test.L}")
    return dense.reshape((4,) * test.L)[tuple(test.strings.T)]


def classical_fidelity(model, ideal, test: SampleSet) -> FidelityResult:
    """Estimate sum_a sqrt(P_model(a) P_ideal(a)) from a test sample.

    The estimator averages sqrt(P_model / P_ideal) over the test draws:
    sum_j (n_j / N) sqrt(P_model(a_j) / P_ideal(a_j)). ``model`` and
    ``ideal`` may each be a tensor train or a dense distribution vector in
    the order of ``exact_outcome_distribution``. A test string with
    nonpositive ideal probability cannot have been drawn from the ideal
    distribution and raises IntegrityError; an empty test set raises
    ValidationError.
    """
    if test.total < 1:
        raise ValidationError("cannot score an empty test set")
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


def score(tt: TTDistribution, rho, dist, test: SampleSet) -> dict:
    """The report of a fitted train against the target ``rho``, its outcome distribution
    ``dist`` and a test set: the fields of ``report.json`` and of a scan row.

    The train is reconstructed once (``density.reconstruct``), and the Hermitian part of
    ``rho_hat`` is decomposed once: ``min_eigenvalue``, the clipped mass and ``f_q`` all
    come from that ``eigh``. Nothing is clipped in ``min_eigenvalue``; the Hermiticity
    residual is the Frobenius norm of ``rho_hat - rho_hat^dagger``.
    """
    start = time.perf_counter()
    model, rho_hat = reconstruct(tt, tetrahedral_povm())
    fq, spectrum = _fidelity_and_spectrum(rho_hat, rho)
    fc = classical_fidelity(model, dist, test)
    skew = rho_hat - rho_hat.conj().T  # summed with np.sum, not BLAS, for any thread count
    return {
        "L": tt.length,
        "bond_dims": list(tt.bond_dims),
        "trace_deviation": float(abs(np.trace(rho_hat) - 1.0)),
        "hermiticity_residual": float(np.sqrt(np.sum(skew.real**2 + skew.imag**2))),
        "min_eigenvalue": float(spectrum[0]),
        "f_q": fq.fidelity,
        "i_q": fq.infidelity,
        "clipped_mass": fq.clipped_mass,
        "f_c": fc.fidelity,
        "i_c": fc.infidelity,
        "runtime_s": time.perf_counter() - start,
    }
