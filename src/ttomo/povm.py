"""The tetrahedral single-qubit IC-POVM and its site-local maps.

Operator cores use the index order (ket, bra, left bond, right bond). The
``flat`` matrix is laid out so that ``flat @ rho.reshape(4)`` yields the four
outcome probabilities of a single-qubit density matrix ``rho`` stored
row-major; its rows therefore hold the transposed POVM elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Povm:
    """Four single-qubit measurement operators plus their flattened map.

    Attributes:
        elements: Array of shape (4, 2, 2); Hermitian, positive semidefinite
            operators that sum to the identity.
        flat: Array of shape (4, 4); row ``s`` is ``elements[s].T`` flattened
            row-major, so probabilities are ``flat @ rho.reshape(4)``.
        flat_inverse: Exact inverse of ``flat``; maps outcome weights back to
            operator entries.
    """

    elements: np.ndarray
    flat: np.ndarray
    flat_inverse: np.ndarray


def tetrahedral_povm() -> Povm:
    """Build the four-outcome tetrahedral POVM.

    The defining states are |0> and three states sharing one polar angle,
    with azimuthal phases spaced 120 degrees apart. Each operator is half the
    projector onto its state, so the four operators sum to the identity.
    """
    amp0 = np.sqrt(1.0 / 3.0)
    amp1 = np.sqrt(2.0 / 3.0)
    states = [np.array([1.0, 0.0], dtype=complex)]
    for k in range(3):
        phase = np.exp(2j * np.pi * k / 3.0)
        states.append(np.array([amp0, amp1 * phase], dtype=complex))
    elements = np.stack([0.5 * np.outer(s, s.conj()) for s in states])
    flat = np.stack([m.T.reshape(4) for m in elements])
    flat_inverse = np.linalg.inv(flat)
    for arr in (elements, flat, flat_inverse):
        arr.setflags(write=False)
    return Povm(elements=elements, flat=flat, flat_inverse=flat_inverse)


def inverse_map_site(x_core: np.ndarray, povm: Povm) -> np.ndarray:
    """Map an outcome-weight core (s, left, right) back to operator entries.

    Exact inverse of the measurement map ``flat``; returns a complex array of
    shape (2, 2, left, right). Real inputs produce Hermitian bond slices.
    """
    x = np.asarray(x_core)
    if x.ndim != 3 or x.shape[0] != 4:
        raise ValidationError(f"expected core shape (4, Dl, Dr), got {x.shape}")
    w = np.tensordot(povm.flat_inverse, x, axes=(1, 0))
    return w.reshape(2, 2, x.shape[1], x.shape[2])
