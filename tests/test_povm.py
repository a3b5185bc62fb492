"""Tetrahedral measurement set and the site-wise forward/inverse maps.

The frozen numbers below were derived by hand from the Bloch-sphere
construction before the implementation existed.
"""

import numpy as np
import pytest

from oracles import forward_map_site
from ttomo.errors import ValidationError
from ttomo.povm import inverse_map_site, tetrahedral_povm


@pytest.fixture(scope="module")
def povm():
    return tetrahedral_povm()


def _probs(rho, povm):
    # the documented layout of Povm.flat
    return np.real(povm.flat @ np.asarray(rho).reshape(4))


def test_elements_sum_to_identity(povm):
    assert np.allclose(povm.elements.sum(axis=0), np.eye(2), atol=1e-15)


def test_elements_are_positive_with_eigenvalues_zero_and_half(povm):
    for element in povm.elements:
        vals = np.linalg.eigvalsh(element)
        assert np.allclose(sorted(vals), [0.0, 0.5], atol=1e-15)


def test_first_element_projects_on_zero(povm):
    assert np.allclose(povm.elements[0], [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_frozen_corner_entry(povm):
    # amplitude 1/sqrt(3) on |0> makes the (0,0) entry of M^1 equal 1/6
    assert povm.elements[1][0, 0] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_pairwise_overlaps_are_tetrahedral(povm):
    # tr(M^s M^t) = 1/12 for s != t and 1/4 on the diagonal
    for s in range(4):
        for t in range(4):
            overlap = np.trace(povm.elements[s] @ povm.elements[t]).real
            expected = 0.25 if s == t else 1.0 / 12.0
            assert overlap == pytest.approx(expected, abs=1e-14)


def test_flat_map_is_well_conditioned(povm):
    assert povm.flat.shape == (4, 4)
    assert np.allclose(povm.flat @ povm.flat_inverse, np.eye(4), atol=1e-14)
    assert np.linalg.cond(povm.flat) == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_probs_for_basis_and_mixed_states(povm):
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    ket1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    mixed = np.eye(2, dtype=complex) / 2.0
    assert np.allclose(_probs(ket0, povm), [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-14)
    assert np.allclose(_probs(ket1, povm), [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    assert np.allclose(_probs(mixed, povm), [0.25] * 4, atol=1e-15)


def test_probs_match_trace_formula_on_random_states(povm):
    rng = np.random.default_rng(3)
    for _ in range(25):
        factor = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = factor @ factor.conj().T
        rho /= np.trace(rho).real
        expected = [np.trace(m @ rho).real for m in povm.elements]
        assert np.allclose(_probs(rho, povm), expected, atol=1e-14)


def test_forward_inverse_roundtrip_on_random_cores(povm):
    rng = np.random.default_rng(4)
    for _ in range(20):
        core = rng.uniform(0.0, 1.0, size=(4, 3, 2))
        mpo_core = inverse_map_site(core, povm)
        assert mpo_core.shape == (2, 2, 3, 2)
        back = forward_map_site(mpo_core, povm)
        assert np.allclose(back, core, atol=1e-13)


def test_inverse_of_real_core_has_hermitian_bond_slices(povm):
    rng = np.random.default_rng(5)
    core = rng.uniform(0.0, 1.0, size=(4, 2, 3))
    mpo_core = inverse_map_site(core, povm)
    for left in range(2):
        for right in range(3):
            block = mpo_core[:, :, left, right]
            assert np.allclose(block, block.conj().T, atol=1e-14)


def test_forward_of_hermitian_core_is_real(povm):
    rng = np.random.default_rng(6)
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = (block + block.conj().T) / 2.0
    mpo_core = herm.reshape(2, 2, 1, 1)
    probs = forward_map_site(mpo_core, povm)
    assert probs.dtype.kind == "f"


def test_forward_rejects_wrong_shape(povm):
    with pytest.raises(ValidationError):
        forward_map_site(np.zeros((2, 3, 1, 1)), povm)
    with pytest.raises(ValidationError):
        inverse_map_site(np.zeros((3, 1, 1)), povm)
