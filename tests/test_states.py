"""Synthetic targets: spin-chain ground states, noise, and the operator chain."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_strings,
    brute_born_probs,
    brute_mpo_dense,
    kron_xxz_hamiltonian,
    random_density,
)
from ttomo.errors import CapacityError, DegeneracyError, ValidationError
from ttomo.povm import tetrahedral_povm
from ttomo.states import (
    XxzParams,
    density_to_mpo,
    depolarize,
    exact_outcome_distribution,
    ground_state_density,
    synth_target,
    xxz_hamiltonian,
)


def _assert_hermitian_unit_trace(rho):
    assert np.linalg.norm(rho - rho.conj().T) <= 1e-12 * np.linalg.norm(rho)
    assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_params_validation():
    with pytest.raises(ValidationError):
        XxzParams(L=1)
    with pytest.raises(ValidationError):
        XxzParams(L=3, p=1.5)
    with pytest.raises(ValidationError):
        XxzParams(L=3, p=-0.1)
    for name in ("J", "gamma", "h"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                XxzParams(L=2, **{name: bad})


_COUPLING = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30)
@given(st.integers(2, 7), _COUPLING, _COUPLING, _COUPLING)
@example(3, 0.7, -0.4, 0.9)
def test_hamiltonian_matches_kron_oracle(L, J, gamma, h):
    # the direct build adds the oracle's terms in the oracle's order, so no rounding differs
    ham = xxz_hamiltonian(XxzParams(L=L, J=J, gamma=gamma, h=h))
    assert np.array_equal(ham, kron_xxz_hamiltonian(L, J, gamma, h))


def test_hamiltonian_frozen_xy_spectrum():
    # two-site XX + YY has eigenvalues -2, 0, 0, 2
    ham = xxz_hamiltonian(XxzParams(L=2, J=1.0, gamma=0.0, h=0.0))
    assert np.allclose(np.linalg.eigvalsh(ham), [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_hamiltonian_frozen_field_only():
    ham = xxz_hamiltonian(XxzParams(L=2, J=0.0, gamma=1.0, h=1.0))
    assert np.allclose(ham, np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)


def test_hamiltonian_capacity_guard():
    with pytest.raises(CapacityError):
        xxz_hamiltonian(XxzParams(L=15))


def test_ground_state_is_singlet_for_heisenberg_pair():
    # L=2 Heisenberg: singlet ground state, gap 4, coherence <01|rho|10> = -1/2
    rho = ground_state_density(XxzParams(L=2, J=1.0, gamma=1.0, h=0.0))
    assert rho[1, 2] == pytest.approx(-0.5, abs=1e-12)
    assert rho[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_ground_state_rejects_degenerate_spectrum():
    with pytest.raises(DegeneracyError):
        ground_state_density(XxzParams(L=2, J=0.0, gamma=1.0, h=0.0))


def test_ground_state_is_valid_density():
    for L in (2, 3, 4):
        rho = ground_state_density(XxzParams(L=L))
        _assert_hermitian_unit_trace(rho)
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() >= -1e-12
        assert np.isclose(vals.max(), 1.0, atol=1e-12)


def test_depolarize_endpoints_and_linearity():
    rng = np.random.default_rng(7)
    rho = random_density(4, rng)
    assert np.allclose(depolarize(rho, 0.0), rho)
    assert np.allclose(depolarize(rho, 1.0), np.eye(4) / 4.0, atol=1e-15)
    mid = depolarize(rho, 0.3)
    assert np.allclose(mid, 0.3 * np.eye(4) / 4.0 + 0.7 * rho, atol=1e-15)


def test_synth_target_keeps_unit_trace():
    rho = synth_target(XxzParams(L=3, p=0.6))
    _assert_hermitian_unit_trace(rho)
    vals = np.linalg.eigvalsh(rho)
    # depolarizing by p floors every eigenvalue at p / d
    assert vals.min() >= 0.6 / 8.0 - 1e-12


def test_density_to_mpo_product_state_has_unit_bonds():
    L = 4
    rho = np.eye(2**L, dtype=complex) / 2**L
    mpo = density_to_mpo(rho)
    assert mpo.bond_dims == (1,) * (L + 1)
    for core in mpo.cores:
        assert np.allclose(core[:, :, 0, 0], np.eye(2) / 2.0, atol=1e-14)


def test_density_to_mpo_roundtrip_random():
    rng = np.random.default_rng(8)
    for L in (2, 3):
        rho = random_density(2**L, rng)
        mpo = density_to_mpo(rho)
        assert np.allclose(brute_mpo_dense(mpo.cores), rho, atol=1e-12)


def test_density_to_mpo_roundtrip_targets():
    for L, p in [(2, 0.2), (3, 0.6), (4, 0.8)]:
        rho = synth_target(XxzParams(L=L, p=p))
        mpo = density_to_mpo(rho)
        assert np.allclose(brute_mpo_dense(mpo.cores), rho, atol=1e-12)


def test_density_to_mpo_truncation_shrinks_bonds():
    rho = synth_target(XxzParams(L=4, p=0.6))
    tight = density_to_mpo(rho, tol=1e-14)
    loose = density_to_mpo(rho, tol=1e-1)
    assert sum(loose.bond_dims) < sum(tight.bond_dims)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-14])
def test_density_to_mpo_rejects_a_bad_tolerance(tol):
    rho = synth_target(XxzParams(L=3, p=0.6))
    with pytest.raises(ValidationError, match="truncation tolerance must be finite and >= 0"):
        density_to_mpo(rho, tol=tol)


def test_exact_distribution_matches_kron_oracle():
    rng = np.random.default_rng(9)
    povm = tetrahedral_povm()
    for L in (2, 3):
        rho = random_density(2**L, rng)
        dist = exact_outcome_distribution(rho, povm)
        assert np.allclose(dist, brute_born_probs(rho, povm.elements), atol=1e-13)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_distribution_ordering_is_lexicographic():
    # independent check on one string: P(a) for a = (0, 1) on a product state
    povm = tetrahedral_povm()
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho = np.kron(ket0, np.eye(2, dtype=complex) / 2.0)
    dist = exact_outcome_distribution(rho, povm)
    strings = all_strings(2)
    idx = int(np.flatnonzero((strings == [0, 1]).all(axis=1))[0])
    assert dist[idx] == pytest.approx(0.5 * 0.25, abs=1e-14)


def test_exact_distribution_capacity_guard():
    povm = tetrahedral_povm()
    rho = np.eye(2**11, dtype=complex) / 2**11
    with pytest.raises(CapacityError):
        exact_outcome_distribution(rho, povm)
