"""Normalization and the distribution-to-density inversion path."""

import numpy as np
import pytest

from oracles import (
    brute_born_probs,
    brute_mpo_dense,
    dense_tt_vector,
    density_to_mpo,
    mpo_to_tt,
    random_tt_cores,
)
from ttomo.density import mpo_to_dense, normalize_tt, reconstruct, tt_to_mpo
from ttomo.errors import CapacityError, DegenerateFitError
from ttomo.networks import TTDistribution
from ttomo.povm import tetrahedral_povm
from ttomo.states import XxzParams, synth_target


def _random_tt(L, bond_dim, seed):
    rng = np.random.default_rng(seed)
    return TTDistribution(random_tt_cores(L, bond_dim, rng))


def test_normalize_reaches_unit_mass():
    for seed, (L, bond_dim) in enumerate([(2, 2), (3, 3), (4, 4)]):
        tt = _random_tt(L, bond_dim, seed)
        normalized = normalize_tt(tt)
        assert normalized.total_mass() == pytest.approx(1.0, rel=1e-12)
        assert tt.total_mass() != pytest.approx(1.0, rel=1e-3)  # input untouched


def test_normalize_spreads_scale_evenly():
    # a product chain of constant cores (c,c,c,c) normalizes to (1/4, ...) each
    cores = [np.full((4, 1, 1), 0.7) for _ in range(4)]
    normalized = normalize_tt(TTDistribution(cores))
    for core in normalized.cores:
        assert np.allclose(core, 0.25, atol=1e-15)


def test_normalize_is_scale_invariant_core_by_core():
    tt = _random_tt(3, 2, seed=7)
    scaled = TTDistribution([7.0 * c.copy() for c in tt.cores])
    a = normalize_tt(tt)
    b = normalize_tt(scaled)
    for ca, cb in zip(a.cores, b.cores):
        assert np.allclose(ca, cb, rtol=1e-12)


def test_normalize_rejects_degenerate_mass():
    cores = [np.zeros((4, 1, 1)) for _ in range(2)]
    with pytest.raises(DegenerateFitError):
        normalize_tt(TTDistribution(cores))


def test_inversion_forward_roundtrip():
    povm = tetrahedral_povm()
    tt = normalize_tt(_random_tt(3, 3, seed=11))
    mpo = tt_to_mpo(tt, povm)
    back = mpo_to_tt(mpo, povm)
    for ca, cb in zip(tt.cores, back.cores):
        assert np.allclose(ca, cb, rtol=1e-11, atol=1e-14)


def test_reconstruction_is_hermitian_and_unit_trace():
    # informational completeness makes this automatic for any nonnegative TT
    povm = tetrahedral_povm()
    for seed, (L, bond_dim) in enumerate([(2, 1), (2, 4), (3, 3), (4, 6)]):
        tt = normalize_tt(_random_tt(L, bond_dim, seed=20 + seed))
        rho = mpo_to_dense(tt_to_mpo(tt, povm))
        herm = np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho)
        assert herm <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_reconstruction_reproduces_model_probabilities():
    # Born probabilities of the reconstructed operator equal the TT values
    povm = tetrahedral_povm()
    tt = normalize_tt(_random_tt(3, 2, seed=31))
    rho = mpo_to_dense(tt_to_mpo(tt, povm))
    assert np.allclose(brute_born_probs(rho, povm.elements), dense_tt_vector(tt.cores), atol=1e-12)


def test_mpo_to_dense_matches_brute_force():
    rho = synth_target(XxzParams(L=3, p=0.4))
    mpo = density_to_mpo(rho)
    assert np.allclose(mpo_to_dense(mpo), brute_mpo_dense(mpo.cores), atol=1e-13)


def test_mpo_to_dense_capacity_guard():
    povm = tetrahedral_povm()
    tt = normalize_tt(_random_tt(11, 1, seed=41))
    mpo = tt_to_mpo(tt, povm)
    with pytest.raises(CapacityError, match="^dense operator guard is L <= 10, got 11$"):
        mpo_to_dense(mpo)


def test_mpo_to_dense_overflow_raises_capacity_error():
    # each core sums to 1 over its symbols, so the total mass is exactly 1,
    # but the inverted cores carry entries near 1e300 and their product overflows
    core = np.array([1e300, -1e300, 1.0, 0.0]).reshape(4, 1, 1)
    tt = normalize_tt(TTDistribution([core, core]))
    assert tt.total_mass() == 1.0
    with pytest.raises(CapacityError, match="dense operator overflows at L=2"):
        mpo_to_dense(tt_to_mpo(tt, tetrahedral_povm()))


def test_reconstruct_refuses_a_reconstruction_ruined_by_cancellation():
    # unit total mass and a finite dense operator, but the inversion cancels
    # 1e150-sized terms and leaves the trace near -3.6e134 - 5.6e133j
    ruined = TTDistribution(
        [np.array([1e150, -1e150, 1.0, 0.0]).reshape(4, 1, 1), np.array([1.0, 0, 0, 0]).reshape(4, 1, 1)]
    )
    povm = tetrahedral_povm()
    rho_hat = mpo_to_dense(tt_to_mpo(normalize_tt(ruined), povm))
    assert np.isfinite(rho_hat).all() and abs(np.trace(rho_hat)) > 1e134
    with pytest.raises(CapacityError, match=r"L=2 has trace deviation 3.68e\+134"):
        reconstruct(ruined, povm)


def test_reconstruct_is_normalize_invert_densify():
    povm = tetrahedral_povm()
    tt = _random_tt(3, 2, seed=51)
    model, rho_hat = reconstruct(tt, povm)
    expected = normalize_tt(tt)
    assert all(np.array_equal(a, b) for a, b in zip(model.cores, expected.cores))
    assert np.array_equal(rho_hat, mpo_to_dense(tt_to_mpo(expected, povm)))
    assert abs(np.trace(rho_hat) - 1.0) <= 1e-12


def test_exact_snapshot_roundtrips_through_tt():
    # density -> operator chain -> outcome TT -> operator chain -> density
    povm = tetrahedral_povm()
    rho = synth_target(XxzParams(L=4, p=0.6))
    mpo = density_to_mpo(rho)
    tt = mpo_to_tt(mpo, povm)
    # core entries carry mixed signs; the contracted values are probabilities
    assert dense_tt_vector(tt.cores).min() >= -1e-12
    assert tt.total_mass() == pytest.approx(1.0, abs=1e-10)
    rho_back = mpo_to_dense(tt_to_mpo(tt, povm))
    assert np.max(np.abs(rho_back - rho)) <= 1e-10
