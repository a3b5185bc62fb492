"""Quantum and classical fidelity estimators, and the report of a fitted train."""

import numpy as np
import pytest

from oracles import brute_classical_fidelity, random_density, sqrtm_fidelity
from ttomo.errors import IntegrityError, ValidationError
from ttomo.metrics import classical_fidelity, quantum_fidelity, score
from ttomo.networks import TTDistribution
from ttomo.povm import tetrahedral_povm
from ttomo.sampling import SampleSet, split_train_test
from ttomo.states import exact_outcome_distribution


def test_quantum_fidelity_of_state_with_itself_is_one():
    rng = np.random.default_rng(0)
    rho = random_density(8, rng)
    result = quantum_fidelity(rho, rho)
    assert result.fidelity == pytest.approx(1.0, abs=1e-10)
    assert result.infidelity == pytest.approx(0.0, abs=1e-10)


def test_quantum_fidelity_pure_states_overlap():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        expected = abs(np.vdot(a, b)) ** 2
        result = quantum_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        # rank-deficient inputs: rounding noise below the rank cutoff is dropped
        assert result.fidelity == pytest.approx(expected, abs=1e-13)


def test_quantum_fidelity_matches_sqrtm_oracle():
    rng = np.random.default_rng(2)
    for dim in (2, 4, 8):
        for _ in range(5):
            rho1 = random_density(dim, rng)
            rho2 = random_density(dim, rng)
            result = quantum_fidelity(rho1, rho2)
            assert result.fidelity == pytest.approx(sqrtm_fidelity(rho1, rho2), abs=1e-9)


def test_quantum_fidelity_is_symmetric():
    rng = np.random.default_rng(3)
    rho1 = random_density(4, rng, rank=2)
    rho2 = random_density(4, rng)
    assert quantum_fidelity(rho1, rho2).fidelity == pytest.approx(
        quantum_fidelity(rho2, rho1).fidelity, abs=1e-13
    )


def test_quantum_fidelity_with_maximally_mixed():
    rng = np.random.default_rng(4)
    rho = random_density(4, rng)
    vals = np.linalg.eigvalsh(rho)
    expected = np.sum(np.sqrt(np.clip(vals, 0, None) / 4.0)) ** 2
    assert quantum_fidelity(rho, np.eye(4) / 4.0).fidelity == pytest.approx(expected, abs=1e-10)


def test_quantum_fidelity_records_clipped_mass():
    rho = np.diag([0.6, 0.5, -0.1]).astype(complex)
    sigma = np.eye(3, dtype=complex) / 3.0
    result = quantum_fidelity(rho, sigma)
    assert result.clipped_mass > 0.0
    clean = quantum_fidelity(sigma, sigma)
    assert clean.clipped_mass == 0.0


def test_quantum_fidelity_symmetrizes_inputs():
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    noisy = rho + 1e-13 * rng.normal(size=(4, 4))
    result = quantum_fidelity(noisy, rho)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)


def test_quantum_fidelity_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        quantum_fidelity(np.eye(2), np.eye(3))
    with pytest.raises(ValidationError):
        quantum_fidelity(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_quantum_fidelity_rejects_non_finite_entries(bad):
    broken = np.full((2, 2), bad, dtype=complex)
    for args in ((broken, np.eye(2) / 2), (np.eye(2) / 2, broken)):
        with pytest.raises(ValidationError, match="^density matrices have non-finite entries$"):
            quantum_fidelity(*args)


def _uniform(L):
    return np.full(4**L, 1.0 / 4**L)


def test_classical_fidelity_perfect_model_is_exactly_one():
    dist = _uniform(2)
    test = split_train_test(dist, 5000, seed=6)[0]
    result = classical_fidelity(dist, dist, test)
    assert result.fidelity == 1.0


def test_classical_fidelity_point_mass_frozen_value():
    # model concentrated on one string z against a uniform ideal:
    # only records equal to z contribute, each with weight sqrt(4^L)
    L = 2
    model = np.zeros(16)
    model[9] = 1.0
    test = split_train_test(_uniform(L), 4000, seed=7)[0]
    n_z = test.counts[np.ravel_multi_index(test.strings.T, (4,) * L) == 9].sum()
    result = classical_fidelity(model, _uniform(L), test)
    assert result.fidelity == pytest.approx((n_z / test.total) * 4.0, rel=1e-12)


def test_classical_fidelity_matches_brute_force():
    rng = np.random.default_rng(8)
    model = rng.uniform(0.1, 1.0, size=64)
    model /= model.sum()
    ideal = rng.uniform(0.1, 1.0, size=64)
    ideal /= ideal.sum()
    test = split_train_test(ideal, 3000, seed=9)[0]
    result = classical_fidelity(model, ideal, test)
    assert result.fidelity == pytest.approx(brute_classical_fidelity(model, ideal, test), rel=1e-12)


def test_classical_fidelity_accepts_tt_and_dense_models():
    rng = np.random.default_rng(10)
    core = rng.uniform(0.1, 1.0, size=(4, 1, 1))
    tt = TTDistribution([core.copy(), core.copy()])
    vec = np.einsum("a,b->ab", core[:, 0, 0], core[:, 0, 0]).ravel()
    ideal = _uniform(2)
    test = split_train_test(ideal, 2000, seed=11)[0]
    from_tt = classical_fidelity(tt, ideal, test)
    from_vec = classical_fidelity(vec, ideal, test)
    assert from_tt.fidelity == pytest.approx(from_vec.fidelity, rel=1e-12)


def test_classical_fidelity_rejects_a_model_of_another_length():
    test = split_train_test(_uniform(2), 100, seed=14)[0]
    train = TTDistribution([np.full((4, 1, 1), 0.25)] * 3)
    with pytest.raises(ValidationError, match="^train length 3 does not match strings of length 2$"):
        classical_fidelity(train, _uniform(2), test)
    for bad in (_uniform(3), _uniform(2).reshape(4, 4)):
        with pytest.raises(ValidationError, match="^dense distribution must have length 16$"):
            classical_fidelity(bad, _uniform(2), test)


def test_classical_fidelity_rejects_nonpositive_ideal():
    model = _uniform(1)
    ideal = np.array([0.5, 0.5, 0.0, 0.0])
    dist = np.array([0.25, 0.25, 0.25, 0.25])
    test = split_train_test(dist, 100, seed=12)[0]
    with pytest.raises(IntegrityError):
        classical_fidelity(model, ideal, test)


def test_classical_fidelity_clips_tiny_negative_model_values():
    ideal = _uniform(1)
    model = np.array([0.5, 0.5, -1e-15, 1e-15])
    test = split_train_test(ideal, 400, seed=13)[0]
    result = classical_fidelity(model, ideal, test)
    assert np.isfinite(result.fidelity)
    assert result.fidelity <= 1.0


def test_classical_fidelity_rejects_an_empty_test_set():
    # a valid set (an `N 0` file with no body loads as one), but no estimate
    empty = SampleSet(L=1, total=0, strings=np.zeros((0, 1), dtype=np.uint8), counts=[])
    with pytest.raises(ValidationError, match="^cannot score an empty test set$"):
        classical_fidelity(_uniform(1), _uniform(1), empty)


def test_score_reports_the_negative_spectrum_of_an_unphysical_reconstruction():
    # core [1, 0, 0, 0] at both sites puts all mass on the string 00; its
    # reconstruction is Hermitian with unit trace and spectrum {4, -2, -2, 1}
    core = np.array([1.0, 0.0, 0.0, 0.0]).reshape(4, 1, 1)
    rho = np.eye(4) / 4
    dist = exact_outcome_distribution(rho, tetrahedral_povm())
    test = SampleSet(L=2, total=1, strings=np.zeros((1, 2), dtype=np.uint8), counts=[1])
    report = score(TTDistribution([core, core]), rho, dist, test)
    assert report["min_eigenvalue"] == pytest.approx(-2.0, rel=1e-12)
    assert report["clipped_mass"] == pytest.approx(4.0, rel=1e-12)
    assert report["trace_deviation"] <= 1e-15
    assert report["hermiticity_residual"] <= 1e-15
    # against I/4 the kept eigenvalues 4 and 1 give (sqrt(4/4) + sqrt(1/4))^2
    assert report["f_q"] == pytest.approx(2.25, rel=1e-12)
    assert report["i_q"] == 1.0 - report["f_q"]
    # the one test string has model value 1 and ideal value 1/16
    assert report["f_c"] == pytest.approx(4.0, rel=1e-12)
    assert report["L"] == 2 and report["bond_dims"] == [1, 1, 1]


def test_score_checks_the_target_it_reads_from_a_file():
    core = np.full((4, 1, 1), 0.25)
    test = SampleSet(L=1, total=1, strings=np.zeros((1, 1), dtype=np.uint8), counts=[1])
    dist = np.full(4, 0.25)
    with pytest.raises(ValidationError, match="incompatible shapes"):
        score(TTDistribution([core]), np.eye(4) / 4, dist, test)
    with pytest.raises(ValidationError, match="non-finite entries"):
        score(TTDistribution([core]), np.array([[0.5, np.nan], [np.nan, 0.5]]), dist, test)
