"""Chain containers: validation, evaluation, and total mass."""

import re

import numpy as np
import pytest

from oracles import all_strings, dense_tt_vector, mpo_to_tt, random_tt_cores
from ttomo.errors import ValidationError
from ttomo.networks import MpoDensity, TTDistribution
from ttomo.povm import tetrahedral_povm


def test_tt_validation_rejects_broken_chains():
    with pytest.raises(ValidationError):
        TTDistribution([])
    with pytest.raises(ValidationError):
        TTDistribution([np.zeros((3, 1, 1))])  # physical extent must be 4
    with pytest.raises(ValidationError):
        TTDistribution([np.zeros((4, 2, 1))])  # left boundary must be 1
    with pytest.raises(ValidationError):
        TTDistribution([np.zeros((4, 1, 2)), np.zeros((4, 3, 1))])  # bond mismatch
    with pytest.raises(ValidationError, match=r"core 0 has shape \(4, 1, 0\), with an empty bond"):
        TTDistribution([np.zeros((4, 1, 0)), np.zeros((4, 0, 1))])  # bonds must be >= 1
    with pytest.raises(ValidationError, match=r"core 1 has shape \(2, 2, 0, 1\), with an empty"):
        MpoDensity([np.zeros((2, 2, 1, 1)), np.zeros((2, 2, 0, 1))])


def test_tt_rejects_complex_cores():
    with pytest.raises(ValidationError, match="tensor train cores must be real"):
        TTDistribution([np.ones((4, 1, 1), dtype=complex)])


def test_forward_map_of_a_non_hermitian_chain_is_rejected():
    # bond slices that are not Hermitian map to complex outcome weights
    core = np.zeros((2, 2, 1, 1), dtype=complex)
    core[0, 1, 0, 0] = 1.0
    with pytest.raises(ValidationError, match="tensor train cores must be real"):
        mpo_to_tt(MpoDensity([core]), tetrahedral_povm())


def test_tt_properties_and_copy():
    rng = np.random.default_rng(0)
    tt = TTDistribution(random_tt_cores(3, 2, rng))
    assert tt.length == 3
    assert tt.bond_dims == (1, 2, 2, 1)
    assert all(c.min() >= 0 for c in tt.cores)
    clone = tt.copy()
    clone.cores[0][0, 0, 0] += 1.0
    assert tt.cores[0][0, 0, 0] != clone.cores[0][0, 0, 0]


def test_tt_evaluate_matches_enumeration():
    rng = np.random.default_rng(1)
    tt = TTDistribution(random_tt_cores(3, 3, rng))
    values = tt.evaluate(all_strings(3))
    assert np.allclose(values, dense_tt_vector(tt.cores), rtol=1e-13)


def test_tt_evaluate_single_string():
    rng = np.random.default_rng(2)
    tt = TTDistribution(random_tt_cores(2, 2, rng))
    string = np.array([[3, 1]], dtype=np.uint8)
    expected = tt.cores[0][3] @ tt.cores[1][1]
    assert tt.evaluate(string)[0] == pytest.approx(expected[0, 0], rel=1e-14)


@pytest.mark.parametrize("bad", [4, -1, 0.5, np.nan, 1.0])
def test_tt_evaluate_rejects_symbols_outside_0_to_3(bad):
    # a float array is rejected even where its values are 0..3
    tt = TTDistribution(random_tt_cores(2, 2, np.random.default_rng(4)))
    with pytest.raises(ValidationError, match="symbols must be the integers 0..3"):
        tt.evaluate(np.array([[bad, 0], [0, 0]]))


@pytest.mark.parametrize("shape", [(2, 3), (2, 1), (2,)], ids=["wide", "narrow", "flat"])
def test_tt_evaluate_rejects_strings_of_another_width(shape):
    tt = TTDistribution(random_tt_cores(2, 2, np.random.default_rng(4)))
    message = f"strings shape {shape} does not match length 2"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        tt.evaluate(np.zeros(shape, dtype=np.uint8))


def test_tt_total_mass_matches_enumeration():
    rng = np.random.default_rng(3)
    for L, bond_dim in [(1, 1), (2, 3), (4, 4)]:
        tt = TTDistribution(random_tt_cores(L, bond_dim, rng))
        assert tt.total_mass() == pytest.approx(dense_tt_vector(tt.cores).sum(), rel=1e-12)


def test_mpo_validation_and_properties():
    with pytest.raises(ValidationError):
        MpoDensity([np.zeros((2, 2, 2, 1), dtype=complex)])
    cores = [
        np.zeros((2, 2, 1, 3), dtype=complex),
        np.zeros((2, 2, 3, 1), dtype=complex),
    ]
    mpo = MpoDensity(cores)
    assert mpo.length == 2
    assert mpo.bond_dims == (1, 3, 1)
