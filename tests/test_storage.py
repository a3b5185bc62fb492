"""Text container for tensor chains."""

import numpy as np
import pytest

from oracles import random_tt_cores
from ttomo.errors import DataFormatError, ValidationError
from ttomo.networks import MpoDensity, TTDistribution
from ttomo.povm import tetrahedral_povm
from ttomo.density import normalize_tt, tt_to_mpo
from ttomo.storage import load_tensor, save_tensor


def test_tt_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    tt = TTDistribution(random_tt_cores(3, 4, rng))
    path = tmp_path / "chain.tt"
    save_tensor(path, tt)
    back = load_tensor(path)
    assert isinstance(back, TTDistribution)
    assert back.bond_dims == tt.bond_dims
    for ca, cb in zip(tt.cores, back.cores):
        assert np.array_equal(ca, cb)  # repr roundtrip keeps every bit


def test_mpo_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    povm = tetrahedral_povm()
    tt = normalize_tt(TTDistribution(random_tt_cores(2, 3, rng)))
    mpo = tt_to_mpo(tt, povm)
    path = tmp_path / "chain.mpo"
    save_tensor(path, mpo)
    back = load_tensor(path)
    assert isinstance(back, MpoDensity)
    for ca, cb in zip(mpo.cores, back.cores):
        assert np.array_equal(ca, cb)


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    tt = TTDistribution(random_tt_cores(2, 2, rng))
    save_tensor(tmp_path / "a", tt)
    save_tensor(tmp_path / "b", tt)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize(
    "mutation",
    [
        lambda lines: ["wrong 9"] + lines[1:],
        lambda lines: lines[:1] + ["kind banana"] + lines[2:],
        lambda lines: lines[:4] + [lines[4].replace("core", "cube", 1)] + lines[5:],
        lambda lines: lines[:-1],  # missing core line
        lambda lines: lines + ["core 1 2 3"],  # trailing content
        lambda lines: lines[:4] + [lines[4] + " 0.5"] + lines[5:],  # extra entry
        lambda lines: lines[:1] + ["kind \u00b5"] + lines[2:],  # not ASCII
        lambda lines: lines[:4] + [lines[4].rsplit(" ", 1)[0] + " abc"] + lines[5:],  # non-float
        lambda lines: lines[:3] + [lines[3] + " 1"] + lines[4:],  # bond list longer than L + 1
        # an outer bond of 2, with the entry count core 0 then needs
        lambda lines: lines[:3] + ["bonds 2 2 1", lines[4] + lines[4][4:]] + lines[5:],
        # non-finite entries: 1e400 reads as inf
        lambda lines: lines[:4] + [lines[4].rsplit(" ", 1)[0] + " 1e400"] + lines[5:],
        lambda lines: lines[:5] + [lines[5].rsplit(" ", 1)[0] + " nan"],
        lambda lines: lines[:5] + [lines[5].rsplit(" ", 1)[0] + " -inf"],
    ],
)
def test_load_rejects_malformed_files(tmp_path, mutation):
    rng = np.random.default_rng(3)
    tt = TTDistribution(random_tt_cores(2, 2, rng))
    path = tmp_path / "chain.tt"
    save_tensor(path, tt)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutation(lines)) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_tensor(path)


@pytest.mark.parametrize("entry", ["1e400", "nan", "-Infinity"])
def test_a_non_finite_entry_is_reported_on_its_core_line(tmp_path, entry):
    path = tmp_path / "chain.tt"
    path.write_text(f"tttensor 1\nkind tt\nL 2\nbonds 1 1 1\ncore 1 2 3 4\ncore 1 2 {entry} 4\n")
    with pytest.raises(DataFormatError, match=r":6: core 1 has a non-finite entry$"):
        load_tensor(path)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["tt", "mpo"])
def test_a_non_finite_entry_is_refused_before_the_file_is_opened(tmp_path, kind, entry):
    path = tmp_path / "chain.tt"
    path.write_text("an earlier file\n")
    shape, one = ((2, 2, 1, 1), 1 + 1j) if kind == "mpo" else ((4, 1, 1), 1.0)
    cores = [np.full(shape, one), np.full(shape, one)]
    (cores[1].imag if kind == "mpo" else cores[1]).flat[2] = entry  # an operator's imaginary part
    chain = MpoDensity(cores) if kind == "mpo" else TTDistribution(cores)
    with pytest.raises(ValidationError, match="^core 1 has a non-finite entry$"):
        save_tensor(path, chain)
    assert path.read_text() == "an earlier file\n"


@pytest.mark.parametrize(
    "obj", [[np.full((4, 1, 1), 0.25)], np.full((4, 1, 1), 0.25), None], ids=["list", "array", "none"]
)
def test_save_refuses_an_object_that_is_not_a_chain(tmp_path, obj):
    path = tmp_path / "chain.tt"
    with pytest.raises(ValidationError, match=f"^cannot store object of type {type(obj).__name__}$"):
        save_tensor(path, obj)
    assert not path.exists()


def test_load_error_names_file_and_line(tmp_path):
    path = tmp_path / "chain.tt"
    path.write_text("tttensor 1\nkind tt\nL 1\nbonds 1 1\nbroken\n")
    with pytest.raises(DataFormatError) as err:
        load_tensor(path)
    message = str(err.value)
    assert "chain.tt" in message
    assert "5" in message


@pytest.mark.parametrize(
    "lineno, bad_line",
    [(2, "kind banana"), (3, "L x"), (4, "bonds 1 x 1"), (3, "L 0")]
    + [(4, "bonds 1 0 1"), (4, "bonds 1 -1 1")],
)
def test_bad_header_value_names_its_line(tmp_path, lineno, bad_line):
    rng = np.random.default_rng(4)
    path = tmp_path / "chain.tt"
    save_tensor(path, TTDistribution(random_tt_cores(2, 2, rng)))
    lines = path.read_text().splitlines()
    lines[lineno - 1] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_tensor(path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")
