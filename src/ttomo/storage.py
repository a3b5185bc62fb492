"""Line-oriented text files, and the container for trains and operator chains.

Every text format of the package (samples, tensors, the snapshot manifest)
is a magic line, then ``key value`` header lines, then a body; read errors
name the offending ``path:lineno``. The tensor container is:

    tttensor 1
    kind tt            (or: kind mpo)
    L 4
    bonds 1 4 10 4 1
    core <entries ...>  (one line per core)

Core entries are flattened row-major. Trains store one decimal per entry;
operator chains (physical extent 2x2, flagged by ``kind mpo``) store real and
imaginary parts as consecutive decimals. Floats are written with ``repr`` so
reading them back is exact; reading rejects a non-finite entry. ``load_array``
reads the snapshot's ``.npy`` arrays and reports a malformed one as a
DataFormatError too.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError, ValidationError, check_integer
from .networks import MpoDensity, TTDistribution

_MAGIC = "tttensor 1"


def fail(path, lineno: int, message: str):
    """Raise a DataFormatError that names the offending ``path:lineno``."""
    raise DataFormatError(f"{path}:{lineno}: {message}")


def read_text(path, encoding: str) -> list:
    """Lines of a text file; an undecodable byte fails on its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        fail(path, lineno, f"byte {raw[exc.start]:#04x} is not {encoding} text")


def read_lines(path, magic: str) -> list:
    """Lines of an ASCII text file whose first line must be ``magic``."""
    lines = read_text(path, "ascii")
    if not lines or lines[0] != magic:
        fail(path, 1, f"expected header '{magic}'")
    return lines


def read_header(path, lines: list, parsers: dict) -> dict:
    """Parse one ``key value`` line per ``parsers`` entry, in order, from line 2."""
    header = {}
    for lineno, (key, parse) in enumerate(parsers.items(), start=2):
        parts = lines[lineno - 1].split(maxsplit=1) if lineno <= len(lines) else []
        if len(parts) != 2 or parts[0] != key:
            fail(path, lineno, f"expected '{key} <value>'")
        try:
            header[key] = parse(parts[1])
        except (ValueError, ValidationError) as exc:
            fail(path, lineno, f"bad header value: {exc}")
    return header


def integer_at_least(name: str, minimum: int):
    """A header value parser: the text's integer, checked to be at least ``minimum``."""
    return lambda text: check_integer(name, int(text), minimum)


def load_array(path) -> np.ndarray:
    """A ``.npy`` array; a truncated or malformed file is a DataFormatError."""
    with open(path, "rb") as fh:
        try:
            return np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise DataFormatError(f"{path}: not a readable .npy array: {exc}")


def write_lines(path, magic: str, header: dict, body=()) -> None:
    """Write ``magic``, one ``key value`` line per header entry, then ``body``."""
    lines = [magic] + [f"{key} {value}" for key, value in header.items()]
    lines.extend(body)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_tensor(path, obj) -> None:
    """Write a TTDistribution or MpoDensity to ``path``."""
    if isinstance(obj, TTDistribution):
        kind = "tt"
    elif isinstance(obj, MpoDensity):
        kind = "mpo"
    else:
        raise ValidationError(f"cannot store object of type {type(obj).__name__}")
    body = []
    for l, core in enumerate(obj.cores):
        flat = np.asarray(core).reshape(-1)
        if not np.isfinite(flat).all():  # load_tensor refuses it; checked before the file opens
            raise ValidationError(f"core {l} has a non-finite entry")
        if kind == "mpo":
            flat = np.column_stack([flat.real, flat.imag]).reshape(-1)
        body.append("core " + " ".join(map(repr, flat.astype(float).tolist())))
    bonds = " ".join(str(d) for d in obj.bond_dims)
    write_lines(path, _MAGIC, {"kind": kind, "L": obj.length, "bonds": bonds}, body)


# Header lines 2..4 of the container, in order, with their value parsers.
_HEADER_PARSERS = {
    "kind": str,
    "L": integer_at_least("L", 1),
    "bonds": lambda text: list(map(integer_at_least("bond", 1), text.split())),
}


def load_tensor(path):
    """Read a tensor container; returns TTDistribution or MpoDensity."""
    lines = read_lines(path, _MAGIC)
    header = read_header(path, lines, _HEADER_PARSERS)
    kind, L, bonds = header["kind"], header["L"], header["bonds"]
    if kind not in ("tt", "mpo"):
        fail(path, 2, f"unknown kind '{kind}'")
    if len(bonds) != L + 1:
        fail(path, 4, f"bond list length {len(bonds)} does not match L={L}")
    cores = []
    per_entry = 2 if kind == "mpo" else 1
    for l in range(L):
        lineno = 5 + l
        if lineno - 1 >= len(lines):
            fail(path, lineno, f"missing core {l}")
        parts = lines[lineno - 1].split()
        if not parts or parts[0] != "core":
            fail(path, lineno, f"expected core {l}")
        expected = 4 * bonds[l] * bonds[l + 1] * per_entry
        if len(parts) - 1 != expected:
            fail(path, lineno, f"core {l} has {len(parts) - 1} entries, expected {expected}")
        try:
            values = np.array(parts[1:], dtype=object).astype(float)  # float() of each token
        except ValueError as exc:
            fail(path, lineno, f"bad entry in core {l}: {exc}")
        if not np.isfinite(values).all():
            fail(path, lineno, f"core {l} has a non-finite entry")
        if kind == "mpo":
            values = values.reshape(-1, 2)
            core = (values[:, 0] + 1j * values[:, 1]).reshape(2, 2, bonds[l], bonds[l + 1])
        else:
            core = values.reshape(4, bonds[l], bonds[l + 1])
        cores.append(core)
    if len(lines) > 4 + L:
        fail(path, 5 + L, "trailing content after last core")
    try:
        return MpoDensity(cores) if kind == "mpo" else TTDistribution(cores)
    except ValidationError as exc:
        fail(path, 4, str(exc))
