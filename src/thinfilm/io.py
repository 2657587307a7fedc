"""Every on-disk artifact: field snapshots and the text files of the runs.

Snapshot format (little endian): magic ``TFGF``, u32 version, u32 dim,
u32 n, f64 box length, f64 time, then n^dim float64 cell values in C order
with the x index fastest, taken through Grid.field.  A text sidecar
``<name>.meta`` repeats the header as key=value lines.  No artifact holds a
wall-clock stamp, so identical inputs give identical bytes.

Text artifacts have one writer per format: ``write_csv`` (energy log,
``convergence.csv``) and ``write_key_values`` (``.meta``, ``fit.txt``; read
back by ``load_config``).  Floats are printed with 17 significant digits so
parse -> print is a fixpoint and values round-trip exactly.  All writers go
through a temp file plus atomic rename.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, check_nonnegative_finite
from .grid import Grid

SNAPSHOT_MAGIC = b"TFGF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


@dataclass
class EnergyRecord:
    """One row of the energy log; nan marks fields without a defined value."""

    t: float
    energy: float
    modified_energy: float
    mass: float
    min_phi: float
    psd_iters: int
    residual: float


# (column name, parser) in file order; the record's fields define both.
_ENERGY_COLUMNS = tuple(
    (f.name, int if f.type in ("int", int) else float) for f in fields(EnergyRecord)
)
ENERGY_HEADER = ",".join(name for name, _ in _ENERGY_COLUMNS)


def format_float(x: float) -> str:
    """17 significant digits: round-trip exact, though not the shortest form."""
    return f"{float(x):.17g}"


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text(value) -> str:
    """Strings and ints as they are; any other number through format_float."""
    return str(value) if isinstance(value, (str, int)) else format_float(value)


def write_csv(path, header: str, rows) -> None:
    """Write the header line and then one comma-separated line per row."""
    lines = [header] + [",".join(map(_text, row)) for row in rows]
    _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())


def write_key_values(path, pairs: dict) -> None:
    """Write one key=value line per pair, in order; load_config reads them back."""
    text = "".join(f"{key}={_text(value)}\n" for key, value in pairs.items())
    _atomic_write_bytes(Path(path), text.encode())


def write_field_snapshot(path, grid: Grid, values: np.ndarray, t: float) -> None:
    """Write one cell field plus its text sidecar atomically; ValueError,
    before anything is written, for a field that Grid.field refuses, and
    ConfigError (a ValueError) for a time that restart_state refuses, one
    that is not a non-negative finite real."""
    path = Path(path)
    values = grid.field(values, "snapshot")
    check_nonnegative_finite("snapshot time", t)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n, grid.length, float(t)
    )
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    _atomic_write_bytes(path, header + data)
    meta = dict(
        magic=SNAPSHOT_MAGIC.decode(), version=SNAPSHOT_VERSION, dim=grid.dim, n=grid.n,
        length=float(grid.length), time=float(t), cells=grid.num_cells,
    )
    write_key_values(path.with_name(path.name + ".meta"), meta)


def read_field_snapshot(path):
    """Read a snapshot; returns (grid, values, t).  FormatError on mismatch
    or a time that the writer refuses, one that is not non-negative and
    finite."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, dim, n, length, t = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        check_nonnegative_finite("time", t)
        grid = Grid(dim, n, length)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid header fields: {exc}") from exc
    expected = _HEADER.size + grid.num_cells * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: size {len(raw)} does not match header ({expected})")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(grid.shape)
    return grid, values.copy(), t


def write_energy_log(path, records) -> None:
    """Write EnergyRecord rows as CSV (atomic)."""
    write_csv(path, ENERGY_HEADER, map(attrgetter(*ENERGY_HEADER.split(",")), records))


def read_energy_log(path):
    """Parse an energy CSV back into EnergyRecord rows."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ENERGY_HEADER:
        head = lines[0] if lines else "<empty>"
        raise FormatError(f"{path}: expected header {ENERGY_HEADER!r}, got {head!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_ENERGY_COLUMNS):
            raise FormatError(f"{path}: bad row {ln!r}")
        try:
            records.append(
                EnergyRecord(*(kind(p) for (_, kind), p in zip(_ENERGY_COLUMNS, parts)))
            )
        except ValueError as exc:
            raise FormatError(f"{path}: bad row {ln!r}: {exc}") from exc
    return records


def load_config(path) -> dict:
    """Read a key=value file: one pair per line, # comments, no duplicates."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out
