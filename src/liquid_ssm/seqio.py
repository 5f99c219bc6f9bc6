"""Sequence file formats: a binary container and a CSV alternative.

Binary layout: a 24-byte header -- magic ``LSQ4``, then version, batch,
length, features, reserved as little-endian u32 -- followed by the values as
little-endian float64 in (batch, time, feature) order. Round-trips are
bit-exact.

CSV holds one single-feature sequence per line (human-editable fixtures);
floats are written with shortest round-trip precision.

Parse failures raise ``SequenceParseError`` carrying the failing byte offset;
writers reject values their format cannot hold with ``DimensionError``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DimensionError, SequenceParseError

MAGIC = b"LSQ4"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


def write_sequences_binary(path: str, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 3:
        raise DimensionError("expected (batch, length, features) values")
    b, l, h = values.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, b, l, h, 0))
        fh.write(values)  # the contiguous array's own buffer, not a tobytes() copy


def read_sequences_binary(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SequenceParseError(len(raw), "truncated header")
    magic, version, b, l, h, _ = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise SequenceParseError(0, f"bad magic {magic!r}")
    if version != VERSION:
        raise SequenceParseError(4, f"unsupported version {version}")
    count = b * l * h
    expected = _HEADER.size + 8 * count
    if len(raw) != expected:
        offset = min(len(raw), expected)
        raise SequenceParseError(offset, f"expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise SequenceParseError(_HEADER.size + 8 * bad, "non-finite value")
    return values.reshape(b, l, h).astype(float)


def write_sequences_csv(path: str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim == 3 and values.shape[2] == 1:
        values = values[:, :, 0]
    if values.ndim != 2:
        raise DimensionError("CSV holds (batch, length) or (batch, length, 1) values")
    with open(path, "w") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_sequences_csv(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise SequenceParseError(0, "empty sequence file")
    rows: list[list[float]] = []
    offset = 0
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped:
            row = []
            field_offset = offset + len(line) - len(line.lstrip())
            for token in stripped.split(b","):
                try:
                    value = float(token)
                except ValueError:
                    raise SequenceParseError(
                        field_offset, f"not a number: {token.decode(errors='replace')!r}"
                    ) from None
                if not np.isfinite(value):
                    raise SequenceParseError(field_offset, "non-finite value")
                row.append(value)
                field_offset += len(token) + 1
            if rows and len(row) != len(rows[0]):
                raise SequenceParseError(
                    offset, f"ragged row: {len(row)} fields, expected {len(rows[0])}"
                )
            rows.append(row)
        offset += len(line) + 1
    if not rows:
        raise SequenceParseError(0, "no sequences in file")
    return np.asarray(rows, dtype=float)[:, :, None]


def _is_csv(path: str) -> bool:
    """Dispatch on extension: ``.csv`` is text, anything else is binary."""
    return str(path).endswith(".csv")


def check_writable(path: str, features: int) -> None:
    """Raise ``DimensionError`` if the format ``path`` selects cannot hold ``features`` features."""
    if _is_csv(path) and features != 1:
        raise DimensionError(f"CSV format holds single-feature sequences only, got {features} features")


def read_sequences(path: str) -> np.ndarray:
    if _is_csv(path):
        return read_sequences_csv(path)
    return read_sequences_binary(path)


def write_sequences(path: str, values: np.ndarray) -> None:
    if _is_csv(path):
        write_sequences_csv(path, values)
    else:
        write_sequences_binary(path, values)
