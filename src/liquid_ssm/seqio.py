"""Sequence file formats: a binary container and a CSV alternative, read and written in row groups.

Binary layout: a 24-byte header -- magic ``LSQ4``, then version, batch,
length, features, reserved as little-endian u32 -- followed by the values as
little-endian float64 in (batch, time, feature) order. Round-trips are
bit-exact.

CSV holds one single-feature sequence per line (human-editable fixtures);
floats are written with shortest round-trip precision.

``SequenceReader`` checks a file's structure when it is opened -- an LSQ4
header and the file size against it, or a whole CSV file, which is parsed
at once -- and then hands out the rows in groups: an LSQ4 group is read
into one reused buffer and checked for finiteness as it is read.
``read_sequences`` is that reader over all rows at once. ``SequenceWriter``
writes groups to a temporary file beside its path and moves it into place
only when every row is written, so a failed run leaves the path as it was;
``write_sequences`` writes one group.

Parse failures raise ``SequenceParseError`` carrying the failing byte offset;
writers reject values their format cannot hold with ``DimensionError``.
"""

from __future__ import annotations

import contextlib
import os
import struct
from collections.abc import Iterator

import numpy as np

from .errors import DimensionError, SequenceParseError

MAGIC = b"LSQ4"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


class SequenceReader:
    """A sequence file opened for reading in row groups; ``shape`` is (batch, length, features).

    Opening checks the structure: an LSQ4 header and the file size it
    implies (``os.fstat``), before any row is read, or a whole CSV file. A
    non-finite LSQ4 value is reported when its group is read. The format
    follows the extension of ``path`` unless ``csv`` says otherwise.
    """

    def __init__(self, path: str, csv: bool | None = None):
        self._fh = self._values = None
        if _is_csv(path) if csv is None else csv:
            self._values = read_sequences_csv(path)
            self.shape = self._values.shape
            return
        self._fh = open(path, "rb")
        try:
            self.shape = _read_header(self._fh)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> SequenceReader:
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.close()

    def groups(self, rows: int) -> Iterator[np.ndarray]:
        """Every row of the file, in order, as (at most ``rows``, L, H) groups.

        LSQ4 groups are views of one buffer, refilled in place for each
        group, so a group is valid until the next is drawn.
        """
        b, l, h = self.shape
        if self._values is not None:
            yield from (self._values[start : start + rows] for start in range(0, b, rows))
            return
        buffer = np.empty((min(rows, b), l, h), "<f8")
        for start in range(0, b, rows):
            group = buffer[: min(rows, b - start)]
            offset = _HEADER.size + 8 * start * l * h
            if self._fh.readinto(group) != group.nbytes:
                raise SequenceParseError(offset, "file shorter than its header says")
            if group.size and not (np.isfinite(group.min()) and np.isfinite(group.max())):
                bad = int(np.flatnonzero(~np.isfinite(group))[0])  # looked for only once one is known
                raise SequenceParseError(offset + 8 * bad, "non-finite value")
            yield group


def _read_header(fh) -> tuple[int, int, int]:
    """The (batch, length, features) of an open LSQ4 file, after checking its header and size."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise SequenceParseError(len(raw), "truncated header")
    magic, version, b, l, h, _ = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise SequenceParseError(0, f"bad magic {magic!r}")
    if version != VERSION:
        raise SequenceParseError(4, f"unsupported version {version}")
    expected, size = _HEADER.size + 8 * b * l * h, os.fstat(fh.fileno()).st_size
    if size != expected:
        raise SequenceParseError(min(size, expected), f"expected {expected} bytes, found {size}")
    return b, l, h


def read_sequences_binary(path: str) -> np.ndarray:
    with SequenceReader(path, csv=False) as reader:  # every row as one group
        return next(reader.groups(max(reader.shape[0], 1)), np.empty(reader.shape))


class SequenceWriter:
    """A new sequence file of a given (batch, length, features) shape, written in row groups.

    The rows go to a temporary file beside ``path``, which replaces ``path``
    when the ``with`` block ends with every row written; on any failure the
    temporary file is removed and ``path`` is left as it was. The format
    follows the extension of ``path`` unless ``csv`` says otherwise.
    """

    def __init__(self, path: str, shape: tuple[int, int, int], csv: bool | None = None):
        self.csv = _is_csv(path) if csv is None else csv
        check_writable(path, shape[2], self.csv)
        self.path, self.shape, self._rows = path, tuple(shape), 0
        folder, name = os.path.split(path)
        self._tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
        self._fh = os.fdopen(os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        if not self.csv:
            try:
                self._fh.write(_HEADER.pack(MAGIC, VERSION, *shape, 0))
            except BaseException:
                self._discard()
                raise

    def write(self, group: np.ndarray) -> None:
        """Append a (rows, L, H) group of the file's length and feature count."""
        if group.shape[1:] != self.shape[1:] or self._rows + len(group) > self.shape[0]:
            raise DimensionError(f"a group shaped {group.shape} does not fit a file shaped {self.shape}")
        if self.csv:
            self._fh.write("".join(",".join(map(repr, row)) + "\n" for row in group[:, :, 0].tolist()).encode())
        else:
            self._fh.write(np.ascontiguousarray(group, dtype="<f8"))  # the array's own buffer, not a tobytes() copy
        self._rows += len(group)

    def _discard(self) -> None:
        self._fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._tmp)

    def __enter__(self) -> SequenceWriter:
        return self

    def __exit__(self, kind, *exc) -> None:
        replaced = False
        try:
            self._fh.close()
            if kind is None:
                if self._rows != self.shape[0]:
                    raise DimensionError(f"{self._rows} rows written to a file of {self.shape[0]} rows")
                os.replace(self._tmp, self.path)
                replaced = True
        finally:
            if not replaced:
                self._discard()


def write_sequences_binary(path: str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise DimensionError("expected (batch, length, features) values")
    with SequenceWriter(path, values.shape, csv=False) as writer:
        writer.write(values)


def write_sequences_csv(path: str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    if values.ndim != 3 or values.shape[2] != 1:
        raise DimensionError("CSV holds (batch, length) or (batch, length, 1) values")
    with SequenceWriter(path, values.shape, csv=True) as writer:
        writer.write(values)


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


def check_writable(path: str, features: int, csv: bool | None = None) -> None:
    """Raise ``DimensionError`` if the format ``path`` selects (CSV if ``csv``, when given) cannot
    hold ``features`` features."""
    if (_is_csv(path) if csv is None else csv) and features != 1:
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
