"""On-disk formats: one framed-binary codec, one CSV table, one error hierarchy.

Framed files (`.pcds`, `.pcnw`): magic (4 bytes) | version u16 | payload |
CRC32 u32 of the version and payload, little-endian. A reader checks magic,
CRC and version, then takes the payload through a bounds-checked Cursor.

CSV tables: lines end in LF (CRLF is read too); the header line must equal
the expected columns exactly and every later line has as many fields.
Fields are written with `str`, which for a Python float is its shortest
round-tripping form (float64 reads back exactly), and NaN as an empty
field; each field reads back with `float()`, an empty one as NaN. A data
line may not hold `_`, a space or a tab: `float()` would accept them
("1_0" as 10, " 1" as 1) and no writer emits them. Errors name
`path:line`; a table with no rows raises EmptyStreamError.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np


class DataError(ValueError):
    """A file's content does not follow its format; the message names the file."""


class SchemaMismatchError(DataError):
    pass


class ChecksumFailureError(DataError):
    pass


class VersionMismatchError(DataError):
    pass


class EmptyStreamError(DataError):
    pass


def write_framed(path, magic: bytes, version: int, chunks):
    """Write magic, version, the payload chunks (bytes or contiguous arrays) and the CRC."""
    crc = 0
    with open(path, "wb") as f:
        f.write(magic)
        for chunk in [struct.pack("<H", version), *chunks]:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


class Cursor:
    """Bounds-checked reads over a framed file's payload, front to back."""

    def __init__(self, path, buf, pos):
        self.path = path
        self.buf = buf
        self.pos = pos

    def _take(self, n, what):
        left = len(self.buf) - self.pos
        if n > left:
            raise SchemaMismatchError(f"{self.path}: byte {self.pos}: {what} needs {n} bytes, {left} left")
        view = self.buf[self.pos : self.pos + n]
        self.pos += n
        return view

    def unpack(self, fmt):
        """struct.unpack of the next fields; fmt must be little-endian."""
        return struct.unpack(fmt, self._take(struct.calcsize(fmt), f"field {fmt!r}"))

    def text(self, n):
        start = self.pos
        try:
            return str(self._take(n, "text"), "utf-8")
        except UnicodeDecodeError:
            raise SchemaMismatchError(f"{self.path}: text at byte {start} is not UTF-8") from None

    def array(self, shape):
        """float64 array of the given shape, copied out of the file."""
        raw = self._take(8 * math.prod(shape), f"float64 array of shape {tuple(shape)}")
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)

    def end(self):
        if self.pos != len(self.buf):
            raise SchemaMismatchError(f"{self.path}: {len(self.buf) - self.pos} bytes after the last field")


def read_framed(path, magic: bytes, version: int) -> Cursor:
    """Check magic, CRC and version; return a cursor at the start of the payload."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(magic)] != magic:
        raise SchemaMismatchError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    if len(blob) < len(magic) + 2 + 4:
        raise ChecksumFailureError(f"{path}: truncated file")
    body = memoryview(blob)[:-4]
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(body[len(magic) :]) != crc:
        raise ChecksumFailureError(f"{path}: CRC mismatch")
    cur = Cursor(path, body, len(magic))
    (found,) = cur.unpack("<H")
    if found != version:
        raise VersionMismatchError(f"{path}: version {found}, expected {version}")
    return cur


def write_csv(path, header, rows):
    """Header line, then one line per row; a row holds Python numbers (ndarray.tolist()) or strings."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("" if v != v else str(v) for v in row) + "\n")


def row_location(path, i: int) -> str:
    """Where row i of a data file is: `path:line` for a CSV, `path: frame i` otherwise (a .pcds)."""
    if str(path).endswith(".csv"):
        return f"{path}:{i + 2}"  # CSV line 1 is the header
    return f"{path}: frame {i}"


def check_times(t, path):
    """Raise at row_location(path, i) for the first timestamp i that is not finite or not above the one before it."""
    bad = ~np.isfinite(t)
    bad[1:] |= ~(t[1:] > t[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaMismatchError(
            f"{row_location(path, i)}: timestamp {float(t[i])!r} is not finite or does not exceed the one before it"
        )


def read_csv(path, header) -> np.ndarray:
    """(rows, columns) float64 array of a table whose header is exactly the list `header`."""
    rows = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = str(raw, "utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise SchemaMismatchError(f"{path}:{lineno}: not UTF-8 text") from None
            fields = line.split(",")
            if lineno == 1:
                if fields != header:
                    raise SchemaMismatchError(f"{path}:1: header ({len(fields)} columns) differs from the {len(header)} expected")
                continue
            if "_" in line or " " in line or "\t" in line:
                raise SchemaMismatchError(f"{path}:{lineno}: '_', space or tab in a data line")
            if len(fields) != len(header):
                raise SchemaMismatchError(f"{path}:{lineno}: expected {len(header)} columns, found {len(fields)}")
            try:
                rows.append([float(v) if v else math.nan for v in fields])
            except ValueError as exc:
                raise SchemaMismatchError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise EmptyStreamError(f"{path}: no data rows")
    return np.array(rows)
