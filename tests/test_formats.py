import math
import re
import struct
import zlib

import numpy as np
import pytest

from proprio import dataio, evalkit
from proprio.contactnet import ArchitectureSpec, Conv, Dense, Flatten, Relu, init_params, load_params, save_params
from proprio.contactnet import network as net
from proprio.formats import (
    ChecksumFailureError,
    DataError,
    EmptyStreamError,
    SchemaMismatchError,
    VersionMismatchError,
    read_csv,
    read_framed,
    write_csv,
    write_framed,
)


def test_one_error_hierarchy():
    for cls in (SchemaMismatchError, ChecksumFailureError, VersionMismatchError, EmptyStreamError):
        assert issubclass(cls, DataError)
        assert getattr(dataio, cls.__name__) is cls
    assert issubclass(DataError, ValueError)
    for cls in (SchemaMismatchError, ChecksumFailureError, VersionMismatchError):
        assert getattr(net, cls.__name__) is cls


class TestCsv:
    def test_exact_bytes_and_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.1], [2, math.nan], [3, -0.0]])
        assert path.read_bytes() == b"a,b\n1,0.1\n2,\n3,-0.0\n"
        back = read_csv(path, ["a", "b"])
        assert back[0, 1] == 0.1 and np.isnan(back[1, 1]) and math.copysign(1, back[2, 1]) < 0

    def test_crlf_lines_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r\n1,2.5\r\n")
        assert np.array_equal(read_csv(path, ["a", "b"]), [[1.0, 2.5]])

    def test_float64_roundtrip_bit_exact(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(50, 3)) * 10.0 ** np.arange(-150, 150, 100)
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y", "z"], values.tolist())
        assert np.array_equal(read_csv(path, ["x", "y", "z"]), values)

    @pytest.mark.parametrize(
        "text,error,expected",
        [
            (b"a,c\n1,2\n", SchemaMismatchError, ":1: header (2 columns) differs from the 2 expected"),
            (b"a,b,c\n1,2,3\n", SchemaMismatchError, ":1: header (3 columns) differs from the 2 expected"),
            (b"a,b\n1,2\n3\n", SchemaMismatchError, ":3: expected 2 columns, found 1"),
            (b"a,b\n1,2\n3,x\n", SchemaMismatchError, ":3: could not convert"),
            (b"a,b\n1,2\n3,1_0\n", SchemaMismatchError, ":3: '_', space or tab in a data line"),
            (b"a,b\n1, 2\n", SchemaMismatchError, ":2: '_', space or tab in a data line"),
            (b"a,b\n1,2\n3,4 \r\n", SchemaMismatchError, ":3: '_', space or tab in a data line"),
            (b"a,b\n1,\t2\n", SchemaMismatchError, ":2: '_', space or tab in a data line"),
            (b"a,b\n1,\xff\n", SchemaMismatchError, ":2: not UTF-8"),
            (b"a,b\n", EmptyStreamError, ": no data rows"),
            (b"", EmptyStreamError, ": no data rows"),
        ],
        ids=[
            "header-name", "header-count", "field-count", "not-a-number", "underscore", "space", "trailing-space",
            "tab", "not-utf8", "header-only", "empty",
        ],
    )
    def test_rejections_name_path_and_line(self, tmp_path, text, error, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        with pytest.raises(error) as info:
            read_csv(path, ["a", "b"])
        assert str(path) + expected in str(info.value)


class TestFramed:
    def _write(self, path):
        write_framed(path, b"TEST", 3, [struct.pack("<I", 2), b"hi", np.arange(4.0)])

    def test_layout_and_cursor(self, tmp_path):
        path = tmp_path / "f.bin"
        self._write(path)
        blob = path.read_bytes()
        assert blob[:4] == b"TEST" and struct.unpack("<H", blob[4:6]) == (3,)
        assert struct.unpack("<I", blob[-4:]) == (zlib.crc32(blob[4:-4]),)
        cur = read_framed(path, b"TEST", 3)
        (n,) = cur.unpack("<I")
        assert cur.text(n) == "hi"
        assert np.array_equal(cur.array((2, 2)), np.arange(4.0).reshape(2, 2))
        cur.end()

    def test_reads_past_the_end_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        self._write(path)
        cur = read_framed(path, b"TEST", 3)
        cur.unpack("<I")
        with pytest.raises(SchemaMismatchError, match="needs 800 bytes, 34 left"):
            cur.array((10, 10))
        cur.text(2)
        with pytest.raises(SchemaMismatchError, match="32 bytes after the last field"):
            cur.end()

    @pytest.mark.parametrize(
        "magic,version,edit,error",
        [
            (b"XXXX", 3, None, SchemaMismatchError),
            (b"TEST", 4, None, VersionMismatchError),
            (b"TEST", 3, 8, ChecksumFailureError),
            (b"TEST", 3, -1, ChecksumFailureError),
        ],
        ids=["magic", "version", "flipped-byte", "flipped-crc"],
    )
    def test_frame_checks(self, tmp_path, magic, version, edit, error):
        path = tmp_path / "f.bin"
        self._write(path)
        if edit is not None:
            blob = bytearray(path.read_bytes())
            blob[edit] ^= 0x10
            path.write_bytes(bytes(blob))
        with pytest.raises(error, match=re.escape(str(path))):
            read_framed(path, magic, version)


# ---------------------------------------------------------------------------
# seeded byte-mutation fuzzing of every reader


def _frames(n=5):
    rng = np.random.default_rng(1)
    return dataio.FrameSequence(
        t=np.arange(n) / 500.0,
        q=rng.normal(size=(n, 12)), qd=rng.normal(size=(n, 12)),
        acc=rng.normal(size=(n, 3)), gyro=rng.normal(size=(n, 3)),
        pf=rng.normal(size=(n, 12)), vf=rng.normal(size=(n, 12)),
        tau=rng.normal(size=(n, 12)), gt=rng.integers(0, 16, size=n),
    )


def _write_weights(path):
    spec = ArchitectureSpec((Conv(2, 2, 3), Relu(), Flatten(), Dense(4, 2)), window=2, in_channels=2, n_classes=2)
    save_params(init_params(spec, np.random.default_rng(2)), spec, path)


def _write_trajectory(path):
    t = np.arange(6) * 0.01
    evalkit.write_trajectory(path, evalkit.Trajectory(t, np.column_stack([t, t**2, -t])))


# name: (file name, writer, reader, framed)
_READERS = {
    "pcds": ("d.pcds", lambda p: dataio.write_dataset(_frames(), p), dataio.read_dataset, True),
    "pcnw": ("w.pcnw", _write_weights, load_params, True),
    "dataset-csv": ("d.csv", lambda p: dataio.write_dataset(_frames(), p), dataio.read_dataset, False),
    "contacts-csv": ("c.csv", lambda p: dataio.write_contacts(p, np.arange(6) * 0.01, [0, 6, 15, 9, 3, 12]),
                     dataio.read_contacts, False),
    "trajectory-csv": ("t.csv", _write_trajectory, evalkit.read_trajectory, False),
}


def _mutants(blob, rng, count, framed):
    """Flipped, truncated and inserted bytes; most framed mutants get a valid CRC."""
    for i in range(count):
        b = bytearray(blob)
        if i % 3 == 0:
            for j in rng.integers(0, len(b), size=rng.integers(1, 5)):
                b[j] ^= int(rng.integers(1, 256))
        elif i % 3 == 1:
            del b[int(rng.integers(0, len(b))) :]
        else:
            at = int(rng.integers(0, len(b) + 1))
            b[at:at] = rng.integers(0, 256, size=rng.integers(1, 9), dtype=np.uint8).tobytes()
        if framed and len(b) >= 10 and rng.random() < 0.8:
            b[-4:] = struct.pack("<I", zlib.crc32(bytes(b[4:-4])))
        yield bytes(b)


@pytest.mark.parametrize("name", list(_READERS))
def test_mutated_files_load_or_raise_naming_the_file(tmp_path, name):
    filename, write, read, framed = _READERS[name]
    path = tmp_path / filename
    write(path)
    blob = path.read_bytes()
    read(path)
    rng = np.random.default_rng(sum(map(ord, name)))
    outcomes = {"loaded": 0, "rejected": 0}
    for i, mutant in enumerate(_mutants(blob, rng, 600, framed)):
        path.write_bytes(mutant)
        try:
            read(path)
            outcomes["loaded"] += 1
        except ValueError as exc:
            assert str(path) in str(exc), f"mutant {i}: {exc!r}"
            outcomes["rejected"] += 1
    assert outcomes["loaded"] and outcomes["rejected"], outcomes
