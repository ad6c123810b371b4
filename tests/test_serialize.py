import os
import struct

import numpy as np
import pytest

from drawcycle.serialize import (
    MAGIC, CheckpointError, read_entries, rng_state_from_array,
    rng_state_to_array, write_entries,
)


class TestEntries:
    def test_round_trip_mixed_types(self, tmp_path):
        path = str(tmp_path / "x.bin")
        arr = np.random.default_rng(0).normal(size=(3, 4))
        write_entries(path, [
            ("weights", arr),
            ("flag", b"hello"),
            ("scalar", np.array(2.5)),
        ])
        back = read_entries(path)
        assert set(back) == {"weights", "flag", "scalar"}
        assert np.array_equal(back["weights"], arr)
        assert back["weights"].dtype == np.float64
        assert back["flag"] == b"hello"
        assert float(back["scalar"]) == 2.5

    def test_integer_arrays_widen_to_float64(self, tmp_path):
        # the container stores only f8 / u8 / raw; narrow integer input is
        # widened losslessly
        path = str(tmp_path / "u.bin")
        arr = np.arange(9, dtype=np.uint8).reshape(3, 3)
        write_entries(path, [("img", arr)])
        back = read_entries(path)["img"]
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_uint64_preserved(self, tmp_path):
        path = str(tmp_path / "u64.bin")
        arr = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        write_entries(path, [("state", arr)])
        back = read_entries(path)["state"]
        assert back.dtype == np.uint64
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("arr", [
        np.arange(12.0).reshape(3, 4).T,
        np.array(-0.0),
        np.arange(-3, 3, dtype=np.int32),
        np.array([0, 7, 2**64 - 1], dtype=np.uint64),
    ], ids=["transposed", "0-d", "int", "uint64"])
    def test_written_bytes_pinned(self, tmp_path, arr):
        # the bytes the container has always stored for an array: cast to
        # float64 unless uint64, made contiguous, little-endian; the header
        # keeps the array's own ndim and shape
        path = str(tmp_path / "b.bin")
        write_entries(path, [("a", arr)])
        u8 = arr.dtype == np.uint64
        data = np.ascontiguousarray(arr if u8 else arr.astype(np.float64)).astype(
            "<u8" if u8 else "<f8").tobytes()
        want = (MAGIC + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<BB", int(u8), arr.ndim)
                + struct.pack("<%dQ" % arr.ndim, *arr.shape) + data)
        with open(path, "rb") as f:
            assert f.read() == want

    def test_magic_header(self, tmp_path):
        path = str(tmp_path / "m.bin")
        write_entries(path, [("a", np.zeros(1))])
        assert open(path, "rb").read(4) == MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            read_entries(str(p))

    def test_truncated_rejected(self, tmp_path):
        path = str(tmp_path / "t.bin")
        write_entries(path, [("a", np.zeros(100))])
        data = open(path, "rb").read()
        p = tmp_path / "trunc.bin"
        p.write_bytes(data[:-50])
        with pytest.raises(CheckpointError):
            read_entries(str(p))

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = str(tmp_path / "c.bin")
        write_entries(path, [("a", np.arange(1000.0))])
        before = open(path, "rb").read()

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("no data")

        with pytest.raises(RuntimeError, match="no data"):
            write_entries(path, [("a", np.zeros(3)), ("b", Unwritable())])
        assert open(path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == ["c.bin"]
        assert np.array_equal(read_entries(path)["a"], np.arange(1000.0))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"")
        with pytest.raises(CheckpointError):
            read_entries(str(p))


def _small_container(path):
    # every entry kind, a scalar and a multi-byte name
    write_entries(path, [("a", np.arange(3.0)), ("\u00fc", b"raw"),
                         ("s", np.array(2.5)), ("u", np.array([1, 2], dtype=np.uint64))])


class TestSubsetRead:
    def test_keeps_chosen_entries(self, tmp_path):
        path = str(tmp_path / "c.bin")
        _small_container(path)
        full = read_entries(path)
        part = read_entries(path, keep=lambda name: name in ("\u00fc", "u"))
        assert list(part) == ["\u00fc", "u"]
        assert part["\u00fc"] == full["\u00fc"]
        assert np.array_equal(part["u"], full["u"]) and part["u"].dtype == np.uint64
        assert read_entries(path, keep=lambda name: False) == {}


class TestDamagedContainer:
    KEEPS = (None, lambda name: name == "s", lambda name: False)

    @pytest.mark.parametrize("keep", KEEPS, ids=("full", "one", "none"))
    def test_every_truncation_rejected(self, tmp_path, keep):
        # a cut at any byte offset, also inside an entry the subset read
        # skips or through the two-byte name
        path = str(tmp_path / "c.bin")
        _small_container(path)
        data = open(path, "rb").read()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(CheckpointError, match="truncated|bad magic"):
                read_entries(str(cut), keep=keep)

    @pytest.mark.parametrize("keep", KEEPS, ids=("full", "one", "none"))
    def test_trailing_bytes_rejected(self, tmp_path, keep):
        path = str(tmp_path / "c.bin")
        _small_container(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="1 bytes after the last entry"):
            read_entries(path, keep=keep)

    def test_corrupt_name_rejected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        write_entries(path, [("\u00fc", b"")])
        data = bytearray(open(path, "rb").read())
        data[10] = 0xFF  # first byte of the name: never valid UTF-8
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="corrupt name"):
            read_entries(str(path2))

    def test_unknown_kind_rejected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        write_entries(path, [("a", b"")])
        data = bytearray(open(path, "rb").read())
        data[11] = 9  # the kind byte after magic, count, name length and name
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="unknown kind 9"):
            read_entries(str(path2))


class TestRngState:
    def test_round_trip_continues_stream(self):
        rng = np.random.default_rng(123)
        rng.normal(size=17)  # advance
        arr = rng_state_to_array(rng)
        clone = rng_state_from_array(arr)
        assert np.array_equal(rng.normal(size=8), clone.normal(size=8))

    def test_array_layout(self):
        arr = rng_state_to_array(np.random.default_rng(0))
        assert arr.shape == (6,)
        assert arr.dtype == np.uint64

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rng.integers(0, 10, size=5)
        path = str(tmp_path / "r.bin")
        write_entries(path, [("rng", rng_state_to_array(rng))])
        clone = rng_state_from_array(read_entries(path)["rng"])
        assert np.array_equal(rng.integers(0, 1000, size=4),
                              clone.integers(0, 1000, size=4))
