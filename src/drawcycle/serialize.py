"""Binary state container and RNG state round-tripping.

Checkpoints are a flat list of named entries (float64 / uint64 arrays or
raw bytes) in an explicit little-endian format with a version tag, so
save/load round trips are bit-exact across platforms.
"""

import math
import os
import struct

import numpy as np

MAGIC = b"DCK1"

_KIND_F8 = 0
_KIND_U8 = 1
_KIND_RAW = 2


class CheckpointError(Exception):
    pass


# the shape of a PCG64 state packed by ``rng_state_to_array``
RNG_STATE_SHAPE = (6,)


def rng_state_to_array(rng):
    """Pack a PCG64 generator's full state into a uint64 array."""
    st = rng.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise ValueError("only PCG64 generators are supported")
    s = st["state"]["state"]
    inc = st["state"]["inc"]
    return np.array(
        [s & (2**64 - 1), s >> 64, inc & (2**64 - 1), inc >> 64,
         st["has_uint32"], st["uinteger"]],
        dtype=np.uint64,
    )


def rng_state_from_array(arr):
    """Rebuild a PCG64 generator from a packed state array."""
    a = [int(v) for v in np.asarray(arr, dtype=np.uint64)]
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": a[0] | (a[1] << 64), "inc": a[2] | (a[3] << 64)},
        "has_uint32": a[4],
        "uinteger": a[5],
    }
    return rng


def write_entries(path, entries):
    """Write named entries to ``path``.

    ``entries`` is an ordered list of (name, value) where value is a
    float64 array, a uint64 array, or bytes.  The container is written to
    ``path + ".tmp"`` and moved onto ``path`` only once complete, so a
    write that fails leaves an earlier file at ``path`` whole.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(entries)))
            for name, value in entries:
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                if isinstance(value, bytes):
                    fh.write(struct.pack("<BB", _KIND_RAW, 0))
                    fh.write(struct.pack("<Q", len(value)))
                    fh.write(value)
                    continue
                arr = np.asarray(value)
                kind, dt = (_KIND_U8, "<u8") if arr.dtype == np.uint64 else (_KIND_F8, "<f8")
                fh.write(struct.pack("<BB", kind, arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<Q", extent))
                # the array's own buffer, copied only when it is not
                # contiguous in the stored dtype
                fh.write(np.ascontiguousarray(arr, dtype=dt))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_entries(path, keep=None):
    """Read a container written by ``write_entries`` into an ordered dict.

    With ``keep``, a predicate on entry names, only the entries it accepts
    are read; the data of every other entry is seeked past.  Either way
    every entry header is walked, and each length checked against the file
    size, so a truncated or damaged container, or one with bytes after its
    last entry, is a ``CheckpointError``.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError("cannot read %s: %s" % (path, exc))
    with fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError("%s is not a drawcycle checkpoint (bad magic)" % (path,))
        end = os.fstat(fh.fileno()).st_size
        pos = 4

        def advance(n, what):
            nonlocal pos
            if pos + n > end:
                raise CheckpointError("%s: truncated %s" % (path, what))
            pos += n

        def take(n, what):
            advance(n, what)
            return fh.read(n)

        (count,) = struct.unpack("<I", take(4, "header"))
        out = {}
        for i in range(count):
            (nlen,) = struct.unpack("<H", take(2, "entry %d" % i))
            try:
                name = take(nlen, "entry %d" % i).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError("%s: corrupt name of entry %d" % (path, i))
            what = "entry %r" % (name,)
            kind, ndim = struct.unpack("<BB", take(2, what))
            if kind == _KIND_RAW:
                (size,) = struct.unpack("<Q", take(8, what))
            elif kind in (_KIND_F8, _KIND_U8):
                shape = struct.unpack("<%dQ" % ndim, take(8 * ndim, what))
                size = 8 * math.prod(shape)
            else:
                raise CheckpointError("%s: unknown kind %d of %s" % (path, kind, what))
            if keep is None or keep(name):
                data = take(size, what)
                out[name] = data if kind == _KIND_RAW else np.frombuffer(
                    data, dtype="<u8" if kind == _KIND_U8 else "<f8").reshape(shape)
            else:
                advance(size, what)
                fh.seek(pos)
        if pos != end:
            raise CheckpointError("%s: %d bytes after the last entry" % (path, end - pos))
    return out
