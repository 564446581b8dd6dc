"""Monolithic, byte-plane-compressed container for optimizer shard files.

DeepSpeed serializes each rank's optimizer state as one pickled,
compressed file; the whole file must be read and deserialized before any
group inside it can be touched ("no possibility of lazy loading, as in
the case of model weights" — paper §5.4).  This module reproduces that
anatomy with a self-contained binary encoding (no pickle: loading a
checkpoint must never execute code).

Layout::

    8 bytes  magic b"REPROBLB"
    4 bytes  version (u32 LE)
    1 byte   flags (bit 0: the payload is one zlib stream — v1 files only)
    8 bytes  payload length on disk (u64 LE)
    8 bytes  payload length after the bit-0 inflate (u64 LE; v2: the same)
    4 bytes  CRC-32 of the payload after the bit-0 inflate
    ...      payload

Payload encoding (tag-length-value):
``N`` none, ``T``/``F`` bool, ``I`` int64, ``D`` float64, ``S`` utf-8
string, ``B`` raw bytes, ``L`` list, ``M`` dict (keys: str or int),
``A`` ndarray (dtype-string, ndim, dims, byte count, raw C-order buffer),
``P`` planar ndarray (the ``A`` header, then one record per byte of the
itemsize: codec u8 — 0 raw, 1 zlib — stored length u64, stored bytes).

**Byte planes.**  A float's sign/exponent byte is the only one deflate
can shrink; the mantissa bytes are noise.  ``P`` therefore transposes an
array into ``itemsize`` planes (plane ``k`` holds byte ``k`` of every
element) and decides *per plane, from the data* whether to deflate it:
an order-0 entropy estimate on a fixed-size strided sample must predict
at least a 10 % saving and the deflated plane must in fact be smaller.
fp32 noise pays deflate on one byte in four, all-zero buffers collapse
in every plane, and nothing depends on dtype names or endianness.
Numeric arrays with itemsize >= 2 above ``_PLANAR_MIN_BYTES`` are
written as ``P``, everything else as ``A``.

**Versions.**  :func:`write_blob` writes version 2: flag bit 0 clear, the
payload is the TLV stream itself.  Version 1 files (whole payload in one
zlib stream, arrays under ``A`` only) stay readable; their stream must
inflate to exactly the declared length and end the file.

**One decoder.**  Every value carries its length up front, so one walker
reads the TLV stream sequentially in bounded chunks and skips any subtree
a predicate rejects (in a v2 file without inflating a byte of it): a
merge tool pulls a handful of parameter groups out of a multi-gigabyte
shard without materializing the whole checkpoint, and :func:`read_blob`
is the same read with nothing skipped, holding the decoded data plus one
chunk.  Every read still verifies the whole file: every byte enters the
container CRC and the payload length is checked.  :func:`decode` runs the
walker over bytes in memory.  It raises :class:`CheckpointFormatError` on
any malformed byte and never allocates from a declared length before that
many bytes are present.

**Records.**  A selective read can hand back chosen arrays undecoded, as
the immutable :class:`Record` of their exact ``A``/``P`` bytes, which
:func:`iter_encode` copies verbatim: a merge writes what fresh arrays
would give without deflating a plane.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from ..util.errors import CheckpointFormatError
from ..util.jsonio import atomic_path

__all__ = [
    "write_blob",
    "read_blob",
    "read_blob_selected",
    "encode",
    "iter_encode",
    "decode",
    "BLOB_VERSION",
    "Record",
]

MAGIC = b"REPROBLB"
BLOB_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_FLAG_COMPRESSED = 0x01  # v1: the whole payload is one zlib stream
_HEADER = struct.Struct("<8sIBQQI")  # magic, version, flags, lengths, CRC
# Streaming reads pull the file in steps of this size, so a selective
# read's peak memory is the selected data plus one chunk.
_READ_CHUNK = 128 << 10
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_PLANE = struct.Struct("<BQ")  # codec, stored length
_PLANE_RAW, _PLANE_ZLIB = 0, 1
# Below this an array's planes are too short for deflate to repay the
# per-plane records and the transposition.
_PLANAR_MIN_BYTES = 4 << 10
# Entropy is estimated on at most this many bytes of a plane, strided
# over its whole length so a zero head does not speak for a noisy tail.
_SAMPLE = 4 << 10
_MAX_PLANE_BITS = 8 * 0.90  # deflate only if the estimate saves >= 10 %
# c*log2(c) for every possible symbol count of a sample.
_C_LOG2_C = np.arange(_SAMPLE + 1) * np.log2(np.maximum(np.arange(_SAMPLE + 1), 1))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _pack_plane(plane: np.ndarray) -> bytes | None:
    """The plane as a zlib stream when that is worth it, else ``None``."""
    sample = plane[:: -(-plane.size // _SAMPLE)]
    counts = np.bincount(sample, minlength=256)
    bits = math.log2(sample.size) - float(_C_LOG2_C[counts].sum()) / sample.size
    if bits > _MAX_PLANE_BITS:
        return None
    # Planes that pass are Huffman material (exponent bytes) or constant
    # runs (never-stepped moments); Z_RLE codes both and skips LZ77
    # matching, which finds nothing in either and costs ~1.4x the time.
    deflater = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 9, zlib.Z_RLE)
    packed = deflater.compress(plane) + deflater.flush()
    return packed if len(packed) < plane.size else None


def _planar(dtype: np.dtype, nbytes: int) -> bool:
    """Whether the encoder writes an array of this dtype and size as ``P``."""
    return dtype.kind in "iufc" and dtype.itemsize >= 2 and nbytes >= _PLANAR_MIN_BYTES


@dataclass(frozen=True, eq=False)
class Record:
    """One array exactly as a blob stored it: its whole ``A`` or ``P`` TLV record.

    Immutable; ``np.asarray(record)`` decodes (and checks) a plain writeable
    copy.  Written verbatim when its tag is the one the encoder would pick
    for the array, so a v1 ``A`` record of a planar array is re-encoded.
    """

    data: bytes
    dtype: np.dtype
    shape: tuple

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(decode(self.data), dtype=dtype)


def iter_encode(obj: Any) -> Iterator[bytes | memoryview]:
    """Yield the TLV encoding of ``obj`` as a stream of bytes-like chunks.

    Array data is yielded as separate chunks (raw byte planes as views of
    one transposed copy), so a writer can push them straight to a file
    without concatenating the whole payload in memory first.  A
    :class:`Record` of the tag the array would get is yielded as is.
    """
    if obj is None:
        yield b"N"
    elif obj is True:
        yield b"T"
    elif obj is False:
        yield b"F"
    elif isinstance(obj, (int, np.integer)):
        yield b"I" + _I64.pack(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield b"D" + _F64.pack(float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        yield b"S" + _U32.pack(len(raw)) + raw
    elif isinstance(obj, bytes):
        yield b"B" + _U64.pack(len(obj)) + obj
    elif isinstance(obj, (list, tuple)):
        yield b"L" + _U32.pack(len(obj))
        for item in obj:
            yield from iter_encode(item)
    elif isinstance(obj, dict):
        yield b"M" + _U32.pack(len(obj))
        for key, value in obj.items():
            if not isinstance(key, (str, int, np.integer)):
                raise CheckpointFormatError(
                    f"blob dict keys must be str or int, got {type(key).__name__}"
                )
            yield from iter_encode(int(key) if isinstance(key, np.integer) else key)
            yield from iter_encode(value)
    elif isinstance(obj, Record) and obj.data[:1] == (
        b"P" if _planar(obj.dtype, math.prod(obj.shape) * obj.dtype.itemsize) else b"A"
    ):
        yield obj.data
    elif isinstance(obj, (np.ndarray, Record)):
        arr = np.ascontiguousarray(obj).reshape(obj.shape)  # keeps 0-dim 0-dim
        planar = _planar(arr.dtype, arr.nbytes)
        dtype_str = arr.dtype.str.encode("ascii")
        yield (
            (b"P" if planar else b"A")
            + _U8.pack(len(dtype_str))
            + dtype_str
            + _U8.pack(arr.ndim)
            + struct.pack(f"<{arr.ndim}q", *arr.shape)
            + _U64.pack(arr.nbytes)
        )
        if not planar:
            yield arr.tobytes()
            return
        planes = arr.reshape(-1).view(np.uint8).reshape(-1, arr.itemsize).T
        for plane in np.ascontiguousarray(planes):
            packed = _pack_plane(plane)
            if packed is None:
                yield _PLANE.pack(_PLANE_RAW, plane.size)
                yield plane.data
            else:
                yield _PLANE.pack(_PLANE_ZLIB, len(packed))
                yield packed
    else:
        raise CheckpointFormatError(f"cannot serialize object of type {type(obj).__name__}")


def encode(obj: Any) -> bytes:
    """Encode an object tree into the TLV byte string (see module docs for tags)."""
    return b"".join(iter_encode(obj))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

class _Reader:
    """Byte source over an in-memory payload; ``take`` returns views of it."""

    __slots__ = ("buf", "pos")
    as_record = None  # every array is decoded

    def __init__(self, buf: bytes) -> None:
        self.buf = memoryview(buf)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointFormatError("blob payload truncated")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk


def _array_header(src) -> tuple[np.dtype, tuple, int]:
    """Parse and validate the header ``A`` and ``P`` share: dtype, shape, nbytes."""
    (dtype_len,) = _U8.unpack(src.take(1))
    text = bytes(src.take(dtype_len))
    try:
        dtype = np.dtype(text.decode("ascii"))
    except (TypeError, ValueError, SyntaxError) as exc:
        raise CheckpointFormatError(f"unparsable blob array dtype {text!r}") from exc
    # Only canonical fixed-size dtypes are ever written; anything else
    # (object pointers, zero-width, comma/subarray spellings) is hostile.
    if dtype.str.encode("ascii") != text or dtype.hasobject or dtype.itemsize == 0:
        raise CheckpointFormatError(f"unsupported blob array dtype {text!r}")
    (ndim,) = _U8.unpack(src.take(1))
    shape = struct.unpack(f"<{ndim}q", src.take(8 * ndim))
    (nbytes,) = _U64.unpack(src.take(8))
    if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize != nbytes:
        raise CheckpointFormatError(
            f"blob array size mismatch: shape {shape} of {dtype.str} vs {nbytes} bytes"
        )
    return dtype, shape, nbytes


def _plane_header(src, count: int) -> tuple[int, int]:
    """One plane's ``(codec, stored length)``, checked against ``count``."""
    codec, stored = _PLANE.unpack(src.take(_PLANE.size))
    if codec == _PLANE_RAW:
        plausible = stored == count
    else:  # a deflate stream expands at most 1032:1
        plausible = codec == _PLANE_ZLIB and count <= 1032 * stored
    if not plausible:
        raise CheckpointFormatError(
            f"bad blob plane record (codec {codec}, {stored} bytes for {count})"
        )
    return codec, stored


def _read_planes(src, itemsize: int, count: int) -> np.ndarray:
    """Decode ``itemsize`` byte planes into a ``(count, itemsize)`` u8 array."""
    planes = []
    for _ in range(itemsize):
        codec, stored = _plane_header(src, count)
        plane = src.take(stored)
        if codec == _PLANE_ZLIB:
            # The stream must be whole (adler verified), end exactly at
            # its stored length and inflate to exactly ``count`` bytes;
            # max_length bounds the output whatever the stream claims.
            inflater = zlib.decompressobj()
            try:
                plane = inflater.decompress(plane, count + 1)
            except zlib.error as exc:
                raise CheckpointFormatError(f"blob plane inflate failed: {exc}") from exc
            if len(plane) != count or not inflater.eof or inflater.unused_data:
                raise CheckpointFormatError("blob plane stream does not match its record")
        planes.append(plane)
    # Allocated only now: every plane has proven ``count`` bytes exist.
    out = np.empty((count, itemsize), dtype=np.uint8)
    for k, plane in enumerate(planes):
        out[:, k] = np.frombuffer(plane, dtype=np.uint8)
    return out


def _pass_array(src, tag: bytes, consume: Callable[[int], Any]) -> tuple[np.dtype, tuple]:
    """Check an ``A``/``P`` array's header, then ``consume`` the lengths of
    its data (the raw buffer, or each plane after its record)."""
    dtype, shape, nbytes = _array_header(src)
    if tag == b"A":
        consume(nbytes)
    else:
        for _ in range(dtype.itemsize):
            consume(_plane_header(src, nbytes // dtype.itemsize)[1])
    return dtype, shape


def _decode_leaf(src, tag: bytes) -> Any:
    """Decode one non-container value."""
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"I":
        return _I64.unpack(src.take(8))[0]
    if tag == b"D":
        return _F64.unpack(src.take(8))[0]
    if tag == b"S":
        (n,) = _U32.unpack(src.take(4))
        try:
            return str(src.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"blob string is not utf-8: {exc}") from exc
    if tag == b"B":
        (n,) = _U64.unpack(src.take(8))
        return bytes(src.take(n))
    if tag == b"A" or tag == b"P":
        dtype, shape, nbytes = _array_header(src)
        if tag == b"A":
            flat = np.frombuffer(src.take(nbytes), dtype=dtype).copy()
        else:
            flat = _read_planes(src, dtype.itemsize, nbytes // dtype.itemsize).view(dtype)
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointFormatError(f"blob array shape rejected: {exc}") from exc
    raise CheckpointFormatError(f"unknown blob tag {tag!r}")


def _decode_key(key: Any) -> Any:
    if not isinstance(key, (str, int)):
        raise CheckpointFormatError(f"invalid blob dict key type {type(key).__name__}")
    return key


def _everything(path: tuple) -> bool:
    return True


def decode(payload: bytes) -> Any:
    """Decode one TLV payload produced by :func:`encode` back into Python objects."""
    r = _Reader(payload)
    try:
        obj = _decode_selected(r, _everything, ())
    except RecursionError as exc:
        raise CheckpointFormatError("blob nesting too deep") from exc
    if r.pos != len(payload):
        raise CheckpointFormatError(f"blob has {len(payload) - r.pos} trailing bytes")
    return obj


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------

class _StreamSource:
    """Sequential byte source over a blob payload on disk.

    Reads (and, for a v1 payload, inflates no further than ``raw_len``) in
    bounded chunks; the running CRC is folded in once per chunk, not per
    token read.  ``skip`` discards whole chunks without copying them —
    skipped tensor data only ever passes through the CRC.
    """

    def __init__(self, fh, payload_len: int, raw_len: int, compressed: bool) -> None:
        self._fh = fh
        self._remaining_file = payload_len
        self._inflater = zlib.decompressobj() if compressed else None
        self._owed = raw_len  # inflated bytes the header still promises
        self._buf = b""
        self._pos = 0  # consumed prefix of _buf
        self.crc = 0
        self.consumed = 0  # payload bytes handed out or skipped
        self.as_record: Callable[[tuple], bool] | None = None  # paths kept undecoded
        self.tape: list | None = None  # bytes taken while capturing one record

    def _next_chunk(self, size: int) -> bytes | None:
        """The next ``size`` file bytes as payload bytes; None at the end."""
        while True:
            if self._remaining_file <= 0:
                return None
            chunk = self._fh.read(min(size, self._remaining_file))
            if not chunk:
                raise CheckpointFormatError("blob payload truncated")
            self._remaining_file -= len(chunk)
            if self._inflater is not None:
                # Short of max_length, decompress consumes all its input.
                try:
                    chunk = self._inflater.decompress(chunk, self._owed + 1)
                except zlib.error as exc:
                    raise CheckpointFormatError(f"decompression failed: {exc}") from exc
                self._owed -= len(chunk)
                if self._owed < 0:
                    raise CheckpointFormatError("v1 payload inflates past its declared length")
                if self._inflater.eof and (self._inflater.unused_data or self._remaining_file):
                    raise CheckpointFormatError("bytes after the v1 payload stream")
                if not chunk:
                    continue  # compressed chunk produced no output yet
            self.crc = zlib.crc32(chunk, self.crc)
            return chunk

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            parts = [self._buf[self._pos :]]
            have = len(parts[0])
            while have < n:  # bounded by the bytes the file really holds
                chunk = self._next_chunk(max(_READ_CHUNK, n - have))
                if chunk is None:
                    raise CheckpointFormatError("blob payload truncated")
                parts.append(chunk)
                have += len(chunk)
            self._buf = b"".join(parts)
            self._pos, end = 0, n
        out = self._buf[self._pos : end]
        self._pos = end
        self.consumed += n
        if self.tape is not None:
            self.tape.append(out)
        return out

    def skip(self, n: int) -> None:
        """Consume ``n`` bytes without retaining or copying them."""
        self.consumed += n
        avail = len(self._buf) - self._pos
        while n > avail:
            n -= avail
            chunk = self._next_chunk(_READ_CHUNK)
            if chunk is None:
                raise CheckpointFormatError("blob payload truncated")
            self._buf, self._pos, avail = chunk, 0, len(chunk)
        self._pos += n

    def at_end(self) -> bool:
        return self._pos == len(self._buf) and self._next_chunk(1) is None


def _skip_value(src: _StreamSource) -> None:
    """Consume one TLV value without materializing it."""
    tag = src.take(1)
    if tag in (b"N", b"T", b"F"):
        return
    if tag == b"I" or tag == b"D":
        src.skip(8)
    elif tag == b"S":
        (n,) = _U32.unpack(src.take(4))
        src.skip(n)
    elif tag == b"B":
        (n,) = _U64.unpack(src.take(8))
        src.skip(n)
    elif tag == b"L":
        (n,) = _U32.unpack(src.take(4))
        for _ in range(n):
            _skip_value(src)
    elif tag == b"M":
        (n,) = _U32.unpack(src.take(4))
        for _ in range(n):
            _skip_value(src)  # key
            _skip_value(src)  # value
    elif tag == b"A" or tag == b"P":
        _pass_array(src, tag, src.skip)
    else:
        raise CheckpointFormatError(f"unknown blob tag {tag!r}")


# Distinguishes "element pruned by the indexed filter" from a literal
# decoded None element, which must survive the filter untouched.
_SKIPPED = object()


def _decode_indexed_element(
    src: _StreamSource,
    want: Callable[[tuple], bool],
    path: tuple,
    keep: "set",
) -> Any:
    """Decode one list element of ``{"index": i, ...}`` maps, or skip it.

    The shard format's ``groups``/``hyperparams`` lists lead every entry
    with its ``index`` key; peeking at that first pair lets a selective
    read discard the (comparatively token-dense) header maps of groups
    it does not want without walking their fields.  Non-map elements and
    maps not led by ``index`` fall back to a full decode.  Returns the
    ``_SKIPPED`` sentinel (never ``None``, which is a legal element) for
    pruned entries.
    """
    tag = src.take(1)
    if tag != b"M":
        return _decode_selected(src, want, path, tag=tag)
    (n,) = _U32.unpack(src.take(4))
    out: dict[Any, Any] = {}
    for i in range(n):
        key = _decode_key(_decode_selected(src, want, path))
        value = _decode_selected(src, want, path + (key,))
        out[key] = value
        if i == 0 and key == "index" and value not in keep:
            for _ in range(n - 1):
                _skip_value(src)  # key
                _skip_value(src)  # value
            return _SKIPPED
    return out


def _decode_selected(
    src: _StreamSource,
    want: Callable[[tuple], bool],
    path: tuple,
    indexed_filter: Callable[[tuple], "set | None"] | None = None,
    tag: bytes | None = None,
) -> Any:
    """Decode one value (after its ``tag``, if already taken), pruning map
    subtrees the predicate rejects."""
    tag = bytes(src.take(1)) if tag is None else tag
    if tag == b"L":
        (n,) = _U32.unpack(src.take(4))
        keep = indexed_filter(path) if indexed_filter is not None else None
        if keep is not None:
            out_list = []
            for _ in range(n):
                element = _decode_indexed_element(src, want, path, keep)
                if element is not _SKIPPED:
                    out_list.append(element)
            return out_list
        return [
            _decode_selected(src, want, path + (i,), indexed_filter)
            for i in range(n)
        ]
    if tag == b"M":
        (n,) = _U32.unpack(src.take(4))
        out: dict[Any, Any] = {}
        for _ in range(n):
            key = _decode_key(_decode_selected(src, want, path))
            child = path + (key,)
            if want(child):
                out[key] = _decode_selected(src, want, child, indexed_filter)
            else:
                _skip_value(src)
        return out
    if tag not in (b"A", b"P") or src.as_record is None or not src.as_record(path):
        return _decode_leaf(src, tag)
    # Take the array's bytes as they are: its header is checked here, its
    # planes when the record is decoded.
    src.tape = [tag]
    dtype, shape = _pass_array(src, tag, src.take)
    data, src.tape = b"".join(src.tape), None
    return Record(data, dtype, shape)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def write_blob(path: str | Path, obj: Any) -> int:
    """Serialize ``obj`` to a version-2 blob file; returns bytes written to disk.

    The encoded chunks stream straight to the file (the header is
    patched in place afterwards), so writing never holds the full
    payload in memory — only one transposed copy of the array in flight.
    """
    crc = 0
    payload_len = 0
    # A shard is hundreds of plane-sized chunks; the large buffer
    # turns them into a handful of write syscalls.
    with atomic_path(path) as tmp, open(tmp, "wb", buffering=1 << 20) as fh:
        fh.write(b"\x00" * _HEADER.size)  # placeholder, patched below
        for chunk in iter_encode(obj):
            crc = zlib.crc32(chunk, crc)
            payload_len += len(chunk)
            fh.write(chunk)
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, BLOB_VERSION, 0, payload_len, payload_len, crc))
    return _HEADER.size + payload_len


def _open_payload(path: Path):
    """Open a blob file and position the handle at the payload start."""
    if not path.exists():
        raise CheckpointFormatError(f"blob file not found: {path}")
    fh = path.open("rb")
    try:
        header = fh.read(_HEADER.size)
        if header[: len(MAGIC)] != MAGIC:
            raise CheckpointFormatError(
                f"{path}: bad magic {header[: len(MAGIC)]!r} (not a repro blob)"
            )
        if len(header) != _HEADER.size:
            raise CheckpointFormatError(f"{path}: truncated blob header")
        _, version, flags, payload_len, raw_len, crc = _HEADER.unpack(header)
        if version not in _READABLE_VERSIONS:
            raise CheckpointFormatError(f"{path}: unsupported blob version {version}")
        # The declared length caps every later allocation, so it must be
        # backed by the file before anything trusts it.
        on_disk = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload_len != on_disk:
            raise CheckpointFormatError(
                f"{path}: truncated blob payload ({on_disk} bytes, header declares {payload_len})"
            )
    except BaseException:
        fh.close()
        raise
    return fh, bool(flags & _FLAG_COMPRESSED), payload_len, raw_len, crc


def _read(
    path: str | Path,
    want: Callable[[tuple], bool],
    indexed_filter: Callable[[tuple], "set | None"] | None,
    as_record: Callable[[tuple], bool] | None,
) -> Any:
    """The one blob read: walk the payload stream, then check its length and CRC."""
    path = Path(path)
    fh, compressed, payload_len, raw_len, crc = _open_payload(path)
    with fh:
        src = _StreamSource(fh, payload_len, raw_len, compressed)
        src.as_record = as_record
        try:
            obj = _decode_selected(src, want, (), indexed_filter)
        except RecursionError as exc:
            raise CheckpointFormatError(f"{path}: blob nesting too deep") from exc
        if src.consumed != raw_len or not src.at_end():
            raise CheckpointFormatError(
                f"{path}: payload length mismatch ({src.consumed} vs {raw_len})"
            )
        if src.crc != crc:
            raise CheckpointFormatError(f"{path}: CRC mismatch (corrupt blob)")
    return obj


def read_blob_selected(
    path: str | Path,
    want: Callable[[tuple], bool],
    *,
    indexed_filter: Callable[[tuple], "set | None"] | None = None,
    as_record: Callable[[tuple], bool] | None = None,
) -> Any:
    """Decode a blob, materializing only subtrees the predicate accepts.

    ``want`` receives the key path of every map entry as a tuple (e.g.
    ``("fp32_flat_groups", 3)``) and returns whether to decode it;
    rejected subtrees are skipped in the byte stream without building
    numpy arrays or containers.  ``indexed_filter`` optionally maps a
    *list* path (e.g. ``("groups",)``) to a set of wanted ``index``
    values: elements whose leading ``index`` key is not in the set are
    dropped after that one peek, which avoids walking the token-dense
    header maps of unwanted groups.  The whole file is still read
    sequentially (the format is monolithic by design — paper §5.4), but
    peak memory is bounded by the *selected* data, not the shard size.
    Every call reads to the end of the payload and applies the same
    length and CRC checks as :func:`read_blob`, whatever was selected.
    An array at a path ``as_record`` accepts is not decoded: it comes back
    as the :class:`Record` of its bytes, whose planes are checked when it
    is decoded.
    """
    return _read(path, want, indexed_filter, as_record)


def read_blob(path: str | Path) -> Any:
    """Read and fully deserialize a blob file (inherently non-lazy); peak
    memory is the decoded data plus one read chunk."""
    return _read(path, _everything, None, None)
