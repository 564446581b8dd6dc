"""A safetensors-like container with lazy per-tensor reads.

Consolidated model-weight files are stored in this format so individual
layers can be copied between checkpoints *without loading the whole
file* — the property the paper exploits for weight merging (and which
optimizer blobs deliberately lack, see :mod:`repro.io.blobfile`).

Layout::

    8 bytes   magic  b"REPROTSR"
    4 bytes   format version (little-endian u32)
    8 bytes   header length H (little-endian u64)
    H bytes   JSON header (utf-8)
    ...       raw tensor buffers, 64-byte aligned

Header schema::

    {"tensors": {name: {"dtype": "bf16", "shape": [...],
                        "offset": int, "nbytes": int, "crc32": int}},
     "metadata": {...}}

Offsets are relative to the start of the data section.  Every tensor
carries a CRC-32 so corruption is detected at read time.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..numerics.dtypes import DType, pack_bits, unpack_bits
from ..util.errors import CheckpointFormatError
from ..util.jsonio import atomic_path

__all__ = ["write_tensorfile", "TensorFile", "TensorFileWriter", "TENSORFILE_VERSION"]

MAGIC = b"REPROTSR"
TENSORFILE_VERSION = 1
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class TensorFileWriter:
    """Incremental tensor-file writer: one tensor in memory at a time.

    Small files accumulate their data section in memory and are written
    in a single pass; once the section crosses ``SPILL_THRESHOLD`` it
    spills to a side file, and ``close()`` assembles the final container
    (header first, then a chunked copy of the spill) — so peak memory
    stays bounded for huge files while ordinary checkpoint saves keep
    their one-sequential-write cost.  Either way the target is replaced
    atomically, and feeding the same tensors in the same order produces
    a byte-identical file to :func:`write_tensorfile`, which is itself
    implemented on top of this class — the weight merge relies on that
    equivalence.
    """

    SPILL_THRESHOLD = 64 << 20  # data sections beyond this go to disk

    def __init__(self, path: str | Path, *, metadata: dict[str, Any] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.metadata = dict(metadata or {})
        self._entries: dict[str, dict[str, Any]] = {}
        self._data_tmp = self.path.with_suffix(self.path.suffix + ".data.tmp")
        self._buffer: io.BytesIO | None = io.BytesIO()
        self._data_fh = None  # opened lazily on spill
        self._offset = 0
        self._closed = False

    def _sink(self):
        if self._buffer is not None and self._offset > self.SPILL_THRESHOLD:
            self._data_fh = self._data_tmp.open("wb")
            self._data_fh.write(self._buffer.getvalue())
            self._buffer = None
        return self._buffer if self._buffer is not None else self._data_fh

    # -- appends -----------------------------------------------------------

    def _append(self, name: str, raw: bytes, dtype_value: str, shape: Sequence[int]) -> None:
        if self._closed:
            raise CheckpointFormatError(f"{self.path}: writer already closed")
        if name in self._entries:
            raise CheckpointFormatError(f"{self.path}: duplicate tensor {name!r}")
        sink = self._sink()
        aligned_offset = _aligned(self._offset)
        if aligned_offset != self._offset:
            sink.write(b"\x00" * (aligned_offset - self._offset))
            self._offset = aligned_offset
        self._entries[name] = {
            "dtype": dtype_value,
            "shape": list(shape),
            "offset": self._offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        }
        sink.write(raw)
        self._offset += len(raw)

    def add(self, name: str, array: np.ndarray, dtype: DType) -> None:
        """Quantize a float32 tensor to ``dtype`` and append it."""
        packed = pack_bits(np.asarray(array, dtype=np.float32), dtype)
        self._append(name, packed.tobytes(), dtype.value, np.asarray(array).shape)

    def add_raw(self, name: str, raw: bytes, entry: Mapping[str, Any]) -> None:
        """Append already-packed bytes (a lossless copy between files).

        ``entry`` is the source header entry (as returned by
        :meth:`TensorFile.read_raw`); dtype and shape are taken from it.
        """
        self._append(name, raw, str(entry["dtype"]), list(entry["shape"]))

    # -- finalization ------------------------------------------------------

    def close(self) -> int:
        """Assemble the final file; returns its total size in bytes."""
        if self._closed:
            return self.path.stat().st_size
        self._closed = True
        if self._data_fh is not None:
            self._data_fh.flush()
            self._data_fh.close()
        header = json.dumps(
            {"tensors": self._entries, "metadata": self.metadata}, sort_keys=True
        ).encode("utf-8")
        try:
            with atomic_path(self.path) as tmp, open(tmp, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", TENSORFILE_VERSION))
                fh.write(struct.pack("<Q", len(header)))
                fh.write(header)
                if self._buffer is not None:  # never spilled: single pass
                    fh.write(self._buffer.getvalue())
                else:
                    with self._data_tmp.open("rb") as data:
                        shutil.copyfileobj(data, fh, 1 << 20)
        finally:
            if self._data_fh is not None:
                self._data_tmp.unlink(missing_ok=True)
        return self.path.stat().st_size

    def abort(self) -> None:
        """Discard the partial write without producing a file."""
        if not self._closed:
            self._closed = True
            if self._data_fh is not None:
                self._data_fh.close()
                self._data_tmp.unlink(missing_ok=True)
            self._buffer = None

    def __enter__(self) -> "TensorFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_tensorfile(
    path: str | Path,
    tensors: Mapping[str, np.ndarray],
    *,
    dtype: DType | Mapping[str, DType] = DType.BF16,
    metadata: dict[str, Any] | None = None,
) -> int:
    """Serialize float32 tensors at the given storage precision.

    ``dtype`` may be a single :class:`DType` for every tensor or a
    per-name mapping.  Returns the total bytes written.
    """

    def dtype_for(name: str) -> DType:
        if isinstance(dtype, DType):
            return dtype
        return dtype[name]

    with TensorFileWriter(path, metadata=metadata) as writer:
        for name, array in tensors.items():
            writer.add(name, array, dtype_for(name))
    return Path(path).stat().st_size


_ITEMSIZE = {d.value: d.itemsize for d in DType}


def _checked_entries(header: Any, data_len: int) -> dict[str, dict[str, Any]]:
    """The header's tensor table, every entry proven readable; else a reason."""
    if not isinstance(header, dict) or not isinstance(header.get("metadata", {}), dict):
        raise ValueError("header is not a JSON object with a metadata object")
    entries = header.get("tensors", {})
    if not isinstance(entries, dict):
        raise ValueError("'tensors' is not a JSON object")
    for name, e in entries.items():
        try:  # hashable JSON scalars only: a list or object dtype is no key
            offset, nbytes, crc, shape = e["offset"], e["nbytes"], e["crc32"], e["shape"]
            itemsize = _ITEMSIZE[e["dtype"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"tensor {name!r}: missing or unknown field {exc}") from exc
        if not (type(offset) is type(nbytes) is type(crc) is int and min(offset, nbytes, crc) >= 0):
            raise ValueError(f"tensor {name!r}: offset, nbytes and crc32 must be ints >= 0")
        if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"tensor {name!r}: shape {shape!r} is not a list of ints >= 0")
        if math.prod(shape) * itemsize != nbytes:
            raise ValueError(f"tensor {name!r}: shape {shape} of {e['dtype']} != {nbytes} bytes")
        if offset + nbytes > data_len:
            raise ValueError(f"tensor {name!r} ends past the data section ({data_len} bytes)")
    return entries


class TensorFile:
    """Lazy reader: the header is parsed eagerly, data only on demand.

    The constructor checks the whole header against the file's size, so
    a hostile or truncated file fails here with :class:`CheckpointFormatError`
    and nothing is ever sized by a declared length.
    """

    _PREAMBLE = struct.Struct("<8sIQ")  # magic, version, header length

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise CheckpointFormatError(f"tensor file not found: {self.path}")
        with self.path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            preamble = fh.read(self._PREAMBLE.size)
            if preamble[: len(MAGIC)] != MAGIC:
                raise CheckpointFormatError(
                    f"{self.path}: bad magic {preamble[: len(MAGIC)]!r} (not a repro tensor file)"
                )
            if len(preamble) != self._PREAMBLE.size:
                raise CheckpointFormatError(f"{self.path}: truncated tensor file preamble")
            _, version, header_len = self._PREAMBLE.unpack(preamble)
            if version != TENSORFILE_VERSION:
                raise CheckpointFormatError(
                    f"{self.path}: unsupported tensor file version {version}"
                )
            self._data_start = self._PREAMBLE.size + header_len
            try:
                if self._data_start > size:
                    raise ValueError(f"header length {header_len} exceeds the file")
                header = json.loads(fh.read(header_len).decode("utf-8"))
                self._entries = _checked_entries(header, size - self._data_start)
            except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors included
                raise CheckpointFormatError(f"{self.path}: corrupt header: {exc}") from exc
        self.metadata: dict[str, Any] = header.get("metadata", {})

    # -- introspection ----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """All tensor names in the container, in file order."""
        return list(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def shape(self, name: str) -> tuple[int, ...]:
        """Shape of one named tensor."""
        return tuple(self._entry(name)["shape"])

    def dtype(self, name: str) -> DType:
        """Storage dtype of one named tensor."""
        return DType.parse(self._entry(name)["dtype"])

    def nbytes(self, name: str) -> int:
        """On-disk payload bytes of one named tensor."""
        return int(self._entry(name)["nbytes"])

    def _entry(self, name: str) -> dict[str, Any]:
        try:
            return self._entries[name]
        except KeyError:
            raise CheckpointFormatError(f"{self.path}: no tensor named {name!r}") from None

    # -- reads -------------------------------------------------------------------

    def read(self, name: str) -> np.ndarray:
        """Read one tensor (seek + read of just its bytes) as float32."""
        raw, entry = self.read_raw(name)
        dt = DType.parse(entry["dtype"])
        buffer = np.frombuffer(raw, dtype=dt.packed_numpy)
        return unpack_bits(buffer, dt).reshape(entry["shape"])

    def read_raw(self, name: str) -> tuple[bytes, dict[str, Any]]:
        """Read a tensor's serialized bytes without decoding (for copies)."""
        entry = self._entry(name)
        with self.path.open("rb") as fh:
            fh.seek(self._data_start + entry["offset"])
            raw = fh.read(entry["nbytes"])
        if len(raw) != entry["nbytes"]:
            raise CheckpointFormatError(f"{self.path}: truncated tensor {name!r}")
        if zlib.crc32(raw) != entry["crc32"]:
            raise CheckpointFormatError(f"{self.path}: CRC mismatch for tensor {name!r}")
        return raw, dict(entry)

    def read_all(self) -> dict[str, np.ndarray]:
        """Materialize every tensor as ``{name: array}`` (decoded copies)."""
        return {name: self.read(name) for name in self._entries}
