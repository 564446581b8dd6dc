"""Serialization formats: tensorfile (lazy) and blobfile (monolithic)."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io.blobfile import (
    BLOB_VERSION,
    decode,
    encode,
    read_blob,
    read_blob_selected,
    write_blob,
)
from repro.io.tensorfile import TensorFile, write_tensorfile
from repro.numerics import DType, quantize
from repro.util.errors import CheckpointFormatError

from conftest import write_blob_v1

# The nightly passes --hypothesis-seed=random, which a derandomized test ignores.
_NIGHTLY = any(arg.startswith("--hypothesis-seed") for arg in sys.argv)


class TestTensorFile:
    def _sample(self, rng):
        return {
            "model.embed_tokens.weight": rng.standard_normal((16, 8)).astype(np.float32),
            "model.norm.weight": rng.standard_normal(8).astype(np.float32),
            "lm_head.weight": rng.standard_normal((16, 8)).astype(np.float32),
        }

    def test_roundtrip_bf16(self, tmp_path, rng):
        tensors = self._sample(rng)
        path = tmp_path / "m.tsr"
        write_tensorfile(path, tensors, dtype=DType.BF16, metadata={"step": 5})
        tf = TensorFile(path)
        assert set(tf.names) == set(tensors)
        assert tf.metadata == {"step": 5}
        for name, arr in tensors.items():
            np.testing.assert_array_equal(tf.read(name), quantize(arr, DType.BF16))

    def test_fp32_roundtrip_exact(self, tmp_path, rng):
        tensors = self._sample(rng)
        write_tensorfile(tmp_path / "m.tsr", tensors, dtype=DType.FP32)
        tf = TensorFile(tmp_path / "m.tsr")
        for name, arr in tensors.items():
            np.testing.assert_array_equal(tf.read(name), arr)

    def test_per_tensor_dtype_map(self, tmp_path, rng):
        tensors = self._sample(rng)
        dtype = {n: (DType.FP32 if "norm" in n else DType.BF16) for n in tensors}
        write_tensorfile(tmp_path / "m.tsr", tensors, dtype=dtype)
        tf = TensorFile(tmp_path / "m.tsr")
        assert tf.dtype("model.norm.weight") is DType.FP32
        assert tf.dtype("lm_head.weight") is DType.BF16

    def test_bf16_bytes_are_two_per_element(self, tmp_path, rng):
        tensors = {"w": rng.standard_normal((32, 32)).astype(np.float32)}
        write_tensorfile(tmp_path / "m.tsr", tensors, dtype=DType.BF16)
        assert TensorFile(tmp_path / "m.tsr").nbytes("w") == 32 * 32 * 2

    def test_shapes_and_total(self, tmp_path, rng):
        tensors = self._sample(rng)
        write_tensorfile(tmp_path / "m.tsr", tensors, dtype=DType.BF16)
        tf = TensorFile(tmp_path / "m.tsr")
        assert tf.shape("model.embed_tokens.weight") == (16, 8)
        assert len(tf) == 3 and "model.norm.weight" in tf

    def test_missing_tensor_raises(self, tmp_path, rng):
        write_tensorfile(tmp_path / "m.tsr", self._sample(rng))
        with pytest.raises(CheckpointFormatError, match="no tensor named"):
            TensorFile(tmp_path / "m.tsr").read("ghost")

    def test_corruption_detected_by_crc(self, tmp_path, rng):
        path = tmp_path / "m.tsr"
        write_tensorfile(path, self._sample(rng), dtype=DType.BF16)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a data byte
        path.write_bytes(bytes(raw))
        tf = TensorFile(path)
        with pytest.raises(CheckpointFormatError, match="CRC"):
            tf.read_all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "fake.tsr"
        path.write_bytes(b"NOTATENSORFILE" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            TensorFile(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="not found"):
            TensorFile(tmp_path / "nope.tsr")

    def test_read_raw_roundtrip(self, tmp_path, rng):
        path = tmp_path / "m.tsr"
        tensors = self._sample(rng)
        write_tensorfile(path, tensors, dtype=DType.BF16)
        tf = TensorFile(path)
        raw, entry = tf.read_raw("model.norm.weight")
        assert len(raw) == entry["nbytes"]

    def test_atomic_write_no_tmp_left(self, tmp_path, rng):
        write_tensorfile(tmp_path / "m.tsr", self._sample(rng))
        assert not list(tmp_path.glob("*.tmp"))


def _tensorfile_with_header(path, header, *, header_len=None, data=bytes(128)):
    """A tensor file whose JSON header (and its declared length) is ``header``."""
    import json
    import struct

    text = json.dumps(header).encode()
    declared = len(text) if header_len is None else header_len
    path.write_bytes(b"REPROTSR" + struct.pack("<IQ", 1, declared) + text + data)
    return path


def _opens_and_reads_typed(path) -> None:
    """Open the file and read every tensor both ways: success or a typed error only."""
    try:
        tf = TensorFile(path)
    except CheckpointFormatError:
        return
    for name in tf.names:
        for read in (tf.read, tf.read_raw):
            try:
                read(name)
            except CheckpointFormatError:
                pass


_GOOD_ENTRY = {"dtype": "bf16", "shape": [4, 4], "offset": 0, "nbytes": 32, "crc32": 0}
_HOSTILE_HEADERS = {
    "header longer than the file": ({"tensors": {}}, 2**40),
    "nbytes beyond the data": ({"tensors": {"w": dict(_GOOD_ENTRY, shape=[2**49], nbytes=2**50)}},
                               None),
    "nbytes not an int": ({"tensors": {"w": dict(_GOOD_ENTRY, nbytes="abc")}}, None),
    "offset beyond the data": ({"tensors": {"w": dict(_GOOD_ENTRY, offset=10**11)}}, None),
    "shape not a list": ({"tensors": {"w": dict(_GOOD_ENTRY, shape="x")}}, None),
    "unknown dtype": ({"tensors": {"w": dict(_GOOD_ENTRY, dtype="nope")}}, None),
    "header is a list": ([{"tensors": {}}], None),
    "tensors not a mapping": ({"tensors": "zzz"}, None),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_HEADERS))
def test_tensorfile_rejects_hostile_header_typed(tmp_path, name):
    """Each header is refused by the constructor with CheckpointFormatError."""
    header, header_len = _HOSTILE_HEADERS[name]
    path = _tensorfile_with_header(tmp_path / "h.tsr", header, header_len=header_len)
    with pytest.raises(CheckpointFormatError):
        TensorFile(path)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**64), 2**64), st.floats(allow_nan=False),
    st.text(max_size=6), st.lists(st.integers(-3, 2**40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_FIELDS = st.sampled_from(["dtype", "shape", "offset", "nbytes", "crc32", None])


@settings(max_examples=200, deadline=None, derandomize=not _NIGHTLY)
@given(
    edits=st.lists(st.tuples(st.sampled_from(["w", "b"]), _FIELDS, _JUNK), min_size=1, max_size=3),
    header_len=st.one_of(st.none(), st.integers(0, 2**63)),
    top=st.one_of(st.none(), _JUNK),
)
@example(edits=[("w", "nbytes", 2**50)], header_len=None, top=None)
@example(edits=[("w", "offset", 10**11)], header_len=None, top=None)
@example(edits=[("w", "shape", "x")], header_len=None, top=None)
@example(edits=[("w", "dtype", None)], header_len=2**40, top=None)
def test_tensorfile_mutated_headers_fail_typed_and_bounded(tmp_path_factory, edits, header_len,
                                                          top):
    """A valid header with fields swapped for junk (a field removed for
    ``None``, an entry replaced for a ``None`` field name, the whole
    header replaced for ``top``, a lying declared length) opens and reads
    or fails with CheckpointFormatError — within a fixed memory budget."""
    import copy
    import tracemalloc

    header = {"metadata": {}, "tensors": {
        "w": dict(_GOOD_ENTRY), "b": dict(_GOOD_ENTRY, shape=[3], offset=64, nbytes=6),
    }}
    for name, field, junk in edits:
        entry = header["tensors"][name]
        if field is None:
            header["tensors"][name] = copy.deepcopy(junk)
        elif isinstance(entry, dict) and junk is None:
            entry.pop(field, None)
        elif isinstance(entry, dict):
            entry[field] = copy.deepcopy(junk)
    if top is not None:
        header = top
    path = _tensorfile_with_header(tmp_path_factory.mktemp("tsr") / "h.tsr", header,
                                   header_len=header_len)
    tracemalloc.start()
    try:
        _opens_and_reads_typed(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestBlobEncoding:
    def test_scalar_types(self):
        for value in [None, True, False, 42, -7, 3.25, "hello", b"raw"]:
            assert decode(encode(value)) == value

    def test_nested_structures(self):
        obj = {"a": [1, {"b": None}], "c": {"d": [True, 2.5, "x"]}, 3: "int-key"}
        assert decode(encode(obj)) == obj

    def test_ndarray_dtypes_and_shapes(self, rng):
        for dtype in (np.float32, np.float64, np.int64, np.uint16):
            arr = (rng.standard_normal((3, 4)) * 10).astype(dtype)
            out = decode(encode(arr))
            assert out.dtype == arr.dtype and out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)

    def test_zero_dim_array(self):
        arr = np.float32(3.5).reshape(())
        out = decode(encode(np.asarray(arr)))
        assert out.shape == () and out == np.float32(3.5)

    def test_unsupported_type_rejected(self):
        with pytest.raises(CheckpointFormatError):
            encode({"bad": object()})
        with pytest.raises(CheckpointFormatError):
            encode({(1, 2): "tuple-key"})

    def test_truncated_payload_detected(self):
        payload = encode({"a": [1, 2, 3]})
        with pytest.raises(CheckpointFormatError):
            decode(payload[:-2])

    def test_trailing_bytes_detected(self):
        with pytest.raises(CheckpointFormatError, match="trailing"):
            decode(encode(1) + b"x")

    _json_like = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False),
            st.text(max_size=12),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=16,
    )

    @settings(max_examples=100, deadline=None)
    @given(_json_like)
    def test_property_roundtrip(self, obj):
        assert decode(encode(obj)) == obj


class TestBlobFile:
    def _shard_like(self, rng):
        return {
            "rank": 0,
            "world_size": 2,
            "fp32_flat_groups": {0: rng.standard_normal(10).astype(np.float32)},
            "state": {0: {"step": 3, "exp_avg": rng.standard_normal(10).astype(np.float32)}},
        }

    def test_roundtrip_compressed_and_raw(self, tmp_path, rng):
        """One blob holding deflated planes, raw planes and sub-floor ``A`` arrays."""
        obj = self._shard_like(rng)
        obj["fp32_flat_groups"][1] = rng.standard_normal(5000).astype(np.float32)
        obj["state"][1] = {"step": 0, "exp_avg": np.zeros(5000, dtype=np.float32)}
        payload = encode(obj)
        assert payload.count(b"P\x03<f4") == 2 and payload.count(b"A\x03<f4") == 2
        path = tmp_path / "s.blob"
        write_blob(path, obj)
        for out in (read_blob(path), read_blob_selected(path, lambda _p: True)):
            assert out["rank"] == 0
            assert encode(out) == payload

    def test_compression_shrinks_redundant_data(self, tmp_path, rng):
        zeros = np.zeros(100_000, dtype=np.float32)
        assert write_blob(tmp_path / "z.blob", {"z": zeros}) < zeros.nbytes / 10
        noise = rng.standard_normal(100_000).astype(np.float32)
        n_noise = write_blob(tmp_path / "n.blob", {"n": noise})
        assert n_noise == (tmp_path / "n.blob").stat().st_size
        assert noise.nbytes / n_noise >= 1.15  # the exponent plane alone

    def test_corruption_detected(self, tmp_path, rng):
        path = tmp_path / "s.blob"
        write_blob(path, self._shard_like(rng))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            read_blob(path)

    def test_bad_magic_and_missing(self, tmp_path):
        (tmp_path / "bad.blob").write_bytes(b"GARBAGEGARBAGE" + b"\x00" * 30)
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            read_blob(tmp_path / "bad.blob")
        with pytest.raises(CheckpointFormatError, match="not found"):
            read_blob(tmp_path / "missing.blob")

    def test_int_group_keys_survive(self, tmp_path):
        write_blob(tmp_path / "k.blob", {"groups": {0: "a", 7: "b"}})
        out = read_blob(tmp_path / "k.blob")
        assert set(out["groups"]) == {0, 7}

    def test_whole_read_holds_one_chunk_not_the_file(self, tmp_path, rng):
        """A whole read streams: beyond the decoded arrays it holds about one
        read chunk and one array's planes, never the file's payload."""
        import tracemalloc

        obj = {g: rng.standard_normal(64 << 10).astype(np.float32) for g in range(20)}
        decoded = sum(a.nbytes for a in obj.values())
        assert write_blob(tmp_path / "big.blob", obj) >= 4_000_000
        tracemalloc.start()
        try:
            out = read_blob(tmp_path / "big.blob")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert encode(out) == encode(obj)
        assert peak - decoded <= 1 << 20, peak - decoded


def _bits(arr: np.ndarray) -> np.ndarray:
    """The array's bytes in C order, for comparisons NaN != NaN cannot fool."""
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def _plane_bodies(payload: bytes) -> list[tuple[int, range]]:
    """``(codec, body offsets)`` of every plane of the first ``P`` array in ``payload``."""
    start = payload.index(b"P\x03")
    dtype_len, ndim = payload[start + 1], payload[start + 2 + payload[start + 1]]
    itemsize = int(payload[start + 4 : start + 2 + dtype_len])  # "<f4" -> 4
    pos, out = start + 2 + dtype_len + 1 + 8 * ndim + 8, []
    for _ in range(itemsize):
        stored = int.from_bytes(payload[pos + 1 : pos + 9], "little")
        out.append((payload[pos], range(pos + 9, pos + 9 + stored)))
        pos += 9 + stored
    return out


def _planar_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    noise32 = rng.standard_normal(3000).astype(np.float32)
    nan_payloads = np.arange(0x7FC00000, 0x7FC00000 + 2048, dtype=np.uint32).view(np.float32)
    specials = np.tile(
        np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1.1754942e-38], np.float32), 300
    )
    return {
        "nan-payloads": nan_payloads,
        "signed-zeros-subnormals": specials,
        "zero-dim": np.array(3.5, dtype=np.float64),
        "empty": np.zeros((0, 4), dtype=np.float32),
        "non-contiguous": rng.standard_normal((80, 90)).astype(np.float32)[::2, ::3],
        "fortran-order": np.asfortranarray(rng.standard_normal((64, 48))),
        "big-endian": noise32.astype(">f4"),
        "fp16": rng.standard_normal(4096).astype(np.float16),
        "fp32": noise32,
        "fp64": rng.standard_normal((50, 60)),
        "int64": rng.integers(-(2**40), 2**40, size=2000),
        "all-zero": np.zeros(5000, dtype=np.float32),
        "zero-head-noise-tail": np.concatenate([np.zeros(3000, np.float32), noise32]),
        "below-floor": noise32[:100],
        "uint8": rng.integers(0, 255, size=9000).astype(np.uint8),
    }


class TestPlanarCodec:
    """Tag ``P`` (byte planes) is bitwise lossless, and v1 files stay readable."""

    @pytest.mark.parametrize("name", sorted(_planar_cases()))
    def test_bitwise_roundtrip(self, tmp_path, name):
        arr = _planar_cases()[name]
        planar = arr.dtype.itemsize >= 2 and arr.nbytes >= 4096
        assert encode(arr)[:1] == (b"P" if planar else b"A")
        path = tmp_path / "a.blob"
        write_blob(path, {"x": [arr]})
        outs = [decode(encode(arr)), read_blob(path)["x"][0]]
        outs.append(read_blob_selected(path, lambda _p: True)["x"][0])
        for out in outs:
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert out.flags.writeable and out.flags.c_contiguous
            np.testing.assert_array_equal(_bits(out), _bits(arr))

    def test_planes_are_chosen_from_the_data(self):
        """fp32 noise deflates exactly one plane; the choice follows the bytes."""

        def codecs(arr):
            payload = encode(arr)
            bodies = _plane_bodies(payload)
            assert bodies[-1][1].stop == len(payload)
            return [codec for codec, _ in bodies]

        noise = np.random.default_rng(0).standard_normal(20000).astype(np.float32)
        assert codecs(noise) == [0, 0, 0, 1]
        assert codecs(noise.astype(">f4")) == [1, 0, 0, 0]  # not keyed on endianness
        assert codecs(np.zeros(20000, np.float32)) == [1, 1, 1, 1]
        mantissa_only = (noise.view(np.uint32) | 0xFF000000).view(np.float32)
        assert codecs(mantissa_only)[:3] == [0, 0, 0]

    @pytest.mark.parametrize("compress", [True, False])
    def test_v1_blobs_read_identically(self, tmp_path, rng, compress):
        obj = {
            "format_version": 1,
            "groups": [{"index": g, "name": f"g{g}"} for g in range(3)],
            "fp32_flat_groups": {
                g: rng.standard_normal(2000 * (g + 1)).astype(np.float32) for g in range(3)
            },
            "state": {g: {"step": g, "exp_avg": np.zeros(3000, np.float32)} for g in range(3)},
            "blob": b"\x00\xff" * 10,
        }
        assert BLOB_VERSION == 2
        write_blob_v1(tmp_path / "v1.blob", obj, compress=compress)
        write_blob(tmp_path / "v2.blob", obj)
        assert (tmp_path / "v1.blob").read_bytes()[8:12] == b"\x01\x00\x00\x00"
        expected = encode(obj)
        for name in ("v1.blob", "v2.blob"):
            assert encode(read_blob(tmp_path / name)) == expected
            assert encode(read_blob_selected(tmp_path / name, lambda _p: True)) == expected
        sel = read_blob_selected(  # selective reads prune v1 streams too
            tmp_path / "v1.blob", lambda p: p[:1] != ("fp32_flat_groups",) or p[1:] in ((), (2,))
        )
        assert list(sel["fp32_flat_groups"]) == [2] and len(sel["state"]) == 3


class TestHostileBytes:
    """No byte pattern may escape the decoders as anything but CheckpointFormatError."""

    HEADER = 33

    @pytest.fixture(scope="class")
    def blob(self):
        """``(payload, structural)``: a small v2 payload and its offset classes.

        ``structural`` is every byte outside the four plane bodies
        (tags, lengths, keys, dtype string, dims, plane records) plus
        each body's first and last 8 bytes (zlib header / adler trailer)
        and a stride through the rest.
        """
        rng = np.random.default_rng(3)
        obj = {
            "name": "héllo",
            "raw": b"\x01\x02\x03",
            "list": [None, True, 1.5, -7, {"k": "v", 3: [1, 2]}],
            "small": np.arange(6, dtype=np.int16).reshape(2, 3),
            "planar": rng.standard_normal((30, 40)).astype(np.float32),
            "tail": 7,
        }
        payload = encode(obj)
        assert b"A\x03<i2" in payload
        structural = set(range(len(payload)))
        for _, body in _plane_bodies(payload):
            structural -= set(body[8:-8]) - set(body[::97])
        # Raw and deflated planes are both present.
        assert [codec for codec, _ in _plane_bodies(payload)] == [0, 0, 0, 1]
        return payload, sorted(structural)

    @staticmethod
    def _file(tmp_path, payload: bytes, *, declared: int | None = None):
        """``payload`` behind a self-consistent v2 header (valid length and CRC)."""
        import struct
        import zlib

        n = len(payload) if declared is None else declared
        header = b"REPROBLB" + struct.pack("<IBQQI", 2, 0, n, n, zlib.crc32(payload))
        path = tmp_path / "h.blob"
        path.write_bytes(header + payload)
        return path

    @staticmethod
    def _survives(path) -> int:
        """Run the readers; count CheckpointFormatErrors, let anything else escape."""
        rejected = 0
        for reader in (
            read_blob,
            lambda p: read_blob_selected(p, lambda _p: True),
            lambda p: read_blob_selected(p, lambda path: len(path) != 1),  # skip it all
        ):
            try:
                reader(path)
            except CheckpointFormatError:
                rejected += 1
        return rejected

    def test_every_byte_flip_with_stale_crc_is_rejected(self, blob, tmp_path):
        """Bit-rot: the parser meets the damage before the CRC is known."""
        payload, structural = blob
        whole = self._file(tmp_path, payload).read_bytes()
        for offset in list(range(self.HEADER)) + [self.HEADER + i for i in structural]:
            for mask in (0x01, 0xFF):
                bad = bytearray(whole)
                bad[offset] ^= mask
                (tmp_path / "h.blob").write_bytes(bytes(bad))
                assert self._survives(tmp_path / "h.blob") == 3, (offset, mask)

    def test_every_byte_flip_with_valid_crc_fails_typed(self, blob, tmp_path):
        """A self-consistent hostile file: only the parser stands in the way."""
        payload, structural = blob
        rejected = 0
        for offset in structural:
            for mask in (0x01, 0x80, 0xFF):
                bad = bytearray(payload)
                bad[offset] ^= mask
                rejected += self._survives(self._file(tmp_path, bytes(bad)))
        assert rejected > len(structural)  # typed failures did happen; the rest decoded

    def test_every_truncation_is_rejected(self, blob, tmp_path):
        payload, structural = blob
        whole = self._file(tmp_path, payload).read_bytes()
        for cut in list(range(self.HEADER)) + [self.HEADER + i for i in structural]:
            (tmp_path / "h.blob").write_bytes(whole[:cut])
            assert self._survives(tmp_path / "h.blob") == 3, cut
            if cut >= self.HEADER:  # ... and with a header that admits to the cut
                assert self._survives(self._file(tmp_path, whole[self.HEADER : cut])) == 3, cut
        assert self._survives(self._file(tmp_path, payload + b"N")) == 3  # trailing value
        (tmp_path / "h.blob").write_bytes(whole + b"\x00")  # bytes past the declared payload
        assert self._survives(tmp_path / "h.blob") == 3

    def test_declared_lengths_are_never_trusted(self, tmp_path):
        """Huge declared sizes fail before anything is allocated for them."""
        import struct

        huge = 1 << 62
        f4 = b"\x03<f4"
        hostile = {
            "string": b"S" + struct.pack("<I", 0xFFFFFFFF) + b"abc",
            "bytes": b"B" + struct.pack("<Q", huge) + b"abc",
            "list": b"L" + struct.pack("<I", 0xFFFFFFFF) + b"N",
            "map": b"M" + struct.pack("<I", 0xFFFFFFFF) + b"I" + bytes(8) + b"N",
            "array": b"A" + f4 + b"\x01" + struct.pack("<qQ", huge // 4, huge),
            "raw plane": b"P" + f4 + b"\x01" + struct.pack("<qQ", huge // 4, huge)
            + struct.pack("<BQ", 0, huge // 4),
            "zlib plane": b"P\x03|u1\x01" + struct.pack("<qQ", 2**64 - 1 - 2**63, 2**63 - 1)
            + struct.pack("<BQ", 1, 8) + bytes(8),
            "negative dim": b"A" + f4 + b"\x02" + struct.pack("<qqQ", -1, -4, 16) + bytes(16),
            "dims vs nbytes": b"A" + f4 + b"\x01" + struct.pack("<qQ", 3, 16) + bytes(16),
            "nbytes vs itemsize": b"A" + f4 + b"\x01" + struct.pack("<qQ", 1, 3) + bytes(3),
            "65 dims": b"A" + f4 + bytes([65]) + struct.pack("<65q", *[1] * 65)
            + struct.pack("<Q", 4) + bytes(4),
            "object dtype": b"A\x02|O\x01" + struct.pack("<qQ", 1, 8) + bytes(8),
            "zero-width dtype": b"A\x03|V0\x01" + struct.pack("<qQ", 1, 0),
            "unparsable dtype": b"A\x03,,,\x00" + struct.pack("<Q", 0),
            "non-canonical dtype": b"A\x03=f4\x00" + struct.pack("<Q", 4) + bytes(4),
            "non-ascii dtype": b"A\x03\xff\xfe\xfd\x00" + struct.pack("<Q", 0),
            "bad utf-8": b"S" + struct.pack("<I", 2) + b"\xff\xfe",
            "bad key type": b"M" + struct.pack("<I", 1) + b"NN",
            "unknown tag": b"Z",
            "unknown plane codec": b"P" + f4 + b"\x01" + struct.pack("<qQ", 1, 4)
            + struct.pack("<BQ", 7, 1) + bytes(1),
            "deep nesting": b"L\x01\x00\x00\x00" * 100_000 + b"N",
        }
        for name, payload in hostile.items():
            with pytest.raises(CheckpointFormatError):
                decode(payload)
            assert self._survives(self._file(tmp_path, payload)) == 3, name
        # A header that claims more payload than the file holds.
        assert self._survives(self._file(tmp_path, b"N", declared=huge)) == 3

    def test_v1_stream_is_bounded_by_its_header(self, tmp_path):
        """A v1 stream inflates at most to the header's length, and nothing
        may follow it; refusing either holds a bounded amount of memory."""
        import struct
        import tracemalloc
        import zlib

        def v1(name, stream, raw_len, crc):
            path = tmp_path / name
            header = struct.pack("<IBQQI", 1, 1, len(stream), raw_len, crc)
            path.write_bytes(b"REPROBLB" + header + stream)
            return path

        raw = encode({"x": 1})
        cases = {  # the bomb is 64 MiB of zeros in ~65 kB behind a 9-byte header
            "past its declared length": v1(
                "bomb.blob", zlib.compress(bytes(64 << 20), 9), 9, zlib.crc32(bytes(9))
            ),
            "after the v1 payload stream": v1(
                "junk.blob", zlib.compress(raw) + b"junk!", len(raw), zlib.crc32(raw)
            ),
        }
        for refusal, path in cases.items():
            tracemalloc.start()
            try:
                assert self._survives(path) == 3, refusal
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (refusal, peak)
            with pytest.raises(CheckpointFormatError, match=refusal):
                read_blob(path)

    def test_plane_stream_must_end_exactly_at_its_record(self, tmp_path):
        import struct
        import zlib

        count = 5000
        good = zlib.compress(bytes(count), 1)
        head = b"P\x03<f4\x01" + struct.pack("<qQ", count, 4 * count)

        def planes(*streams):
            return head + b"".join(struct.pack("<BQ", 1, len(s)) + s for s in streams)

        intact = decode(planes(good, good, good, good))
        np.testing.assert_array_equal(intact, np.zeros(count, "<f4"))
        for name, bad in {
            "trailing garbage": good + b"\x00",
            "missing adler": good[:-4],
            "wrong adler": good[:-1] + bytes([good[-1] ^ 1]),
            "one byte short": zlib.compress(bytes(count - 1), 1),
            "one byte long": zlib.compress(bytes(count + 1), 1),
            "a zip bomb": zlib.compress(bytes(50_000_000), 9),
            "not zlib": b"\x00" * len(good),
        }.items():
            payload = planes(good, bad, good, good)
            with pytest.raises(CheckpointFormatError):
                decode(payload)
            assert self._survives(self._file(tmp_path, payload)) == 3, name
