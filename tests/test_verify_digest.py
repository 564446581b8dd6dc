"""A merge verifies its output by the records its load already checked.

The merge's load decodes each array it takes once, against its group
CRC, and writes the record verbatim.  Its verify then matches every
output group's header ``crc32`` and record bytes to that group's
``group_digest`` instead of decoding it a second time.  These tests pin
the one decode and the trust path's strictness: a writer that changes
any byte of an output record or of a header ``crc32``, and re-seals the
container CRC, is refused and un-published.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.optimizer_merge as optimizer_merge
import repro.io.blobfile as blobfile
from repro.core import LLMTailor, MergeOptions, MergeRecipe, verify_checkpoint
from repro.core.optimizer_merge import set_group_cache
from repro.dist.shard import group_array
from repro.io import CheckpointPaths, Storage, save_checkpoint
from repro.io.blobfile import Record, decode, iter_encode, read_blob_selected
from repro.io.storage import GroupCache
from repro.nn import get_config
from repro.serve import Job, JobCost, JobSpec
from repro.serve.jobs import execute_job
from repro.util.errors import CheckpointFormatError, MergeError

from conftest import make_engine, train_steps

CONFIG = get_config("tiny-untied")
WORLD = 2
_CRC_KEY = b"S" + struct.pack("<I", 5) + b"crc32"  # a header's "crc32" key, encoded


@pytest.fixture(scope="module")
def trail(tmp_path_factory):
    """Two parity checkpoints at world size 2: odd layers at 100, even at 200."""
    root = tmp_path_factory.mktemp("digest-trail")
    model, engine = make_engine(CONFIG, world_size=WORLD)
    storage = Storage(root / "run")
    layers = [f"layers.{i}" for i in range(CONFIG.num_hidden_layers)]
    odd = layers[1::2] + ["embed_tokens"]
    for step, slots in ((100, odd), (200, layers[0::2] + ["norm", "lm_head"])):
        train_steps(model, engine, CONFIG, 2, seed=step)
        save_checkpoint(storage, step=step, model=model, config=CONFIG, engine=engine,
                        trainer_state={"global_step": step}, slots=slots, strategy="parity")
    return root, {slot: str(storage.root / "checkpoint-100") for slot in odd}


def _recipe(trail, **options) -> MergeRecipe:
    root, assignments = trail
    return MergeRecipe(
        base_checkpoint=root / "run" / "checkpoint-200", assignments=assignments,
        options=MergeOptions(**options),
    )


def _count_decodes(monkeypatch) -> list[int]:
    """Record every array whose byte planes are decoded from here on."""
    real, calls = blobfile._read_planes, []

    def counting(src, itemsize, n):
        calls.append(n)
        return real(src, itemsize, n)

    monkeypatch.setattr(blobfile, "_read_planes", counting)
    return calls


def _planar(arrays) -> int:
    return sum(isinstance(a, Record) and a.data[:1] == b"P" for a in arrays)


def test_a_one_shot_merge_decodes_each_taken_planar_array_once(trail, tmp_path, monkeypatch):
    taken = []
    real_extract = optimizer_merge._extract

    def extract(world_size, rank, source_dir, wanted):
        entries, seconds, nbytes = real_extract(world_size, rank, source_dir, wanted)
        taken.extend(a for g in wanted
                     for a in (entries[g].fp32, entries[g].exp_avg, entries[g].exp_avg_sq))
        return entries, seconds, nbytes

    monkeypatch.setattr(optimizer_merge, "_extract", extract)
    decodes = _count_decodes(monkeypatch)
    result = LLMTailor(_recipe(trail, workers=1)).merge(tmp_path / "merged")
    assert result.verify_report.ok and result.verify_report.checks_run
    assert _planar(taken) > 0
    assert len(decodes) == _planar(taken)  # the load's CRC check, nothing at verify
    assert all(len(s.digests) == CONFIG.num_param_groups_tailored for s in result.rank_stats)


def test_a_pool_merge_verifies_without_decoding(trail, tmp_path, monkeypatch):
    """Ranks merge in child processes; their digests pickle back, so the
    parent's only read of the output, its verify, inflates nothing."""
    pools = []

    class CountingPool(optimizer_merge.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(optimizer_merge, "ProcessPoolExecutor", CountingPool)
    decodes = _count_decodes(monkeypatch)
    result = LLMTailor(_recipe(trail, workers=2)).merge(tmp_path / "merged")
    assert pools == [2] and result.verify_report.ok
    assert decodes == []


def test_a_served_merge_on_cache_hits_decodes_nothing(trail, tmp_path, monkeypatch):
    root, assignments = trail
    doc = {"base_checkpoint": str(root / "run" / "checkpoint-200"),
           "slices": [{"slot": slot, "source": src} for slot, src in assignments.items()]}

    def serve(name):
        spec = JobSpec(tenant="t", kind="merge",
                       params={"recipe_doc": doc, "output": str(tmp_path / name)})
        return execute_job(Job(id=name, spec=spec, cost=JobCost(kind="merge")))

    cache = GroupCache()
    previous = set_group_cache(cache)
    try:
        assert serve("cold")["verified"]
        hits, misses = cache.stats.hits, cache.stats.misses
        decodes = _count_decodes(monkeypatch)
        assert serve("warm")["verified"]
    finally:
        set_group_cache(previous)
    assert cache.stats.hits > hits and cache.stats.misses == misses
    assert decodes == []
    for rank in range(WORLD):
        cold, warm = (CheckpointPaths(tmp_path / n).shard(rank).read_bytes()
                      for n in ("cold", "warm"))
        assert cold == warm


def _reseal(path, offset: int, mask: int) -> None:
    """XOR one payload byte of a blob file, then rewrite its container CRC."""
    raw = bytearray(path.read_bytes())
    size = blobfile._HEADER.size
    raw[size + offset] ^= mask
    magic, version, flags, length, raw_len, _ = blobfile._HEADER.unpack_from(raw)
    crc = zlib.crc32(bytes(raw[size:]))
    path.write_bytes(blobfile._HEADER.pack(magic, version, flags, length, raw_len, crc)
                     + bytes(raw[size:]))


def _targets(payload) -> list[tuple[int, int, bytes | None]]:
    """``(offset, length, record bytes or None)`` in the encoded payload of
    every array record and of the four low bytes of every header ``crc32``."""
    records = {id(a.data) for state in payload["state"].values()
               for a in (state["exp_avg"], state["exp_avg_sq"]) if isinstance(a, Record)}
    records |= {id(a.data) for a in payload["fp32_flat_groups"].values()
                if isinstance(a, Record)}
    targets, pos, after_key = [], 0, False
    for chunk in iter_encode(payload):
        if id(chunk) in records:
            targets.append((pos, len(chunk), chunk))
        elif after_key:
            targets.append((pos + 1, 4, None))
        after_key = bytes(chunk) == _CRC_KEY
        pos += len(chunk)
    return targets


def _decodes_the_same(record: bytes, offset: int, mask: int) -> bool:
    """Whether a record with one byte flipped still decodes to the same
    array (a flip in a deflate stream's unused padding bits)."""
    flipped = bytearray(record)
    flipped[offset] ^= mask
    try:
        after = decode(bytes(flipped))
    except CheckpointFormatError:
        return False
    before = decode(record)
    return (after.dtype, after.shape, after.tobytes()) == (
        before.dtype, before.shape, before.tobytes())


# The nightly passes --hypothesis-seed=random, which a derandomized test ignores.
_NIGHTLY = any(arg.startswith("--hypothesis-seed") for arg in sys.argv)
_outputs = count()


@settings(
    max_examples=25, deadline=None, derandomize=not _NIGHTLY,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rank=st.integers(0, WORLD - 1), target=st.integers(0, 10**6),
       offset=st.integers(0, 10**9), mask=st.integers(1, 255))
def test_a_writer_that_changes_a_checked_byte_is_refused_and_unpublished(
    trail, monkeypatch, rank, target, offset, mask
):
    """Flip any one byte of an output array record or header ``crc32``
    after the merge writes it, re-sealing the container CRC as a buggy
    writer would: the merge's own verify must refuse the shard."""
    flips = []

    def buggy_write(path, payload):
        written = blobfile.write_blob(path, payload)
        if payload["rank"] == rank:
            targets = _targets(payload)
            start, length, record = targets[target % len(targets)]
            flips.append((record, offset % length))
            _reseal(path, start + offset % length, mask)
        return written

    monkeypatch.setattr(optimizer_merge, "write_blob", buggy_write)
    output = trail[0] / f"tampered-{next(_outputs)}"
    try:
        LLMTailor(_recipe(trail, workers=1)).merge(output)
        refusal = None
    except MergeError as exc:
        refusal = str(exc)
    [(record, at)] = flips
    if record is not None and _decodes_the_same(record, at, mask):
        assert refusal is None  # the shard still holds exactly what was checked
        return
    assert refusal is not None and "verification failed" in refusal
    assert not CheckpointPaths(output).manifest.exists()


def test_verify_without_digests_refuses_a_tampered_record(trail, tmp_path):
    """``llmtailor verify`` passes no digests: every group is decoded, so a
    re-sealed flip in a raw mantissa plane is a group CRC mismatch."""
    output = LLMTailor(_recipe(trail, workers=1)).merge(tmp_path / "merged").output
    shard = output.shard(1)
    payload = read_blob_selected(shard, lambda path: True, as_record=group_array)
    start, length, record = next(t for t in _targets(payload) if t[2] is not None
                                 and t[2][:1] == b"P")
    assert verify_checkpoint(output.dir).ok
    assert record[22] == 0  # after the 22-byte array header, plane 0 is raw
    _reseal(shard, start + 22 + 9, 0x01)  # its first mantissa byte
    report = verify_checkpoint(output.dir)
    assert not report.ok
    assert any("CRC mismatch" in issue for issue in report.issues), report.issues
