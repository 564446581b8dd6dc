"""The streaming merge engine: bitwise equality with the serial path.

The contract under test (ISSUE 2 tentpole): with ``MergeOptions(stream=
True)`` the merge consumes shards group-by-group through selective blob
reads and pipes weight tensors through a streaming writer, yet every
output byte — weights file and each rank's optimizer shard — is
identical to the serial engine at any world size, for every checkpoint
strategy's slot layout, with peak memory bounded below the serial path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import LLMTailor, MergeOptions, MergeRecipe, recipe_from_run
from repro.io import CheckpointPaths, Storage, save_checkpoint
from repro.io.blobfile import read_blob, read_blob_selected, write_blob
from repro.nn import model_slots
from repro.strategies import build_strategy
from repro.util.errors import CheckpointFormatError

from conftest import make_engine, train_steps

WORLD_SIZES = [1, 2, 4]
STRATEGIES = ["parity", "magnitude", "filtered", "full"]


def _build_trail(tmp_path, config, strategy_name: str, world_size: int):
    """Train briefly, saving partial checkpoints as the strategy dictates."""
    model, engine = make_engine(config, world_size=world_size)
    storage = Storage(tmp_path / f"run-{strategy_name}-ws{world_size}")
    strategy = build_strategy(strategy_name, config, interval=1)
    for step in range(1, 5):
        train_steps(model, engine, config, 1, seed=step)
        slots = strategy.plan_step(step, model=model)
        assert slots is not None  # interval=1: every step checkpoints
        save_checkpoint(
            storage, step=step, model=model, config=config, engine=engine,
            trainer_state={"global_step": step}, slots=slots,
            strategy=strategy_name,
        )
    return storage


def _merge(storage, output, **options):
    recipe = recipe_from_run(storage.root)
    recipe.options = MergeOptions(verify=False, **options)
    return LLMTailor(recipe).merge(output=output)


@pytest.mark.parametrize("world_size", WORLD_SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stream_bitwise_equals_serial(tmp_path, untied_config, strategy, world_size):
    """Streamed output files are byte-for-byte the serial ones."""
    storage = _build_trail(tmp_path, untied_config, strategy, world_size)
    serial = _merge(storage, tmp_path / "serial")
    streamed = _merge(storage, tmp_path / "streamed", stream=True, workers=3)

    assert serial.output.weights.read_bytes() == streamed.output.weights.read_bytes()
    for rank in range(world_size):
        assert (
            serial.output.shard(rank).read_bytes()
            == streamed.output.shard(rank).read_bytes()
        ), f"rank {rank} shard differs ({strategy}, ws={world_size})"
    # Identical load accounting: the engines follow the same schedule.
    assert serial.optimizer_files_loaded == streamed.optimizer_files_loaded
    assert serial.optimizer_bytes_loaded == streamed.optimizer_bytes_loaded


@pytest.mark.parametrize("cache_mode", ["per-checkpoint", "none"])
def test_stream_interleaved_matches_serial(checkpoint_run, tmp_path, cache_mode):
    """Both cache modes agree byte-for-byte on the parity fixture."""
    storage, _, _, config, _ = checkpoint_run
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments={s: storage.root / "checkpoint-100" for s in odd},
        options=MergeOptions(cache_mode=cache_mode, verify=False),
    )
    serial = LLMTailor(recipe).merge(output=tmp_path / "a")
    recipe.options = MergeOptions(cache_mode=cache_mode, verify=False, stream=True)
    streamed = LLMTailor(recipe).merge(output=tmp_path / "b")
    for rank in range(2):
        assert (
            serial.output.shard(rank).read_bytes()
            == streamed.output.shard(rank).read_bytes()
        )
    assert serial.optimizer_files_loaded == streamed.optimizer_files_loaded


def _odd_parity_recipe(storage, config, **options):
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    return MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments={s: storage.root / "checkpoint-100" for s in odd},
        options=MergeOptions(verify=False, **options),
    )


@pytest.mark.parametrize("stream", [False, True])
def test_corrupt_shard_bytes_rejected_by_both_engines(checkpoint_run, tmp_path, stream):
    """Bit-rot in the shard file must fail either engine.

    The serial path relies on the whole-payload blob CRC; the streaming
    path verifies each materialized group against its header ``crc32``
    and surfaces decompressor errors, so corruption in copied data can
    never flow silently into the merged checkpoint.
    """
    from repro.util.errors import MergeError

    storage, _, _, config, _ = checkpoint_run
    shard_path = CheckpointPaths(storage.root / "checkpoint-100").shard(0)
    raw = bytearray(shard_path.read_bytes())
    raw[-3] ^= 0xFF  # tail byte: inside the last group's state arrays
    shard_path.write_bytes(bytes(raw))
    recipe = _odd_parity_recipe(storage, config, stream=stream)
    with pytest.raises((CheckpointFormatError, MergeError)):
        LLMTailor(recipe).merge(output=tmp_path / "m")


def test_stream_detects_tampered_group_serial_cannot(checkpoint_run, tmp_path):
    """Per-group CRCs catch tampering that re-wrote a valid container.

    Rewriting a shard with a modified fp32 array but the original group
    header produces a self-consistent blob (payload CRC matches), which
    the serial whole-file check cannot flag — but the streaming engine's
    per-group verification does.
    """
    from repro.io import read_blob, write_blob
    from repro.util.errors import MergeError

    storage, _, _, config, _ = checkpoint_run
    shard_path = CheckpointPaths(storage.root / "checkpoint-100").shard(0)
    doc = read_blob(shard_path)
    tampered = next(iter(doc["fp32_flat_groups"]))
    doc["fp32_flat_groups"][tampered] = doc["fp32_flat_groups"][tampered] + 1.0
    write_blob(shard_path, doc)  # container CRC now valid again

    serial = LLMTailor(_odd_parity_recipe(storage, config)).merge(output=tmp_path / "s")
    assert serial is not None  # serial cannot see the stale group crc32
    with pytest.raises(MergeError, match="CRC mismatch for group"):
        LLMTailor(_odd_parity_recipe(storage, config, stream=True)).merge(
            output=tmp_path / "t"
        )


def _full_trail(tmp_path, config, steps=(1, 2)):
    model, engine = make_engine(config, world_size=2)
    storage = Storage(tmp_path / "full-trail")
    for step in steps:
        train_steps(model, engine, config, 1, seed=step)
        save_checkpoint(
            storage, step=step, model=model, config=config, engine=engine,
            trainer_state={"global_step": step}, strategy="full",
        )
    return storage


def test_stream_rejects_corruption_outside_every_wanted_group(tmp_path, untied_config):
    """A corrupt shard fails the streaming merge even where nothing is copied from.

    Only ``norm`` (group 0, the head of the file) is taken from
    checkpoint-1; the flipped byte sits in the last group's moments,
    two thirds of a shard later.  A read that stopped after the last
    wanted group would hand back intact data from a corrupt file.
    """
    from repro.util.errors import MergeError

    storage = _full_trail(tmp_path, untied_config)
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-2",
        assignments={"norm": storage.root / "checkpoint-1"},
        options=MergeOptions(verify=False, stream=True),
    )
    assert LLMTailor(recipe).merge(output=tmp_path / "clean") is not None
    shard_path = CheckpointPaths(storage.root / "checkpoint-1").shard(1)
    raw = bytearray(shard_path.read_bytes())
    raw[-40] ^= 0xFF
    shard_path.write_bytes(bytes(raw))
    with pytest.raises((CheckpointFormatError, MergeError)):
        LLMTailor(recipe).merge(output=tmp_path / "m")


def test_mixed_v1_v2_trail_merges_byte_identically(tmp_path, untied_config):
    """Shards written before blob v2 merge to the very same output files."""
    from conftest import write_blob_v1

    storage = _full_trail(tmp_path, untied_config, steps=(1, 2, 3))
    slots = model_slots(untied_config)
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-3",
        assignments={
            slot: storage.root / f"checkpoint-{1 + i % 3}"
            for i, slot in enumerate(slots) if i % 3 != 2
        },
    )

    def merged_files(tag: str, **options) -> dict[str, bytes]:
        recipe.options = MergeOptions(verify=True, **options)
        out = LLMTailor(recipe).merge(output=tmp_path / tag).output
        return {
            p.name: p.read_bytes() for p in sorted(out.dir.rglob("*"))
            if p.is_file() and p.suffix in (".blob", ".tsr")
        }

    all_v2 = merged_files("v2")
    assert len(all_v2) == 3  # weights + one shard per rank
    for step, compress in ((1, True), (3, False)):  # the base included
        for rank in range(2):
            shard_path = CheckpointPaths(storage.root / f"checkpoint-{step}").shard(rank)
            write_blob_v1(shard_path, read_blob(shard_path), compress=compress)
    assert merged_files("mixed-serial") == all_v2
    assert merged_files("mixed-stream", stream=True, workers=2) == all_v2


def test_streamed_output_verifies_and_resumes(checkpoint_run, tmp_path):
    """A streamed Frankenstein checkpoint passes deep verification."""
    storage, _, _, config, _ = checkpoint_run
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments={s: storage.root / "checkpoint-100" for s in odd},
        options=MergeOptions(stream=True, workers=2),  # verify=True default
    )
    result = LLMTailor(recipe).merge(output=tmp_path / "m")
    assert result.verify_report is not None and result.verify_report.ok


def test_stream_peak_memory_bounded(tmp_path, untied_config):
    """Streaming must allocate less at peak than full-blob caching.

    The scenario where caching hurts: slots spread round-robin over
    several *complete* checkpoints.  The serial per-checkpoint path
    materializes every distinct source shard in full; the streaming
    path only ever holds each source's *selected* groups, which across
    all sources sum to one shard.
    """
    config = untied_config
    storage = _full_trail(tmp_path, config, steps=(1, 2, 3))
    slots = model_slots(config)
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-3",
        assignments={
            slot: storage.root / f"checkpoint-{1 + i % 3}"
            for i, slot in enumerate(slots)
            if 1 + i % 3 != 3
        },
    )

    def peak(tag: str, **options) -> int:
        recipe.options = MergeOptions(verify=False, **options)
        tracemalloc.start()
        try:
            LLMTailor(recipe).merge(output=tmp_path / f"mem-{tag}")
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak_bytes

    serial_peak = peak("serial")
    stream_peak = peak("stream", stream=True)
    assert stream_peak < serial_peak, (
        f"streaming peak {stream_peak} should undercut serial {serial_peak}"
    )


def test_tensorfile_writer_spill_path_bitwise(tmp_path, monkeypatch):
    """Spilled (disk-backed) writes produce the same bytes as buffered."""
    from repro.io.tensorfile import TensorFile, TensorFileWriter, write_tensorfile
    from repro.numerics.dtypes import DType

    rng = np.random.default_rng(0)
    tensors = {f"t{i}": rng.standard_normal((7, 13)).astype(np.float32) for i in range(5)}
    write_tensorfile(tmp_path / "buffered.tsr", tensors, dtype=DType.BF16)
    monkeypatch.setattr(TensorFileWriter, "SPILL_THRESHOLD", 64)
    with TensorFileWriter(tmp_path / "spilled.tsr") as writer:
        for name, arr in tensors.items():
            writer.add(name, arr, DType.BF16)
    assert (tmp_path / "spilled.tsr").read_bytes() == (tmp_path / "buffered.tsr").read_bytes()
    assert not list(tmp_path.glob("*.tmp"))  # spill file cleaned up
    assert TensorFile(tmp_path / "spilled.tsr").names == list(tensors)


class TestSelectiveBlobReads:
    """Unit coverage for the selective/streaming blob reader itself."""

    @pytest.fixture
    def blob(self, tmp_path):
        obj = {
            "format_version": 1,
            "groups": [{"index": g, "name": f"g{g}", "fields": list(range(5))}
                       for g in range(6)],
            "hyperparams": [{"index": g, "lr": 0.1 * g} for g in range(6)],
            "fp32_flat_groups": {
                g: np.full(512, float(g), dtype=np.float32) for g in range(6)
            },
            "state": {
                g: {"step": g, "exp_avg": np.full(512, -float(g), dtype=np.float32)}
                for g in range(6)
            },
        }
        path = tmp_path / "shard.blob"
        write_blob(path, obj)
        return path, obj

    def test_full_predicate_equals_read_blob(self, blob):
        path, _ = blob
        a = read_blob(path)
        b = read_blob_selected(path, lambda _p: True)
        assert a["groups"] == b["groups"]
        for g in a["fp32_flat_groups"]:
            np.testing.assert_array_equal(
                a["fp32_flat_groups"][g], b["fp32_flat_groups"][g]
            )

    def test_subtree_pruning(self, blob):
        path, obj = blob
        wanted = {1, 4}
        sel = read_blob_selected(
            path,
            lambda p: not (
                len(p) == 2 and p[0] in ("fp32_flat_groups", "state")
                and p[1] not in wanted
            ),
        )
        assert sorted(sel["fp32_flat_groups"]) == [1, 4]
        assert sorted(sel["state"]) == [1, 4]
        np.testing.assert_array_equal(
            sel["fp32_flat_groups"][4], obj["fp32_flat_groups"][4]
        )
        # Untouched sections decode in full.
        assert len(sel["groups"]) == 6

    def test_indexed_list_filter(self, blob):
        path, _ = blob
        wanted = {2, 5}
        sel = read_blob_selected(
            path, lambda _p: True,
            indexed_filter=lambda p: wanted if p == ("groups",) else None,
        )
        assert [h["index"] for h in sel["groups"]] == [2, 5]
        assert sel["groups"][0]["fields"] == [0, 1, 2, 3, 4]
        assert len(sel["hyperparams"]) == 6  # unfiltered list untouched

    def test_unselected_tail_corruption_detected(self, blob, tmp_path):
        """Selecting only the head of a file does not excuse its tail.

        The read drains the payload whatever the predicate wants, so a
        flipped byte in a group nobody asked for still fails the
        container CRC.
        """
        path, _ = blob
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # inside state[5]["exp_avg"], the last value
        bad = tmp_path / "bad.blob"
        bad.write_bytes(bytes(raw))
        wanted = {0}
        with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
            read_blob_selected(
                bad,
                lambda p: not (
                    len(p) == 2 and p[0] in ("fp32_flat_groups", "state")
                    and p[1] not in wanted
                ),
                indexed_filter=lambda p: wanted if p == ("groups",) else None,
            )

    def test_corruption_detected_without_stop(self, blob, tmp_path):
        path, _ = blob
        raw = bytearray(path.read_bytes())
        raw[-4] ^= 0xFF  # flip a byte near the payload tail
        bad = tmp_path / "bad.blob"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            read_blob_selected(bad, lambda _p: True)

    def test_truncation_detected(self, blob, tmp_path):
        path, _ = blob
        raw = path.read_bytes()
        cut = tmp_path / "cut.blob"
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointFormatError):
            read_blob_selected(cut, lambda _p: True)
