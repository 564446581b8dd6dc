"""The merge engine against its serial reference oracle.

The contract under test: the engine consumes shards through selective
blob reads (only the groups the plan takes from a source are inflated)
and pipes weight tensors through a streaming writer, yet every output
byte — weights file and each rank's optimizer shard — equals what the
serial algorithm produces (``conftest.reference_merged_shard``: full
``read_blob`` of each source, take groups per slot) at any world size,
for every checkpoint strategy's slot layout and both cache modes, with
peak memory bounded by one source shard plus one output shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LLMTailor, MergeOptions, MergeRecipe, recipe_from_run
from repro.dist.shard import group_array
from repro.io import CheckpointPaths, Storage, save_checkpoint
from repro.io.blobfile import read_blob, read_blob_selected, write_blob
from repro.io.tensorfile import TensorFile, write_tensorfile
from repro.nn import model_slots
from repro.nn.slots import slot_parameter_shapes
from repro.strategies import build_strategy
from repro.util.errors import CheckpointFormatError, MergeError

from conftest import (
    count_packed_planes, decoded_nbytes, make_engine, peak_outside_writes, planar_planes,
    reference_merged_shard, shard_arrays, train_steps,
)

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


def _assert_shards_equal_reference(result, recipe, config, world_size, scratch):
    for rank in range(world_size):
        write_blob(scratch, reference_merged_shard(recipe, config, rank))
        assert result.output.shard(rank).read_bytes() == scratch.read_bytes(), (
            f"rank {rank} shard differs from the serial reference"
        )


@pytest.mark.parametrize("world_size", WORLD_SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stream_bitwise_equals_serial(tmp_path, untied_config, strategy, world_size):
    """Merged files are byte-for-byte what the serial reference builds."""
    config = untied_config
    storage = _build_trail(tmp_path, config, strategy, world_size)
    recipe = recipe_from_run(storage.root)
    recipe.options = MergeOptions(verify=False, workers=3)
    merged = LLMTailor(recipe).merge(output=tmp_path / "merged")

    _assert_shards_equal_reference(merged, recipe, config, world_size, tmp_path / "ref.blob")
    # Weights: decode every tensor from its slot's source and re-encode.
    tensors = {}
    for slot, shapes in slot_parameter_shapes(config).items():
        reader = TensorFile(CheckpointPaths(recipe.source_for(slot)).weights)
        tensors.update({name: reader.read(name) for name in shapes})
    write_tensorfile(
        tmp_path / "ref.tsr", tensors, dtype=config.storage_dtype,
        metadata=TensorFile(merged.output.weights).metadata,
    )
    assert merged.output.weights.read_bytes() == (tmp_path / "ref.tsr").read_bytes()
    # One selective pass per distinct source per rank.
    assert merged.optimizer_files_loaded == len(recipe.distinct_sources()) * world_size


def _odd_parity_recipe(storage, config, **options):
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    return MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments={s: storage.root / "checkpoint-100" for s in odd},
        options=MergeOptions(verify=False, **options),
    )


@pytest.mark.parametrize("cache_mode", ["per-checkpoint", "none"])
def test_stream_interleaved_matches_serial(checkpoint_run, tmp_path, cache_mode):
    """Both cache modes match the serial reference on the parity fixture."""
    storage, _, _, config, _ = checkpoint_run
    recipe = _odd_parity_recipe(storage, config, cache_mode=cache_mode)
    merged = LLMTailor(recipe).merge(output=tmp_path / "m")
    _assert_shards_equal_reference(merged, recipe, config, 2, tmp_path / "ref.blob")
    # Table 7's two regimes: one load per source, or one per slot.
    loads = 2 if cache_mode == "per-checkpoint" else len(model_slots(config))
    assert merged.optimizer_files_loaded == loads * 2


def test_corrupt_shard_bytes_rejected(checkpoint_run, tmp_path):
    """Bit-rot in a shard file must fail the merge.

    Every selective read drains the file (container length + CRC) and
    verifies each materialized group against its header ``crc32``, so
    corruption in copied data can never flow silently into the merged
    checkpoint.
    """
    storage, _, _, config, _ = checkpoint_run
    shard_path = CheckpointPaths(storage.root / "checkpoint-100").shard(0)
    raw = bytearray(shard_path.read_bytes())
    raw[-3] ^= 0xFF  # tail byte: inside the last group's state arrays
    shard_path.write_bytes(bytes(raw))
    with pytest.raises((CheckpointFormatError, MergeError)):
        LLMTailor(_odd_parity_recipe(storage, config)).merge(output=tmp_path / "m")


def test_tampered_group_rejected(checkpoint_run, tmp_path):
    """Per-group CRCs catch tampering that re-wrote a valid container.

    Rewriting a shard with a modified fp32 array but the original group
    header produces a self-consistent blob (payload CRC matches); the
    stale group ``crc32`` must stop the *default* merge — library and
    CLI alike — the way a ``bitrot`` fault is meant to be caught.
    """
    from repro.cli import main

    storage, _, _, config, _ = checkpoint_run
    shard_path = CheckpointPaths(storage.root / "checkpoint-100").shard(0)
    doc = read_blob(shard_path)
    tampered = next(iter(doc["fp32_flat_groups"]))
    doc["fp32_flat_groups"][tampered] = doc["fp32_flat_groups"][tampered] + 1.0
    write_blob(shard_path, doc)  # container CRC now valid again

    recipe = _odd_parity_recipe(storage, config)
    with pytest.raises(MergeError, match="CRC mismatch for group"):
        LLMTailor(recipe).merge(output=tmp_path / "lib")
    recipe.save(tmp_path / "recipe.yaml")
    with pytest.raises(MergeError, match="CRC mismatch for group"):
        main(["merge", "-r", str(tmp_path / "recipe.yaml"), "-o", str(tmp_path / "cli")])


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
    """A corrupt shard fails the merge even where nothing is copied from.

    Only ``norm`` (group 0, the head of the file) is taken from
    checkpoint-1; the flipped byte sits in the last group's moments,
    two thirds of a shard later.  A read that stopped after the last
    wanted group would hand back intact data from a corrupt file.
    """
    storage = _full_trail(tmp_path, untied_config)
    recipe = MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-2",
        assignments={"norm": storage.root / "checkpoint-1"},
        options=MergeOptions(verify=False),
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
    assert merged_files("mixed") == all_v2
    assert merged_files("mixed-w2", workers=2) == all_v2


def test_streamed_output_verifies_and_resumes(checkpoint_run, tmp_path):
    """A Frankenstein checkpoint merged with fan-out passes deep verification."""
    storage, _, _, config, _ = checkpoint_run
    recipe = _odd_parity_recipe(storage, config, workers=2)
    recipe.options = MergeOptions(workers=2)  # verify=True default
    result = LLMTailor(recipe).merge(output=tmp_path / "m")
    assert result.verify_report is not None and result.verify_report.ok


def test_stream_peak_memory_bounded(tmp_path, untied_config, monkeypatch):
    """Peak allocation stays under one source shard plus one output shard.

    The scenario where caching whole shards would hurt: slots spread
    round-robin over three *complete* checkpoints.  Each selective pass
    holds only the groups taken from that source, which across all
    sources sum to one output shard; decoding a whole source per pass
    and keeping it (what the serial algorithm did) needs three.
    """
    import repro.core.optimizer_merge as engine

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
        options=MergeOptions(verify=False),
    )
    shard_bytes = decoded_nbytes(
        read_blob(CheckpointPaths(storage.root / "checkpoint-3").shard(0))
    )
    peak = peak_outside_writes(
        monkeypatch, engine, lambda: LLMTailor(recipe).merge(output=tmp_path / "mem")
    )
    # Codec slack: one read chunk plus the plane buffers of a group.
    assert peak <= 2 * shard_bytes + (64 << 10), (
        f"merge peak {peak} exceeds one source + one output shard ({2 * shard_bytes})"
    )


class TestVerifiedRecords:
    """A merge copies each taken array's verified record instead of encoding it again."""

    def test_writer_and_resharder_encode_every_planar_array(
        self, tmp_path, untied_config, monkeypatch
    ):
        """Fresh arrays still go through the plane encoder, every plane of each."""
        from repro.dist import reshard_checkpoint

        planes = count_packed_planes(monkeypatch)
        ckpt = CheckpointPaths(_full_trail(tmp_path, untied_config, steps=(1,)).root
                               / "checkpoint-1")
        written = [read_blob(ckpt.shard(rank)) for rank in range(2)]
        assert len(planes) == sum(planar_planes(shard_arrays(p)) for p in written) > 0
        planes.clear()
        reshard_checkpoint(ckpt.dir, tmp_path / "re3", 3)
        out = [read_blob(CheckpointPaths(tmp_path / "re3").shard(rank)) for rank in range(3)]
        assert len(planes) == sum(planar_planes(shard_arrays(p)) for p in out) > 0

    def test_merge_encodes_only_v1_sourced_planar_arrays(
        self, tmp_path, untied_config, monkeypatch
    ):
        """A v2 trail merges with no plane encoded; a mixed trail encodes
        exactly the planes of the planar arrays it takes from v1 shards."""
        from conftest import write_blob_v1
        from repro.core.groups import groups_for_slot

        config = untied_config
        storage = _full_trail(tmp_path, config, steps=(1, 2, 3))
        slots = model_slots(config)
        v1 = storage.root / "checkpoint-1"
        recipe = MergeRecipe(
            base_checkpoint=storage.root / "checkpoint-3",
            assignments={slot: storage.root / f"checkpoint-{1 + i % 3}"
                         for i, slot in enumerate(slots) if i % 3 != 2},
            options=MergeOptions(verify=False, workers=1),  # in-process: counted
        )
        planes = count_packed_planes(monkeypatch)
        LLMTailor(recipe).merge(output=tmp_path / "v2")
        assert planes == []

        for rank in range(2):
            shard = CheckpointPaths(v1).shard(rank)
            write_blob_v1(shard, read_blob(shard))
        out = LLMTailor(recipe).merge(output=tmp_path / "mixed").output
        from_v1 = {g for slot in slots if recipe.source_for(slot) == v1
                   for g in groups_for_slot(config, slot)}
        expected = sum(planar_planes(shard_arrays(read_blob(out.shard(rank)), from_v1))
                       for rank in range(2))
        assert len(planes) == expected > 0

    def test_records_are_immutable_and_resume_from_them_is_unchanged(
        self, tmp_path, untied_config
    ):
        """Writing into a record raises, decoding one yields a plain array of
        its own, and training on from a merged checkpoint saves the same bytes
        as training on from its freshly encoded twin."""
        import shutil

        from repro.io import load_checkpoint
        from repro.io.blobfile import encode

        config = untied_config
        storage = _full_trail(tmp_path, config)
        shard = CheckpointPaths(storage.root / "checkpoint-1").shard(0)
        records = read_blob_selected(shard, lambda _p: True, as_record=group_array)
        record, original = records["fp32_flat_groups"][0], read_blob(shard)["fp32_flat_groups"][0]
        with pytest.raises(TypeError):
            record[0] = 1.0
        with pytest.raises(AttributeError):
            record.data = b""
        decoded = np.asarray(record)
        assert type(decoded) is np.ndarray and decoded.flags.writeable
        decoded += 1.0
        np.testing.assert_array_equal(np.asarray(record), original)
        assert encode(record) == encode(original)

        recipe = MergeRecipe(
            base_checkpoint=storage.root / "checkpoint-2",
            assignments={"embed_tokens": storage.root / "checkpoint-1"},
            options=MergeOptions(verify=False),
        )
        merged = LLMTailor(recipe).merge(output=tmp_path / "merged").output
        fresh = CheckpointPaths(shutil.copytree(merged.dir, tmp_path / "fresh"))
        for rank in range(2):
            write_blob(fresh.shard(rank), reference_merged_shard(recipe, config, rank))

        def train_on(source, name):
            model, engine = make_engine(config, world_size=2, seed=9)
            load_checkpoint(source, model=model, config=config, engine=engine)
            train_steps(model, engine, config, 2, seed=5)
            out = Storage(tmp_path / name)
            save_checkpoint(out, step=4, model=model, config=config, engine=engine,
                            trainer_state={"global_step": 4}, strategy="full")
            return {p.name: p.read_bytes() for p in sorted(out.root.rglob("*"))
                    if p.suffix in (".blob", ".tsr")}

        assert train_on(merged, "a") == train_on(fresh, "b")

    @pytest.mark.parametrize("codec, refusal", [
        (0, "CRC mismatch for group {}"),  # a stored mantissa plane: decodes, wrong CRC
        (1, "group {} arrays undecodable"),  # the deflated exponent plane: fails to inflate
    ])
    def test_tampered_plane_is_refused_before_any_output_byte(
        self, checkpoint_run, tmp_path, monkeypatch, codec, refusal
    ):
        """A flipped byte inside a taken group's stored ``P`` plane, in a
        container whose CRC was recomputed over it, is refused at load —
        before the merge writes anything of the output shard."""
        import struct
        import zlib

        import repro.core.optimizer_merge as engine
        from repro.core.groups import groups_for_slot
        from repro.io.blobfile import encode

        storage, _, _, config, _ = checkpoint_run
        shard_path = CheckpointPaths(storage.root / "checkpoint-100").shard(0)
        (group,) = groups_for_slot(config, "embed_tokens")
        arr = read_blob(shard_path)["fp32_flat_groups"][group]
        record, raw = encode(arr), shard_path.read_bytes()
        assert record[:1] == b"P"
        body = bytearray(raw[33:])
        at = bytes(body).index(record) + 3 + len(arr.dtype.str) + 8 * arr.ndim + 8  # plane 0
        while body[at] != codec:  # plane records: codec u8, stored length u64, bytes
            at += 9 + struct.unpack_from("<Q", body, at + 1)[0]
        body[at + 9 + struct.unpack_from("<Q", body, at + 1)[0] // 2] ^= 0x01
        shard_path.write_bytes(
            struct.pack("<8sIBQQI", b"REPROBLB", 2, 0, len(body), len(body), zlib.crc32(body))
            + bytes(body)
        )

        writes = []
        monkeypatch.setattr(engine, "write_blob", lambda path, obj: writes.append(path))
        recipe = _odd_parity_recipe(storage, config, workers=1)
        with pytest.raises(MergeError, match=refusal.format(group)):
            LLMTailor(recipe).merge(output=tmp_path / "m")
        assert writes == [] and not list(tmp_path.rglob("m/**/*.blob"))

    @pytest.mark.parametrize("bound", ["below one group", "a third", "everything"])
    def test_group_cache_holds_at_most_its_bound_in_record_bytes(
        self, tmp_path, untied_config, bound
    ):
        from repro.io.storage import GroupCache

        storage = _full_trail(tmp_path, untied_config, steps=(1,))
        shard = read_blob_selected(
            CheckpointPaths(storage.root / "checkpoint-1").shard(0), lambda _p: True,
            as_record=group_array,
        )
        groups = {
            f"g{g}": {"fp32": shard["fp32_flat_groups"][g], "exp_avg": state["exp_avg"],
                      "exp_avg_sq": state["exp_avg_sq"]}
            for g, state in shard["state"].items()
        }
        size = {k: sum(len(r.data) for r in v.values()) for k, v in groups.items()}
        limit = {"below one group": max(size.values()) - 1, "a third": sum(size.values()) // 3,
                 "everything": sum(size.values())}[bound]
        cache = GroupCache(max_bytes=limit)
        for key, arrays in groups.items():
            cache.put(key, arrays)
            resident = sum(size[k] for k in groups if cache.get(k) is not None)
            assert cache.nbytes == resident <= limit
        assert (cache.nbytes == sum(size.values())) == (bound == "everything")


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
