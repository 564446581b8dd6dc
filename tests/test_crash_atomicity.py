"""Crash-atomicity: interrupted writes must never corrupt checkpoints.

A checkpointing system's files are read after the writer died — that is
the whole point.  These tests simulate torn writes (leftover .tmp
files, truncated containers) and assert the readers either see the old
consistent state or fail loudly; silent corruption is the only losing
outcome.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import Storage, save_checkpoint, read_blob, write_blob
from repro.io.tensorfile import TensorFile, write_tensorfile
from repro.numerics import DType
from repro.util.errors import CheckpointFormatError
from repro.util.jsonio import read_json, write_json_atomic

from conftest import make_engine, train_steps


class TestTornWrites:
    def test_tensorfile_overwrite_is_atomic(self, tmp_path, rng):
        """Overwriting an existing tensor file leaves old or new, no mix."""
        path = tmp_path / "m.tsr"
        old = {"w": rng.standard_normal((8, 8)).astype(np.float32)}
        write_tensorfile(path, old, dtype=DType.FP32)
        # Simulate a crash mid-rewrite: a .tmp sibling exists but the
        # rename never happened.
        leftover = path.with_suffix(path.suffix + ".tmp")
        leftover.write_bytes(b"partial garbage")
        tf = TensorFile(path)  # reader ignores the leftover
        np.testing.assert_array_equal(tf.read("w"), old["w"])

    def test_blob_overwrite_is_atomic(self, tmp_path):
        path = tmp_path / "s.blob"
        write_blob(path, {"step": 1})
        path.with_suffix(path.suffix + ".tmp").write_bytes(b"\x00" * 10)
        assert read_blob(path) == {"step": 1}

    def test_json_overwrite_is_atomic(self, tmp_path):
        path = tmp_path / "state.json"
        write_json_atomic(path, {"global_step": 5})
        (tmp_path / "state.json.garbage.tmp").write_bytes(b"{")
        assert read_json(path) == {"global_step": 5}

    def test_truncated_tensorfile_fails_loudly(self, tmp_path, rng):
        path = tmp_path / "m.tsr"
        write_tensorfile(path, {"w": rng.standard_normal(64).astype(np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointFormatError):
            TensorFile(path).read("w")

    def test_truncated_header_fails_loudly(self, tmp_path, rng):
        path = tmp_path / "m.tsr"
        write_tensorfile(path, {"w": rng.standard_normal(64).astype(np.float32)})
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises((CheckpointFormatError, Exception)):
            TensorFile(path)

    def test_truncated_blob_fails_loudly(self, tmp_path):
        path = tmp_path / "s.blob"
        write_blob(path, {"state": {0: np.zeros(100, dtype=np.float32)}})
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(CheckpointFormatError):
            read_blob(path)


class TestCheckpointLevelAtomicity:
    def test_older_checkpoint_survives_newer_torn_one(self, tmp_path, untied_config):
        """A destroyed newer checkpoint leaves the older fully loadable."""
        from repro.core import LLMTailor
        from repro.io import CheckpointPaths, load_checkpoint

        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path / "run")
        train_steps(model, engine, untied_config, 1)
        save_checkpoint(storage, step=10, model=model, config=untied_config,
                        engine=engine, trainer_state={"global_step": 10})
        train_steps(model, engine, untied_config, 1)
        paths = save_checkpoint(storage, step=20, model=model, config=untied_config,
                                engine=engine, trainer_state={"global_step": 20})
        # Tear the newest checkpoint's weight file mid-write.
        data = paths.weights.read_bytes()
        paths.weights.write_bytes(data[: len(data) // 3])

        # The old checkpoint still loads cleanly...
        m2, e2 = make_engine(untied_config, seed=3)
        loaded = load_checkpoint(
            CheckpointPaths(storage.root / "checkpoint-10"),
            model=m2, config=untied_config, engine=e2,
        )
        assert loaded.step == 10
        # ...and merging from the torn one fails loudly, not silently.
        from repro.core import MergeRecipe
        from repro.util.errors import MergeError

        with pytest.raises((MergeError, CheckpointFormatError)):
            LLMTailor(
                MergeRecipe(base_checkpoint=storage.root / "checkpoint-20")
            ).merge(output=tmp_path / "m")


class TestLatestPointer:
    """The ``latest`` pointer is published atomically and read strictly."""

    def test_crash_mid_write_keeps_the_old_pointer(self, tmp_path, monkeypatch):
        import os

        from repro.io import read_latest, write_latest

        (tmp_path / "checkpoint-4").mkdir()
        (tmp_path / "checkpoint-8").mkdir()
        write_latest(tmp_path, 4)

        def crash(fd):
            raise OSError("simulated crash before the pointer is published")

        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError, match="simulated crash"):
            write_latest(tmp_path, 8)
        monkeypatch.undo()
        # Old pointer intact (never truncated), no temp file left behind.
        assert (tmp_path / "latest").read_text() == "checkpoint-4\n"
        assert read_latest(tmp_path).step == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-4", "checkpoint-8", "latest",
        ]

    @pytest.mark.parametrize("content", ["", "\n", "merged-8\n", "../elsewhere\n"])
    def test_torn_or_foreign_pointer_fails_loudly(self, tmp_path, content):
        """An empty ``latest`` used to resolve to the run root itself."""
        from repro.io import read_latest
        from repro.util.errors import CheckpointError

        (tmp_path / "merged-8").mkdir()
        (tmp_path / "latest").write_text(content)
        with pytest.raises(CheckpointError, match="latest"):
            read_latest(tmp_path)


class TestRewriteInPlace:
    """Writing into a directory that already holds a checkpoint: the old
    manifest goes first, stale shards go before the new manifest lands."""

    @staticmethod
    def _full(root, config, world_size, step=5):
        model, engine = make_engine(config, world_size=world_size)
        train_steps(model, engine, config, 1)
        return save_checkpoint(Storage(root), step=step, model=model, config=config,
                               engine=engine, trainer_state={"global_step": step})

    def test_remerge_at_a_smaller_world_size_leaves_no_stale_shard(self, tmp_path, untied_config):
        from repro.core import LLMTailor, MergeRecipe
        from repro.io import CheckpointPaths, describe_checkpoint

        out = tmp_path / "merged"
        for world_size in (3, 2):
            source = self._full(tmp_path / f"ws{world_size}", untied_config, world_size)
            LLMTailor(MergeRecipe(base_checkpoint=source.dir)).merge(output=out)
            if world_size == 3:  # a replica of a shard the re-merge overwrites
                shard = CheckpointPaths(out).shard(0)
                shard.with_name(shard.name + ".replica").write_bytes(shard.read_bytes())
        paths = CheckpointPaths(out)
        assert sorted(p.name for p in paths.optim_dir.iterdir()) == [
            paths.shard(0).name, paths.shard(1).name,
        ]
        assert describe_checkpoint(out)["num_shards"] == paths.read_manifest()["world_size"] == 2

    @pytest.mark.parametrize("writer", ["save", "merge", "reshard"])
    def test_a_rewrite_that_dies_leaves_no_manifest(
        self, tmp_path, untied_config, monkeypatch, writer
    ):
        """The second shard write of a rewrite raises: the directory must
        not keep the old ``complete: true`` manifest over mixed shards,
        and the run index then treats it as not there."""
        import repro.core.optimizer_merge
        import repro.dist.reshard
        import repro.io.writer
        from repro.core import LLMTailor, MergeRecipe
        from repro.dist import reshard_checkpoint
        from repro.io import RunIndex

        root = tmp_path / "run"
        source = self._full(tmp_path / "source", untied_config, 2)
        target = root / "checkpoint-5"
        module, write = {
            "save": (repro.io.writer, lambda: self._full(root, untied_config, 2)),
            "merge": (repro.core.optimizer_merge, lambda: LLMTailor(
                MergeRecipe(base_checkpoint=source.dir)).merge(output=target)),
            "reshard": (repro.dist.reshard, lambda: reshard_checkpoint(source, target, 2)),
        }[writer]
        write()
        assert RunIndex(root).complete_steps() == [5]

        real, calls = module.write_blob, []

        def dying(path, obj):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("simulated crash in the second shard write")
            return real(path, obj)

        monkeypatch.setattr(module, "write_blob", dying)
        with pytest.raises(OSError, match="simulated crash"):
            write()
        assert len(calls) == 2 and not (target / "tailor_manifest.json").exists()
        assert RunIndex(root).steps() == []
