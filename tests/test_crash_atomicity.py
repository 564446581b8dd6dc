"""Crash-atomicity: interrupted writes must never corrupt checkpoints.

A checkpointing system's files are read after the writer died — that is
the whole point.  These tests simulate torn writes (leftover .tmp
files, truncated containers) and assert the readers either see the old
consistent state or fail loudly; silent corruption is the only losing
outcome.
"""

from __future__ import annotations

import shutil

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

    def test_a_merge_that_fails_its_own_verification_is_unpublished(
        self, tmp_path, untied_config, monkeypatch
    ):
        """Verification runs after the manifest is written (it reads it);
        a failure used to leave that manifest — a resume point — behind."""
        import repro.core.tailor
        from repro.core import LLMTailor, MergeRecipe, VerifyReport
        from repro.io import RunIndex
        from repro.util.errors import MergeError

        source = self._full(tmp_path / "source", untied_config, 2)
        target = tmp_path / "run" / "checkpoint-5"
        seen = []

        def failing(directory, digests=None):
            seen.append((target / "tailor_manifest.json").exists())
            return VerifyReport(path=directory, issues=["simulated defect"], checks_run=1)

        monkeypatch.setattr(repro.core.tailor, "verify_checkpoint", failing)
        with pytest.raises(MergeError, match="simulated defect"):
            LLMTailor(MergeRecipe(base_checkpoint=source.dir)).merge(output=target)
        assert seen == [True] and not (target / "tailor_manifest.json").exists()
        assert RunIndex(tmp_path / "run").steps() == []

    def test_opening_a_rewrite_removes_a_killed_writers_tmp_debris(self, tmp_path, untied_config):
        paths = self._full(tmp_path / "run", untied_config, 2)
        debris = [paths.dir / "model.tsr.0123abcd.tmp", paths.dir / "model.tsr.data.tmp",
                  paths.shard(0).with_name(paths.shard(0).name + ".feedbeef.tmp")]
        for path in debris:
            path.write_bytes(b"half a file")
        before = {p: p.read_bytes() for p in paths.dir.rglob("*") if p.is_file() and p not in debris}
        self._full(tmp_path / "run", untied_config, 2)
        assert {p: p.read_bytes() for p in paths.dir.rglob("*") if p.is_file()} == before

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


class _Killed(BaseException):
    """The process died: not an ``Exception`` a writer's handler may swallow."""


class _CrashAt:
    """Kill the writer at its k-th filesystem mutation — an ``open`` for
    writing, ``os.replace``, ``os.unlink``, ``os.mkdir`` or ``os.rmdir`` —
    and at every mutation after it (a dead process cleans nothing up).
    ``k=None`` only counts."""

    def __init__(self, k=None):
        self.k, self.count, self._patch = k, 0, pytest.MonkeyPatch()

    def _mutation(self, real):
        def shim(*args, **kwargs):
            self.count += 1
            if self.k is not None and self.count >= self.k:
                raise _Killed(f"killed at filesystem mutation {self.count}")
            return real(*args, **kwargs)
        return shim

    def __enter__(self):
        import builtins
        import io
        import os

        mutating, real_open = self._mutation(io.open), io.open

        def opening(file, mode="r", *args, **kwargs):
            write = set(mode) & set("wax+")
            return (mutating if write else real_open)(file, mode, *args, **kwargs)

        for module in (builtins, io):
            self._patch.setattr(module, "open", opening)
        for name in ("replace", "unlink", "mkdir", "rmdir"):
            self._patch.setattr(os, name, self._mutation(getattr(os, name)))
        return self

    def __exit__(self, *exc):
        self._patch.undo()
        return exc[0] is _Killed


def _tree(root):
    """Every file under ``root`` (relative name -> bytes)."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestCrashPointBattery:
    """Kill each writer of a checkpoint directory at *every* filesystem
    mutation it makes.  After each kill the readers see the previous
    consistent state or a typed "not there" — never a manifest over
    missing or mixed data — and a clean rerun over the debris converges
    on the bytes of an uninterrupted run, leaving no ``.tmp``."""

    STABLE = (3, 6)  # a full and a partial checkpoint no operation below touches

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        """run/: full@3 (ws 3), parity halves @6 and @9, full@12, the live
        (model, engine) at ws 3 and at ws 2, and a merge + reshard output."""
        from repro.core import LLMTailor
        from repro.dist import reshard_checkpoint
        from repro.nn import get_config, model_slots

        config = get_config("tiny-untied")
        base = tmp_path_factory.mktemp("battery")
        storage = Storage(base / "run")
        model, engine = make_engine(config, world_size=3)
        slots = model_slots(config)
        halves = {6: slots[0::2], 9: slots[1::2]}
        for step in (3, 6, 9, 12):
            train_steps(model, engine, config, 1, seed=step)
            save_checkpoint(storage, step=step, model=model, config=config, engine=engine,
                            trainer_state={"global_step": step}, slots=halves.get(step),
                            strategy="parity" if step in halves else "full")
        LLMTailor.from_checkpoints(storage.root, failure_step=9).merge(base / "run" / "merged")
        reshard_checkpoint(storage.root / "checkpoint-12", base / "run" / "re4", 4)
        small = make_engine(config, world_size=2)
        train_steps(*small, config, 1, seed=12)
        return {"root": base / "run", "config": config, "slots": slots,
                "ws3": (model, engine), "ws2": small}

    def _operations(self, root, env):
        from repro.core import LLMTailor
        from repro.dist import reshard_checkpoint
        from repro.io import prune_checkpoints

        def save(step, which, slots=None):
            model, engine = env[which]
            return lambda: save_checkpoint(
                Storage(root), step=step, model=model, config=env["config"], engine=engine,
                trainer_state={"global_step": step}, slots=slots,
                strategy="full" if slots is None else "parity")

        return {
            "full save": save(15, "ws3"),
            "partial save": save(15, "ws3", env["slots"][0::2]),
            "rewrite at a smaller world size": save(12, "ws2"),
            "merge": lambda: LLMTailor.from_checkpoints(root, failure_step=9, workers=1)
                     .merge(root / "merged"),
            "reshard": lambda: reshard_checkpoint(root / "checkpoint-12", root / "re4", 2),
            "prune": lambda: prune_checkpoints(root, keep_last=1),
        }

    _known_good: set = set()  # digests of states already examined (kills repeat them)

    def _assert_consistent(self, root, env, pristine_tree, when):
        """What every reader may rely on after a kill."""
        import hashlib

        from repro.core import LLMTailor, verify_checkpoint
        from repro.io import CheckpointPaths, RunIndex, load_checkpoint
        from repro.util.errors import CheckpointError

        def fresh(*prefixes):  # readers never look at *.tmp, so neither does the digest
            h = hashlib.sha256(repr(prefixes).encode())
            for name, data in tree.items():
                if name.startswith(prefixes) and not name.endswith(".tmp"):
                    h.update(name.encode() + hashlib.sha256(data).digest())
            known = h.hexdigest() in self._known_good
            self._known_good.add(h.hexdigest())
            return not known

        tree, index = _tree(root), RunIndex(root)
        published = sorted(p.parent for p in root.glob("*/tailor_manifest.json"))
        assert set(index.steps()) == {CheckpointPaths(d).step for d in published
                                      if d.name.startswith("checkpoint-")}, when
        for directory in published:
            paths = CheckpointPaths(directory)
            manifest = paths.read_manifest()  # typed and present: shards, geometry
            if not fresh(directory.name + "/"):
                continue
            assert all((directory / name).exists() for name in paths.CONFIG_FILES), when
            shards = sorted(p.name for p in paths.optim_dir.glob("*.blob"))
            assert shards == [p.name for p in paths.shard_paths(manifest["world_size"])], when
            assert TensorFile(paths.weights).metadata["slots"] == manifest["slots"], when
            for rank, shard in enumerate(paths.shard_paths(manifest["world_size"])):
                payload = read_blob(shard)
                assert (payload["global_step"], payload["rank"]) == (manifest["step"], rank), when
            if manifest["complete"]:
                assert verify_checkpoint(directory).ok, when
        # A directory that lost its manifest is typed "not there" to a resume.
        for directory in set(root.glob("*/")) - set(published):
            with pytest.raises(CheckpointError):
                CheckpointPaths(directory).read_manifest()
        # The previous state survives: untouched checkpoints bit for bit...
        for step in self.STABLE:
            prefix = f"checkpoint-{step}/"
            if step in index.steps():
                assert {k: v for k, v in tree.items() if k.startswith(prefix)} == \
                       {k: v for k, v in pristine_tree.items() if k.startswith(prefix)}, when
        # ...and recovery works from whatever is published: resume the newest
        # complete checkpoint, auto-merge the trail.
        if fresh(*(f"checkpoint-{step}/" for step in index.steps())):
            newest = max(index.complete_steps())
            model, engine = make_engine(env["config"], seed=7)
            loaded = load_checkpoint(CheckpointPaths(root / f"checkpoint-{newest}"),
                                     model=model, config=env["config"], engine=engine)
            assert loaded.step == newest, when
            merged = LLMTailor.from_checkpoints(root, workers=1).merge(root.parent / "recovered")
            assert merged.verify_report.ok, when
            shutil.rmtree(merged.output.dir)

    def test_blob_store_every_crash_point(self, pristine, tmp_path):
        """The serve blob store under the same kills: ``put`` of a merged
        shard's records, then ``refs.json``.  After each kill ``get`` returns
        a whole group or ``None``, and a rerun converges on the files of an
        uninterrupted run."""
        from repro.dist.shard import content_key, group_array
        from repro.io import CheckpointPaths
        from repro.io.blobfile import read_blob_selected
        from repro.io.storage import BlobStore, group_key

        shard = read_blob_selected(CheckpointPaths(pristine["root"] / "merged").shard(0),
                                   lambda _p: True, as_record=group_array)
        groups = {
            group_key(*content_key(header, 3)): {
                "fp32": shard["fp32_flat_groups"][header["index"]],
                "exp_avg": shard["state"][header["index"]]["exp_avg"],
                "exp_avg_sq": shard["state"][header["index"]]["exp_avg_sq"],
            }
            for header in shard["groups"][:3]
        }

        def operation(root):
            store = BlobStore(root)
            for key, arrays in groups.items():
                store.put(key, arrays)
            store.add_refs(groups, "tenant:/run/merged")

        with _CrashAt() as counting:
            operation(tmp_path / "clean")
        clean, mutations = _tree(tmp_path / "clean"), counting.count
        assert mutations >= len(groups) + 2

        for k in range(1, mutations + 1):
            root = tmp_path / f"killed-{k}"
            with _CrashAt(k):
                operation(root)
                raise AssertionError(f"mutation {k} of {mutations} never happened")
            store = BlobStore(root)
            for key, arrays in groups.items():
                got = store.get(key)
                assert got is None or (got.keys() == arrays.keys() and all(
                    np.array_equal(got[n], np.asarray(arrays[n])) for n in arrays)), k
                assert store.owners(key) in ([], ["tenant:/run/merged"]), k
            operation(root)
            assert _tree(root) == clean, f"rerun after kill at {k} differs"

    @pytest.mark.parametrize("name", [
        "full save", "partial save", "rewrite at a smaller world size",
        "merge", "reshard", "prune",
    ])
    def test_every_crash_point(self, pristine, tmp_path, name):
        root, pristine_tree = tmp_path / "run", _tree(pristine["root"])

        def reset():
            shutil.rmtree(tmp_path / "run", ignore_errors=True)
            shutil.copytree(pristine["root"], root)
            return self._operations(root, pristine)[name]

        operation = reset()
        with _CrashAt() as counting:
            operation()
        clean, mutations = _tree(root), counting.count
        assert mutations >= 4 and not [f for f in clean if f.endswith(".tmp")]
        self._assert_consistent(root, pristine, pristine_tree, f"{name}: uninterrupted")

        for k in range(1, mutations + 1):
            operation = reset()
            with _CrashAt(k) as crash:
                operation()
                raise AssertionError(f"{name}: mutation {k} of {mutations} never happened")
            assert crash.count >= k
            self._assert_consistent(root, pristine, pristine_tree, f"{name}: killed at {k}")
            operation()  # a clean rerun over whatever the kill left behind
            after = _tree(root)
            assert not [f for f in after if f.endswith(".tmp")], f"{name}: debris after {k}"
            # A killed prune leaves a manifest-less husk; the rerun collects it.
            assert after == clean, f"{name}: rerun after kill at {k} differs"
