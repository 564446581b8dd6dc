"""Snapshot-then-persist: a trainer's save stalls the step only for a copy.

A :class:`~repro.train.Trainer` snapshots a checkpoint on the training
thread and persists it on one writer thread, joined at the next save,
at the end of the leg and before anything reads the run directory.
These tests hold the background trail to the synchronous one, byte for
byte and charge for charge, and kill the writer thread mid-shard.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np
import pytest

import repro.io.writer
import repro.train.trainer
from repro.core import LLMTailor
from repro.io import (
    CheckpointPaths,
    RunIndex,
    Storage,
    prune_checkpoints,
    read_latest,
    save_checkpoint,
)
from repro.io.writer import persist_checkpoint, snapshot_checkpoint
from repro.nn import model_slots
from repro.nn.slots import slot_of_param
from repro.train import TrainConfig, Trainer
from repro.train.callbacks import Callback
from repro.util.errors import SimulatedFailure

from conftest import make_engine, train_steps
from test_crash_atomicity import _CrashAt, _Killed, _tree


class SyncTrainer(Trainer):
    """The trainer as it saved before the writer thread: every checkpoint
    written and charged inside its step, then pruned."""

    def write_checkpoint(self, step, *, slots, strategy_name, keep_last=None):
        self.state.learning_rate = self.scheduler.get_last_lr()[0]
        self.state.checkpoints_written.append(step)
        paths = save_checkpoint(
            self.storage, step=step, model=self.model, config=self.model_config,
            engine=self.engine, trainer_state=self.state.to_dict(),
            training_args=self.config.to_dict(), scheduler_state=self.scheduler.state_dict(),
            rng_state={"seed": self.config.seed, "sampling": "stateless-step-indexed"},
            slots=slots, strategy=strategy_name,
        )
        if keep_last is not None:
            prune_checkpoints(self.storage.root, keep_last)
        return paths


def config_1b(out, strategy, interval, world_size, **overrides) -> TrainConfig:
    """perf/'s workloads: ``llama3.2-1b-sim``, 40 steps."""
    fields = dict(model="llama3.2-1b-sim", task="cpt", output_dir=str(out), seed=0,
                  world_size=world_size, micro_batch_size=2, grad_accum_steps=1,
                  seq_len=48, total_steps=40, checkpoint_strategy=strategy,
                  checkpoint_interval=interval)
    fields.update(overrides)
    return TrainConfig(**fields)


def tiny(out, **overrides) -> TrainConfig:
    fields = dict(model="tiny-untied", task="cpt", output_dir=str(out), world_size=2,
                  micro_batch_size=2, grad_accum_steps=1, seq_len=32, total_steps=8,
                  checkpoint_strategy="parity", checkpoint_interval=2)
    fields.update(overrides)
    return TrainConfig(**fields)


def masked(root) -> dict[str, bytes]:
    """Every file under ``root``, its own path masked (manifests name it)."""
    return {name: data.replace(str(root).encode(), b"<OUT>") for name, data in _tree(root).items()}


def record(trainer_cls, config):
    trainer = trainer_cls(config)
    result = trainer.train()
    return result, masked(trainer.storage.root), trainer.state.log_history


class TestByteIdentity:
    """A background trail is the synchronous trail: files, clock and losses."""

    @pytest.mark.parametrize("world_size", [2, 3])
    @pytest.mark.parametrize("strategy,interval", [("parity", 5), ("filtered", 2)])
    def test_trail_equals_the_synchronous_trail(self, tmp_path, strategy, interval, world_size):
        sync, sync_files, sync_log = record(
            SyncTrainer, config_1b(tmp_path / "sync", strategy, interval, world_size))
        live, live_files, live_log = record(
            Trainer, config_1b(tmp_path / "live", strategy, interval, world_size))
        assert live_files.keys() == sync_files.keys()
        assert [n for n in live_files if live_files[n] != sync_files[n]] == []
        assert live.checkpoints == sync.checkpoints and len(live.checkpoints) >= 8
        # The clock's books are what a save made inside its step charges,
        # float for float: late charges land where they were due.
        assert live.clock == sync.clock
        assert live.checkpoint_time_fraction == sync.checkpoint_time_fraction
        assert live.total_checkpoint_bytes == sync.total_checkpoint_bytes
        assert live_log == sync_log

    def test_retention_prunes_after_publish_as_before(self, tmp_path):
        sync, sync_files, _ = record(SyncTrainer, tiny(tmp_path / "sync", max_checkpoints=2))
        live, live_files, _ = record(Trainer, tiny(tmp_path / "live", max_checkpoints=2))
        assert live_files == sync_files and live.clock == sync.clock
        # Coverage-aware: checkpoint-2 holds the only copy of its half.
        kept = RunIndex(tmp_path / "live").steps()
        assert kept == RunIndex(tmp_path / "sync").steps() == [2, 6, 8]


class _Stop(Callback):
    """Last in the chain, like perf/'s ``_Back``: a crash after ``step``'s save."""

    def __init__(self, step: int) -> None:
        self.step = step

    def on_step_end(self, trainer, step, loss):
        if step == self.step:
            raise SimulatedFailure(step)


class TestJoinPoints:
    def test_a_failure_on_a_checkpoint_step_leaves_it_published(self, tmp_path):
        """``train()`` joins the write before it returns: the failing step's
        checkpoint is published and ``latest`` names it, and the recover
        phase of perf/ (merge the trail at that failure) reads the trail a
        synchronous run leaves."""
        trails = {}
        for name, cls in (("sync", SyncTrainer), ("live", Trainer)):
            trainer = cls(config_1b(tmp_path / name / "run", "parity", 5, 2, total_steps=100))
            trainer.callbacks.append(_Stop(20))
            result = trainer.train()
            assert result.interrupted_at == 20 and result.checkpoints[-1] == 20
            assert read_latest(trainer.storage.root).step == 20
            assert RunIndex(trainer.storage.root).steps() == [5, 10, 15, 20]
            merged = LLMTailor.from_checkpoints(trainer.storage.root, failure_step=20).merge(
                tmp_path / name / "merged")
            assert merged.verify_report.ok
            trails[name] = masked(tmp_path / name)
        assert trails["live"] == trails["sync"]

    def test_no_snapshot_outlives_its_join(self, tmp_path, monkeypatch):
        """Every array a snapshot holds is freed by the time the join
        returns — without a garbage-collector pass, so no cycle keeps one."""
        refs: list[weakref.ref] = []

        def watched(**kwargs):
            snapshot = snapshot_checkpoint(**kwargs)
            arrays = list(snapshot.weights.values())
            for shard in snapshot.shards:
                arrays += list(shard["fp32_flat_groups"].values())
                arrays += [a for g in shard["state"].values()
                           for a in (g["exp_avg"], g["exp_avg_sq"])]
            refs[:] = [weakref.ref(a) for a in arrays]
            return snapshot

        monkeypatch.setattr(repro.train.trainer, "snapshot_checkpoint", watched)
        trainer = Trainer(tiny(tmp_path / "run"))
        trainer.train(until_step=2)
        assert refs and all(r() is None for r in refs)
        release, real = threading.Event(), repro.train.trainer.persist_checkpoint
        monkeypatch.setattr(repro.train.trainer, "persist_checkpoint",
                            lambda root, snapshot: release.wait(10) and real(root, snapshot))
        trainer.write_checkpoint(3, slots=None, strategy_name="full")
        assert all(r() is not None for r in refs)  # held while in flight...
        release.set()
        trainer.join_checkpoint()
        assert all(r() is None for r in refs)  # ...and not a moment after
        assert RunIndex(trainer.storage.root).steps() == [2, 3]

    def test_no_writer_thread_survives_train(self, tmp_path):
        before = set(threading.enumerate())
        trainer = Trainer(tiny(tmp_path / "run", failure_step=4))
        started = []
        real = repro.train.trainer._CheckpointWrite.start

        def start(thread):
            started.append(thread)
            real(thread)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.train.trainer._CheckpointWrite, "start", start)
            trainer.train()
            assert len(started) == 2
            assert not any(t.is_alive() for t in started)
            trainer.train()  # a second leg, resumed past the failure
        assert len(started) == 4 and set(threading.enumerate()) <= before
        assert not any(t.is_alive() for t in started)

    def test_readers_join_first(self, tmp_path, monkeypatch):
        """``run_index``, ``resume_from`` and ``resume_latest`` see the
        checkpoint that was in flight when they were called."""
        trainer = Trainer(tiny(tmp_path / "run"))
        trainer.train(until_step=3)
        release = threading.Event()
        real = repro.train.trainer.persist_checkpoint

        def slow(root, snapshot):
            release.wait(10)
            return real(root, snapshot)

        monkeypatch.setattr(repro.train.trainer, "persist_checkpoint", slow)
        for read in (lambda t: t.run_index().steps()[-1], lambda t: t.resume_latest(),
                     lambda t: t.resume_from(t.storage.root / "checkpoint-4")):
            trainer.write_checkpoint(4, slots=None, strategy_name="full")
            threading.Timer(0.05, release.set).start()
            assert read(trainer) == 4
            release.clear()


class TestSnapshot:
    def test_copies_only_the_saved_slots(self, monkeypatch, untied_config):
        model, engine = make_engine(untied_config)
        train_steps(model, engine, untied_config, 1)
        monkeypatch.setattr(type(model), "state_dict", lambda self: pytest.fail("copied all"))
        slots = model_slots(untied_config)[1::2]
        snapshot = snapshot_checkpoint(step=1, model=model, config=untied_config,
                                       engine=engine, trainer_state={}, slots=slots)
        live = dict(model.named_parameters())
        assert list(snapshot.weights) == [n for n in live if slot_of_param(n) in slots]
        for name, array in snapshot.weights.items():
            assert not np.shares_memory(array, live[name].data)
            np.testing.assert_array_equal(array, live[name].data)
        train_steps(model, engine, untied_config, 1)  # later steps leave it alone
        assert any(not np.array_equal(a, live[n].data) for n, a in snapshot.weights.items())

    def test_persist_fsyncs_every_bulk_file_before_publishing(self, tmp_path, monkeypatch,
                                                              untied_config):
        model, engine = make_engine(untied_config, world_size=3)
        train_steps(model, engine, untied_config, 1)
        synced, manifest = [], tmp_path / "checkpoint-1" / "tailor_manifest.json"

        def fsync(path):
            synced.append((path.name, manifest.exists()))

        monkeypatch.setattr(repro.io.writer, "fsync_file", fsync)
        paths = save_checkpoint(Storage(tmp_path), step=1, model=model, config=untied_config,
                                engine=engine, trainer_state={})
        assert synced == [(p.name, False) for p in (paths.weights, *paths.shard_paths(3))]
        assert paths.manifest.exists()

    def test_persist_charges_nothing(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path / "a")
        snapshot = snapshot_checkpoint(step=2, model=model, config=untied_config,
                                       engine=engine, trainer_state={"global_step": 2})
        saved = persist_checkpoint(storage.root, snapshot)
        assert storage.clock.total() == 0.0 and storage.stats.category_bytes("") == 0.0
        saved.charge(storage)
        reference = Storage(tmp_path / "b")
        save_checkpoint(reference, step=2, model=model, config=untied_config, engine=engine,
                        trainer_state={"global_step": 2})
        assert storage.clock.snapshot() == reference.clock.snapshot()
        assert masked(tmp_path / "a") == masked(tmp_path / "b")


class _KillWriter(_CrashAt):
    """:class:`_CrashAt` on the writer thread of one checkpoint only (the
    training thread runs on); ``calls`` lists that thread's mutations."""

    def __init__(self, step: int, k: int | None = None) -> None:
        super().__init__(k)
        self.thread, self.calls = f"checkpoint-writer-{step}", []

    def _mutation(self, real):
        def shim(*args, **kwargs):
            if threading.current_thread().name == self.thread:
                self.calls.append(str(args[0]))
                if self.k is not None and len(self.calls) >= self.k:
                    raise _Killed(f"writer killed at filesystem mutation {len(self.calls)}")
            return real(*args, **kwargs)
        return shim


class TestWriterCrash:
    """The writer thread dies halfway through a rank shard of checkpoint-4
    in a parity run (interval 2, world size 2)."""

    STEP = 4

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("writer-crash")
        with _KillWriter(self.STEP) as counted:
            trainer = Trainer(tiny(base / "run"))
            trainer.train()
        # Each rank shard is an open of its temporary, then its rename.
        shard_calls = [i + 1 for i, call in enumerate(counted.calls)
                       if "global_step4" in call and "mp_rank" in call]
        assert len(shard_calls) == 4, counted.calls
        return masked(base / "run"), shard_calls

    @pytest.mark.parametrize("which", range(4))
    def test_kill_mid_shard(self, tmp_path, reference, which):
        uninterrupted, shard_calls = reference
        k = shard_calls[which]
        trainer = Trainer(tiny(tmp_path / "run"))
        with _KillWriter(self.STEP, k) as kill:
            with pytest.raises(_Killed):  # surfaces at the next join, with its type
                trainer.train()
        assert len(kill.calls) >= k
        # The next join is the next save's: step 6 ran, its save was refused.
        assert trainer.state.global_step == self.STEP + 2
        assert trainer.state.checkpoints_written == [2, 4]
        root = tmp_path / "run"
        assert not (root / f"checkpoint-{self.STEP}" / "tailor_manifest.json").exists()
        assert RunIndex(root).steps() == [2]
        assert read_latest(root).step == 2
        # A clean rerun over the debris converges on the uninterrupted bytes.
        Trainer(tiny(root)).train()
        assert not list(root.rglob("*.tmp"))
        assert masked(root) == uninterrupted

    def test_a_kill_in_the_last_write_surfaces_at_the_end_of_the_leg(self, tmp_path, reference):
        _, shard_calls = reference
        trainer = Trainer(tiny(tmp_path / "run", total_steps=self.STEP))
        with _KillWriter(self.STEP, shard_calls[2]):
            with pytest.raises(_Killed):
                trainer.train()
        assert trainer.state.global_step == self.STEP
        assert read_latest(tmp_path / "run").step == 2
        trainer.join_checkpoint()  # the error was consumed: nothing is in flight
        assert CheckpointPaths(tmp_path / "run" / "checkpoint-2").read_manifest()["step"] == 2
