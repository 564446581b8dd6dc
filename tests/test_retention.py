"""Coverage-aware checkpoint retention."""

from __future__ import annotations

import pytest

from repro.core import LLMTailor
from repro.io import (
    RunIndex,
    checkpoint_dir,
    list_checkpoint_steps,
    prunable_steps,
    prune_checkpoints,
    read_latest,
)
from repro.train import TrainConfig, Trainer
from repro.util.errors import CheckpointError


@pytest.fixture
def parity_run(tmp_path):
    cfg = TrainConfig(
        model="tiny-untied", task="cpt", total_steps=24,
        checkpoint_strategy="parity", checkpoint_interval=4,
        output_dir=str(tmp_path / "run"), world_size=2,
        micro_batch_size=2, grad_accum_steps=1, seq_len=32,
    )
    trainer = Trainer(cfg)
    trainer.train()
    return trainer  # checkpoints at 4 (full), 8, 12, 16, 20, 24


class TestCoverageMap:
    def test_maps_all_checkpoints(self, parity_run):
        cov = RunIndex(parity_run.storage.root).coverage_map()
        assert sorted(cov) == [4, 8, 12, 16, 20, 24]
        # The first parity checkpoint is full; later ones are halves.
        assert len(cov[4]) == parity_run.model_config.num_model_slots
        assert len(cov[8]) < len(cov[4])


class TestPrunable:
    def test_keeps_last_n_protected(self, parity_run):
        prunable = prunable_steps(parity_run.storage.root, keep_last=2)
        assert 20 not in prunable and 24 not in prunable

    def test_never_breaks_coverage(self, parity_run):
        root = parity_run.storage.root
        prunable = prunable_steps(root, keep_last=2)
        survivors = set(list_checkpoint_steps(root)) - set(prunable)
        cov = RunIndex(root).coverage_map()
        all_slots = set().union(*cov.values())
        surviving_slots = set().union(*(cov[s] for s in survivors))
        assert surviving_slots == all_slots

    def test_nothing_prunable_when_few_checkpoints(self, parity_run):
        assert prunable_steps(parity_run.storage.root, keep_last=10) == []

    def test_keep_last_validated(self, parity_run):
        with pytest.raises(CheckpointError):
            prunable_steps(parity_run.storage.root, keep_last=0)


class TestPrune:
    def test_prune_removes_dirs_and_preserves_recovery(self, parity_run, tmp_path):
        root = parity_run.storage.root
        removed = prune_checkpoints(root, keep_last=2)
        assert removed
        for step in removed:
            assert not checkpoint_dir(root, step).exists()
        # Recovery must still work from the survivors.
        tailor = LLMTailor.from_checkpoints(root)
        result = tailor.merge(output=tmp_path / "merged")
        assert result.output.read_manifest()["complete"]

    def test_dry_run_deletes_nothing(self, parity_run):
        root = parity_run.storage.root
        before = list_checkpoint_steps(root)
        removed = prune_checkpoints(root, keep_last=2, dry_run=True)
        assert removed
        assert list_checkpoint_steps(root) == before

    def test_latest_pointer_never_pruned(self, parity_run):
        root = parity_run.storage.root
        prune_checkpoints(root, keep_last=1)
        assert read_latest(root) is not None


    def test_a_kill_mid_prune_leaves_a_directory_every_reader_skips(
        self, parity_run, monkeypatch
    ):
        """The manifest goes before the tree (it used to stay behind while
        ``rmtree`` had already taken the config files)."""
        import shutil

        from repro.io import RunIndex, write_latest

        root = parity_run.storage.root
        victim = prunable_steps(root, keep_last=2)[0]
        seen = []

        def killed(path):
            seen.append(sorted(p.name for p in path.iterdir()))
            raise KeyboardInterrupt("killed before the first unlink of rmtree")

        monkeypatch.setattr(shutil, "rmtree", killed)
        with pytest.raises(KeyboardInterrupt):
            prune_checkpoints(root, keep_last=2)
        assert "tailor_manifest.json" not in seen[0] and "config.json" in seen[0]
        assert victim in list_checkpoint_steps(root) and victim not in RunIndex(root).steps()
        assert victim not in RunIndex(root).slot_coverage().values()
        # Even pointed at on purpose, the husk is a typed refusal.
        write_latest(root, victim)
        assert read_latest(root).step == victim
        with pytest.raises(CheckpointError, match="tailor_manifest.json"):
            parity_run.resume_latest()

    def test_prune_collects_husks_older_than_the_newest_checkpoint(self, parity_run):
        """A manifest-less ``checkpoint-<k>`` (a killed prune or save) below
        the newest published step is removed; one above it, one ``latest``
        names, and anything under ``dry_run`` are left alone."""
        from repro.io import write_latest

        root = parity_run.storage.root
        for step in (8, 16):
            checkpoint_dir(root, step).manifest.unlink()
        (root / "checkpoint-30" / "global_step30").mkdir(parents=True)
        before = list_checkpoint_steps(root)
        keep_all = len(before)
        assert prune_checkpoints(root, keep_all, dry_run=True) == [8, 16]
        assert list_checkpoint_steps(root) == before
        write_latest(root, 16)
        assert prune_checkpoints(root, keep_all) == [8]
        assert list_checkpoint_steps(root) == [4, 12, 16, 20, 24, 30]
        write_latest(root, 24)
        assert prune_checkpoints(root, keep_all) == [16]
        assert list_checkpoint_steps(root) == [4, 12, 20, 24, 30]
        assert RunIndex(root).steps() == [4, 12, 20, 24]


class TestCompleteCheckpointAnchor:
    """Retention must never evict the last complete checkpoint set."""

    def test_latest_complete_step_finds_full_snapshot(self, parity_run):
        # Parity's initial full snapshot at step 4 is the only complete one.
        assert RunIndex(parity_run.storage.root).complete_steps() == [4]

    def test_latest_complete_step_none_without_full(self, tmp_path):
        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=8,
            checkpoint_strategy="parity", checkpoint_interval=4,
            strategy_kwargs={"initial_full": False},
            output_dir=str(tmp_path / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
        Trainer(cfg).train()
        assert RunIndex(tmp_path / "run").complete_steps() == []

    def test_newest_complete_checkpoint_protected(self, parity_run):
        """Partial coverage of step 4's slots must not make it prunable.

        Steps 8..24 jointly cover every slot, so pure coverage logic
        would happily delete the full step-4 snapshot — but it is the
        only merge-free, world-size-consistent resume point.
        """
        root = parity_run.storage.root
        cov = RunIndex(root).coverage_map()
        later = set().union(*(cov[s] for s in cov if s > 4))
        assert later == set(cov[4])  # coverage alone would allow pruning 4
        assert 4 not in prunable_steps(root, keep_last=2)
        prune_checkpoints(root, keep_last=2)
        assert checkpoint_dir(root, 4).exists()
        assert checkpoint_dir(root, 4).read_manifest()["complete"]

    def test_failure_triggered_resume_survives_aggressive_retention(self, tmp_path):
        """Chaos + retention: the recovery anchor outlives the pruner."""
        from repro.dist.faults import FaultPlan, rank_failure
        from repro.train import train_with_faults

        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=24,
            checkpoint_strategy="parity", checkpoint_interval=4,
            max_checkpoints=1,  # maximally aggressive pruning
            output_dir=str(tmp_path / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
        plan = FaultPlan(events=(rank_failure(22, 1),))
        result = train_with_faults(cfg, plan)
        assert result.interrupted_at is None
        assert result.final_step == 24
        # The complete anchor was never evicted along the way.
        assert RunIndex(tmp_path / "run").complete_steps()


    def test_chaos_recoveries_leave_no_merged_directories(self, tmp_path):
        """Each merging recovery writes ``merged-<base>``; once the run has
        checkpointed past it, retention collects it with the rest."""
        from repro.dist.faults import FaultPlan, rank_failure
        from repro.train import train_with_faults

        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=24,
            checkpoint_strategy="parity", checkpoint_interval=4,
            max_checkpoints=2,
            output_dir=str(tmp_path / "run"), world_size=3,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
        plan = FaultPlan(events=(rank_failure(10, 1), rank_failure(18, 1)))
        result = train_with_faults(cfg, plan)
        assert result.final_step == 24
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert all(n == "latest" or n.startswith("checkpoint-") for n in names), names

    def test_merged_directory_is_collected_once_a_newer_checkpoint_is_published(
        self, parity_run, tmp_path
    ):
        root = parity_run.storage.root
        stale = parity_run.auto_recover(20)  # merged-20 < checkpoint-24
        fresh = LLMTailor.from_checkpoints(root, failure_step=24).merge(root / "merged-24")
        husk = root / "merged-12"  # a kill mid-delete: manifest gone, tree left
        husk.mkdir()
        (husk / "model.tsr").write_bytes(b"half")
        before = sorted(p.name for p in root.iterdir())
        would = prune_checkpoints(root, keep_last=2, dry_run=True)
        assert sorted(p.name for p in root.iterdir()) == before
        assert prune_checkpoints(root, keep_last=2) == would
        assert not stale.dir.exists() and not husk.exists()
        assert fresh.output.read_manifest()["complete"]  # not past checkpoint-24
        assert read_latest(root).step == 24


class TestTrainerIntegration:
    def test_max_checkpoints_prunes_during_training(self, tmp_path):
        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=24,
            checkpoint_strategy="parity", checkpoint_interval=4,
            max_checkpoints=3,
            output_dir=str(tmp_path / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
        trainer = Trainer(cfg)
        trainer.train()
        steps = list_checkpoint_steps(trainer.storage.root)
        assert len(steps) <= 4  # 3 protected + possibly one coverage-pinned
        # And recovery still works.
        merged = trainer.auto_recover(24)
        assert merged.exists()
