"""Auto-recipe generation and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import LLMTailor, recipe_from_run
from repro.io import CheckpointPaths, CheckpointSizes, RunIndex
from repro.train import TrainConfig, Trainer
from repro.util.errors import MergeError


@pytest.fixture
def parity_trail(tmp_path):
    """A parity run interrupted at step 14 (checkpoints at 4, 8, 12)."""
    cfg = TrainConfig(
        model="tiny-untied", task="cpt", total_steps=16,
        checkpoint_strategy="parity", checkpoint_interval=4,
        output_dir=str(tmp_path / "run"), world_size=2,
        micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        failure_step=14,
    )
    trainer = Trainer(cfg)
    trainer.train()
    return trainer


class TestAutoRecipe:
    def test_coverage_prefers_latest(self, parity_trail):
        coverage = RunIndex(parity_trail.storage.root).slot_coverage(14)
        # Checkpoint 4 = full, 8 = odd set, 12 = even set.
        assert coverage["layers.0"] == 12  # even layer: latest at 12
        assert coverage["layers.1"] == 8  # odd layer: latest at 8
        assert coverage["norm"] == 12

    def test_failure_step_filters(self, parity_trail):
        coverage = RunIndex(parity_trail.storage.root).slot_coverage(9)
        assert max(coverage.values()) == 8

    def test_no_checkpoints_raises(self, tmp_path):
        with pytest.raises(MergeError, match="no usable checkpoints"):
            recipe_from_run(tmp_path, failure_step=10)

    def test_recipe_from_run_merges(self, parity_trail, tmp_path):
        recipe = recipe_from_run(parity_trail.storage.root, failure_step=14)
        assert recipe.base_checkpoint.name == "checkpoint-12"
        # Odd layers must come from checkpoint-8.
        assert recipe.assignments["layers.1"].name == "checkpoint-8"
        result = LLMTailor(recipe).merge(output=tmp_path / "merged")
        assert result.output.read_manifest()["complete"]

    def test_recipe_from_run_never_draws_from_a_pruned_checkpoint(self, parity_trail):
        import shutil

        shutil.rmtree(parity_trail.storage.root / "checkpoint-8")
        recipe = recipe_from_run(parity_trail.storage.root, failure_step=14)
        # Fallback: odd layers last seen in the full checkpoint-4.
        assert recipe.assignments["layers.1"].name == "checkpoint-4"


class TestCLI:
    def test_groups_command(self, capsys):
        assert main(["groups", "llama3.1-8b"]) == 0
        out = capsys.readouterr().out
        assert "2L+x = 67" in out
        assert "layer_0_nodecay" in out

    def test_plan_command(self, capsys):
        assert main(["plan", "llama3.1-8b", "parity", "--interval", "100", "--steps", "400"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint events" in out and "proportion" in out

    def test_describe_and_verify(self, parity_trail, capsys):
        ckpt = str(parity_trail.storage.root / "checkpoint-4")
        assert main(["describe", ckpt]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["step"] == 4
        assert main(["verify", ckpt]) == 0

    def test_describe_reports_the_sizes_every_price_uses(self, parity_trail, capsys):
        """One size per file: ``weight_nbytes`` is the weight file on disk,
        header included, as :meth:`CheckpointSizes.on_disk` and the save and
        resume prices have it."""
        for step in (4, 8):
            ckpt = parity_trail.storage.root / f"checkpoint-{step}"
            assert main(["describe", str(ckpt)]) == 0
            info = json.loads(capsys.readouterr().out)
            sizes = CheckpointSizes.on_disk(ckpt)
            assert info["weight_nbytes"] == sizes.weights
            assert info["shard_nbytes"] == sum(sizes.shards)
            assert (info["num_shards"], info["num_weight_tensors"]) == (
                len(sizes.shards), len(sizes.tensors))

    def test_auto_merge_command(self, parity_trail, tmp_path, capsys):
        out_dir = str(tmp_path / "cli-merged")
        rc = main([
            "auto-merge", str(parity_trail.storage.root),
            "--failure-step", "14", "-o", out_dir,
        ])
        assert rc == 0
        assert "merged checkpoint" in capsys.readouterr().out
        assert CheckpointPaths(out_dir).read_manifest()["complete"]

    def test_merge_command_from_yaml(self, parity_trail, tmp_path, capsys):
        recipe = recipe_from_run(parity_trail.storage.root, failure_step=14)
        recipe_path = tmp_path / "recipe.yaml"
        recipe.save(recipe_path)
        rc = main(["merge", "-r", str(recipe_path), "-o", str(tmp_path / "m")])
        assert rc == 0

    def test_merge_command_stream_flags_match_serial(self, parity_trail, tmp_path, capsys):
        """`merge --workers --cache-mode` emits the identical checkpoint;
        the `--stream` switch is gone (one engine, nothing to select)."""
        recipe = recipe_from_run(parity_trail.storage.root, failure_step=14)
        recipe_path = tmp_path / "recipe.yaml"
        recipe.save(recipe_path)
        assert main(["merge", "-r", str(recipe_path), "-o", str(tmp_path / "s")]) == 0
        assert main([
            "merge", "-r", str(recipe_path), "-o", str(tmp_path / "t"),
            "--workers", "4", "--cache-mode", "none",
        ]) == 0
        plain, fanned = CheckpointPaths(tmp_path / "s"), CheckpointPaths(tmp_path / "t")
        assert plain.weights.read_bytes() == fanned.weights.read_bytes()
        for rank in range(2):
            assert plain.shard(rank).read_bytes() == fanned.shard(rank).read_bytes()
        with pytest.raises(SystemExit):
            main(["merge", "-r", str(recipe_path), "-o", str(tmp_path / "u"), "--stream"])

    def test_auto_merge_stream_flag(self, parity_trail, tmp_path, capsys):
        """`auto-merge` takes `--workers`; the removed `--stream` is rejected."""
        out_dir = str(tmp_path / "cli-fanned")
        base = [
            "auto-merge", str(parity_trail.storage.root),
            "--failure-step", "14", "-o", out_dir, "--workers", "2",
        ]
        assert main(base) == 0
        assert CheckpointPaths(out_dir).read_manifest()["complete"]
        with pytest.raises(SystemExit):
            main(base + ["--stream"])

    def test_merge_into_a_checkpoint_name_of_another_step_is_refused(
        self, parity_trail, tmp_path, capsys
    ):
        """``-o run/checkpoint-7`` for a step-12 merge used to write
        everything, fail its own verification and stay published — a
        resume point ``RunIndex`` listed.  Library, ``merge`` and
        ``auto-merge`` now refuse before the first write."""
        from repro.io import RunIndex

        root = parity_trail.storage.root
        wrong, before = root / "checkpoint-7", sorted(p.name for p in root.iterdir())
        recipe_path = tmp_path / "recipe.yaml"
        recipe_path.write_text(recipe_from_run(root, failure_step=14).to_yaml())
        for attempt in (
            lambda: LLMTailor.from_checkpoints(root, failure_step=14).merge(wrong),
            lambda: main(["merge", "-r", str(recipe_path), "-o", str(wrong)]),
            lambda: main(["auto-merge", str(root), "--failure-step", "14", "-o", str(wrong)]),
        ):
            with pytest.raises(MergeError, match="names step 7 .* at step 12"):
                attempt()
            assert sorted(p.name for p in root.iterdir()) == before
        assert RunIndex(root).complete_steps() == [4]
        # The matching name (elsewhere: in the run it is a source) still works.
        right = tmp_path / "checkpoint-12"
        assert main(["auto-merge", str(root), "--failure-step", "14", "-o", str(right)]) == 0
        assert main(["verify", str(right)]) == 0
        with pytest.raises(MergeError, match="in place"):
            main(["auto-merge", str(root), "--failure-step", "14", "-o", str(root / "checkpoint-12")])
        assert RunIndex(root).steps() == [4, 8, 12]  # the refused source is still published

    def test_plan_merge_estimate(self, capsys):
        rc = main([
            "plan", "llama3.1-8b", "parity", "--interval", "100", "--steps", "400",
            "--merge-checkpoints", "2", "--workers", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "merge estimate" in out and "bytes decoded" in out

    def test_verify_reports_issues_nonzero(self, parity_trail, tmp_path, capsys):
        # A partial checkpoint fails completeness verification.
        rc = main(["verify", str(parity_trail.storage.root / "checkpoint-8")])
        assert rc == 1
        assert "ISSUE" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
