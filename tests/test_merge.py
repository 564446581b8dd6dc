"""The LLMTailor merge pipeline: weights + optimizer shards + configs."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro.core.optimizer_merge as optimizer_merge
from repro.core import (
    LLMTailor,
    MergeOptions,
    MergeRecipe,
    mergekit_merge,
    verify_checkpoint,
)
from repro.io import CheckpointPaths, Storage, load_checkpoint, save_checkpoint, TensorFile
from repro.io.layout import manifest_doc
from repro.nn import slot_of_param
from repro.util.errors import CheckpointError, MergeError
from repro.util.jsonio import write_json_atomic

from conftest import make_engine, train_steps


def _odd_even_sets(config):
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    even = [f"layers.{i}" for i in range(L) if i % 2 == 0] + ["norm", "lm_head"]
    return odd, even


def _parity_recipe(storage, config, **options):
    odd, _ = _odd_even_sets(config)
    assignments = {slot: storage.root / "checkpoint-100" for slot in odd}
    return MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments=assignments,
        options=MergeOptions(**options),
    )


class TestParityMerge:
    def test_frankenstein_state_is_slotwise_correct(self, checkpoint_run, tmp_path):
        storage, model, engine, config, snapshots = checkpoint_run
        recipe = _parity_recipe(storage, config)
        result = LLMTailor(recipe).merge(output=tmp_path / "merged")
        assert result.verify_report is not None and result.verify_report.ok

        model2, engine2 = make_engine(config, seed=77)
        load_checkpoint(
            CheckpointPaths(tmp_path / "merged"),
            model=model2, config=config, engine=engine2,
        )
        odd, _ = _odd_even_sets(config)
        merged_state = engine2.master_state_dict()
        for name, value in merged_state.items():
            source_step = 100 if slot_of_param(name) in odd else 200
            np.testing.assert_array_equal(
                value, snapshots[source_step][name],
                err_msg=f"{name} should come from checkpoint-{source_step}",
            )

    def test_merged_checkpoint_is_complete_and_resumable(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        result = LLMTailor(_parity_recipe(storage, config)).merge(output=tmp_path / "m")
        manifest = result.output.read_manifest()
        assert manifest["complete"] is True
        assert manifest["step"] == 200  # from config source (base)
        assert manifest["strategy"] == "llmtailor-merge"
        assert "merge_provenance" in manifest

    def test_config_files_copied(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        result = LLMTailor(_parity_recipe(storage, config)).merge(output=tmp_path / "m")
        assert "trainer_state.json" in result.config_files_copied
        assert (result.output.dir / "config.json").exists()

    def test_interleaved_mode_loads_more_files(self, checkpoint_run, tmp_path):
        """Paper §5.4: parity interleave re-loads checkpoints per layer."""
        storage, _, _, config, _ = checkpoint_run
        cached = LLMTailor(_parity_recipe(storage, config, cache_mode="per-checkpoint")).merge(
            output=tmp_path / "a"
        )
        interleaved = LLMTailor(_parity_recipe(storage, config, cache_mode="none")).merge(
            output=tmp_path / "b"
        )
        world = 2
        n_slots = config.num_model_slots
        assert cached.optimizer_files_loaded == 2 * world  # 2 checkpoints
        assert interleaved.optimizer_files_loaded == n_slots * world
        assert interleaved.optimizer_bytes_loaded > cached.optimizer_bytes_loaded
        # Same output either way.
        a, b = TensorFile(cached.output.weights), TensorFile(interleaved.output.weights)
        for name in a.names:
            np.testing.assert_array_equal(a.read(name), b.read(name))

    def test_parallel_workers_match_sequential(self, checkpoint_run, tmp_path, monkeypatch):
        """The rank process pool runs whatever the box's core count, and its
        output equals the in-process merge's file by file, byte for byte."""
        pools = []

        class CountingPool(optimizer_merge.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(optimizer_merge, "ProcessPoolExecutor", CountingPool)
        storage, _, _, config, _ = checkpoint_run
        seq = LLMTailor(_parity_recipe(storage, config, workers=1)).merge(output=tmp_path / "s")
        assert pools == []
        par = LLMTailor(_parity_recipe(storage, config, workers=2)).merge(output=tmp_path / "p")
        assert pools == [2]

        files = sorted(p.relative_to(seq.output.dir) for p in seq.output.dir.rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(par.output.dir) for p in par.output.dir.rglob("*")
                               if p.is_file())
        for rel in files:
            a, b = (seq.output.dir / rel).read_bytes(), (par.output.dir / rel).read_bytes()
            if rel.name == "tailor_manifest.json":
                # The manifest records its own output and the options it ran with.
                a, b = json.loads(a), json.loads(b)
                for doc, workers in ((a, 1), (b, 2)):
                    doc["merge_provenance"].pop("output")
                    assert doc["merge_provenance"].pop("options")["workers"] == workers
            assert a == b, rel

    def test_rank_stats_in_rank_order(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        result = LLMTailor(_parity_recipe(storage, config, workers=2)).merge(output=tmp_path / "m")
        assert [s.rank for s in result.rank_stats] == [0, 1]
        assert all(s.checkpoints_touched == 2 for s in result.rank_stats)

    def test_identity_merge_resumes_bit_exactly(self, tmp_path, untied_config):
        """Merging a full checkpoint with itself == plain resume."""
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path / "run")
        train_steps(model, engine, untied_config, 2)
        save_checkpoint(storage, step=50, model=model, config=untied_config,
                        engine=engine, trainer_state={"global_step": 50})
        recipe = MergeRecipe(base_checkpoint=storage.root / "checkpoint-50")
        LLMTailor(recipe).merge(output=tmp_path / "identity")

        m_direct, e_direct = make_engine(untied_config, seed=5)
        load_checkpoint(CheckpointPaths(storage.root / "checkpoint-50"),
                        model=m_direct, config=untied_config, engine=e_direct)
        m_merged, e_merged = make_engine(untied_config, seed=6)
        load_checkpoint(CheckpointPaths(tmp_path / "identity"),
                        model=m_merged, config=untied_config, engine=e_merged)

        l_direct = train_steps(m_direct, e_direct, untied_config, 3, seed=9)
        l_merged = train_steps(m_merged, e_merged, untied_config, 3, seed=9)
        assert l_direct == l_merged  # bit-exact trajectories


class TestMergeValidation:
    def test_missing_shard_detected(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        shard = CheckpointPaths(storage.root / "checkpoint-100").shard(1)
        shard.unlink()
        # A manifest over a missing shard is refused where it is read.
        with pytest.raises(CheckpointError, match="missing shard for rank 1"):
            LLMTailor(_parity_recipe(storage, config)).merge(output=tmp_path / "m")

    def test_manifest_lies_about_slots_detected(self, checkpoint_run, tmp_path):
        """A checkpoint whose manifest over-claims is caught at group copy."""
        storage, _, _, config, _ = checkpoint_run
        paths = CheckpointPaths(storage.root / "checkpoint-100")
        manifest = paths.read_manifest()
        # lie: claim everything (``complete`` follows, the schema ties them)
        write_json_atomic(
            paths.manifest, manifest_doc(**{**manifest, "slots": manifest["all_slots"]})
        )
        odd, even = _odd_even_sets(config)
        # Ask for an even layer from checkpoint-100, which never saved it.
        recipe = MergeRecipe(
            base_checkpoint=storage.root / "checkpoint-200",
            assignments={"layers.0": storage.root / "checkpoint-100",
                         **{s: storage.root / "checkpoint-100" for s in odd}},
        )
        with pytest.raises(MergeError, match="lacks (group|tensor)"):
            LLMTailor(recipe).merge(output=tmp_path / "m")

    def test_verify_flags_tampered_output(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        result = LLMTailor(_parity_recipe(storage, config)).merge(output=tmp_path / "m")
        # Tamper: mark a shard group with inverted decay.
        from repro.io import read_blob, write_blob

        shard_path = result.output.shard(0)
        shard = read_blob(shard_path)
        shard["groups"][0]["weight_decay"] = 0.5  # norm group must be 0
        write_blob(shard_path, shard)
        report = verify_checkpoint(result.output.dir)
        assert not report.ok
        assert any("decay" in issue for issue in report.issues)

    def test_verify_sources_bitwise(self, checkpoint_run, tmp_path):
        """Every merged slot carries its source's bits, weights and masters."""
        from repro.core.groups import groups_for_slot
        from repro.io import read_blob
        from repro.nn.slots import slot_parameter_shapes

        storage, _, _, config, _ = checkpoint_run
        result = LLMTailor(_parity_recipe(storage, config)).merge(output=tmp_path / "m")
        merged = TensorFile(result.output.weights)
        for slot, step in (("layers.1", 100), ("norm", 200)):
            source = CheckpointPaths(storage.root / f"checkpoint-{step}")
            for name in slot_parameter_shapes(config)[slot]:
                assert merged.read_raw(name)[0] == TensorFile(source.weights).read_raw(name)[0]
            for rank in range(2):
                got, want = read_blob(result.output.shard(rank)), read_blob(source.shard(rank))
                for g in groups_for_slot(config, slot):
                    assert np.array_equal(got["fp32_flat_groups"][g], want["fp32_flat_groups"][g])


@pytest.fixture
def full_checkpoint_run(tmp_path, untied_config):
    """Two FULL checkpoints (steps 100, 200) for weights-only merging."""
    model, engine = make_engine(untied_config)
    storage = Storage(tmp_path / "full-run")
    train_steps(model, engine, untied_config, 2)
    save_checkpoint(storage, step=100, model=model, config=untied_config,
                    engine=engine, trainer_state={"global_step": 100})
    train_steps(model, engine, untied_config, 2)
    save_checkpoint(storage, step=200, model=model, config=untied_config,
                    engine=engine, trainer_state={"global_step": 200})
    return storage, untied_config


class TestMiniMergeKit:
    def test_passthrough_swaps_layers_only(self, full_checkpoint_run, tmp_path):
        storage, config = full_checkpoint_run
        out = mergekit_merge(
            base=storage.root / "checkpoint-200",
            output=tmp_path / "mk",
            method="passthrough",
            layer_sources={1: storage.root / "checkpoint-100"},
        )
        merged = TensorFile(out / "model.tsr")
        src100 = TensorFile(CheckpointPaths(storage.root / "checkpoint-100").weights)
        src200 = TensorFile(CheckpointPaths(storage.root / "checkpoint-200").weights)
        np.testing.assert_array_equal(
            merged.read("model.layers.1.mlp.up_proj.weight"),
            src100.read("model.layers.1.mlp.up_proj.weight"),
        )
        np.testing.assert_array_equal(
            merged.read("model.norm.weight"), src200.read("model.norm.weight")
        )

    def test_output_is_not_resumable(self, full_checkpoint_run, tmp_path):
        """The §3 limitation: MergeKit output lacks optimizer/manifest."""
        storage, config = full_checkpoint_run
        out = mergekit_merge(
            base=storage.root / "checkpoint-200", output=tmp_path / "mk", method="passthrough"
        )
        assert not (out / "tailor_manifest.json").exists()
        assert not any(out.rglob("*optim_states*"))

    def test_linear_blend_of_self_is_identity(self, full_checkpoint_run, tmp_path):
        storage, config = full_checkpoint_run
        out = mergekit_merge(
            base=storage.root / "checkpoint-200",
            other=storage.root / "checkpoint-200",
            output=tmp_path / "mk",
            method="linear",
            blend=0.5,
        )
        merged = TensorFile(out / "model.tsr")
        src = TensorFile(CheckpointPaths(storage.root / "checkpoint-200").weights)
        name = "model.layers.0.self_attn.q_proj.weight"
        np.testing.assert_allclose(merged.read(name), src.read(name), atol=1e-3)

    def test_slerp_runs_and_writes(self, full_checkpoint_run, tmp_path):
        storage, config = full_checkpoint_run
        out = mergekit_merge(
            base=storage.root / "checkpoint-200",
            other=storage.root / "checkpoint-100",
            output=tmp_path / "mk",
            method="slerp",
            blend=0.5,
        )
        assert (out / "model.tsr").exists()

    def test_unknown_method_rejected(self, full_checkpoint_run, tmp_path):
        storage, _ = full_checkpoint_run
        from repro.util.errors import RecipeError

        with pytest.raises(RecipeError):
            mergekit_merge(
                base=storage.root / "checkpoint-200", output=tmp_path / "x", method="ties"
            )
