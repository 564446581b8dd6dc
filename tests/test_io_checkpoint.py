"""Checkpoint layout, storage cost model, writer/reader round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import (
    CheckpointPaths,
    Storage,
    StorageCostModel,
    TensorFile,
    checkpoint_dir,
    describe_checkpoint,
    list_checkpoint_steps,
    load_checkpoint,
    read_latest,
    save_checkpoint,
    write_latest,
)
from repro.nn import model_slots
from repro.util.errors import CheckpointError

from conftest import make_engine, train_steps


class TestLayout:
    def test_checkpoint_dir_naming(self, tmp_path):
        paths = checkpoint_dir(tmp_path, 250)
        assert paths.dir.name == "checkpoint-250"
        assert paths.step == 250
        assert paths.shard(3).name == "zero_pp_rank_3_mp_rank_00_optim_states.blob"
        assert paths.optim_dir.name == "global_step250"

    def test_step_from_manifest_for_merged_dirs(self, tmp_path):
        d = tmp_path / "merged-output"
        d.mkdir()
        paths = CheckpointPaths(d)
        with pytest.raises(CheckpointError):
            _ = paths.step
        with paths.rewrite(77, 1) as tx:  # the one way to publish a manifest
            tx.shard(0).write_bytes(b"")
            tx.publish(model_config="m", strategy="merged", slots=["a"], all_slots=["a"])
        assert paths.step == CheckpointPaths(d).step == 77
        assert paths.optim_dir.name == "global_step77"

    def test_list_checkpoint_steps_sorted(self, tmp_path):
        for s in (300, 100, 200):
            (tmp_path / f"checkpoint-{s}").mkdir()
        (tmp_path / "not-a-checkpoint").mkdir()
        assert list_checkpoint_steps(tmp_path) == [100, 200, 300]

    def test_latest_pointer_roundtrip(self, tmp_path):
        (tmp_path / "checkpoint-40").mkdir()
        write_latest(tmp_path, 40)
        assert read_latest(tmp_path).step == 40

    def test_latest_pointing_nowhere_raises(self, tmp_path):
        (tmp_path / "latest").write_text("checkpoint-999\n")
        with pytest.raises(CheckpointError):
            read_latest(tmp_path)

    def test_no_latest_returns_none(self, tmp_path):
        assert read_latest(tmp_path) is None


class TestStorageCostModel:
    def test_write_time_components(self):
        m = StorageCostModel(write_bandwidth=1e9, file_latency=0.01, concurrent_writers=8)
        # 1 GB over 1 file: 1s bandwidth + 0.01s latency.
        assert m.write_time(1e9, files=1) == pytest.approx(1.01)
        # 8 files in parallel amortize latency.
        assert m.write_time(1e9, files=8, parallel=8) == pytest.approx(1.01)

    def test_read_time_with_decompression(self):
        m = StorageCostModel(read_bandwidth=2e9, decompress_bandwidth=1e9, file_latency=0.0)
        plain = m.read_time(1e9, files=1)
        with_dc = m.read_time(1e9, files=1, decompress=True)
        assert with_dc == pytest.approx(plain + 1.0)

    def test_storage_charges_clock_and_stats(self, tmp_path):
        st = Storage(tmp_path, cost_model=StorageCostModel(write_bandwidth=1e9, file_latency=0))
        st.charge_write(5e8, category="checkpoint_write.weights")
        st.charge_compute(9.5)
        assert st.clock.total() == pytest.approx(10.0)
        assert st.clock.fraction("checkpoint_write") == pytest.approx(0.05)
        assert st.stats.bytes_written == 5e8


class TestSaveLoad:
    def test_full_checkpoint_roundtrip_bitwise(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        train_steps(model, engine, untied_config, 2)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=10, model=model, config=untied_config, engine=engine,
            trainer_state={"global_step": 10},
        )
        model2, engine2 = make_engine(untied_config, seed=99)
        loaded = load_checkpoint(
            paths, model=model2, config=untied_config, engine=engine2, storage=storage
        )
        assert loaded.step == 10
        a, b = engine.master_state_dict(), engine2.master_state_dict()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        sa, sb = model.state_dict(), model2.state_dict()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k])

    def test_manifest_records_coverage(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=5, model=model, config=untied_config, engine=engine,
            trainer_state={}, slots=["layers.1", "embed_tokens"], strategy="custom",
        )
        manifest = paths.read_manifest()
        assert manifest["complete"] is False
        assert manifest["slots"] == ["embed_tokens", "layers.1"]  # canonical order
        assert manifest["strategy"] == "custom"
        assert manifest["world_size"] == engine.world_size

    def test_partial_weight_file_only_has_saved_slots(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=5, model=model, config=untied_config, engine=engine,
            trainer_state={}, slots=["layers.0"],
        )
        tf = TensorFile(paths.weights)
        assert all(n.startswith("model.layers.0.") for n in tf.names)

    def test_partial_is_smaller_than_full(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        full = save_checkpoint(
            storage, step=1, model=model, config=untied_config, engine=engine, trainer_state={}
        )
        half_slots = model_slots(untied_config)[: len(model_slots(untied_config)) // 2]
        partial = save_checkpoint(
            storage, step=2, model=model, config=untied_config, engine=engine,
            trainer_state={}, slots=half_slots,
        )
        assert partial.nbytes() < 0.8 * full.nbytes()

    def test_unknown_slot_rejected(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        with pytest.raises(CheckpointError, match="unknown slots"):
            save_checkpoint(
                storage, step=1, model=model, config=untied_config, engine=engine,
                trainer_state={}, slots=["layers.999"],
            )

    def test_zero_slots_rejected(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        with pytest.raises(CheckpointError, match="zero slots"):
            save_checkpoint(
                storage, step=1, model=model, config=untied_config, engine=engine,
                trainer_state={}, slots=[],
            )

    def test_partial_resume_rejected_with_guidance(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=1, model=model, config=untied_config, engine=engine,
            trainer_state={}, slots=["layers.0"],
        )
        with pytest.raises(CheckpointError, match="LLMTailor"):
            load_checkpoint(paths, model=model, config=untied_config, engine=engine)

    def test_mismatched_world_size_resharded_on_load(self, tmp_path, untied_config):
        """Elastic resume: a ws-2 checkpoint loads into a ws-3 engine.

        (Before the resharder existed this combination was rejected; it
        is now re-partitioned in memory during the load.)
        """
        import numpy as np

        model, engine = make_engine(untied_config, world_size=2)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=1, model=model, config=untied_config, engine=engine, trainer_state={}
        )
        model3, engine3 = make_engine(untied_config, world_size=3, seed=9)
        loaded = load_checkpoint(paths, model=model3, config=untied_config, engine=engine3)
        assert loaded.step == 1
        for name, value in engine.master_state_dict().items():
            np.testing.assert_array_equal(value, engine3.master_state_dict()[name])

    def test_wrong_model_config_rejected(self, tmp_path, untied_config, tied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=1, model=model, config=untied_config, engine=engine, trainer_state={}
        )
        model_t, engine_t = make_engine(tied_config)
        with pytest.raises(CheckpointError, match="written for model"):
            load_checkpoint(paths, model=model_t, config=tied_config, engine=engine_t)

    def test_latest_updated(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        save_checkpoint(storage, step=1, model=model, config=untied_config, engine=engine, trainer_state={})
        save_checkpoint(storage, step=2, model=model, config=untied_config, engine=engine, trainer_state={})
        assert read_latest(tmp_path).step == 2

    def test_describe_checkpoint(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        paths = save_checkpoint(
            storage, step=3, model=model, config=untied_config, engine=engine, trainer_state={}
        )
        info = describe_checkpoint(paths.dir)
        assert info["step"] == 3
        assert info["complete"] is True
        assert info["num_shards"] == engine.world_size
        assert info["total_nbytes"] > info["weight_nbytes"]

    def test_simulated_write_charges_by_category(self, tmp_path, untied_config):
        model, engine = make_engine(untied_config)
        storage = Storage(tmp_path)
        save_checkpoint(storage, step=1, model=model, config=untied_config, engine=engine, trainer_state={})
        cats = storage.clock.by_category
        assert "checkpoint_write.weights" in cats
        assert "checkpoint_write.optimizer" in cats
        assert "checkpoint_write.config" in cats
