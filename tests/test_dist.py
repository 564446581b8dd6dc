"""Simulated communicator, shard math, and the ZeRO-3 engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import tailored_param_groups
from repro.dist import GroupPartition, SimComm, ZeroStage3Engine, flatten_arrays, unflatten_array
from repro.nn import build_model
from repro.util.errors import CheckpointError, DistError, ShapeError

from conftest import make_engine, train_steps


class TestSimComm:
    def test_all_reduce_mean(self):
        comm = SimComm(3)
        bufs = [np.full(4, float(i)) for i in range(3)]
        np.testing.assert_allclose(comm.all_reduce_mean(bufs), np.full(4, 1.0))

    def test_reduce_scatter_slices(self):
        comm = SimComm(2)
        bufs = [np.arange(8.0), np.arange(8.0) + 2]
        shards = comm.reduce_scatter_mean(bufs)
        np.testing.assert_allclose(shards[0], np.arange(4.0) + 1)
        np.testing.assert_allclose(shards[1], np.arange(4.0, 8.0) + 1)

    def test_all_gather_concatenates(self):
        comm = SimComm(2)
        out = comm.all_gather([np.zeros(3), np.ones(3)])
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 1, 1])

    def test_broadcast_copies(self):
        comm = SimComm(3)
        src = np.arange(4.0)
        out = comm.broadcast(src, root=0)
        assert len(out) == 3
        out[1][0] = 99
        assert src[0] == 0  # copies, not views

    def test_byte_accounting_ring_model(self):
        comm = SimComm(4)
        buf = np.zeros(128, dtype=np.float32)  # 512 bytes
        comm.all_reduce_mean([buf] * 4)
        assert comm.stats.bytes_by_op["all_reduce"] == pytest.approx(2 * 0.75 * 512)
        comm.reduce_scatter_mean([buf] * 4)
        assert comm.stats.bytes_by_op["reduce_scatter"] == pytest.approx(0.75 * 512)

    def test_single_rank_moves_zero_ring_bytes(self):
        comm = SimComm(1)
        comm.all_gather([np.zeros(4)])
        assert comm.stats.total_bytes() == 0.0

    def test_shape_and_count_validation(self):
        comm = SimComm(2)
        with pytest.raises(DistError):
            comm.all_reduce_mean([np.zeros(2)])
        with pytest.raises(DistError):
            comm.all_reduce_mean([np.zeros(2), np.zeros(3)])
        with pytest.raises(DistError):
            comm.reduce_scatter_mean([np.zeros(3), np.zeros(3)])  # not divisible
        with pytest.raises(DistError):
            comm.broadcast(np.zeros(1), root=5)
        with pytest.raises(DistError):
            SimComm(0)

    def test_mean_refuses_non_floating_buffers(self):
        """One typed refusal from every mean-reducing collective (the
        allocating reduce-scatter used to promote int32 to float32
        silently, its ``_into`` twin leaked numpy's ``UFuncTypeError``);
        collectives that only move data accept any dtype."""
        comm = SimComm(2)
        ints = [np.arange(4, dtype=np.int32), np.arange(4, dtype=np.int32)]
        for reduce in (
            comm.all_reduce_mean,
            comm.reduce_scatter_mean,
            lambda bufs: comm.reduce_scatter_mean_into(bufs, out=np.zeros(4, dtype=np.int32)),
        ):
            with pytest.raises(DistError, match="int32"):
                reduce(ints)
        assert comm.stats.total_bytes() == 0.0  # refused before anything is charged
        assert comm.all_gather(ints).dtype == np.int32
        assert comm.all_gather_into(ints, out=np.zeros(8, dtype=np.int32)).dtype == np.int32
        assert comm.broadcast(ints[0])[1].dtype == np.int32


class TestPartition:
    def test_padding_math(self):
        part = GroupPartition(numel=10, world_size=4)
        assert part.padded_numel == 12
        assert part.shard_numel == 3
        assert part.padding == 2
        assert part.bounds(3) == (9, 12)

    def test_zero_numel(self):
        part = GroupPartition(0, 4)
        assert part.padded_numel == 0 and part.shard_numel == 0

    def test_shards_gather_roundtrip(self, rng):
        part = GroupPartition(numel=13, world_size=4)
        flat = rng.standard_normal(13).astype(np.float32)
        shards = part.shards(flat)
        assert all(s.size == part.shard_numel for s in shards)
        np.testing.assert_array_equal(part.gather(shards), flat)

    def test_bad_rank_and_shapes(self):
        part = GroupPartition(10, 2)
        with pytest.raises(DistError):
            part.bounds(2)
        with pytest.raises(ShapeError):
            part.pad(np.zeros(5))
        with pytest.raises(DistError):
            part.gather([np.zeros(5)])

    @settings(max_examples=60, deadline=None)
    @given(numel=st.integers(0, 300), world=st.integers(1, 9))
    def test_property_roundtrip_any_sizes(self, numel, world):
        """gather(shards(x)) == x for every (numel, world_size)."""
        part = GroupPartition(numel, world)
        flat = np.arange(numel, dtype=np.float32)
        np.testing.assert_array_equal(part.gather(part.shards(flat)), flat)
        assert part.padded_numel % world == 0
        assert 0 <= part.padding < max(world, 1)

    def test_flatten_unflatten(self, rng):
        arrays = [rng.standard_normal(s).astype(np.float32) for s in [(2, 3), (4,), (1, 1, 2)]]
        flat = flatten_arrays(arrays)
        assert flat.shape == (12,)
        back = unflatten_array(flat, [a.shape for a in arrays])
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_unflatten_length_checked(self):
        with pytest.raises(ShapeError):
            unflatten_array(np.zeros(5, dtype=np.float32), [(2, 2)])
        with pytest.raises(ShapeError):
            unflatten_array(np.zeros(3, dtype=np.float32), [(2, 2)])


class TestZeroEngine:
    def test_master_matches_model_at_init_up_to_bf16(self, untied_config):
        model, engine = make_engine(untied_config)
        from repro.numerics import DType, quantize

        master = engine.master_state_dict()
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, quantize(master[name], DType.BF16))

    def test_world_size_one_works(self, untied_config):
        model, engine = make_engine(untied_config, world_size=1)
        losses = train_steps(model, engine, untied_config, 3)
        assert losses[-1] < losses[0]

    def test_loss_decreases_multi_rank(self, untied_config):
        model, engine = make_engine(untied_config, world_size=4)
        losses = train_steps(model, engine, untied_config, 5)
        assert losses[-1] < losses[0]

    def test_world_size_invariance_of_training(self, untied_config):
        """Sharding must not change the math: ws=1 and ws=4 agree."""
        m1, e1 = make_engine(untied_config, world_size=1)
        m4, e4 = make_engine(untied_config, world_size=4)
        l1 = train_steps(m1, e1, untied_config, 3)
        l4 = train_steps(m4, e4, untied_config, 3)
        np.testing.assert_allclose(l1, l4, rtol=1e-4)
        a, b = e1.master_state_dict(), e4.master_state_dict()
        for k in a:
            np.testing.assert_allclose(a[k], b[k], atol=1e-6)

    def test_rank_state_roundtrip_bitwise(self, engine_pair, untied_config):
        model, engine = engine_pair
        train_steps(model, engine, untied_config, 2)
        before = engine.master_state_dict()
        states = [engine.rank_state_dict(r) for r in range(engine.world_size)]
        # Perturb, then restore.
        train_steps(model, engine, untied_config, 1)
        for r, st in enumerate(states):
            engine.load_rank_state_dict(r, st)
        after = engine.master_state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_partial_state_dict_filters_groups(self, engine_pair, untied_config):
        _, engine = engine_pair
        partial = engine.rank_state_dict(0, slots={"layers.0", "norm"})
        slots = {h["slot"] for h in partial["groups"]}
        assert slots == {"layers.0", "norm"}
        assert len(partial["groups"]) == 3  # norm:1 + layer:2

    def test_load_rejects_partial_by_default(self, engine_pair):
        _, engine = engine_pair
        partial = engine.rank_state_dict(0, slots={"layers.0"})
        with pytest.raises(CheckpointError, match="missing groups"):
            engine.load_rank_state_dict(0, partial)

    def test_load_validates_world_size_and_rank(self, engine_pair, untied_config):
        model, engine = engine_pair
        st = engine.rank_state_dict(0)
        _, other = make_engine(untied_config, world_size=3)
        with pytest.raises(CheckpointError):
            other.load_rank_state_dict(0, st)
        with pytest.raises(CheckpointError):
            engine.load_rank_state_dict(1, st)

    def test_load_validates_group_identity(self, engine_pair):
        _, engine = engine_pair
        st = engine.rank_state_dict(0)
        st["groups"][0]["param_names"] = ["something.else"]
        with pytest.raises(CheckpointError, match="parameter names differ"):
            engine.load_rank_state_dict(0, st)

    def test_scheduler_lr_mirrored_across_ranks(self, engine_pair, untied_config):
        model, engine = engine_pair
        engine.reference_optimizer.param_groups[0]["lr"] = 0.123
        train_steps(model, engine, untied_config, 1)
        for opt in engine.optimizers:
            assert opt.param_groups[0]["lr"] == 0.123

    def test_groups_follow_tailored_layout(self, untied_config):
        model = build_model(untied_config, seed=0)
        groups = tailored_param_groups(model, untied_config, 0.01)
        engine = ZeroStage3Engine(model, untied_config, groups, world_size=2)
        assert len(engine.group_meta) == untied_config.num_param_groups_tailored
        assert engine.group_meta[0].slot == "norm"
        assert engine.group_meta[0].weight_decay == 0.0
