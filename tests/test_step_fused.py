"""Invariance suite for the fused zero-allocation training hot path.

The fused pipeline (persistent master/grad buffers, view shards, in-place
AdamW, vectorized re-quantize) must be *bitwise* indistinguishable from
the reference allocate-per-step implementation it replaced (kept as the
``ReferenceZeroEngine`` oracle in ``conftest.py``) — losses,
masters, and moments — across world sizes, with and without a scheduler,
and through steps that skip parameter groups.  A tracemalloc bound pins
the "zero-allocation" claim: per-step allocations must not scale with the
number of steps taken.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.groups import tailored_param_groups
from repro.dist import SimComm, ZeroStage3Engine
from repro.dist.partition import GroupPartition
from repro.nn import Parameter, build_model
from repro.numerics import DType, quantize
from repro.optim import AdamW
from repro.optim.lr_scheduler import WarmupCosine
from repro.util.errors import DistError

from conftest import ReferenceZeroEngine, dry_comm_stats, make_engine, train_steps


def _engine_pair(config, world_size, *, lr=1e-3, seed=1):
    """Same-seed (model, engine) twins: the engine and the reference oracle."""
    mf = build_model(config, seed=seed)
    ef = ZeroStage3Engine(
        mf, config, tailored_param_groups(mf, config, 0.01),
        world_size=world_size, lr=lr,
    )
    mr = build_model(config, seed=seed)
    er = ReferenceZeroEngine(
        mr, config, tailored_param_groups(mr, config, 0.01),
        world_size=world_size, lr=lr,
    )
    return (mf, ef), (mr, er)


def _assert_engines_bitwise_equal(ef, er):
    a, b = ef.master_state_dict(), er.master_state_dict()
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)
    for rank in range(ef.world_size):
        sa, sb = ef.rank_state_dict(rank), er.rank_state_dict(rank)
        for g in sa["state"]:
            assert sa["state"][g]["step"] == sb["state"][g]["step"]
            for key in ("exp_avg", "exp_avg_sq"):
                np.testing.assert_array_equal(
                    sa["state"][g][key], sb["state"][g][key],
                    err_msg=f"rank {rank} group {g} {key}",
                )
        for g in sa["fp32_flat_groups"]:
            np.testing.assert_array_equal(
                sa["fp32_flat_groups"][g], sb["fp32_flat_groups"][g]
            )


class TestFusedMatchesReference:
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    @pytest.mark.parametrize("with_scheduler", [False, True])
    def test_bitwise_identical_training(self, untied_config, world_size, with_scheduler):
        (mf, ef), (mr, er) = _engine_pair(untied_config, world_size)
        scheds = []
        if with_scheduler:
            scheds = [
                WarmupCosine(e.reference_optimizer, warmup_steps=2, total_steps=8)
                for e in (ef, er)
            ]
        data_rng = np.random.default_rng(7)
        ids = data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
        labels = np.roll(ids, -1, axis=1)
        for _ in range(6):
            losses = []
            for model, engine in ((mf, ef), (mr, er)):
                engine.zero_grad()
                loss = model.loss(ids, labels)
                loss.backward()
                engine.step()
                losses.append(loss.item())
            for sched in scheds:
                sched.step()
            assert losses[0] == losses[1]  # bitwise: float equality
        _assert_engines_bitwise_equal(ef, er)

    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_skipped_group_steps(self, untied_config, world_size):
        """Steps that touch only some groups leave the rest untouched,
        identically in both modes — including the step *after* a skip
        (no stale gradient may survive)."""
        (mf, ef), (mr, er) = _engine_pair(untied_config, world_size)
        rng = np.random.default_rng(3)
        grads = {}  # deterministic fake grads shared by both engines

        def partial_step(engine, touched_groups):
            engine.zero_grad()
            for g in touched_groups:
                for i, p in enumerate(engine._params[g]):
                    key = (g, i)
                    if key not in grads:
                        grads[key] = rng.standard_normal(p.data.shape).astype(np.float32)
                    p.grad = grads[key].copy()
            engine.step()

        n_groups = len(ef.group_meta)
        patterns = [
            list(range(n_groups)),          # full step
            [0, 1],                          # only two groups
            [],                              # nothing (no-op step)
            [n_groups - 1],                  # just the tail group
            list(range(0, n_groups, 2)),     # every other group
            list(range(n_groups)),           # full again after skips
        ]
        for touched in patterns:
            partial_step(ef, touched)
            partial_step(er, touched)
        _assert_engines_bitwise_equal(ef, er)

    def test_mixed_none_grads_within_group(self, untied_config):
        """A group where only some parameters carry grads zero-fills the
        rest — fused (persistent buffer) and reference (fresh zeros) must
        agree even when the buffer held older values."""
        (mf, ef), (mr, er) = _engine_pair(untied_config, 2)
        rng = np.random.default_rng(11)
        # Step 1: every param of group 1 has a grad (dirties the buffer).
        for engine in (ef, er):
            engine.zero_grad()
        g1_shapes = [p.data.shape for p in ef._params[1]]
        step1 = [rng.standard_normal(s).astype(np.float32) for s in g1_shapes]
        step2_first = rng.standard_normal(g1_shapes[0]).astype(np.float32)
        for engine in (ef, er):
            for p, g in zip(engine._params[1], step1):
                p.grad = g.copy()
            engine.step()
            engine.zero_grad()
            # Step 2: only the first param has a grad.
            engine._params[1][0].grad = step2_first.copy()
            engine.step()
        _assert_engines_bitwise_equal(ef, er)


class TestFusedInternals:
    def test_shards_are_views_into_master_buffer(self, untied_config):
        _, engine = make_engine(untied_config, world_size=2)
        for g, meta in enumerate(engine.group_meta):
            buf = engine._master_bufs[g]
            for rank, tensor in enumerate(engine._shard_params[g]):
                start, stop = meta.partition.bounds(rank)
                assert np.shares_memory(tensor.data, buf[start:stop])

    def test_rank_state_dict_copies_shard_views(self, untied_config):
        """Copy-on-save: a saved payload must not change when training
        continues (shards are views into the live master buffer)."""
        model, engine = make_engine(untied_config, world_size=2)
        train_steps(model, engine, untied_config, 1)
        payload = engine.rank_state_dict(0)
        frozen = {g: arr.copy() for g, arr in payload["fp32_flat_groups"].items()}
        train_steps(model, engine, untied_config, 2)
        for g, arr in payload["fp32_flat_groups"].items():
            np.testing.assert_array_equal(arr, frozen[g])
            assert not np.array_equal(arr, engine._shard_params[g][0].data)

    def test_gathered_master_is_view(self, untied_config):
        _, engine = make_engine(untied_config, world_size=2)
        master = engine._gathered_master(0)
        assert np.shares_memory(master, engine._master_bufs[0])

    def test_per_step_allocations_do_not_scale_with_steps(self, untied_config):
        """Zero-allocation claim: heap growth over 3N steps stays within
        noise of heap growth over N steps (no step-proportional leak),
        and the traced peak is bounded by transient temporaries."""
        model, engine = make_engine(untied_config, world_size=2)
        train_steps(model, engine, untied_config, 3)  # warm every buffer

        def measure(n):
            tracemalloc.start()
            train_steps(model, engine, untied_config, n)
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return current, peak

        current_small, peak_small = measure(2)
        current_large, peak_large = measure(6)
        # Retained heap after the runs must not grow with step count.
        assert current_large < max(4 * abs(current_small), 64 * 1024), (
            current_small, current_large,
        )
        # Peak transient usage is per-step, not per-run.
        assert peak_large < 1.5 * peak_small + 256 * 1024, (peak_small, peak_large)


class TestBiasCorrectionCache:
    def test_cached_pow_bitwise_equals_closed_form(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        opt = AdamW([p], lr=1e-3, betas=(0.9, 0.999))
        for t in range(1, 2000):
            assert opt._beta_pow(0.9, t) == 0.9**t
            assert opt._beta_pow(0.999, t) == 0.999**t
            # Second lookup hits the cache and must return the same bits.
            assert opt._beta_pow(0.9, t) == 0.9**t

    def test_incremental_product_would_diverge(self):
        """Documents WHY the cache recomputes the closed form: a running
        ``bias *= beta`` product leaves the closed form's bit pattern
        within a handful of steps, which would change every loss in the
        trajectory.  If this ever starts passing, the incremental scheme
        becomes admissible — until then it is not."""
        for beta in (0.9, 0.999):
            product, diverged = 1.0, False
            for t in range(1, 50):
                product *= beta
                if product != beta**t:
                    diverged = True
                    break
            assert diverged, f"incremental product unexpectedly exact for beta={beta}"

    def test_states_at_different_steps(self):
        """Cache must not leak a stale pow across states whose step
        counters disagree (e.g. after loading a partial checkpoint)."""
        p1, p2 = Parameter(np.zeros(2, np.float32)), Parameter(np.zeros(2, np.float32))
        opt = AdamW([p1, p2], lr=1e-2)
        p1.grad = np.ones(2, np.float32)
        opt.step()  # p1 at step 1, p2 never stepped
        p1.grad = np.ones(2, np.float32)
        p2.grad = np.ones(2, np.float32)
        opt.step()  # p1 at step 2, p2 at step 1 — both in one pass
        assert opt.state[id(p1)]["step"] == 2
        assert opt.state[id(p2)]["step"] == 1
        # Cross-check against an unfused optimizer driven identically.
        q1, q2 = Parameter(np.zeros(2, np.float32)), Parameter(np.zeros(2, np.float32))
        ref = AdamW([q1, q2], lr=1e-2, fused=False)
        q1.grad = np.ones(2, np.float32)
        ref.step()
        q1.grad = np.ones(2, np.float32)
        q2.grad = np.ones(2, np.float32)
        ref.step()
        np.testing.assert_array_equal(p1.data, q1.data)
        np.testing.assert_array_equal(p2.data, q2.data)


class TestBufferDonatingPrimitives:
    def test_quantize_out_matches_allocating(self, rng):
        x = rng.standard_normal(257).astype(np.float32)
        for dtype in (DType.BF16, DType.FP16, DType.FP32):
            out = np.empty(257, dtype=np.float32)
            result = quantize(x, dtype, out=out)
            assert result is out
            np.testing.assert_array_equal(out, quantize(x, dtype))

    def test_quantize_out_accepts_non_contiguous_buffers(self, rng):
        """Writes must land in the caller's buffer even when a reshape of
        ``out`` would be a copy (non-contiguous out with a different
        shape) — a silent-discard regression caught in review."""
        x = rng.standard_normal(6).astype(np.float32)
        for dtype in (DType.BF16, DType.FP16, DType.FP32):
            backing = np.zeros((3, 4), dtype=np.float32)
            out = backing[:, :2]  # non-contiguous, shape (3, 2), size 6
            result = quantize(x, dtype, out=out)
            assert result is out
            np.testing.assert_array_equal(
                out.reshape(-1), quantize(x, dtype).reshape(-1)
            )

    def test_quantize_out_may_alias_input(self, rng):
        x = rng.standard_normal(64).astype(np.float32)
        expected = quantize(x, DType.BF16)
        result = quantize(x, DType.BF16, out=x)
        assert result is x
        np.testing.assert_array_equal(x, expected)

    def test_pad_out_reuses_buffer_and_rezeroes_tail(self, rng):
        part = GroupPartition(numel=10, world_size=4)
        buf = np.full(part.padded_numel, 7.0, dtype=np.float32)
        flat = rng.standard_normal(10).astype(np.float32)
        out = part.pad(flat, out=buf)
        assert out is buf
        np.testing.assert_array_equal(buf, part.pad(flat))
        assert (buf[10:] == 0).all()

    def test_shard_views_share_memory_and_roundtrip(self, rng):
        part = GroupPartition(numel=13, world_size=4)
        padded = part.pad(rng.standard_normal(13).astype(np.float32))
        views = part.shard_views(padded)
        assert all(np.shares_memory(v, padded) for v in views)
        np.testing.assert_array_equal(np.concatenate(views), padded)
        with pytest.raises(Exception):
            part.shard_views(padded[:-1])

    def test_reduce_scatter_into_matches_allocating(self, rng):
        comm_a, comm_b = SimComm(4), SimComm(4)
        bufs = [rng.standard_normal(8).astype(np.float32) for _ in range(4)]
        expected = comm_a.reduce_scatter_mean([b.copy() for b in bufs])
        out = np.empty(8, dtype=np.float32)
        views = comm_b.reduce_scatter_mean_into([b.copy() for b in bufs], out=out)
        for exp, view in zip(expected, views):
            np.testing.assert_array_equal(exp, view)
            assert np.shares_memory(view, out)
        assert comm_a.stats.bytes_by_op == comm_b.stats.bytes_by_op

    def test_reduce_scatter_into_identity_aliases_input(self):
        comm = SimComm(2)
        buf = np.arange(8, dtype=np.float32)
        views = comm.reduce_scatter_mean_into([buf, buf], out=buf)
        np.testing.assert_array_equal(views[0], np.arange(4, dtype=np.float32))
        assert np.shares_memory(views[1], buf)

    def test_all_gather_into_matches_allocating_and_skips_in_place(self):
        comm_a, comm_b = SimComm(3), SimComm(3)
        big = np.arange(12, dtype=np.float32)
        shards = [big[i * 4 : (i + 1) * 4] for i in range(3)]
        expected = comm_a.all_gather(shards)
        result = comm_b.all_gather_into(shards, out=big)
        assert result is big
        np.testing.assert_array_equal(result, expected)
        assert comm_a.stats.bytes_by_op == comm_b.stats.bytes_by_op
        # Foreign shards are copied into place.
        out = np.zeros(12, dtype=np.float32)
        np.testing.assert_array_equal(
            comm_b.all_gather_into(shards, out=out), expected
        )

    def test_into_variants_validate_like_the_originals(self):
        comm = SimComm(2)
        with pytest.raises(DistError):
            comm.reduce_scatter_mean_into([np.zeros(3), np.zeros(3)], out=np.zeros(3))
        with pytest.raises(DistError):
            comm.reduce_scatter_mean_into(
                [np.zeros(4), np.zeros(4)], out=np.zeros(2, dtype=np.float32)
            )
        with pytest.raises(DistError):
            comm.all_gather_into([np.zeros(2), np.zeros(2)], out=np.zeros(3))


class TestFusedEngineByteAccounting:
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_fused_and_reference_charge_identical_bytes(self, untied_config, world_size):
        (mf, ef), (mr, er) = _engine_pair(untied_config, world_size)
        train_steps(mf, ef, untied_config, 2)
        train_steps(mr, er, untied_config, 2)
        assert ef.comm.stats.bytes_by_op == er.comm.stats.bytes_by_op
        assert ef.comm.stats.calls_by_op == er.comm.stats.calls_by_op


class TestCommTrafficSurfacing:
    def test_plan_step_traffic_matches_live_engine(self, untied_config):
        from repro.strategies import plan_step_traffic

        model, engine = make_engine(untied_config, world_size=3)
        train_steps(model, engine, untied_config, 4)
        # Equal, not approximately: the planner charges the communicator dry.
        dry = dry_comm_stats(untied_config, 3, 4)
        assert engine.comm.stats.bytes_by_op == dry.bytes_by_op
        assert engine.comm.stats.calls_by_op == dry.calls_by_op
        plan = plan_step_traffic(untied_config, world_size=3)
        one = dry_comm_stats(untied_config, 3, 1).bytes_by_op
        assert plan.reduce_scatter_bytes == one["reduce_scatter"]
        assert plan.all_gather_bytes == one["all_gather"]
        assert plan.num_groups == len(engine.group_meta)
        assert plan.padded_numel == sum(m.partition.padded_numel for m in engine.group_meta)

    def test_plan_step_traffic_zero_at_world_size_one(self, untied_config):
        from repro.strategies import plan_step_traffic

        plan = plan_step_traffic(untied_config, world_size=1)
        assert plan.total_bytes == 0.0
        assert plan.padded_numel > 0

    def test_train_result_carries_comm_traffic(self, trained_run):
        _, result, _ = trained_run
        bytes_by_op = result.comm_traffic["bytes_by_op"]
        assert bytes_by_op["reduce_scatter"] > 0
        assert bytes_by_op["all_gather"] > 0
        assert result.comm_traffic["calls_by_op"]["reduce_scatter"] > 0

    def test_log_history_carries_cumulative_comm_bytes(self, trained_run):
        trainer, _, _ = trained_run
        entries = [e for e in trainer.state.log_history if "comm_bytes" in e]
        assert entries, "logged steps should carry comm_bytes"
        values = [e["comm_bytes"] for e in entries]
        assert values == sorted(values)  # cumulative, monotone
        assert values[-1] > 0
