"""The backward-tape compiler: bitwise parity, invalidation, canaries.

The contract under test (see ``docs/autograd.md``): a replayed tape is
**bitwise-identical** to the interpreted backward — losses, leaf
gradients, fp32 masters, Adam moments, and re-quantized weights — and
any structural change to the graph invalidates the program instead of
silently producing wrong gradients.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import BackwardTape, TapeStats, Tensor, gelu, no_grad, silu
from repro.autograd.gradcheck import numerical_grad
from repro.core.groups import tailored_param_groups
from repro.dist import ZeroStage3Engine
from repro.nn import build_model, get_config
from repro.optim.lr_scheduler import WarmupCosine
from repro.train import TrainConfig, Trainer
from repro.util.errors import GradError

from conftest import ReferenceZeroEngine, interpreted_oracle


def _taped_pair(config, world_size, *, lr=1e-3, seed=1):
    """Same-seed (model, engine, tape) twins: one compiled into the engine's
    donated buffers, one interpreted (its tape disabled) into the
    allocate-per-step oracle."""
    pair = []
    for compiled in (True, False):
        model = build_model(config, seed=seed)
        engine = (ZeroStage3Engine if compiled else ReferenceZeroEngine)(
            model, config, tailored_param_groups(model, config, 0.01),
            world_size=world_size, lr=lr,
        )
        tape = (
            BackwardTape(donate=engine.grad_donation_views()) if compiled
            else interpreted_oracle(BackwardTape())
        )
        pair.append((model, engine, tape))
    return pair


def _backward(model, tape, ids, labels):
    with tape.capture():
        loss = model.loss(ids, labels)
    loss.backward()
    return loss


def _assert_engines_bitwise_equal(ea, eb):
    a, b = ea.master_state_dict(), eb.master_state_dict()
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)
    for rank in range(ea.world_size):
        sa, sb = ea.rank_state_dict(rank), eb.rank_state_dict(rank)
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


def _assert_models_bitwise_equal(ma, mb):
    sa, sb = ma.state_dict(), mb.state_dict()
    assert set(sa) == set(sb)
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)


class TestCompiledMatchesInterpreted:
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    @pytest.mark.parametrize("with_scheduler", [False, True])
    def test_bitwise_identical_training(self, untied_config, world_size, with_scheduler):
        (mc, ec, tape), (mi, ei, oracle) = _taped_pair(untied_config, world_size)
        scheds = []
        if with_scheduler:
            scheds = [
                WarmupCosine(e.reference_optimizer, warmup_steps=2, total_steps=8)
                for e in (ec, ei)
            ]
        data_rng = np.random.default_rng(7)
        ids = data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
        labels = np.roll(ids, -1, axis=1)
        for _ in range(6):
            losses = []
            for model, engine, t in ((mc, ec, tape), (mi, ei, oracle)):
                engine.zero_grad()
                loss = _backward(model, t, ids, labels)
                engine.step()
                losses.append(loss.item())
            for sched in scheds:
                sched.step()
            assert losses[0] == losses[1]  # bitwise: float equality
        _assert_engines_bitwise_equal(ec, ei)
        _assert_models_bitwise_equal(mc, mi)
        # The whole hot path replays from compiled kernels: one record,
        # every later round a replay, no interpreted-closure fallbacks.
        assert tape.stats.records == 1
        assert tape.stats.replays == 5
        assert tape.stats.kernel_fallbacks == 0
        assert tape.compiled
        assert (oracle.stats.interpreted, oracle.stats.records) == (7, 0)

    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_partial_group_steps_interleaved(self, untied_config, world_size):
        """Taped steps compose with manual partial-group steps: a step
        whose gradients were set by hand (not donated) must behave
        identically, and the taped step after it must re-donate."""
        (mc, ec, tape), (mi, ei, oracle) = _taped_pair(untied_config, world_size)
        rng = np.random.default_rng(3)
        grads = {}

        def partial_step(engine, touched_groups):
            engine.zero_grad()
            for g in touched_groups:
                for i, p in enumerate(engine._params[g]):
                    key = (g, i)
                    if key not in grads:
                        grads[key] = rng.standard_normal(p.data.shape).astype(np.float32)
                    p.grad = grads[key].copy()
            engine.step()

        def taped_step(model, engine, t):
            engine.zero_grad()
            data_rng = np.random.default_rng(11)
            ids = data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
            _backward(model, t, ids, np.roll(ids, -1, axis=1))
            engine.step()

        n_groups = len(ec.group_meta)
        for touched in ([0, 1], [], [n_groups - 1], list(range(0, n_groups, 2))):
            taped_step(mc, ec, tape)
            taped_step(mi, ei, oracle)
            partial_step(ec, touched)
            partial_step(ei, touched)
        taped_step(mc, ec, tape)
        taped_step(mi, ei, oracle)
        _assert_engines_bitwise_equal(ec, ei)

    def test_micro_batch_accumulation(self, untied_config):
        """Multiple capture rounds per step accumulate into the donated
        staging views exactly like interpreted ``+=`` on fresh arrays."""
        (mc, ec, tape), (mi, ei, oracle) = _taped_pair(untied_config, 2)
        data_rng = np.random.default_rng(23)
        batches = [
            data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
            for _ in range(4)
        ]
        for _ in range(3):
            for engine in (ec, ei):
                engine.zero_grad()
            for ids in batches:
                labels = np.roll(ids, -1, axis=1)
                la = _backward(mc, tape, ids, labels)
                lb = _backward(mi, oracle, ids, labels)
                assert la.item() == lb.item()
            for model in (mc, mi):
                for p in model.parameters():
                    if p.grad is not None:
                        p.grad *= 0.25
            ec.step()
            ei.step()
        _assert_engines_bitwise_equal(ec, ei)


class TestDonation:
    def test_views_alias_staging_buffers(self, untied_config):
        model = build_model(untied_config, seed=1)
        engine = ZeroStage3Engine(
            model, untied_config, tailored_param_groups(model, untied_config, 0.01),
            world_size=2, lr=1e-3,
        )
        views = engine.grad_donation_views()
        params = [p for group in engine._params for p in group]
        assert set(views) == {id(p) for p in params}
        for p in params:
            view = views[id(p)]
            assert view.shape == p.data.shape
            assert any(np.shares_memory(view, buf) for buf in engine._grad_bufs)

    def test_taped_backward_lands_in_donated_views(self, untied_config):
        model = build_model(untied_config, seed=1)
        engine = ZeroStage3Engine(
            model, untied_config, tailored_param_groups(model, untied_config, 0.01),
            world_size=2, lr=1e-3,
        )
        views = engine.grad_donation_views()
        tape = BackwardTape(donate=views)
        data_rng = np.random.default_rng(5)
        ids = data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
        labels = np.roll(ids, -1, axis=1)
        for round_i in range(2):  # record round, then replay round
            engine.zero_grad()
            _backward(model, tape, ids, labels)
            if round_i > 0:
                # The record round runs interpreted (fresh grad arrays);
                # every replay round donates straight into the views.
                for p in model.parameters():
                    if p.grad is not None:
                        assert p.grad is views[id(p)]
            engine.step()


class TestTapeLifecycle:
    def _wx_round(self, tape, w, x_data):
        x = Tensor(np.asarray(x_data, dtype=np.float64))
        with tape.capture():
            loss = ((w * x) * (w * x)).sum()
        loss.backward()
        return loss

    def test_shape_change_invalidates_and_rerecords(self):
        w = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        tape = BackwardTape()
        for _ in range(2):
            w.grad = None
            self._wx_round(tape, w, [1.0, 2.0, 3.0, 4.0])
        assert tape.stats.replays == 1
        # Same leaf, different graph shapes mid-run: must re-record.
        w.grad = None
        x = Tensor(np.asarray([1.0, 2.0], dtype=np.float64))
        with tape.capture():
            loss = ((w.reshape((2, 2)) @ x) * (w.reshape((2, 2)) @ x)).sum()
        loss.backward()
        assert tape.stats.invalidations == 1
        assert tape.stats.records == 2
        assert "changed" in tape.stats.last_invalidation
        # Gradient from the re-recorded round matches a fresh interpreted run.
        w_ref = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        loss_ref = ((w_ref.reshape((2, 2)) @ x) * (w_ref.reshape((2, 2)) @ x)).sum()
        loss_ref.backward()
        np.testing.assert_array_equal(w.grad, w_ref.grad)

    def test_param_identity_change_invalidates(self):
        tape = BackwardTape()
        w1 = Tensor(np.ones(4), requires_grad=True)
        self._wx_round(tape, w1, [1.0, 2.0, 3.0, 4.0])
        single_round_grad = w1.grad.copy()
        w1.grad = None
        self._wx_round(tape, w1, [1.0, 2.0, 3.0, 4.0])
        assert tape.stats.replays == 1
        # Same shapes and ops, different leaf object: must not replay
        # against the old parameter.
        w2 = Tensor(np.ones(4), requires_grad=True)
        self._wx_round(tape, w2, [1.0, 2.0, 3.0, 4.0])
        assert tape.stats.invalidations == 1
        assert "leaf parameter" in tape.stats.last_invalidation
        np.testing.assert_array_equal(w2.grad, single_round_grad)

    def test_no_grad_region_invalidates_then_recovers(self):
        w = Tensor(np.ones(4), requires_grad=True)
        tape = BackwardTape()

        def round_(use_no_grad):
            w.grad = None
            x = Tensor(np.asarray([1.0, 2.0, 3.0, 4.0]))
            with tape.capture():
                h = w * x
                if use_no_grad:
                    with no_grad():
                        scale = (h * h).sum()
                    loss = (h * scale.data.item()).sum()
                else:
                    loss = (h * (h * h).sum().data.item()).sum()
            loss.backward()
            return w.grad.copy()

        g0 = round_(False)
        g1 = round_(False)
        np.testing.assert_array_equal(g0, g1)
        # The no_grad region removes nodes from the captured graph: the
        # program must invalidate, and the re-recorded gradient must match
        # an interpreted run of the same (smaller) graph.
        g2 = round_(True)
        assert tape.stats.invalidations == 1
        w_ref = Tensor(np.ones(4), requires_grad=True)
        x = Tensor(np.asarray([1.0, 2.0, 3.0, 4.0]))
        h = w_ref * x
        with no_grad():
            scale = (h * h).sum()
        ((h * scale.data.item()).sum()).backward()
        np.testing.assert_array_equal(g2, w_ref.grad)

    def test_root_outside_capture_disables_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        tape = BackwardTape()
        with tape.capture():
            pass  # nothing recorded
        loss = (w * w).sum()  # built outside the capture window
        loss.backward()
        # A root the round did not capture is none of the tape's business.
        assert tape.stats == TapeStats()
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones(3))
        # A captured root over a graph that reaches outside the capture
        # cannot be bound by creation order: the tape disables itself.
        w.grad = None
        sq = w * w
        with tape.capture():
            loss = sq.sum()
        loss.backward()
        assert tape.stats.disabled_reason is not None
        assert tape.stats.interpreted == 1
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones(3))
        # Disabled tapes keep working — interpreted, still correct.
        w.grad = None
        with tape.capture():
            loss = (w * w).sum()
        loss.backward()
        assert tape.stats.interpreted == 2
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones(3))

    def test_round_is_spent_by_its_first_backward(self):
        """``backward()`` inside the capture block runs the tape too; a
        second ``backward()`` on the same root finds no live round."""
        w = Tensor(np.arange(3.0), requires_grad=True)
        tape = BackwardTape()
        for _ in range(2):
            w.grad = None
            with tape.capture():
                loss = (w * w).sum()
                loss.backward()
            np.testing.assert_array_equal(w.grad, 2.0 * np.arange(3.0))
        assert (tape.stats.records, tape.stats.replays) == (1, 1)
        loss.backward()  # graph already released: seeds the root, reaches nothing
        assert (tape.stats.records, tape.stats.replays) == (1, 1)
        np.testing.assert_array_equal(w.grad, 2.0 * np.arange(3.0))

    def test_nested_capture_raises(self):
        tape = BackwardTape()
        with pytest.raises(GradError, match="nested|active"):
            with tape.capture():
                with tape.capture():
                    pass

    def test_two_tapes_cannot_capture_concurrently(self):
        t1, t2 = BackwardTape(), BackwardTape()
        with pytest.raises(GradError, match="active"):
            with t1.capture():
                with t2.capture():
                    pass

    def test_manual_invalidate(self):
        w = Tensor(np.ones(4), requires_grad=True)
        tape = BackwardTape()
        self._wx_round(tape, w, [1.0, 2.0, 3.0, 4.0])
        assert tape.compiled
        tape.invalidate("because")
        assert not tape.compiled
        assert tape.stats.last_invalidation == "because"
        w.grad = None
        self._wx_round(tape, w, [1.0, 2.0, 3.0, 4.0])
        assert tape.stats.records == 2


class TestBitwiseCanaries:
    def test_reassociation_canary(self):
        """float32 gradient accumulation is order-sensitive: the replay
        must reproduce the interpreted order, not a reassociated one."""
        c0, c1, c2 = np.float32(1e8), np.float32(1.0), np.float32(-1e8)
        # Interpreted accumulation order into x.grad is c2, c1, c0
        # (reverse creation order): (-1e8 + 1) absorbs the 1, then +1e8
        # lands on 0.0.  The tempting reassociation (c2 + c0) + c1 = 1.0.
        assert (c2 + c1) + c0 != (c2 + c0) + c1

        def round_(tape, x):
            x.grad = None
            with tape.capture():
                loss = (x * float(c0) + x * float(c1) + x * float(c2)).sum()
            loss.backward()
            return x.grad.copy()

        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        x_ref = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x_ref * float(c0) + x_ref * float(c1) + x_ref * float(c2)).sum().backward()

        tape = BackwardTape()
        recorded = round_(tape, x)
        replayed = round_(tape, x)
        assert tape.stats.replays == 1
        np.testing.assert_array_equal(recorded, x_ref.grad)
        np.testing.assert_array_equal(replayed, x_ref.grad)
        # And the order genuinely matters on this graph:
        reassociated = (c2 + c0) + c1
        assert replayed[0] != reassociated

    def test_negative_zero_signbit(self):
        """A pre-zeroed accumulator would turn -0.0 into +0.0
        (0.0 + -0.0 == +0.0); adoption of the first contribution keeps
        the interpreted signbit."""
        def round_(tape, x):
            x.grad = None
            with tape.capture():
                loss = (x * (-0.0) + x * (-0.0)).sum()
            loss.backward()
            return x.grad.copy()

        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        tape = BackwardTape()
        recorded = round_(tape, x)
        replayed = round_(tape, x)
        assert tape.stats.replays == 1
        assert np.signbit(recorded).all()
        assert np.signbit(replayed).all()


class TestGradcheckOverReplay:
    def test_replayed_tape_matches_numerical_gradient(self):
        """Through record + replay, for an op that declares scratch
        buffers (silu) and a cold one replayed allocating (gelu)."""
        rng = np.random.default_rng(0)
        w1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        x_data = rng.standard_normal((2, 4))

        # ``sum`` is cold too, hence one allocating entry under silu.
        for activation, allocating in ((silu, 1), (gelu, 2)):
            def forward(params):
                a, b = params
                x = Tensor(x_data)
                return (activation(x @ a) @ b).sum()

            tape = BackwardTape()

            def taped_grads():
                w1.grad = None
                w2.grad = None
                with tape.capture():
                    loss = forward([w1, w2])
                loss.backward()
                return w1.grad.copy(), w2.grad.copy()

            g_rec = taped_grads()
            g_rep = taped_grads()
            assert tape.stats.replays == 1
            assert tape.stats.kernel_fallbacks == allocating
            for a, b in zip(g_rec, g_rep):
                np.testing.assert_array_equal(a, b)
            for idx, g in enumerate(g_rep):
                num = numerical_grad(forward, [w1, w2], idx)
                np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-6,
                                           err_msg=f"{activation.__name__} param {idx}")


class TestReplayAllocations:
    def test_replay_allocates_less_than_interpreted(self, untied_config):
        """The point of the tape: intermediates live in preallocated
        buffers, so a replayed backward allocates far less than the
        interpreted sweep."""
        model = build_model(untied_config, seed=1)
        tape = BackwardTape()
        data_rng = np.random.default_rng(9)
        ids = data_rng.integers(0, untied_config.vocab_size, size=(2, 16))
        labels = np.roll(ids, -1, axis=1)

        def interpreted_backward():
            for p in model.parameters():
                p.grad = None
            loss = model.loss(ids, labels)
            tracemalloc.start()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        def replayed_backward():
            for p in model.parameters():
                p.grad = None
            with tape.capture():
                loss = model.loss(ids, labels)
            tracemalloc.start()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_interp = interpreted_backward()
        replayed_backward()  # record round (compiles, allocates buffers)
        peak_replay = replayed_backward()
        assert tape.stats.replays == 1
        assert peak_replay < peak_interp / 2, (
            f"replay peak {peak_replay} not well under interpreted {peak_interp}"
        )

    def test_record_round_peak_close_to_interpreted(self):
        """The record round lets go of its interpreted gradients before
        the program's buffers are allocated: its forward + backward peak
        stays near the interpreted one instead of holding both."""
        config = get_config("llama3.2-1b-sim")
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 48))
        labels = np.roll(ids, -1, axis=1)

        def round_peak(tape):
            model = build_model(config, seed=1)
            tracemalloc.start()
            with tape.capture():
                loss = model.loss(ids, labels)
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        interpreted = round_peak(interpreted_oracle(BackwardTape()))
        tape = BackwardTape()
        recorded = round_peak(tape)
        assert tape.stats.records == 1
        assert recorded <= 1.2 * interpreted, f"{recorded} vs interpreted {interpreted}"


class TestRegistryCoversTraining:
    @pytest.mark.parametrize("task", ["cpt", "sft"])
    @pytest.mark.parametrize("model", [
        "llama3.2-1b-sim", "llama3.1-8b-sim", "qwen2.5-7b-sim",
        "tiny-untied", "tiny-tied", "tiny-qwen",
    ])
    def test_every_entry_buffered_on_builtin_models(self, tmp_path, model, task):
        """Every op a built-in model's training graph executes declares
        its scratch buffers, and the graph is the same every step."""
        trainer = Trainer(TrainConfig(
            model=model, task=task, total_steps=3, checkpoint_interval=10,
            output_dir=str(tmp_path), world_size=1, micro_batch_size=1,
            grad_accum_steps=1, seq_len=32, log_every=10,
        ))
        trainer.train()
        stats = trainer.tape.stats
        assert (stats.records, stats.replays) == (1, 2)
        assert (stats.kernel_fallbacks, stats.invalidations, stats.interpreted) == (0, 0, 0)
