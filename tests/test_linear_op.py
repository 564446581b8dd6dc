"""``F.linear``: one graph node per ``Linear``, bitwise the composition it replaced.

``Linear.forward`` used to build two nodes, a transpose of the weight and a
matmul over that transposed view.  ``repro.autograd.functional.linear`` is
one node that multiplies by a C-contiguous copy of ``W.T`` and runs the same
VJP arithmetic.  The composition survives here only as the oracle: values,
both gradients, a trainer's losses, masters and moments must equal it bit
for bit.

The shapes are the training shapes (hidden 64, MLP 176, key/value 32, 48
rows per product).  BLAS may take another kernel for a transposed operand
below a few dozen rows, so a much shorter sequence is not held to the
oracle's bits.  CI runs this module once more with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, linear
from repro.autograd.tensor import _toposort
from repro.nn import CausalLM, Linear, build_model
from repro.train import TrainConfig, Trainer


def _composition(self, x):
    """``Linear.forward`` before the fused op: a transpose node, then a matmul."""
    out = x @ self.weight.transpose(1, 0)
    if self.bias is not None:
        out = out + self.bias
    return out


def _affine(x, w, b, fused):
    out = linear(x, w) if fused else x @ w.transpose(1, 0)
    return out if b is None else out + b


def _assert_same_bits(a, b, what):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


class TestLinearMatchesComposition:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (48,), (2, 48), (2, 2, 48)], ids=["1d", "2d", "3d", "4d"])
    @pytest.mark.parametrize("out_features", [176, 64, 32])
    @pytest.mark.parametrize("bias", [False, True])
    def test_value_and_grads_bitwise(self, dtype, lead, out_features, bias):
        """Two backward passes accumulate into one ``W.grad``, as the
        trainer's micro-batch loop does; every value and gradient equals
        the composition's."""
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal(lead + (64,)).astype(dtype) for _ in range(2)]
        w0 = rng.standard_normal((out_features, 64)).astype(dtype)
        b0 = rng.standard_normal(out_features).astype(dtype)
        runs = []
        for fused in (False, True):
            w = Tensor(w0, requires_grad=True)
            b = Tensor(b0, requires_grad=True) if bias else None
            outs, grads = [], []
            for x0 in xs:
                x = Tensor(x0, requires_grad=True)
                out = _affine(x, w, b, fused)
                (out * out).sum().backward()
                outs.append(out.data)
                grads.append(x.grad)
            runs.append((outs, grads, w.grad, None if b is None else b.grad))
        (o0, gx0, gw0, gb0), (o1, gx1, gw1, gb1) = runs
        for i in range(2):
            _assert_same_bits(o0[i], o1[i], f"value {i}")
            _assert_same_bits(gx0[i], gx1[i], f"x.grad {i}")
        _assert_same_bits(gw0, gw1, "W.grad")
        if bias:
            _assert_same_bits(gb0, gb1, "b.grad")
        assert gw1.flags.c_contiguous  # fresh=False: the first accumulation copied it

    def test_weight_grad_never_aliases_the_vjp_result(self):
        """The VJP's weight gradient is a transposed view; ``fresh=False``
        makes the first accumulation copy it, so ``W.grad`` owns its
        C-contiguous buffer."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 48, 64)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((176, 64)).astype(np.float32), requires_grad=True)
        linear(x, w).sum().backward()
        assert w.grad.flags.c_contiguous and w.grad.flags.owndata

    def test_frozen_operands_get_no_grad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 8)))
        linear(x, w).sum().backward()
        assert x.grad is not None and w.grad is None
        x2 = Tensor(rng.standard_normal((4, 8)))
        w2 = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        linear(x2, w2).sum().backward()
        assert x2.grad is None and w2.grad.shape == (3, 8)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3), (2, 2, 3)])
    def test_gradcheck_float64(self, lead):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(lead + (6,)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 6)), requires_grad=True, dtype=np.float64)
        check_gradients(lambda t: (linear(t[0], t[1]) ** 2).sum(), [x, w])

    def test_one_forward_builds_112_fewer_nodes(self, monkeypatch):
        """One node per untied ``Linear``: 16 layers x 7 projections."""
        model = build_model("llama3.2-1b-sim", seed=0)
        ids = np.random.default_rng(0).integers(0, 512, size=(2, 48))
        labels = np.roll(ids, -1, axis=1)

        def op_nodes():
            return sum(t._backward is not None for t in _toposort(model.loss(ids, labels)))

        fused = op_nodes()
        monkeypatch.setattr(Linear, "forward", _composition)
        assert (fused, op_nodes()) == (565, 677)

    def test_trainer_matches_composition(self, tmp_path, monkeypatch):
        """A 12-step ws-2 run: losses, fp32 masters and both AdamW moments
        equal the same run built from the composition."""

        def run(tag):
            cfg = TrainConfig(
                model="llama3.2-1b-sim", task="cpt", output_dir=str(tmp_path / tag),
                world_size=2, micro_batch_size=2, grad_accum_steps=1, seq_len=48,
                total_steps=12, checkpoint_interval=100, warmup_steps=2,
            )
            trainer = Trainer(cfg)
            losses = [trainer.train_step(step) for step in range(1, 13)]
            engine = trainer.engine
            return losses, engine.master_state_dict(), [
                engine.rank_state_dict(r)["state"] for r in range(engine.world_size)
            ]

        fused = run("fused")
        monkeypatch.setattr(Linear, "forward", _composition)
        oracle = run("oracle")
        assert fused[0] == oracle[0]
        assert set(fused[1]) == set(oracle[1])
        for name in fused[1]:
            _assert_same_bits(fused[1][name], oracle[1][name], name)
        for rank, (sf, so) in enumerate(zip(fused[2], oracle[2])):
            assert set(sf) == set(so)
            for g in sf:
                for key in ("exp_avg", "exp_avg_sq"):
                    _assert_same_bits(sf[g][key], so[g][key], f"rank {rank} group {g} {key}")


class TestTiedHeadCanary:
    def test_tied_embedding_grad_matches_composition(self, monkeypatch):
        """The tied head stays ``hidden @ embed_tokens.weight.transpose(1, 0)``.

        The embedding matrix gets two contributions per micro-batch: the
        head's and the lookup's.  As a composition, the head's reaches it
        through a transpose node that the backward runs after the lookup's
        scatter; as one ``F.linear`` node it would arrive first.  One
        micro-batch sums the two either way, but with two micro-batches
        accumulated into one ``.grad`` the float32 sums differ.  So fusing
        the head changes ``embed_tokens.weight.grad``: this test fails, and
        the second half shows that it would.
        """
        ids = np.random.default_rng(5).integers(0, 512, size=(4, 48))
        labels = np.roll(ids, -1, axis=1)

        def embed_grad():
            model = build_model("llama3.2-1b-sim", seed=0)
            for mb in (slice(0, 2), slice(2, 4)):  # two accumulated micro-batches
                model.loss(ids[mb], labels[mb]).backward()
            return model.model.embed_tokens.weight.grad

        current = embed_grad()
        with monkeypatch.context() as patch:
            patch.setattr(Linear, "forward", _composition)
            oracle = embed_grad()
        _assert_same_bits(current, oracle, "embed_tokens.weight.grad")

        def fused_head(self, input_ids):
            hidden = self.model(np.asarray(input_ids), self._rope_cos, self._rope_sin)
            return linear(hidden, self.model.embed_tokens.weight)

        monkeypatch.setattr(CausalLM, "forward", fused_head)
        assert embed_grad().tobytes() != oracle.tobytes()
