"""Gradient and semantics tests for the autograd Tensor primitives."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, cat, check_gradients, no_grad, stack
from repro.util.errors import GradError, ShapeError


def t64(shape, rng, scale=1.0, shift=0.0):
    return Tensor(rng.standard_normal(shape) * scale + shift, requires_grad=True, dtype=np.float64)


class TestForwardSemantics:
    def test_add_matches_numpy(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        out = Tensor(a) + Tensor(b)
        np.testing.assert_allclose(out.data, a + b)

    def test_scalar_coercion_both_sides(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose((x + 1).data, [2.0, 3.0])
        np.testing.assert_allclose((1 + x).data, [2.0, 3.0])
        np.testing.assert_allclose((2 - x).data, [1.0, 0.0])
        np.testing.assert_allclose((2 / x).data, [2.0, 1.0])

    def test_matmul_batched(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 6))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-6)

    def test_reshape_transpose_roundtrip(self, rng):
        a = rng.standard_normal((2, 3, 4))
        x = Tensor(a)
        np.testing.assert_array_equal(x.reshape(6, 4).data, a.reshape(6, 4))
        np.testing.assert_array_equal(x.transpose(2, 0, 1).data, a.transpose(2, 0, 1))
        np.testing.assert_array_equal(x.swapaxes(0, 2).data, a.swapaxes(0, 2))

    def test_integer_input_becomes_float(self):
        x = Tensor([1, 2, 3])
        assert x.data.dtype == np.float32

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_repr_and_len(self):
        x = Tensor(np.zeros((3, 2)), name="w")
        assert "w" in repr(x)
        assert len(x) == 3


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(GradError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradError):
            (x * 2).backward()

    def test_explicit_grad_shape_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_reused_node_gradient(self):
        # y = (x*x) used twice: d/dx (x^2 + x^2) = 4x
        x = Tensor([3.0], requires_grad=True)
        sq = x * x
        (sq + sq).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_suppresses_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_detach_breaks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 5
        assert not y.requires_grad


class TestOneBackward:
    """Properties of the one backward, the sweep in ``Tensor.backward``."""

    def test_negative_zero_first_contribution_is_adopted(self):
        """A pre-zeroed accumulator would turn -0.0 into +0.0
        (0.0 + -0.0 == +0.0): the first contribution is adopted, never
        added to a zeroed buffer."""
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * -0.0 + x * -0.0).sum().backward()
        assert np.signbit(x.grad).all()

    def test_accumulation_order_canary(self):
        """float32 accumulation is not associative, so ``x.grad`` pins the
        order contributions arrive in: the sweep reaches ``x * c0`` and
        ``x * c1`` before ``x * c2``, giving ``(c0 + c1) + c2``.  The two
        constant sets tell every pairing apart: the first would read 1.0
        had ``c0`` met ``c2`` first, the second 0.0 had either met ``c2``
        first."""
        for (c0, c1, c2), expected in (((1e8, 1.0, -1e8), 0.0), ((1e8, -1e8, 1.0), 1.0)):
            x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
            (x * c0 + x * c1 + x * c2).sum().backward()
            c = [np.float32(v) for v in (c0, c1, c2)]
            assert (c[0] + c[1]) + c[2] == expected
            np.testing.assert_array_equal(x.grad, np.full(2, expected, dtype=np.float32))

    def test_graph_released_after_backward(self, untied_config):
        """The sweep drops each node once it has run: the loss holds no
        graph afterwards, and a second ``backward()`` reaches no parameter."""
        from repro.nn import build_model

        model = build_model(untied_config, seed=1)
        ids = np.random.default_rng(9).integers(0, untied_config.vocab_size, size=(2, 16))
        loss = model.loss(ids, np.roll(ids, -1, axis=1))
        loss.backward()
        assert loss._prev == () and loss._backward is None
        grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        assert grads
        loss.backward()
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.grad, grads[name], err_msg=name)


class TestGradCheckPrimitives:
    """Every primitive against central finite differences (float64)."""

    def test_add_broadcast(self, rng):
        a = t64((3, 4), rng)
        b = t64((4,), rng)
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(), [a, b])

    def test_mul_broadcast(self, rng):
        a = t64((2, 3, 4), rng)
        b = t64((3, 1), rng)
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [a, b])

    def test_sub_div(self, rng):
        a = t64((3, 3), rng)
        b = t64((3, 3), rng, shift=3.0)  # keep denominators away from 0
        check_gradients(lambda ts: (ts[0] - ts[1]).sum(), [a, b])
        check_gradients(lambda ts: (ts[0] / ts[1]).sum(), [a, b])

    def test_neg_pow(self, rng):
        a = t64((4,), rng, shift=2.0)
        check_gradients(lambda ts: (-ts[0]).sum(), [a])
        check_gradients(lambda ts: (ts[0] ** 3).sum(), [a])

    def test_pow_gradient_at_zero(self):
        """d/dx x**0 is 0 everywhere — also at x == 0, where the general
        formula reads 0 * 0**-1 = nan (with two RuntimeWarnings)."""
        g = np.array([2.0, 3.0, 5.0])
        x = Tensor(np.array([0.0, 1.5, -2.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (x ** 0).backward(g)
        np.testing.assert_array_equal(x.grad, np.zeros(3))
        x.grad = None
        (x ** 1).backward(g)
        np.testing.assert_array_equal(x.grad, g)

    def test_matmul_2d(self, rng):
        a = t64((3, 4), rng)
        b = t64((4, 2), rng)
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_matmul_batched_broadcast(self, rng):
        a = t64((2, 3, 4), rng)
        b = t64((4, 5), rng)
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_matmul_vector(self, rng):
        a = t64((3, 4), rng)
        v = t64((4,), rng)
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, v])

    def test_exp_log_sqrt_tanh_sigmoid(self, rng):
        x = t64((5,), rng, scale=0.5, shift=2.0)
        for fn in ["exp", "log", "sqrt", "tanh", "sigmoid"]:
            check_gradients(lambda ts, f=fn: getattr(ts[0], f)().sum(), [x])

    def test_abs_clip_maximum(self, rng):
        x = t64((6,), rng, shift=0.1)
        check_gradients(lambda ts: ts[0].abs().sum(), [x], eps=1e-7)
        check_gradients(lambda ts: ts[0].clip(-0.5, 0.5).sum(), [x])
        check_gradients(lambda ts: ts[0].maximum(0.0).sum(), [x])
        with pytest.raises(GradError, match="scalar"):
            x.maximum(Tensor(np.zeros(6)))

    def test_sum_axes(self, rng):
        x = t64((3, 4, 5), rng)
        check_gradients(lambda ts: ts[0].sum(), [x])
        check_gradients(lambda ts: ts[0].sum(axis=1).sum(), [x])
        check_gradients(lambda ts: ts[0].sum(axis=(0, 2), keepdims=True).sum(), [x])

    def test_mean_var(self, rng):
        x = t64((4, 5), rng)
        check_gradients(lambda ts: ts[0].mean(), [x])
        check_gradients(lambda ts: ts[0].mean(axis=1).sum(), [x])
        check_gradients(lambda ts: ts[0].var(axis=1).sum(), [x])

    def test_reshape_transpose_grads(self, rng):
        x = t64((2, 6), rng)
        check_gradients(lambda ts: (ts[0].reshape(3, 4) * 2).sum(), [x])
        check_gradients(lambda ts: (ts[0].transpose(1, 0) ** 2).sum(), [x])

    def test_getitem_slice(self, rng):
        x = t64((4, 5), rng)
        check_gradients(lambda ts: ts[0][1:3, ::2].sum(), [x])

    def test_getitem_fancy_with_duplicates(self, rng):
        x = t64((5, 3), rng)
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda ts: ts[0][idx].sum(), [x])

    def test_cat_stack(self, rng):
        a, b = t64((2, 3), rng), t64((2, 3), rng)
        check_gradients(lambda ts: cat(ts, axis=0).sum(), [a, b])
        check_gradients(lambda ts: cat(ts, axis=1).sum(), [a, b])
        check_gradients(lambda ts: stack(ts, axis=0).sum(), [a, b])

    def test_cat_empty_rejected(self):
        with pytest.raises(ShapeError):
            cat([])
