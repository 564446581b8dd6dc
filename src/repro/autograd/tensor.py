"""Reverse-mode automatic differentiation over NumPy arrays.

A deliberately small tape-based autograd engine — the substrate standing
in for PyTorch.  Tensors wrap ``numpy.ndarray`` data; every differentiable
operation stores an :class:`Op` record (its one VJP, declared with
:func:`defvjp` next to the forward) plus the tuple it saved;
:meth:`Tensor.backward` — the one backward — runs a topological sweep
and accumulates gradients into ``.grad`` (plain NumPy arrays, never
Tensors).

Design choices (following the HPC guides: vectorise, avoid copies):

* All math is NumPy-vectorised; no per-element Python loops anywhere.
* Gradients accumulate with in-place ``+=`` where safe.
* Graph retention is opt-in: with gradients globally disabled (see
  :func:`no_grad`) ops degrade to pure NumPy with zero bookkeeping.
* dtype follows the inputs (float32 for training, float64 for gradient
  checking) — ops never silently downcast.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Iterable, Sequence

import numpy as np

from ..util.errors import GradError, ShapeError

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "cat", "stack"]

_grad_enabled: bool = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction within the block (inference / update)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Whether autograd tape recording is currently on (see :func:`no_grad`)."""
    return _grad_enabled


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind not in "f":
        arr = arr.astype(np.float32)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return arr


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand.

    Whenever ``grad.shape != shape`` at least one reduction runs, so the
    result is a freshly allocated array (the trailing reshape is a view
    of it).
    """
    if grad.shape == shape:
        return grad
    # Sum out leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- the op registry -----------------------------------------------------------

class Op:
    """One differentiable op's backward rule, shared by every node it makes.

    ``vjp(node, g)`` returns one gradient per parent of ``node``
    (``None`` where none flows) from the incoming ``g``, the forward
    result ``node.data``, the operands ``node._prev`` and the tuple the
    forward saved, ``node._saved``.

    ``fresh`` says, per parent (or with one bool for all of them),
    whether that gradient is a newly computed array that the first
    accumulation may adopt, or the incoming ``g`` / a view of it, which
    must be copied.
    """

    __slots__ = ("name", "vjp", "fresh")

    def __init__(self, vjp, fresh) -> None:
        self.name = vjp.__name__.lstrip("_")
        self.vjp = vjp
        self.fresh = fresh if isinstance(fresh, tuple) else itertools.repeat(fresh)

    def __repr__(self) -> str:
        return f"Op({self.name})"


def defvjp(*, fresh: bool | tuple[bool, ...] = True):
    """Declare the decorated function as an op's one VJP (see :class:`Op`)."""
    return lambda vjp: Op(vjp, fresh)


class Tensor:
    """A NumPy array plus an optional autograd tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_saved", "_prev", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        dtype=None,
        name: str | None = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Op | None = None
        self._saved: tuple = ()
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """The array shape tuple."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """The underlying NumPy dtype."""
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The raw ``np.ndarray`` backing this tensor (no copy, no graph)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _item_err(self)

    def detach(self) -> "Tensor":
        """A new tensor sharing this data but cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction ---------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        op: Op,
        saved: tuple = (),
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        # Hot path: ops always hand us a float ndarray, so skip __init__'s
        # coercion and build the node directly.
        out = Tensor.__new__(Tensor)
        out.data = (
            data
            if type(data) is np.ndarray and data.dtype.kind == "f"
            else _as_array(data)
        )
        out.grad = None
        out.requires_grad = requires
        out.name = None
        if requires:
            out._backward = op
            out._saved = saved
            out._prev = tuple(parents)
        else:
            out._backward = None
            out._saved = out._prev = ()
        return out

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Accumulate ``g`` into ``self.grad``.

        ``owned=True`` is the op's promise (its ``fresh`` flag) that ``g``
        is a freshly allocated array nobody else references (the
        overwhelmingly common case: ufunc results computed inside the
        VJP), which lets the first accumulation adopt the array instead
        of defensively copying it.  VJPs that pass a *shared* or *view*
        gradient (add/sub reusing the incoming ``g``, reshape/transpose/
        slice views, read-only ``broadcast_to`` results) are not fresh
        and get the copy.  Values are bitwise-unchanged either way.
        """
        if not self.requires_grad:
            return
        data = self.data
        if not isinstance(g, np.ndarray) or g.dtype != data.dtype:
            g = np.asarray(g, dtype=data.dtype)
            owned = True  # the cast allocated a fresh array
        if g.shape != data.shape:
            g = unbroadcast(g, data.shape)
            owned = True
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Seeds ``grad`` (default: ones for a scalar root), then sweeps the
        graph in reverse topological order, releasing each node as it
        runs (see :func:`_sweep`).
        """
        _seed(self, grad)
        _sweep(_toposort(self))

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype)
        )

    @defvjp(fresh=False)
    def _add(node, g):
        return g, g

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(self.data + other.data, (self, other), Tensor._add)

    __radd__ = __add__

    @defvjp()
    def _neg(node, g):
        return (-g,)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), Tensor._neg)

    @defvjp(fresh=(False, True))
    def _sub(node, g):
        return g, -g if node._prev[1].requires_grad else None

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(self.data - other.data, (self, other), Tensor._sub)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    @defvjp()
    def _mul(node, g):
        a, b = node._prev
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(self.data * other.data, (self, other), Tensor._mul)

    __rmul__ = __mul__

    @defvjp()
    def _div(node, g):
        a, b = node._prev
        return g / b.data, -g * a.data / (b.data * b.data)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(self.data / other.data, (self, other), Tensor._div)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    @defvjp()
    def _pow(node, g):
        (exponent,) = node._saved
        if np.ndim(exponent) == 0 and exponent == 0:
            # x**0 is constant, also at x == 0, where the general
            # formula reads 0 * 0**-1 = nan.
            return (np.zeros_like(g),)
        return (g * exponent * node._prev[0].data ** (exponent - 1),)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise GradError("tensor exponents are not supported; use exp/log")
        return Tensor._make(self.data**exponent, (self,), Tensor._pow, (exponent,))

    @defvjp()
    def _matmul(node, g):
        a, b = node._prev
        ga = gb = None
        if a.requires_grad:
            if b.data.ndim == 1:
                ga = np.multiply.outer(g, b.data) if g.ndim else g * b.data
            else:
                ga = g @ b.data.swapaxes(-1, -2)
        if b.requires_grad:
            if a.data.ndim == 1:
                gb = np.multiply.outer(a.data, g)
            else:
                gb = a.data.swapaxes(-1, -2) @ g
        return ga, gb

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(self.data @ other.data, (self, other), Tensor._matmul)

    # -- elementwise functions --------------------------------------------------

    @defvjp()
    def _exp(node, g):
        return (g * node.data,)

    def exp(self) -> "Tensor":
        """Element-wise natural exponential."""
        return Tensor._make(np.exp(self.data), (self,), Tensor._exp)

    @defvjp()
    def _log(node, g):
        return (g / node._prev[0].data,)

    def log(self) -> "Tensor":
        """Element-wise natural logarithm."""
        return Tensor._make(np.log(self.data), (self,), Tensor._log)

    @defvjp()
    def _sqrt(node, g):
        return (g * 0.5 / node.data,)

    def sqrt(self) -> "Tensor":
        """Element-wise square root."""
        return Tensor._make(np.sqrt(self.data), (self,), Tensor._sqrt)

    @defvjp()
    def _tanh(node, g):
        return (g * (1.0 - node.data * node.data),)

    def tanh(self) -> "Tensor":
        """Element-wise hyperbolic tangent."""
        return Tensor._make(np.tanh(self.data), (self,), Tensor._tanh)

    @defvjp()
    def _sigmoid(node, g):
        return (g * node.data * (1.0 - node.data),)

    def sigmoid(self) -> "Tensor":
        """Element-wise logistic function ``1 / (1 + exp(-x))``."""
        # Numerically stable logistic via tanh.
        return Tensor._make(0.5 * (np.tanh(0.5 * self.data) + 1.0), (self,), Tensor._sigmoid)

    @defvjp()
    def _abs(node, g):
        return (g * np.sign(node._prev[0].data),)

    def abs(self) -> "Tensor":
        """Element-wise absolute value."""
        return Tensor._make(np.abs(self.data), (self,), Tensor._abs)

    # -- reductions ---------------------------------------------------------------

    @defvjp(fresh=False)
    def _sum(node, g):
        axis, keepdims = node._saved
        grad = np.asarray(g)
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis=axis)
        return (np.broadcast_to(grad, node._prev[0].data.shape),)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or all elements)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        return Tensor._make(out_data, (self,), Tensor._sum, (axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or all elements), with gradient spread evenly."""
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Variance over ``axis`` (population, ``ddof=0``)."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    # -- shape manipulation ----------------------------------------------------------

    @defvjp(fresh=False)
    def _reshape(node, g):
        return (g.reshape(node._prev[0].data.shape),)

    def reshape(self, *shape) -> "Tensor":
        """A reshaped graph-tracked view with the same total size."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(self.data.reshape(shape), (self,), Tensor._reshape)

    @defvjp(fresh=False)
    def _transpose(node, g):
        (axes,) = node._saved
        # The inverse permutation (an argsort) is worked out here, not in
        # the forward: it only matters on the grad-requiring path.
        return (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (default: reverse them), tracked for gradients."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        return Tensor._make(self.data.transpose(axes), (self,), Tensor._transpose, (axes,))

    @defvjp(fresh=False)
    def _swapaxes(node, g):
        return (np.swapaxes(g, *node._saved),)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        """Interchange two axes, tracked for gradients."""
        return Tensor._make(np.swapaxes(self.data, a, b), (self,), Tensor._swapaxes, (a, b))

    @property
    def T(self) -> "Tensor":
        """The matrix transpose, as a graph-tracked view (alias of ``transpose()``)."""
        return self.transpose()

    @defvjp()
    def _getitem(node, g):
        (idx,) = node._saved
        full = np.zeros_like(node._prev[0].data)
        if _is_fancy(idx):
            np.add.at(full, idx, g)
        else:
            full[idx] = g
        return (full,)

    def __getitem__(self, idx) -> "Tensor":
        return Tensor._make(self.data[idx], (self,), Tensor._getitem, (idx,))

    # -- misc ------------------------------------------------------------------------

    @defvjp()
    def _mask(node, g):
        """Shared by every op whose gradient is ``g`` gated by a saved mask."""
        return (g * node._saved[0],)

    def clip(self, low: float, high: float) -> "Tensor":
        """Element-wise clamp into ``[low, high]`` (gradient flows inside it)."""
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(np.clip(self.data, low, high), (self,), Tensor._mask, (mask,))

    def maximum(self, other: float) -> "Tensor":
        """Element-wise maximum against the scalar ``other``."""
        if isinstance(other, Tensor):
            raise GradError("tensor operands are not supported by maximum(); pass a scalar")
        mask = self.data > other
        return Tensor._make(np.maximum(self.data, other), (self,), Tensor._mask, (mask,))


def _item_err(t: Tensor):
    raise ShapeError(f"item() requires a single-element tensor, got shape {t.shape}")


def _axis_count(shape: tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    count = 1
    for a in axis:
        count *= shape[a]
    return count


def _is_fancy(idx) -> bool:
    if isinstance(idx, (np.ndarray, list)):
        return True
    if isinstance(idx, tuple):
        return any(isinstance(i, (np.ndarray, list)) for i in idx)
    return False


# -- the backward sweep --------------------------------------------------------------

def _seed(root: Tensor, grad: np.ndarray | None) -> None:
    """Validate ``grad`` (default: ones for a scalar) and write it into ``root.grad``."""
    if not root.requires_grad:
        raise GradError("backward() on a tensor that does not require grad")
    if grad is None:
        if root.data.size != 1:
            raise GradError(
                f"backward() without an explicit gradient requires a scalar; got shape {root.shape}"
            )
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype)
    if grad.shape != root.data.shape:
        raise ShapeError(f"gradient shape {grad.shape} != tensor shape {root.shape}")
    if root.grad is None:
        root.grad = grad.copy()
    else:
        root.grad += grad


def _toposort(root: Tensor) -> list[Tensor]:
    """Every tensor ``root`` depends on, parents before consumers (iterative DFS)."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _sweep(topo: list[Tensor]) -> None:
    """Backpropagate through ``topo`` in reverse, from gradients already seeded.

    Each node's op, saved tuple and parents are dropped once it has run,
    so intermediate buffers free as the sweep proceeds and a second
    ``backward()`` on the same root reaches nothing.
    """
    for node in reversed(topo):
        op = node._backward
        if op is not None and node.grad is not None:
            for parent, g, fresh in zip(node._prev, op.vjp(node, node.grad), op.fresh):
                if g is not None:
                    parent._accum(g, fresh)
            node._backward = None
            node._saved = node._prev = ()


@defvjp(fresh=False)
def _cat(node, g):
    axis, offsets = node._saved
    slicer = [slice(None)] * g.ndim
    grads = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        slicer[axis] = slice(lo, hi)
        grads.append(g[tuple(slicer)])
    return grads


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("cat() of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return Tensor._make(out_data, tensors, _cat, (axis, offsets))


@defvjp(fresh=False)
def _stack(node, g):
    (axis,) = node._saved
    return [np.squeeze(part, axis=axis) for part in np.split(g, len(node._prev), axis=axis)]


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(out_data, tensors, _stack, (axis,))
