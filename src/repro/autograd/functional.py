"""Fused differentiable operations used by the transformer stack.

These are implemented as single tape nodes (rather than compositions of
primitives) for numerical stability and speed: the linear map, softmax,
log-softmax, cross-entropy, RMS norm, SiLU, embedding lookup, and rotary
position embedding.  Each has a hand-derived backward verified by numerical
gradient checking in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import ShapeError
from .tensor import Tensor, defvjp, unbroadcast

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "silu",
    "gelu",
    "relu",
    "rms_norm",
    "layer_norm",
    "embedding",
    "apply_rope",
    "rope_cache",
    "dropout",
]

IGNORE_INDEX = -100


@defvjp(fresh=(True, False))
def _linear(node, g):
    # The matmul, unbroadcast and transpose nodes' arithmetic; ``gw`` is a
    # transposed view, so the weight's first accumulation copies it.
    x, weight = node._prev
    gx = g @ weight.data if x.requires_grad else None
    gw = None
    if weight.requires_grad:
        if x.data.ndim == 1:
            gw = np.multiply.outer(x.data, g).T
        else:
            gw = unbroadcast(x.data.swapaxes(-1, -2) @ g, weight.data.shape[::-1]).T
    return gx, gw


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """``x @ weight.T`` as one graph node; ``weight`` is ``(out, in)``.

    A batch of rows is multiplied by a C-contiguous copy of ``weight.T``,
    which BLAS runs faster than the transposed view; one row (1-D ``x``)
    takes the view, since the copy would cost as much as the product.
    """
    wt = weight.data.T if x.data.ndim == 1 else np.ascontiguousarray(weight.data.T)
    return Tensor._make(x.data @ wt, (x, weight), _linear)


@defvjp()
def _softmax(node, g):
    # d softmax: s * (g - sum(g * s))
    (axis,) = node._saved
    s = node.data
    t = np.multiply(g, s)
    dot = t.sum(axis=axis, keepdims=True)
    np.subtract(g, dot, out=t)
    return (np.multiply(s, t, out=t),)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis`` (stable: max-shifted)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return Tensor._make(exp / exp.sum(axis=axis, keepdims=True), (x,), _softmax, (axis,))


@defvjp()
def _log_softmax(node, g):
    axis, probs = node._saved
    return (g - probs * g.sum(axis=axis, keepdims=True),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    return Tensor._make(out_data, (x,), _log_softmax, (axis, np.exp(out_data)))


@defvjp()
def _cross_entropy(node, g):
    log_probs, rows, safe_targets, valid, count = node._saved
    grad = np.exp(log_probs)
    grad[rows, safe_targets] -= 1.0
    np.multiply(grad, (valid / count)[:, None], out=grad)
    np.multiply(grad, np.asarray(g), out=grad)  # scalar chain factor
    return (grad.reshape(node._prev[0].data.shape),)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean token-level cross entropy.

    ``logits``: float tensor of shape ``(..., V)``; ``targets``: integer
    array of shape ``(...)``.  Positions equal to ``ignore_index`` are
    excluded from both the loss and the gradient (used for padding and for
    masking the prompt during SFT).
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    count = int(valid.sum())
    if count == 0:
        raise ShapeError("cross_entropy: every target position is ignored")

    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse

    safe_targets = np.where(valid, flat_targets, 0)
    rows = np.arange(flat_targets.size)
    loss = -(log_probs[rows, safe_targets] * valid).sum() / count
    out_data = np.asarray(loss, dtype=logits.data.dtype)
    saved = (log_probs, rows, safe_targets, valid, count)
    return Tensor._make(out_data, (logits,), _cross_entropy, saved)


@defvjp()
def _silu(node, g):
    # g * (sig + x * sig * (1 - sig))
    (sig,) = node._saved
    t = np.multiply(node._prev[0].data, sig)
    u = np.subtract(1.0, sig)
    np.multiply(t, u, out=t)
    np.add(sig, t, out=t)
    return (np.multiply(g, t, out=t),)


def silu(x: Tensor) -> Tensor:
    """SiLU / swish: ``x * sigmoid(x)`` (the Llama MLP activation)."""
    sig = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return Tensor._make(x.data * sig, (x,), _silu, (sig,))


def relu(x: Tensor) -> Tensor:
    """Element-wise rectifier ``max(x, 0)``."""
    mask = x.data > 0
    return Tensor._make(x.data * mask, (x,), Tensor._mask, (mask,))


@defvjp()
def _gelu(node, g):
    c, t = node._saved
    x = node._prev[0].data
    d_inner = c * (1.0 + 3 * 0.044715 * x**2)
    dt = (1.0 - t * t) * d_inner
    return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU (as used by GPT-style MLPs)."""
    c = np.sqrt(2.0 / np.pi).astype(x.data.dtype)
    t = np.tanh(c * (x.data + 0.044715 * x.data**3))
    return Tensor._make(0.5 * x.data * (1.0 + t), (x,), _gelu, (c, t))


@defvjp()
def _rms_norm(node, g):
    x, weight = node._prev
    inv, normed = node._saved
    n = g.shape[-1]
    gx = gweight = None
    if weight.requires_grad:
        gweight = np.multiply(g, normed).reshape(-1, n).sum(axis=0)
    if x.requires_grad:
        # inv * gw - (inv**3 / n) * sum(gw * x) * x, with gw = g * weight
        gw = np.multiply(g, weight.data)
        t = np.multiply(gw, x.data)
        dot = t.sum(axis=-1, keepdims=True)
        np.multiply(inv, gw, out=gw)
        np.multiply((inv**3 / n) * dot, x.data, out=t)
        gx = np.subtract(gw, t, out=gw)
    return gx, gweight


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square layer norm over the last axis (Llama-style).

    ``y = x / sqrt(mean(x^2) + eps) * w``
    """
    if weight.data.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm weight shape {weight.shape} != ({x.shape[-1]},)")
    ms = (x.data * x.data).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    normed = x.data * inv
    return Tensor._make(normed * weight.data, (x, weight), _rms_norm, (inv, normed))


@defvjp()
def _layer_norm(node, g):
    x, weight, bias = node._prev
    inv, normed = node._saved
    n = g.shape[-1]
    gx = gweight = gbias = None
    if weight.requires_grad:
        gweight = (g * normed).reshape(-1, n).sum(axis=0)
    if bias.requires_grad:
        gbias = g.reshape(-1, n).sum(axis=0)
    if x.requires_grad:
        gw = g * weight.data
        mean_g = gw.mean(axis=-1, keepdims=True)
        mean_gx = (gw * normed).mean(axis=-1, keepdims=True)
        gx = inv * (gw - mean_g - normed * mean_gx)
    return gx, gweight, gbias


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Classic LayerNorm (kept for non-Llama architectures)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = xc * inv
    out_data = normed * weight.data + bias.data
    return Tensor._make(out_data, (x, weight, bias), _layer_norm, (inv, normed))


@defvjp()
def _embedding(node, g):
    (ids,) = node._saved
    weight = node._prev[0].data
    full = np.zeros_like(weight)
    np.add.at(full, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
    return (full,)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"embedding ids must be integers, got dtype {ids.dtype}")
    return Tensor._make(weight.data[ids], (weight,), _embedding, (ids,))


def rope_cache(seq_len: int, head_dim: int, base: float = 10000.0, dtype=np.float32):
    """Precompute cos/sin tables for rotary position embedding.

    Returns ``(cos, sin)`` each of shape ``(seq_len, head_dim)`` following
    the Llama "rotate half" convention: frequencies repeat across the two
    halves of the head dimension.
    """
    if head_dim % 2:
        raise ShapeError(f"RoPE head_dim must be even, got {head_dim}")
    inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2, dtype=np.float64) / head_dim))
    positions = np.arange(seq_len, dtype=np.float64)
    freqs = np.outer(positions, inv_freq)  # (T, D/2)
    emb = np.concatenate([freqs, freqs], axis=-1)  # (T, D)
    return np.cos(emb).astype(dtype), np.sin(emb).astype(dtype)


def _rotate_half(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


@defvjp()
def _apply_rope(node, g):
    # g * cos + R^T(g * sin), R^T the transpose of the rotate-half map:
    # concatenate([y[..., half:], -y[..., :half]]) written as two half-writes.
    cos, sin = node._saved
    half = g.shape[-1] // 2
    t = np.multiply(g, cos)
    y = np.multiply(g, sin)
    rot = np.empty_like(y)
    rot[..., :half] = y[..., half:]
    np.negative(y[..., :half], out=rot[..., half:])
    return (np.add(t, rot, out=t),)


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Apply rotary position embedding to ``x`` of shape ``(..., T, D)``.

    ``cos``/``sin`` broadcast over the leading dimensions; gradient is the
    inverse rotation (the map is orthogonal).
    """
    out_data = x.data * cos + _rotate_half(x.data) * sin
    return Tensor._make(out_data, (x,), _apply_rope, (cos, sin))


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ShapeError(f"dropout probability must be < 1, got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return Tensor._make(x.data * mask, (x,), Tensor._mask, (mask,))
