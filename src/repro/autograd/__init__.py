"""Tape-based reverse-mode autograd over NumPy (the PyTorch substitute).

Every differentiable op declares its one VJP in the op registry
(:mod:`repro.autograd.tensor`, :mod:`repro.autograd.functional`);
:meth:`Tensor.backward` is the one backward, a topological sweep over
those VJPs.
"""

from .functional import (
    IGNORE_INDEX,
    apply_rope,
    cross_entropy,
    dropout,
    embedding,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    relu,
    rms_norm,
    rope_cache,
    silu,
    softmax,
)
from .gradcheck import check_gradients, numerical_grad
from .tensor import Tensor, cat, is_grad_enabled, no_grad, stack

__all__ = [
    "IGNORE_INDEX",
    "Tensor",
    "apply_rope",
    "cat",
    "check_gradients",
    "cross_entropy",
    "dropout",
    "embedding",
    "gelu",
    "is_grad_enabled",
    "layer_norm",
    "linear",
    "log_softmax",
    "no_grad",
    "numerical_grad",
    "relu",
    "rms_norm",
    "rope_cache",
    "silu",
    "softmax",
    "stack",
]
