"""Tape-based reverse-mode autograd over NumPy (the PyTorch substitute).

Every differentiable op declares its one VJP in the op registry
(:mod:`repro.autograd.tensor`, :mod:`repro.autograd.functional`);
:meth:`Tensor.backward` is the one backward entry point, sweeping the
graph interpreted or — for a root captured by a :class:`BackwardTape`
round — replaying the recorded program over the same VJPs.
"""

from .compile import BackwardTape, TapeStats
from .functional import (
    IGNORE_INDEX,
    apply_rope,
    cross_entropy,
    dropout,
    embedding,
    gelu,
    layer_norm,
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
    "BackwardTape",
    "TapeStats",
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
