"""Elementary layers: Linear, Embedding, RMSNorm.

Weight layouts follow PyTorch conventions (``Linear.weight`` is
``(out_features, in_features)``) so state-dict shapes match what the
checkpoint tooling expects from HF models.
"""

from __future__ import annotations

import numpy as np

from ..autograd import functional as F
from ..autograd.tensor import Tensor
from .module import Module, Parameter

__all__ = ["Linear", "Embedding", "RMSNorm"]


class Linear(Module):
    """Affine map ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = False,
        *,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            rng.normal(0.0, init_std, size=(out_features, in_features)).astype(np.float32)
        )
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        """Affine map ``x @ W.T (+ b)`` over the last axis."""
        out = F.linear(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Embedding(Module):
    """Token-id → vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        *,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            rng.normal(0.0, init_std, size=(num_embeddings, embedding_dim)).astype(np.float32)
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        """Row lookup: token ids (B, T) -> embeddings (B, T, C)."""
        return F.embedding(self.weight, ids)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class RMSNorm(Module):
    """Root-mean-square normalization with a learned scale (Llama-style)."""

    def __init__(self, hidden_size: int, eps: float = 1e-6) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(hidden_size, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        """Root-mean-square normalization with learned scale."""
        return F.rms_norm(x, self.weight, eps=self.eps)

    def __repr__(self) -> str:
        return f"RMSNorm({self.weight.shape[0]}, eps={self.eps})"
