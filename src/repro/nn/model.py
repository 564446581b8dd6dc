"""The decoder-only causal language model (Llama/Qwen architecture).

Parameter names replicate the HuggingFace layout exactly:

* ``model.embed_tokens.weight``
* ``model.layers.{i}.input_layernorm.weight`` / ``.self_attn.{q,k,v,o}_proj.*``
  / ``.post_attention_layernorm.weight`` / ``.mlp.{gate,up,down}_proj.weight``
* ``model.norm.weight``
* ``lm_head.weight`` — only when ``tie_word_embeddings`` is false; tied
  models reuse ``embed_tokens.weight`` for the output projection (§2.1).

This naming is the contract LLMTailor (and the checkpoint layout) relies
on when slicing checkpoints layer-by-layer.
"""

from __future__ import annotations

import numpy as np

from ..autograd import functional as F
from ..autograd.tensor import Tensor
from ..util.errors import ShapeError
from ..util.rng import RngTree
from .attention import causal_mask
from .block import DecoderLayer
from .config import ModelConfig, get_config
from .layers import Embedding, Linear, RMSNorm
from .module import Module, ModuleList

__all__ = ["DecoderModel", "CausalLM", "build_model"]


class DecoderModel(Module):
    """The ``model.*`` trunk: embeddings, decoder layers, final norm."""

    def __init__(self, config: ModelConfig, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.embed_tokens = Embedding(
            config.vocab_size, config.hidden_size, rng=rng, init_std=config.initializer_range
        )
        self.layers = ModuleList(
            DecoderLayer(config, rng=rng) for _ in range(config.num_hidden_layers)
        )
        self.norm = RMSNorm(config.hidden_size, eps=config.rms_norm_eps)

    def forward(self, input_ids: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> Tensor:
        """Token ids (B, T) -> final hidden states (B, T, C)."""
        seq_len = input_ids.shape[1]
        mask = causal_mask(seq_len)
        x = self.embed_tokens(input_ids)
        for layer in self.layers:
            x = layer(x, cos, sin, mask)
        return self.norm(x)


class CausalLM(Module):
    """Causal LM head over :class:`DecoderModel`; handles weight tying."""

    def __init__(self, config: ModelConfig, *, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = RngTree(seed, "model-init", config.name).generator("weights")
        self.model = DecoderModel(config, rng=rng)
        if config.tie_word_embeddings:
            self.lm_head = None
        else:
            self.lm_head = Linear(
                config.hidden_size,
                config.vocab_size,
                bias=False,
                rng=rng,
                init_std=config.initializer_range,
            )
        self._rope_cos, self._rope_sin = F.rope_cache(
            config.max_position_embeddings, config.head_dim, base=config.rope_base
        )

    def forward(self, input_ids: np.ndarray) -> Tensor:
        """Token ids ``(B, T)`` → logits ``(B, T, V)``."""
        input_ids = np.asarray(input_ids)
        if input_ids.ndim != 2:
            raise ShapeError(f"input_ids must be (batch, seq), got shape {input_ids.shape}")
        if input_ids.shape[1] > self.config.max_position_embeddings:
            raise ShapeError(
                f"sequence length {input_ids.shape[1]} exceeds max position "
                f"{self.config.max_position_embeddings}"
            )
        hidden = self.model(input_ids, self._rope_cos, self._rope_sin)
        if self.lm_head is not None:
            return self.lm_head(hidden)
        # Weight tying: output projection is the embedding matrix.  Not
        # F.linear: as one node the head would add its gradient to the tied
        # weight before the embedding lookup does, so with micro-batches
        # accumulated the sum would run in another order (other bits).
        return hidden @ self.model.embed_tokens.weight.transpose(1, 0)

    def loss(self, input_ids: np.ndarray, labels: np.ndarray) -> Tensor:
        """Next-token cross entropy; labels use -100 for ignored positions."""
        logits = self.forward(input_ids)
        return F.cross_entropy(logits, labels)

    # -- structural description (paper Fig. 1) -----------------------------------

    def structure_tree(self) -> str:
        """Render the layer-wise structure, reproducing paper Figure 1."""
        cfg = self.config
        lines = [f"{cfg.name} ({cfg.architecture})"]
        lines.append(f"├─ model.embed_tokens  Embedding({cfg.vocab_size}, {cfg.hidden_size})")
        lines.append(f"├─ model.layers  x{cfg.num_hidden_layers} DecoderLayer")
        lines.append(f"│   ├─ input_layernorm          RMSNorm({cfg.hidden_size})")
        lines.append(
            f"│   ├─ self_attn                q/k/v/o_proj "
            f"(heads={cfg.num_attention_heads}, kv={cfg.num_key_value_heads}, "
            f"bias={cfg.attention_bias})"
        )
        lines.append(f"│   ├─ post_attention_layernorm RMSNorm({cfg.hidden_size})")
        lines.append(
            f"│   └─ mlp                      SwiGLU({cfg.hidden_size} -> "
            f"{cfg.intermediate_size} -> {cfg.hidden_size})"
        )
        lines.append(f"├─ model.norm          RMSNorm({cfg.hidden_size})")
        if cfg.tie_word_embeddings:
            lines.append("└─ lm_head             (weight-tied to embed_tokens)")
        else:
            lines.append(
                f"└─ lm_head             Linear({cfg.hidden_size}, {cfg.vocab_size}, bias=False)"
            )
        return "\n".join(lines)


def build_model(config_or_name: ModelConfig | str, *, seed: int = 0) -> CausalLM:
    """Instantiate a model from a config object or registry name."""
    config = (
        config_or_name
        if isinstance(config_or_name, ModelConfig)
        else get_config(config_or_name)
    )
    return CausalLM(config, seed=seed)
