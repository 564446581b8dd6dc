"""Layer-aligned parameter-group reconstruction (paper §4.1, Fig. 3).

The stock optimizer layout flattens the whole model into two parameter
groups (decay / no-decay), which makes optimizer files inseparable by
layer.  LLMTailor reconstructs the groups *before training* so they
mirror the model's layer structure while preserving weight-decay
settings.  The resulting canonical order (paper §4.2) is:

    index 0           : final norm                         (no decay)
    index 1 .. L      : layer i no-decay segment            (no decay)
    index L+1         : embed_tokens                        (decay)
    index L+2         : lm_head (only if untied)            (decay)
    index L+2(+1) ..  : layer i decay segment               (decay)

Total ``2L + x`` groups where ``x`` is the number of auxiliary layers
(e.g. a 16-layer untied model: 2*16 + 3 = 35 groups, as in Fig. 3).
Because the order is fixed and derivable from the model config alone
(layer count + weight tying), a merge tool can locate any layer's groups
in any checkpoint without extra metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..nn.config import ModelConfig
from ..nn.module import Module
from ..nn.slots import EMBED, LM_HEAD, NORM, layer_slot, parameter_shapes, slot_of_param
from ..optim.grouping import is_no_decay_param
from ..optim.optimizer import ParamGroup
from ..util.errors import ConfigError

__all__ = [
    "GroupSpec",
    "group_numels",
    "tailored_group_specs",
    "tailored_param_groups",
    "groups_for_slot",
    "slot_of_group",
    "group_layout_table",
]


@dataclass(frozen=True)
class GroupSpec:
    """One tailored parameter group: position, slot, decay, members."""

    index: int
    name: str
    slot: str
    weight_decay: float
    param_names: tuple[str, ...] = field(default_factory=tuple)

    @property
    def is_decay(self) -> bool:
        """Whether this group applies (non-zero) weight decay."""
        return self.weight_decay != 0.0


def tailored_group_specs(config: ModelConfig, weight_decay: float = 0.01) -> list[GroupSpec]:
    """The canonical 2L+x group layout for a model config.

    Derived analytically from :func:`parameter_shapes`, so it works for
    full-scale configs without instantiating the model.
    """
    if weight_decay <= 0:
        raise ConfigError(
            "tailored grouping requires a positive weight decay; with zero decay "
            "the decay/no-decay distinction (and the paper's layout) collapses"
        )
    by_slot_decay: dict[tuple[str, bool], list[str]] = {}
    for name in parameter_shapes(config):
        key = (slot_of_param(name), not is_no_decay_param(name))
        by_slot_decay.setdefault(key, []).append(name)

    L = config.num_hidden_layers
    specs: list[GroupSpec] = []

    def add(name: str, slot: str, decay: bool) -> None:
        params = tuple(by_slot_decay.get((slot, decay), ()))
        if not params:
            raise ConfigError(f"slot {slot!r} has no {'decay' if decay else 'no-decay'} params")
        specs.append(
            GroupSpec(
                index=len(specs),
                name=name,
                slot=slot,
                weight_decay=weight_decay if decay else 0.0,
                param_names=params,
            )
        )

    # 1. Final norm (no decay).
    add("norm", NORM, decay=False)
    # 2. Per-layer no-decay segments.
    for i in range(L):
        add(f"layer_{i}_nodecay", layer_slot(i), decay=False)
    # 3. Embedding (decay).
    add("embed_tokens", EMBED, decay=True)
    # 4. Optional lm_head (decay).
    if not config.tie_word_embeddings:
        add("lm_head", LM_HEAD, decay=True)
    # 5. Per-layer decay segments.
    for i in range(L):
        add(f"layer_{i}_decay", layer_slot(i), decay=True)

    expected = config.num_param_groups_tailored
    if len(specs) != expected:
        raise ConfigError(
            f"internal error: built {len(specs)} groups, expected {expected} (2L+x)"
        )
    # Every parameter must appear in exactly one group.
    seen = [n for s in specs for n in s.param_names]
    if sorted(seen) != sorted(parameter_shapes(config)):
        raise ConfigError("tailored groups do not cover the parameter set exactly")
    return specs


def group_numels(config: ModelConfig, weight_decay: float = 0.01) -> list[int]:
    """Element count of every tailored group, in group order (config only)."""
    shapes = parameter_shapes(config)
    return [
        sum(math.prod(shapes[name]) for name in spec.param_names)
        for spec in tailored_group_specs(config, weight_decay)
    ]


def tailored_param_groups(
    model: Module, config: ModelConfig, weight_decay: float = 0.01
) -> list[ParamGroup]:
    """Optimizer param groups for a live model, in tailored order.

    This is the "regroup before training" step (paper §4.1): pass the
    result to :class:`repro.optim.AdamW` (or the ZeRO engine) instead of
    the default 2-group split.  Training math is unchanged — the same
    parameters keep the same hyper-parameters — only the grouping differs.
    """
    params_by_name = dict(model.named_parameters())
    groups: list[ParamGroup] = []
    for spec in tailored_group_specs(config, weight_decay):
        try:
            params = [params_by_name[n] for n in spec.param_names]
        except KeyError as exc:
            raise ConfigError(f"model is missing parameter {exc} required by group layout") from exc
        groups.append(
            {
                "params": params,
                "param_names": list(spec.param_names),
                "weight_decay": spec.weight_decay,
                "name": spec.name,
                "slot": spec.slot,
            }
        )
    return groups


def groups_for_slot(config: ModelConfig, slot: str) -> list[int]:
    """Group indices belonging to a layer slot (paper §4.2 indexing).

    Transformer layers own two groups (no-decay + decay); auxiliary slots
    own one.  Computable from ``L`` and weight tying alone.
    """
    L = config.num_hidden_layers
    tied = config.tie_word_embeddings
    if slot == NORM:
        return [0]
    if slot == EMBED:
        return [L + 1]
    if slot == LM_HEAD:
        if tied:
            raise ConfigError("tied model has no lm_head slot")
        return [L + 2]
    if slot.startswith("layers."):
        i = int(slot.split(".", 1)[1])
        if not 0 <= i < L:
            raise ConfigError(f"layer index {i} out of range for {L}-layer model")
        decay_offset = L + 2 + (0 if tied else 1)
        return [1 + i, decay_offset + i]
    raise ConfigError(f"unknown slot {slot!r}")


def slot_of_group(config: ModelConfig, index: int) -> str:
    """Inverse of :func:`groups_for_slot`."""
    L = config.num_hidden_layers
    tied = config.tie_word_embeddings
    total = config.num_param_groups_tailored
    if not 0 <= index < total:
        raise ConfigError(f"group index {index} out of range [0, {total})")
    if index == 0:
        return NORM
    if 1 <= index <= L:
        return layer_slot(index - 1)
    if index == L + 1:
        return EMBED
    if not tied and index == L + 2:
        return LM_HEAD
    decay_offset = L + 2 + (0 if tied else 1)
    return layer_slot(index - decay_offset)


def group_layout_table(config: ModelConfig, weight_decay: float = 0.01):
    """Rows describing the tailored layout — regenerates paper Figure 3."""
    rows = []
    for spec in tailored_group_specs(config, weight_decay):
        rows.append(
            {
                "index": spec.index,
                "group": spec.name,
                "slot": spec.slot,
                "weight_decay": spec.weight_decay,
                "num_params": len(spec.param_names),
            }
        )
    return rows
