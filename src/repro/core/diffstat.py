"""Layer-wise checkpoint diff statistics — the paper's motivation.

The premise of selective checkpointing (§1) is that "updates across LLM
layers are highly non-uniform ... some layers undergo more significant
changes, while others remain relatively stable".  This module measures
exactly that between two checkpoints: per-slot relative L2 drift of
weights and of optimizer momentum, computable from checkpoint files
alone (no model instantiation).

Used by ``benchmarks/bench_motivation_layer_drift.py`` to regenerate
the motivating evidence, and exposed as ``llmtailor diff`` on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..io.blobfile import read_blob
from ..io.layout import CheckpointPaths
from ..io.tensorfile import TensorFile
from ..nn.config import ModelConfig
from ..nn.slots import model_slots, slot_parameter_shapes
from ..util.errors import MergeError
from ..util.jsonio import read_json
from .groups import groups_for_slot

__all__ = ["SlotDrift", "diff_checkpoints", "drift_ranking", "nonuniformity_index"]


@dataclass(frozen=True)
class SlotDrift:
    """Relative change of one slot between two checkpoints."""

    slot: str
    weight_l2: float  # ||w_b - w_a|| / ||w_a||
    weight_max: float  # max |w_b - w_a|
    momentum_l2: float  # same for exp_avg (0 if shards unavailable)
    params: int


def _slot_weight_drift(
    a: TensorFile, b: TensorFile, names: list[str]
) -> tuple[float, float, int]:
    num = 0.0
    den = 0.0
    max_abs = 0.0
    count = 0
    for name in names:
        wa = a.read(name).astype(np.float64).ravel()
        wb = b.read(name).astype(np.float64).ravel()
        diff = wb - wa
        num += float(diff @ diff)
        den += float(wa @ wa)
        max_abs = max(max_abs, float(np.abs(diff).max(initial=0.0)))
        count += wa.size
    rel = float(np.sqrt(num) / (np.sqrt(den) + 1e-12))
    return rel, max_abs, count


def _load_shards(ckpt: CheckpointPaths, world_size: int) -> list[dict] | None:
    """Every rank's shard payload, decoded once, or ``None`` if unavailable.

    Decoding a monolithic shard blob dominates the cost of a diff, so
    each of the ``2 * world_size`` files is read exactly once and the
    decoded payloads are shared across every slot's momentum pass (the
    old per-slot reads decoded the same files ``num_slots`` times —
    ~90% of ``llmtailor diff`` wall time on a sim-scale run).
    """
    try:
        return [read_blob(ckpt.shard(rank)) for rank in range(world_size)]
    except (MergeError, FileNotFoundError):
        return None


def _slot_momentum_drift(
    config: ModelConfig,
    shards_a: list[dict],
    shards_b: list[dict],
    slot: str,
) -> float:
    num = 0.0
    den = 0.0
    try:
        for shard_a, shard_b in zip(shards_a, shards_b):
            for g in groups_for_slot(config, slot):
                ma = np.asarray(shard_a["state"][g]["exp_avg"], dtype=np.float64)
                mb = np.asarray(shard_b["state"][g]["exp_avg"], dtype=np.float64)
                diff = mb - ma
                num += float(diff @ diff)
                den += float(ma @ ma)
    except (KeyError, MergeError):
        return 0.0
    return float(np.sqrt(num) / (np.sqrt(den) + 1e-12))


def diff_checkpoints(
    checkpoint_a: str | Path,
    checkpoint_b: str | Path,
    *,
    include_momentum: bool = False,
) -> list[SlotDrift]:
    """Per-slot drift between two (complete) checkpoints, slot order."""
    ckpt_a = CheckpointPaths(checkpoint_a)
    ckpt_b = CheckpointPaths(checkpoint_b)
    if not ckpt_a.exists() or not ckpt_b.exists():
        raise MergeError("both checkpoints must exist to diff them")
    config = ModelConfig.from_dict(read_json(ckpt_a.config))
    manifest_a = ckpt_a.read_manifest()
    world_size = int(manifest_a.get("world_size", 0))

    file_a = TensorFile(ckpt_a.weights)
    file_b = TensorFile(ckpt_b.weights)
    by_slot = slot_parameter_shapes(config)

    shards_a = shards_b = None
    if include_momentum and world_size:
        shards_a = _load_shards(ckpt_a, world_size)
        shards_b = _load_shards(ckpt_b, world_size)

    out: list[SlotDrift] = []
    for slot in model_slots(config):
        names = [n for n in by_slot[slot] if n in file_a and n in file_b]
        if not names:
            continue  # slot not present in both (partial checkpoints)
        w_l2, w_max, count = _slot_weight_drift(file_a, file_b, names)
        m_l2 = (
            _slot_momentum_drift(config, shards_a, shards_b, slot)
            if shards_a is not None and shards_b is not None
            else 0.0
        )
        out.append(SlotDrift(slot=slot, weight_l2=w_l2, weight_max=w_max,
                             momentum_l2=m_l2, params=count))
    if not out:
        raise MergeError("checkpoints share no slots; nothing to diff")
    return out


def drift_ranking(drifts: list[SlotDrift]) -> list[SlotDrift]:
    """Slots ordered most-changed first."""
    return sorted(drifts, key=lambda d: d.weight_l2, reverse=True)


def nonuniformity_index(drifts: list[SlotDrift]) -> float:
    """Max/median drift ratio — > 1 means updates are layer-non-uniform.

    The paper's premise predicts values well above 1 during post-training.
    """
    values = np.asarray([d.weight_l2 for d in drifts], dtype=np.float64)
    med = float(np.median(values))
    if med == 0:
        return float("inf") if values.max() > 0 else 1.0
    return float(values.max() / med)
