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

from ..dist.shard import GroupEntry, check_payload
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
    momentum_l2: float  # same for exp_avg (0 unless include_momentum)
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


def _load_shards(
    ckpt: CheckpointPaths, world_size: int, wanted: list[int]
) -> list[dict[int, GroupEntry]]:
    """Every rank's checked shard groups, each file decoded exactly once.

    Decoding a monolithic shard blob dominates the cost of a diff, so
    the decoded groups are shared across every slot's momentum pass.
    """
    return [
        check_payload(
            read_blob(path), world_size=world_size, rank=rank, origin=str(path),
            error=MergeError, wanted=wanted,
        )
        for rank, path in enumerate(ckpt.shard_paths(world_size))
    ]


def _slot_momentum_drift(
    shards_a: list[dict[int, GroupEntry]],
    shards_b: list[dict[int, GroupEntry]],
    groups: list[int],
) -> float:
    num = 0.0
    den = 0.0
    for shard_a, shard_b in zip(shards_a, shards_b):
        for g in groups:
            ma = shard_a[g].exp_avg.astype(np.float64)
            mb = shard_b[g].exp_avg.astype(np.float64)
            diff = mb - ma
            num += float(diff @ diff)
            den += float(ma @ ma)
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

    file_a = TensorFile(ckpt_a.weights)
    file_b = TensorFile(ckpt_b.weights)
    by_slot = slot_parameter_shapes(config)
    shared = {
        slot: names
        for slot in model_slots(config)
        # a slot absent from either side (partial checkpoints) is skipped
        if (names := [n for n in by_slot[slot] if n in file_a and n in file_b])
    }

    shards_a = shards_b = None
    if include_momentum:
        world_a, world_b = (
            c.read_manifest()["world_size"] for c in (ckpt_a, ckpt_b)
        )
        if world_a != world_b:
            raise MergeError(
                f"cannot diff momentum across world sizes: {ckpt_a.dir} was written "
                f"at world size {world_a}, {ckpt_b.dir} at {world_b} — convert one "
                "with `llmtailor reshard` first"
            )
        wanted = [g for slot in shared for g in groups_for_slot(config, slot)]
        shards_a = _load_shards(ckpt_a, world_a, wanted)
        shards_b = _load_shards(ckpt_b, world_b, wanted)

    out: list[SlotDrift] = []
    for slot, names in shared.items():
        w_l2, w_max, count = _slot_weight_drift(file_a, file_b, names)
        m_l2 = (
            _slot_momentum_drift(shards_a, shards_b, groups_for_slot(config, slot))
            if include_momentum
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
