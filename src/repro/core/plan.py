"""Merge plans: a recipe resolved against real checkpoints on disk, and
the merge's one price.

Resolution validates everything the merge will rely on:

* every referenced checkpoint exists and has a manifest,
* all checkpoints were written by the same model config and world size,
* every slot's designated source actually *contains* that slot (partial
  checkpoints only carry some slots),
* every slot of the model is covered (falling back to the base).

The plan also fixes the group → slot arithmetic (via
:mod:`repro.core.groups`) and the per-rank load order,
:func:`load_schedule`, including the "interleaved parity" order of paper
§5.4 where each layer forces a reload of its source checkpoint.  The
engine executes that schedule; :func:`price_merge` runs it dry against a
:class:`~repro.io.storage.Ledger` — the one price of a merge, fed sizes on
disk by admission control and nominal sizes by the planners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping

from ..io.layout import CheckpointPaths, CheckpointSizes
from ..io.storage import Ledger
from ..nn.config import ModelConfig
from ..nn.slots import model_slots, slot_param_counts, slot_parameter_shapes
from ..util.errors import MergeError, RecipeError
from ..util.jsonio import read_json
from .groups import slot_of_group
from .recipe import MergeOptions, MergeRecipe

__all__ = ["MergePlan", "load_schedule", "price_merge", "resolve_plan"]


def load_schedule(slots, source_of, cache_mode: str) -> list[tuple]:
    """The merge load schedule: one ``(source, slots)`` selective read each.

    ``cache_mode="none"`` keeps the paper's interleaved one-load-per-slot
    sequence; ``per-checkpoint`` coalesces every slot taken from the same
    source into one pass over that shard.  The engine executes it per
    rank and :func:`price_merge` prices it.
    """
    if cache_mode == "none":
        return [(source_of(slot), [slot]) for slot in slots]
    by_source: dict = {}
    for slot in slots:
        by_source.setdefault(source_of(slot), []).append(slot)
    return list(by_source.items())


def price_merge(
    ledger: Ledger, config: ModelConfig, slot_sources: Mapping[str, Any],
    sizes: Callable[[Any], CheckpointSizes], *, cache_mode: str, workers: int = 1,
) -> list[tuple]:
    """Charge ``ledger`` what the engine's own schedule moves; returns it.

    Per rank, each :func:`load_schedule` load reads its source's whole rank
    shard; the groups selected from all loads — each source's share of its
    shard pro rata to the parameters taken from it, one shard in all — are
    inflated once and written as the merged shard; ranks run ``workers`` at
    a time.  Weights are read lazily: the taken tensors' bytes, one file
    open per distinct source in slot order, then written once.
    ``slot_sources`` maps every slot to a key of ``sizes`` (a path on disk,
    a step of a dry run's :class:`~repro.io.layout.RunIndex`).
    """
    slots = model_slots(config)
    schedule = load_schedule(slots, slot_sources.__getitem__, cache_mode)
    looked = {src: sizes(src) for src in dict.fromkeys(slot_sources[s] for s in slots)}
    params, taken = slot_param_counts(config), dict.fromkeys(looked, 0)
    for slot in slots:
        if slot not in looked[slot_sources[slot]].slots:
            raise MergeError(f"checkpoint {slot_sources[slot]} does not contain slot {slot!r}")
        taken[slot_sources[slot]] += params[slot]
    world_sizes = sorted({len(s.shards) for s in looked.values()})
    if len(world_sizes) != 1:
        raise MergeError(f"merge sources have world sizes {world_sizes}: shard layouts differ")
    share = {
        src: Fraction(taken[src], sum(params.get(x, 0) for x in s.slots))
        for src, s in looked.items()
    }
    lanes = [ledger.lane() for _ in range(world_sizes[0])]
    for rank, lane in enumerate(lanes):
        for src, _ in schedule:
            lane.charge_read(looked[src].shards[rank], category="merge.optimizer.read")
        merged = int(sum(s.shards[rank] * share[src] for src, s in looked.items()))
        lane.charge_inflate(merged, category="merge.optimizer.inflate")
        lane.charge_write(merged, category="merge.optimizer.write")
    for wave in range(0, len(lanes), workers):
        ledger.clock.advance(max(lane.clock.total() for lane in lanes[wave : wave + workers]),
                             "merge.optimizer")
    shapes, total = slot_parameter_shapes(config), 0
    for src, s in looked.items():
        nbytes = sum(
            s.tensors.get(name, 0)
            for slot in slots if slot_sources[slot] == src for name in shapes[slot]
        )
        ledger.charge_read(nbytes, category="merge.weights.read")
        total += nbytes
    ledger.charge_write(total, category="merge.weights.write")
    return schedule


@dataclass
class MergePlan:
    """Everything the merge engine needs, fully validated."""

    config: ModelConfig
    world_size: int
    base: CheckpointPaths
    slot_sources: dict[str, CheckpointPaths]
    options: MergeOptions
    output: Path
    config_source: CheckpointPaths

    # Derived below.
    num_groups: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_groups = self.config.num_param_groups_tailored

    def group_source(self, group_index: int) -> CheckpointPaths:
        """Checkpoint providing a given optimizer group."""
        return self.slot_sources[slot_of_group(self.config, group_index)]

    def distinct_sources(self) -> list[CheckpointPaths]:
        """Every checkpoint the plan reads from, deduplicated, base first."""
        seen: dict[Path, CheckpointPaths] = {}
        for cp in [self.base, *self.slot_sources.values()]:
            seen.setdefault(cp.dir, cp)
        return list(seen.values())

    def describe(self) -> dict:
        """JSON-serializable plan summary (recorded in the output manifest)."""
        return {
            "model_config": self.config.name,
            "world_size": self.world_size,
            "base": str(self.base.dir),
            "output": str(self.output),
            "slot_sources": {s: str(cp.dir) for s, cp in self.slot_sources.items()},
            "options": {
                "workers": self.options.workers,
                "cache_mode": self.options.cache_mode,
            },
        }


def _checkpoint(path: Path, role: str) -> CheckpointPaths:
    cp = CheckpointPaths(path)
    if not cp.exists():
        raise MergeError(f"{role} checkpoint not found: {path}")
    if not cp.manifest.exists():
        raise MergeError(f"{role} checkpoint {path} has no tailor_manifest.json")
    return cp


def resolve_plan(recipe: MergeRecipe, output: str | Path | None = None) -> MergePlan:
    """Validate a recipe against the filesystem and build the plan."""
    base = _checkpoint(recipe.base_checkpoint, "base")
    base_manifest = base.read_manifest()
    config = ModelConfig.from_dict(read_json(base.config))
    world_size = base_manifest["world_size"]

    out = output or recipe.output
    if out is None:
        raise RecipeError("no output directory given (recipe 'output' or merge(output=...))")
    out = Path(out)
    if recipe.options.copy_configs_from == "base":
        config_source = base
    else:
        config_source = _checkpoint(Path(recipe.options.copy_configs_from), "config-source")
    # Refuse already in a dry run what the merge's rewrite transaction will.
    CheckpointPaths(out).check_rewritable(
        config_source.step, [config_source, *recipe.distinct_sources()], MergeError
    )

    slots = model_slots(config)
    unknown = set(recipe.assignments) - set(slots)
    if unknown:
        raise MergeError(
            f"recipe assigns slots {sorted(unknown)} not present in model "
            f"{config.name!r} (tied lm_head?)"
        )

    slot_sources: dict[str, CheckpointPaths] = {}
    manifests: dict[Path, dict] = {base.dir: base_manifest}
    for slot in slots:
        cp = _checkpoint(Path(recipe.source_for(slot)), f"slot {slot!r}")
        manifest = manifests.get(cp.dir)
        if manifest is None:
            manifest = manifests[cp.dir] = cp.read_manifest()
        if manifest["model_config"] != config.name:
            raise MergeError(
                f"checkpoint {cp.dir} was written by model "
                f"{manifest['model_config']!r}, base is {config.name!r}"
            )
        if manifest["world_size"] != world_size:
            raise MergeError(
                f"checkpoint {cp.dir} has world_size {manifest['world_size']}, "
                f"base has {world_size} — shard layouts are incompatible"
            )
        if slot not in manifest["slots"]:
            raise MergeError(
                f"checkpoint {cp.dir} does not contain slot {slot!r} "
                f"(it saved {manifest['slots'][:6]}...)"
            )
        slot_sources[slot] = cp

    return MergePlan(
        config=config,
        world_size=world_size,
        base=base,
        slot_sources=slot_sources,
        options=recipe.options,
        output=out,
        config_source=config_source,
    )
