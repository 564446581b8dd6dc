"""Merge plans: a recipe resolved against real checkpoints on disk.

Resolution validates everything the merge will rely on:

* every referenced checkpoint exists and has a manifest,
* all checkpoints were written by the same model config and world size,
* every slot's designated source actually *contains* that slot (partial
  checkpoints only carry some slots),
* every slot of the model is covered (falling back to the base).

The plan also fixes the group → slot arithmetic (via
:mod:`repro.core.groups`) and the per-rank load order, including the
"interleaved parity" order of paper §5.4 where each layer forces a
reload of its source checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..io.layout import CheckpointPaths
from ..nn.config import ModelConfig
from ..nn.slots import model_slots
from ..util.errors import MergeError, RecipeError
from ..util.jsonio import read_json
from .groups import slot_of_group
from .recipe import MergeOptions, MergeRecipe

__all__ = ["MergePlan", "load_schedule", "resolve_plan"]


def load_schedule(slots, source_of, cache_mode: str) -> list[tuple]:
    """The merge load schedule: one ``(source, slots)`` selective read each.

    ``cache_mode="none"`` keeps the paper's interleaved one-load-per-slot
    sequence; ``per-checkpoint`` coalesces every slot taken from the same
    source into one pass over that shard.  The engine executes it per
    rank, admission control sums file sizes over it, and
    :func:`~repro.strategies.planner.plan_merge_cost` counts it.
    """
    if cache_mode == "none":
        return [(source_of(slot), [slot]) for slot in slots]
    by_source: dict = {}
    for slot in slots:
        by_source.setdefault(source_of(slot), []).append(slot)
    return list(by_source.items())


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

    def to_worker_spec(self) -> dict:
        """Picklable description for ProcessPoolExecutor workers."""
        return {
            "config": self.config.to_dict(),
            "world_size": self.world_size,
            "slot_sources": {s: str(cp.dir) for s, cp in self.slot_sources.items()},
            "cache_mode": self.options.cache_mode,
            "workers": self.options.workers,
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
