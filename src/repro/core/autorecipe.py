"""Automatic recipe generation from partial-checkpoint runs.

A partial-checkpointing run leaves a trail of ``checkpoint-<step>``
directories, each saving only some slots; its manifest is the one record
of which.  To recover from a failure at step ``F``, each slot must come
from the most recent checkpoint at or before ``F`` that saved it.
:func:`recipe_from_run` builds that recipe from the manifests, read
through :class:`~repro.io.layout.RunIndex` (the paper's T2 workflow:
"our tool will automatically generate a corresponding YAML file").
"""

from __future__ import annotations

from pathlib import Path

from ..io.layout import RunIndex, checkpoint_dir
from .recipe import MergeOptions, MergeRecipe

__all__ = ["recipe_from_run"]


def recipe_from_run(
    run_root: str | Path,
    failure_step: int | None = None,
    *,
    workers: int = 1,
    cache_mode: str = "per-checkpoint",
    verify: bool = True,
) -> MergeRecipe:
    """Build a merge recipe by scanning checkpoint manifests on disk:
    base = the newest contributing checkpoint, the rest are assignments."""
    coverage = RunIndex(run_root).slot_coverage(failure_step)
    base_step = max(coverage.values())
    return MergeRecipe(
        base_checkpoint=checkpoint_dir(run_root, base_step).dir,
        assignments={
            slot: checkpoint_dir(run_root, step).dir
            for slot, step in coverage.items()
            if step != base_step
        },
        options=MergeOptions(workers=workers, cache_mode=cache_mode, verify=verify),
    )
