"""Automatic recipe generation from partial-checkpoint runs.

A partial-checkpointing run leaves a trail of ``checkpoint-<step>``
directories, each saving only some slots (recorded in its manifest and
in the strategy's JSON decision log).  To recover from a failure at step
``F``, each slot must come from the most recent checkpoint at or before
``F`` that saved it.  This module builds that recipe automatically —
either from the manifests on disk or from a decision-log JSON file (the
paper's T2 workflow: "our tool will automatically generate a
corresponding YAML file").
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..io.layout import RunIndex, checkpoint_dir
from ..nn.config import ModelConfig
from ..util.errors import MergeError
from ..util.jsonio import read_json
from .recipe import MergeOptions, MergeRecipe

__all__ = ["recipe_from_run", "recipe_from_decision_log", "latest_slot_coverage"]


def latest_slot_coverage(
    run_root: str | Path, failure_step: int | None = None
) -> tuple[dict[str, int], ModelConfig]:
    """Map each slot to the newest checkpoint step (<= failure) carrying it."""
    index = RunIndex(run_root)
    coverage = index.slot_coverage(failure_step)
    first = checkpoint_dir(run_root, index.steps(failure_step)[0])
    return coverage, ModelConfig.from_dict(read_json(first.config))


def _recipe(run_root: Path, coverage: dict[str, int], options: MergeOptions) -> MergeRecipe:
    """Base = the newest contributing checkpoint; the rest are assignments."""
    base_step = max(coverage.values())
    return MergeRecipe(
        base_checkpoint=checkpoint_dir(run_root, base_step).dir,
        assignments={
            slot: checkpoint_dir(run_root, step).dir
            for slot, step in coverage.items()
            if step != base_step
        },
        options=options,
    )


def recipe_from_run(
    run_root: str | Path,
    failure_step: int | None = None,
    *,
    workers: int = 1,
    cache_mode: str = "per-checkpoint",
    verify: bool = True,
) -> MergeRecipe:
    """Build a merge recipe by scanning checkpoint manifests on disk."""
    coverage = RunIndex(run_root).slot_coverage(failure_step)
    options = MergeOptions(workers=workers, cache_mode=cache_mode, verify=verify)
    return _recipe(Path(run_root), coverage, options)


def recipe_from_decision_log(
    log_path: str | Path,
    run_root: str | Path,
    failure_step: int | None = None,
    *,
    workers: int = 1,
    cache_mode: str = "per-checkpoint",
) -> MergeRecipe:
    """Build a recipe from a strategy's JSON decision log.

    The log format is produced by :class:`repro.strategies.base
    .CheckpointStrategy`: ``{"records": [{"step": int, "slots": [...]},
    ...]}``.  Only steps with an existing checkpoint directory count.
    """
    log = read_json(log_path)
    records: list[dict[str, Any]] = log.get("records", [])
    if not records:
        raise MergeError(f"decision log {log_path} has no records")
    run_root = Path(run_root)

    coverage: dict[str, int] = {}
    for record in sorted(records, key=lambda r: int(r["step"])):
        step = int(record["step"])
        if failure_step is not None and step > failure_step:
            break
        if not checkpoint_dir(run_root, step).exists():
            continue  # the log may mention steps whose files were pruned
        for slot in record.get("slots", []):
            coverage[slot] = step
    if not coverage:
        raise MergeError(
            f"decision log {log_path} covers no existing checkpoints under {run_root}"
        )
    return _recipe(run_root, coverage, MergeOptions(workers=workers, cache_mode=cache_mode))
