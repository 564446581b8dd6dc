"""The LLMTailor facade: recipe in, resumable Frankenstein checkpoint out.

Typical use::

    from repro.core import LLMTailor

    tailor = LLMTailor.from_yaml("recipe.yaml")
    result = tailor.merge(output="runs/exp/merged-400")
    print(result.summary())
    # runs/exp/merged-400 is now a complete checkpoint the Trainer can
    # resume from.

The merge pipeline (paper §4): resolve and validate the plan → merge
weight files (lazy per-tensor copies) → merge per-rank optimizer shards
(full-file loads, optionally in parallel) → copy config files → write
manifest → verify (each output group by the records its load already
checked, :func:`~repro.core.verify.verify_checkpoint`).  Everything after
the plan runs inside one :meth:`~repro.io.layout.CheckpointPaths.rewrite`
transaction on the output: un-published first, manifest last, un-published
again if verification fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..io.layout import CheckpointPaths
from ..util.errors import MergeError
from ..util.logging import get_logger
from ..util.timer import WallTimer
from .configs import copy_config_files, write_merged_manifest
from .optimizer_merge import RankMergeStats, merge_optimizer_shards
from .plan import MergePlan, resolve_plan
from .recipe import MergeRecipe, load_recipe, parse_recipe
from .verify import VerifyReport, verify_checkpoint
from .weights import WeightMergeStats, merge_weight_files

__all__ = ["MergeResult", "LLMTailor"]

log = get_logger("core.tailor")


@dataclass
class MergeResult:
    """Outcome of one merge: output location plus full accounting."""

    output: CheckpointPaths
    plan: dict[str, Any]
    weight_stats: WeightMergeStats
    rank_stats: list[RankMergeStats]
    verify_report: VerifyReport | None
    total_seconds: float
    config_files_copied: list[str] = field(default_factory=list)

    @property
    def optimizer_files_loaded(self) -> int:
        """Total shard files read across all ranks."""
        return sum(s.files_loaded for s in self.rank_stats)

    @property
    def optimizer_bytes_loaded(self) -> int:
        """Total shard-file bytes read across all ranks."""
        return sum(s.bytes_loaded for s in self.rank_stats)

    @property
    def checkpoints_included(self) -> int:
        """Number of distinct source checkpoints the merge read."""
        return len({v for v in self.plan["slot_sources"].values()})

    def summary(self) -> str:
        """Multi-line human-readable recap of the merge (sizes, times, sources)."""
        lines = [
            f"merged checkpoint: {self.output.dir}",
            f"  checkpoints included : {self.checkpoints_included}",
            f"  weight tensors copied: {self.weight_stats.tensors_copied} "
            f"({self.weight_stats.bytes_read} bytes)",
            f"  optimizer files load : {self.optimizer_files_loaded} "
            f"({self.optimizer_bytes_loaded} bytes)",
            f"  total time           : {self.total_seconds:.3f}s",
        ]
        if self.verify_report is not None:
            lines.append(f"  verification         : {self.verify_report}")
        return "\n".join(lines)


class LLMTailor:
    """Merge layers (weights *and* optimizer state) across checkpoints."""

    def __init__(self, recipe: MergeRecipe) -> None:
        self.recipe = recipe

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_yaml(cls, path: str | Path) -> "LLMTailor":
        """Build a tailor from a recipe YAML file."""
        return cls(load_recipe(path))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "LLMTailor":
        """Build a tailor from a parsed recipe document (YAML/JSON dict)."""
        return cls(parse_recipe(doc))

    @classmethod
    def from_checkpoints(
        cls,
        run_root: str | Path,
        failure_step: int | None = None,
        **recipe_kwargs,
    ) -> "LLMTailor":
        """Auto-build a recipe from the partial checkpoints under a run.

        Scans every ``checkpoint-*/tailor_manifest.json`` and, for each
        layer slot, picks the most recent checkpoint at or before
        ``failure_step`` that saved it (the T2 workflow in the paper's
        artifact description).
        """
        from .autorecipe import recipe_from_run  # local import: avoid cycle

        return cls(recipe_from_run(run_root, failure_step=failure_step, **recipe_kwargs))

    # -- the main entry point ----------------------------------------------------

    def plan(self, output: str | Path | None = None) -> MergePlan:
        """Resolve and validate without writing anything (dry run)."""
        return resolve_plan(self.recipe, output=output)

    def merge(self, output: str | Path | None = None) -> MergeResult:
        """Execute the merge; returns the result with full accounting."""
        total = WallTimer()
        total.start()
        plan = self.plan(output)
        log.info("merging %d slots into %s", len(plan.slot_sources), plan.output)
        out_paths = CheckpointPaths(plan.output)
        step = plan.config_source.step
        report: VerifyReport | None = None
        with out_paths.rewrite(
            step, plan.world_size, error=MergeError,
            sources=[plan.config_source, *plan.distinct_sources()],
        ) as tx:
            weight_stats = merge_weight_files(plan)

            rank_stats = merge_optimizer_shards(plan, step, tx.optim_dir)

            copied = copy_config_files(plan, tx)
            write_merged_manifest(plan, tx)
            # Inside the transaction: a merge that fails its own
            # verification is un-published again, not left resumable.
            if plan.options.verify:
                report = verify_checkpoint(plan.output, digests=[s.digests for s in rank_stats])
                report.raise_if_failed()

        result = MergeResult(
            output=out_paths,
            plan=plan.describe(),
            weight_stats=weight_stats,
            rank_stats=rank_stats,
            verify_report=report,
            total_seconds=total.stop(),
            config_files_copied=copied,
        )
        log.info("merge finished in %.3fs", result.total_seconds)
        return result
