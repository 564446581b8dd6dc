"""LLMTailor core: parameter regrouping, recipes, checkpoint merging."""

from .autorecipe import recipe_from_run
from .diffstat import SlotDrift, diff_checkpoints, drift_ranking, nonuniformity_index
from .groups import (
    GroupSpec,
    group_layout_table,
    groups_for_slot,
    slot_of_group,
    tailored_group_specs,
    tailored_param_groups,
)
from .mergekit import MERGE_METHODS, mergekit_merge, mergekit_merge_from_yaml
from .optimizer_merge import RankMergeStats, merge_optimizer_shards, merge_rank_shard
from .plan import MergePlan, resolve_plan
from .recipe import MergeOptions, MergeRecipe, load_recipe, parse_recipe
from .tailor import LLMTailor, MergeResult
from .verify import VerifyReport, verify_checkpoint
from .weights import WeightMergeStats, merge_weight_files

__all__ = [
    "GroupSpec",
    "LLMTailor",
    "MERGE_METHODS",
    "MergeOptions",
    "MergePlan",
    "MergeRecipe",
    "MergeResult",
    "RankMergeStats",
    "SlotDrift",
    "VerifyReport",
    "WeightMergeStats",
    "diff_checkpoints",
    "drift_ranking",
    "group_layout_table",
    "groups_for_slot",
    "nonuniformity_index",
    "load_recipe",
    "merge_optimizer_shards",
    "merge_rank_shard",
    "merge_weight_files",
    "mergekit_merge",
    "mergekit_merge_from_yaml",
    "parse_recipe",
    "recipe_from_run",
    "resolve_plan",
    "slot_of_group",
    "tailored_group_specs",
    "tailored_param_groups",
    "verify_checkpoint",
]
