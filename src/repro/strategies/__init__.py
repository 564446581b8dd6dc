"""Selective checkpoint strategies and the analytic overhead planner."""

from .async_model import AsyncCheckpointModel, plan_strategy_async
from .base import CheckpointStrategy, build_strategy, register_strategy
from .filtered import FilteredStrategy
from .full import FullStrategy
from .magnitude import UpdateMagnitudeStrategy
from .parity import ParityStrategy
from .planner import (
    OPTIMIZER_BYTES_PER_PARAM,
    ComputeCostModel,
    FaultCostPlan,
    MergeCostPlan,
    ReshardCostPlan,
    ServeCostPlan,
    StepTrafficPlan,
    StrategyPlan,
    checkpoint_event_nbytes,
    nominal_manifest,
    plan_fault_cost,
    plan_merge_cost,
    plan_reshard_cost,
    plan_serve_cost,
    plan_step_traffic,
    plan_strategy,
)

__all__ = [
    "AsyncCheckpointModel",
    "CheckpointStrategy",
    "ComputeCostModel",
    "FaultCostPlan",
    "FilteredStrategy",
    "FullStrategy",
    "MergeCostPlan",
    "OPTIMIZER_BYTES_PER_PARAM",
    "ParityStrategy",
    "ReshardCostPlan",
    "ServeCostPlan",
    "StepTrafficPlan",
    "StrategyPlan",
    "UpdateMagnitudeStrategy",
    "build_strategy",
    "checkpoint_event_nbytes",
    "nominal_manifest",
    "plan_fault_cost",
    "plan_merge_cost",
    "plan_reshard_cost",
    "plan_serve_cost",
    "plan_step_traffic",
    "plan_strategy",
    "plan_strategy_async",
    "register_strategy",
]
