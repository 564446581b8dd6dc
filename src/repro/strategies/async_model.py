"""Asynchronous (overlapped) checkpointing cost model.

The paper positions partial checkpointing as *composable* with prior
I/O optimizations — "the approaches are not mutually exclusive" (§5.1),
citing CheckFreq/Gemini/DataStates-style asynchronous writers.  This
module models that composition analytically:

* a blocking **snapshot** copies the step's state to host memory
  (training stalls for ``bytes / snapshot_bandwidth``);
* a background **flush** writes to storage overlapped with subsequent
  compute; if the next checkpoint event arrives before the previous
  flush drained, training stalls until it finishes (single in-flight
  flush, as in CheckFreq).  The flush takes what the blocking writer
  would: ``plan_strategy_async`` is one pass over :func:`plan_strategy`'s
  events, each priced by :func:`~repro.io.writer.price_save`.

Combining a selective strategy (fewer bytes) with the async writer
(overlap) multiplies the savings — see the composability ablation
bench and ``plan_strategy_async``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..io.storage import StorageCostModel
from ..nn.config import ModelConfig
from .base import CheckpointStrategy
from .planner import ComputeCostModel, StrategyPlan, plan_strategy

__all__ = ["AsyncCheckpointModel", "plan_strategy_async"]


@dataclass(frozen=True)
class AsyncCheckpointModel:
    """Parameters of the overlapped checkpoint pipeline."""

    snapshot_bandwidth: float = 20.0e9  # bytes/s device->host copy

    def snapshot_seconds(self, nbytes: float) -> float:
        """Time to capture the in-memory snapshot of ``nbytes`` (the stall)."""
        return nbytes / self.snapshot_bandwidth


def plan_strategy_async(
    config: ModelConfig,
    strategy: CheckpointStrategy,
    *,
    total_steps: int,
    world_size: int = 8,
    tokens_per_step_per_gpu: float = 16384.0,
    storage: StorageCostModel | None = None,
    compute: ComputeCostModel | None = None,
    async_model: AsyncCheckpointModel | None = None,
) -> StrategyPlan:
    """Like :func:`plan_strategy` but with an overlapped writer: one pass
    over its events.

    Per event, the charged time is the *stall*: any leftover flush from
    the previous event that didn't drain during the interval's compute
    window, plus the blocking snapshot.  The event's own flush — the
    blocking plan's write, kept as ``write_seconds_background`` — then
    proceeds in the background.
    """
    from ..nn.slots import model_slots, slot_param_counts

    compute = compute or ComputeCostModel()
    async_model = async_model or AsyncCheckpointModel()
    plan = plan_strategy(
        config, strategy, total_steps=total_steps, world_size=world_size,
        tokens_per_step_per_gpu=tokens_per_step_per_gpu, storage=storage, compute=compute,
    )
    plan.strategy = f"{plan.strategy}+async"
    counts = slot_param_counts(config)
    num_params = sum(counts[s] for s in model_slots(config))
    step_seconds = compute.step_seconds(num_params, tokens_per_step_per_gpu)

    pending_flush = 0.0  # background write seconds still outstanding
    last_event_step = 0
    for event in plan.events:
        # The previous flush drained during this interval's compute.
        window = step_seconds * (event["step"] - last_event_step)
        leftover = max(0.0, pending_flush - window)
        pending_flush, last_event_step = event["seconds"], event["step"]
        event.update(
            seconds=leftover + async_model.snapshot_seconds(event["total_bytes"]),
            write_seconds_background=pending_flush,
            flush_leftover_stall=leftover,
        )
    return plan
