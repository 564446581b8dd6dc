"""Trainer callbacks: logging, checkpointing, failure and fault injection.

The trainer invokes each callback after every optimizer step.  Built-in
callbacks implement the experiment machinery; users can add their own
(see ``examples/custom_strategy.py``).
"""

from __future__ import annotations

import typing

from ..dist.faults import FaultPlan, FaultTimeline, inject_bitrot
from ..io.layout import checkpoint_dir
from ..strategies.base import CheckpointStrategy
from ..util.errors import CheckpointError, RankFailure, RankJoin, SimulatedFailure
from ..util.logging import get_logger

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .trainer import Trainer

__all__ = [
    "Callback",
    "ChaosCallback",
    "CheckpointCallback",
    "FailureInjector",
    "LoggingCallback",
]

log = get_logger("train")


class Callback:
    """Base callback; all hooks are optional."""

    def on_train_start(self, trainer: "Trainer") -> None:
        """Called once before the first step of a training leg."""

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        """Called after every optimizer step (checkpointing runs here)."""

    def on_train_end(self, trainer: "Trainer") -> None:
        """Called once after the loop exits (including on failure)."""


class LoggingCallback(Callback):
    def __init__(self, every: int = 10) -> None:
        self.every = max(1, every)

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if step % self.every == 0 or step == trainer.config.total_steps:
            lr = trainer.scheduler.get_last_lr()[0]
            # Cumulative ring-model bytes the engine's collectives moved
            # so far — per-step traffic is the delta between log entries.
            comm_bytes = trainer.comm.stats.total_bytes()
            trainer.state.log(step, loss=loss, lr=lr, comm_bytes=comm_bytes)
            log.info("step %d loss %.4f lr %.2e comm %.0fB", step, loss, lr, comm_bytes)


class CheckpointCallback(Callback):
    """Drives a :class:`CheckpointStrategy` and writes partial checkpoints
    (pruned to ``max_checkpoints`` after each, when the config sets it)."""

    def __init__(self, strategy: CheckpointStrategy) -> None:
        self.strategy = strategy

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        slots = self.strategy.plan_step(step, model=trainer.model)
        if slots is None:
            return
        trainer.write_checkpoint(step, slots=slots, strategy_name=self.strategy.name,
                                 keep_last=trainer.config.max_checkpoints)
        log.info("checkpoint at step %d: %d slots (%s)", step, len(slots), self.strategy.name)


class FailureInjector(Callback):
    """Simulate a crash after the given step completes (paper T3).

    The checkpoint callback runs first (trainer preserves registration
    order), so the failing step's checkpoint is taken, and the end of the
    leg joins its write — exactly what a real crash after a completed
    save looks like.
    """

    def __init__(self, failure_step: int) -> None:
        self.failure_step = failure_step
        self.fired = False

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if not self.fired and step >= self.failure_step:
            self.fired = True
            log.warning("injecting failure at step %d", step)
            raise SimulatedFailure(step)


class ChaosCallback(Callback):
    """Applies a :class:`~repro.dist.faults.FaultPlan` to a live leg.

    Runs *after* the checkpoint callback (the trainer preserves
    registration order), so the step's checkpoint — if any — is taken
    before bitrot corrupts it or a rank failure interrupts the leg:

    * **bitrot**: each pending event corrupts the first checkpoint
      written at or after its step (rank's shard, one group), keeping a
      pristine ``.replica`` copy for recovery to re-read from; it joins
      the checkpoint's write first;
    * **straggler**: window activations are recorded in the timeline
      (the time penalty itself is charged by the trainer's step);
    * **rank_failure**: raises :class:`~repro.util.errors.RankFailure`,
      which the supervisor turns into an elastic world shrink;
    * **rank_join**: raises :class:`~repro.util.errors.RankJoin`, which
      the supervisor turns into an elastic world *grow* (N→N+1).

    ``pending_world`` is the rest of the plan's
    :meth:`~repro.dist.faults.FaultPlan.trajectory` (preemptions and
    node failures already expanded), ``pending_bitrot`` the bitrot
    events not yet injected.  Both are shared, mutable state: the
    supervisor passes the same lists into every leg so an event consumed
    before a failure is not re-applied when the replayed steps pass its
    schedule slot again.  The callback raises at the trajectory's head
    entry and leaves it there; the supervisor pops it and builds the
    next leg at the entry's world.  A pending event whose step falls
    inside a replayed segment fires at the first step of the new leg —
    in a live run and in the planner's dry run alike (it is this
    callback both times).
    """

    def __init__(
        self,
        plan: FaultPlan,
        timeline: FaultTimeline,
        pending_world: list,
        pending_bitrot: list,
    ) -> None:
        self.plan = plan
        self.timeline = timeline
        self.pending_world = pending_world
        self.pending_bitrot = pending_bitrot

    def on_train_start(self, trainer: "Trainer") -> None:
        # Record whole-run link degradations once, not once per leg.
        for ev in self.plan.degraded_links:
            if any(
                e["kind"] == "degraded_link"
                and e.get("src") == ev.src
                and e.get("dst") == ev.dst
                for e in self.timeline.events
            ):
                continue
            self.timeline.record(
                ev.step, "degraded_link", src=ev.src, dst=ev.dst,
                bandwidth_scale=ev.bandwidth_scale, duration=ev.duration,
            )

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        world_size = trainer.config.world_size
        for ev in self.plan.stragglers:
            if ev.step == step and ev.rank < world_size:
                # A straggler window whose start step falls inside a
                # replayed segment would otherwise be re-recorded by the
                # post-recovery leg (the time penalty *is* re-charged —
                # the replayed steps really run slow again — but the
                # schedule entry is one event).
                if any(
                    e["kind"] == "straggler"
                    and e["step"] == step
                    and e.get("rank") == ev.rank
                    and e.get("slowdown") == ev.slowdown
                    for e in self.timeline.events
                ):
                    continue
                self.timeline.record(
                    step, "straggler", rank=ev.rank, slowdown=ev.slowdown,
                    duration=ev.duration,
                )

        if (
            trainer.state.checkpoints_written
            and trainer.state.checkpoints_written[-1] == step
        ):
            for ev in [e for e in self.pending_bitrot if e.step <= step]:
                if ev.rank >= world_size:
                    continue  # the target rank no longer exists
                if ev.group >= len(trainer.engine.group_meta):
                    # The model has no such group: the event can never
                    # fire — drop it loudly instead of crashing the run.
                    self.pending_bitrot.remove(ev)
                    self.timeline.record(
                        step, "bitrot_skipped", rank=ev.rank, group=ev.group,
                        reason="group does not exist",
                    )
                    continue
                trainer.join_checkpoint()  # the checkpoint must be on disk to rot
                try:
                    shard = inject_bitrot(
                        checkpoint_dir(trainer.storage.root, step), ev.rank, ev.group
                    )
                except CheckpointError:
                    # Partial strategies write slot-filtered shards; a
                    # checkpoint not carrying the group leaves the event
                    # pending for a later checkpoint that does.
                    continue
                self.pending_bitrot.remove(ev)
                self.timeline.record(
                    step, "bitrot", rank=ev.rank, group=ev.group,
                    checkpoint=step, shard=shard.name,
                )
                log.warning(
                    "bitrot injected: checkpoint-%d rank %d group %d",
                    step, ev.rank, ev.group,
                )

        if not self.pending_world or self.pending_world[0][0].step > step:
            return
        ev, world = self.pending_world[0]
        if ev.kind == "rank_join":
            self.timeline.record(step, "rank_join", world_size=world_size)
            log.warning("rank join at step %d (world %d→%d)", step, world_size, world)
            raise RankJoin(step)
        detail: dict = {"rank": ev.rank, "world_size": world_size}
        if ev.restore_after is not None:
            # The death half of a preemption; the restore join is a
            # separate pending entry.
            detail["restore_after"] = ev.restore_after
        self.timeline.record(step, "rank_failure", **detail)
        log.warning("rank %d failed at step %d", ev.rank, step)
        raise RankFailure(step, ev.rank)
