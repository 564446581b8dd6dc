"""The recovery policy: multi-leg chaos runs, live or as a dry run.

:class:`ChaosSupervisor` is the only definition of what a failure costs
— shrink, pick the newest recoverable point, join-sync, grow.  It drives
one *leg* (a :class:`~repro.train.trainer.Trainer` at a fixed world
size) at a time and reads the run directory only through a
:class:`~repro.io.layout.RunIndex`.  :class:`NullLeg` is a leg with no
model, data, tensors or disk;
:func:`~repro.strategies.planner.plan_fault_cost` runs the supervisor
over it, so planned and live numbers are equal by construction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..core.groups import group_numels
from ..core.plan import price_merge
from ..dist.comm import SimComm
from ..dist.faults import FaultPlan, FaultTimeline, GoodputReport, repair_from_replicas
from ..io.layout import CheckpointPaths, CheckpointSizes, RunIndex, checkpoint_dir
from ..io.reader import price_resume
from ..io.storage import Ledger, StorageCostModel
from ..io.writer import price_save
from ..nn.config import ModelConfig
from ..nn.slots import model_slots
from ..strategies.base import build_strategy
from ..strategies.planner import nominal_manifest
from ..util.errors import CheckpointError, MergeError, TrainingError
from ..util.logging import get_logger
from .callbacks import CheckpointCallback
from .config import TrainConfig
from .state import TrainerState
from .trainer import Trainer, TrainResult

__all__ = ["ChaosSupervisor", "NullLeg", "train_with_faults"]

log = get_logger("train.supervisor")


class ChaosSupervisor:
    """Runs a training experiment to completion under a fault plan.

    Each *leg* is one :class:`Trainer` at a fixed world size
    (``docs/faults.md`` walks through a run).  A scheduled rank failure
    shrinks the world N→N-1 and resumes — elastically, the reader
    reshards in memory — from the *freshest recoverable point*: the
    newest complete checkpoint at or before the failure, or the
    auto-merge of a partial trail when that anchors at a newer step; a
    per-group CRC failure during the load (bitrot) restores the shards
    from their ``.replica`` copies and retries once.  A ``rank_join``
    (or a preemption's restore half) syncs the current world to a
    complete checkpoint at the join step (reusing the step's own when
    the leg just wrote one), grows N→N+1 and resumes from it, losing no
    steps.  Training math is world-size invariant and the data order is
    a pure function of ``(seed, step, rank)``, so the final weights are
    **bitwise** those of a clean run at the final world size resumed
    from the same checkpoint (``tests/test_faults.py``).

    The aggregated :class:`TrainResult` sums clock and collective
    traffic across legs and carries the
    :class:`~repro.dist.faults.FaultTimeline` and
    :class:`~repro.dist.faults.GoodputReport`.  ``resume=True``
    continues a previous chaos run (soak continuation) from the newest
    complete checkpoint under ``config.output_dir``, treating every
    world event at or before it as applied.

    ``_leg`` is the private seam of the dry run: the callable building
    one leg (default :class:`Trainer`).  Every decision reads the run
    through ``leg.run_index()`` and touches it through the leg's
    ``write_checkpoint`` / ``resume_from`` / ``auto_recover``, so a
    :class:`NullLeg` exercises exactly this control flow.
    """

    def __init__(
        self,
        config: TrainConfig,
        plan: FaultPlan,
        *,
        resume: bool = False,
        _leg: Callable[..., Trainer] = Trainer,
    ) -> None:
        # The world trajectory still to fire: the callback raises at the
        # head entry, and ``run`` pops it to build the next leg at its world.
        self._pending_world = plan.validate(
            config.world_size, config.total_steps, topology=config.resolved_topology
        )
        self.config = config
        self.plan = plan
        self.resume = resume
        self.timeline = FaultTimeline()
        self._leg = _leg
        self._pending_bitrot = list(plan.bitrot_events)
        self._start_step = 0
        self.trainer: Trainer | None = None

    def _build(self, config: TrainConfig) -> Trainer:
        return self._leg(
            config, fault_plan=self.plan, fault_timeline=self.timeline,
            _chaos_pending=(self._pending_world, self._pending_bitrot),
        )

    def run(self, until_step: int | None = None) -> TrainResult:
        """Execute every leg and return the aggregated result."""
        cfg = self.config
        if self.resume:
            cfg, start_step = self._continuation_config(cfg)
            self._start_step = start_step
            trainer = self._build(cfg)
            source = checkpoint_dir(trainer.storage.root, start_step)
            trainer.resume_from(source)
            self.timeline.record(
                start_step, "soak_resume", world_size=cfg.world_size,
                source=source.dir.name,
            )
        else:
            trainer = self._build(cfg)
        results = [trainer.train(until_step)]
        while results[-1].failed_rank is not None or results[-1].rank_joined:
            last, event_step = results[-1], results[-1].interrupted_at
            grow = last.rank_joined
            _, world = self._pending_world.pop(0)
            if grow:
                # Sync the current world to a complete checkpoint; its
                # clock/byte deltas are folded back into the leg's
                # already-snapshotted result.
                source = self._join_checkpoint(trainer, event_step)
                last.clock = trainer.storage.clock.snapshot()
                last.total_checkpoint_bytes = (
                    trainer.storage.stats.category_bytes("checkpoint_write")
                )
                last.checkpoints = list(trainer.state.checkpoints_written)
            log.warning(
                "supervisor: %s at step %d; world %d -> %d",
                "rank joined" if grow else f"rank {last.failed_rank} died",
                event_step, cfg.world_size, world,
            )
            cfg = cfg.replace(world_size=world)
            trainer = self._build(cfg)
            clock0 = trainer.storage.clock.total()
            if grow:
                resume_step, source_name = trainer.resume_from(source), source.dir.name
                self._count_reshard(trainer, trainer.run_index(), source_name)
            else:
                resume_step, source_name = self._resume(trainer, event_step)
            self.timeline.recovery_seconds += trainer.storage.clock.total() - clock0
            lost = event_step - resume_step  # a grow resumes at the join step
            self.timeline.recoveries += 1
            self.timeline.grows += int(grow)
            self.timeline.lost_steps += lost
            self.timeline.record(
                event_step, "recovery", world_size=world,
                resumed_from=resume_step, lost_steps=lost, source=source_name,
                **({"grow": True} if grow else {}),
            )
            results.append(trainer.train(until_step))
        self.trainer = trainer
        return self._aggregate(results)

    def _continuation_config(self, cfg: TrainConfig) -> tuple[TrainConfig, int]:
        """Resolve a soak continuation: adopt the newest complete
        checkpoint's world size and drop the events (world changes and
        bitrot) scheduled at or before it as already applied.  The world
        size the surviving schedule implies must match the manifest, so
        a mismatched plan fails loudly.
        """
        index = RunIndex(cfg.output_dir)
        complete = index.complete_steps()
        if not complete:
            raise TrainingError(
                f"soak continuation: no complete checkpoint under {index.root} "
                f"to resume the chaos run from"
            )
        step = max(complete)
        manifest_ws = index.world_size(step)
        applied = [e for e in self._pending_world if e[0].step <= step]
        del self._pending_world[:len(applied)]
        world = applied[-1][1] if applied else cfg.world_size
        self._pending_bitrot[:] = [e for e in self._pending_bitrot if e.step > step]
        if manifest_ws != world:
            raise TrainingError(
                f"soak continuation mismatch: the fault schedule implies "
                f"world_size {world} at step {step}, but checkpoint-{step} "
                f"was written at world_size {manifest_ws} (was the original run "
                f"started with a different --world-size?)"
            )
        return cfg.replace(world_size=manifest_ws), step

    def _join_checkpoint(self, trainer: Trainer, step: int) -> CheckpointPaths:
        """The complete checkpoint the grown world will resume from: the
        join step's own when the interrupted leg just wrote a complete
        one, else a full sync checkpoint written now (the old world is
        still live) and charged as recovery I/O.
        """
        index = trainer.run_index()
        if step in index.steps() and index.is_complete(step):
            return checkpoint_dir(trainer.storage.root, step)
        clock0 = trainer.storage.clock.total()  # run_index joined any write in flight
        paths = trainer.write_checkpoint(step, slots=None, strategy_name="join_sync")
        trainer.join_checkpoint()
        self.timeline.recovery_seconds += trainer.storage.clock.total() - clock0
        self.timeline.record(
            step, "join_sync", world_size=trainer.config.world_size,
            checkpoint=paths.dir.name,
        )
        return paths

    def _resume(self, trainer: Trainer, failed_step: int) -> tuple[int, str | None]:
        """Position a fresh (shrunk) trainer after the last safe point.

        Returns ``(step, source_dir_name)``: the newest complete
        checkpoint at or before the failure, the auto-merged partial
        trail, or ``(0, None)`` when nothing was saved (deterministic
        re-initialization *is* the resume point then).  Bitrot the CRCs
        catch is repaired from replicas and the load retried once.
        """
        root = trainer.storage.root
        index = trainer.run_index()
        complete = index.complete_steps(failed_step)
        # Pick the *freshest* recoverable point: a complete checkpoint
        # resumes without a merge, but an auto-merged partial trail may
        # anchor at a newer step (its base is the newest contributing
        # checkpoint) and replay fewer steps.  Ties go to the complete
        # checkpoint — it is the cheaper, merge-free path.
        merge_base: int | None = None
        try:
            sources = set(index.slot_coverage(failed_step).values())
            # A trail that straddles a grow mixes shard world sizes (a
            # join-sync checkpoint at N next to partials at N+1) and
            # cannot be merged; only a uniform trail is a candidate.
            if len({index.world_size(s) for s in sources}) == 1:
                merge_base = max(sources)
        except MergeError:
            pass  # incomplete coverage: the trail alone cannot recover
        use_complete = bool(complete) and (
            merge_base is None or max(complete) >= merge_base
        )
        for attempt in (0, 1):
            try:
                if use_complete:
                    source = checkpoint_dir(root, max(complete))
                    step = trainer.resume_from(source)
                elif merge_base is not None:
                    source = CheckpointPaths(trainer.auto_recover(failed_step))
                    step = trainer.state.global_step
                else:
                    return 0, None  # nothing recoverable: restart from init
                break
            except (CheckpointError, MergeError) as err:
                repaired = repair_from_replicas(root)
                if not repaired or attempt:
                    raise
                self.timeline.bitrot_detected += 1
                self.timeline.bitrot_repaired += len(repaired)
                self.timeline.record(
                    failed_step, "bitrot_recovery",
                    repaired=[p.name for p in repaired], error=str(err)[:160],
                )
                log.warning(
                    "supervisor: CRC failure during resume (%s); restored %d "
                    "replica(s), retrying", err, len(repaired),
                )
        self._count_reshard(trainer, index, source.dir.name)
        return step, source.dir.name

    def _count_reshard(self, trainer: Trainer, index: RunIndex, source: str) -> None:
        """Account the elastic load when ``source`` was written at a
        world size other than the resuming leg's."""
        source_world = index.world_size(source)
        if source_world != trainer.config.world_size:
            self.timeline.reshard_loads += source_world
            self.timeline.reshard_bytes += index.shard_nbytes(source)

    def _aggregate(self, results: list[TrainResult]) -> TrainResult:
        """Fold per-leg results into one run record (clocks/traffic sum)."""

        def summed(per_leg) -> dict:
            out: dict = {}
            for leg in per_leg:
                for k, v in leg.items():
                    out[k] = out.get(k, 0) + v
            return out

        final = results[-1]
        # Every leg snapshot carries its own "__total__"; their sum is the
        # run's total simulated time.
        clock = summed(r.clock for r in results)
        total_seconds = clock["__total__"]
        ckpt_seconds = sum(
            v for k, v in clock.items() if k.startswith("checkpoint_write")
        )
        # Goodput: useful steps per simulated second the fleet spends
        # stepping (useful + replayed + stalled); recovery I/O is
        # reported alongside but excluded from the denominator — see
        # GoodputReport.  For soak continuations only the steps this
        # invocation executed count as useful.
        useful_steps = max(0, final.final_step - self._start_step)
        goodput = GoodputReport(
            useful_steps=useful_steps,
            lost_steps=self.timeline.lost_steps,
            useful_seconds=useful_steps * self.config.sim_step_seconds,
            lost_seconds=self.timeline.lost_steps * self.config.sim_step_seconds,
            stall_seconds=(
                clock.get("fault_straggler", 0.0) + clock.get("comm", 0.0)
            ),
            recovery_seconds=self.timeline.recovery_seconds,
        )
        return TrainResult(
            final_step=final.final_step,
            final_train_loss=final.final_train_loss,
            final_eval_loss=final.final_eval_loss,
            interrupted_at=final.interrupted_at,
            checkpoints=sorted({s for r in results for s in r.checkpoints}),
            clock=clock,
            checkpoint_time_fraction=(
                ckpt_seconds / total_seconds if total_seconds else 0.0
            ),
            total_checkpoint_bytes=sum(r.total_checkpoint_bytes for r in results),
            comm_traffic={
                op: summed(r.comm_traffic.get(op, {}) for r in results)
                for op in ("bytes_by_op", "calls_by_op")
            },
            failed_rank=final.failed_rank,
            rank_joined=final.rank_joined,
            fault_timeline=self.timeline,
            goodput=goodput,
        )


def train_with_faults(
    config: TrainConfig,
    plan: FaultPlan,
    *,
    until_step: int | None = None,
) -> TrainResult:
    """One-call chaos run: build a :class:`ChaosSupervisor` and run it."""
    supervisor = ChaosSupervisor(config, plan)
    return supervisor.run(until_step=until_step)


# ---------------------------------------------------------------------------
# The null leg: the supervisor's dry run
# ---------------------------------------------------------------------------

class NullLeg(Trainer):
    """A training leg with no model, data, tensors or disk.

    :meth:`Trainer.train` and the callbacks are inherited; the work is
    replaced, the accounting is not.  A step charges the engine's
    collectives (:meth:`SimComm.charge_step
    <repro.dist.comm.SimComm.charge_step>`) to the same fault-priced
    :class:`~repro.dist.comm.SimComm` and clock a live leg builds, then
    :meth:`Trainer._charge_step_time`.  Checkpoint writes and resumes
    charge the live prices (:func:`~repro.io.writer.price_save`,
    :func:`~repro.io.reader.price_resume`) *nominal* bytes (12 B/param
    optimizer + storage-dtype weights) on the storage
    :class:`~repro.io.storage.Ledger`, a merge charges the merge's one
    price (:func:`~repro.core.plan.price_merge`) over those sizes, and
    manifests live in ``disk``, the dict-backed
    :class:`~repro.io.layout.RunIndex` every leg of the run shares.
    ``bitrot`` events are not priced: there are no bytes to corrupt.
    """

    def __init__(
        self, config: TrainConfig, *, model_config: ModelConfig, disk: RunIndex,
        cost_model: StorageCostModel | None = None,
        fault_plan: FaultPlan, fault_timeline: FaultTimeline,
        _chaos_pending: tuple[list, list],
    ) -> None:
        self.config = config
        self.model_config = model_config
        self.model = None
        self.disk = disk
        self.storage = Ledger(cost_model, root=disk.root)
        self.comm = SimComm(config.world_size, config.resolved_topology)
        self._group_numels = group_numels(model_config, config.weight_decay)
        self.strategy = build_strategy(
            config.checkpoint_strategy, model_config,
            config.checkpoint_interval, **config.strategy_kwargs,
        )
        self.state = TrainerState()
        self.callbacks = [CheckpointCallback(self.strategy)]
        self._attach_chaos(fault_plan, fault_timeline, (_chaos_pending[0], []))

    def run_index(self) -> RunIndex:
        return self.disk

    def train_step(self, step: int) -> float:
        self.comm.set_step(step)
        self.comm.charge_step(self._group_numels)
        self._charge_step_time(step)
        return float("nan")

    def eval_loss(self, max_batches: int = 6) -> float:
        return float("nan")

    def write_checkpoint(
        self, step: int, *, slots: list[str] | None, strategy_name: str,
        keep_last: int | None = None,
    ) -> CheckpointPaths:
        """Index what ``save_checkpoint`` would record (plus the nominal
        bytes) and charge its write; nothing is in flight, nothing pruned."""
        self.state.checkpoints_written.append(step)
        manifest = nominal_manifest(
            self.model_config, model_slots(self.model_config) if slots is None else slots,
            world_size=self.config.world_size, step=step, strategy=strategy_name,
        )
        price_save(self.storage, manifest["weight_nbytes"], manifest["shard_nbytes"],
                   manifest["world_size"], category=f"checkpoint_write.{strategy_name}")
        self.disk.record(f"checkpoint-{step}", manifest)
        return checkpoint_dir(self.storage.root, step)

    def resume_from(self, checkpoint: str | Path | CheckpointPaths) -> int:
        manifest = self.disk.manifest(CheckpointPaths(checkpoint).dir.name)
        price_resume(self.storage, manifest["weight_nbytes"], manifest["shard_nbytes"],
                     manifest["world_size"])
        self.state = TrainerState(global_step=manifest["step"])
        return manifest["step"]

    def auto_recover(self, failure_step: int) -> CheckpointPaths:
        """The merge's one price over the indexed trail, then the resume; the
        output keeps the base's (the newest source's) step and geometry."""
        coverage = self.disk.slot_coverage(failure_step)
        price_merge(
            self.storage, self.model_config, coverage,
            lambda step: CheckpointSizes.nominal(self.disk.manifest(step), self.model_config),
            cache_mode="per-checkpoint",
        )
        base = max(coverage.values())
        output = CheckpointPaths(self.storage.root / f"merged-{base}")
        self.disk.record(output.dir.name, nominal_manifest(
            self.model_config, model_slots(self.model_config),
            world_size=self.disk.world_size(base), step=base, strategy="merged",
        ))
        self.resume_from(output)
        return output
