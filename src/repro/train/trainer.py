"""The training loop: simulated multi-rank ZeRO-3 post-training runs.

Responsibilities:

* build the full stack (KB → corpus → tokenizer → model → tailored
  param groups → ZeRO engine → scheduler → strategy callbacks);
* run deterministic steps — the batch at step ``t`` is a pure function
  of ``(seed, t, rank, accum_index)``, so resumed runs replay the exact
  data order of uninterrupted ones; every micro-batch's forward is one
  :class:`~repro.autograd.compile.BackwardTape` capture round, so its
  ``loss.backward()`` records once and replays afterwards (bitwise the
  interpreted sweep), gradients landing in the engine's staging buffers;
* write full/partial checkpoints per the strategy, with simulated-clock
  charging for compute and I/O;
* resume from any *complete* checkpoint (including LLMTailor merges),
  and auto-recover from partial trails via :meth:`auto_recover`; resume
  is *elastic* — a run configured with ``world_size=M`` loads a
  checkpoint written at any world size N (the reader reshards the
  optimizer payloads N→M via :mod:`repro.dist.reshard`), and the
  world-size-invariant training math keeps the loss curve unchanged;
* survive a :class:`~repro.dist.faults.FaultPlan`:
  :class:`ChaosSupervisor` runs training legs under injected faults —
  on a rank failure it shrinks the world N→N-1, resumes elastically
  from the last complete checkpoint (or auto-merges the partial trail),
  repairs bitrot the per-group CRCs catch by re-reading replicas, and
  records everything in a :class:`~repro.dist.faults.FaultTimeline`
  attached to the final :class:`TrainResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..autograd.compile import BackwardTape
from ..core.tailor import LLMTailor
from ..data.datasets import Batch, CPTDataset, SFTDataset
from ..data.facts import MedicalKB
from ..data.synthetic import medqa_like_pairs, pubmed_like_corpus
from ..data.tokenizer import WordTokenizer
from ..core.groups import tailored_param_groups
from ..dist.faults import (
    ChaosComm,
    FaultPlan,
    FaultTimeline,
    GoodputReport,
    repair_from_replicas,
)
from ..dist.zero import ZeroStage3Engine
from ..io.layout import CheckpointPaths, checkpoint_dir, list_checkpoint_steps, read_latest
from ..io.reader import load_checkpoint
from ..io.storage import Storage
from ..io.writer import save_checkpoint
from ..nn.config import ModelConfig, get_config
from ..nn.model import CausalLM, build_model
from ..optim.lr_scheduler import build_scheduler
from ..optim.optimizer import clip_grad_norm_
from ..strategies.base import build_strategy
from ..util.errors import (
    CheckpointError,
    MergeError,
    RankJoin,
    SimulatedFailure,
    TrainingError,
)
from ..util.logging import get_logger
from .callbacks import (
    Callback,
    ChaosCallback,
    CheckpointCallback,
    FailureInjector,
    LoggingCallback,
)
from .config import TrainConfig
from .state import TrainerState

__all__ = ["ChaosSupervisor", "Trainer", "TrainResult", "train_with_faults"]

log = get_logger("train.trainer")


@dataclass
class TrainResult:
    """Outcome of a (possibly interrupted) training run."""

    final_step: int
    final_train_loss: float
    final_eval_loss: float
    interrupted_at: int | None = None
    checkpoints: list[int] = field(default_factory=list)
    clock: dict[str, float] = field(default_factory=dict)
    checkpoint_time_fraction: float = 0.0
    total_checkpoint_bytes: float = 0.0
    # Cumulative ring-model collective traffic from the engine's SimComm
    # (bytes/calls per op), so the sharding tax is part of the run record.
    comm_traffic: dict[str, dict] = field(default_factory=dict)
    # The rank whose scheduled death interrupted the leg (fault plans
    # only); the supervisor shrinks the world when this is set.
    failed_rank: int | None = None
    # A scheduled capacity arrival interrupted the leg (fault plans
    # only); the supervisor grows the world when this is set.
    rank_joined: bool = False
    # Flight recorder of injected faults and recoveries (fault plans only).
    fault_timeline: FaultTimeline | None = None
    # Goodput accounting across all legs (chaos supervisor runs only).
    goodput: GoodputReport | None = None

    def summary(self) -> str:
        """One-line recap: status, losses, checkpoint-time fraction."""
        status = (
            f"failed at step {self.interrupted_at}"
            if self.interrupted_at is not None
            else f"completed at step {self.final_step}"
        )
        return (
            f"training {status}: train loss {self.final_train_loss:.4f}, "
            f"eval loss {self.final_eval_loss:.4f}, "
            f"ckpt time fraction {self.checkpoint_time_fraction * 100:.2f}%"
        )


class Trainer:
    """Deterministic simulated ZeRO-3 training runs (see module docs).

    Built from one :class:`~repro.train.config.TrainConfig`; an optional
    ``fault_plan`` attaches the chaos engine to this leg — the engine's
    collectives are wrapped in a :class:`~repro.dist.faults.ChaosComm`
    charging penalized time into the simulated clock, and a
    :class:`~repro.train.callbacks.ChaosCallback` applies scheduled
    bitrot and rank failures.  Multi-leg recovery (shrink + resume) is
    :class:`ChaosSupervisor`'s job, not the trainer's.
    """

    def __init__(
        self,
        config: TrainConfig,
        *,
        fault_plan: FaultPlan | None = None,
        fault_timeline: FaultTimeline | None = None,
        _chaos_pending: tuple[list, list] | None = None,
    ) -> None:
        self.config = config
        self.storage = Storage(config.output_dir)

        # Data substrate (shared KB drives training *and* evaluation).
        self.kb = MedicalKB.build(config.kb_seed)
        model_cfg_base = get_config(config.model)
        if config.task == "cpt":
            texts = pubmed_like_corpus(self.kb, n_docs=config.n_corpus_docs, seed=config.seed)
        else:
            pairs = medqa_like_pairs(self.kb, n_pairs=config.n_sft_pairs, seed=config.seed)
            texts = [p.question + " " + p.answer for p in pairs]
        self.tokenizer = WordTokenizer.train(texts, vocab_size=model_cfg_base.vocab_size)

        # Model vocabulary matches the tokenizer exactly.
        self.model_config: ModelConfig = model_cfg_base.replace(
            vocab_size=self.tokenizer.vocab_size,
            max_position_embeddings=max(model_cfg_base.max_position_embeddings, config.seq_len),
        )
        self.model: CausalLM = build_model(self.model_config, seed=config.seed)

        if config.task == "cpt":
            self.dataset: CPTDataset | SFTDataset = CPTDataset(
                texts, self.tokenizer, seq_len=config.seq_len, seed=config.seed
            )
        else:
            self.dataset = SFTDataset(
                pairs, self.tokenizer, seq_len=config.seq_len, seed=config.seed
            )

        # Regroup the optimizer BEFORE training (paper §4.1), then shard.
        groups = tailored_param_groups(self.model, self.model_config, config.weight_decay)
        self.engine = ZeroStage3Engine(
            self.model,
            self.model_config,
            groups,
            world_size=config.world_size,
            lr=config.lr,
            betas=config.betas,
            eps=config.eps,
            topology=config.resolved_topology,
        )
        self.scheduler = build_scheduler(
            config.scheduler,
            self.engine.reference_optimizer,
            warmup_steps=config.warmup_steps,
            total_steps=config.total_steps,
        )

        # Backward-tape compiler: record the first micro-batch's backward,
        # replay it for every later one (bitwise-identical).  Gradients
        # are donated straight into the engine's reduce-scatter staging
        # buffers, so the tape's terminal writes are the collective's
        # inputs.
        self.tape = BackwardTape(donate=self.engine.grad_donation_views())

        self.strategy = build_strategy(
            config.checkpoint_strategy,
            self.model_config,
            config.checkpoint_interval,
            **config.strategy_kwargs,
        )
        self.state = TrainerState()
        self.callbacks: list[Callback] = [
            LoggingCallback(config.log_every),
            CheckpointCallback(self.strategy),
        ]
        if config.failure_step is not None:
            self.callbacks.append(FailureInjector(config.failure_step))

        # Chaos engine attachment (fault plans): wrap the collectives in
        # the time-charging communicator and register the fault callback
        # last, so the step's checkpoint is on disk before bitrot or a
        # rank failure touches it.
        self.fault_plan = fault_plan
        self.fault_timeline = fault_timeline
        self._chaos: ChaosCallback | None = None
        if fault_plan is not None:
            if _chaos_pending is None:
                # Standalone use: the supervisor validates once up front,
                # legs after a shrink would fail re-validation (events may
                # reference ranks the smaller world no longer has).
                fault_plan.validate(
                    config.world_size, config.total_steps,
                    topology=config.resolved_topology,
                )
            self.fault_timeline = fault_timeline or FaultTimeline()
            # ChaosComm adopts the engine communicator's topology (if
            # hierarchical), pricing each link class at its bandwidth.
            self.engine.comm = ChaosComm(
                self.engine.comm, fault_plan, clock=self.storage.clock
            )
            pending_world, pending_bitrot = _chaos_pending or (None, None)
            self._chaos = ChaosCallback(
                fault_plan,
                self.fault_timeline,
                pending_world=pending_world,
                pending_bitrot=pending_bitrot,
                topology=config.resolved_topology,
            )
            self.callbacks.append(self._chaos)

    # -- paths --------------------------------------------------------------------

    @property
    def decision_log_path(self) -> Path:
        """Where the strategy's checkpoint decisions are persisted."""
        return Path(self.config.output_dir) / "ckpt_decisions.json"

    # -- one training step -----------------------------------------------------------

    def _micro_batch(self, step: int, rank: int, accum: int) -> Batch:
        tag = f"train/rank{rank}/acc{accum}"
        return self.dataset.batch_at_step(step, self.config.micro_batch_size, tag=tag)

    def train_step(self, step: int) -> float:
        """Forward/backward over every rank's micro-batches, then update.

        Each micro-batch is one tape round: the forward is captured and
        ``loss.backward()`` runs through :attr:`tape`.
        """
        cfg = self.config
        if self.fault_plan is not None:
            # Position the fault schedule before the step's collectives
            # so window-scoped penalties charge exactly their steps.
            self.engine.comm.set_step(step)
        self.engine.zero_grad()
        n_micro = cfg.world_size * cfg.grad_accum_steps
        total_loss = 0.0
        for rank in range(cfg.world_size):
            for accum in range(cfg.grad_accum_steps):
                batch = self._micro_batch(step, rank, accum)
                with self.tape.capture():
                    loss = self.model.loss(batch.input_ids, batch.labels)
                loss.backward()
                total_loss += loss.item()
        # Average accumulated gradients over all micro-batches.
        inv = 1.0 / n_micro
        for p in self.model.parameters():
            if p.grad is not None:
                p.grad *= inv
        if cfg.grad_clip > 0:
            clip_grad_norm_(list(self.model.parameters()), cfg.grad_clip)
        self.engine.step()
        self.scheduler.step()
        self.storage.charge_compute(cfg.sim_step_seconds, "compute")
        if self.fault_plan is not None:
            # A synchronous step is paced by its slowest rank: charge the
            # straggler tax on top of the nominal step time.
            slowdown = self.fault_plan.compute_slowdown(step, cfg.world_size)
            if slowdown > 1.0:
                self.storage.charge_compute(
                    (slowdown - 1.0) * cfg.sim_step_seconds, "fault_straggler"
                )
        return total_loss / n_micro

    # -- checkpointing --------------------------------------------------------------------

    def write_checkpoint(self, step: int, *, slots: list[str] | None, strategy_name: str) -> CheckpointPaths:
        """Write a (possibly partial) checkpoint for ``step`` and record it."""
        self.state.learning_rate = self.scheduler.get_last_lr()[0]
        self.state.checkpoints_written.append(step)
        return save_checkpoint(
            self.storage,
            step=step,
            model=self.model,
            config=self.model_config,
            engine=self.engine,
            trainer_state=self.state.to_dict(),
            training_args=self.config.to_dict(),
            scheduler_state=self.scheduler.state_dict(),
            rng_state={"seed": self.config.seed, "sampling": "stateless-step-indexed"},
            slots=slots,
            strategy=strategy_name,
        )

    # -- the loop ----------------------------------------------------------------------------

    def train(self, until_step: int | None = None) -> TrainResult:
        """Run from the current state to ``until_step`` (default: config).

        Returns a :class:`TrainResult`; an injected failure is reported
        via ``interrupted_at`` rather than propagating.
        """
        total = self.config.total_steps
        target = total if until_step is None else min(until_step, total)
        for cb in self.callbacks:
            cb.on_train_start(self)
        interrupted: int | None = None
        failed_rank: int | None = None
        rank_joined = False
        step = self.state.global_step
        try:
            while step < target:
                step = self.state.global_step + 1
                loss = self.train_step(step)
                self.state.global_step = step
                for cb in self.callbacks:
                    cb.on_step_end(self, step, loss)
        except SimulatedFailure as failure:
            interrupted = failure.step
            failed_rank = getattr(failure, "rank", None)
            rank_joined = isinstance(failure, RankJoin)
        for cb in self.callbacks:
            cb.on_train_end(self)

        final_train = self.state.recent_loss()
        if final_train is None:
            final_train = float("nan")
        final_eval = self.eval_loss()
        clock = self.storage.clock.snapshot()
        comm = self.engine.comm.stats
        return TrainResult(
            final_step=self.state.global_step,
            final_train_loss=final_train,
            final_eval_loss=final_eval,
            interrupted_at=interrupted,
            checkpoints=list(self.state.checkpoints_written),
            clock=clock,
            checkpoint_time_fraction=self.storage.clock.fraction("checkpoint_write"),
            total_checkpoint_bytes=self.storage.stats.category_bytes("checkpoint_write"),
            comm_traffic={
                "bytes_by_op": dict(comm.bytes_by_op),
                "calls_by_op": dict(comm.calls_by_op),
            },
            failed_rank=failed_rank,
            rank_joined=rank_joined,
            fault_timeline=self.fault_timeline,
        )

    # -- evaluation -------------------------------------------------------------------------------

    def eval_loss(self, max_batches: int = 6) -> float:
        """Mean cross entropy over deterministic evaluation batches."""
        from ..autograd.tensor import no_grad

        losses = []
        with no_grad():
            for batch in self.dataset.eval_batches(self.config.micro_batch_size, max_batches):
                loss = self.model.loss(batch.input_ids, batch.labels)
                losses.append(loss.item())
        return float(np.mean(losses)) if losses else float("nan")

    # -- resume / recovery -----------------------------------------------------------------------------

    def resume_from(self, checkpoint: str | Path | CheckpointPaths) -> int:
        """Load a complete checkpoint and position the trainer after it.

        The checkpoint's world size need not match this run's: a
        mismatch is resharded in memory during the load (elastic
        resume), so shrinking or growing the simulated fleet between
        runs needs no separate conversion step.
        """
        paths = checkpoint if isinstance(checkpoint, CheckpointPaths) else CheckpointPaths(checkpoint)
        loaded = load_checkpoint(
            paths,
            model=self.model,
            config=self.model_config,
            engine=self.engine,
            storage=self.storage,
        )
        self.state = TrainerState.from_dict(loaded.trainer_state)
        self.state.global_step = loaded.step
        if loaded.scheduler_state:
            self.scheduler.load_state_dict(loaded.scheduler_state)
        log.info("resumed from %s at step %d", paths.dir, loaded.step)
        return loaded.step

    def resume_latest(self) -> int:
        """Resume from the run's ``latest`` pointer; returns the step."""
        paths = read_latest(self.storage.root)
        if paths is None:
            raise TrainingError(f"no 'latest' checkpoint under {self.storage.root}")
        return self.resume_from(paths)

    def auto_recover(self, failure_step: int, *, workers: int = 1) -> CheckpointPaths:
        """Merge the partial-checkpoint trail and resume (paper T2+T3).

        Builds the recipe from the manifests on disk, merges into
        ``<output_dir>/merged-<step>``, loads it, and returns its paths.
        """
        tailor = LLMTailor.from_checkpoints(
            self.storage.root, failure_step=failure_step, workers=workers
        )
        base_step = CheckpointPaths(tailor.recipe.base_checkpoint).step
        output = Path(self.storage.root) / f"merged-{base_step}"
        result = tailor.merge(output=output)
        log.info("auto-recovery merge: %s", result.summary().replace("\n", " | "))
        self.resume_from(result.output)
        return result.output


# ---------------------------------------------------------------------------
# Chaos supervisor: multi-leg runs under a fault plan
# ---------------------------------------------------------------------------

class ChaosSupervisor:
    """Runs a training experiment to completion under a fault plan.

    Each *leg* is one :class:`Trainer` at a fixed world size.  When a
    scheduled rank failure interrupts a leg, the supervisor:

    1. shrinks the world to the N-1 survivors,
    2. resumes from the newest *complete* checkpoint at or before the
       failure — elastically: the checkpoint's world size need not
       match, the reader reshards the optimizer payloads in memory — or,
       when the trail is partial (parity/filtered/magnitude strategies),
       auto-merges it into a complete checkpoint first,
    3. on a per-group CRC failure during that load (bitrot), restores
       the corrupted shards from their ``.replica`` copies and retries
       the resume — detection is loud, recovery re-reads, and silent
       corruption is structurally impossible,
    4. replays the lost steps and continues.

    A scheduled ``rank_join`` (or the restore half of a ``preemption``)
    runs the same machinery in the *grow* direction: the current world
    is synced to a complete checkpoint at the join step (reusing the
    step's own checkpoint when the leg just wrote one), the world grows
    N→N+1, and the new leg resumes through the elastic reshard path —
    no steps are lost and the newcomer enters as the highest rank.

    Because training math is world-size invariant and the data order is
    a pure function of ``(seed, step, rank)``, a chaos run that fails at
    step *k* and shrinks — or grows at a join — produces
    **bitwise-identical** final weights to an uninterrupted run at the
    final world size resumed from the same checkpoint — the invariant
    ``tests/test_faults.py`` pins for trajectories like 2→3→2.

    The aggregated :class:`TrainResult` sums simulated clock and
    collective traffic across legs, carries the
    :class:`~repro.dist.faults.FaultTimeline`, and reports goodput —
    useful steps per simulated stepping second — via
    :class:`~repro.dist.faults.GoodputReport`.

    With ``resume=True`` the supervisor continues a previous chaos run
    (soak continuation): it restarts from the newest complete
    checkpoint under ``config.output_dir``, treats every scheduled
    world event at or before that step as already applied (the world
    size the surviving schedule implies is cross-checked against the
    checkpoint's manifest), and runs the remaining legs.
    """

    def __init__(
        self,
        config: TrainConfig,
        plan: FaultPlan,
        *,
        merge_workers: int = 1,
        resume: bool = False,
    ) -> None:
        plan.validate(
            config.world_size, config.total_steps,
            topology=config.resolved_topology,
        )
        self.config = config
        self.plan = plan
        self.merge_workers = merge_workers
        self.resume = resume
        self.timeline = FaultTimeline()
        self._pending_world = list(plan.world_events(config.resolved_topology))
        self._pending_bitrot = list(plan.bitrot_events)
        self._start_step = 0
        self.trainer: Trainer | None = None

    def _build(self, config: TrainConfig) -> Trainer:
        return Trainer(
            config,
            fault_plan=self.plan,
            fault_timeline=self.timeline,
            _chaos_pending=(self._pending_world, self._pending_bitrot),
        )

    @staticmethod
    def _clock_total(trainer: Trainer) -> float:
        return trainer.storage.clock.snapshot().get("__total__", 0.0)

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
            event_step = results[-1].interrupted_at
            if results[-1].rank_joined:
                grown = cfg.world_size + 1
                # Sync the current world to a complete checkpoint; its
                # clock/byte deltas are folded back into the leg's
                # already-snapshotted result.
                source = self._join_checkpoint(trainer, event_step)
                results[-1].clock = trainer.storage.clock.snapshot()
                results[-1].total_checkpoint_bytes = (
                    trainer.storage.stats.category_bytes("checkpoint_write")
                )
                results[-1].checkpoints = list(trainer.state.checkpoints_written)
                log.warning(
                    "supervisor: rank joined at step %d; growing world %d -> %d",
                    event_step, cfg.world_size, grown,
                )
                cfg = cfg.replace(world_size=grown)
                trainer = self._build(cfg)
                clock0 = self._clock_total(trainer)
                resume_step = trainer.resume_from(source)
                self.timeline.recovery_seconds += self._clock_total(trainer) - clock0
                source_world = int(source.read_manifest()["world_size"])
                if source_world != cfg.world_size:
                    self.timeline.reshard_loads += source_world
                    self.timeline.reshard_bytes += sum(
                        source.shard(r).stat().st_size for r in range(source_world)
                    )
                self.timeline.recoveries += 1
                self.timeline.grows += 1
                self.timeline.record(
                    event_step, "recovery", world_size=grown,
                    resumed_from=resume_step, lost_steps=0,
                    source=source.dir.name, grow=True,
                )
            else:
                survivors = cfg.world_size - 1
                if survivors < 1:  # pragma: no cover - plan.validate() forbids it
                    raise TrainingError(
                        f"rank failure at step {event_step} left no survivors"
                    )
                log.warning(
                    "supervisor: rank %d died at step %d; shrinking world %d -> %d",
                    results[-1].failed_rank, event_step, cfg.world_size, survivors,
                )
                cfg = cfg.replace(world_size=survivors)
                trainer = self._build(cfg)
                clock0 = self._clock_total(trainer)
                resume_step, resume_source = self._resume(trainer, event_step)
                self.timeline.recovery_seconds += self._clock_total(trainer) - clock0
                lost = event_step - resume_step
                self.timeline.recoveries += 1
                self.timeline.lost_steps += lost
                self.timeline.record(
                    event_step, "recovery", world_size=survivors,
                    resumed_from=resume_step, lost_steps=lost, source=resume_source,
                )
            results.append(trainer.train(until_step))
        self.trainer = trainer
        return self._aggregate(results)

    def _continuation_config(self, cfg: TrainConfig) -> tuple[TrainConfig, int]:
        """Resolve a soak continuation: adopt the newest complete
        checkpoint's world size and drop already-applied schedule events.

        Events (world-size changes and bitrot) scheduled at or before
        the checkpoint step are treated as applied by the previous run;
        the world size the surviving schedule implies is cross-checked
        against the checkpoint manifest so a mismatched plan fails
        loudly instead of resuming into an impossible trajectory.
        """
        root = Path(cfg.output_dir)
        complete = [
            s for s in list_checkpoint_steps(root)
            if checkpoint_dir(root, s).read_manifest().get("complete", False)
        ]
        if not complete:
            raise TrainingError(
                f"soak continuation: no complete checkpoint under {root} "
                f"to resume the chaos run from"
            )
        step = max(complete)
        manifest_ws = int(checkpoint_dir(root, step).read_manifest()["world_size"])
        implied_ws = cfg.world_size
        for ev in list(self._pending_world):
            if ev.step <= step:
                self._pending_world.remove(ev)
                implied_ws += 1 if ev.kind == "rank_join" else -1
        self._pending_bitrot[:] = [e for e in self._pending_bitrot if e.step > step]
        if manifest_ws != implied_ws:
            raise TrainingError(
                f"soak continuation mismatch: the fault schedule implies "
                f"world_size {implied_ws} at step {step}, but checkpoint-{step} "
                f"was written at world_size {manifest_ws} (was the original run "
                f"started with a different --world-size?)"
            )
        return cfg.replace(world_size=manifest_ws), step

    def _join_checkpoint(self, trainer: Trainer, step: int) -> CheckpointPaths:
        """The complete checkpoint the grown world will resume from.

        Reuses the join step's own checkpoint when the interrupted leg
        just wrote a complete one; otherwise writes a full sync
        checkpoint now (the "old" world is still live).  Sync-write time
        is charged as recovery I/O: it exists only because the fleet is
        growing.
        """
        root = trainer.storage.root
        if step in list_checkpoint_steps(root):
            paths = checkpoint_dir(root, step)
            if paths.read_manifest().get("complete", False):
                return paths
        clock0 = self._clock_total(trainer)
        paths = trainer.write_checkpoint(step, slots=None, strategy_name="join_sync")
        self.timeline.recovery_seconds += self._clock_total(trainer) - clock0
        self.timeline.record(
            step, "join_sync", world_size=trainer.config.world_size,
            checkpoint=paths.dir.name,
        )
        return paths

    def _resume(self, trainer: Trainer, failed_step: int) -> tuple[int, str | None]:
        """Position a fresh (shrunk) trainer after the last safe point.

        Returns ``(step, source_dir_name)``: the newest complete
        checkpoint at or before the failure, the auto-merged output of a
        partial trail, or ``(0, None)`` when nothing was saved yet
        (deterministic re-initialization *is* the resume point then).
        Bitrot surfaced by the per-group CRCs is repaired from replicas
        and the load retried once.
        """
        root = trainer.storage.root
        steps = [s for s in list_checkpoint_steps(root) if s <= failed_step]
        if not steps:
            return 0, None
        complete = [
            s for s in steps
            if checkpoint_dir(root, s).read_manifest().get("complete", False)
        ]
        # Pick the *freshest* recoverable point: a complete checkpoint
        # resumes without a merge, but an auto-merged partial trail may
        # anchor at a newer step (its base is the newest contributing
        # checkpoint) and replay fewer steps.  Ties go to the complete
        # checkpoint — it is the cheaper, merge-free path.
        merge_base: int | None = None
        try:
            from ..core.autorecipe import latest_slot_coverage

            coverage, _ = latest_slot_coverage(root, failure_step=failed_step)
            # A trail that straddles a grow mixes shard world sizes (a
            # join-sync checkpoint at N next to partials at N+1) and
            # cannot be merged; only a uniform trail is a candidate.
            trail_ws = {
                int(checkpoint_dir(root, s).read_manifest()["world_size"])
                for s in set(coverage.values())
            }
            if len(trail_ws) == 1:
                merge_base = max(coverage.values())
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
                    source = CheckpointPaths(
                        trainer.auto_recover(failed_step, workers=self.merge_workers)
                    )
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
        source_world = int(source.read_manifest()["world_size"])
        if source_world != trainer.config.world_size:
            self.timeline.reshard_loads += source_world
            self.timeline.reshard_bytes += sum(
                source.shard(r).stat().st_size for r in range(source_world)
            )
        return step, source.dir.name

    def _aggregate(self, results: list[TrainResult]) -> TrainResult:
        """Fold per-leg results into one run record (clocks/traffic sum)."""
        final = results[-1]
        clock: dict[str, float] = {}
        bytes_by_op: dict[str, float] = {}
        calls_by_op: dict[str, int] = {}
        checkpoints: set[int] = set()
        total_ckpt_bytes = 0.0
        for r in results:
            for k, v in r.clock.items():
                clock[k] = clock.get(k, 0.0) + v
            for k, v in r.comm_traffic.get("bytes_by_op", {}).items():
                bytes_by_op[k] = bytes_by_op.get(k, 0.0) + v
            for k, v in r.comm_traffic.get("calls_by_op", {}).items():
                calls_by_op[k] = calls_by_op.get(k, 0) + v
            checkpoints.update(r.checkpoints)
            total_ckpt_bytes += r.total_checkpoint_bytes
        # Leg snapshots each carry their own "__total__"; the summed value
        # is the run's total simulated time — keep it out of the
        # per-category sum used for the checkpoint-time fraction.
        total_seconds = clock.pop("__total__", None)
        if total_seconds is None:
            total_seconds = sum(clock.values())
        clock["__total__"] = total_seconds
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
            checkpoints=sorted(checkpoints),
            clock=clock,
            checkpoint_time_fraction=(
                ckpt_seconds / total_seconds if total_seconds else 0.0
            ),
            total_checkpoint_bytes=total_ckpt_bytes,
            comm_traffic={"bytes_by_op": bytes_by_op, "calls_by_op": calls_by_op},
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
    merge_workers: int = 1,
) -> TrainResult:
    """One-call chaos run: build a :class:`ChaosSupervisor` and run it."""
    return ChaosSupervisor(config, plan, merge_workers=merge_workers).run(
        until_step=until_step
    )
