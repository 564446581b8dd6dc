"""The training loop: simulated multi-rank ZeRO-3 post-training runs.

Responsibilities:

* build the full stack (KB → corpus → tokenizer → model → tailored
  param groups → ZeRO engine → scheduler → strategy callbacks);
* run deterministic steps — the batch at step ``t`` is a pure function
  of ``(seed, t, rank, accum_index)``, so resumed runs replay the exact
  data order of uninterrupted ones; every micro-batch's ``loss.backward()``
  accumulates into the parameters' ``.grad``, which the engine's step
  copies into its staging buffers;
* write full/partial checkpoints per the strategy, with simulated-clock
  charging for compute and I/O;
* resume from any *complete* checkpoint (including LLMTailor merges),
  auto-recover from partial trails (:meth:`Trainer.auto_recover`);
  resume is *elastic* — a checkpoint written at any world size N loads
  into ``world_size=M`` (the reader reshards N→M in memory) and the
  world-size-invariant math keeps the loss curve unchanged;
* run one *leg* of a chaos run: with a
  :class:`~repro.dist.faults.FaultPlan` attached the collectives charge
  penalized time and scheduled faults interrupt the loop; the multi-leg
  recovery policy lives in :mod:`repro.train.supervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.tailor import LLMTailor
from ..data.datasets import Batch, CPTDataset, SFTDataset
from ..data.facts import MedicalKB
from ..data.synthetic import medqa_like_pairs, pubmed_like_corpus
from ..data.tokenizer import WordTokenizer
from ..core.groups import tailored_param_groups
from ..dist.faults import FaultPlan, FaultTimeline, GoodputReport
from ..dist.zero import ZeroStage3Engine
from ..io.layout import CheckpointPaths, RunIndex, read_latest
from ..io.reader import load_checkpoint
from ..io.storage import Storage
from ..io.writer import save_checkpoint
from ..nn.config import ModelConfig, get_config
from ..nn.model import CausalLM, build_model
from ..optim.lr_scheduler import build_scheduler
from ..optim.optimizer import clip_grad_norm_
from ..strategies.base import build_strategy
from ..util.errors import RankJoin, SimulatedFailure, TrainingError
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

__all__ = ["Trainer", "TrainResult"]

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
    # Fault plans only: the rank whose scheduled death interrupted the
    # leg (the supervisor shrinks the world), or a scheduled capacity
    # arrival did (the supervisor grows it).
    failed_rank: int | None = None
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
    ``fault_plan`` attaches the chaos engine to this leg (see
    :meth:`_attach_chaos`).  Multi-leg recovery (shrink + resume) is the
    :class:`~repro.train.supervisor.ChaosSupervisor`'s job.
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
        #: The leg's communicator (a model-free leg has one and no engine).
        self.comm = self.engine.comm
        self.scheduler = build_scheduler(
            config.scheduler, self.engine.reference_optimizer,
            warmup_steps=config.warmup_steps, total_steps=config.total_steps,
        )

        self.strategy = build_strategy(
            config.checkpoint_strategy, self.model_config,
            config.checkpoint_interval, **config.strategy_kwargs,
        )
        self.state = TrainerState()
        self.callbacks: list[Callback] = [
            LoggingCallback(config.log_every),
            CheckpointCallback(self.strategy),
        ]
        if config.failure_step is not None:
            self.callbacks.append(FailureInjector(config.failure_step))

        self._attach_chaos(fault_plan, fault_timeline, _chaos_pending)

    def _attach_chaos(
        self, fault_plan: FaultPlan | None, fault_timeline: FaultTimeline | None,
        pending: tuple[list, list] | None,
    ) -> None:
        """Attach the chaos engine to this leg (no-op without a plan):
        have the communicator price its collectives under the plan and
        register the :class:`~repro.train.callbacks.ChaosCallback` last,
        so the step's checkpoint is on disk before bitrot or a rank
        failure touches it.
        """
        config = self.config
        self.fault_plan, self.fault_timeline = fault_plan, fault_timeline
        if fault_plan is None:
            return
        if pending is None:
            # Standalone use: the supervisor validates once up front,
            # legs after a shrink would fail re-validation (events may
            # reference ranks the smaller world no longer has).
            trajectory = fault_plan.validate(
                config.world_size, config.total_steps, topology=config.resolved_topology
            )
            pending = (trajectory, list(fault_plan.bitrot_events))
        self.fault_timeline = fault_timeline or FaultTimeline()
        self.comm.price_faults(fault_plan, self.storage.clock)
        self.callbacks.append(ChaosCallback(fault_plan, self.fault_timeline, *pending))

    # -- paths --------------------------------------------------------------------

    def run_index(self) -> RunIndex:
        """A fresh snapshot of what this leg's run directory holds."""
        return RunIndex(self.storage.root)

    # -- one training step -----------------------------------------------------------

    def _micro_batch(self, step: int, rank: int, accum: int) -> Batch:
        tag = f"train/rank{rank}/acc{accum}"
        return self.dataset.batch_at_step(step, self.config.micro_batch_size, tag=tag)

    def train_step(self, step: int) -> float:
        """Forward/backward over every rank's micro-batches, then update."""
        cfg = self.config
        # Position the fault schedule (if any) before the step's collectives
        # so window-scoped penalties charge exactly their steps.
        self.comm.set_step(step)
        self.engine.zero_grad()
        n_micro = cfg.world_size * cfg.grad_accum_steps
        total_loss = 0.0
        for rank in range(cfg.world_size):
            for accum in range(cfg.grad_accum_steps):
                batch = self._micro_batch(step, rank, accum)
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
        self._charge_step_time(step)
        return total_loss / n_micro

    def _charge_step_time(self, step: int) -> None:
        """Charge one step's nominal compute plus the straggler tax."""
        cfg = self.config
        self.storage.charge_compute(cfg.sim_step_seconds, "compute")
        if self.fault_plan is not None:
            # A synchronous step is paced by its slowest rank: charge the
            # straggler tax on top of the nominal step time.
            slowdown = self.fault_plan.compute_slowdown(step, cfg.world_size)
            if slowdown > 1.0:
                self.storage.charge_compute(
                    (slowdown - 1.0) * cfg.sim_step_seconds, "fault_straggler"
                )

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
        comm = self.comm.stats
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

    def auto_recover(self, failure_step: int) -> CheckpointPaths:
        """Merge the partial-checkpoint trail and resume (paper T2+T3).

        Builds the recipe from the manifests on disk (default merge
        options), merges into ``<output_dir>/merged-<step>``, loads it,
        and returns its paths.
        """
        tailor = LLMTailor.from_checkpoints(self.storage.root, failure_step=failure_step)
        base_step = CheckpointPaths(tailor.recipe.base_checkpoint).step
        output = Path(self.storage.root) / f"merged-{base_step}"
        result = tailor.merge(output=output)
        log.info("auto-recovery merge: %s", result.summary().replace("\n", " | "))
        self.resume_from(result.output)
        return result.output
