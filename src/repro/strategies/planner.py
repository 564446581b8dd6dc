"""Config-only planners, all dry runs of the real thing (no model, no
files): checkpoint overhead (paper-scale Tables 3 and 6) is the live
writer's own price (:func:`~repro.io.writer.price_save`) charged to a
:class:`~repro.io.storage.Ledger` per event; merge and reshard cost are
the engines' own prices (:func:`~repro.core.plan.price_merge`,
:func:`~repro.dist.reshard.price_reshard`) over nominal sizes; step traffic
and fault cost run the real communicator and recovery policy; serve cost
is admission control's own estimate.

Cost anatomy per checkpoint (paper §2.2-2.3):

* weights: 2 bytes/param (bf16), consolidated file written serially;
* optimizer: 12 bytes/param (fp32 master + exp_avg + exp_avg_sq),
  sharded over ``world_size`` files written in parallel;
* total ≈ 14 bytes/param ≈ 7x the bf16 model — e.g. Llama-3.1-8B:
  ~112 GiB per full checkpoint, matching the paper's Table 7.

Step time uses the standard 6·P·tokens FLOPs estimate for training a
P-parameter decoder, divided by an effective per-GPU throughput.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..io.layout import CheckpointSizes, manifest_doc
from ..io.storage import Ledger, StorageCostModel
from ..io.writer import price_save
from ..nn.config import ModelConfig
from ..nn.slots import model_slots, slot_param_counts
from ..numerics.dtypes import DType
from ..util.errors import ConfigError
from .base import CheckpointStrategy

__all__ = [
    "OPTIMIZER_BYTES_PER_PARAM",
    "ComputeCostModel",
    "FaultCostPlan",
    "MergeCostPlan",
    "ReshardCostPlan",
    "ServeCostPlan",
    "StepTrafficPlan",
    "StrategyPlan",
    "checkpoint_event_nbytes",
    "nominal_manifest",
    "plan_fault_cost",
    "plan_merge_cost",
    "plan_reshard_cost",
    "plan_serve_cost",
    "plan_step_traffic",
    "plan_strategy",
]

# fp32 master + exp_avg + exp_avg_sq.
OPTIMIZER_BYTES_PER_PARAM = 12


@dataclass(frozen=True)
class ComputeCostModel:
    """Per-step training time from FLOPs (for the simulated clock)."""

    flops_per_gpu: float = 1.4e14  # effective bf16 throughput (A100-ish)

    def step_seconds(self, num_params: float, tokens_per_step_per_gpu: float) -> float:
        # Forward + backward of a decoder: ~6 FLOPs per parameter per token.
        """Seconds per optimizer step from the 6·P·tokens FLOPs estimate."""
        return 6.0 * num_params * tokens_per_step_per_gpu / self.flops_per_gpu


def checkpoint_event_nbytes(
    config: ModelConfig, slots: list[str], *, dtype: DType | None = None
) -> dict[str, int]:
    """Bytes written by one checkpoint event saving the given slots."""
    dtype = dtype or config.storage_dtype
    counts = slot_param_counts(config)
    params = sum(counts[s] for s in slots)
    weight_bytes = params * dtype.itemsize
    optim_bytes = params * OPTIMIZER_BYTES_PER_PARAM
    return {
        "params": params,
        "weight_bytes": weight_bytes,
        "optim_bytes": optim_bytes,
        "total_bytes": weight_bytes + optim_bytes,
    }


def nominal_manifest(
    config: ModelConfig, slots, *, world_size: int, step: int = 0, strategy: str = "plan"
) -> dict:
    """The manifest a dry run records for one checkpoint event saving
    ``slots``: the checked schema plus the event's nominal ``shard_nbytes``
    (all ranks) and ``weight_nbytes`` — what
    :meth:`~repro.io.layout.CheckpointSizes.nominal` reads back."""
    all_slots = model_slots(config)
    saved = [s for s in all_slots if s in set(slots)]
    volume = checkpoint_event_nbytes(config, saved)
    return manifest_doc(
        step=step, model_config=config.name, strategy=strategy, world_size=world_size,
        slots=saved, all_slots=all_slots,
        shard_nbytes=volume["optim_bytes"], weight_nbytes=volume["weight_bytes"],
    )


@dataclass(frozen=True)
class StepTrafficPlan:
    """Per-optimizer-step collective traffic: a view of the
    :class:`~repro.dist.comm.CommStats` of a communicator that charged
    one step dry (:func:`plan_step_traffic`), so it equals the live
    accounting by construction.  ``llmtailor plan`` prints it so the
    sharding tax of a world size is visible without running anything.
    """

    world_size: int
    num_groups: int
    padded_numel: int  # sum of per-group padded group sizes
    reduce_scatter_bytes: float  # per step, per rank
    all_gather_bytes: float  # per step, per rank
    topology: str | None  # shape, e.g. "2x4", for a hierarchical plan
    #: ``{op: {link_class: bytes}}`` as the communicator charged them (the
    #: flat ring, one rank per node, has only ``"inter"``); the per-op
    #: fields above are the class sums.
    link_bytes: dict

    @property
    def total_bytes(self) -> float:
        """Reduce-scatter plus all-gather bytes per step, per rank."""
        return self.reduce_scatter_bytes + self.all_gather_bytes

    def class_bytes(self, link_class: str) -> float:
        """Per-step bytes on one link class."""
        return float(sum(s.get(link_class, 0.0) for s in self.link_bytes.values()))

    def describe(self) -> dict:
        """Flat dict form (for tables and JSON artifacts)."""
        out = {
            "world_size": self.world_size,
            "num_groups": self.num_groups,
            "padded_numel": self.padded_numel,
            "reduce_scatter_bytes": self.reduce_scatter_bytes,
            "all_gather_bytes": self.all_gather_bytes,
            "total_bytes": self.total_bytes,
        }
        if self.topology is not None:
            out["topology"] = self.topology
            for op, split in self.link_bytes.items():
                for link_class, value in split.items():
                    out[f"{op}_{link_class}_bytes"] = value
        return out


def plan_step_traffic(
    config: ModelConfig,
    *,
    world_size: int,
    weight_decay: float = 0.01,
    topology=None,
) -> StepTrafficPlan:
    """Cost-model bytes one optimizer step moves at the given world size.

    A *dry run*: builds the :class:`~repro.dist.comm.SimComm` a live
    engine would (``topology`` is its cost model, ``None`` the flat
    ring), charges one step's collectives from the tailored 2L+x group
    layout (no model, no buffers) and reads its stats.  At ``world_size
    == 1`` every collective is local and the traffic is zero.
    """
    from ..core.groups import group_numels  # lazy: avoids a cycle
    from ..dist.comm import SimComm
    from ..dist.partition import GroupPartition

    numels = group_numels(config, weight_decay)
    comm = SimComm(world_size, topology)
    comm.charge_step(numels)
    link_bytes = {op: comm.class_bytes(op) for op in ("reduce_scatter", "all_gather")}
    return StepTrafficPlan(
        world_size=world_size,
        num_groups=len(numels),
        padded_numel=sum(GroupPartition(n, world_size).padded_numel for n in numels),
        reduce_scatter_bytes=sum(link_bytes["reduce_scatter"].values()),
        all_gather_bytes=sum(link_bytes["all_gather"].values()),
        topology=topology and topology.shape,
        link_bytes=link_bytes,
    )


@dataclass
class MergeCostPlan:
    """LLMTailor merge cost at paper scale (extends Table 7): a view of the
    ledger :func:`~repro.core.plan.price_merge` charged.

    ``cache_mode`` fixes the load schedule and ``workers`` fans rank shards
    out, as in the engine.  Every load reads a whole shard but inflates
    only the groups taken from it, so ``bytes_decoded`` sums to one shard
    per rank whatever the schedule.
    """

    model: str
    world_size: int
    num_checkpoints: int
    cache_mode: str
    workers: int
    loads_per_rank: int
    bytes_loaded: int
    bytes_decoded: int
    bytes_written: int
    seconds: float

    def describe(self) -> dict:
        """Flat dict form (for tables and JSON artifacts)."""
        return dict(self.__dict__)


def plan_merge_cost(
    config: ModelConfig,
    *,
    world_size: int = 8,
    num_checkpoints: int = 2,
    cache_mode: str = "per-checkpoint",
    workers: int = 1,
    storage: StorageCostModel | None = None,
) -> MergeCostPlan:
    """Estimate the wall time of merging ``num_checkpoints`` sources.

    The merge's one price, run over ``num_checkpoints`` nominal full
    checkpoints that provide the slots round-robin: config only, so the
    published-model scales in the paper are planned without files.
    """
    from ..core.plan import price_merge  # lazy: avoids a cycle

    if num_checkpoints < 1 or workers < 1:
        raise ConfigError(f"merge needs num_checkpoints and workers >= 1, "
                          f"got {num_checkpoints} and {workers}")
    slots = model_slots(config)
    sizes = CheckpointSizes.nominal(nominal_manifest(config, slots, world_size=world_size), config)
    ledger = Ledger(storage)
    schedule = price_merge(
        ledger, config, {slot: i % num_checkpoints for i, slot in enumerate(slots)},
        lambda _: sizes, cache_mode=cache_mode, workers=workers,
    )
    return MergeCostPlan(
        model=config.name, world_size=world_size, num_checkpoints=num_checkpoints,
        cache_mode=cache_mode, workers=workers, loads_per_rank=len(schedule),
        bytes_loaded=int(ledger.stats.category_bytes("merge.optimizer.read")),
        bytes_decoded=int(ledger.stats.category_bytes("merge.optimizer.inflate")),
        bytes_written=int(ledger.stats.bytes_written), seconds=ledger.clock.total(),
    )


@dataclass
class ReshardCostPlan:
    """Elastic-reshard cost at paper scale: a view of the ledger
    :func:`~repro.dist.reshard.price_reshard` charged.

    The sweep reads every source shard exactly once (``loads == N`` for
    any M), writes M target shards and copies the weight file (in
    ``seconds``; the byte fields count shards, as the live
    :class:`~repro.dist.reshard.ReshardReport` does).  ``peak_bytes`` is
    the memory guarantee, not a time input: one source plus one target shard.
    """

    model: str
    source_world_size: int
    target_world_size: int
    loads: int
    bytes_loaded: int
    bytes_written: int
    peak_bytes: int
    seconds: float
    #: Topology shape (e.g. ``"2x4"``) for a placement-aware plan, else None.
    topology: str | None = None
    #: Logical shard-move bytes per link class (12 B per overlapped
    #: element; exactly the live ``ReshardReport`` counters).
    intra_bytes: int = 0
    inter_bytes: int = 0
    #: Transfer seconds per link class at the topology's bandwidths (a
    #: fabric view; ``seconds`` above remains the wall-time estimate).
    intra_seconds: float = 0.0
    inter_seconds: float = 0.0

    def describe(self) -> dict:
        """Flat dict form (for tables and JSON artifacts)."""
        return dict(self.__dict__)


def plan_reshard_cost(
    config: ModelConfig,
    *,
    source_world_size: int = 8,
    target_world_size: int = 1,
    storage: StorageCostModel | None = None,
    topology=None,
    weight_decay: float = 0.01,
) -> ReshardCostPlan:
    """Estimate the wall time and peak memory of an N→M reshard.

    The reshard's one price over a nominal full checkpoint at N ranks,
    config only, like :func:`plan_merge_cost`.  With ``topology`` (a
    :class:`~repro.dist.topology.Topology`) the plan gains per-link-class
    bytes from :func:`~repro.dist.reshard.placement_transfer_bytes`, the
    function the live :class:`~repro.dist.reshard.ReshardReport` counts
    with.  ``weight_decay`` only affects the tailored group split the
    interval math runs over (pass the training run's value).
    """
    from ..core.groups import group_numels  # lazy: avoids a cycle
    from ..dist.reshard import placement_transfer_bytes, price_reshard

    if source_world_size < 1 or target_world_size < 1:
        raise ConfigError("world sizes must be >= 1")
    N, M = int(source_world_size), int(target_world_size)
    sizes = CheckpointSizes.nominal(
        nominal_manifest(config, model_slots(config), world_size=N), config
    )
    ledger = Ledger(storage)
    price_reshard(ledger, sizes, M)
    intra = inter = 0
    if topology is not None:
        intra, inter = placement_transfer_bytes(group_numels(config, weight_decay), N, M, topology)
    return ReshardCostPlan(
        model=config.name, source_world_size=N, target_world_size=M, loads=N,
        bytes_loaded=int(ledger.stats.category_bytes("reshard.optimizer.read")),
        bytes_written=int(ledger.stats.category_bytes("reshard.optimizer.write")),
        peak_bytes=max(sizes.shards) + -(-sum(sizes.shards) // M),
        seconds=ledger.clock.total(),
        topology=topology and topology.shape, intra_bytes=intra, inter_bytes=inter,
        intra_seconds=intra / topology.intra_bandwidth if topology else 0.0,
        inter_seconds=inter / topology.inter_bandwidth if topology else 0.0,
    )


@dataclass
class FaultCostPlan:
    """What a fault plan costs: a view of one supervisor dry run.

    Read off the timeline, clock and goodput report the real
    :class:`~repro.train.supervisor.ChaosSupervisor` produced over a
    :class:`~repro.train.supervisor.NullLeg`, so counts, goodput,
    ``straggler_seconds`` and ``comm_seconds`` *equal* a live run's.
    Recovery I/O (``recovery_read_seconds``: loads and auto-merges,
    ``sync_write_seconds``, ``reshard_bytes``) is priced at nominal
    bytes — live shards are compressed — so goodput leaves it out.
    """

    model: str
    world_size: int
    final_world_size: int
    total_steps: int
    checkpoint_interval: int
    strategy: str
    num_failures: int
    num_joins: int
    executed_steps: int
    lost_steps: int
    reshard_loads: int
    reshard_bytes: int
    straggler_seconds: float
    comm_seconds: float
    replay_seconds: float
    recovery_read_seconds: float
    sync_write_seconds: float
    sim_step_seconds: float
    #: Per recovery, in order: ``"checkpoint-<k>"``, ``"merged-<k>"`` or
    #: ``None`` (restart from initialization).
    recovery_sources: tuple
    topology: str | None  # shape, e.g. "2x4", for a hierarchical plan
    report: "GoodputReport" = field(repr=False)  # the dry run's own
    timeline: "FaultTimeline" = field(repr=False)  # flight recorder

    @property
    def useful_steps(self) -> int:
        """Executed steps that survive into the final state."""
        return self.executed_steps - self.lost_steps

    @property
    def overhead_seconds(self) -> float:
        """Extra simulated time the faults cost vs a clean run."""
        recovery_io = self.recovery_read_seconds + self.sync_write_seconds
        return self.straggler_seconds + self.replay_seconds + recovery_io

    def goodput_report(self):
        """The dry run's :class:`~repro.dist.faults.GoodputReport`."""
        return self.report

    @property
    def goodput(self) -> float:
        """Predicted useful steps per simulated stepping second."""
        return self.report.goodput

    def describe(self) -> dict:
        """Flat dict form (for tables and JSON artifacts)."""
        out = dict(
            self.__dict__, overhead_seconds=self.overhead_seconds,
            useful_steps=self.useful_steps, goodput=self.goodput,
        )
        del out["report"], out["timeline"]
        return out


def plan_fault_cost(
    config: ModelConfig,
    plan,
    *,
    world_size: int,
    total_steps: int,
    checkpoint_interval: int,
    strategy: str = "full",
    sim_step_seconds: float = 1.0,
    storage: StorageCostModel | None = None,
    topology=None,
) -> FaultCostPlan:
    """Expected lost steps, reshard traffic, and slowdown cost of a plan.

    A *dry run*, not a model of one: runs the real
    :class:`~repro.train.supervisor.ChaosSupervisor` over a
    :class:`~repro.train.supervisor.NullLeg` (no model, data, tensors or
    files), so shrink / grow / recovery-point / join-sync decisions are
    the supervisor's own for any ``strategy`` (a partial trail is
    auto-merged, source ``merged-<k>``, exactly when a live run would)
    and any ``topology``, and every collective and straggler second goes
    through the fault-priced :class:`~repro.dist.comm.SimComm` and clock
    a live leg uses.  Milliseconds per plan, config only, nothing on disk.
    Not priced: ``bitrot`` events (no bytes to corrupt: they neither fire
    nor cost a repair) and compression — see :class:`FaultCostPlan`.
    """
    from ..io.layout import RunIndex
    from ..train.config import TrainConfig
    from ..train.supervisor import ChaosSupervisor, NullLeg

    train_config = TrainConfig(
        model=config.name, output_dir="<dry-run>", world_size=world_size,
        total_steps=total_steps, checkpoint_strategy=strategy,
        checkpoint_interval=checkpoint_interval, sim_step_seconds=sim_step_seconds,
        topology=None if topology is None else topology.to_dict(),
    )
    leg = partial(
        NullLeg, model_config=config, cost_model=storage,
        disk=RunIndex(Path(train_config.output_dir), manifests={}),
    )
    supervisor = ChaosSupervisor(train_config, plan, _leg=leg)
    train_log = logging.getLogger("repro.train")
    level = train_log.level
    train_log.setLevel(logging.ERROR)  # a forecast, not an incident
    try:
        result = supervisor.run()
    finally:
        train_log.setLevel(level)
    timeline, report, clock = result.fault_timeline, result.goodput, result.clock
    sync_write_seconds = sum(
        v for k, v in clock.items() if k.startswith("checkpoint_write.join_sync")
    )
    return FaultCostPlan(
        model=config.name, world_size=world_size, total_steps=total_steps,
        checkpoint_interval=checkpoint_interval, strategy=strategy,
        sim_step_seconds=sim_step_seconds,
        topology=None if topology is None else topology.shape,
        final_world_size=supervisor.trainer.config.world_size,
        num_failures=timeline.recoveries - timeline.grows,
        num_joins=timeline.grows,
        executed_steps=report.useful_steps + report.lost_steps,
        lost_steps=timeline.lost_steps,
        reshard_loads=timeline.reshard_loads,
        reshard_bytes=timeline.reshard_bytes,
        straggler_seconds=clock.get("fault_straggler", 0.0),
        comm_seconds=clock.get("comm", 0.0),
        replay_seconds=report.lost_seconds,
        recovery_read_seconds=timeline.recovery_seconds - sync_write_seconds,
        sync_write_seconds=sync_write_seconds,
        recovery_sources=tuple(
            e["source"] for e in timeline.events if e["kind"] == "recovery"
        ),
        report=report, timeline=timeline,
    )


@dataclass
class StrategyPlan:
    """Outcome of simulating a strategy over a training run."""

    strategy: str
    total_steps: int
    interval: int
    events: list[dict] = field(default_factory=list)  # step, slots, bytes, seconds
    train_seconds: float = 0.0

    @property
    def num_events(self) -> int:
        """Number of checkpoint events over the planned run."""
        return len(self.events)

    @property
    def total_bytes(self) -> int:
        """Total bytes written across all checkpoint events."""
        return sum(e["total_bytes"] for e in self.events)

    @property
    def checkpoint_seconds(self) -> float:
        """Total simulated seconds spent writing checkpoints."""
        return sum(e["seconds"] for e in self.events)

    @property
    def checkpoint_time_fraction(self) -> float:
        """The paper's "proportion of checkpoint time" metric."""
        total = self.train_seconds + self.checkpoint_seconds
        return self.checkpoint_seconds / total if total else 0.0


def plan_strategy(
    config: ModelConfig,
    strategy: CheckpointStrategy,
    *,
    total_steps: int,
    world_size: int = 8,
    tokens_per_step_per_gpu: float = 16384.0,
    storage: StorageCostModel | None = None,
    compute: ComputeCostModel | None = None,
) -> StrategyPlan:
    """Replay a strategy's decisions analytically over ``total_steps``.

    The strategy is reset first so the plan is deterministic; dynamic
    strategies degrade to their model-free behaviour (documented as full
    checkpointing) since no weights exist here.
    """
    compute = compute or ComputeCostModel()
    strategy.reset()

    counts = slot_param_counts(config)
    num_params = sum(counts[s] for s in model_slots(config))
    step_seconds = compute.step_seconds(num_params, tokens_per_step_per_gpu)

    plan = StrategyPlan(
        strategy=strategy.name,
        total_steps=total_steps,
        interval=strategy.interval,
        train_seconds=step_seconds * total_steps,
    )
    for step in range(1, total_steps + 1):
        slots = strategy.plan_step(step)
        if slots is None:
            continue
        volume = checkpoint_event_nbytes(config, slots)
        ledger = Ledger(storage)
        price_save(ledger, volume["weight_bytes"], volume["optim_bytes"], world_size)
        plan.events.append(
            {
                "step": step,
                "slots": list(slots),
                "num_slots": len(slots),
                **volume,
                "seconds": ledger.clock.total(),
            }
        )
    return plan


@dataclass(frozen=True)
class ServeCostPlan:
    """Admission-control accounting for a serve job file, job by job.

    The offline twin of the merge service's admission pass: each entry
    is exactly the :class:`~repro.serve.admission.JobCost` the live
    daemon would charge for that job (same estimator, same storage
    model), so ``llmtailor plan --serve JOBFILE`` predicts byte-for-byte
    what submitting the file will cost each tenant — the job-file
    analogue of :func:`plan_step_traffic` and :func:`plan_fault_cost`.
    """

    job_file: str
    entries: tuple[dict, ...]  # {tenant, kind, priority, cost: {...}}

    @property
    def total_bytes(self) -> int:
        """Summed byte footprint charged against tenant quotas."""
        return sum(e["cost"]["total_bytes"] for e in self.entries)

    @property
    def total_seconds(self) -> float:
        """Summed estimated seconds across all jobs."""
        return sum(e["cost"]["est_seconds"] for e in self.entries)

    def per_tenant(self) -> dict[str, dict]:
        """Aggregate {jobs, total_bytes, est_seconds} per tenant."""
        out: dict[str, dict] = {}
        for e in self.entries:
            t = out.setdefault(
                e["tenant"], {"jobs": 0, "total_bytes": 0, "est_seconds": 0.0}
            )
            t["jobs"] += 1
            t["total_bytes"] += e["cost"]["total_bytes"]
            t["est_seconds"] += e["cost"]["est_seconds"]
        return out


def plan_serve_cost(
    job_file, *, storage: StorageCostModel | None = None
) -> ServeCostPlan:
    """Estimate what admission control will charge for a job file.

    Loads the jobs and prices each through
    :func:`~repro.serve.admission.estimate_job_cost` — the *same*
    function the live server calls on submit, with the same default
    storage model — so the printed numbers match the server's
    accounting exactly.
    """
    # Lazy: repro.serve imports this module at package import time.
    from ..serve.admission import estimate_job_cost
    from ..serve.protocol import load_job_file

    entries = []
    for spec in load_job_file(job_file):
        cost = estimate_job_cost(spec, storage=storage)
        entries.append(
            {
                "tenant": spec.tenant,
                "kind": spec.kind,
                "priority": spec.priority,
                "cost": cost.describe(),
            }
        )
    return ServeCostPlan(job_file=str(job_file), entries=tuple(entries))
