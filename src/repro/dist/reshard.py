"""Elastic N→M resharding of ZeRO-3 optimizer checkpoints.

Real fleets rarely resume on the world size they checkpointed with: a
training job that saved on N data-parallel ranks comes back on M
(shrunk after a hardware loss, grown after a quota bump).  DeepSpeed's
monolithic per-rank shard files make that a full
gather-everything-then-rescatter operation; this module does it as one
*source-major sweep* instead (:func:`reshard_sweep`):

* per-group shard math — :class:`~repro.dist.partition.GroupPartition`
  makes the N→M mapping a set of interval intersections in master
  coordinates, so each source shard scatters into the one or two target
  shards it overlaps;
* every source shard is read exactly once (``N`` loads for any ``M``),
  in rank order, and passes :func:`repro.dist.shard.check_payload`
  (complete, rank 0's geometry, per-group CRC) before a byte is copied;
* a target shard is emitted the moment the last source it overlaps has
  been consumed.

:func:`price_reshard` is that sweep run dry against a
:class:`~repro.io.storage.Ledger` — the one price of a reshard, fed sizes
on disk by admission control and nominal sizes by the planner — and
:func:`placement_transfer_bytes` its per-link-class bytes, which the live
:class:`ReshardReport` counts with the same function.

Peak memory is one decoded source shard plus the open target shard(s) —
never the full master state — so N→M stays cheap even when neither N
nor M is 1.  ``N→1`` degenerates to a merge-style full consolidation
and ``1→M`` to a scatter; both fall out of the same interval math.

The output is bitwise round-trippable: resharding N→M→N reproduces the
original shard files exactly, because group padding is canonically zero
(gradients, moments, and AdamW updates all vanish on the padded tail)
and every other byte is carried or recomputed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..io.blobfile import read_blob, write_blob
from ..io.layout import CheckpointPaths, CheckpointSizes
from ..io.storage import Ledger
from ..util.errors import ReshardError
from ..util.timer import WallTimer
from .partition import GroupPartition
from .shard import GroupEntry, build_payload, check_payload, payload_extras

__all__ = [
    "ReshardReport",
    "placement_transfer_bytes",
    "price_reshard",
    "reshard_checkpoint",
    "reshard_sweep",
]


@dataclass
class ReshardReport:
    """Accounting for one N→M reshard."""

    source: Path
    output: Path
    source_world_size: int
    target_world_size: int
    num_groups: int
    files_loaded: int = 0
    bytes_loaded: int = 0
    bytes_written: int = 0
    total_seconds: float = 0.0
    rank_seconds: list[float] = field(default_factory=list)
    #: Topology shape string (e.g. ``"2x4"``) when the reshard was
    #: placement-aware, else ``None``.
    topology: str | None = None
    #: Logical bytes moved between ranks on the same node / different
    #: nodes (fp32 + both moments per overlapped element; uncompressed,
    #: so :func:`repro.strategies.plan_reshard_cost` predicts them
    #: exactly).  Zero when no topology was given.
    intra_bytes: int = 0
    inter_bytes: int = 0

    def summary(self) -> str:
        """Multi-line human-readable recap (world sizes, loads, bytes, time)."""
        lines = [
            f"resharded checkpoint: {self.output}",
            f"  world size           : {self.source_world_size} -> "
            f"{self.target_world_size}",
            f"  groups per shard     : {self.num_groups}",
            f"  shard files loaded   : {self.files_loaded} "
            f"({self.bytes_loaded} bytes)",
            f"  shard bytes written  : {self.bytes_written}",
            f"  total time           : {self.total_seconds:.3f}s",
        ]
        if self.topology is not None:
            lines.insert(
                2,
                f"  topology             : {self.topology} "
                f"(intra {self.intra_bytes} B, inter {self.inter_bytes} B)",
            )
        return "\n".join(lines)


def placement_transfer_bytes(
    numels: Sequence[int], source_world: int, target_world: int, topology
) -> tuple[int, int]:
    """Per-link-class logical bytes an N→M reshard moves under a topology.

    For every parameter group (given by its master numel) and every
    (target rank, source rank) pair with overlapping master intervals,
    the overlap moves ``12`` bytes per element (fp32 master + both Adam
    moments); the pair's bytes are classed ``intra`` or ``inter`` by
    block placement on ``topology``.  Returns
    ``(intra_bytes, inter_bytes)``.

    This one function is both the live accounting
    (:func:`reshard_checkpoint` with ``topology=``) and the prediction
    (:func:`repro.strategies.plan_reshard_cost` with ``topology=``) —
    shared, like :meth:`~repro.dist.faults.FaultPlan.world_events`, so
    the two sides cannot drift.
    """
    if max(source_world, target_world) > topology.world_size:
        raise ReshardError(
            f"world sizes {source_world}->{target_world} exceed topology "
            f"capacity {topology.world_size}"
        )
    intra = inter = 0
    for numel in numels:
        src = GroupPartition(int(numel), source_world)
        dst = GroupPartition(int(numel), target_world)
        for m in range(target_world):
            dst_lo, dst_hi = dst.master_bounds(m)
            for r in dst.overlapping_ranks(m, src):
                src_lo, src_hi = src.master_bounds(r)
                lo, hi = max(src_lo, dst_lo), min(src_hi, dst_hi)
                if lo >= hi:
                    continue
                moved = 12 * (hi - lo)
                if topology.link_class(r, m) == "intra":
                    intra += moved
                else:
                    inter += moved
    return intra, inter


def price_reshard(ledger: Ledger, sizes: CheckpointSizes, target_world_size: int) -> None:
    """Charge ``ledger`` what :func:`reshard_checkpoint` moves.

    The sweep reads and inflates each of the N source shards once, in rank
    order, and writes M target shards (the same state, split evenly); the
    weight file is copied — read and written, not inflated.
    """
    if target_world_size < 1:
        raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
    for nbytes in sizes.shards:
        ledger.charge_read(nbytes, decompress=True, category="reshard.optimizer.read")
    ledger.charge_write(
        sum(sizes.shards), files=target_world_size, category="reshard.optimizer.write"
    )
    ledger.charge_read(sizes.weights, category="reshard.weights.read")
    ledger.charge_write(sizes.weights, category="reshard.weights.write")


# ---------------------------------------------------------------------------
# The source-major sweep
# ---------------------------------------------------------------------------

class _Sweep:
    """State of one N→M sweep: rank 0's metadata plus the open targets.

    :meth:`scatter_next` pulls each source payload itself, so the
    payload is a local of that one call — nothing keeps it alive while
    its successor is being decoded.
    """

    def __init__(self, source_world_size: int, target_world_size: int) -> None:
        self.N, self.M = int(source_world_size), int(target_world_size)
        if self.N < 1:
            raise ReshardError("reshard needs at least one source shard")
        if self.M < 1:
            raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
        # Open targets: m -> {g: (fp32, exp_avg, exp_avg_sq)}.
        self.targets: dict[int, dict[int, tuple[np.ndarray, ...]]] = {}
        self.emitted = 0
        self.expect: dict[int, Mapping] | None = None  # rank 0's headers, once adopted

    def _adopt_rank0(self, shard: Mapping[str, Any], ref: dict[int, GroupEntry]) -> None:
        # Headers, hyperparams and steps only: holding rank 0's arrays
        # would keep a whole source shard alive for the entire sweep.
        self.ref = {
            g: e._replace(fp32=None, exp_avg=None, exp_avg_sq=None) for g, e in ref.items()
        }
        self.expect = {g: e.header for g, e in ref.items()}
        # Non-format top-level keys (``global_step``, ``merged_by``, ...)
        # travel from source rank 0: the engine writes identical extras
        # into every shard, so rank 0 wins on hand-made divergence.
        self.extras = payload_extras(shard)
        self.partitions = {
            g: (GroupPartition(int(e.header["numel"]), self.N),
                GroupPartition(int(e.header["numel"]), self.M))
            for g, e in ref.items()
        }
        # Target m is complete once source ready[m] is in; the running
        # maximum keeps emission in rank order even where tiny groups
        # (numel < world size) would let a later target finish first.
        self.ready: list[int] = []
        for m in range(self.M):
            last = max(
                (r for src, dst in self.partitions.values()
                 for r in dst.overlapping_ranks(m, src)),
                default=0,
            )
            self.ready.append(max(last, self.ready[-1] if m else 0))

    def _open_target(self) -> dict[int, tuple[np.ndarray, ...]]:
        return {
            g: tuple(np.zeros(dst.shard_numel, dtype=np.float32) for _ in range(3))
            for g, (_, dst) in self.partitions.items()
        }

    def scatter_next(self, sources: Iterator[Mapping[str, Any]], rank: int) -> None:
        """Pull source ``rank``, check it, copy its intervals into the targets."""
        origin = f"source rank {rank}"
        shard = next(sources, None)
        if shard is None:
            raise ReshardError(f"reshard needs {self.N} source shards, got only {rank}")
        entries = check_payload(
            shard, world_size=self.N, rank=rank, origin=origin, error=ReshardError,
            complete=True, expect=self.expect,
        )
        if rank == 0:
            self._adopt_rank0(shard, entries)
        for g, (src, dst) in self.partitions.items():
            e = entries[g]
            if e.step != self.ref[g].step:
                raise ReshardError(
                    f"{origin}: group {g} step {e.step} disagrees with "
                    f"rank 0's {self.ref[g].step}"
                )
            src_lo, src_hi = src.master_bounds(rank)
            src_base = src.bounds(rank)[0]
            for m in src.overlapping_ranks(rank, dst):
                if m not in self.targets:
                    self.targets[m] = self._open_target()
                dst_lo, dst_hi = dst.master_bounds(m)
                lo, hi = max(src_lo, dst_lo), min(src_hi, dst_hi)
                dst_base = dst.bounds(m)[0]
                for out, arr in zip(self.targets[m][g], (e.fp32, e.exp_avg, e.exp_avg_sq)):
                    out[lo - dst_base : hi - dst_base] = arr[lo - src_base : hi - src_base]

    def completed(self, rank: int) -> Iterator[dict[str, Any]]:
        """Target payloads whose last source is ``rank`` (or earlier)."""
        while self.emitted < self.M and self.ready[self.emitted] <= rank:
            m = self.emitted
            self.emitted += 1
            arrays = self.targets.pop(m, None) or self._open_target()
            yield build_payload(
                self.M, m, len(self.ref),
                (GroupEntry(e.header, e.hyper, arrays[g][0], e.step, *arrays[g][1:])
                 for g, e in self.ref.items()),
                self.extras,
            )

    def run(self, sources: Iterable[Mapping[str, Any]]) -> Iterator[dict[str, Any]]:
        sources = iter(sources)
        for rank in range(self.N):
            self.scatter_next(sources, rank)
            yield from self.completed(rank)


def reshard_sweep(
    sources: Iterable[Mapping[str, Any]],
    source_world_size: int,
    target_world_size: int,
) -> Iterator[dict[str, Any]]:
    """Re-partition N complete rank payloads into M, lazily on both sides.

    ``sources`` is iterated once, in rank order, one payload at a time —
    pass a generator that reads each shard on demand and the sweep never
    holds more than one source.  Every source must be a complete, intact
    payload of its rank (:func:`~repro.dist.shard.check_payload`) whose
    geometry and per-group step counters agree with rank 0's; its master
    intervals are then scattered into the target shard(s) they overlap.
    Target payloads are yielded in rank order, each as soon as the last
    source it overlaps has been consumed, so a caller that drops each
    payload before asking for the next keeps peak memory at one source
    shard plus the open target(s).

    Hyper-parameters and non-canonical top-level keys (``global_step``,
    ``merged_by``, ...) are taken from source rank 0 and replicated to
    every target rank: the engine writes the scheduler-driven reference
    optimizer's values — and identical extras — into all shards, so the
    ranks agree by construction and rank 0 wins on hand-made divergence.
    Group padding is canonically zero (the engine's gradients and
    moments vanish on the padded tail), which is what makes N→M→N
    bitwise.
    """
    return _Sweep(source_world_size, target_world_size).run(sources)


def reshard_checkpoint(
    source: "str | Path | CheckpointPaths",
    output: str | Path,
    target_world_size: int,
    *,
    topology=None,
) -> ReshardReport:
    """Convert a complete checkpoint from world size N to M on disk.

    Weights and config/metadata files are carried over verbatim (the
    consolidated weight file is world-size independent); the manifest is
    rewritten with the target world size plus reshard provenance, last,
    by the output's :meth:`~repro.io.layout.CheckpointPaths.rewrite`
    transaction (an aborted reshard leaves no manifest); the
    optimizer shards are re-partitioned by :func:`reshard_sweep`, fed
    one ``read_blob`` per source shard and drained one ``write_blob``
    per target shard, so peak memory is one source shard plus the open
    target — the full master state never exists in memory.

    With ``topology`` (a :class:`~repro.dist.topology.Topology`) the
    report carries per-link-class logical byte totals
    (:func:`placement_transfer_bytes`, matched exactly by
    :func:`repro.strategies.plan_reshard_cost`).
    """
    paths = source if isinstance(source, CheckpointPaths) else CheckpointPaths(source)
    manifest = paths.read_complete_manifest(
        "merge the trail into a complete checkpoint before resharding", ReshardError
    )
    N, M = manifest["world_size"], int(target_world_size)
    if M < 1:
        raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
    if topology is not None and max(N, M) > topology.world_size:
        raise ReshardError(
            f"reshard {N}->{M} does not fit topology {topology.shape} "
            f"(capacity {topology.world_size})"
        )
    out_paths = CheckpointPaths(output)

    total = WallTimer()
    total.start()

    report = ReshardReport(
        source=paths.dir,
        output=out_paths.dir,
        source_world_size=N,
        target_world_size=M,
        num_groups=0,
        topology=None if topology is None else topology.shape,
    )

    def read_sources() -> Iterator[dict[str, Any]]:
        for shard_path in paths.shard_paths(N):
            report.files_loaded += 1
            report.bytes_loaded += shard_path.stat().st_size
            yield read_blob(shard_path)

    with out_paths.rewrite(manifest["step"], M, sources=[paths], error=ReshardError) as tx:
        sweep = _Sweep(N, M)
        payloads = sweep.run(read_sources())
        for m in range(M):
            timer = WallTimer()
            with timer:
                # next() as an argument: no name here keeps the payload alive
                # while the following source is decoded.
                report.bytes_written += write_blob(tx.shard(m), next(payloads))
            report.rank_seconds.append(timer.elapsed)
        numels = [src.numel for src, _ in sweep.partitions.values()]
        report.num_groups = len(numels)
        if topology is not None:
            report.intra_bytes, report.inter_bytes = placement_transfer_bytes(
                numels, N, M, topology
            )
        # Weights + config files are world-size independent: copy verbatim.
        tx.copy(paths.weights, paths.weights.name)
        tx.copy_configs(paths)
        provenance = {"source": str(paths.dir), "source_world_size": N}
        tx.publish(**{**manifest, "reshard_provenance": provenance})

    report.total_seconds = total.stop()
    return report
