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
  in rank order, and each of its groups is checked against its header
  ``crc32`` before a byte is copied;
* a target shard is emitted the moment the last source it overlaps has
  been consumed.

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

import re
import shutil
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..io.blobfile import read_blob, write_blob
from ..io.layout import CheckpointPaths, shard_filename
from ..util.errors import ReshardError
from ..util.timer import WallTimer
from .partition import GroupPartition
from .zero import SHARD_FORMAT_VERSION, group_payload_crc

__all__ = [
    "ReshardReport",
    "placement_transfer_bytes",
    "reshard_checkpoint",
    "reshard_rank_state_dict",
    "reshard_state_dicts",
    "reshard_sweep",
]

# Top-level shard payload keys in canonical write order.  Everything
# else — e.g. ``global_step``, ``merged_by`` — is carried through in
# source order, *from source rank 0* (rank-0-wins: the engine writes
# identical extras into every shard, so divergence only arises from
# hand-assembled files; the semantically critical per-group step
# counters are validated across ranks separately).
_CANONICAL_KEYS = (
    "format_version",
    "zero_stage",
    "world_size",
    "rank",
    "num_total_groups",
    "groups",
    "hyperparams",
    "fp32_flat_groups",
    "state",
)


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


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _validate_payload(shard: Mapping[str, Any], world_size: int, rank: int, origin: str) -> None:
    version = shard.get("format_version")
    if version != SHARD_FORMAT_VERSION:
        raise ReshardError(f"{origin}: unsupported shard format_version {version!r}")
    if int(shard.get("world_size", -1)) != world_size:
        raise ReshardError(
            f"{origin}: shard world_size {shard.get('world_size')} != expected {world_size}"
        )
    if int(shard.get("rank", -1)) != rank:
        raise ReshardError(
            f"{origin}: shard carries rank {shard.get('rank')}, expected rank {rank}"
        )


def _complete_headers(shard: Mapping[str, Any], origin: str) -> dict[int, dict]:
    """The shard's group headers, required to cover every group index."""
    headers = {int(h["index"]): h for h in shard.get("groups", [])}
    num_groups = int(shard.get("num_total_groups", len(headers)))
    missing = sorted(set(range(num_groups)) - set(headers))
    if missing:
        raise ReshardError(
            f"{origin}: shard is partial (missing groups {missing[:8]}"
            f"{'...' if len(missing) > 8 else ''}); merge the trail into a "
            "complete checkpoint before resharding"
        )
    return headers


def _group_step(state_entry: Mapping[str, Any] | None, g: int, origin: str) -> int:
    if not state_entry or "step" not in state_entry:
        raise ReshardError(f"{origin}: group {g} state is missing its step counter")
    return int(state_entry["step"])


# ---------------------------------------------------------------------------
# Target payload assembly
# ---------------------------------------------------------------------------

def _target_payload(
    rank: int,
    target_world_size: int,
    headers: Mapping[int, dict],
    hyperparams: Sequence[dict],
    extras: Mapping[str, Any],
    fp32: dict[int, np.ndarray],
    state: dict[int, dict],
) -> dict[str, Any]:
    """One target rank's shard payload, in the canonical key order."""
    out_headers = []
    for g in sorted(headers):
        numel = int(headers[g]["numel"])
        dst = GroupPartition(numel, target_world_size)
        header = dict(headers[g])  # replaced keys keep their position
        header["padded_numel"] = dst.padded_numel
        header["crc32"] = group_payload_crc(
            fp32[g], state[g]["exp_avg"], state[g]["exp_avg_sq"]
        )
        out_headers.append(header)
    payload: dict[str, Any] = {
        "format_version": SHARD_FORMAT_VERSION,
        "zero_stage": 3,
        "world_size": int(target_world_size),
        "rank": int(rank),
        "num_total_groups": len(out_headers),
        "groups": out_headers,
        "hyperparams": [dict(h) for h in hyperparams],
        "fp32_flat_groups": {g: fp32[g] for g in sorted(fp32)},
        "state": {g: state[g] for g in sorted(state)},
    }
    for key, value in extras.items():
        payload[key] = value
    return payload


def _extras(shard: Mapping[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in shard.items() if k not in _CANONICAL_KEYS}


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
        self.N, self.M = source_world_size, target_world_size
        self.targets: dict[int, tuple[dict[int, np.ndarray], dict[int, dict]]] = {}
        self.emitted = 0

    def _adopt_rank0(self, ref: Mapping[str, Any], headers: dict[int, dict]) -> None:
        self.headers = headers
        self.hyperparams = list(ref.get("hyperparams", []))
        self.extras = _extras(ref)
        self.steps = {
            g: _group_step(ref.get("state", {}).get(g), g, "source rank 0")
            for g in headers
        }
        self.partitions = {
            g: (GroupPartition(int(h["numel"]), self.N), GroupPartition(int(h["numel"]), self.M))
            for g, h in sorted(headers.items())
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

    def _check_against_rank0(self, headers: dict[int, dict], origin: str) -> None:
        if set(headers) != set(self.headers):
            raise ReshardError(
                f"{origin}: group set differs from rank 0 "
                f"({len(headers)} vs {len(self.headers)} groups) — the shards "
                "belong to different checkpoints"
            )
        for g, ref in self.headers.items():
            if int(headers[g]["numel"]) != int(ref["numel"]) or list(
                headers[g].get("param_names", [])
            ) != list(ref.get("param_names", [])):
                raise ReshardError(
                    f"{origin}: group {g} geometry differs from rank 0 — "
                    "the shards belong to different checkpoints"
                )

    def _open_target(self) -> tuple[dict[int, np.ndarray], dict[int, dict]]:
        fp32: dict[int, np.ndarray] = {}
        state: dict[int, dict] = {}
        for g, (_, dst) in self.partitions.items():
            fp32[g] = np.zeros(dst.shard_numel, dtype=np.float32)
            state[g] = {
                "step": self.steps[g],
                "exp_avg": np.zeros(dst.shard_numel, dtype=np.float32),
                "exp_avg_sq": np.zeros(dst.shard_numel, dtype=np.float32),
            }
        return fp32, state

    def scatter_next(self, sources: Iterator[Mapping[str, Any]], rank: int) -> None:
        """Pull source ``rank``, verify it, copy its intervals into the targets."""
        origin = f"source rank {rank}"
        shard = next(sources, None)
        if shard is None:
            raise ReshardError(f"reshard needs {self.N} source shards, got only {rank}")
        _validate_payload(shard, self.N, rank, origin)
        headers = _complete_headers(shard, origin)
        if rank == 0:
            self._adopt_rank0(shard, headers)
        else:
            self._check_against_rank0(headers, origin)
        for g, (src, dst) in self.partitions.items():
            entry = shard.get("state", {}).get(g) or {}
            arrays = (
                shard.get("fp32_flat_groups", {}).get(g),
                entry.get("exp_avg"),
                entry.get("exp_avg_sq"),
            )
            if any(a is None for a in arrays):
                raise ReshardError(f"{origin}: group {g} state arrays are missing")
            arrays = [np.asarray(a, dtype=np.float32) for a in arrays]
            if any(a.shape != (src.shard_numel,) for a in arrays):
                raise ReshardError(
                    f"{origin}: group {g} arrays have shapes "
                    f"{[a.shape for a in arrays]}, expected ({src.shard_numel},)"
                )
            # Pre-CRC shards carry no crc32: container checks already applied.
            if "crc32" in headers[g] and group_payload_crc(*arrays) != int(headers[g]["crc32"]):
                raise ReshardError(
                    f"{origin}: CRC mismatch for group {g} (corrupt optimizer state)"
                )
            step = _group_step(entry, g, origin)
            if step != self.steps[g]:
                raise ReshardError(
                    f"{origin}: group {g} step {step} disagrees with "
                    f"rank 0's {self.steps[g]}"
                )
            src_lo, src_hi = src.master_bounds(rank)
            src_base = src.bounds(rank)[0]
            for m in src.overlapping_ranks(rank, dst):
                if m not in self.targets:
                    self.targets[m] = self._open_target()
                fp32, state = self.targets[m]
                dst_lo, dst_hi = dst.master_bounds(m)
                lo, hi = max(src_lo, dst_lo), min(src_hi, dst_hi)
                dst_base = dst.bounds(m)[0]
                for out, arr in zip((fp32[g], state[g]["exp_avg"], state[g]["exp_avg_sq"]), arrays):
                    out[lo - dst_base : hi - dst_base] = arr[lo - src_base : hi - src_base]

    def completed(self, rank: int) -> Iterator[dict[str, Any]]:
        """Target payloads whose last source is ``rank`` (or earlier)."""
        while self.emitted < self.M and self.ready[self.emitted] <= rank:
            m = self.emitted
            self.emitted += 1
            fp32, state = self.targets.pop(m, None) or self._open_target()
            yield _target_payload(
                m, self.M, self.headers, self.hyperparams, self.extras, fp32, state
            )


def reshard_sweep(
    sources: Iterable[Mapping[str, Any]],
    source_world_size: int,
    target_world_size: int,
) -> Iterator[dict[str, Any]]:
    """Re-partition N complete rank payloads into M, lazily on both sides.

    ``sources`` is iterated once, in rank order, one payload at a time —
    pass a generator that reads each shard on demand and the sweep never
    holds more than one source.  Every source is validated (format,
    world size, rank, completeness), checked against rank 0 (group set,
    geometry, per-group step counters) and CRC-verified group by group;
    its master intervals are then scattered into the target shard(s)
    they overlap.  Target payloads are yielded in rank order, each as
    soon as the last source it overlaps has been consumed, so a caller
    that drops each payload before asking for the next keeps peak
    memory at one source shard plus the open target(s).

    Hyper-parameters and non-canonical top-level keys (``global_step``,
    ``merged_by``, ...) are taken from source rank 0 and replicated to
    every target rank: the engine writes the scheduler-driven reference
    optimizer's values — and identical extras — into all shards, so the
    ranks agree by construction and rank 0 wins on hand-made divergence.
    Group padding is canonically zero (the engine's gradients and
    moments vanish on the padded tail), which is what makes N→M→N
    bitwise.
    """
    N, M = int(source_world_size), int(target_world_size)
    if N < 1:
        raise ReshardError("reshard needs at least one source shard")
    if M < 1:
        raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
    sources = iter(sources)
    sweep = _Sweep(N, M)
    for rank in range(N):
        sweep.scatter_next(sources, rank)
        yield from sweep.completed(rank)


def reshard_state_dicts(
    shards: Sequence[Mapping[str, Any]], target_world_size: int
) -> list[dict[str, Any]]:
    """Re-partition N complete rank payloads into M (all targets, in memory)."""
    shards = list(shards)
    return list(reshard_sweep(shards, len(shards), target_world_size))


def reshard_rank_state_dict(
    shards: Sequence[Mapping[str, Any]], target_world_size: int, rank: int
) -> dict[str, Any]:
    """One target rank's resharded payload, stopping the sweep at ``rank``.

    The engine's elastic ``load_rank_state_dict(..., peers=...)`` path
    uses this.  Callers restoring *all* ranks should drain
    :func:`reshard_sweep` once instead of calling this M times.
    """
    if not 0 <= rank < int(target_world_size):
        raise ReshardError(
            f"target rank {rank} out of range for world_size {target_world_size}"
        )
    shards = list(shards)
    return next(islice(reshard_sweep(shards, len(shards), target_world_size), rank, None))


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
    rewritten with the target world size plus reshard provenance; the
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
    if not paths.exists():
        raise ReshardError(f"checkpoint directory not found: {paths.dir}")
    manifest = paths.read_manifest()
    if not manifest.get("complete", False):
        missing = sorted(
            set(manifest.get("all_slots", [])) - set(manifest.get("slots", []))
        )
        raise ReshardError(
            f"{paths.dir} is a partial checkpoint (missing slots {missing[:6]}"
            f"{'...' if len(missing) > 6 else ''}); merge the trail into a "
            "complete checkpoint before resharding"
        )
    N = int(manifest["world_size"])
    M = int(target_world_size)
    if M < 1:
        raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
    if topology is not None and max(N, M) > topology.world_size:
        raise ReshardError(
            f"reshard {N}->{M} does not fit topology {topology.shape} "
            f"(capacity {topology.world_size})"
        )

    step = int(manifest["step"])
    out_paths = CheckpointPaths(output)
    if out_paths.dir.resolve() == paths.dir.resolve():
        raise ReshardError(
            f"cannot reshard {paths.dir} in place: target shards would "
            "overwrite source shards still being read — use a separate "
            "output directory"
        )
    # The output directory may be arbitrarily named; the optim dir is
    # derived from the source step rather than out_paths.step (which
    # would need the manifest — deliberately written last, see below).
    # One naming trap is rejected outright: a ``checkpoint-<other>``
    # name would make CheckpointPaths.step prefer the directory name
    # over the manifest and resolve shards under the wrong global_step.
    name_match = re.match(r"^checkpoint-(\d+)$", out_paths.dir.name)
    if name_match and int(name_match.group(1)) != step:
        raise ReshardError(
            f"output directory {out_paths.dir.name!r} names step "
            f"{name_match.group(1)} but the checkpoint is at step {step}; "
            f"use checkpoint-{step} or a non-checkpoint-<step> name"
        )
    out_optim_dir = out_paths.dir / f"global_step{step}"
    out_optim_dir.mkdir(parents=True, exist_ok=True)

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
        for r in range(N):
            shard_path = paths.shard(r)
            if not shard_path.exists():
                raise ReshardError(f"missing optimizer shard for rank {r}: {shard_path}")
            report.files_loaded += 1
            report.bytes_loaded += shard_path.stat().st_size
            yield read_blob(shard_path)

    sweep = reshard_sweep(read_sources(), N, M)
    for m in range(M):  # M >= 1: numels is bound below
        timer = WallTimer()
        with timer:
            payload = next(sweep)
            numels = [int(h["numel"]) for h in payload["groups"]]
            report.bytes_written += write_blob(out_optim_dir / shard_filename(m), payload)
            del payload  # must not outlive the next source read
        report.rank_seconds.append(timer.elapsed)
    report.num_groups = len(numels)
    if topology is not None:
        report.intra_bytes, report.inter_bytes = placement_transfer_bytes(
            numels, N, M, topology
        )

    # Re-using an output directory from an earlier, larger-M reshard must
    # not leave stale higher-rank shard files behind the new manifest.
    valid_names = {shard_filename(m) for m in range(M)}
    for stale in out_optim_dir.glob(shard_filename("*")):
        if stale.name not in valid_names:
            stale.unlink()

    # Weights + config files are world-size independent: copy verbatim.
    shutil.copy2(paths.weights, out_paths.dir / paths.weights.name)
    for name in CheckpointPaths.CONFIG_FILES:
        src_file = paths.dir / name
        if src_file.exists():
            shutil.copy2(src_file, out_paths.dir / name)

    # Manifest last (same discipline as save_checkpoint): an aborted
    # reshard must not leave a complete-marked directory that resume
    # tooling would pick up with its shards missing.
    out_manifest = dict(manifest, world_size=M)
    out_manifest["reshard_provenance"] = {
        "source": str(paths.dir),
        "source_world_size": N,
    }
    out_paths.write_manifest(out_manifest)

    report.total_seconds = total.stop()
    return report
