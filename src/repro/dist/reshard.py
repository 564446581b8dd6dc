"""Elastic N→M resharding of ZeRO-3 optimizer checkpoints.

Real fleets rarely resume on the world size they checkpointed with: a
training job that saved on N data-parallel ranks comes back on M
(shrunk after a hardware loss, grown after a quota bump).  DeepSpeed's
monolithic per-rank shard files make that a full
gather-everything-then-rescatter operation; this module does it as a
*streaming* transformation instead, built from the same primitives the
merge engine uses (paper §4.2, §5.4):

* per-group shard math — :class:`~repro.dist.partition.GroupPartition`
  makes the N→M mapping a set of interval intersections in master
  coordinates (``N + M - gcd(N, M)`` transfers per group);
* selective TLV reads — :func:`~repro.io.blobfile.read_blob_selected`
  materializes only the groups a target rank needs from each source
  shard, with each group checked against its header ``crc32``;
* the merge engine's worker budget — independent target-rank transfers
  fan across a thread pool clamped by
  :func:`repro.core.optimizer_merge.worker_budget`.

Peak memory is bounded by one *target* shard plus one source shard's
selected groups per concurrent worker — never the full master state —
so N→M stays cheap even when neither N nor M is 1.  ``N→1`` degenerates to a merge-style full
consolidation and ``1→M`` to a scatter; both fall out of the same
interval math.

The output is bitwise round-trippable: resharding N→M→N reproduces the
original shard files exactly, because group padding is canonically zero
(gradients, moments, and AdamW updates all vanish on the padded tail)
and every other byte is carried or recomputed deterministically.
"""

from __future__ import annotations

import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..io.blobfile import read_blob, read_blob_selected, write_blob
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
    stream: bool
    workers: int
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
        mode = "stream" if self.stream else "materialize"
        lines = [
            f"resharded checkpoint: {self.output}",
            f"  world size           : {self.source_world_size} -> "
            f"{self.target_world_size}",
            f"  engine               : {mode}, workers={self.workers}",
            f"  groups per shard     : {self.num_groups}",
            f"  shard files loaded   : {self.files_loaded} "
            f"({self.bytes_loaded} bytes)",
            f"  shard bytes written  : {self.bytes_written}",
            f"  total time           : {self.total_seconds:.3f}s",
        ]
        if self.topology is not None:
            lines.insert(
                3,
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


def _verify_group_crc(
    header: Mapping[str, Any], arrays: Mapping[str, np.ndarray], g: int, origin: str
) -> None:
    if "crc32" not in header:
        return  # pre-CRC shard: container-level checks already applied
    actual = group_payload_crc(arrays["fp32"], arrays["exp_avg"], arrays["exp_avg_sq"])
    if actual != int(header["crc32"]):
        raise ReshardError(
            f"{origin}: CRC mismatch for group {g} (corrupt optimizer state)"
        )


def _group_step(state_entry: Mapping[str, Any] | None, g: int, origin: str) -> int:
    if not state_entry or "step" not in state_entry:
        raise ReshardError(f"{origin}: group {g} state is missing its step counter")
    return int(state_entry["step"])


# ---------------------------------------------------------------------------
# Target payload assembly (shared by both engines)
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
# In-memory core
# ---------------------------------------------------------------------------

def _reshard_payloads(
    shards: Sequence[Mapping[str, Any]],
    target_world_size: int,
    ranks: Sequence[int],
    *,
    consume: bool = False,
) -> list[dict[str, Any]]:
    """Re-partition N complete payloads, materializing only ``ranks``.

    With ``consume`` the source payloads are destructively drained: each
    group's arrays are dropped from every source dict once re-sliced, so
    peak memory stays near one full optimizer state instead of two.
    """
    shards = list(shards)
    if not shards:
        raise ReshardError("reshard needs at least one source shard")
    M = int(target_world_size)
    if M < 1:
        raise ReshardError(f"target world_size must be >= 1, got {target_world_size}")
    N = len(shards)
    headers_by_rank: list[dict[int, dict]] = []
    for rank, shard in enumerate(shards):
        _validate_payload(shard, N, rank, f"source rank {rank}")
        headers_by_rank.append(_complete_headers(shard, f"source rank {rank}"))

    ref = shards[0]
    headers = headers_by_rank[0]
    for rank, other in enumerate(headers_by_rank[1:], start=1):
        if set(other) != set(headers):
            raise ReshardError(
                f"source rank {rank}: group set differs from rank 0 "
                f"({len(other)} vs {len(headers)} groups) — the shards "
                "belong to different checkpoints"
            )
        for g, header in headers.items():
            if int(other[g]["numel"]) != int(header["numel"]) or list(
                other[g].get("param_names", [])
            ) != list(header.get("param_names", [])):
                raise ReshardError(
                    f"source rank {rank}: group {g} geometry differs from rank 0 — "
                    "the shards belong to different checkpoints"
                )

    hyperparams = list(ref.get("hyperparams", []))
    extras = _extras(ref)

    out_fp32: dict[int, dict[int, np.ndarray]] = {m: {} for m in ranks}
    out_state: dict[int, dict[int, dict]] = {m: {} for m in ranks}
    for g in sorted(headers):
        numel = int(headers[g]["numel"])
        src = GroupPartition(numel, N)
        dst = GroupPartition(numel, M)
        arrays_by_rank: list[dict[str, np.ndarray]] = []
        steps = set()
        for rank, shard in enumerate(shards):
            origin = f"source rank {rank}"
            entry = shard.get("state", {}).get(g) or {}
            fp32 = shard.get("fp32_flat_groups", {}).get(g)
            if fp32 is None or entry.get("exp_avg") is None or entry.get("exp_avg_sq") is None:
                raise ReshardError(f"{origin}: group {g} state arrays are missing")
            arrays = {
                "fp32": np.asarray(fp32, dtype=np.float32),
                "exp_avg": np.asarray(entry["exp_avg"], dtype=np.float32),
                "exp_avg_sq": np.asarray(entry["exp_avg_sq"], dtype=np.float32),
            }
            _verify_group_crc(headers_by_rank[rank][g], arrays, g, origin)
            steps.add(_group_step(entry, g, origin))
            arrays_by_rank.append(arrays)
            if consume:
                shard["fp32_flat_groups"].pop(g, None)
                entry.pop("exp_avg", None)
                entry.pop("exp_avg_sq", None)
        if len(steps) != 1:
            raise ReshardError(
                f"group {g}: step counters disagree across source ranks ({sorted(steps)})"
            )
        step = steps.pop()
        for m in ranks:
            out_state[m][g] = {"step": step}
        for key in ("fp32", "exp_avg", "exp_avg_sq"):
            master = src.gather([arrays[key] for arrays in arrays_by_rank])
            for m in ranks:
                lo, hi = dst.master_bounds(m)
                target = np.zeros(dst.shard_numel, dtype=np.float32)
                target[: hi - lo] = master[lo:hi]
                if key == "fp32":
                    out_fp32[m][g] = target
                else:
                    out_state[m][g][key] = target

    return [
        _target_payload(m, M, headers, hyperparams, extras, out_fp32[m], out_state[m])
        for m in ranks
    ]


def reshard_state_dicts(
    shards: Sequence[Mapping[str, Any]],
    target_world_size: int,
    *,
    consume: bool = False,
) -> list[dict[str, Any]]:
    """Re-partition N complete rank payloads into M (fully in memory).

    The inverse-free core of the resharder: gather each group's padded
    source slices, strip the padding, re-pad and re-slice for the target
    world size, recomputing per-group CRCs.  Group padding is canonically
    zero (the engine's gradients and moments vanish on the padded tail),
    which is what makes N→M→N bitwise.

    Hyper-parameters and non-canonical top-level keys (``global_step``,
    ``merged_by``, ...) are taken from source rank 0 and replicated to
    every target rank: the engine writes the scheduler-driven reference
    optimizer's values — and identical extras — into all shards, so the
    ranks agree by construction and rank 0 wins on hand-made divergence.

    This path materializes the full master state — use
    :func:`reshard_checkpoint` with ``stream=True`` for the bounded-
    memory file-to-file version, or :func:`reshard_rank_state_dict` for
    a single target rank's payload.  ``consume`` destructively drains
    the source payloads group by group as they are re-sliced, keeping
    peak memory near one optimizer state instead of two — pass it when
    the sources are not needed afterwards (the elastic reader does).
    """
    return _reshard_payloads(
        shards, target_world_size, range(int(target_world_size)), consume=consume
    )


def reshard_rank_state_dict(
    shards: Sequence[Mapping[str, Any]], target_world_size: int, rank: int
) -> dict[str, Any]:
    """One target rank's resharded payload, without building the other M-1.

    The engine's elastic ``load_rank_state_dict(..., peers=...)`` path
    uses this so a single-rank restore does not allocate every target
    payload.  Callers restoring *all* ranks should call
    :func:`reshard_state_dicts` once instead of this M times.
    """
    M = int(target_world_size)
    if not 0 <= rank < M:
        raise ReshardError(f"target rank {rank} out of range for world_size {M}")
    return _reshard_payloads(shards, M, [rank])[0]


# ---------------------------------------------------------------------------
# Streaming file-based engine
# ---------------------------------------------------------------------------

def _read_shard_metadata(path: Path) -> dict[str, Any]:
    """Everything about a shard except its arrays, in one bounded pass.

    Materializes headers, hyperparams, per-group step counters, and the
    non-canonical top-level keys; the array payloads are skipped in the
    byte stream without being inflated.  The read still drains the file,
    so the container CRC and length checks apply.
    """

    def want(p: tuple) -> bool:
        if len(p) == 2 and p[0] == "fp32_flat_groups":
            return False
        if len(p) == 3 and p[0] == "state" and p[2] != "step":
            return False
        return True

    doc = read_blob_selected(path, want)
    headers = _complete_headers(doc, str(path))
    steps = {
        g: _group_step(doc.get("state", {}).get(g), g, str(path)) for g in headers
    }
    return {
        "headers": headers,
        "hyperparams": list(doc.get("hyperparams", [])),
        "extras": _extras(doc),
        "steps": steps,
    }


def _selective_group_read(
    shard_path: Path, source_world: int, rank: int, wanted: set[int]
) -> dict[str, Any]:
    """Materialize only ``wanted`` groups from one source shard.

    Mirrors the merge engine's selective extract: the read drains the
    file (container length and CRC apply), and every materialized group
    is then verified against its header ``crc32``.
    """
    if not shard_path.exists():
        raise ReshardError(f"missing optimizer shard for rank {rank}: {shard_path}")

    def want(path: tuple) -> bool:
        if len(path) == 2 and path[0] in ("fp32_flat_groups", "state"):
            return path[1] in wanted
        return True

    def indexed_filter(path: tuple):
        if path in (("groups",), ("hyperparams",)):
            return wanted
        return None

    shard = read_blob_selected(shard_path, want, indexed_filter=indexed_filter)
    headers = {int(h["index"]): h for h in shard.get("groups", [])}
    _validate_payload(shard, source_world, rank, str(shard_path))
    for g in wanted:
        if g not in headers or g not in shard.get("fp32_flat_groups", {}):
            raise ReshardError(f"{shard_path}: shard lacks group {g}")
        entry = shard["state"].get(g) or {}
        arrays = {
            "fp32": shard["fp32_flat_groups"][g],
            "exp_avg": entry.get("exp_avg"),
            "exp_avg_sq": entry.get("exp_avg_sq"),
        }
        if any(v is None for v in arrays.values()):
            raise ReshardError(f"{shard_path}: group {g} state arrays are missing")
        _verify_group_crc(headers[g], arrays, g, str(shard_path))
    return shard


def _reshard_one_rank(
    paths: CheckpointPaths,
    out_optim_dir: Path,
    meta: dict[str, Any],
    source_world: int,
    target_world: int,
    m: int,
    topology=None,
) -> dict[str, Any]:
    """Stream-build and write target rank ``m``'s shard; returns stats."""
    headers: dict[int, dict] = meta["headers"]
    partitions = {
        g: (GroupPartition(int(h["numel"]), source_world),
            GroupPartition(int(h["numel"]), target_world))
        for g, h in headers.items()
    }

    # Which groups to pull from which source rank: interval intersections
    # in master coordinates.  Proportional partitioning makes the pattern
    # nearly identical across groups, so each target rank touches about
    # (N + M - gcd(N, M)) / M source shards.
    wanted_by_source: dict[int, set[int]] = {}
    for g, (src, dst) in partitions.items():
        for r in dst.overlapping_ranks(m, src):
            wanted_by_source.setdefault(r, set()).add(g)

    fp32: dict[int, np.ndarray] = {}
    state: dict[int, dict] = {}
    for g, (_, dst) in partitions.items():
        fp32[g] = np.zeros(dst.shard_numel, dtype=np.float32)
        state[g] = {
            "step": meta["steps"][g],
            "exp_avg": np.zeros(dst.shard_numel, dtype=np.float32),
            "exp_avg_sq": np.zeros(dst.shard_numel, dtype=np.float32),
        }

    # Placement-aware read order: pull same-node source shards first so
    # the slow inter-node links are touched last (and, on a saturated
    # fabric, overlap with intra-node work).  Each source fills disjoint
    # target intervals, so any order is bitwise-identical.
    read_order = sorted(wanted_by_source)
    if topology is not None:
        read_order.sort(key=lambda r: topology.link_class(r, m) != "intra")

    timer = WallTimer()
    stats = {"rank": m, "files_loaded": 0, "bytes_loaded": 0, "bytes_written": 0}
    with timer:
        for r in read_order:
            wanted = wanted_by_source[r]
            shard_path = paths.shard(r)
            shard = _selective_group_read(shard_path, source_world, r, wanted)
            stats["files_loaded"] += 1
            stats["bytes_loaded"] += shard_path.stat().st_size
            if int(shard.get("num_total_groups", -1)) != len(headers):
                raise ReshardError(
                    f"{shard_path}: shard carries {shard.get('num_total_groups')} "
                    f"groups, rank 0 carries {len(headers)} — the shards belong "
                    "to different checkpoints"
                )
            src_headers = {int(h["index"]): h for h in shard["groups"]}
            for g in sorted(wanted):
                src, dst = partitions[g]
                # Same cross-rank geometry contract as the materializing
                # path: a foreign shard must fail, not interleave.
                if int(src_headers[g]["numel"]) != src.numel or list(
                    src_headers[g].get("param_names", [])
                ) != list(headers[g].get("param_names", [])):
                    raise ReshardError(
                        f"{shard_path}: group {g} geometry differs from rank 0 — "
                        "the shards belong to different checkpoints"
                    )
                step = _group_step(shard["state"].get(g), g, str(shard_path))
                if step != meta["steps"][g]:
                    raise ReshardError(
                        f"{shard_path}: group {g} step {step} disagrees with "
                        f"rank 0's {meta['steps'][g]}"
                    )
                src_lo, src_hi = src.master_bounds(r)
                dst_lo, dst_hi = dst.master_bounds(m)
                lo, hi = max(src_lo, dst_lo), min(src_hi, dst_hi)
                if lo >= hi:
                    continue
                src_base = src.bounds(r)[0]
                dst_base = dst.bounds(m)[0]
                entry = shard["state"][g]
                for key, source_arr in (
                    ("fp32", shard["fp32_flat_groups"][g]),
                    ("exp_avg", entry["exp_avg"]),
                    ("exp_avg_sq", entry["exp_avg_sq"]),
                ):
                    target_arr = fp32[g] if key == "fp32" else state[g][key]
                    target_arr[lo - dst_base : hi - dst_base] = np.asarray(
                        source_arr, dtype=np.float32
                    )[lo - src_base : hi - src_base]

        payload = _target_payload(
            m, target_world, headers, meta["hyperparams"], meta["extras"], fp32, state
        )
        stats["bytes_written"] = write_blob(out_optim_dir / shard_filename(m), payload)
    stats["seconds"] = timer.elapsed
    return stats


def reshard_checkpoint(
    source: "str | Path | CheckpointPaths",
    output: str | Path,
    target_world_size: int,
    *,
    stream: bool = True,
    workers: int = 1,
    topology=None,
) -> ReshardReport:
    """Convert a complete checkpoint from world size N to M on disk.

    Weights and config/metadata files are carried over verbatim (the
    consolidated weight file is world-size independent); the manifest is
    rewritten with the target world size plus reshard provenance; the
    optimizer shards are re-partitioned.

    ``stream=True`` (the default) consumes source shards group-by-group
    through selective reads and writes each target shard as soon as it
    is assembled, bounding peak memory to roughly one target shard plus
    one source shard per concurrent worker — the full master state
    never exists in memory.
    Independent target ranks fan across a thread pool sized by the merge
    engine's worker budget.  ``stream=False`` materializes everything
    through :func:`reshard_state_dicts` (the reference path; bitwise-
    identical output).

    With ``topology`` (a :class:`~repro.dist.topology.Topology`) the
    streaming reads become placement-aware — each target rank pulls
    same-node source shards before cross-node ones (bitwise-identical
    output: sources fill disjoint intervals) — and the report carries
    per-link-class logical byte totals
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
        stream=bool(stream),
        workers=int(workers),
        num_groups=0,
        topology=None if topology is None else topology.shape,
    )

    if stream:
        meta_path = paths.shard(0)
        meta = _read_shard_metadata(meta_path)
        # The metadata pass reads shard 0 once more than the
        # group transfers do — count it, so the report (and the cost
        # model's N + M - gcd + 1) stays honest.
        report.files_loaded += 1
        report.bytes_loaded += meta_path.stat().st_size
        report.num_groups = len(meta["headers"])
        # Local import: optimizer_merge imports repro.dist at module load,
        # so the shared budget helper must be resolved lazily here.
        from ..core.optimizer_merge import worker_budget

        pool_size = worker_budget(workers, M)
        jobs = range(M)
        if pool_size > 1:
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                results = list(
                    pool.map(
                        lambda m: _reshard_one_rank(
                            paths, out_optim_dir, meta, N, M, m, topology
                        ),
                        jobs,
                    )
                )
        else:
            results = [
                _reshard_one_rank(paths, out_optim_dir, meta, N, M, m, topology)
                for m in jobs
            ]
        for stats in results:
            report.files_loaded += stats["files_loaded"]
            report.bytes_loaded += stats["bytes_loaded"]
            report.bytes_written += stats["bytes_written"]
            report.rank_seconds.append(stats["seconds"])
        if topology is not None:
            numels = [int(h["numel"]) for _, h in sorted(meta["headers"].items())]
            report.intra_bytes, report.inter_bytes = placement_transfer_bytes(
                numels, N, M, topology
            )
    else:
        sources = []
        for r in range(N):
            shard_path = paths.shard(r)
            if not shard_path.exists():
                raise ReshardError(f"missing optimizer shard for rank {r}: {shard_path}")
            sources.append(read_blob(shard_path))
            report.files_loaded += 1
            report.bytes_loaded += shard_path.stat().st_size
        if topology is not None:
            numels = [
                int(h["numel"])
                for h in sorted(sources[0]["groups"], key=lambda h: int(h["index"]))
            ]
            report.intra_bytes, report.inter_bytes = placement_transfer_bytes(
                numels, N, M, topology
            )
        payloads = reshard_state_dicts(sources, M, consume=True)
        report.num_groups = int(payloads[0]["num_total_groups"]) if payloads else 0
        for m, payload in enumerate(payloads):
            report.bytes_written += write_blob(out_optim_dir / shard_filename(m), payload)

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
        "stream": bool(stream),
    }
    out_paths.write_manifest(out_manifest)

    report.total_seconds = total.stop()
    return report
