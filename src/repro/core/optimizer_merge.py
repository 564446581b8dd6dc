"""Optimizer shard merging — the heart of LLMTailor (paper §4.2).

Per data-parallel rank ``r`` there is one monolithic shard blob per
checkpoint; because optimizer state cannot be lazily loaded, building
the merged rank-``r`` shard requires a *full pass* over every source
checkpoint's rank-``r`` blob.  The tailored 2L+x group layout makes the
copy itself trivial: a transformer layer owns exactly two group indices
(computable from the config alone), so merging is "index, copy, insert".

Every load is a selective read: it walks the monolithic shard
sequentially (container length and CRC apply) but inflates and
materializes only the parameter groups the plan takes from that source,
each passed through :func:`repro.dist.shard.check_payload` before it is
copied — as records of their stored bytes (:class:`repro.io.blobfile.Record`),
each decoded once for its CRC check and written back verbatim, the way
the weight merge copies tensor bytes.  That decode is the merge's only
one: each written group's :func:`~repro.dist.shard.group_digest` goes back
in :class:`RankMergeStats`, and the merge's verify matches the output's
records to it instead of decoding them again.  Two load policies
reproduce the paper's Table 7 regimes:

* ``per-checkpoint`` — each distinct source blob is read once per rank
  (the "straightforward" mode: layers 1-16 from ckpt A, 17-32 from B);
* ``none`` — the source blob is re-read for every slot (the
  "interleaved parity" mode, which loads and discards checkpoints N
  times and dominates merge time).

Ranks are the merge's one unit of parallelism (§4.2): the recipe's
``workers`` sizes a ``ProcessPoolExecutor`` over them, clamped by
:func:`worker_budget`.  Within a rank the loads run one after another.
The merge runs in-process when ``workers == 1`` or when multiprocessing
is unavailable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..dist.shard import (
    GroupEntry,
    build_payload,
    check_payload,
    content_key,
    group_array,
    group_digest,
    metadata_only,
    select_groups,
)
from ..io.blobfile import read_blob_selected, write_blob
from ..io.layout import CheckpointPaths, shard_filename
from ..io.storage import GroupCache, group_key
from ..nn.slots import model_slots
from ..util.errors import MergeError
from ..util.timer import WallTimer
from .groups import groups_for_slot
from .plan import MergePlan, load_schedule

__all__ = [
    "RankMergeStats",
    "get_group_cache",
    "merge_optimizer_shards",
    "merge_rank_shard",
    "read_shard_metadata",
    "set_group_cache",
    "worker_budget",
]

# Cross-request group cache installed by the serve daemon (None outside
# a service process).  The engine consults it per shard load; the
# one-shot CLI paths never install one, so their behaviour — and their
# bitwise output, which the cache preserves by construction — is
# unchanged.
_GROUP_CACHE: GroupCache | None = None


def set_group_cache(cache: GroupCache | None) -> GroupCache | None:
    """Install (or clear) the process-wide merge group cache.

    Returns the previously installed cache so callers can restore it.
    Only in-process rank merges consult the cache; rank fan-out
    through a process pool cannot see it, which is why a served merge
    always runs in its worker thread (``workers=1``).
    """
    global _GROUP_CACHE
    previous = _GROUP_CACHE
    _GROUP_CACHE = cache
    return previous


def get_group_cache() -> GroupCache | None:
    """The currently installed merge group cache, if any."""
    return _GROUP_CACHE


def worker_budget(workers: int, tasks: int) -> int:
    """Clamp a requested fan-out to the task count and machine size.

    The single worker-pool policy shared by the merge engine and the
    resharder: never more workers than independent tasks, never
    oversubscribe a small machine, never less than one.
    """
    return max(1, min(workers, tasks, os.cpu_count() or 1))


@dataclass
class RankMergeStats:
    """Per-rank accounting for the merge-overhead experiments (Table 7),
    plus ``digests``: the :func:`~repro.dist.shard.group_digest` of every
    group written from checked records, which the merge's verify takes."""

    rank: int
    files_loaded: int = 0
    bytes_loaded: int = 0
    load_seconds: float = 0.0
    write_seconds: float = 0.0
    bytes_written: int = 0
    checkpoints_touched: int = 0
    slots_copied: int = 0
    digests: dict[int, tuple] = field(default_factory=dict)


def _extract(
    world_size: int, rank: int, source_dir: Path, wanted: set[int]
) -> tuple[dict[int, GroupEntry], float, int]:
    """Selectively read one shard, materializing only ``wanted`` groups.

    Returns ``(groups, load_seconds, file_bytes)``.  The whole file is
    still read and CRC-checked (the blob is monolithic), but skipped
    groups are neither inflated nor turned into numpy arrays; each
    materialized group is additionally checked against its own header
    ``crc32``, which also catches tampering that re-wrote a
    self-consistent container.  The taken arrays stay records (pre-CRC
    groups excepted), decoded one at a time for that check only.
    """
    shard_path = CheckpointPaths(source_dir).shard(rank)
    want, indexed_filter = select_groups(wanted)
    timer = WallTimer()
    with timer:  # the read, and the one decode of each taken array (its CRC check)
        shard = read_blob_selected(
            shard_path, want, indexed_filter=indexed_filter, as_record=group_array
        )
        entries = check_payload(
            shard, world_size=world_size, rank=rank, origin=str(shard_path),
            error=MergeError, wanted=wanted,
        )
    return entries, timer.elapsed, shard_path.stat().st_size


def read_shard_metadata(shard_path: str | Path) -> dict:
    """One cheap selective pass: the whole shard *except* array payloads.

    Headers, hyperparams, top-level fields and each group's step counter
    decode normally.  The pass still reads and CRC-checks the whole file
    but inflates nothing and materializes no numpy arrays, so it costs
    read bandwidth only — the serve group cache memoizes it per file
    identity, making repeat requests metadata-free too.
    """
    return read_blob_selected(Path(shard_path), metadata_only)


def _extract_cached(
    cache: GroupCache, world_size: int, rank: int, source_dir: Path,
    wanted: set[int],
) -> tuple[dict[int, GroupEntry], float, int]:
    """Serve one selective load through the cross-request group cache.

    Array payloads come from the cache by content key (per-group CRC +
    rank-local length); headers, hyperparams and step counters always
    come from *this* file's metadata pass, so content-identical groups
    with different schedules cannot cross-contaminate.  Groups the cache
    does not hold fall back to the normal selective read (which CRC-
    verifies them) and are inserted, as records, for the next request.
    Output is bitwise-identical to the uncached path: every byte written
    is either metadata read from the source file or array content whose
    CRC (the content key's) matches what the source file declares.
    """
    shard_path = CheckpointPaths(source_dir).shard(rank)
    timer = WallTimer()
    with timer:
        meta, fresh = cache.metadata(shard_path, read_shard_metadata)
        entries = check_payload(
            meta, world_size=world_size, rank=rank, origin=str(shard_path),
            error=MergeError, wanted=(),
        )
        keys = {
            g: content_key(entries[g].header, world_size) if g in entries else None
            for g in wanted
        }
        # Shards predating per-group CRCs have no content address (and a
        # missing group or step is the plain path's error to report):
        # take the plain selective read, whole-payload CRC applies.
        if any(keys[g] is None or entries[g].step is None for g in wanted):
            return _extract(world_size, rank, source_dir, wanted)
        nbytes = shard_path.stat().st_size if fresh else 0

        arrays = {g: cache.get(group_key(*keys[g])) for g in sorted(wanted)}
        missing = {g for g in wanted if arrays[g] is None}
        if missing:
            # The plain path CRC-verifies exactly the groups it decodes,
            # which is what licenses inserting them under a content key.
            subset, _, sub_nbytes = _extract(world_size, rank, source_dir, missing)
            nbytes += sub_nbytes
            for g in sorted(missing):
                e = subset[g]
                arrays[g] = {"fp32": e.fp32, "exp_avg": e.exp_avg, "exp_avg_sq": e.exp_avg_sq}
                cache.put(group_key(*keys[g]), arrays[g])
        groups = {g: entries[g]._replace(**arrays[g], crc=keys[g][0]) for g in arrays}
    return groups, timer.elapsed, nbytes


def merge_rank_shard(
    plan: MergePlan, global_step: int, optim_dir: str | Path, rank: int
) -> RankMergeStats:
    """Build and write the merged shard for one rank into ``optim_dir``
    (the merge's rewrite transaction created it); returns its stats.

    Top-level, and ``plan`` pickles, so a ``ProcessPoolExecutor`` can run it.
    """
    config, world_size = plan.config, plan.world_size
    stats = RankMergeStats(rank=rank)
    tasks = load_schedule(
        model_slots(config), lambda slot: plan.slot_sources[slot].dir,
        plan.options.cache_mode,
    )
    cache = _GROUP_CACHE
    extract = _extract if cache is None else partial(_extract_cached, cache)

    merged: dict[int, GroupEntry] = {}
    seen_sources: set[Path] = set()
    for source_dir, slots in tasks:
        wanted = {g for slot in slots for g in groups_for_slot(config, slot)}
        entries, load_seconds, nbytes = extract(world_size, rank, source_dir, wanted)
        stats.load_seconds += load_seconds
        stats.files_loaded += 1
        stats.bytes_loaded += nbytes
        if source_dir not in seen_sources:
            seen_sources.add(source_dir)
            stats.checkpoints_touched += 1
        for slot in slots:
            for g in groups_for_slot(config, slot):
                merged[g] = entries[g]
            stats.slots_copied += 1

    num_groups = config.num_param_groups_tailored
    if set(merged) != set(range(num_groups)):
        missing = sorted(set(range(num_groups)) - set(merged))
        raise MergeError(f"merge produced incomplete group set; missing {missing[:8]}")
    payload = build_payload(
        world_size, rank, num_groups, merged.values(),
        {"global_step": global_step, "merged_by": "llmtailor"},
    )
    stats.digests = {g: d for g, e in merged.items() if (d := group_digest(e)) is not None}

    timer = WallTimer()
    with timer:
        stats.bytes_written = write_blob(Path(optim_dir) / shard_filename(rank), payload)
    stats.write_seconds = timer.elapsed
    return stats


def merge_optimizer_shards(
    plan: MergePlan, global_step: int, optim_dir: str | Path
) -> list[RankMergeStats]:
    """Merge every rank's shard, ``plan.options.workers`` ranks at a time.

    Returns per-rank stats in rank order.
    """
    merge_rank = partial(merge_rank_shard, plan, global_step, optim_dir)
    ranks = range(plan.world_size)
    max_workers = worker_budget(plan.options.workers, plan.world_size)
    if max_workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                return list(pool.map(merge_rank, ranks))
        except (OSError, PermissionError):
            pass  # sandboxes without fork/semaphores: merge in-process
    return [merge_rank(r) for r in ranks]
