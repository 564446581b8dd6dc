"""Coverage-aware checkpoint retention.

Partial checkpointing complicates the usual "keep the last N
checkpoints" policy: deleting an old checkpoint may remove the *only*
copy of a layer slot and make recovery impossible.  This module prunes
old checkpoints while guaranteeing that every slot of the model remains
recoverable from the surviving set — the retention policy a production
deployment of layer-wise checkpointing needs (an extension beyond the
paper's prototype, which "can only manipulate local checkpoints", §7).
"""

from __future__ import annotations

import re
from pathlib import Path

from ..util.errors import CheckpointError
from ..util.logging import get_logger
from .layout import (
    CheckpointPaths,
    RunIndex,
    checkpoint_dir,
    list_checkpoint_steps,
    read_latest,
)

__all__ = ["prunable_steps", "prune_checkpoints"]

log = get_logger("io.retention")

# What a merging recovery writes at a run's root (``Trainer.auto_recover``).
_MERGED_RE = re.compile(r"^merged-(\d+)$")


def _covered(coverage: dict[int, list[str]], keep: set[int]) -> set[str]:
    slots: set[str] = set()
    for step in keep:
        slots.update(coverage[step])
    return slots


def prunable_steps(root: str | Path, keep_last: int) -> list[int]:
    """Steps safe to delete while keeping ``keep_last`` newest, full
    slot coverage, and the newest *complete* checkpoint.

    Walks candidates oldest-first; a checkpoint is prunable if the
    remaining set still covers every slot any checkpoint ever saved
    (the union is the model's slot set for any sane strategy).  The
    newest complete checkpoint is additionally protected even when
    partial checkpoints cover its slots: a partial set can only be
    resumed *after* a merge, so evicting the last self-sufficient
    world-size-consistent snapshot would make failure recovery depend
    on a merge succeeding — exactly what a bitrotten or mid-write shard
    can break.
    """
    if keep_last < 1:
        raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
    index = RunIndex(root)  # one scan, each manifest read once
    coverage = index.coverage_map()
    steps = sorted(coverage)
    if len(steps) <= keep_last:
        return []
    all_slots = _covered(coverage, set(steps))
    protected = set(steps[-keep_last:])
    anchor = max(index.complete_steps(), default=None)
    if anchor is not None:
        protected.add(anchor)
    keep = set(steps)
    prunable: list[int] = []
    for step in steps:  # oldest first
        if step in protected:
            continue
        candidate = keep - {step}
        if _covered(coverage, candidate) == all_slots:
            keep = candidate
            prunable.append(step)
    return prunable


def prune_checkpoints(
    root: str | Path,
    keep_last: int,
    *,
    dry_run: bool = False,
    blob_store=None,
    tenant: str | None = None,
) -> list[int]:
    """Delete prunable checkpoints, husks and stale recovery merges;
    returns the checkpoint steps removed.

    A husk is a ``checkpoint-<k>`` directory without a manifest, older
    than the newest published checkpoint: what a killed prune or a
    killed save leaves behind, and what every reader already skips.  A
    ``merged-<k>`` directory (a merging recovery's output, never a merge
    source) is stale once a published ``checkpoint-<j>``, ``j > k``,
    exists: the run has checkpointed past the point it resumed from.
    Never deletes the directory the ``latest`` pointer names, and nothing
    under ``dry_run``.  The manifest goes before the tree
    (:meth:`~repro.io.layout.CheckpointPaths.delete`), so a kill mid-prune
    leaves a husk (or a manifest-less ``merged-<k>``) the next prune collects.

    When the run's shard groups were ingested into a serve
    :class:`~repro.io.storage.BlobStore`, pass it (with the ``tenant``
    the groups were registered under) so retention and the store agree
    on ownership: deleting a checkpoint releases exactly *this tenant's*
    references on it, and the follow-up sweep reclaims only objects no
    other owner still claims.  A group dedup'd across two tenants
    therefore survives either tenant's retention pass — the refcount is
    the arbiter, never the order of pruning.
    """
    root = Path(root)
    latest = read_latest(root)
    latest_step = latest.step if latest is not None else None
    published = RunIndex(root).steps()
    newest = max(published, default=0)
    husks = [s for s in list_checkpoint_steps(root) if s not in published and s < newest]
    removed = [s for s in sorted(prunable_steps(root, keep_last) + husks) if s != latest_step]
    doomed = [checkpoint_dir(root, s) for s in removed]
    if root.is_dir():
        doomed += [
            CheckpointPaths(child) for child in sorted(root.iterdir())
            if (m := _MERGED_RE.match(child.name)) and child.is_dir() and int(m.group(1)) < newest
        ]
    if dry_run:
        return removed
    for ckpt in doomed:
        if blob_store is not None:
            blob_store.release(blob_store.owner_token(tenant or root.name, ckpt.dir))
        ckpt.delete()
        log.info("pruned %s", ckpt.dir.name)
    if doomed and blob_store is not None:
        swept = blob_store.sweep()
        if swept:
            log.info("blob store sweep reclaimed %d object(s)", len(swept))
    return removed
