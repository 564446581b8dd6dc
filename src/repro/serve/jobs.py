"""Job lifecycle: state machine, flight recorder, and executors.

A :class:`Job` moves ``queued -> running -> done | failed``; rejected
submits never become jobs.  Each job carries a :class:`JobTimeline`
mirroring the chaos engine's :class:`~repro.dist.faults.FaultTimeline`:
an append-only event list a client can fetch with ``status``/``wait``
to see exactly what the service did on its behalf (admission cost,
queue wait, cache traffic, blob-store ingest).

:func:`execute_job` drives the existing engines — it is the *only*
place the service touches checkpoints, and it calls the very same
library entry points the one-shot CLI commands use
(:meth:`~repro.core.tailor.LLMTailor.merge`,
:func:`~repro.dist.reshard.reshard_checkpoint`,
:func:`~repro.core.diffstat.diff_checkpoints`,
:func:`~repro.strategies.planner.plan_strategy`), which is what makes
served results bitwise-identical to one-shot runs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..dist.shard import check_payload, content_key
from ..io.layout import CheckpointPaths
from ..io.storage import BlobStore, group_key
from ..util.errors import ConfigError, MergeError
from .admission import JobCost
from .protocol import JobSpec

__all__ = [
    "Job",
    "JobTimeline",
    "execute_job",
]

#: Terminal job states (``wait`` long-polls until one of these).
TERMINAL_STATES = ("done", "failed")


@dataclass
class JobTimeline:
    """Chronological record of one job's trip through the service.

    The serve-side counterpart of the chaos engine's
    :class:`~repro.dist.faults.FaultTimeline`: same shape (event list +
    counters, ``record``/``kinds``/``to_dict``/``summary``), but keyed
    by seconds since submit instead of training step.
    """

    events: list[dict] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    blob_refs_added: int = 0
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def record(self, kind: str, **detail: Any) -> None:
        """Append one timeline entry stamped with seconds-since-submit."""
        entry: dict[str, Any] = {
            "t": round(time.monotonic() - self._t0, 6),
            "kind": str(kind),
        }
        entry.update(detail)
        self.events.append(entry)

    def kinds(self) -> list[str]:
        """The ``kind`` of every recorded entry, in order."""
        return [e["kind"] for e in self.events]

    def to_dict(self) -> dict[str, Any]:
        """Serializable form (stable keys, JSON-friendly values)."""
        return {
            "events": [dict(e) for e in self.events],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "blob_refs_added": self.blob_refs_added,
        }

    def summary(self) -> str:
        """A short human-readable recap of the job's service trip."""
        lines = [
            f"job timeline: {len(self.events)} event(s), "
            f"{self.cache_hits} cache hit(s), {self.cache_misses} miss(es)"
        ]
        for e in self.events:
            detail = ", ".join(f"{k}={v}" for k, v in e.items() if k not in ("t", "kind"))
            lines.append(f"  [t+{e['t']:.3f}s] {e['kind']}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)


@dataclass
class Job:
    """One admitted job: spec, accounting, state, and eventual result."""

    id: str
    spec: JobSpec
    cost: JobCost
    status: str = "queued"
    result: dict[str, Any] | None = None
    error: str | None = None
    timeline: JobTimeline = field(default_factory=JobTimeline)

    def to_dict(self, *, include_timeline: bool = True) -> dict[str, Any]:
        """The ``status``/``wait`` response body for this job."""
        out: dict[str, Any] = {
            "id": self.id,
            "tenant": self.spec.tenant,
            "kind": self.spec.kind,
            "priority": self.spec.priority,
            "status": self.status,
            "cost": self.cost.describe(),
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if include_timeline:
            out["timeline"] = self.timeline.to_dict()
        return out


def _shard_group_keys(ckpt: CheckpointPaths) -> list[str]:
    """Content keys of every shard group in a checkpoint (cheap pass).

    Reads only headers and scalars — no arrays — via the merge engine's
    selective metadata read.  Checkpoints whose shards predate the
    per-group CRC headers yield no keys (they simply don't dedup).
    """
    from ..core.optimizer_merge import read_shard_metadata  # lazy: layering

    world_size = ckpt.read_manifest()["world_size"]
    keys: list[str] = []
    for rank, path in enumerate(ckpt.shard_paths(world_size)):
        entries = check_payload(
            read_shard_metadata(path), world_size=world_size, rank=rank,
            origin=str(path), error=MergeError, wanted=(),
        )
        keys += [
            group_key(*key)
            for entry in entries.values()
            if (key := content_key(entry.header, world_size)) is not None
        ]
    return keys


def register_checkpoint_refs(
    store: BlobStore, tenant: str, checkpoint: str | Path, timeline: JobTimeline
) -> int:
    """Claim a tenant's ownership of a checkpoint's groups in the store.

    Returns the number of freshly added references.  Idempotent: a
    second job over the same (tenant, checkpoint) adds nothing, while a
    *different* tenant over identical content adds owners to the same
    objects — that shared refcount is what
    :func:`~repro.io.retention.prune_checkpoints` arbitrates deletions
    with.
    """
    ckpt = CheckpointPaths(checkpoint)
    if not ckpt.exists():
        return 0
    keys = _shard_group_keys(ckpt)
    if not keys:
        return 0
    added = store.add_refs(keys, store.owner_token(tenant, ckpt.dir))
    timeline.blob_refs_added += added
    timeline.record(
        "blob_refs", checkpoint=str(ckpt.dir), keys=len(keys), added=added
    )
    return added


def _run_merge(job: Job, store: BlobStore | None) -> dict[str, Any]:
    from ..core.recipe import load_recipe, parse_recipe
    from ..core.tailor import LLMTailor

    params = job.spec.params
    if "recipe" in params:
        recipe = load_recipe(params["recipe"])
    else:
        recipe = parse_recipe(dict(params["recipe_doc"]))
    # The service's thread pool is the concurrency unit (sized by
    # worker_budget); a job's merge runs in its worker thread, where the
    # shared group cache is visible, so no recipe fans it out.
    options = dataclasses.replace(
        recipe.options,
        workers=1,
        cache_mode=str(params.get("cache_mode", recipe.options.cache_mode)),
    )
    recipe = dataclasses.replace(recipe, options=options)
    if store is not None:
        for source in recipe.distinct_sources():
            register_checkpoint_refs(store, job.spec.tenant, source, job.timeline)
    result = LLMTailor(recipe).merge(params.get("output"))
    job.timeline.record(
        "merged",
        output=str(result.output.dir),
        files_loaded=result.optimizer_files_loaded,
        bytes_loaded=result.optimizer_bytes_loaded,
    )
    return {
        "output": str(result.output.dir),
        "seconds": round(result.total_seconds, 6),
        "files_loaded": result.optimizer_files_loaded,
        "bytes_loaded": result.optimizer_bytes_loaded,
        "verified": result.verify_report is not None,
    }


def _run_reshard(job: Job, store: BlobStore | None) -> dict[str, Any]:
    from ..dist.reshard import reshard_checkpoint

    params = job.spec.params
    if store is not None:
        register_checkpoint_refs(
            store, job.spec.tenant, params["checkpoint"], job.timeline
        )
    report = reshard_checkpoint(
        params["checkpoint"],
        params["output"],
        int(params["target_world_size"]),
    )
    job.timeline.record(
        "resharded",
        output=str(report.output),
        world_size=f"{report.source_world_size}->{report.target_world_size}",
        bytes_loaded=report.bytes_loaded,
    )
    return {
        "output": str(report.output),
        "source_world_size": report.source_world_size,
        "target_world_size": report.target_world_size,
        "files_loaded": report.files_loaded,
        "bytes_loaded": report.bytes_loaded,
        "bytes_written": report.bytes_written,
        "seconds": round(report.total_seconds, 6),
    }


def _run_diff(job: Job) -> dict[str, Any]:
    from ..core.diffstat import diff_checkpoints

    params = job.spec.params
    drifts = diff_checkpoints(
        params["checkpoint_a"],
        params["checkpoint_b"],
        include_momentum=bool(params.get("momentum", False)),
    )
    job.timeline.record("diffed", slots=len(drifts))
    return {
        "slots": [
            {
                "slot": d.slot,
                "weight_l2": d.weight_l2,
                "weight_max": d.weight_max,
                "momentum_l2": d.momentum_l2,
                "params": d.params,
            }
            for d in drifts
        ]
    }


def _run_plan(job: Job) -> dict[str, Any]:
    from ..nn.config import get_config
    from ..strategies import build_strategy, plan_strategy

    params = job.spec.params
    config = get_config(str(params["model"]))
    strategy = build_strategy(str(params["strategy"]), config, params.get("interval", 100))
    plan = plan_strategy(
        config,
        strategy,
        total_steps=params.get("steps", 1600),
        world_size=params.get("world_size", 8),
    )
    job.timeline.record("planned", strategy=plan.strategy, events=plan.num_events)
    return {
        "model": config.name,
        "strategy": plan.strategy,
        "num_events": plan.num_events,
        "total_bytes": plan.total_bytes,
        "checkpoint_seconds": round(plan.checkpoint_seconds, 6),
        "checkpoint_time_fraction": plan.checkpoint_time_fraction,
    }


def execute_job(job: Job, *, blob_store: BlobStore | None = None) -> dict[str, Any]:
    """Run one job to completion and return its result document.

    Runs synchronously in a service worker thread; the caller owns state
    transitions and error handling.  Passing ``blob_store`` registers
    the job's source checkpoints as owners of their shard groups before
    the engines run, so dedup'd content is refcounted from first touch.
    """
    if job.spec.kind == "merge":
        return _run_merge(job, blob_store)
    if job.spec.kind == "reshard":
        return _run_reshard(job, blob_store)
    if job.spec.kind == "diff":
        return _run_diff(job)
    if job.spec.kind == "plan":
        return _run_plan(job)
    raise ConfigError(f"unknown job kind {job.spec.kind!r}")
