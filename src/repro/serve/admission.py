"""Per-tenant quotas and admission control for the merge service.

Admission is driven by *deterministic* per-job cost estimates computed
from the job spec plus on-disk state (manifests and actual file sizes)
through the same :class:`~repro.io.storage.StorageCostModel` the
analytic planners use.  Because the estimate is a pure function of
(job, disk), ``llmtailor plan --serve`` reproduces the live server's
accounting exactly — the same pattern ``plan_step_traffic`` and
``plan_fault_cost`` establish for the trainer (see
:func:`repro.strategies.planner.plan_serve_cost`, which simply calls
:func:`estimate_job_cost`).

A tenant is bounded on two axes:

* ``max_inflight`` — jobs admitted but not yet finished (queued or
  running);
* ``max_queued_bytes`` — the summed byte footprint (reads + writes) of
  those jobs.

Exceeding either rejects the submit with a ``retry_after`` hint: the
estimated seconds to drain the tenant's outstanding work, so a
well-behaved client backs off proportionally to how far over budget it
is instead of hammering the socket.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from ..io.layout import CheckpointPaths
from ..io.storage import LUSTRE_DEFAULT, StorageCostModel
from ..nn.config import ModelConfig
from ..nn.slots import model_slots
from ..util.errors import ConfigError
from ..util.jsonio import read_json
from .protocol import JobSpec

__all__ = [
    "Admission",
    "AdmissionController",
    "JobCost",
    "TenantQuota",
    "estimate_job_cost",
]

# Fixed bookkeeping charge for jobs that touch no checkpoint bytes
# (``plan``): admission still counts them against ``max_inflight`` but
# their byte footprint is nil.
_ANALYTIC_SECONDS = 0.001


@dataclass(frozen=True)
class JobCost:
    """Deterministic footprint of one job, as admission accounts it."""

    kind: str
    bytes_read: int = 0
    bytes_written: int = 0
    files: int = 0
    est_seconds: float = _ANALYTIC_SECONDS

    @property
    def total_bytes(self) -> int:
        """The byte footprint charged against ``max_queued_bytes``."""
        return self.bytes_read + self.bytes_written

    def describe(self) -> dict[str, Any]:
        """Flat dict form (admission responses, ``plan --serve`` output)."""
        out = dict(self.__dict__)
        out["total_bytes"] = self.total_bytes
        return out


@dataclass(frozen=True)
class TenantQuota:
    """Budget one tenant may occupy inside the service at any moment."""

    max_inflight: int = 4
    max_queued_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queued_bytes < 1:
            raise ConfigError(
                f"max_queued_bytes must be >= 1, got {self.max_queued_bytes}"
            )


def _shard_sizes(ckpt: CheckpointPaths) -> list[int]:
    """Per-rank shard file sizes.  The checked manifest vouches (one directory
    listing) for each shard, so a hostile ``world_size`` never gets looped over."""
    return [p.stat().st_size for p in ckpt.shard_paths(ckpt.read_manifest()["world_size"])]


def _weight_nbytes(ckpt: CheckpointPaths) -> int:
    return ckpt.weights.stat().st_size if ckpt.weights.exists() else 0


def _merge_cost(spec: JobSpec, storage: StorageCostModel) -> JobCost:
    from ..core.plan import load_schedule  # lazy: layering
    from ..core.recipe import load_recipe, parse_recipe

    params = spec.params
    if "recipe" in params:
        recipe = load_recipe(params["recipe"])
    else:
        recipe = parse_recipe(dict(params["recipe_doc"]))
    base = CheckpointPaths(recipe.base_checkpoint)
    base_sizes = _shard_sizes(base)
    world_size = len(base_sizes)
    config = ModelConfig.from_dict(read_json(base.config))
    slots = model_slots(config)

    cache_mode = str(params.get("cache_mode", recipe.options.cache_mode))
    per_source_sizes: dict[str, list[int]] = {}
    for source in recipe.distinct_sources():
        ckpt = CheckpointPaths(source)
        per_source_sizes[str(source)] = _shard_sizes(ckpt) if ckpt.exists() else base_sizes

    # The engine's own load schedule, per rank: sum file sizes over it.
    schedule = load_schedule(
        slots, lambda slot: str(recipe.source_for(slot)), cache_mode
    )
    bytes_read = sum(sum(per_source_sizes[source]) for source, _ in schedule)
    loads = world_size * len(schedule)

    weight_read = sum(
        _weight_nbytes(CheckpointPaths(p)) for p in recipe.distinct_sources()
    )
    bytes_written = sum(base_sizes) + _weight_nbytes(base)
    seconds = (
        storage.read_time(bytes_read + weight_read, files=loads + 1, decompress=True)
        + storage.write_time(bytes_written, files=world_size + 1)
    )
    return JobCost(
        kind="merge",
        bytes_read=bytes_read + weight_read,
        bytes_written=bytes_written,
        files=loads + 1,
        est_seconds=seconds,
    )


def _reshard_cost(spec: JobSpec, storage: StorageCostModel) -> JobCost:
    ckpt = CheckpointPaths(spec.params["checkpoint"])
    if not ckpt.exists():
        raise ConfigError(f"reshard source checkpoint not found: {ckpt.dir}")
    sizes = _shard_sizes(ckpt)
    N, M = len(sizes), int(spec.params["target_world_size"])
    optim_bytes = sum(sizes)
    weight = _weight_nbytes(ckpt)
    # The sweep reads each of the N source shards exactly once.
    bytes_read = bytes_written = optim_bytes + weight
    seconds = storage.read_time(
        bytes_read, files=N + 1, decompress=True
    ) + storage.write_time(bytes_written, files=M + 1)
    return JobCost(
        kind="reshard",
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        files=N + 1,
        est_seconds=seconds,
    )


def _diff_cost(spec: JobSpec, storage: StorageCostModel) -> JobCost:
    bytes_read = 0
    files = 0
    for key in ("checkpoint_a", "checkpoint_b"):
        ckpt = CheckpointPaths(spec.params[key])
        if not ckpt.exists():
            raise ConfigError(f"diff checkpoint not found: {ckpt.dir}")
        bytes_read += _weight_nbytes(ckpt)
        files += 1
        if spec.params.get("momentum"):
            sizes = _shard_sizes(ckpt)
            bytes_read += sum(sizes)
            files += len(sizes)
    seconds = storage.read_time(bytes_read, files=files, decompress=True)
    return JobCost(kind="diff", bytes_read=bytes_read, files=files, est_seconds=seconds)


def estimate_job_cost(
    spec: JobSpec, *, storage: StorageCostModel | None = None
) -> JobCost:
    """The deterministic cost estimate admission charges for one job.

    A pure function of the job spec and current disk state — the live
    server and ``llmtailor plan --serve`` both call it, which is what
    makes their accounting match byte for byte.
    """
    storage = storage or LUSTRE_DEFAULT
    if spec.kind == "merge":
        return _merge_cost(spec, storage)
    if spec.kind == "reshard":
        return _reshard_cost(spec, storage)
    if spec.kind == "diff":
        return _diff_cost(spec, storage)
    return JobCost(kind=spec.kind)  # plan: analytic, no checkpoint bytes


@dataclass
class _TenantState:
    inflight: int = 0
    queued_bytes: int = 0
    outstanding_seconds: float = 0.0
    admitted: int = 0
    rejected: int = 0


@dataclass
class Admission:
    """Outcome of one admission decision."""

    accepted: bool
    reason: str | None = None
    retry_after: float | None = None
    cost: JobCost | None = None


class AdmissionController:
    """Charges each tenant's budget on admit, releases it on finish."""

    def __init__(
        self,
        quota: TenantQuota | None = None,
        *,
        overrides: dict[str, TenantQuota] | None = None,
    ) -> None:
        self.default_quota = quota or TenantQuota()
        self.overrides = dict(overrides or {})
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing one tenant (override or default)."""
        return self.overrides.get(tenant, self.default_quota)

    def admit(self, spec: JobSpec, cost: JobCost) -> Admission:
        """Admit or reject one job against its tenant's budget."""
        quota = self.quota_for(spec.tenant)
        with self._lock:
            state = self._tenants.setdefault(spec.tenant, _TenantState())
            if state.inflight + 1 > quota.max_inflight:
                state.rejected += 1
                return Admission(
                    accepted=False,
                    reason=f"tenant {spec.tenant!r} at max_inflight "
                    f"({quota.max_inflight})",
                    retry_after=self._retry_after(state),
                    cost=cost,
                )
            if state.queued_bytes + cost.total_bytes > quota.max_queued_bytes:
                state.rejected += 1
                return Admission(
                    accepted=False,
                    reason=f"tenant {spec.tenant!r} over max_queued_bytes "
                    f"({state.queued_bytes + cost.total_bytes} > "
                    f"{quota.max_queued_bytes})",
                    retry_after=self._retry_after(state),
                    cost=cost,
                )
            state.inflight += 1
            state.queued_bytes += cost.total_bytes
            state.outstanding_seconds += cost.est_seconds
            state.admitted += 1
            return Admission(accepted=True, cost=cost)

    def force_admit(self, spec: JobSpec, cost: JobCost) -> None:
        """Charge a tenant's budget without checking limits.

        Journal replay uses this: a replayed job was already admitted
        once, so re-checking quotas could wedge a tenant that crashed
        at its inflight limit — but the budget must still be charged so
        the :meth:`finish` on completion releases exactly what was
        taken instead of draining budget newly admitted jobs hold.
        """
        with self._lock:
            state = self._tenants.setdefault(spec.tenant, _TenantState())
            state.inflight += 1
            state.queued_bytes += cost.total_bytes
            state.outstanding_seconds += cost.est_seconds
            state.admitted += 1

    @staticmethod
    def _retry_after(state: _TenantState) -> float:
        # The time to drain what the tenant already has in flight — a
        # proportional backoff hint, deterministic given queue state.
        return round(max(0.05, state.outstanding_seconds), 4)

    def finish(self, spec: JobSpec, cost: JobCost) -> None:
        """Release one admitted job's budget (terminal state reached)."""
        with self._lock:
            state = self._tenants.get(spec.tenant)
            if state is None:
                return
            state.inflight = max(0, state.inflight - 1)
            state.queued_bytes = max(0, state.queued_bytes - cost.total_bytes)
            state.outstanding_seconds = max(
                0.0, state.outstanding_seconds - cost.est_seconds
            )

    def stats(self) -> dict[str, Any]:
        """Per-tenant admission counters (for the ``stats`` op)."""
        with self._lock:
            return {
                tenant: {
                    "inflight": s.inflight,
                    "queued_bytes": s.queued_bytes,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                }
                for tenant, s in sorted(self._tenants.items())
            }
