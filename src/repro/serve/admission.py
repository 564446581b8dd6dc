"""Per-tenant quotas and admission control for the merge service.

Admission is driven by *deterministic* per-job cost estimates: the job's
own price — the engine's schedule run dry against a
:class:`~repro.io.storage.Ledger`
(:func:`~repro.core.plan.price_merge`,
:func:`~repro.dist.reshard.price_reshard`), fed the sizes on disk of the
files each checked manifest vouches for.  Because the estimate is a pure
function of (job, disk), ``llmtailor plan --serve`` reproduces the live
server's accounting exactly (see
:func:`repro.strategies.planner.plan_serve_cost`, which simply calls
:func:`estimate_job_cost`).

Every tenant is bounded by the service's one quota, on two axes:

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
from functools import partial
from typing import Any

from ..dist.reshard import price_reshard
from ..io.layout import CheckpointPaths, CheckpointSizes
from ..io.storage import Ledger, StorageCostModel
from ..nn.config import ModelConfig
from ..nn.slots import model_slots
from ..util.errors import ConfigError, MergeError
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


def _price_merge_job(ledger: Ledger, params: dict[str, Any]) -> None:
    from ..core.plan import price_merge  # lazy: layering
    from ..core.recipe import load_recipe, parse_recipe

    recipe = (load_recipe(params["recipe"]) if "recipe" in params
              else parse_recipe(dict(params["recipe_doc"])))
    config = ModelConfig.from_dict(read_json(CheckpointPaths(recipe.base_checkpoint).config))
    # Ranks one at a time: a served merge runs in its worker thread.
    price_merge(
        ledger, config, {slot: recipe.source_for(slot) for slot in model_slots(config)},
        partial(CheckpointSizes.on_disk, error=MergeError, role="merge source"),
        cache_mode=params.get("cache_mode", recipe.options.cache_mode),
    )


def estimate_job_cost(
    spec: JobSpec, *, storage: StorageCostModel | None = None
) -> JobCost:
    """The deterministic cost estimate admission charges for one job.

    A pure function of the job spec and current disk state — the live
    server and ``llmtailor plan --serve`` both call it, which is what
    makes their accounting match byte for byte.  Each job kind is charged
    to a :class:`~repro.io.storage.Ledger` at its sizes on disk
    (:meth:`~repro.io.layout.CheckpointSizes.on_disk`): a merge or reshard
    by the engine's own price, a diff as two weight-file reads (plus every
    shard, inflated, with ``momentum``); ``plan`` touches no checkpoint.
    """
    ledger, params = Ledger(storage), spec.params
    if spec.kind == "merge":
        _price_merge_job(ledger, params)
    elif spec.kind == "reshard":
        sizes = CheckpointSizes.on_disk(params["checkpoint"], ConfigError, "reshard source")
        price_reshard(ledger, sizes, params["target_world_size"])
    elif spec.kind == "diff":
        for key in ("checkpoint_a", "checkpoint_b"):
            sizes = CheckpointSizes.on_disk(params[key], ConfigError, "diff")
            ledger.charge_read(sizes.weights, category="diff.weights")
            for nbytes in sizes.shards if params.get("momentum") else ():
                ledger.charge_read(nbytes, decompress=True, category="diff.optimizer")
    else:
        return JobCost(kind=spec.kind)  # plan: analytic, no checkpoint bytes
    return JobCost(
        kind=spec.kind, bytes_read=int(ledger.stats.bytes_read),
        bytes_written=int(ledger.stats.bytes_written), files=ledger.stats.files_read,
        est_seconds=ledger.clock.total(),
    )


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

    def __init__(self, quota: TenantQuota | None = None) -> None:
        self.quota = quota or TenantQuota()
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    def admit(self, spec: JobSpec, cost: JobCost) -> Admission:
        """Admit or reject one job against its tenant's budget (every
        tenant has the same ``quota``)."""
        quota = self.quota
        with self._lock:
            state = self._tenants.setdefault(spec.tenant, _TenantState())
            queued = state.queued_bytes + cost.total_bytes
            if state.inflight + 1 > quota.max_inflight:
                reason = f"at max_inflight ({quota.max_inflight})"
            elif queued > quota.max_queued_bytes:
                reason = f"over max_queued_bytes ({queued} > {quota.max_queued_bytes})"
            else:
                self._take_budget(state, cost)
                return Admission(accepted=True, cost=cost)
            state.rejected += 1
            return Admission(
                accepted=False, reason=f"tenant {spec.tenant!r} {reason}",
                retry_after=self._retry_after(state), cost=cost,
            )

    def force_admit(self, spec: JobSpec, cost: JobCost) -> None:
        """Charge a tenant's budget without checking limits.

        Journal replay uses this: a replayed job was already admitted
        once, so re-checking quotas could wedge a tenant that crashed
        at its inflight limit — but the budget must still be charged so
        the :meth:`finish` on completion releases exactly what was
        taken instead of draining budget newly admitted jobs hold.
        """
        with self._lock:
            self._take_budget(self._tenants.setdefault(spec.tenant, _TenantState()), cost)

    @staticmethod
    def _take_budget(state: _TenantState, cost: JobCost) -> None:
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
