"""Deterministic fault injection for the simulated ZeRO-3 fleet.

The repo's chaos engine: a *seeded, schedule-based* :class:`FaultPlan`
drives the same deterministic machinery the happy path uses, so every
failure scenario is exactly reproducible and every recovery can be
pinned bitwise against a fault-free reference (``docs/faults.md``):

* ``rank_failure(step, rank)`` — the rank dies after the step; the
  supervisor (:mod:`repro.train.supervisor`) shrinks the world N→N-1
  and resumes elastically from the last recoverable point;
* ``straggler(step, rank, slowdown)`` — a synchronous step is paced by
  its slowest rank, so the whole world is charged the penalty;
* ``degraded_link(src, dst, bandwidth_scale)`` — ring collectives are
  paced by the slowest link: every collective crossing it slows by
  ``1 / bandwidth_scale`` (under a :mod:`~repro.dist.topology`, only the
  intra- or inter-node phase that crosses the validated edge);
* ``bitrot(step, rank, group)`` — a shard's group payload is corrupted
  on disk after it is written; every reader checks per-group CRCs, so
  the next read catches it and recovery re-reads the replica;
* ``rank_join(step)`` — a fresh rank arrives; the supervisor *grows* the
  world N→N+1 through the same elastic reshard path;
* ``preemption(step, rank, restore_after)`` — spot semantics: a
  ``rank_failure`` now, a ``rank_join`` ``restore_after`` steps later
  (:meth:`FaultPlan.sample_preemption_trace` samples seeded churn);
* ``node_failure(step, node)`` — under a topology, one ``rank_failure``
  per rank the node hosts, recovered one elastic shrink at a time.

Pricing lives on the communicator
(:meth:`SimComm.price_faults <repro.dist.comm.SimComm.price_faults>`):
bytes are unchanged (faults do not change what moves) but each collective
costs ``bytes / bandwidth * slowdown`` simulated seconds of its link
class on the trainer's :class:`~repro.util.timer.SimClock`.
:class:`GoodputReport` splits a run's simulated time into useful, lost
(replayed) and stalled seconds — useful steps per stepping second is
the SLO a chaos run reports — and :class:`FaultTimeline` is the flight
recorder attached to :class:`~repro.train.trainer.TrainResult`.
"""

from __future__ import annotations

import heapq
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..util.errors import CheckpointError, ConfigError, YamlError
from ..util.miniyaml import dump_file, load_file

__all__ = [
    "REPLICA_SUFFIX",
    "FaultEvent",
    "FaultPlan",
    "FaultTimeline",
    "GoodputReport",
    "bitrot",
    "degraded_link",
    "inject_bitrot",
    "node_failure",
    "preemption",
    "rank_failure",
    "rank_join",
    "repair_from_replicas",
    "straggler",
]

# A pristine copy of a shard kept next to the corrupted file — the
# simulated "second storage replica" recovery re-reads from.
REPLICA_SUFFIX = ".replica"

# Each kind with the fields it cannot do without.
_REQUIRED = {
    "rank_failure": ("rank",),
    "straggler": ("rank", "slowdown"),
    "degraded_link": ("src", "dst", "bandwidth_scale"),
    "bitrot": ("rank", "group"),
    "rank_join": (),
    "preemption": ("rank", "restore_after"),
    "node_failure": ("node",),
}
_KINDS = tuple(_REQUIRED)
# The least value each numeric field may take, whatever the run.
_FLOORS = {"rank": 0, "group": 0, "node": 0, "src": 0, "dst": 0,
           "duration": 1, "restore_after": 1, "slowdown": 1.0}

# Every FaultEvent field but ``kind`` and ``step``, in serialization
# order; all are integers except the two factors.
_OPTIONAL_FIELDS = ("rank", "group", "src", "dst", "slowdown",
                    "bandwidth_scale", "duration", "restore_after", "node")
_NUMBER_FIELDS = ("slowdown", "bandwidth_scale")


def _checked(where: str, name: str, value: Any) -> Any:
    """A fault document's field, type-checked before anything compares
    or computes with it: a finite number for the two factors, else an
    integer (a bool, ``1.5`` or ``"3"`` is not one)."""
    number = name in _NUMBER_FIELDS
    ok = isinstance(value, (int, float) if number else int) and not isinstance(value, bool)
    if not ok or (isinstance(value, float) and not math.isfinite(value)):
        kind = "a finite number" if number else "an integer"
        raise ConfigError(f"{where}: {name} must be {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Which fields are meaningful depends on ``kind`` — use the factory
    functions (:func:`rank_failure`, :func:`straggler`,
    :func:`degraded_link`, :func:`bitrot`) instead of constructing
    events directly.  ``step`` is the first global step the event is
    active at (``degraded_link`` defaults to 1: the whole run);
    ``duration`` is the window length in steps, ``None`` meaning "until
    the run ends".

    Construction refuses what no run shape can fix: a missing field, a
    negative rank, group or node, a window or restore shorter than one
    step, a speed-up, a link scale outside ``(0, 1]`` or a link from a
    rank to itself.  What depends on the world size, the horizon or the
    topology is :meth:`FaultPlan.validate`'s.
    """

    kind: str
    step: int = 1
    rank: int | None = None
    group: int | None = None
    src: int | None = None
    dst: int | None = None
    slowdown: float | None = None
    bandwidth_scale: float | None = None
    duration: int | None = None
    restore_after: int | None = None
    node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _REQUIRED:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        where = f"{self.kind} at step {self.step}"
        for name in _REQUIRED[self.kind]:
            if getattr(self, name) is None:
                raise ConfigError(f"{where}: {name} is required")
        for name, floor in _FLOORS.items():
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ConfigError(f"{where}: {name} must be >= {floor}, got {value}")
        if self.bandwidth_scale is not None and not 0.0 < self.bandwidth_scale <= 1.0:
            raise ConfigError(
                f"degraded_link: bandwidth_scale must be in (0, 1], "
                f"got {self.bandwidth_scale}"
            )
        if self.src is not None and self.src == self.dst:
            raise ConfigError(f"degraded_link: ({self.src}, {self.dst}) is not a ring link")

    def active_at(self, step: int) -> bool:
        """Whether this event's window covers the given global step."""
        if step < self.step:
            return False
        return self.duration is None or step < self.step + self.duration

    def to_dict(self) -> dict[str, Any]:
        """Serializable form: ``kind`` plus the fields that are set."""
        out: dict[str, Any] = {"kind": self.kind, "step": self.step}
        for key in _OPTIONAL_FIELDS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, where: str = "fault event"
    ) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; unknown keys and mistyped values
        are rejected, naming ``where`` the event sits in its document."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in _KINDS:
            raise ConfigError(f"{where}: kind must be one of {_KINDS}, got {kind!r}")
        unknown = set(data) - {"step", *_OPTIONAL_FIELDS}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        fields = {k: _checked(where, k, v) for k, v in data.items()}
        try:
            return cls(kind=kind, **fields)
        except ConfigError as err:
            raise ConfigError(f"{where}: {err}") from None


def rank_failure(step: int, rank: int) -> FaultEvent:
    """Rank ``rank`` dies after global step ``step`` completes."""
    return FaultEvent(kind="rank_failure", step=int(step), rank=int(rank))


def straggler(
    step: int, rank: int, slowdown: float, *, duration: int | None = 1
) -> FaultEvent:
    """Rank ``rank`` runs ``slowdown``× slower for ``duration`` steps."""
    return FaultEvent(
        kind="straggler", step=int(step), rank=int(rank),
        slowdown=float(slowdown), duration=duration,
    )


def degraded_link(
    src: int, dst: int, bandwidth_scale: float,
    *, step: int = 1, duration: int | None = None,
) -> FaultEvent:
    """The ring link ``src → dst`` keeps only ``bandwidth_scale`` of its
    bandwidth (default: for the whole run)."""
    return FaultEvent(
        kind="degraded_link", step=int(step), src=int(src), dst=int(dst),
        bandwidth_scale=float(bandwidth_scale), duration=duration,
    )


def bitrot(step: int, rank: int, group: int) -> FaultEvent:
    """The first checkpoint written at/after ``step`` gets group
    ``group`` of rank ``rank``'s optimizer shard corrupted on disk."""
    return FaultEvent(kind="bitrot", step=int(step), rank=int(rank), group=int(group))


def node_failure(step: int, node: int) -> FaultEvent:
    """Every rank on node ``node`` dies after global step ``step`` completes.

    Requires a :class:`~repro.dist.topology.Topology` to resolve which
    ranks live on the node: :meth:`FaultPlan.world_events` expands the
    event into one ``rank_failure`` per hosted rank, all at the same
    step, each targeting the node's *first* rank — under block placement
    the contiguous renumbering after each single-rank shrink keeps the
    node's remaining ranks at that same index, so the expansion removes
    exactly the node's block.
    """
    return FaultEvent(kind="node_failure", step=int(step), node=int(node))


def rank_join(step: int) -> FaultEvent:
    """A fresh rank becomes available after global step ``step``
    completes.  The joining rank always enters as the highest rank of
    the grown world (rank N when growing N→N+1), so the event carries
    no rank of its own."""
    return FaultEvent(kind="rank_join", step=int(step))


def preemption(step: int, rank: int, restore_after: int) -> FaultEvent:
    """Spot-instance preemption: rank ``rank`` is reclaimed after
    ``step`` and replacement capacity joins ``restore_after`` steps
    later.  Expands to ``rank_failure(step, rank)`` followed by
    ``rank_join(step + restore_after)``; a restore landing beyond the
    run's horizon simply never fires (capacity is not returned)."""
    return FaultEvent(
        kind="preemption", step=int(step), rank=int(rank),
        restore_after=int(restore_after),
    )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, schedule-based fault-injection plan.

    The plan is pure data: events plus the seed that generated them (or
    0 for hand-written plans), (de)serializable to the YAML subset the
    recipe format uses, so ``llmtailor train --faults plan.yaml`` can
    replay any scenario exactly.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    # -- queries ------------------------------------------------------------

    def _of_kind(self, kind: str) -> list[FaultEvent]:
        return sorted((e for e in self.events if e.kind == kind), key=lambda e: e.step)

    @property
    def rank_failures(self) -> list[FaultEvent]:
        """Scheduled rank deaths, ordered by step.

        Includes the death half of every ``preemption`` (which carries
        the preemption's ``restore_after`` as provenance).
        """
        return [e for e in self.world_events() if e.kind == "rank_failure"]

    @property
    def rank_joins(self) -> list[FaultEvent]:
        """Scheduled capacity arrivals, ordered by step.

        Includes the restore half of every ``preemption``; a join
        scheduled beyond the run's horizon is listed but never fires.
        """
        return [e for e in self.world_events() if e.kind == "rank_join"]

    @property
    def preemptions(self) -> list[FaultEvent]:
        """Scheduled spot preemptions (unexpanded), ordered by step."""
        return self._of_kind("preemption")

    @property
    def stragglers(self) -> list[FaultEvent]:
        """Scheduled straggler windows, ordered by step."""
        return self._of_kind("straggler")

    @property
    def degraded_links(self) -> list[FaultEvent]:
        """Scheduled link degradations, ordered by step."""
        return self._of_kind("degraded_link")

    @property
    def bitrot_events(self) -> list[FaultEvent]:
        """Scheduled checkpoint corruptions, ordered by step."""
        return self._of_kind("bitrot")

    def world_events(self, topology=None) -> list[FaultEvent]:
        """The world-size schedule: every shrink and grow, in firing order.

        Explicit ``rank_failure``/``rank_join`` events plus each
        ``preemption`` expanded into its death and its restore join, and
        each ``node_failure`` expanded into one ``rank_failure`` per rank
        the node hosts (same step, all targeting the node's first rank —
        contiguous renumbering after each shrink walks the block out;
        each carries ``node`` as provenance), which requires
        ``topology`` (a :class:`~repro.dist.topology.Topology`) with
        such a node.  Ordered by step; ties preserve plan order, which
        keeps a preemption's join ahead of any later same-step death.
        :meth:`trajectory` pairs each with the world it leaves.
        """
        expanded: list[FaultEvent] = []
        for ev in self.events:
            if ev.kind in ("rank_failure", "rank_join"):
                expanded.append(ev)
            elif ev.kind == "preemption":
                expanded += [
                    FaultEvent(kind="rank_failure", step=ev.step, rank=ev.rank,
                               restore_after=ev.restore_after),
                    FaultEvent(kind="rank_join", step=ev.step + ev.restore_after),
                ]
            elif ev.kind == "node_failure":
                if topology is None:
                    raise ConfigError(
                        f"node_failure at step {ev.step} requires a topology to "
                        f"resolve node {ev.node}'s ranks (run with --topology / "
                        f"TrainConfig(topology=...))"
                    )
                if ev.node >= topology.nodes:
                    raise ConfigError(
                        f"node_failure at step {ev.step}: node {ev.node} out of "
                        f"range for topology {topology.shape}"
                    )
                first = topology.node_ranks(ev.node)[0]
                expanded.extend(
                    FaultEvent(
                        kind="rank_failure", step=ev.step, rank=first, node=ev.node,
                    )
                    for _ in range(topology.ranks_per_node)
                )
        return sorted(expanded, key=lambda e: e.step)

    def trajectory(
        self, world_size: int, *, topology=None
    ) -> list[tuple[FaultEvent, int]]:
        """:meth:`world_events` in firing order, each paired with the
        world size once it has fired.

        The one definition of how the world moves: a failure removes one
        rank and a join adds one, from the step after its own.
        :meth:`validate`, both samplers and the
        :class:`~repro.train.supervisor.ChaosSupervisor` (whose next leg
        runs at the fired entry's world) all read it.  Raises
        :class:`~repro.util.errors.ConfigError` when a death would leave
        no survivor or names a rank the world does not have at that
        point, or a join would outgrow ``topology``.
        """
        entries: list[tuple[FaultEvent, int]] = []
        ws = world_size
        for ev in self.world_events(topology):
            if ev.kind == "rank_join":
                ws += 1
                if topology is not None and ws > topology.world_size:
                    raise ConfigError(
                        f"rank_join at step {ev.step} would grow the world to "
                        f"{ws}, beyond topology {topology.shape} capacity "
                        f"{topology.world_size}"
                    )
            else:
                if ws <= 1:
                    raise ConfigError(
                        f"rank_failure at step {ev.step} would leave no survivors "
                        f"(world is down to {ws} rank(s) at that point)"
                    )
                if ev.rank >= ws:
                    detail = (
                        f"node_failure of node {ev.node}"
                        if ev.node is not None else "rank_failure"
                    )
                    raise ConfigError(
                        f"{detail} at step {ev.step}: rank {ev.rank} does not "
                        f"exist in the world of {ws} at that point"
                    )
                ws -= 1
            entries.append((ev, ws))
        return entries

    def world_size_at(self, world_size: int, step: int, *, topology=None) -> int:
        """The world that executes global ``step``: the :meth:`trajectory`
        from ``world_size`` after every world event before ``step``."""
        return next(
            (ws for ev, ws in reversed(self.trajectory(world_size, topology=topology))
             if ev.step < step),
            world_size,
        )

    def compute_slowdown(self, step: int, world_size: int) -> float:
        """Step-time multiplier at ``step``: the slowest active straggler.

        A synchronous data-parallel step is paced by its slowest rank,
        so one straggler slows the whole world.  Events referencing
        ranks the world no longer has (after elastic shrinks) are
        ignored.
        """
        factor = 1.0
        for ev in self.events:
            if ev.kind == "straggler" and ev.active_at(step) and ev.rank < world_size:
                factor = max(factor, float(ev.slowdown))
        return factor

    def comm_slowdown(
        self,
        step: int,
        world_size: int,
        *,
        topology=None,
        link_class: str | None = None,
    ) -> float:
        """Collective-time multiplier at ``step``.

        Ring collectives are paced by the slowest participant *and* the
        slowest link, so this is the max of active straggler slowdowns
        and ``1 / bandwidth_scale`` over active degraded links whose
        endpoints are both in the (possibly shrunk) world.

        Under a topology the hierarchical phases are independent: a
        degraded NVLink slows only the node-local phase, a degraded
        fabric link only the cross-node phase.  Passing ``topology`` and
        ``link_class`` (``"intra"`` / ``"inter"``) restricts the link
        penalty to degradations in that class; stragglers always apply.
        This is how :meth:`SimComm.charge
        <repro.dist.comm.SimComm.charge>` prices each link class (the
        flat ring passes no topology: every link paces its one class).
        """
        factor = self.compute_slowdown(step, world_size)
        for ev in self.events:
            if (
                ev.kind != "degraded_link"
                or not ev.active_at(step)
                or max(ev.src, ev.dst) >= world_size
                or (topology is not None and link_class is not None
                    and topology.link_class(ev.src, ev.dst) != link_class)
            ):
                continue
            factor = max(factor, 1.0 / float(ev.bandwidth_scale))
        return factor

    # -- validation ---------------------------------------------------------

    def validate(
        self, world_size: int, total_steps: int, *, topology=None
    ) -> list[tuple[FaultEvent, int]]:
        """Check the plan is executable for a run of this shape, and
        return the :meth:`trajectory` it checked.

        Every event must fall in ``[1, total_steps]``; the world-size
        checks are the :meth:`trajectory`'s — each death must name a
        rank that still exists *at that point* and leave a survivor, and
        each join (explicit, or a preemption's restore half) grows the
        world back.  A restore scheduled beyond ``total_steps`` is legal
        — the capacity simply never returns.  Stragglers and degraded
        links must name ranks of the starting world.

        With ``topology`` (a :class:`~repro.dist.topology.Topology`) the
        checks extend to the cluster shape: ``node_failure`` events need
        one (and must name a real node), neither the starting world nor
        the trajectory may outgrow the cluster's rank capacity, and every
        ``degraded_link`` must target an actual topology edge (an
        intra-node or leader-to-leader pair) whose endpoints still exist
        when the degradation begins (nominal schedule, ignoring replay)
        — a link that never matches the active world would be silently
        ignored by :meth:`comm_slowdown`, a no-op fault.
        """
        for ev in self.events:
            if not 1 <= ev.step <= total_steps:
                raise ConfigError(
                    f"{ev.kind} step {ev.step} outside [1, {total_steps}]"
                )
        if topology is not None and world_size > topology.world_size:
            raise ConfigError(
                f"world_size {world_size} exceeds topology {topology.shape} "
                f"capacity {topology.world_size}"
            )
        trajectory = self.trajectory(world_size, topology=topology)
        for ev in self.stragglers:
            if ev.rank >= world_size:
                raise ConfigError(
                    f"straggler at step {ev.step}: rank {ev.rank} out of range "
                    f"for world_size {world_size}"
                )
        for ev in self.degraded_links:
            if ev.src >= world_size or ev.dst >= world_size:
                raise ConfigError(
                    f"degraded_link: ({ev.src}, {ev.dst}) is not a ring link "
                    f"at world_size {world_size}"
                )
            if topology is None:
                continue
            if not topology.has_link(ev.src, ev.dst):
                raise ConfigError(
                    f"degraded_link: ({ev.src}, {ev.dst}) is not an edge of "
                    f"topology {topology.shape} (intra-node pairs and "
                    f"leader-to-leader pairs only)"
                )
            alive = self.world_size_at(world_size, ev.step, topology=topology)
            if max(ev.src, ev.dst) >= alive:
                raise ConfigError(
                    f"degraded_link at step {ev.step}: ({ev.src}, {ev.dst}) "
                    f"dangles — the world is down to {alive} rank(s) when "
                    f"the degradation begins, so it would be silently "
                    f"ignored"
                )
        return trajectory

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serializable plan document (round-trips :meth:`from_dict`)."""
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a parsed document (YAML/JSON)."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"fault plan must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"seed", "events"}
        if unknown:
            raise ConfigError(f"unknown fault plan keys: {sorted(unknown)}")
        events = data.get("events") or []
        if not isinstance(events, (list, tuple)):
            raise ConfigError("fault plan 'events' must be a sequence")
        return cls(
            events=tuple(
                FaultEvent.from_dict(e, where=f"fault plan events[{i}]")
                for i, e in enumerate(events)
            ),
            seed=_checked("fault plan", "seed", data.get("seed", 0)),
        )

    @classmethod
    def from_yaml(cls, path: "str | Path") -> "FaultPlan":
        """Load a plan from a YAML file (the mini-YAML subset); a document
        the parser refuses is a :class:`ConfigError` naming the file."""
        try:
            document = load_file(path)
        except YamlError as err:
            raise ConfigError(f"fault plan {path}: {err}") from None
        return cls.from_dict(document or {})

    def to_yaml(self, path: "str | Path") -> None:
        """Write the plan as YAML (round-trips :meth:`from_yaml`)."""
        dump_file(path, self.to_dict())

    # -- seeded generation --------------------------------------------------

    @classmethod
    def sample(
        cls,
        *,
        seed: int,
        world_size: int,
        total_steps: int,
        n_failures: int = 1,
        n_stragglers: int = 1,
        n_degraded_links: int = 0,
        n_bitrot: int = 0,
        max_slowdown: float = 4.0,
        max_group: int = 6,
    ) -> "FaultPlan":
        """Generate a random but fully deterministic plan from a seed.

        The plan is :meth:`validate`-d against ``(world_size,
        total_steps)`` before it is returned, so a sampled plan can
        never be rejected later by the trainer.  Bitrot group ids are
        drawn from ``[0, max_group)`` (the smallest configs have ≥ 6
        groups); an id a checkpoint does not carry is skipped at
        injection time (recorded, not fatal).
        """
        if n_failures >= world_size:
            raise ConfigError(
                f"cannot sample {n_failures} failures at world_size {world_size}"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        if n_failures:
            steps = sorted(
                int(s) for s in rng.choice(
                    np.arange(1, total_steps + 1), size=n_failures, replace=False
                )
            )
            for step in steps:
                alive = cls(tuple(events)).world_size_at(world_size, step)
                events.append(rank_failure(step, int(rng.integers(alive))))
        for _ in range(n_stragglers):
            start = int(rng.integers(1, total_steps + 1))
            events.append(
                straggler(
                    start,
                    int(rng.integers(world_size)),
                    float(np.round(rng.uniform(1.5, max_slowdown), 2)),
                    duration=int(rng.integers(1, max(2, total_steps // 4))),
                )
            )
        for _ in range(n_degraded_links):
            if world_size < 2:
                break
            src = int(rng.integers(world_size))
            dst = int((src + 1 + rng.integers(world_size - 1)) % world_size)
            events.append(
                degraded_link(src, dst, float(np.round(rng.uniform(0.1, 0.9), 2)))
            )
        for _ in range(n_bitrot):
            events.append(
                bitrot(
                    int(rng.integers(1, total_steps + 1)),
                    int(rng.integers(world_size)),
                    int(rng.integers(max(1, max_group))),
                )
            )
        plan = cls(events=tuple(events), seed=int(seed))
        plan.validate(world_size, total_steps)
        return plan

    @classmethod
    def sample_preemption_trace(
        cls,
        *,
        seed: int,
        world_size: int,
        total_steps: int,
        mean_interarrival: float | None = None,
        mean_restore: float | None = None,
        min_world_size: int = 1,
    ) -> "FaultPlan":
        """Generate a seeded spot-instance preemption trace.

        Models a fleet under spot churn: preemptions arrive as a
        Poisson-ish process (exponential interarrival, default mean
        ``total_steps / 8``) and each reclaimed rank's replacement
        arrives after an exponential restore delay (default mean half
        the interarrival), rounded to at least one step.  The world
        size stays bounded: it never exceeds the starting
        ``world_size`` (joins only restore reclaimed capacity) and an
        arrival that would drop it to ``min_world_size`` or below is
        skipped — the fleet is already at its floor.  Restores landing
        beyond ``total_steps`` are kept in the plan but never fire.

        Like :meth:`sample`, the trace is :meth:`validate`-d before it
        is returned, so a seeded soak can never be rejected by the
        trainer.
        """
        if world_size < 1:
            raise ConfigError(f"world_size must be >= 1, got {world_size}")
        if not 1 <= min_world_size <= world_size:
            raise ConfigError(
                f"min_world_size must be in [1, {world_size}], got {min_world_size}"
            )
        if mean_interarrival is None:
            mean_interarrival = max(1.0, total_steps / 8.0)
        if mean_restore is None:
            mean_restore = max(1.0, mean_interarrival / 2.0)
        if mean_interarrival <= 0 or mean_restore <= 0:
            raise ConfigError("interarrival and restore means must be > 0")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        t = 0.0
        last_step = 0
        alive = world_size
        restores: list[int] = []  # heap: steps the reclaimed ranks rejoin at
        while True:
            t += float(rng.exponential(mean_interarrival))
            step = max(int(math.ceil(t)), last_step + 1)
            if step > total_steps:
                break
            last_step = step
            # The world once everything scheduled at/before this step has
            # fired (a restore tying with this arrival fires first): the
            # trajectory's world at this step, kept as it goes.
            while restores and restores[0] <= step:
                heapq.heappop(restores)
                alive += 1
            if alive <= min_world_size:
                continue  # fleet at its floor; the arrival finds no spare rank
            rank = int(rng.integers(alive))
            restore_after = max(1, int(round(float(rng.exponential(mean_restore)))))
            events.append(preemption(step, rank, restore_after))
            alive -= 1
            heapq.heappush(restores, step + restore_after)
        plan = cls(events=tuple(events), seed=int(seed))
        plan.validate(world_size, total_steps)
        return plan


# ---------------------------------------------------------------------------
# Bitrot injection and replica repair
# ---------------------------------------------------------------------------

def inject_bitrot(
    checkpoint, rank: int, group: int, *, keep_replica: bool = True
) -> Path:
    """Corrupt one group of one rank's optimizer shard on disk.

    Flips the low mantissa bit of the group's first fp32 master element
    and rewrites the shard container.  The container-level CRC is
    recomputed by the writer (the file is structurally valid — this is
    *silent* storage bitrot, not a truncated download), but the group's
    header ``crc32`` now disagrees with its payload, which is exactly
    the corruption class the per-group CRCs exist to catch: every
    reader that materializes the group (engine load, merge, reshard,
    momentum diff, ``llmtailor verify``) fails loudly instead of
    resuming from garbage.

    With ``keep_replica`` (the default) the pristine file is first
    copied to ``<shard>.replica`` — the simulated second storage
    replica :func:`repair_from_replicas` restores from.
    """
    from ..io.blobfile import read_blob, write_blob
    from ..io.layout import CheckpointPaths

    paths = CheckpointPaths(checkpoint)
    shard_path = paths.shard(rank)
    if not shard_path.exists():
        raise CheckpointError(f"no optimizer shard for rank {rank} at {shard_path}")
    payload = read_blob(shard_path)
    fp32 = payload.get("fp32_flat_groups", {}).get(group)
    if fp32 is None:
        raise CheckpointError(
            f"{shard_path}: shard has no group {group} to corrupt "
            f"(present: {sorted(payload.get('fp32_flat_groups', {}))[:8]})"
        )
    fp32 = np.array(fp32, dtype=np.float32)
    if fp32.size == 0:
        raise CheckpointError(f"{shard_path}: group {group} is empty on rank {rank}")
    fp32.view(np.uint32)[0] ^= 0x1
    payload["fp32_flat_groups"][group] = fp32
    if keep_replica:
        shutil.copy2(shard_path, _replica_path(shard_path))
    write_blob(shard_path, payload)
    return shard_path


def _replica_path(shard_path: Path) -> Path:
    return shard_path.with_name(shard_path.name + REPLICA_SUFFIX)


def repair_from_replicas(root: "str | Path") -> list[Path]:
    """Restore every ``*.replica`` backup found under ``root``.

    Returns the shard paths repaired (the replica files are consumed).
    Recovery calls this when a resume or merge fails a per-group CRC
    check — the simulated re-read from a redundant copy.
    """
    root = Path(root)
    repaired: list[Path] = []
    for replica in sorted(root.rglob(f"*{REPLICA_SUFFIX}")):
        original = replica.with_name(replica.name[: -len(REPLICA_SUFFIX)])
        shutil.move(str(replica), str(original))
        repaired.append(original)
    return repaired


# ---------------------------------------------------------------------------
# Goodput accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodputReport:
    """Where a chaos run's simulated seconds went, and the goodput SLO.

    Splits the fleet's stepping time into three buckets measured off
    the :class:`~repro.util.timer.SimClock`: **useful** — steps that
    survived into the final state (``useful_steps × sim_step_seconds``);
    **lost** — steps replayed after a failure rolled the run back
    (``lost_steps × sim_step_seconds``); **stall** — straggler tax plus
    penalized collective seconds (the ``fault_straggler`` and ``comm``
    clock categories).

    ``goodput = useful_steps / (useful + lost + stall seconds)`` —
    useful steps per simulated second the fleet spends stepping.
    Recovery I/O (checkpoint reads, join sync writes, merges) is
    reported in ``recovery_seconds`` but kept *out* of the goodput
    denominator: the live storage tier prices actual compressed bytes,
    a config-only dry run nominal ones, and goodput must be *equal*
    between the two (:func:`~repro.strategies.planner.plan_fault_cost`).
    """

    useful_steps: int
    lost_steps: int
    useful_seconds: float
    lost_seconds: float
    stall_seconds: float
    recovery_seconds: float

    @property
    def busy_seconds(self) -> float:
        """The goodput denominator: useful + lost + stall seconds."""
        return self.useful_seconds + self.lost_seconds + self.stall_seconds

    @property
    def goodput(self) -> float:
        """Useful steps per simulated stepping second (0 if idle)."""
        busy = self.busy_seconds
        return self.useful_steps / busy if busy > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Serializable form, including the derived goodput."""
        return {**asdict(self), "goodput": self.goodput}

    def summary(self) -> str:
        """One-line human-readable recap."""
        return (
            f"goodput: {self.goodput:.4f} useful steps/sim-s "
            f"({self.useful_steps} useful, {self.lost_steps} replayed; "
            f"useful {self.useful_seconds:.1f}s, lost {self.lost_seconds:.1f}s, "
            f"stall {self.stall_seconds:.3f}s; "
            f"recovery I/O {self.recovery_seconds:.3f}s)"
        )


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

@dataclass
class FaultTimeline:
    """Chronological record of injected faults and recovery actions.

    The chaos engine's flight recorder, attached to
    :class:`~repro.train.trainer.TrainResult`.
    """

    events: list[dict] = field(default_factory=list)
    lost_steps: int = 0
    recoveries: int = 0
    grows: int = 0
    reshard_loads: int = 0
    reshard_bytes: int = 0
    bitrot_detected: int = 0
    bitrot_repaired: int = 0
    recovery_seconds: float = 0.0

    def record(self, step: int, kind: str, **detail: Any) -> None:
        """Append one timeline entry."""
        entry: dict[str, Any] = {"step": int(step), "kind": str(kind)}
        entry.update(detail)
        self.events.append(entry)

    def kinds(self) -> list[str]:
        """The ``kind`` of every recorded entry, in order."""
        return [e["kind"] for e in self.events]

    def to_dict(self) -> dict[str, Any]:
        """Serializable form (stable keys, JSON-friendly values)."""
        return asdict(self)

    def summary(self) -> str:
        """A short human-readable recap of the run's faults."""
        lines = [
            f"fault timeline: {len(self.events)} event(s), "
            f"{self.recoveries} recovery(ies) ({self.grows} grow(s)), "
            f"{self.lost_steps} step(s) replayed, "
            f"{self.recovery_seconds:.3f}s recovery I/O"
        ]
        for e in self.events:
            detail = ", ".join(
                f"{k}={v}" for k, v in e.items() if k not in ("step", "kind")
            )
            lines.append(f"  step {e['step']:>4d}  {e['kind']:<15s} {detail}")
        if self.reshard_loads:
            lines.append(
                f"  elastic reshard: {self.reshard_loads} shard load(s), "
                f"{self.reshard_bytes} bytes"
            )
        if self.bitrot_detected:
            lines.append(
                f"  bitrot: {self.bitrot_detected} detected, "
                f"{self.bitrot_repaired} shard(s) repaired from replicas"
            )
        return "\n".join(lines)
