"""Simulated distributed substrate: collectives, shard math, ZeRO-3.

Everything the paper's ZeRO-3 setting needs, reproduced deterministically
in a single process:

* :class:`SimComm` — in-process collectives, the only communicator;
  what they cost is its :class:`Topology` (none: the flat ring);
* :class:`GroupPartition` (+ :func:`flatten_arrays` /
  :func:`unflatten_array`) — the flatten/pad/shard arithmetic;
* :class:`ZeroStage3Engine` — per-rank AdamW over sharded fp32 masters,
  emitting/consuming the per-rank optimizer shard files LLMTailor merges;
* :mod:`repro.dist.shard` — the one builder and one checker of that
  shard payload (``SHARD_FORMAT_VERSION``);
* :func:`reshard_checkpoint` — elastic N→M re-partitioning of those
  shard files (one read per source shard, bounded memory);
* :class:`FaultPlan` — deterministic fault injection (rank failures,
  node failures, joins, spot preemptions, stragglers, degraded links,
  bitrot) over the same machinery, priced by the communicator
  (:meth:`SimComm.price_faults`), with :class:`GoodputReport` goodput
  bookkeeping;
* :class:`Topology` — hierarchical (nodes × ranks-per-node) cost model
  with per-link-class byte accounting; results are bitwise-identical
  to the flat ring's.
"""

from .comm import CommStats, SimComm
from .topology import Topology
from .partition import GroupPartition, flatten_arrays, unflatten_array
from .zero import SHARD_FORMAT_VERSION, GroupMeta, ZeroStage3Engine

# Imported last: reshard/faults pull in repro.io, which itself imports
# the modules above from this (then partially initialized) package.
from .reshard import ReshardReport, reshard_checkpoint  # noqa: E402
from .faults import (  # noqa: E402
    FaultEvent,
    FaultPlan,
    FaultTimeline,
    GoodputReport,
    bitrot,
    degraded_link,
    inject_bitrot,
    node_failure,
    preemption,
    rank_failure,
    rank_join,
    repair_from_replicas,
    straggler,
)

__all__ = [
    "CommStats",
    "FaultEvent",
    "FaultPlan",
    "FaultTimeline",
    "GoodputReport",
    "GroupMeta",
    "GroupPartition",
    "ReshardReport",
    "SHARD_FORMAT_VERSION",
    "SimComm",
    "Topology",
    "ZeroStage3Engine",
    "bitrot",
    "degraded_link",
    "flatten_arrays",
    "inject_bitrot",
    "node_failure",
    "preemption",
    "rank_failure",
    "rank_join",
    "repair_from_replicas",
    "reshard_checkpoint",
    "straggler",
    "unflatten_array",
]
