"""Cluster topology: the cost model of the simulated collectives.

Real fleets are not flat rings: ranks within one node talk over fast
links (NVLink / shared memory, hundreds of GB/s) while nodes talk over a
much slower fabric (tens of GB/s).  :class:`Topology` describes such a
cluster as ``nodes x ranks_per_node`` with one bandwidth per **link
class** (``"intra"`` within a node, ``"inter"`` between nodes) and
prices every collective as a 2D hierarchical schedule over it —
node-local reduce-scatter, cross-node all-reduce over one leader rank
per node, node-local all-gather.

Two invariants anchor the design, both pinned by ``tests/test_topology.py``:

* **Bitwise identity.**  The hierarchy lives entirely in the *cost
  model*: :class:`~repro.dist.comm.SimComm` takes a topology to decide
  what a collective costs, never what it computes, so a hierarchical run
  produces bit-for-bit the same masters, moments, and bf16 weights as
  the flat ring — exactly like the flat ring-algorithm accounting is
  itself a model over sequential in-process arithmetic.
* **One formula.**  :meth:`Topology.collective_bytes` is the only place
  the ring algebra is written: the communicator charges it live, the
  planners (:func:`repro.strategies.plan_step_traffic`,
  :func:`repro.strategies.plan_fault_cost`) run that communicator dry,
  so predicted and live bytes and seconds are equal by construction.

Placement is **block** placement: rank ``r`` lives on node
``r // ranks_per_node``.  An elastic world size below capacity occupies
a prefix of the grid (the last node may be partially filled); the
formulas use ``r_max = min(ws, ranks_per_node)`` ranks per node and
``ceil(ws / ranks_per_node)`` occupied nodes.  The flat ring is the
degenerate shape ``ranks_per_node == 1`` (one rank per node: nothing is
node-local, everything crosses the fabric); ``nodes == 1`` is all intra.

The 2D collective algebra, for payload ``B`` at world size ``ws`` with
``R = r_max`` and ``N = occupied nodes`` (``f_i = (R-1)/R``,
``f_n = (N-1)/N`` are the ring fractions of Thakur et al., IJHPCA '05):

* ``all_reduce``:     intra ``2 * f_i * B``, inter ``2 * f_n / R * B``
  (node-local reduce-scatter + all-gather touch the full payload; the
  cross-node phase runs over leaders on the ``1/R`` slice each leader owns);
* ``reduce_scatter``: intra ``f_i * B``,     inter ``f_n / R * B``;
* ``all_gather``:     intra ``f_i * B``,     inter ``f_n / R * B``
  (``B`` is the total gathered payload, as in the flat model);
* ``broadcast``:      intra ``f_i * B``,     inter ``f_n * B``
  (leaders relay the full buffer across nodes, then fan out locally).

Serialization is dependency-free YAML via :mod:`repro.util.miniyaml`
(``llmtailor train --topology cluster.yaml``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..util.errors import DistError
from ..util.miniyaml import dump_file, load_file

__all__ = [
    "DEFAULT_INTER_BANDWIDTH",
    "DEFAULT_INTRA_BANDWIDTH",
    "LINK_CLASSES",
    "Topology",
]

#: The two link classes every hierarchical byte/seconds account is split
#: over: ``"intra"`` (within a node) and ``"inter"`` (between nodes).
LINK_CLASSES = ("intra", "inter")

#: Default intra-node bandwidth, bytes/second (NVLink-class fabric).
DEFAULT_INTRA_BANDWIDTH = 300e9

#: Default inter-node bandwidth, bytes/second (InfiniBand-ish, matching
#: the Lustre-over-IB storage cost model).  The flat ring is one rank per
#: node, so this is also what a topology-less run prices collectives at.
DEFAULT_INTER_BANDWIDTH = 25e9

_FIELDS = ("nodes", "ranks_per_node", "intra_bandwidth", "inter_bandwidth")


@dataclass(frozen=True)
class Topology:
    """A ``nodes x ranks_per_node`` cluster with per-link-class bandwidths.

    Immutable and hashable; build one directly, from a mapping
    (:meth:`from_dict`), from a ``"NxR"`` spec (:meth:`from_shape`), or
    from a YAML file (:meth:`from_yaml`).
    """

    #: Number of nodes in the cluster.
    nodes: int
    #: Ranks (simulated devices) per node.
    ranks_per_node: int
    #: Intra-node link bandwidth, bytes/second.
    intra_bandwidth: float = DEFAULT_INTRA_BANDWIDTH
    #: Inter-node link bandwidth, bytes/second.
    inter_bandwidth: float = DEFAULT_INTER_BANDWIDTH

    def __post_init__(self) -> None:
        for name in ("nodes", "ranks_per_node"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise DistError(
                    f"topology: {name} must be a positive integer, got {value!r}"
                )
        for name in ("intra_bandwidth", "inter_bandwidth"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DistError(f"topology: {name} must be a number, got {value!r}")
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise DistError(
                    f"topology: {name} must be positive and finite, got {value!r}"
                )
            object.__setattr__(self, name, value)

    # -- shape --------------------------------------------------------------

    @property
    def world_size(self) -> int:
        """Rank capacity of the cluster: ``nodes * ranks_per_node``."""
        return self.nodes * self.ranks_per_node

    @property
    def shape(self) -> str:
        """The ``"NxR"`` shape string, e.g. ``"2x4"``."""
        return f"{self.nodes}x{self.ranks_per_node}"

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` under block placement."""
        if not 0 <= rank < self.world_size:
            raise DistError(
                f"topology {self.shape}: rank {rank} out of range "
                f"(capacity {self.world_size})"
            )
        return rank // self.ranks_per_node

    def local_rank(self, rank: int) -> int:
        """Position of ``rank`` within its node (leaders have local rank 0)."""
        self.node_of(rank)
        return rank % self.ranks_per_node

    def node_ranks(self, node: int, world_size: int | None = None) -> list[int]:
        """The ranks placed on ``node``, optionally clipped to ``world_size``."""
        if not 0 <= node < self.nodes:
            raise DistError(
                f"topology {self.shape}: node {node} out of range ({self.nodes} nodes)"
            )
        limit = self.world_size if world_size is None else min(world_size, self.world_size)
        lo = node * self.ranks_per_node
        hi = min(lo + self.ranks_per_node, limit)
        return list(range(lo, hi))

    def leaders(self, world_size: int | None = None) -> list[int]:
        """One leader rank (local rank 0) per occupied node."""
        limit = self.world_size if world_size is None else min(world_size, self.world_size)
        return list(range(0, limit, self.ranks_per_node))

    def group_shape(self, world_size: int) -> tuple[int, int]:
        """``(occupied_nodes, ranks_per_group)`` for ``world_size`` placed ranks.

        ``ranks_per_group`` is ``min(world_size, ranks_per_node)`` — at an
        elastic world size below one full node, the node-local group is
        the whole world.
        """
        if not 1 <= world_size <= self.world_size:
            raise DistError(
                f"topology {self.shape}: world_size {world_size} out of range "
                f"(capacity {self.world_size})"
            )
        occupied = math.ceil(world_size / self.ranks_per_node)
        return occupied, min(world_size, self.ranks_per_node)

    # -- links --------------------------------------------------------------

    def link_class(self, src: int, dst: int) -> str:
        """``"intra"`` if both ranks share a node, else ``"inter"``."""
        return "intra" if self.node_of(src) == self.node_of(dst) else "inter"

    def bandwidth(self, link_class: str) -> float:
        """Bandwidth (bytes/second) of one link class."""
        if link_class == "intra":
            return self.intra_bandwidth
        if link_class == "inter":
            return self.inter_bandwidth
        raise DistError(f"topology: unknown link class {link_class!r}")

    def has_link(self, src: int, dst: int) -> bool:
        """Whether ``(src, dst)`` is an edge of the 2D process groups.

        Edges are intra-node pairs plus leader-to-leader pairs (the
        cross-node ring) — the links a hierarchical collective actually
        traverses, and therefore the only pairs a
        ``degraded_link`` fault can meaningfully target.
        """
        if src == dst:
            return False
        if self.node_of(src) == self.node_of(dst):
            return True
        return self.local_rank(src) == 0 and self.local_rank(dst) == 0

    # -- cost model ---------------------------------------------------------

    def collective_bytes(
        self, op: str, nbytes: float, world_size: int
    ) -> dict[str, float]:
        """Per-link-class bytes for one collective over ``nbytes`` of payload.

        The module docstring's 2D algebra, written here and nowhere else;
        both keys are always present, zero when a phase is degenerate.
        ``nbytes`` is the logical payload — the full gradient buffer, or
        the total gathered tensor for ``all_gather`` — and the *last*
        factor, so :class:`~repro.dist.comm.SimComm` can precompute the
        bytes per payload byte and still charge exactly these values.
        """
        occupied, per_group = self.group_shape(world_size)
        phases = 2.0 if op == "all_reduce" else 1.0
        intra = phases * ((per_group - 1) / per_group)
        inter = phases * ((occupied - 1) / occupied)
        if op in ("all_reduce", "reduce_scatter", "all_gather"):
            inter /= per_group  # each leader owns a 1/R slice
        elif op != "broadcast":
            raise DistError(f"topology: unknown collective op {op!r}")
        return {"intra": intra * float(nbytes), "inter": inter * float(nbytes)}

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, suitable for miniyaml / ``TrainConfig.to_dict``."""
        return {
            "nodes": self.nodes,
            "ranks_per_node": self.ranks_per_node,
            "intra_bandwidth": self.intra_bandwidth,
            "inter_bandwidth": self.inter_bandwidth,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Topology":
        """Build from a mapping; unknown keys are rejected loudly."""
        if not isinstance(data, dict):
            raise DistError(f"topology: expected a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise DistError(f"topology: unknown field(s) {', '.join(unknown)}")
        for required in ("nodes", "ranks_per_node"):
            if required not in data:
                raise DistError(f"topology: missing required field {required!r}")
        return cls(**data)

    @classmethod
    def from_shape(cls, spec: str, **kwargs: Any) -> "Topology":
        """Build from an ``"NxR"`` spec string, e.g. ``Topology.from_shape("2x4")``.

        Extra keyword arguments (bandwidths) pass through to the
        constructor.  This is the shorthand the soak script and tests use.
        """
        parts = str(spec).lower().split("x")
        if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
            raise DistError(
                f"topology: shape spec must look like '2x4', got {spec!r}"
            )
        return cls(nodes=int(parts[0]), ranks_per_node=int(parts[1]), **kwargs)

    def to_yaml(self, path) -> None:
        """Write the topology as a miniyaml document at ``path``."""
        dump_file(path, self.to_dict())

    @classmethod
    def from_yaml(cls, path) -> "Topology":
        """Load a topology from a miniyaml document (see ``docs/topology.md``)."""
        return cls.from_dict(load_file(path))

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.shape} ({self.world_size} ranks; "
            f"intra {self.intra_bandwidth / 1e9:.0f} GB/s, "
            f"inter {self.inter_bandwidth / 1e9:.0f} GB/s)"
        )
