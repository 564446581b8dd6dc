"""Deterministic in-process collectives for the simulated ZeRO-3 ranks.

Real data-parallel training runs one process per rank; here every rank
lives in the same process and a collective is a plain function over the
list of per-rank buffers (index ``r`` is rank ``r``'s buffer).  The
semantics — and the validation errors — mirror NCCL's contracts: every
rank must participate, and buffers must agree on shape and dtype.

:class:`SimComm` is the only communicator.  What a collective *computes*
never depends on the cluster; what it *costs* is the communicator's
:class:`~repro.dist.topology.Topology`, whose ``collective_bytes`` — the
one place the ring algebra is written — is charged per link class as
``"<op>/intra"`` and ``"<op>/inter"``.  Without a topology the cost model
is the flat ring, which *is* one rank per node (``Topology(world_size,
1)``: all ``(n-1)/n * nbytes`` cross the fabric), recorded under the bare
op name.  At ``world_size == 1`` every collective is a local copy and
moves zero bytes, so the stats expose exactly what sharding adds.

Faults never change what moves, only how long it takes: after
:meth:`SimComm.price_faults` every charge also costs ``bytes / bandwidth
* slowdown`` simulated seconds of its link class (``docs/faults.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..util.errors import DistError
from .partition import GroupPartition
from .topology import LINK_CLASSES, Topology

__all__ = ["CommStats", "SimComm"]

_OPS = ("all_reduce", "reduce_scatter", "all_gather", "broadcast")


@dataclass
class CommStats:
    """Traffic accounting, per charged op (``"<op>"`` on the flat ring,
    ``"<op>/<link_class>"`` under a topology)."""

    bytes_by_op: dict[str, float] = field(default_factory=dict)
    calls_by_op: dict[str, int] = field(default_factory=dict)
    #: Simulated seconds under the attached fault plan; empty until
    #: :meth:`SimComm.price_faults`.
    seconds_by_op: dict[str, float] = field(default_factory=dict)

    def charge(self, op: str, nbytes: float, seconds: float | None = None) -> None:
        """Record one collective: its bytes, priced seconds and the call."""
        self.bytes_by_op[op] = self.bytes_by_op.get(op, 0.0) + float(nbytes)
        self.calls_by_op[op] = self.calls_by_op.get(op, 0) + 1
        if seconds is not None:
            self.seconds_by_op[op] = self.seconds_by_op.get(op, 0.0) + seconds

    def total_bytes(self) -> float:
        """Sum of cost-model bytes over all ops."""
        return float(sum(self.bytes_by_op.values()))

    def total_seconds(self) -> float:
        """Sum of simulated collective seconds over all ops."""
        return float(sum(self.seconds_by_op.values()))


class SimComm:
    """A simulated communicator over ``world_size`` in-process ranks.

    ``topology`` is the cost model (``None``: the flat ring); the
    collectives' arithmetic does not know it exists, so any two
    communicators of one world size return bit-identical buffers.
    """

    def __init__(self, world_size: int, topology: Topology | None = None) -> None:
        if not isinstance(world_size, (int, np.integer)) or world_size < 1:
            raise DistError(f"world_size must be a positive integer, got {world_size!r}")
        self.world_size = int(world_size)
        if topology is not None and not isinstance(topology, Topology):
            raise DistError(
                f"topology must be a Topology, got {type(topology).__name__}"
            )
        self.topology = topology
        self.stats = CommStats()
        # Fixed for a communicator's life: each op's (stats key, link class,
        # bytes per payload byte, bandwidth) rows.  The flat ring's
        # node-local class is identically zero and not recorded.
        flat = topology is None
        model = Topology(nodes=self.world_size, ranks_per_node=1) if flat else topology
        self._rows = {}
        for op in _OPS:
            # Raises when world_size exceeds the topology's capacity.
            per_byte = model.collective_bytes(op, 1.0, self.world_size)
            self._rows[op] = tuple(
                (op if flat else f"{op}/{c}", c, per_byte[c], model.bandwidth(c))
                for c in (("inter",) if flat else LINK_CLASSES)
            )
        self._plan = None
        self._clock = None
        self.current_step = 1

    # -- cost model ---------------------------------------------------------

    def charge(self, op: str, nbytes: float) -> None:
        """Charge one collective over ``nbytes`` of *logical* payload (the
        full gradient / gathered tensor, not the wire traffic): the cost
        model turns it into per-link-class bytes and, under a fault plan,
        into simulated seconds on the clock's ``"comm"`` category.
        """
        try:
            rows = self._rows[op]
        except KeyError:
            raise DistError(f"unknown collective op {op!r}") from None
        for key, link_class, per_byte, bandwidth in rows:
            moved = per_byte * nbytes
            seconds = None
            if self._plan is not None:
                seconds = moved / bandwidth * self.slowdown(link_class)
                if self._clock is not None and seconds > 0.0:
                    self._clock.advance(seconds, "comm")
            self.stats.charge(key, moved, seconds)

    def charge_step(self, group_numels: Iterable[int]) -> None:
        """Charge one ZeRO-3 optimizer step as the engine does: a
        reduce-scatter of every group's padded fp32 gradient buffer, then
        an all-gather of every group's updated masters — what a model-free
        dry run (:func:`~repro.strategies.planner.plan_step_traffic`, the
        supervisor's null leg) replays.
        """
        payloads = [
            4 * GroupPartition(numel, self.world_size).padded_numel
            for numel in group_numels
        ]
        for op in ("reduce_scatter", "all_gather"):
            for nbytes in payloads:
                self.charge(op, nbytes)

    def class_bytes(self, op: str) -> dict[str, float]:
        """Bytes charged so far for ``op``, per link class (the flat
        ring has only ``"inter"``)."""
        by_op = self.stats.bytes_by_op
        return {c: by_op.get(key, 0.0) for key, c, _, _ in self._rows[op]}

    # -- fault pricing ------------------------------------------------------

    def price_faults(self, plan, clock=None) -> None:
        """Price every later charge under ``plan`` (a
        :class:`~repro.dist.faults.FaultPlan`): its seconds go to
        ``stats.seconds_by_op`` and ``clock``'s ``"comm"`` category.
        Counters charged so far are kept.
        """
        self._plan, self._clock = plan, clock

    def set_step(self, step: int) -> None:
        """Position the fault schedule at a global step, so window-scoped
        events apply to exactly the steps they cover."""
        self.current_step = int(step)

    def slowdown(self, link_class: str | None = None) -> float:
        """The collective-time multiplier active at the current step (for
        one ``link_class``: only degradations on links of that class)."""
        if self._plan is None:
            return 1.0
        return self._plan.comm_slowdown(
            self.current_step, self.world_size,
            topology=self.topology, link_class=link_class,
        )

    # -- validation ---------------------------------------------------------

    def _check_buffers(
        self, buffers: Sequence[np.ndarray], op: str, *, mean: bool = False
    ) -> list[np.ndarray]:
        bufs = [np.asarray(b) for b in buffers]
        if len(bufs) != self.world_size:
            raise DistError(
                f"{op}: expected one buffer per rank ({self.world_size}), got {len(bufs)}"
            )
        first = bufs[0]
        for rank, buf in enumerate(bufs):
            if buf.shape != first.shape:
                raise DistError(
                    f"{op}: rank {rank} buffer shape {buf.shape} != rank 0 shape {first.shape}"
                )
            if buf.dtype != first.dtype:
                raise DistError(
                    f"{op}: rank {rank} buffer dtype {buf.dtype} != rank 0 dtype {first.dtype}"
                )
        if mean and first.dtype.kind != "f":
            raise DistError(
                f"{op}: a mean needs floating-point buffers, got dtype {first.dtype}"
            )
        return bufs

    def _check_scatter(self, buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        bufs = self._check_buffers(buffers, "reduce_scatter", mean=True)
        flat = bufs[0]
        if flat.ndim != 1:
            raise DistError(f"reduce_scatter: buffers must be flat, got shape {flat.shape}")
        if flat.size % self.world_size:
            raise DistError(
                f"reduce_scatter: buffer length {flat.size} not divisible by "
                f"world_size {self.world_size}"
            )
        return bufs

    def _mean(self, bufs: list[np.ndarray]) -> np.ndarray:
        """Element-wise mean at O(numel) peak memory.

        The engine passes ``world_size`` references to one shared
        gradient buffer; the identity fast path keeps that case both
        allocation-free and bitwise exact at any world size.
        """
        first = bufs[0]
        if all(b is first for b in bufs[1:]):
            return first.copy()
        acc = first.copy()
        for buf in bufs[1:]:
            acc += buf
        acc /= self.world_size
        return acc

    # -- collectives --------------------------------------------------------

    def all_reduce_mean(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise mean over all ranks' buffers; every rank gets it."""
        bufs = self._check_buffers(buffers, "all_reduce", mean=True)
        self.charge("all_reduce", bufs[0].nbytes)
        return self._mean(bufs)

    def reduce_scatter_mean(self, buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Mean over ranks, then rank ``r`` receives the ``r``-th slice.

        Buffers must be flat and evenly divisible by the world size —
        exactly the shape :class:`~repro.dist.partition.GroupPartition`
        padding guarantees.
        """
        bufs = self._check_scatter(buffers)
        flat = bufs[0]
        self.charge("reduce_scatter", flat.nbytes)
        mean = self._mean(bufs)
        if self.world_size == 1:
            return [mean]
        return [chunk.copy() for chunk in np.split(mean, self.world_size)]

    def reduce_scatter_mean_into(
        self, buffers: Sequence[np.ndarray], out: np.ndarray
    ) -> list[np.ndarray]:
        """Buffer-donating :meth:`reduce_scatter_mean`.

        Writes the element-wise mean into ``out`` (a flat buffer of the
        same shape/dtype as each input) and returns one zero-copy slice
        view of ``out`` per rank.  ``out`` may be ``buffers[0]`` itself —
        the engine's case, where every simulated rank already shares one
        gradient buffer and the whole collective degenerates to slicing —
        but must not alias any *other* input buffer.  Byte accounting is
        identical to the allocating variant.
        """
        bufs = self._check_scatter(buffers)
        flat = bufs[0]
        if out.shape != flat.shape or out.dtype != flat.dtype:
            raise DistError(
                f"reduce_scatter: out buffer shape/dtype {out.shape}/{out.dtype} "
                f"!= input {flat.shape}/{flat.dtype}"
            )
        self.charge("reduce_scatter", flat.nbytes)
        if out is not flat:
            np.copyto(out, flat)
        if not all(b is flat for b in bufs[1:]):
            for buf in bufs[1:]:
                out += buf
            out /= self.world_size
        shard = flat.size // self.world_size
        return [out[r * shard : (r + 1) * shard] for r in range(self.world_size)]

    def all_gather(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate every rank's shard; every rank gets the whole."""
        bufs = self._check_buffers(shards, "all_gather")
        total_nbytes = sum(b.nbytes for b in bufs)
        self.charge("all_gather", total_nbytes)
        if self.world_size == 1:
            return bufs[0].copy()
        return np.concatenate(bufs, axis=0)

    def all_gather_into(
        self, shards: Sequence[np.ndarray], out: np.ndarray
    ) -> np.ndarray:
        """Buffer-donating :meth:`all_gather`: concatenate into ``out``.

        ``out`` must be a flat buffer of ``world_size * shard_numel``
        elements.  A shard that already *is* its destination slice of
        ``out`` (the engine's case: master shards are views into one
        contiguous group buffer) is skipped rather than copied, so the
        gather is free when the data never moved.  Byte accounting is
        identical to the allocating variant.
        """
        bufs = self._check_buffers(shards, "all_gather")
        total_nbytes = sum(b.nbytes for b in bufs)
        shard = bufs[0].size
        if out.ndim != 1 or out.size != shard * self.world_size or out.dtype != bufs[0].dtype:
            raise DistError(
                f"all_gather: out buffer shape/dtype {out.shape}/{out.dtype} cannot "
                f"hold {self.world_size} x {bufs[0].shape}/{bufs[0].dtype} shards"
            )
        self.charge("all_gather", total_nbytes)
        for rank, buf in enumerate(bufs):
            dest = out[rank * shard : (rank + 1) * shard]
            if buf.ctypes.data != dest.ctypes.data:
                np.copyto(dest, buf)
        return out

    def broadcast(self, buffer: np.ndarray, root: int = 0) -> list[np.ndarray]:
        """Every rank receives an independent copy of ``root``'s buffer."""
        if not 0 <= root < self.world_size:
            raise DistError(
                f"broadcast: root {root} out of range for world_size {self.world_size}"
            )
        src = np.asarray(buffer)
        self.charge("broadcast", src.nbytes)
        return [src.copy() for _ in range(self.world_size)]

    def __repr__(self) -> str:
        shape = f", topology={self.topology.shape}" if self.topology else ""
        return (
            f"SimComm(world_size={self.world_size}{shape}, "
            f"total_bytes={self.stats.total_bytes():.0f})"
        )
