"""Deterministic in-process collectives for the simulated ZeRO-3 ranks.

Real data-parallel training runs one process per rank; here every rank
lives in the same process and a collective is a plain function over the
list of per-rank buffers (index ``r`` is rank ``r``'s buffer).  The
semantics — and the validation errors — mirror NCCL's contracts: every
rank must participate, and buffers must agree on shape and dtype.

Byte accounting follows the standard ring-algorithm cost model (the one
DeepSpeed/NCCL realize on a single node):

* all-reduce moves ``2 * (n-1)/n * nbytes`` per rank (reduce-scatter
  phase + all-gather phase);
* reduce-scatter and all-gather each move ``(n-1)/n * nbytes`` per rank;
* broadcast pipelines the buffer around the ring, ``(n-1)/n * nbytes``.

At ``world_size == 1`` every collective is a local copy and moves zero
bytes — which is why the stats are worth keeping: they expose exactly
how much traffic sharding adds at a given world size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..util.errors import DistError

__all__ = ["CommStats", "SimComm", "make_comm"]


@dataclass
class CommStats:
    """Ring-model traffic accounting, per collective op."""

    bytes_by_op: dict[str, float] = field(default_factory=dict)
    calls_by_op: dict[str, int] = field(default_factory=dict)

    def charge(self, op: str, nbytes: float) -> None:
        """Record one collective: add its ring-model bytes and bump the call count."""
        self.bytes_by_op[op] = self.bytes_by_op.get(op, 0.0) + float(nbytes)
        self.calls_by_op[op] = self.calls_by_op.get(op, 0) + 1

    def total_bytes(self) -> float:
        """Sum of ring-model bytes over all ops."""
        return float(sum(self.bytes_by_op.values()))

    def reset(self) -> None:
        """Zero all byte and call counters."""
        self.bytes_by_op.clear()
        self.calls_by_op.clear()


class SimComm:
    """A simulated communicator over ``world_size`` in-process ranks.

    The *interface* any communicator the engine can drive exposes:
    :class:`~repro.dist.topology.HierComm` subclasses it and overrides
    only the charge hook, and :class:`~repro.dist.faults.ChaosComm`
    wraps one by delegation.
    """

    def __init__(self, world_size: int) -> None:
        if not isinstance(world_size, (int, np.integer)) or world_size < 1:
            raise DistError(f"world_size must be a positive integer, got {world_size!r}")
        self.world_size = int(world_size)
        self.stats = CommStats()

    # -- validation ---------------------------------------------------------

    def _check_buffers(self, buffers: Sequence[np.ndarray], op: str) -> list[np.ndarray]:
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
        return bufs

    def _ring_fraction(self) -> float:
        return (self.world_size - 1) / self.world_size

    def _charge_collective(self, op: str, nbytes: float) -> None:
        """Charge one collective over ``nbytes`` of raw payload.

        ``nbytes`` is the *logical* buffer size (the full gradient /
        gathered tensor), not the wire traffic: this hook applies the
        cost model.  The flat-ring base implementation charges
        ``(n-1)/n * nbytes`` (doubled for all-reduce, which is a
        reduce-scatter phase plus an all-gather phase).  The
        topology-aware subclasses (:class:`~repro.dist.topology.HierComm`)
        override it to split the same payload across intra-node and
        inter-node link classes — the *arithmetic* of every collective is
        shared and stays bitwise-identical; only this accounting differs.
        """
        multiplier = 2.0 if op == "all_reduce" else 1.0
        self.stats.charge(op, multiplier * self._ring_fraction() * nbytes)

    def _mean(self, bufs: list[np.ndarray]) -> np.ndarray:
        """Element-wise mean at O(numel) peak memory.

        The engine passes ``world_size`` references to one shared
        gradient buffer; the identity fast path keeps that case both
        allocation-free and bitwise exact at any world size.
        """
        first = bufs[0]
        if all(b is first for b in bufs[1:]):
            return first.copy()
        acc = first.copy() if first.dtype.kind == "f" else first.astype(np.float32)
        for buf in bufs[1:]:
            acc += buf
        acc /= self.world_size
        return acc

    # -- collectives --------------------------------------------------------

    def all_reduce_mean(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise mean over all ranks' buffers; every rank gets it."""
        bufs = self._check_buffers(buffers, "all_reduce")
        self._charge_collective("all_reduce", bufs[0].nbytes)
        return self._mean(bufs)

    def reduce_scatter_mean(self, buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Mean over ranks, then rank ``r`` receives the ``r``-th slice.

        Buffers must be flat and evenly divisible by the world size —
        exactly the shape :class:`~repro.dist.partition.GroupPartition`
        padding guarantees.
        """
        bufs = self._check_buffers(buffers, "reduce_scatter")
        flat = bufs[0]
        if flat.ndim != 1:
            raise DistError(f"reduce_scatter: buffers must be flat, got shape {flat.shape}")
        if flat.size % self.world_size:
            raise DistError(
                f"reduce_scatter: buffer length {flat.size} not divisible by "
                f"world_size {self.world_size}"
            )
        self._charge_collective("reduce_scatter", flat.nbytes)
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
        bufs = self._check_buffers(buffers, "reduce_scatter")
        flat = bufs[0]
        if flat.ndim != 1:
            raise DistError(f"reduce_scatter: buffers must be flat, got shape {flat.shape}")
        if flat.size % self.world_size:
            raise DistError(
                f"reduce_scatter: buffer length {flat.size} not divisible by "
                f"world_size {self.world_size}"
            )
        if out.shape != flat.shape or out.dtype != flat.dtype:
            raise DistError(
                f"reduce_scatter: out buffer shape/dtype {out.shape}/{out.dtype} "
                f"!= input {flat.shape}/{flat.dtype}"
            )
        self._charge_collective("reduce_scatter", flat.nbytes)
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
        self._charge_collective("all_gather", total_nbytes)
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
        self._charge_collective("all_gather", total_nbytes)
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
        self._charge_collective("broadcast", src.nbytes)
        return [src.copy() for _ in range(self.world_size)]

    def __repr__(self) -> str:
        return (
            f"SimComm(world_size={self.world_size}, "
            f"total_bytes={self.stats.total_bytes():.0f})"
        )


def make_comm(world_size: int, topology=None) -> SimComm:
    """The communicator for a world: the flat ring, or — under a
    :class:`~repro.dist.topology.Topology` — the hierarchical one (same
    arithmetic, per-link-class byte accounting)."""
    if topology is None:
        return SimComm(world_size)
    from .topology import HierComm  # subclasses SimComm: import lazily

    return HierComm(world_size, topology)
