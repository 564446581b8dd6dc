"""The simulated ZeRO stage-3 engine over tailored parameter groups.

This is the repo's stand-in for DeepSpeed's ``FP16_Optimizer`` +
partitioning machinery (paper §2.2): every optimizer parameter group is
flattened, padded, and split into one fp32 *master* shard per data-
parallel rank; each rank runs its own AdamW over its shards; after every
step the updated masters are all-gathered and re-quantized into the
model's storage-precision (bf16) weights.

Because all ranks live in one process and see the same gradient, the
training math is world-size invariant: ``world_size=1`` and
``world_size=4`` produce identical losses and masters (a property the
test suite pins down).  What sharding *does* change is the checkpoint
anatomy — :meth:`ZeroStage3Engine.rank_state_dict` emits exactly the
monolithic per-rank shard payload (:mod:`repro.dist.shard` owns the
format) that LLMTailor's merge tool, checkpoint writer/reader, and
verifier all operate on.

The engine owns persistent per-group buffers: a contiguous padded fp32
master buffer whose per-rank shards are slice views (gather = a slice),
a padded gradient staging buffer that :meth:`ZeroStage3Engine.step`
copies each parameter's ``.grad`` into and the reduce-scatter slices in
place, and a shared quantize scratch for the single vectorized
re-quantize pass per group — so a step allocates nothing proportional to
the model size.  The allocate-per-step formulation it replaced lives on
as the ``ReferenceZeroEngine`` test oracle (``tests/conftest.py``);
``tests/test_step_fused.py`` pins the two bit-for-bit against each
other.  Because shards are *views*, any payload that outlives the step
must copy (the copy-on-save rule in :meth:`rank_state_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..autograd.tensor import Tensor
from ..nn.config import ModelConfig
from ..nn.module import Module
from ..numerics.dtypes import DType, quantize
from ..optim.adam import AdamW
from ..optim.optimizer import ParamGroup
from ..util.errors import CheckpointError, ConfigError, DistError
from .comm import SimComm
from .partition import GroupPartition, flatten_arrays, unflatten_array
from .shard import (
    SHARD_FORMAT_VERSION,
    GroupEntry,
    build_payload,
    check_payload,
    group_payload_crc,
)

__all__ = ["SHARD_FORMAT_VERSION", "GroupMeta", "ZeroStage3Engine", "group_payload_crc"]


@dataclass(frozen=True)
class GroupMeta:
    """Static description of one sharded parameter group."""

    index: int
    name: str
    slot: str
    weight_decay: float
    param_names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    numel: int
    partition: GroupPartition

    def header(self) -> dict[str, Any]:
        """The serializable group header stored in every rank shard."""
        return {
            "index": self.index,
            "name": self.name,
            "slot": self.slot,
            "weight_decay": float(self.weight_decay),
            "param_names": list(self.param_names),
            "shapes": [list(s) for s in self.shapes],
            "numel": self.numel,
            "padded_numel": self.partition.padded_numel,
        }


class ZeroStage3Engine:
    """Per-rank AdamW over flattened, padded, sharded fp32 masters."""

    def __init__(
        self,
        model: Module,
        config: ModelConfig,
        groups: Iterable[ParamGroup],
        *,
        world_size: int = 1,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        topology=None,
    ) -> None:
        groups = list(groups)
        if not groups:
            raise ConfigError("ZeroStage3Engine needs at least one parameter group")
        if len(groups) != config.num_param_groups_tailored:
            raise ConfigError(
                f"expected {config.num_param_groups_tailored} tailored groups for "
                f"{config.name}, got {len(groups)}"
            )
        self.model = model
        self.config = config
        # A topology is the communicator's cost model: it changes byte
        # accounting, never results.
        self.comm = SimComm(world_size, topology)  # validates world_size
        self.world_size = self.comm.world_size
        self._dtype: DType = config.storage_dtype

        self._params: list[list[Tensor]] = []
        self._shard_params: list[list[Tensor]] = []  # [group][rank]
        # Persistent buffers, one per group:
        #   _master_bufs[g]  padded fp32 masters; every rank's shard is a
        #                    slice view, so gather is ``buf[:numel]``
        #   _grad_bufs[g]    padded fp32 gradient staging buffer; the
        #                    reduce-scatter hands each rank a slice view
        # plus one shared quantize scratch sized to the largest group.
        self._master_bufs: list[np.ndarray] = []
        self._grad_bufs: list[np.ndarray] = []
        metas: list[GroupMeta] = []
        seen: set[int] = set()
        for index, group in enumerate(groups):
            params = list(group.get("params", ()))
            names = tuple(group.get("param_names", ()))
            if not params or len(params) != len(names):
                raise ConfigError(
                    f"group {index} must carry matching 'params' and 'param_names'"
                )
            for p in params:
                if id(p) in seen:
                    raise ConfigError("a parameter appears in more than one group")
                seen.add(id(p))
            shapes = tuple(tuple(p.data.shape) for p in params)
            numel = int(sum(p.data.size for p in params))
            partition = GroupPartition(numel, self.world_size)
            metas.append(
                GroupMeta(
                    index=index,
                    name=str(group.get("name", f"group_{index}")),
                    slot=str(group.get("slot", "")),
                    weight_decay=float(group.get("weight_decay", 0.0)),
                    param_names=names,
                    shapes=shapes,
                    numel=numel,
                    partition=partition,
                )
            )
            self._params.append(params)
            # fp32 masters: the flattened initial weights, padded; each
            # rank's shard is a view into the one buffer.
            master_buf = partition.pad(flatten_arrays([p.data for p in params]))
            self._master_bufs.append(master_buf)
            self._grad_bufs.append(np.zeros(partition.padded_numel, dtype=np.float32))
            self._shard_params.append(
                [Tensor(view) for view in partition.shard_views(master_buf)]
            )
        self.group_meta: tuple[GroupMeta, ...] = tuple(metas)
        max_padded = max(m.partition.padded_numel for m in self.group_meta)
        self._quant_buf: np.ndarray = np.zeros(max_padded, dtype=np.float32)

        # One AdamW per rank over that rank's shard of every group.
        self.optimizers: list[AdamW] = []
        for rank in range(self.world_size):
            rank_groups = [
                {
                    "params": [self._shard_params[g][rank]],
                    "param_names": list(meta.param_names),
                    "name": meta.name,
                    "slot": meta.slot,
                    "weight_decay": meta.weight_decay,
                }
                for g, meta in enumerate(self.group_meta)
            ]
            self.optimizers.append(AdamW(rank_groups, lr=lr, betas=betas, eps=eps))

        # Schedulers drive rank 0; engine.step() mirrors its LR everywhere.
        self.reference_optimizer: AdamW = self.optimizers[0]

        # Model weights are the storage-precision image of the masters.
        for g in range(len(self.group_meta)):
            self._materialize_group(g)

    # -- weight re-materialization -----------------------------------------

    def _gathered_master(self, g: int) -> np.ndarray:
        """The group's unpadded fp32 master vector.

        A zero-copy view into the group's contiguous master buffer
        (callers that persist it must copy — see :meth:`rank_state_dict`).
        """
        return self._master_bufs[g][: self.group_meta[g].numel]

    def _materialize_group(self, g: int, *, via_comm: bool = False) -> None:
        """Write ``quantize(master)`` back into the group's model weights."""
        meta = self.group_meta[g]
        if via_comm:
            # Shards are views into the master buffer, so the gather
            # moves no data — only the ring-model bytes are charged.
            self.comm.all_gather_into(
                [t.data for t in self._shard_params[g]], self._master_bufs[g]
            )
        # One vectorized quantize pass per group into the shared
        # scratch, then zero-copy reshaped views per parameter.
        quantized = quantize(
            self._gathered_master(g), self._dtype, out=self._quant_buf[: meta.numel]
        )
        offset = 0
        for param in self._params[g]:
            n = param.data.size
            param.data[...] = quantized[offset : offset + n].reshape(param.data.shape)
            offset += n

    # -- training ----------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear gradients on every model parameter and every rank's shards."""
        for params, shards in zip(self._params, self._shard_params):
            for p in params:
                p.grad = None
            for t in shards:
                t.grad = None

    def step(self) -> None:
        """Reduce-scatter grads, step every rank's AdamW, re-gather weights."""
        # Mirror the (scheduler-driven) reference LR to every rank first,
        # so all shards of a group update with identical hyper-parameters.
        for opt in self.optimizers[1:]:
            for ref_group, group in zip(self.reference_optimizer.param_groups, opt.param_groups):
                group["lr"] = ref_group["lr"]

        stepped: list[int] = []
        for g, params in enumerate(self._params):
            if all(p.grad is None for p in params):
                continue  # untouched group: AdamW would skip it too
            # Flatten straight into the persistent padded buffer (the
            # tail is zero by construction and never written).
            buf = self._grad_bufs[g]
            offset = 0
            for p in params:
                n = p.data.size
                if p.grad is None:
                    buf[offset : offset + n] = 0.0
                else:
                    np.copyto(buf[offset : offset + n], p.grad.reshape(-1))
                offset += n
            # Every simulated rank holds the same (already averaged)
            # gradient; the in-place reduce-scatter hands each rank a
            # slice view of the buffer instead of a copy.
            shards = self.comm.reduce_scatter_mean_into(
                [buf] * self.world_size, out=buf
            )
            for rank, shard in enumerate(shards):
                self._shard_params[g][rank].grad = shard
            stepped.append(g)

        for opt in self.optimizers:
            opt.step()

        # Consume the shard gradients: a group skipped on the *next* step
        # must not be re-updated with this step's stale gradient.
        for shards in self._shard_params:
            for t in shards:
                t.grad = None

        for g in stepped:
            self._materialize_group(g, via_comm=True)

    # -- state access ------------------------------------------------------

    def master_state_dict(self) -> dict[str, np.ndarray]:
        """Unsharded fp32 master weights, keyed like ``model.state_dict()``."""
        out: dict[str, np.ndarray] = {}
        for g, meta in enumerate(self.group_meta):
            master = self._gathered_master(g)
            for name, view in zip(meta.param_names, unflatten_array(master, meta.shapes)):
                out[name] = view
        return out

    def _moment_state(self, rank: int, g: int) -> dict[str, Any]:
        param = self._shard_params[g][rank]
        state = self.optimizers[rank].state.get(id(param)) or {}
        shard_numel = self.group_meta[g].partition.shard_numel
        out: dict[str, Any] = {"step": int(state.get("step", 0))}
        for key in ("exp_avg", "exp_avg_sq"):
            value = state.get(key)
            # Exactly one allocation either way: a fresh zero buffer when
            # the moment was never created, or a single copy-with-cast of
            # the live buffer (np.array copies once even when casting —
            # the old asarray().copy() spelling copied twice for missing
            # or non-fp32 entries).
            out[key] = (
                np.zeros(shard_numel, dtype=np.float32)
                if value is None
                else np.array(value, dtype=np.float32)
            )
        return out

    # -- checkpoint hooks --------------------------------------------------

    def rank_state_dict(
        self, rank: int, slots: Iterable[str] | None = None
    ) -> dict[str, Any]:
        """One rank's monolithic shard payload, optionally slot-filtered."""
        if not 0 <= rank < self.world_size:
            raise DistError(f"rank {rank} out of range for world_size {self.world_size}")
        slot_set = None if slots is None else set(slots)
        entries = []
        for g, meta in enumerate(self.group_meta):
            if slot_set is not None and meta.slot not in slot_set:
                continue
            # Hyper-parameters come from the scheduler-driven *reference*
            # optimizer for every rank: ranks >= 1 only mirror its LR at
            # the top of the next step, so their own copy can be one
            # schedule tick stale at save time.  Emitting the reference
            # makes shards canonical (all ranks agree), which is what
            # lets the elastic resharder re-partition hyperparams
            # losslessly at any N->M.
            group = self.reference_optimizer.param_groups[g]
            hyper = {
                "index": g,
                "lr": float(group["lr"]),
                "betas": [float(b) for b in group["betas"]],
                "eps": float(group["eps"]),
                "weight_decay": float(group["weight_decay"]),
            }
            # Copy-on-save: the shard tensors are views into the group's
            # live master buffer, which the next step mutates in place — a
            # payload holding views would silently change after save.
            moments = self._moment_state(rank, g)
            entries.append(
                GroupEntry(
                    meta.header(), hyper, self._shard_params[g][rank].data.copy(),
                    moments["step"], moments["exp_avg"], moments["exp_avg_sq"],
                )
            )
        return build_payload(self.world_size, rank, len(self.group_meta), entries)

    def load_rank_state_dict(
        self, rank: int, state: dict[str, Any], *, materialize: bool = True
    ) -> None:
        """Restore one rank's shard payload (inverse of :meth:`rank_state_dict`).

        The payload must be a complete shard written for this engine's
        world size, rank and group layout (:func:`~repro.dist.shard
        .check_payload`, every group CRC-verified); nothing is written
        into the engine until every group passed, so a corrupt group
        leaves the live masters untouched and the caller can repair the
        shard and retry.  A checkpoint written at another world size
        loads through :func:`repro.io.load_checkpoint`, which reshards it
        on the way.

        ``materialize=False`` skips rewriting the model weights from the
        masters — callers restoring every rank in a loop (the checkpoint
        reader) only need it on the final rank.
        """
        if not 0 <= rank < self.world_size:
            raise DistError(f"rank {rank} out of range for world_size {self.world_size}")
        entries = check_payload(
            state, world_size=self.world_size, rank=rank, origin=f"rank {rank} shard",
            error=CheckpointError, complete=True,
            expect={m.index: m.header() for m in self.group_meta},
        )
        # Owned copies and parsed hyper-parameters, staged before anything mutates.
        opt = self.optimizers[rank]
        staged = []
        for g, e in entries.items():
            moments = {
                "step": e.step, "exp_avg": e.exp_avg.copy(), "exp_avg_sq": e.exp_avg_sq.copy(),
            }
            hyper = {k: float(e.hyper[k]) for k in ("lr", "eps", "weight_decay") if k in e.hyper}
            if "betas" in e.hyper:
                hyper["betas"] = tuple(float(b) for b in e.hyper["betas"])
            staged.append((g, e.fp32, moments, hyper))
        for g, fp32, moments, hyper in staged:
            param = self._shard_params[g][rank]
            param.data[...] = fp32
            opt.state[id(param)] = moments
            opt.param_groups[g].update(hyper)
            # Keep model weights consistent with the (now restored) masters.
            if materialize:
                self._materialize_group(g)

    def __repr__(self) -> str:
        return (
            f"ZeroStage3Engine(model={self.config.name!r}, "
            f"world_size={self.world_size}, groups={len(self.group_meta)})"
        )
