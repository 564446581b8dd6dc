"""Weight-file merging: lazy per-tensor copies between checkpoints.

Unlike optimizer shards, model weights live in a lazily readable
container, so assembling a Frankenstein weight file touches only the
bytes of the tensors being copied ("lazy loading, as in the case of
model weights" — paper §5.4).  Tensors pass through bit-exactly: they
are already quantized to the storage dtype, so re-encoding is lossless.

The merge pipes raw tensor bytes from the source readers straight into
a :class:`TensorFileWriter`, one tensor in memory at a time; the merged
state dict never exists as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..io.layout import WEIGHTS_NAME
from ..io.tensorfile import TensorFile, TensorFileWriter
from ..nn.slots import model_slots, slot_parameter_shapes
from ..numerics.dtypes import DType, unpack_bits
from ..util.errors import MergeError
from ..util.timer import WallTimer
from .plan import MergePlan

__all__ = ["WeightMergeStats", "merge_weight_files"]


@dataclass
class WeightMergeStats:
    tensors_copied: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    files_opened: int = 0
    seconds: float = 0.0
    per_slot_bytes: dict[str, int] = field(default_factory=dict)


def _merge_metadata(plan: MergePlan) -> dict:
    return {
        "model": plan.config.name,
        "merged_by": "llmtailor",
        "slots": model_slots(plan.config),
        "sources": {s: str(cp.dir) for s, cp in plan.slot_sources.items()},
    }


def _iter_slot_tensors(plan: MergePlan, stats: WeightMergeStats):
    """Yield ``(slot, name, reader)`` per tensor in canonical model order,
    validating presence/shape and keeping the per-slot byte accounting."""
    expected = slot_parameter_shapes(plan.config)
    readers: dict[str, TensorFile] = {}
    for slot in model_slots(plan.config):
        source = plan.slot_sources[slot]
        key = str(source.dir)
        reader = readers.get(key)
        if reader is None:
            reader = TensorFile(source.weights)
            readers[key] = reader
            stats.files_opened += 1
        slot_bytes = 0
        for name, shape in expected[slot].items():
            if name not in reader:
                raise MergeError(
                    f"checkpoint {source.dir} lacks tensor {name!r} required for slot {slot!r}"
                )
            if reader.shape(name) != tuple(shape):
                raise MergeError(
                    f"tensor {name!r} in {source.dir} has shape {reader.shape(name)}, "
                    f"model expects {tuple(shape)}"
                )
            nbytes = reader.nbytes(name)
            slot_bytes += nbytes
            stats.bytes_read += nbytes
            stats.tensors_copied += 1
            yield slot, name, reader
        stats.per_slot_bytes[slot] = slot_bytes


def merge_weight_files(plan: MergePlan) -> WeightMergeStats:
    """Assemble ``<output>/model.tsr`` from the plan's slot sources."""
    stats = WeightMergeStats()
    timer = WallTimer()
    timer.start()
    target_dtype = plan.config.storage_dtype

    with TensorFileWriter(
        plan.output / WEIGHTS_NAME, metadata=_merge_metadata(plan)
    ) as writer:
        for _slot, name, reader in _iter_slot_tensors(plan, stats):
            raw, entry = reader.read_raw(name)
            if entry["dtype"] == target_dtype.value:
                writer.add_raw(name, raw, entry)
            else:  # stored at another precision: decode the bytes already
                # fetched (no second read) and re-encode at the target dtype
                src_dtype = DType.parse(entry["dtype"])
                decoded = unpack_bits(
                    np.frombuffer(raw, dtype=src_dtype.packed_numpy), src_dtype
                ).reshape(entry["shape"])
                writer.add(name, decoded, target_dtype)
    stats.bytes_written = (plan.output / WEIGHTS_NAME).stat().st_size
    stats.seconds = timer.stop()
    return stats

