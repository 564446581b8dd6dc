"""Checkpoint writer: full or partial (layer-selective) snapshots.

A *full* checkpoint stores every slot; a *partial* one stores only the
slots a :class:`repro.strategies` policy selected for this step.  Both
use the identical layout; ``tailor_manifest.json`` records coverage.
The directory is written inside one
:meth:`~repro.io.layout.CheckpointPaths.rewrite` transaction, which owns
the order (un-publish first, manifest last) and the manifest's schema.

A save's one price is :func:`price_save` (the weight file by rank 0
alone, as in §2.3, then one shard per rank in parallel); dry runs charge
it nominal bytes.  Only the writer charges config files.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..dist.zero import ZeroStage3Engine
from ..nn.config import ModelConfig
from ..nn.module import Module
from ..nn.slots import model_slots, slot_of_param
from ..util.errors import CheckpointError
from ..util.jsonio import write_json_atomic
from .blobfile import write_blob
from .layout import CheckpointPaths, checkpoint_dir, write_latest
from .storage import Storage
from .tensorfile import write_tensorfile

__all__ = ["price_save", "save_checkpoint"]


def price_save(
    storage: Storage, weight_bytes: int, shard_bytes: int, world_size: int,
    category: str = "checkpoint_write",
) -> None:
    """Charge ``storage`` one checkpoint save: the weight file by one
    writer, then the ``world_size`` optimizer shards (``shard_bytes`` over
    all ranks) concurrently — the two phases are sequential, as in the
    DeepSpeed save path."""
    storage.charge_write(weight_bytes, files=1, parallel=1, category=f"{category}.weights")
    storage.charge_write(shard_bytes, files=world_size, parallel=world_size,
                         category=f"{category}.optimizer")


def save_checkpoint(
    storage: Storage,
    *,
    step: int,
    model: Module,
    config: ModelConfig,
    engine: ZeroStage3Engine,
    trainer_state: dict[str, Any],
    training_args: dict[str, Any] | None = None,
    scheduler_state: dict[str, Any] | None = None,
    rng_state: dict[str, Any] | None = None,
    slots: Iterable[str] | None = None,
    strategy: str = "full",
    update_latest: bool = True,
) -> CheckpointPaths:
    """Write ``checkpoint-<step>`` under the storage root.

    ``slots=None`` saves everything; otherwise only the named slots'
    weights and optimizer groups are written.  Returns the path bundle.
    """
    all_slots = model_slots(config)
    if slots is None:
        saved_slots = list(all_slots)
    else:
        saved_slots = [s for s in all_slots if s in set(slots)]
        unknown = set(slots) - set(all_slots)
        if unknown:
            raise CheckpointError(f"unknown slots for {config.name}: {sorted(unknown)}")
        if not saved_slots:
            raise CheckpointError("refusing to write a checkpoint with zero slots")

    paths = checkpoint_dir(storage.root, step)
    slot_set = set(saved_slots)
    with paths.rewrite(step, engine.world_size) as tx:
        # 1. Consolidated model weights (bf16, lazy container), rank-0 serial.
        tensors = {
            name: value for name, value in model.state_dict().items()
            if slot_of_param(name) in slot_set
        }
        weight_bytes = write_tensorfile(
            tx.weights, tensors, dtype=config.storage_dtype,
            metadata={"model": config.name, "step": step, "slots": saved_slots,
                      "strategy": strategy},
        )

        # 2. Per-rank optimizer shard blobs, written one rank after another
        # (only price_save models the ranks writing concurrently).
        shard_bytes = 0
        for rank in range(engine.world_size):
            shard = engine.rank_state_dict(rank, slots=slot_set)
            shard["global_step"] = step
            shard_bytes += write_blob(tx.shard(rank), shard)
        price_save(storage, weight_bytes, shard_bytes, engine.world_size)

        # 3. Config / metadata files (paper §4.4), then the manifest (publish
        # first sweeps shards a write of this step at a larger world left).
        write_json_atomic(tx.config, config.to_dict())
        write_json_atomic(tx.trainer_state, trainer_state)
        write_json_atomic(tx.training_args, training_args or {})
        write_json_atomic(tx.scheduler, scheduler_state or {})
        write_json_atomic(tx.rng_state, rng_state or {})
        tx.publish(
            model_config=config.name, strategy=strategy,
            slots=saved_slots, all_slots=all_slots,
        )
    config_bytes = sum(
        (paths.dir / name).stat().st_size for name in CheckpointPaths.CONFIG_FILES
    ) + paths.manifest.stat().st_size
    storage.charge_write(
        config_bytes, files=len(CheckpointPaths.CONFIG_FILES) + 1, parallel=1,
        category="checkpoint_write.config",
    )

    if update_latest:
        write_latest(storage.root, step)
    return paths
